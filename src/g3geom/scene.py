"""Scene documents: one JSON file naming curves, surfaces, traces,
profiles and axes, for reproducible CLI runs.

Validation is strict: unknown keys are rejected at every level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .curve import CurveSpec
from .errors import SceneError
from .galilean import GVec3
from .surface import SurfaceSpec, TraceSpec
from .surfrev import ProfileSpec


@dataclass
class ProfileEntry:
    profile: ProfileSpec
    mode: str  # "euclidean" | "isotropic"


@dataclass
class Scene:
    curves: dict[str, CurveSpec] = field(default_factory=dict)
    surfaces: dict[str, SurfaceSpec] = field(default_factory=dict)
    traces: dict[str, TraceSpec] = field(default_factory=dict)
    profiles: dict[str, ProfileEntry] = field(default_factory=dict)
    axes: dict[str, GVec3] = field(default_factory=dict)


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, dict):
        raise SceneError(f"{where} must be a JSON object, got {obj!r}")
    extra = set(obj) - allowed
    if extra:
        raise SceneError(f"unknown keys {sorted(extra)} in {where}")
    missing = required - set(obj)
    if missing:
        raise SceneError(f"missing keys {sorted(missing)} in {where}")


def _number(v, what: str, where: str) -> float:
    """A finite JSON number (booleans excluded)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise SceneError(f"{what} must be a finite number in {where}, got {v!r}")
    return v


def _params(obj: dict, where: str) -> dict[str, float]:
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise SceneError(f"params must be a JSON object in {where}")
    for k, v in params.items():
        _number(v, f"params.{k}", where)
    return params


def _source(v, what: str, where: str) -> str:
    """An expression, which must be a JSON string."""
    if not isinstance(v, str):
        raise SceneError(f"{what} must be an expression string in {where}, got {v!r}")
    return v


def _domain1(v, where: str) -> tuple[float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SceneError(f"bad domain {v!r} in {where}")
    a, b = (float(_number(end, "domain end", where)) for end in v)
    if not a < b:
        raise SceneError(f"empty domain {v!r} in {where}")
    return a, b


def _load_curve(name: str, obj: dict) -> CurveSpec:
    where = f"curves.{name}"
    _check_keys(obj, {"f", "g", "domain", "params"}, {"f", "g", "domain"}, where)
    return CurveSpec.from_strings(*(_source(obj[k], k, where) for k in ("f", "g")),
                                  _domain1(obj["domain"], where), _params(obj, where))


def _load_surface(name: str, obj: dict) -> SurfaceSpec:
    where = f"surfaces.{name}"
    _check_keys(obj, {"x", "y", "z", "domain", "params"},
                {"x", "y", "z", "domain"}, where)
    dom = obj["domain"]
    if not isinstance(dom, (list, tuple)) or len(dom) != 2:
        raise SceneError(f"surface domain must be [[..],[..]] in {where}")
    return SurfaceSpec.from_strings(
        *(_source(obj[k], k, where) for k in ("x", "y", "z")),
        (_domain1(dom[0], where), _domain1(dom[1], where)),
        _params(obj, where))


def _load_trace(name: str, obj: dict) -> TraceSpec:
    where = f"traces.{name}"
    _check_keys(obj, {"u1", "u2", "domain", "params"}, {"u1", "u2", "domain"}, where)
    return TraceSpec.from_strings(*(_source(obj[k], k, where) for k in ("u1", "u2")),
                                  _domain1(obj["domain"], where), _params(obj, where))


def _load_profile(name: str, obj: dict) -> ProfileEntry:
    where = f"profiles.{name}"
    _check_keys(obj, {"g", "domain", "mode", "c", "params"}, {"g", "domain", "mode"}, where)
    mode = obj["mode"]
    if mode not in ("euclidean", "isotropic"):
        raise SceneError(f"mode must be euclidean or isotropic in {where}")
    profile = ProfileSpec.from_string(
        _source(obj["g"], "g", where), _domain1(obj["domain"], where),
        c=float(_number(obj.get("c", 1.0), "c", where)),
        parameters=_params(obj, where))
    return ProfileEntry(profile, mode)


def _load_axis(name: str, obj) -> GVec3:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise SceneError(f"axes.{name} must be a [x, y, z] array")
    return GVec3.from_seq(_number(v, "axis component", f"axes.{name}") for v in obj)


# section -> loader of one named entry
_SECTIONS = {"curves": _load_curve, "surfaces": _load_surface, "traces": _load_trace,
             "profiles": _load_profile, "axes": _load_axis}


def load_scene_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")
    _check_keys(doc, set(_SECTIONS), set(), "scene")
    scene = Scene()
    for key, load in _SECTIONS.items():
        section = doc.get(key) or {}
        if not isinstance(section, dict):
            raise SceneError(f"{key} must be a JSON object of named entries")
        for name, obj in section.items():
            getattr(scene, key)[name] = load(name, obj)
    return scene


def load_scene(path: str | Path) -> Scene:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SceneError(f"scene file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise SceneError(f"scene file is not valid JSON: {e}") from None
    return load_scene_dict(doc)
