"""Scene documents: one JSON file naming curves, surfaces, traces,
profiles, axes and isophote queries, for reproducible CLI runs.

Validation is strict: unknown keys are rejected at every level and all
cross references must resolve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .curve import CurveSpec
from .errors import SceneError
from .galilean import GVec3, normalize_axis
from .isophote import DEFAULT_GRID, DEFAULT_REFINE_TOL, IsophoteQuery
from .surface import SurfaceSpec, TraceSpec
from .surfrev import ProfileSpec


@dataclass
class ProfileEntry:
    profile: ProfileSpec
    mode: str  # "euclidean" | "isotropic"


@dataclass
class QueryEntry:
    surface: str
    query: IsophoteQuery


@dataclass
class Scene:
    curves: dict[str, CurveSpec] = field(default_factory=dict)
    surfaces: dict[str, SurfaceSpec] = field(default_factory=dict)
    traces: dict[str, TraceSpec] = field(default_factory=dict)
    profiles: dict[str, ProfileEntry] = field(default_factory=dict)
    axes: dict[str, GVec3] = field(default_factory=dict)
    queries: dict[str, QueryEntry] = field(default_factory=dict)


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


def _domain1(v, where: str) -> tuple[float, float]:
    try:
        a, b = float(v[0]), float(v[1])
    except (TypeError, ValueError, IndexError):
        raise SceneError(f"bad domain {v!r} in {where}") from None
    if not a < b:
        raise SceneError(f"empty domain {v!r} in {where}")
    return a, b


def _load_curve(name: str, obj: dict) -> CurveSpec:
    where = f"curves.{name}"
    _check_keys(obj, {"f", "g", "domain", "params"}, {"f", "g", "domain"}, where)
    return CurveSpec.from_strings(obj["f"], obj["g"], _domain1(obj["domain"], where),
                                  _params(obj, where))


def _load_surface(name: str, obj: dict) -> SurfaceSpec:
    where = f"surfaces.{name}"
    _check_keys(obj, {"x", "y", "z", "domain", "params"},
                {"x", "y", "z", "domain"}, where)
    dom = obj["domain"]
    if not isinstance(dom, (list, tuple)) or len(dom) != 2:
        raise SceneError(f"surface domain must be [[..],[..]] in {where}")
    return SurfaceSpec.from_strings(
        obj["x"], obj["y"], obj["z"],
        (_domain1(dom[0], where), _domain1(dom[1], where)),
        _params(obj, where))


def _load_trace(name: str, obj: dict) -> TraceSpec:
    where = f"traces.{name}"
    _check_keys(obj, {"u1", "u2", "domain", "params"}, {"u1", "u2", "domain"}, where)
    return TraceSpec.from_strings(obj["u1"], obj["u2"], _domain1(obj["domain"], where),
                                  _params(obj, where))


def _load_profile(name: str, obj: dict) -> ProfileEntry:
    where = f"profiles.{name}"
    _check_keys(obj, {"g", "domain", "mode", "c", "A", "params"},
                {"g", "domain", "mode"}, where)
    mode = obj["mode"]
    if mode not in ("euclidean", "isotropic"):
        raise SceneError(f"mode must be euclidean or isotropic in {where}")
    profile = ProfileSpec.from_string(
        obj["g"], _domain1(obj["domain"], where),
        c=float(_number(obj.get("c", 1.0), "c", where)),
        A=float(_number(obj.get("A", 0.0), "A", where)),
        parameters=_params(obj, where))
    return ProfileEntry(profile, mode)


def _load_axis(name: str, obj) -> GVec3:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise SceneError(f"axes.{name} must be a [x, y, z] array")
    return GVec3.from_seq(_number(v, "axis component", f"axes.{name}") for v in obj)


def _load_query(name: str, obj: dict, scene: Scene) -> QueryEntry:
    where = f"queries.{name}"
    _check_keys(obj, {"surface", "axis", "beta", "level", "silhouette",
                      "grid", "refine_tol"}, {"surface", "axis"}, where)
    sname = obj["surface"]
    if sname not in scene.surfaces:
        raise SceneError(f"{where} references unknown surface {sname!r}")
    axis_ref = obj["axis"]
    if isinstance(axis_ref, str):
        if axis_ref not in scene.axes:
            raise SceneError(f"{where} references unknown axis {axis_ref!r}")
        axis = scene.axes[axis_ref]
    else:
        axis = _load_axis(name, axis_ref)
    axis = normalize_axis(axis)
    grid = obj.get("grid", DEFAULT_GRID)
    if (not isinstance(grid, (list, tuple)) or len(grid) != 2
            or not all(type(n) is int and n >= 2 for n in grid)):
        raise SceneError(f"grid must be two integers >= 2 in {where}, got {grid!r}")
    tol = float(_number(obj.get("refine_tol", DEFAULT_REFINE_TOL), "refine_tol", where))
    chosen = [k for k in ("beta", "level", "silhouette") if obj.get(k) is not None]
    if len(chosen) != 1:
        raise SceneError(f"{where} needs exactly one of beta | level | silhouette")
    if chosen[0] == "beta":
        query = IsophoteQuery.for_angle(axis, float(_number(obj["beta"], "beta", where)),
                                        grid, tol)
    elif chosen[0] == "level":
        query = IsophoteQuery.raw_level(axis, float(_number(obj["level"], "level", where)),
                                        grid, tol)
    else:
        query = IsophoteQuery.for_silhouette(axis, grid, tol)
    return QueryEntry(sname, query)


_SECTIONS = ("curves", "surfaces", "traces", "profiles", "axes", "queries")


def load_scene_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")
    _check_keys(doc, set(_SECTIONS), set(), "scene")
    scene = Scene()
    loaders = (_load_curve, _load_surface, _load_trace, _load_profile, _load_axis,
               lambda name, obj: _load_query(name, obj, scene))
    for key, load in zip(_SECTIONS, loaders):
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
