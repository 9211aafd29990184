"""Command-line entry point.

Subcommands: frenet, darboux, classify, axis, isophote, revolve, verify.
Objects come from a --scene JSON file by name, or inline as
comma-separated expressions for quick experiments.  Exit codes: 0 ok;
1 a numerical failure (StraightSegmentError, SingularNormalError,
InadmissibleTraceError, AxisError: the kinds EXIT_CODES maps to 1) or a
failed verify check; 2 any other G3Error, which is a usage or parse
error.  --grid may ask for at most MAX_GRID_POINTS points, --mesh for at
most as many vertices, and --samples for at most MAX_SAMPLES; more is a
usage error, raised before anything is computed, as is an empty path,
scene or filter value.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import export
from .curve import CurveSpec, frenet_samples
from .errors import (
    AxisError,
    G3Error,
    InadmissibleTraceError,
    SingularNormalError,
    StraightSegmentError,
)
from .galilean import GVec3, normalize_axis
from .isophote import (
    DEFAULT_GRID,
    DEFAULT_REFINE_TOL,
    MAX_GRID_POINTS,
    IsophoteQuery,
    extract,
)
from .scene import Scene, load_scene
from .surface import (
    ANALYTIC_TOL,
    RESIDUAL_TOL,
    SurfaceSpec,
    TraceSpec,
    axis_isotropic,
    axis_nonisotropic,
    classify_trace,
    darboux_samples,
)
from .surfrev import ProfileSpec, revolve_euclidean, revolve_isotropic
from .verify import run_suite

SCHEMA_VERSION = "1"
# caps on the sizes the command line accepts: the N1*N2 points of --grid
# and the (N1+1)*(N2+1) vertices of --mesh have isophote.MAX_GRID_POINTS,
# the cap of every isophote query and of export.tessellate; --samples
# (whose samples are Python objects, so cost far more each) has its own
MAX_SAMPLES = 1 << 16

# The exit code of each G3Error kind; an error takes the code of the
# nearest class in its MRO listed here.  Any other error (ValueError) is
# a usage error.
EXIT_CODES: dict[type, int] = {
    StraightSegmentError: 1,
    SingularNormalError: 1,
    InadmissibleTraceError: 1,
    AxisError: 1,
    G3Error: 2,
}


def exit_code(error: Exception) -> int:
    """1 for a numerical failure, 2 for a usage or parse error."""
    return next((EXIT_CODES[k] for k in type(error).__mro__ if k in EXIT_CODES), 2)


def _defaults(**extra) -> dict:
    base = {"analytic_tol": ANALYTIC_TOL, "residual_tol": RESIDUAL_TOL,
            "grid": list(DEFAULT_GRID), "refine_tol": DEFAULT_REFINE_TOL}
    base.update(extra)
    return base


def _write(path: str, data: bytes) -> None:
    """Write an output file; failing to is a G3Error that names the path."""
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise G3Error(f"cannot write {path!r}: {e.strerror or e}") from None


def _write_json(path: str, payload) -> None:
    data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(data)
    else:
        _write(path, data.encode("utf-8"))


def _emit_json(path: str, command: str, result, defaults: dict) -> None:
    _write_json(path, {"schema_version": SCHEMA_VERSION, "command": command,
                       "defaults": defaults, "result": result})


def _finite(text: str, what: str) -> float:
    """The finite number `text`; anything else is a G3Error naming `what`."""
    try:
        value = float(text)
    except ValueError:
        raise G3Error(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise G3Error(f"{what} must be finite, got {text!r}")
    return value


def _finite_option(text: str) -> float:
    """argparse type for float options: text that is not a finite number,
    inf and nan included, is a usage error (exit 2)."""
    try:
        return _finite(text, "value")
    except G3Error as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _count_option(text: str) -> int:
    """argparse type for --samples: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _split(text: str, sep: str, form: str, option: str) -> list[str]:
    """`text` cut at `sep` into as many parts as `form` has."""
    parts = text.split(sep)
    if len(parts) != len(form.split(sep)):
        raise G3Error(f"{option} must be written {form}, got {text!r}")
    return parts


def _parse_params(items) -> dict[str, float]:
    params = {}
    for item in items or []:
        k, v = _split(item, "=", "NAME=VALUE", "--param")
        params[k.strip()] = _finite(v, f"--param {k.strip()}")
    return params


def _parse_interval(text: str, option: str) -> tuple[float, float]:
    a, b = (_finite(p, f"{option} end") for p in _split(text, ":", "A:B", option))
    if not a < b:
        raise G3Error(f"{option} {text} is an empty interval")
    return a, b


def _parse_grid(text: str, option: str, *, mesh: bool = False) -> tuple[int, int]:
    """N1xN2 of a grid of N1*N2 points, or of a mesh of N1xN2 cells, which
    has (N1+1)*(N2+1) vertices; either count has the cap MAX_GRID_POINTS."""
    try:
        n1, n2 = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise G3Error(f"{option} must be two integers written N1xN2, got {text!r}") from None
    count, what = ((n1 + 1) * (n2 + 1), "vertices") if mesh else (n1 * n2, "points")
    if count > MAX_GRID_POINTS:
        raise G3Error(f"{option} {text} asks for {count} {what}, above the cap "
                      f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return n1, n2


def _parse_rectangle(text: str, option: str):
    return tuple(_parse_interval(p, option) for p in _split(text, ",", "A:B,C:D", option))


def _parse_axis(text: str) -> GVec3:
    parts = _split(text, ",", "x,y,z", "--axis")
    return normalize_axis(GVec3(*(_finite(p, "--axis component") for p in parts)))


def _load_scene_opt(args) -> Scene | None:
    return load_scene(args.scene) if getattr(args, "scene", None) is not None else None


def _inline_only(option: str, what: str) -> G3Error:
    return G3Error(f"{option} applies only to inline objects, but {what} comes from the scene")


# kind: (scene section, expressions inline, domain option, its parser, inline builder)
_KINDS = {
    "curve": ("curves", 2, "--domain", _parse_interval, CurveSpec.from_strings),
    "surface": ("surfaces", 3, "--surface-domain", _parse_rectangle, SurfaceSpec.from_strings),
    "trace": ("traces", 2, "--trace-domain", _parse_interval, TraceSpec.from_strings),
}


def _objects(args, scene: Scene | None, *kinds: str) -> list:
    """The object of each kind that args names: the scene's object of that
    name, else an inline one from comma-separated expressions, its domain
    option and --param.  A domain option given for a scene object is a
    G3Error, as is --param when every object comes from the scene."""
    out, inline = [], False
    for kind in kinds:
        section, n, option, parse_domain, build = _KINDS[kind]
        name, text = getattr(args, kind), getattr(args, option[2:].replace("-", "_"))
        named = getattr(scene, section) if scene else {}
        if name in named:
            if text is not None:
                raise _inline_only(option, f"{kind} {name!r}")
            out.append(named[name])
            continue
        parts = name.split(",")
        if len(parts) != n:
            raise G3Error(f"inline {kind} must be {n} comma-separated expressions "
                          f"(or a scene object name), got {name!r}")
        domain = {"domain": parse_domain(text, option)} if text is not None else {}
        out.append(build(*parts, parameters=_parse_params(args.param), **domain))
        inline = True
    if args.param is not None and not inline:
        raise _inline_only("--param", "every object")
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_frenet(args) -> int:
    curve, = _objects(args, _load_scene_opt(args), "curve")
    S = np.linspace(curve.domain[0], curve.domain[1], args.samples)
    samples = frenet_samples(curve, S)
    print(f"{'s':>12} {'kappa':>16} {'tau':>16}")
    for f in samples:
        print(f"{f.s:12.6g} {f.kappa:16.10g} {f.tau:16.10g}")
    if args.csv is not None:
        _write(args.csv, export.write_csv(samples))
    if args.json is not None:
        result = [{"s": f.s, "kappa": f.kappa, "tau": f.tau,
                   "T": f.T.to_list(), "N": f.N.to_list(), "B": f.B.to_list()}
                  for f in samples]
        _emit_json(args.json, "frenet", result, _defaults(samples=args.samples))
    return 0


def cmd_darboux(args) -> int:
    surface, trace = _objects(args, _load_scene_opt(args), "surface", "trace")
    S = trace.samples(args.samples)
    samples = darboux_samples(surface, trace, S)
    print(f"{'s':>12} {'kg':>14} {'kn':>14} {'taug':>14} {'phi':>14}")
    for d in samples:
        print(f"{d.s:12.6g} {d.kg:14.8g} {d.kn:14.8g} {d.tau_g:14.8g} {d.phi:14.8g}")
    if args.json is not None:
        result = [{"s": d.s, "kg": d.kg, "kn": d.kn, "taug": d.tau_g, "phi": d.phi,
                   "T": d.T.to_list(), "Q": d.Q.to_list(), "n": d.n.to_list()}
                  for d in samples]
        _emit_json(args.json, "darboux", result, _defaults(samples=args.samples))
    return 0


def cmd_classify(args) -> int:
    surface, trace = _objects(args, _load_scene_opt(args), "surface", "trace")
    c = classify_trace(surface, trace, samples=args.samples, tol=args.tol)
    print(f"geodesic           {c.geodesic}   (max |kg|   = {c.max_abs_kg:.3e})")
    print(f"asymptotic         {c.asymptotic}   (max |kn|   = {c.max_abs_kn:.3e})")
    print(f"line of curvature  {c.line_of_curvature}   (max |taug| = {c.max_abs_taug:.3e})")
    if args.json is not None:
        _emit_json(args.json, "classify", asdict(c),
                   _defaults(samples=args.samples, tol=args.tol))
    return 0


def cmd_axis(args) -> int:
    surface, trace = _objects(args, _load_scene_opt(args), "surface", "trace")
    reconstruct = axis_isotropic if args.case == "isotropic" else axis_nonisotropic
    rep = reconstruct(surface, trace, args.angle, samples=args.samples, tol=args.tol)
    d_str = "none" if rep.d is None else ",".join(f"{v:.12g}" for v in rep.d.to_list())
    print(f"branch   {rep.branch}")
    print(f"status   {rep.status}")
    print(f"d        {d_str}")
    print(f"residual {'n/a' if rep.residual is None else f'{rep.residual:.3e}'}")
    if rep.note:
        print(f"note     {rep.note}")
    if args.json is not None:
        result = {**asdict(rep), "d": None if rep.d is None else rep.d.to_list()}
        _emit_json(args.json, "axis", result,
                   _defaults(samples=args.samples, tol=args.tol))
    return 0


def cmd_isophote(args) -> int:
    scene = _load_scene_opt(args)
    surface, = _objects(args, scene, "surface")
    if scene and args.axis in scene.axes:
        axis = normalize_axis(scene.axes[args.axis])
    else:
        axis = _parse_axis(args.axis)
    grid = _parse_grid(args.grid, "--grid") if args.grid is not None else DEFAULT_GRID
    tol = args.refine_tol
    if args.silhouette:
        query = IsophoteQuery.for_silhouette(axis, grid, tol)
    elif args.beta is not None:
        query = IsophoteQuery.for_angle(axis, args.beta, grid, tol)
    else:
        query = IsophoteQuery.raw_level(axis, args.level, grid, tol)
    iso = extract(surface, query)
    print(f"level       {iso.level:.12g}")
    print(f"polylines   {len(iso.closed)} ({len(iso.vertices)} vertices)")
    if iso.constant_field is not None:
        cf = iso.constant_field
        print(f"constant    value={cf.value:.12g} spread={cf.spread:.3e} "
              f"matches_level={cf.matches_level}")
    print(f"cells       crossing={iso.stats.cells_crossing} "
          f"skipped={iso.stats.cells_skipped} of {iso.stats.cells_total}")
    if args.obj is not None:
        _write(args.obj, export.write_obj(iso))
    if args.svg is not None:
        _write(args.svg, export.write_svg(iso, surface.domain))
    if args.json is not None:
        _emit_json(args.json, "isophote", iso.to_json_dict(),
                   _defaults(grid=list(grid), refine_tol=tol))
    return 0


def cmd_revolve(args) -> int:
    cells = _parse_grid(args.mesh, "--mesh", mesh=True) if args.mesh is not None else None
    scene = _load_scene_opt(args)
    mode = args.mode
    if scene and args.profile in scene.profiles:
        for option, value in (("--domain", args.domain), ("--c", args.c),
                              ("--param", args.param)):
            if value is not None:
                raise _inline_only(option, f"profile {args.profile!r}")
        entry = scene.profiles[args.profile]
        profile = entry.profile
        mode = mode or entry.mode
    else:
        domain = (0.0, 1.0) if args.domain is None else _parse_interval(args.domain, "--domain")
        profile = ProfileSpec.from_string(args.profile, domain,
                                          c=1.0 if args.c is None else args.c,
                                          parameters=_parse_params(args.param))
    if mode is None:
        raise G3Error("--mode euclidean|isotropic is required for inline profiles")
    if mode == "euclidean":
        surf = revolve_euclidean(profile)
    else:
        surf = revolve_isotropic(profile)
    # tessellate checks the mesh's sizes, so a bad --mesh prints nothing
    mesh = export.tessellate(surf, *cells) if cells else None
    print(f"mode    {mode}")
    print(f"x       {surf.x.source}")
    print(f"y       {surf.y.source}")
    print(f"z       {surf.z.source}")
    print(f"domain  u1 in [{surf.domain[0][0]:g}, {surf.domain[0][1]:g}], "
          f"u2 in [{surf.domain[1][0]:g}, {surf.domain[1][1]:g}]")
    if mesh is not None:
        print(f"mesh    {len(mesh.vertices)} vertices, {len(mesh.faces)} triangles")
        if args.obj is not None:
            _write(args.obj, export.write_obj(mesh))
    if args.json is not None:
        result = {"mode": mode,
                  "x": surf.x.source, "y": surf.y.source, "z": surf.z.source,
                  "domain": [list(surf.domain[0]), list(surf.domain[1])]}
        if mesh is not None:
            result["mesh"] = {"vertices": len(mesh.vertices),
                              "faces": len(mesh.faces)}
        _emit_json(args.json, "revolve", result, _defaults(c=profile.c))
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.filter)
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        extra = ""
        if "constant" in c["details"]:
            extra = f"  constant={c['details']['constant']!r}"
        elif "max_deviation" in c["details"]:
            extra = f"  max_deviation={c['details']['max_deviation']:.3e}"
        elif "max_residual" in c["details"]:
            extra = f"  max_residual={c['details']['max_residual']:.3e}"
        print(f"[{status}] {c['name']}{extra}")
    counts = report["counts"]
    print(f"{counts['passed']}/{counts['total']} checks passed")
    if counts["total"] == 0:
        print(f"no checks matched filter {args.filter!r}", file=sys.stderr)
    if args.json is not None:
        _write_json(args.json, report)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--scene", help="scene JSON file providing named objects")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="bind a parameter for inline expressions")
    p.add_argument("--json", metavar="PATH",
                   help="write a machine-readable JSON report ('-' for stdout)")


def _add_surface_trace(p):
    p.add_argument("--surface", required=True,
                   help="scene surface name or inline 'x,y,z'")
    p.add_argument("--trace", required=True,
                   help="scene trace name or inline 'u1,u2'")
    p.add_argument("--surface-domain", metavar="A:B,C:D",
                   help="parameter rectangle for an inline surface")
    p.add_argument("--trace-domain", metavar="A:B",
                   help="parameter interval for an inline trace")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="g3geom",
        description="Differential geometry of curves, surfaces and isophote "
                    "lines in Galilean 3-space.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frenet", help="Frenet frame and invariants of a curve")
    p.add_argument("--curve", required=True,
                   help="scene curve name or inline 'f,g' in the variable s")
    p.add_argument("--domain", metavar="A:B", help="domain for an inline curve")
    p.add_argument("--samples", type=_count_option, default=100)
    p.add_argument("--csv", metavar="PATH", help="write samples as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_frenet)

    p = sub.add_parser("darboux", help="Darboux frame along a surface trace")
    _add_surface_trace(p)
    p.add_argument("--samples", type=_count_option, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_darboux)

    p = sub.add_parser("classify", help="geodesic / asymptotic / line-of-curvature flags")
    _add_surface_trace(p)
    p.add_argument("--samples", type=_count_option, default=64)
    p.add_argument("--tol", type=_finite_option, default=ANALYTIC_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("axis", help="reconstruct the isophote axis along a trace")
    p.add_argument("--case", choices=("isotropic", "nonisotropic"), required=True)
    _add_surface_trace(p)
    p.add_argument("--angle", type=_finite_option, required=True,
                   help="theta (isotropic case) or the raw measure phi")
    p.add_argument("--samples", type=_count_option, default=64)
    p.add_argument("--tol", type=_finite_option, default=ANALYTIC_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_axis)

    p = sub.add_parser("isophote", help="extract isophote or silhouette curves")
    p.add_argument("--surface", required=True,
                   help="scene surface name or inline 'x,y,z'")
    p.add_argument("--surface-domain", metavar="A:B,C:D")
    p.add_argument("--axis", required=True, help="scene axis name or inline 'x,y,z'")
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--beta", type=_finite_option, help="angle level (isotropic axis)")
    level.add_argument("--level", type=_finite_option, help="raw field level")
    level.add_argument("--silhouette", action="store_true", help="level 0")
    p.add_argument("--grid", metavar="N1xN2", help="cell grid (default 256x256)")
    p.add_argument("--refine-tol", type=_finite_option, default=DEFAULT_REFINE_TOL)
    p.add_argument("--obj", metavar="PATH", help="write polylines as OBJ")
    p.add_argument("--svg", metavar="PATH", help="write a parameter-domain SVG")
    _add_common(p)
    p.set_defaults(func=cmd_isophote)

    p = sub.add_parser("revolve", help="build a surface of revolution from a profile")
    p.add_argument("--profile", required=True,
                   help="scene profile name or inline g(s) expression")
    p.add_argument("--mode", choices=("euclidean", "isotropic"))
    p.add_argument("--domain", metavar="A:B", help="profile domain (inline)")
    p.add_argument("--c", type=_finite_option,
                   help="isotropic rotation radius of an inline profile (default 1)")
    p.add_argument("--mesh", metavar="N1xN2", help="tessellate to a mesh")
    p.add_argument("--obj", metavar="PATH", help="write the mesh as OBJ")
    _add_common(p)
    p.set_defaults(func=cmd_revolve)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--filter", help="run only the check whose printed name is this "
                   "text, or else the checks whose printed name contains it; case and "
                   "punctuation are ignored")
    p.add_argument("--json", metavar="PATH",
                   help="write the deterministic JSON report ('-' for stdout)")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(args, "samples", 0) > MAX_SAMPLES:
            raise G3Error(f"--samples {args.samples} is above the cap "
                          f"MAX_SAMPLES = {MAX_SAMPLES}")
        for option in ("scene", "json", "csv", "obj", "svg", "filter"):
            if getattr(args, option, None) == "":
                raise G3Error(f"--{option} must not be empty, got ''")
        return args.func(args)
    except (G3Error, ValueError) as e:
        code = exit_code(e)
        print(f"{'failed' if code == 1 else 'error'}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
