"""Numerical verification suite: every theorem, proposition and frame
identity of the isophote theory, run on constructed scenarios and a
seeded randomized corpus.

All checks are deterministic (fixed seeds, no timing data in results), so
two runs produce byte-identical JSON reports.

A note on the torsion identity relating the Frenet and Darboux scalars:
with the conventions used throughout this package (T' = kappa N,
N' = tau B, tau = det(a', a'', a''')/kappa^2, Q = n x T, Q' = tau_g n)
the identity reads

    tau = tau_g + (k_g k_n' - k_g' k_n) / (k_g^2 + k_n^2)

and this is the form the suite verifies.  The sign-flipped variant is
inconsistent with these conventions: on the circular-helix trace of the
unit cylinder it gives +1 against the directly computed tau = -1.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .curve import CurveSpec, _curve_arrays, detect_general_helix, detect_slant_helix, transform_curve
from .galilean import GalileanMotion, GVec3, apply_motion, normalize_axis
from .isophote import DEFAULT_GRID, DEFAULT_REFINE_TOL, IsophoteQuery, extract, field_grid
from .surface import (
    ANALYTIC_TOL,
    RESIDUAL_TOL,
    SurfaceSpec,
    TheoremConfig,
    TraceSpec,
    _darboux_arrays,
    axis_isotropic,
    induced_curve,
    transform_surface,
    verify_theorems,
)
from .surfrev import (
    ProfileSpec,
    profile_curve,
    revolve_euclidean,
    revolve_isotropic,
    verify_prop_4_1,
    verify_prop_4_2,
    verify_prop_4_3,
)

SCHEMA_VERSION = "1"
CORPUS_SEED = 20240601
CORPUS_SIZE = 20
FD_STEP = 1e-5

# The checks in report order, keyed by the name each reports.  A check
# takes no arguments and returns (passed, details).
REGISTRY: dict[str, Callable[[], tuple[bool, dict]]] = {}


def check(name: str):
    """Register the decorated function as the check reported as `name`."""
    def register(fn):
        REGISTRY[name] = fn
        return fn
    return register


# ---------------------------------------------------------------------------
# Canonical scenarios
# ---------------------------------------------------------------------------

def plane_surface() -> SurfaceSpec:
    return SurfaceSpec.from_strings("u1", "u2", "0", ((-1.0, 3.0), (-1.0, 6.0)))


def cylinder_surface(u1_range=(0.0, 2.0)) -> SurfaceSpec:
    return SurfaceSpec.from_strings("u1", "sin(u2)", "cos(u2)",
                                    (u1_range, (0.0, 2.0 * math.pi)))


def parabolic_cylinder(sign: float) -> SurfaceSpec:
    """Translational surface over the curve (s, s^2/2, sign s^2/2), ruled
    along (0,1,0).  Its traces u2 = const have k_n/k_g = sign and tau_g = 0."""
    z = "u1^2/2" if sign > 0 else "-u1^2/2"
    return SurfaceSpec.from_strings("u1", "u1^2/2 + u2", z, ((0.0, 2.0), (-1.0, 1.0)))


def _trace(u1: str, u2: str, domain=(0.0, 2.0)) -> TraceSpec:
    return TraceSpec.from_strings(u1, u2, domain)


# ---------------------------------------------------------------------------
# Randomized corpus of surface/trace pairs
# ---------------------------------------------------------------------------

@functools.cache
def random_corpus(seed: int = CORPUS_SEED, count: int = CORPUS_SIZE) -> tuple:
    """Smooth random surfaces with admissible traces, curvature bounded
    away from zero and well-defined normals.  Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < count * 20:
        attempts += 1
        p = {
            "ay": rng.uniform(-0.25, 0.25), "wy": rng.uniform(0.5, 1.5),
            "vy": rng.uniform(-0.5, 0.5), "cz": rng.uniform(-1.0, 1.0),
            "wz": rng.uniform(0.5, 1.5), "bz": rng.uniform(-0.5, 0.5),
            "qz": rng.uniform(-0.2, 0.2), "p0": rng.uniform(-0.5, 0.5),
            "q0": rng.uniform(0.2, 0.8), "r0": rng.uniform(0.5, 1.5),
            "m0": rng.uniform(-0.5, 0.5), "c0": rng.uniform(0.2, 0.8),
        }
        sheared = attempts % 2 == 0
        y = "u2 + ay*sin(wy*u1 + vy*u2)"
        z = "cz*cos(wz*u1) + bz*u2 + qz*u2^2"
        x = "u1 + c0*u2" if sheared else "u1"
        h = "p0 + q0*sin(r0*s) + m0*s"
        u1 = f"s - c0*({h})" if sheared else "s"
        surface = SurfaceSpec.from_strings(x, y, z, ((-6.0, 6.0), (-4.0, 4.0)), p)
        trace = TraceSpec.from_strings(u1, h, (0.0, 2.0), p)
        try:
            a = _darboux_arrays(surface, trace, trace.samples(48))
        except Exception:  # noqa: BLE001 - rejected draw
            continue
        if a["kappa"].min() < 1e-3 or a["omega"].min() < 0.05:
            continue
        if not all(np.all(np.isfinite(a[k])) for k in ("kg", "kn", "taug")):
            continue
        pairs.append((surface, trace))
    if len(pairs) < count:
        raise RuntimeError("corpus generation failed to converge")
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Frame identity checks
# ---------------------------------------------------------------------------

@check("frenet_closed_form")
def _():
    curve = CurveSpec.from_strings("s^2/2", "s^3/6", (0.0, 2.0))
    S = np.linspace(0.0, 2.0, 100)
    a = _curve_arrays(curve, S)
    dk = float(np.abs(a["kappa"] - np.sqrt(1.0 + S * S)).max())
    dt = float(np.abs(a["tau"] - 1.0 / (1.0 + S * S)).max())
    return dk <= 1e-12 and dt <= 1e-12, {"max_kappa_dev": dk, "max_tau_dev": dt,
                                         "tol": 1e-12}


def _central(arrays, S: np.ndarray, h: float):
    """The batch data at S and its central-difference derivative by key."""
    a0, ap, am = arrays(S), arrays(S + h), arrays(S - h)
    return a0, lambda key: (ap[key] - am[key]) / (2.0 * h)


def _frenet_ode_residuals(curve: CurveSpec, S: np.ndarray, h: float = FD_STEP):
    a0, fd = _central(lambda X: _curve_arrays(curve, X), S, h)
    rT = np.hypot(fd("fp") - a0["kappa"] * a0["Ny"],
                  fd("gp") - a0["kappa"] * a0["Nz"])
    rN = np.hypot(fd("Ny") - a0["tau"] * a0["By"],
                  fd("Nz") - a0["tau"] * a0["Bz"])
    rB = np.hypot(fd("By") + a0["tau"] * a0["Ny"],
                  fd("Bz") + a0["tau"] * a0["Nz"])
    return float(rT.max()), float(rN.max()), float(rB.max())


@check("frenet_ode_b3")
def _():
    worst = 0.0
    curves = [CurveSpec.from_strings("s^2/2", "s^3/6", (0.0, 2.0))]
    curves += [induced_curve(s, t) for s, t in random_corpus()[:6]]
    for c in curves:
        S = np.linspace(c.domain[0] + 0.01, c.domain[1] - 0.01, 100)
        worst = max(worst, *_frenet_ode_residuals(c, S))
    return worst <= RESIDUAL_TOL, {"max_residual": worst, "tol": RESIDUAL_TOL,
                                   "fd_step": FD_STEP, "curves": len(curves)}


@check("darboux_cylinder")
def _():
    surface = cylinder_surface()
    trace = _trace("s", "s")
    a = _darboux_arrays(surface, trace, trace.samples(50))
    devs = {
        "max_abs_kg": float(np.abs(a["kg"]).max()),
        "max_abs_kn_plus_1": float(np.abs(a["kn"] + 1.0).max()),
        "max_abs_taug_plus_1": float(np.abs(a["taug"] + 1.0).max()),
    }
    return all(v <= 1e-10 for v in devs.values()), {**devs, "tol": 1e-10}


@check("b5_kappa_identity")
def _():
    worst = 0.0
    for surface, trace in random_corpus():
        S = trace.samples(60)
        a = _darboux_arrays(surface, trace, S)
        fr = _curve_arrays(induced_curve(surface, trace), S)
        dev = np.abs(fr["kappa"] ** 2 - (a["kg"] ** 2 + a["kn"] ** 2))
        worst = max(worst, float(dev.max()))
    return worst <= 1e-9, {"max_deviation": worst, "tol": 1e-9, "pairs": CORPUS_SIZE}


@check("b5_tau_identity")
def _():
    """Frenet tau against the Darboux expression
    tau_g + (k_g k_n' - k_g' k_n)/kappa^2, scalar derivatives by central
    differences."""
    h = FD_STEP
    worst = 0.0
    for surface, trace in random_corpus():
        S = trace.samples(40)
        S = S[(S > trace.domain[0] + 2 * h) & (S < trace.domain[1] - 2 * h)]
        a0, fd = _central(lambda X: _darboux_arrays(surface, trace, X), S, h)
        kgp, knp = fd("kg"), fd("kn")
        k2 = a0["kg"] ** 2 + a0["kn"] ** 2
        tau_darboux = a0["taug"] + (a0["kg"] * knp - kgp * a0["kn"]) / k2
        fr = _curve_arrays(induced_curve(surface, trace), S)
        mask = fr["kappa"] > 1e-6
        dev = np.abs(fr["tau"] - tau_darboux)[mask]
        worst = max(worst, float(dev.max()))
    return worst <= 1e-6, {"max_deviation": worst, "tol": 1e-6, "fd_step": h}


@check("b6_frame_transform")
def _():
    worst = 0.0
    for surface, trace in random_corpus():
        S = trace.samples(60)
        a = _darboux_arrays(surface, trace, S)
        fr = _curve_arrays(induced_curve(surface, trace), S)
        cp, sp = np.cos(a["phi"]), np.sin(a["phi"])
        dq = np.hypot(a["Qy"] - (cp * fr["Ny"] + sp * fr["By"]),
                      a["Qz"] - (cp * fr["Nz"] + sp * fr["Bz"]))
        dn = np.hypot(a["ny"] - (-sp * fr["Ny"] + cp * fr["By"]),
                      a["nz"] - (-sp * fr["Nz"] + cp * fr["Bz"]))
        worst = max(worst, float(dq.max()), float(dn.max()))
    return worst <= 1e-9, {"max_deviation": worst, "tol": 1e-9}


@check("b4_ode")
def _():
    h = FD_STEP
    worst = 0.0
    for surface, trace in random_corpus():
        S = trace.samples(40)
        S = S[(S > trace.domain[0] + 2 * h) & (S < trace.domain[1] - 2 * h)]
        a0, fd = _central(lambda X: _darboux_arrays(surface, trace, X), S, h)
        rT = np.hypot(fd("Ty") - (a0["kg"] * a0["Qy"] + a0["kn"] * a0["ny"]),
                      fd("Tz") - (a0["kg"] * a0["Qz"] + a0["kn"] * a0["nz"]))
        rQ = np.hypot(fd("Qy") - a0["taug"] * a0["ny"],
                      fd("Qz") - a0["taug"] * a0["nz"])
        rn = np.hypot(fd("ny") + a0["taug"] * a0["Qy"],
                      fd("nz") + a0["taug"] * a0["Qz"])
        worst = max(worst, float(rT.max()), float(rQ.max()), float(rn.max()))
    return worst <= RESIDUAL_TOL, {"max_residual": worst, "tol": RESIDUAL_TOL,
                                   "fd_step": h}


# ---------------------------------------------------------------------------
# Theorem scenarios (section 3)
# ---------------------------------------------------------------------------

def _theorem_check(name: str, surface: Callable[[], SurfaceSpec],
                   trace: tuple[str, str], config: TheoremConfig):
    rep = verify_theorems(surface(), _trace(*trace), config)[name]
    passed = rep.hypothesis_met and rep.conclusion_verified
    residual = rep.details.get("axis_residual")
    if residual is not None:
        passed = passed and residual <= config.residual_tol
    return passed, rep.details


# (name, surface builder, trace (u1, u2), config); the builders run only
# when the check does, so importing this module parses no expression
_THEOREMS = (
    ("thm_3_1_i", plane_surface, ("s", "2*s"), TheoremConfig(theta=0.0)),
    ("thm_3_1_ii", plane_surface, ("s", "s^2/2"), TheoremConfig(theta=0.0)),
    ("thm_3_2", functools.partial(parabolic_cylinder, -1.0), ("s", "0"),
     TheoremConfig(theta=math.pi / 4)),
    ("thm_3_3", functools.partial(parabolic_cylinder, +1.0), ("s", "0"),
     TheoremConfig(theta=math.pi / 4)),
    ("thm_3_4", plane_surface, ("s", "s^2/2"), TheoremConfig(axis=GVec3(0.0, 1.0, 0.0))),
    ("cor_3_5", plane_surface, ("s", "2*s"), TheoremConfig(phi_measure=0.5)),
    ("thm_3_6_i", plane_surface, ("s", "s^2/2"), TheoremConfig(axis=GVec3(1.0, 0.7, 0.0))),
    ("thm_3_6_ii", plane_surface, ("s", "2*s"), TheoremConfig(axis=GVec3(1.0, 2.0, 0.0))),
)
REGISTRY.update((row[0], functools.partial(_theorem_check, *row)) for row in _THEOREMS)


@check("axis_reconstruction")
def _():
    """The two line-of-curvature reconstructions return constant unit axes."""
    details = {}
    ok = True
    for name, sign, theta in (("plus_branch", +1.0, math.pi / 4),
                              ("minus_branch", -1.0, math.pi / 4)):
        rep = axis_isotropic(parabolic_cylinder(sign), _trace("s", "0"), theta)
        details[name] = {"d": rep.d.to_list(), "branch": rep.branch,
                         "residual": rep.residual, "sign": rep.sign}
        ok = ok and rep.status == "ok" and rep.residual <= RESIDUAL_TOL
    return ok, details


# ---------------------------------------------------------------------------
# Applications (section 4)
# ---------------------------------------------------------------------------

def _prop_profile() -> ProfileSpec:
    return ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))


@check("prop_4_1")
def _():
    rep = verify_prop_4_1(_prop_profile(), GVec3(0.0, 1.0, 0.0), tol=1e-9)
    return rep.hypothesis_met and rep.conclusion_verified, rep.details


@check("prop_4_2")
def _():
    rep = verify_prop_4_2(_prop_profile(), GVec3(0.0, 0.0, 1.0), tol=1e-9)
    return rep.hypothesis_met and rep.conclusion_verified, rep.details


@check("prop_4_3_i")
def _():
    """Quadratic profile, axis along the profile normal; also drives the
    extractor over the full default (acceptance) grid."""
    rep = verify_prop_4_3(1.0, 0.0, 1.0, "i", tol=1e-12,
                          s_range=(1e-3, 5.0), grid=DEFAULT_GRID)
    profile = ProfileSpec.from_string("s^2/(2*cc)", (1e-3, 5.0), c=1.0,
                                      parameters={"cc": 1.0})
    surf = revolve_isotropic(profile, s_min=1e-3)
    iso = extract(surf, IsophoteQuery.for_angle(GVec3(0.0, 0.0, 1.0), math.pi / 4,
                                                grid=DEFAULT_GRID))
    cf = iso.constant_field
    ok = rep.conclusion_verified and cf is not None and cf.matches_level
    details = dict(rep.details)
    details["extractor_constant_field"] = None if cf is None else {
        "value": cf.value, "spread": cf.spread, "matches_level": cf.matches_level}
    details["constant"] = rep.details["value"]
    return ok, details


@check("prop_4_3_ii")
def _():
    rep = verify_prop_4_3(2.0, 5.0, 1.0, "ii", tol=1e-12, s_range=(1e-3, 5.0))
    return rep.conclusion_verified, rep.details


@check("cor_4_4")
def _():
    profile = ProfileSpec.from_string("s^2/(2*cc) + AA", (1e-3, 5.0), c=1.0,
                                      parameters={"cc": 1.0, "AA": 0.0})
    cu = profile_curve(profile)
    gen = detect_general_helix(cu, GVec3(0.0, 0.0, 1.0), tol=1e-10)
    sla = detect_slant_helix(cu, GVec3(0.0, 0.0, 1.0), tol=1e-10)
    return gen.is_helix and sla.is_helix, {
        "general_helix": bool(gen.is_helix), "slant_helix": bool(sla.is_helix),
        "B_dot_d": gen.value, "N_dot_d": sla.value,
        "spreads": [gen.spread, sla.spread]}


# ---------------------------------------------------------------------------
# Motion invariance and extraction accuracy
# ---------------------------------------------------------------------------

def random_motions(count: int = 100, seed: int = 777) -> list[GalileanMotion]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b, c1, d0, e1 = rng.uniform(-2.0, 2.0, size=5)
        out.append(GalileanMotion(a=float(a), b=float(b), c1=float(c1),
                                  d0=float(d0), e1=float(e1),
                                  phi=float(rng.uniform(-math.pi, math.pi))))
    return out


@check("motion_invariance_curve")
def _():
    curve = CurveSpec.from_strings("s^2/2", "s^3/6", (0.0, 2.0))
    S = np.linspace(0.0, 2.0, 40)
    base = _curve_arrays(curve, S)
    worst = 0.0
    for m in random_motions():
        moved = transform_curve(curve, m)
        a = _curve_arrays(moved, S + m.a)
        worst = max(worst,
                    float(np.abs(a["kappa"] - base["kappa"]).max()),
                    float(np.abs(a["tau"] - base["tau"]).max()))
    return worst <= 1e-8, {"max_deviation": worst, "tol": 1e-8, "motions": 100}


@check("motion_invariance_field")
def _():
    surface = cylinder_surface()
    axis = normalize_axis(GVec3(0.0, 0.6, 0.8))
    U1 = np.linspace(0.1, 1.9, 16)[:, None]
    U2 = np.linspace(0.1, 6.1, 16)[None, :]
    base = field_grid(surface, axis, U1, U2)
    worst = 0.0
    for m in random_motions():
        moved = transform_surface(surface, m)
        moved_axis = apply_motion(m, axis, as_direction=True)
        vals = field_grid(moved, moved_axis, U1, U2)
        worst = max(worst, float(np.abs(vals - base).max()))
    return worst <= 1e-8, {"max_deviation": worst, "tol": 1e-8, "motions": 100}


# The Euclidean revolution of _prop_profile() has the normal
# (0, sin u2, cos u2), so the axis (0, sin phi, cos phi) gives the field
# cos(u2 - phi), whose isophotes are the parallels u2 = t0 with
# |df/du2| = |sin(t0 - phi)| along them.  Case "axis": level cos(beta),
# t0 = phi -+ beta.  Case "helix": Prop 4.1's parallels t0 = pi/2, 3 pi/2,
# the level-0 isophote of (0, 0, 1).  Prop 4.2's t0 = 0, pi are left out:
# u2 = 0 and 2 pi is the seam of the grid.
REVOLUTION_PHI = 2.0
REVOLUTION_BETA = 0.7


def revolution_isophotes(grid=DEFAULT_GRID) -> dict:
    """Both extraction cases on the Euclidean revolution at `grid`: per
    case the polyline vertex counts and closed flags, the parallel each
    polyline follows, and its largest |u2 - t0| against the bound
    refine_tol / min|df/du2| (plus float rounding of the field and of
    t0)."""
    phi, beta = REVOLUTION_PHI, REVOLUTION_BETA
    cases = {
        "axis": (IsophoteQuery.for_angle(GVec3(0.0, math.sin(phi), math.cos(phi)), beta, grid),
                 (phi - beta, phi + beta), math.sin(beta)),
        "helix": (IsophoteQuery.raw_level(GVec3(0.0, 0.0, 1.0), 0.0, grid),
                  (math.pi / 2, 3 * math.pi / 2), 1.0),
    }
    surface = revolve_euclidean(_prop_profile())
    eps = float(np.finfo(float).eps)
    out = {}
    for name, (query, t0s, slope) in cases.items():
        iso = extract(surface, query)
        followed, worst = [], 0.0
        o = iso.offsets.tolist()
        for a, b in zip(o, o[1:]):
            u2 = iso.vertices[a:b, 1]
            t0 = min(t0s, key=lambda t: abs(float(u2[0]) - t))
            followed.append(t0)
            worst = max(worst, float(np.abs(u2 - t0).max()))
        out[name] = {
            "vertices": np.diff(iso.offsets).tolist(),
            "closed": iso.closed.tolist(),
            "parallels": sorted(followed) == sorted(t0s),
            "max_u2_deviation": worst,
            "bound": (query.refine_tol + 8 * eps) / slope + 8 * eps * max(t0s),
        }
    return out


@check("isophote_revolution")
def _():
    cases = revolution_isophotes()
    n1 = DEFAULT_GRID[0]
    ok = all(c["vertices"] == [n1 + 1, n1 + 1] and not any(c["closed"]) and c["parallels"]
             and c["max_u2_deviation"] <= c["bound"] for c in cases.values())
    return ok, cases


@check("isophote_cylinder")
def _():
    surface = cylinder_surface()
    query = IsophoteQuery.for_angle(GVec3(0.0, 0.0, 1.0), math.pi / 3,
                                    grid=DEFAULT_GRID)
    iso = extract(surface, query)
    targets = (math.pi / 3, 5.0 * math.pi / 3)
    u2 = iso.vertices[:, 1]
    worst = float(np.max(np.minimum(*(np.abs(u2 - t) for t in targets)), initial=0.0))
    nvert = len(u2)
    ok = len(iso.closed) == 2 and nvert > 0 and worst <= 1e-6
    return ok, {
        "polylines": len(iso.closed), "vertices": nvert,
        "max_u2_deviation": worst, "tol": 1e-6,
        "cells_crossing": iso.stats.cells_crossing}


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def _norm_name(s: str) -> str:
    return "".join(ch for ch in s.lower() if ch.isalnum())


def run_suite(name_filter: str | None = None) -> dict:
    """Run the registry and return a JSON-ready, deterministic report.

    `name_filter` selects the check whose reported name equals it, case
    and punctuation ignored; a filter equal to no name keeps the checks
    whose name contains it."""
    key = _norm_name(name_filter or "")
    names = ([n for n in REGISTRY if _norm_name(n) == key]
             or [n for n in REGISTRY if key in _norm_name(n)])
    checks = []
    for name in names:
        passed, details = REGISTRY[name]()
        checks.append({"name": name, "passed": bool(passed), "details": details})
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": "galilean-isophote-verification",
        "defaults": {
            "analytic_tol": ANALYTIC_TOL,
            "fd_step": FD_STEP,
            "fd_tol": RESIDUAL_TOL,
            "corpus_seed": CORPUS_SEED,
            "corpus_size": CORPUS_SIZE,
            "grid": list(DEFAULT_GRID),
            "refine_tol": DEFAULT_REFINE_TOL,
        },
        "filter": name_filter,
        "checks": checks,
        "counts": {
            "total": len(checks),
            "passed": sum(1 for c in checks if c["passed"]),
            "failed": sum(1 for c in checks if not c["passed"]),
        },
        "passed": bool(checks) and all(c["passed"] for c in checks),
    }
    return report
