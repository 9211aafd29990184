"""Admissible curves alpha(s) = (s, f(s), g(s)) and their Frenet apparatus.

In this graph form the Galilean arc length is the x coordinate itself, so
the parameter s is automatically the invariant (unit speed) parameter.

    T = alpha',  N = alpha''/kappa,  B = T x N
    kappa = sqrt(f''^2 + g''^2)
    tau   = (f'' g''' - g'' f''') / kappa^2
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .errors import ExprDomainError, G3Error, StraightSegmentError
from .galilean import GalileanMotion, GVec3, is_unit_axis

KAPPA_MIN = 1e-10


@dataclass(frozen=True)
class CurveSpec:
    """A curve (s, f(s), g(s)) on a closed parameter interval."""

    f: expr.ExprAST
    g: expr.ExprAST
    domain: tuple[float, float]
    parameters: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_strings(cls, f_src: str, g_src: str,
                     domain: tuple[float, float] = (0.0, 1.0),
                     parameters: dict[str, float] | None = None,
                     variable: str = "s") -> "CurveSpec":
        params = dict(parameters or {})
        return cls(expr.parse(f_src, [variable], params),
                   expr.parse(g_src, [variable], params),
                   (float(domain[0]), float(domain[1])), params)

    def samples(self, n: int) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], n)


@dataclass(frozen=True)
class FrenetSample:
    s: float
    T: GVec3
    N: GVec3
    B: GVec3
    kappa: float
    tau: float


def _curve_arrays(curve: CurveSpec, S: np.ndarray, kappa_min: float = KAPPA_MIN) -> dict:
    """Batch Frenet data over sample points; raises if the frame degenerates."""
    jf = expr.eval_jet(curve.f, S, order=3)
    jg = expr.eval_jet(curve.g, S, order=3)
    kappa = np.hypot(jf.d2, jg.d2)
    bad = kappa <= kappa_min
    if np.any(bad):
        s_bad = float(np.asarray(S, dtype=float).reshape(-1)[np.argmax(np.ravel(bad))])
        raise StraightSegmentError(
            f"kappa <= {kappa_min:g} at s = {s_bad:.6g}: Frenet frame undefined")
    tau = (jf.d2 * jg.d3 - jg.d2 * jf.d3) / (kappa * kappa)
    return {
        "s": S,
        "f": jf.value, "g": jg.value,
        "fp": jf.d1, "gp": jg.d1,
        "fpp": jf.d2, "gpp": jg.d2,
        "kappa": kappa, "tau": tau,
        # frame components (x components: T has 1, N and B have 0)
        "Ny": jf.d2 / kappa, "Nz": jg.d2 / kappa,
        "By": -jg.d2 / kappa, "Bz": jf.d2 / kappa,
    }


def frenet(curve: CurveSpec, s: float, kappa_min: float = KAPPA_MIN) -> FrenetSample:
    """Frenet frame and invariants at one parameter value (a one-sample
    `frenet_samples` call)."""
    return frenet_samples(curve, [float(s)], kappa_min)[0]


def frenet_samples(curve: CurveSpec, S, kappa_min: float = KAPPA_MIN) -> list[FrenetSample]:
    S = np.asarray(S, dtype=float)
    a = _curve_arrays(curve, S, kappa_min)
    out = []
    for i, s in enumerate(S):
        out.append(FrenetSample(
            s=float(s),
            T=GVec3(1.0, float(a["fp"][i]), float(a["gp"][i])),
            N=GVec3(0.0, float(a["Ny"][i]), float(a["Nz"][i])),
            B=GVec3(0.0, float(a["By"][i]), float(a["Bz"][i])),
            kappa=float(a["kappa"][i]),
            tau=float(a["tau"][i]),
        ))
    return out


@dataclass
class AdmissibilityReport:
    ok: bool
    eval_ok: bool
    frame_ok: bool
    min_kappa: float
    violations: list[dict]


def is_admissible(curve: CurveSpec, samples: int = 128,
                  tol: float = KAPPA_MIN) -> AdmissibilityReport:
    """Scan the domain: do f, g evaluate everywhere, and does the curve
    keep enough curvature for a Frenet frame?  Violations are data, not
    exceptions."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    S = curve.samples(samples)
    violations: list[dict] = []
    jets = []
    for ast in (curve.f, curve.g):
        j = expr.eval_jet(ast, S, order=3, check=False)
        jets.append(j)
        finite = np.isfinite(j.value) & np.isfinite(j.d1) & np.isfinite(j.d2)
        for i in np.nonzero(~finite)[0]:
            # re-evaluate the bad point in checking mode to get the message
            try:
                expr.eval_jet(ast, float(S[i]), order=3)
                msg = "non-finite value"
            except ExprDomainError as e:
                msg = str(e)
            violations.append({"s": float(S[i]), "kind": "domain", "message": msg})
    eval_ok = not violations
    jf, jg = jets
    with np.errstate(invalid="ignore"):
        kappa = np.hypot(jf.d2, jg.d2)
    finite_kappa = kappa[np.isfinite(kappa)]
    min_kappa = float(finite_kappa.min()) if finite_kappa.size else float("nan")
    frame_ok = bool(finite_kappa.size == samples and np.all(finite_kappa > tol))
    if eval_ok and not frame_ok:
        for i in np.nonzero(~(np.nan_to_num(kappa) > tol))[0][:8]:
            violations.append({
                "s": float(S[i]), "kind": "straight",
                "message": f"kappa = {float(kappa[i]):.3g} <= {tol:g} (frame undefined)",
            })
    return AdmissibilityReport(ok=eval_ok and frame_ok, eval_ok=eval_ok,
                               frame_ok=frame_ok, min_kappa=min_kappa,
                               violations=violations)


@dataclass
class HelixReport:
    is_helix: bool
    value: float
    spread: float


def _helix_detect(curve: CurveSpec, d: GVec3, samples: int, tol: float,
                  use_binormal: bool) -> HelixReport:
    if not d.is_isotropic or not is_unit_axis(d):
        raise G3Error("helix axis must be a unit isotropic vector")
    a = _curve_arrays(curve, curve.samples(samples))
    if use_binormal:
        vals = a["By"] * d.y + a["Bz"] * d.z
    else:
        vals = a["Ny"] * d.y + a["Nz"] * d.z
    spread = float(vals.max() - vals.min())
    return HelixReport(is_helix=spread <= tol, value=float(vals.mean()), spread=spread)


def detect_general_helix(curve: CurveSpec, d: GVec3, samples: int = 128,
                         tol: float = 1e-8) -> HelixReport:
    """General helix w.r.t. an isotropic axis: <B, d> constant over the domain."""
    return _helix_detect(curve, d, samples, tol, use_binormal=True)


def detect_slant_helix(curve: CurveSpec, d: GVec3, samples: int = 128,
                       tol: float = 1e-8) -> HelixReport:
    """Slant helix w.r.t. an isotropic axis: <N, d> constant over the domain."""
    return _helix_detect(curve, d, samples, tol, use_binormal=False)


def transform_curve(curve: CurveSpec, m: GalileanMotion) -> CurveSpec:
    """The motion image of a graph curve, refit to graph form.

    x' = a + s keeps the graph structure, with the shear terms absorbed
    into the new coordinate functions:
        f'(t) = b + c1 (t-a) + cos(phi) f(t-a) + sin(phi) g(t-a)
        g'(t) = d0 + e1 (t-a) - sin(phi) f(t-a) + cos(phi) g(t-a)
    """
    import math as _math
    var = curve.f.variables[0]
    shift = expr.parse(f"{var} - shift0", [var], {"shift0": m.a})
    fs = expr.subst(curve.f, {var: shift}, [var])
    gs = expr.subst(curve.g, {var: shift}, [var])
    cp, sp = _math.cos(m.phi), _math.sin(m.phi)

    def lin(b0: float, c0: float) -> expr.ExprAST:
        return expr.combine("+", expr.const(b0),
                            expr.combine("*", expr.const(c0), shift, [var]), [var])

    def rot(u: expr.ExprAST, v: expr.ExprAST, cu: float, cv: float) -> expr.ExprAST:
        return expr.combine(
            "+",
            expr.combine("*", expr.const(cu), u, [var]),
            expr.combine("*", expr.const(cv), v, [var]), [var])

    new_f = expr.combine("+", lin(m.b, m.c1), rot(fs, gs, cp, sp), [var])
    new_g = expr.combine("+", lin(m.d0, m.e1), rot(fs, gs, -sp, cp), [var])
    dom = (curve.domain[0] + m.a, curve.domain[1] + m.a)
    return CurveSpec(new_f, new_g, dom, dict(curve.parameters))
