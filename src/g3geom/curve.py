"""Admissible curves alpha(s) = (s, f(s), g(s)) and their Frenet apparatus.

In this graph form the Galilean arc length is the x coordinate itself, so
the parameter s is automatically the invariant (unit speed) parameter.

    T = alpha',  N = alpha''/kappa,  B = T x N
    kappa = sqrt(f''^2 + g''^2)
    tau   = (f'' g''' - g'' f''') / kappa^2

f and g run as Jets through one compiled tape (`expr.on_partials`) of
`_frenet_parts`, the evaluator of every surface.
"""

from __future__ import annotations

import math
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

    def __post_init__(self):
        _check_interval(self.domain)

    @classmethod
    def from_strings(cls, f_src: str, g_src: str,
                     domain: tuple[float, float] = (0.0, 1.0),
                     parameters: dict[str, float] | None = None) -> "CurveSpec":
        params = dict(parameters or {})
        return cls(expr.parse(f_src, ["s"], params),
                   expr.parse(g_src, ["s"], params),
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


def _check_interval(interval, name: str = "domain") -> None:
    """Raise ValueError unless the interval (lo, hi) is finite with lo < hi."""
    lo, hi = (float(v) for v in interval)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"{name} must be finite with lo < hi, got ({lo!r}, {hi!r})")


def _finite_samples(S, name: str = "S") -> np.ndarray:
    """S as a 1-D float array; a ValueError names its shape if it is not
    1-D, or else its first sample that is not finite."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of samples, got shape {S.shape}")
    bad = ~np.isfinite(S)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name}[{i}] = {float(S[i])!r} is not finite")
    return S


def _check_finite(out: dict, where) -> None:
    """Raise G3Error at the first sample where a result in `out` is not
    finite, naming its first such result; where(i) names sample i."""
    finite = np.isfinite(list(out.values()))  # one row per result
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        name = list(out)[int(np.argmin(finite[:, i]))]
        raise G3Error(f"{name} = {out[name][i]} is not finite {where(i)}")


def _values(*jets):
    """The values of the jets; traced into a values tape."""
    return tuple(j.value for j in jets)


def _frenet_parts(jf, jg):
    """The results of `_curve_arrays` after s, from the Jets of f and g;
    traced into the curve tape."""
    kappa = np.hypot(jf.d2, jg.d2)
    tau = (jf.d2 * jg.d3 - jg.d2 * jf.d3) / (kappa * kappa)
    return (jf.value, jg.value, jf.d1, jg.d1, jf.d2, jg.d2, kappa, tau,
            jf.d2 / kappa, jg.d2 / kappa, -jg.d2 / kappa, jf.d2 / kappa)


# frame components (x components: T has 1, N and B have 0)
_FRENET_NAMES = "f g fp gp fpp gpp kappa tau Ny Nz By Bz".split()


def _curve_arrays(curve: CurveSpec, S: np.ndarray, check: bool = True) -> dict:
    """Batch Frenet data over the 1-D sample array, each of its shape.
    StraightSegmentError names the first sample where kappa <= KAPPA_MIN,
    and G3Error the first where a result is not finite; check=False runs
    no check, so a result may be NaN."""
    parts = expr.on_partials(_frenet_parts, (curve.f, curve.g), (S,), check=check)
    out = {"s": S, **{k: np.broadcast_to(r, S.shape) for k, r in zip(_FRENET_NAMES, parts)}}
    if check:
        bad = out["kappa"] <= KAPPA_MIN
        if np.any(bad):
            raise StraightSegmentError(f"kappa <= {KAPPA_MIN:g} at s = "
                                       f"{float(S[np.argmax(bad)]):.6g}: Frenet frame undefined")
        _check_finite(out, lambda i: f"at s = {float(S[i]):.6g}")
    return out


def frenet(curve: CurveSpec, s: float) -> FrenetSample:
    """Frenet frame and invariants at one parameter value (a one-sample
    `frenet_samples` call)."""
    return frenet_samples(curve, [float(s)])[0]


def frenet_samples(curve: CurveSpec, S) -> list[FrenetSample]:
    S = _finite_samples(S)
    a = _curve_arrays(curve, S)
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


def is_admissible(curve: CurveSpec, samples: int = 128) -> AdmissibilityReport:
    """Scan the domain: do f, g evaluate everywhere, and does the curve
    keep kappa above KAPPA_MIN for a Frenet frame?  Violations are data,
    not exceptions."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    S = curve.samples(samples)
    violations: list[dict] = []
    a = _curve_arrays(curve, S, check=False)
    for ast, name in ((curve.f, "f"), (curve.g, "g")):
        finite = np.isfinite(a[name]) & np.isfinite(a[name + "p"]) & np.isfinite(a[name + "pp"])
        for i in np.nonzero(~finite)[0]:
            # re-evaluate the bad point in checking mode to get the message
            try:
                expr.on_partials(_values, (ast,), (float(S[i]),))
                msg = "non-finite value"
            except ExprDomainError as e:
                msg = str(e)
            violations.append({"s": float(S[i]), "kind": "domain", "message": msg})
    eval_ok = not violations
    kappa = a["kappa"]
    finite_kappa = kappa[np.isfinite(kappa)]
    min_kappa = float(finite_kappa.min()) if finite_kappa.size else float("nan")
    frame_ok = bool(finite_kappa.size == samples and np.all(finite_kappa > KAPPA_MIN))
    if eval_ok and not frame_ok:
        for i in np.nonzero(~(np.nan_to_num(kappa) > KAPPA_MIN))[0][:8]:
            violations.append({
                "s": float(S[i]), "kind": "straight",
                "message": f"kappa = {float(kappa[i]):.3g} <= {KAPPA_MIN:g} (frame undefined)",
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
    var = curve.f.variables[0]
    shift = expr.parse(f"{var} - shift0", [var], {"shift0": m.a})
    fs = expr.subst(curve.f, {var: shift}, [var])
    gs = expr.subst(curve.g, {var: shift}, [var])
    cp, sp = math.cos(m.phi), math.sin(m.phi)

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
