"""Parametric surfaces, the Darboux frame along admissible traces, trace
classification, and isophote-axis reconstruction.

All frame derivatives are analytic: a trace tape (`expr.on_partials` on
the trace's univariate jets) gives u1, u2 and their first two
derivatives, and one compiled tape runs the surface's bivariate jets
(second partials included) and the explicit chain rule, so `darboux`,
`field` and `sample_surface` share one evaluator and one singular-normal
rule (`_check_omega`).  Inner products of isotropic
vectors (T', Q', n' are all isotropic) use the Euclidean yz branch of
the Galilean product throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .curve import (
    KAPPA_MIN,
    CurveSpec,
    _check_finite,
    _check_interval,
    _curve_arrays,
    _finite_samples,
    _values,
)
from .errors import (
    AxisConstraintError,
    AxisUndefinedError,
    G3Error,
    InadmissibleTraceError,
    NotAsymptoticError,
    NotLineOfCurvatureError,
    SingularNormalError,
)
from .galilean import GalileanMotion, GVec3

OMEGA_MIN = 1e-10
TRACE_TOL = 1e-9       # |d/ds x(u1(s),u2(s)) - 1| must stay below this
ANALYTIC_TOL = 1e-8    # default for analytic quantities
RESIDUAL_TOL = 1e-5    # bound on finite-difference residuals


@dataclass(frozen=True)
class SurfaceSpec:
    """A surface X(u1,u2) = (x, y, z) over a parameter rectangle.

    `normal`, when given, is a closed form (w, ny, nz) of the unit
    isotropic normal: n = (0, ny, nz) wherever w > OMEGA_MIN.  Only
    `revolve_euclidean` sets it; the isophote field reads it in place of
    the partials where it holds.
    """

    x: expr.ExprAST
    y: expr.ExprAST
    z: expr.ExprAST
    domain: tuple[tuple[float, float], tuple[float, float]]
    parameters: dict[str, float] = field(default_factory=dict)
    normal: tuple[expr.ExprAST, expr.ExprAST, expr.ExprAST] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        u1_domain, u2_domain = self.domain
        _check_interval(u1_domain, "u1 domain")
        _check_interval(u2_domain, "u2 domain")

    @classmethod
    def from_strings(cls, x_src: str, y_src: str, z_src: str,
                     domain=((0.0, 1.0), (0.0, 1.0)),
                     parameters: dict[str, float] | None = None) -> "SurfaceSpec":
        params = dict(parameters or {})
        v = ["u1", "u2"]
        return cls(expr.parse(x_src, v, params), expr.parse(y_src, v, params),
                   expr.parse(z_src, v, params),
                   ((float(domain[0][0]), float(domain[0][1])),
                    (float(domain[1][0]), float(domain[1][1]))), params)

    def grid(self, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
        (a1, b1), (a2, b2) = self.domain
        return np.linspace(a1, b1, n1), np.linspace(a2, b2, n2)


@dataclass(frozen=True)
class SurfaceSample:
    point: GVec3
    Xu1: GVec3
    Xu2: GVec3
    n: GVec3
    omega: float
    g1: float
    g2: float
    h11: float
    h12: float
    h22: float


def _coordinate_values(surface: SurfaceSpec, U1, U2, check: bool = True):
    """x, y and z, each on the shape of the operands it depends on, not
    broadcast: one call of a compiled tape that computes no partial
    (expr.on_partials).  The values equal those of eval_jet2 bit for bit,
    and a domain error is its error."""
    return expr.on_partials(_values, (surface.x, surface.y, surface.z), (U1, U2), check=check)


def _normal_parts(jx, jy, jz):
    """Unnormalized normal components and omega from first partials."""
    A = jx.du2 * jz.du1 - jx.du1 * jz.du2
    B = jx.du1 * jy.du2 - jx.du2 * jy.du1
    return A, B, np.hypot(A, B)


def _check_omega(omega, where) -> None:
    """Raise SingularNormalError at the first sample where omega is not a
    finite number above OMEGA_MIN; where(i) names sample i (0 for a point)."""
    omega = np.atleast_1d(omega)
    singular = ~(np.isfinite(omega) & (omega > OMEGA_MIN))
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularNormalError(f"omega = {float(omega[i]):.3g} is not a finite number "
                                  f"above {OMEGA_MIN:g} {where(i)}")


def _sample_parts(jx, jy, jz):
    """The values and first partials of x, y and z, then the normal parts;
    traced into the tape of sample_surface."""
    return (jx.value, jy.value, jz.value, jx.du1, jy.du1, jz.du1, jx.du2, jy.du2, jz.du2,
            *_normal_parts(jx, jy, jz))


def sample_surface(surface: SurfaceSpec, u1: float, u2: float) -> SurfaceSample:
    """First fundamental form data and the unit isotropic normal at a point.

    Raises SingularNormalError where omega is not a finite number above
    OMEGA_MIN, and G3Error where another field is not finite (a coordinate,
    a partial or a product of partials that overflows)."""
    u1, u2 = _finite_samples((float(u1), float(u2)), "(u1, u2)")
    x, y, z, xu1, yu1, zu1, xu2, yu2, zu2, A, B, omega = expr.on_partials(
        _sample_parts, (surface.x, surface.y, surface.z), (u1, u2))
    at = f"at (u1,u2)=({u1:.6g},{u2:.6g})"
    _check_omega(omega, lambda i: at)
    with np.errstate(all="ignore"):
        sample = SurfaceSample(
            point=GVec3(float(x), float(y), float(z)),
            Xu1=GVec3(float(xu1), float(yu1), float(zu1)),
            Xu2=GVec3(float(xu2), float(yu2), float(zu2)),
            n=GVec3(0.0, float(A / omega), float(B / omega)),
            omega=float(omega),
            g1=float(xu1), g2=float(xu2),
            h11=float(yu1 ** 2 + zu1 ** 2),
            h12=float(yu1 * yu2 + zu1 * zu2),
            h22=float(yu2 ** 2 + zu2 ** 2),
        )
    for name, value in vars(sample).items():
        if not all(map(math.isfinite, value.to_list() if isinstance(value, GVec3) else [value])):
            raise G3Error(f"{name} = {value} is not finite {at}")
    return sample


@dataclass(frozen=True)
class TraceSpec:
    """A curve in the parameter rectangle, (u1(s), u2(s)) over an interval.

    The induced ambient curve must be admissible: the x coordinate of
    X(u1(s), u2(s)) has to advance at unit rate.
    """

    u1_of_s: expr.ExprAST
    u2_of_s: expr.ExprAST
    domain: tuple[float, float]

    def __post_init__(self):
        _check_interval(self.domain)

    @classmethod
    def from_strings(cls, u1_src: str, u2_src: str,
                     domain: tuple[float, float] = (0.0, 1.0),
                     parameters: dict[str, float] | None = None) -> "TraceSpec":
        params = dict(parameters or {})
        return cls(expr.parse(u1_src, ["s"], params),
                   expr.parse(u2_src, ["s"], params),
                   (float(domain[0]), float(domain[1])))

    def samples(self, n: int) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], n)


def induced_curve(surface: SurfaceSpec, trace: TraceSpec) -> CurveSpec:
    """The ambient curve X(u1(s), u2(s)) as a graph-form CurveSpec.

    Built by symbolic substitution, so its Frenet data (including third
    derivatives for tau) stays analytic.
    """
    var = trace.u1_of_s.variables[0]
    u1n, u2n = surface.x.variables
    mapping = {u1n: trace.u1_of_s, u2n: trace.u2_of_s}
    f = expr.subst(surface.y, mapping, [var])
    g = expr.subst(surface.z, mapping, [var])
    params = dict(surface.parameters)
    return CurveSpec(f, g, trace.domain, params)


@dataclass(frozen=True)
class DarbouxSample:
    s: float
    T: GVec3
    Q: GVec3
    n: GVec3
    kg: float
    kn: float
    tau_g: float
    phi: float


def _darboux_parts(jx, jy, jz, u1p, u2p, u1pp, u2pp):
    """The trace's x-velocity, then `_darboux_arrays` from x to omega, of the
    Jet2s of x, y, z and u1', u2', u1'', u2''; traced into the Darboux tape."""

    def chain1(j):
        return j.du1 * u1p + j.du2 * u2p

    def chain2(j):
        return (j.du1u1 * u1p * u1p + 2.0 * j.du1u2 * u1p * u2p
                + j.du2u2 * u2p * u2p + j.du1 * u1pp + j.du2 * u2pp)

    A, B, omega = _normal_parts(jx, jy, jz)
    ny, nz = A / omega, B / omega
    # d/ds of the normal: partials of A, B via the surface second partials
    A_u1 = jx.du1u2 * jz.du1 + jx.du2 * jz.du1u1 - jx.du1u1 * jz.du2 - jx.du1 * jz.du1u2
    A_u2 = jx.du2u2 * jz.du1 + jx.du2 * jz.du1u2 - jx.du1u2 * jz.du2 - jx.du1 * jz.du2u2
    B_u1 = jx.du1u1 * jy.du2 + jx.du1 * jy.du1u2 - jx.du1u2 * jy.du1 - jx.du2 * jy.du1u1
    B_u2 = jx.du1u2 * jy.du2 + jx.du1 * jy.du2u2 - jx.du2u2 * jy.du1 - jx.du2 * jy.du1u2
    Ap = A_u1 * u1p + A_u2 * u2p
    Bp = B_u1 * u1p + B_u2 * u2p
    omega_p = (A * Ap + B * Bp) / omega
    nyp = (Ap * omega - A * omega_p) / (omega * omega)
    nzp = (Bp * omega - B * omega_p) / (omega * omega)
    Tpy, Tpz = chain2(jy), chain2(jz)
    Qy, Qz = nz, -ny
    Qpy, Qpz = nzp, -nyp
    kg = Tpy * Qy + Tpz * Qz
    kn = Tpy * ny + Tpz * nz
    taug = Qpy * ny + Qpz * nz
    return (chain1(jx), jx.value, jy.value, jz.value, chain1(jy), chain1(jz), Tpy, Tpz,
            ny, nz, nyp, nzp, Qy, Qz, Qpy, Qpz, kg, kn, taug,
            np.hypot(kg, kn), np.arctan2(-kn, kg), omega)


_DARBOUX_NAMES = ("x y z Ty Tz Tpy Tpz ny nz nyp nzp Qy Qz Qpy Qpz "
                  "kg kn taug kappa phi omega").split()


def _trace_parts(j1, j2):
    """u1, u2, then u1', u2', u1'', u2'' from the Jets of the trace;
    traced into the trace tape."""
    return j1.value, j2.value, j1.d1, j2.d1, j1.d2, j2.d2


def _darboux_arrays(surface: SurfaceSpec, trace: TraceSpec, S: np.ndarray) -> dict:
    """Darboux data along a trace, vectorized over the 1-D sample array, by
    the trace tape and one tape of x, y, z and `_darboux_parts`; phi is 0
    where kappa is 0.  G3Error names the first sample where u1 or u2 is
    not finite; then SingularNormalError or G3Error the first where omega
    is not a finite number above OMEGA_MIN, or another result is not
    finite."""

    def where(i):
        return f"along trace at s = {float(S[i]):.6g}"

    u1, u2, *derivatives = (np.broadcast_to(r, S.shape) for r in expr.on_partials(
        _trace_parts, (trace.u1_of_s, trace.u2_of_s), (S,)))
    # an overflowing trace is named here, not reported as a singular normal
    _check_finite({"u1": u1, "u2": u2}, where)
    xv, *parts = (np.broadcast_to(r, S.shape) for r in expr.on_partials(
        _darboux_parts, (surface.x, surface.y, surface.z), (u1, u2), derivatives))
    err = np.abs(xv - 1.0)
    if np.any(err > TRACE_TOL):
        i = int(np.argmax(err))
        raise InadmissibleTraceError(f"trace x-velocity {float(xv[i]):.6g} != 1 at s = "
                                     f"{float(S[i]):.6g}; substitute u1 = s (or shear-compensate)")
    out = {"s": S, "u1": u1, "u2": u2, **dict(zip(_DARBOUX_NAMES, parts))}
    # phi = atan2(-k_n, k_g) is undefined where kappa is 0
    out["phi"] = np.where(out["kappa"] == 0.0, 0.0, out["phi"])
    _check_omega(out["omega"], where)
    _check_finite(out, where)
    return out


def darboux(surface: SurfaceSpec, trace: TraceSpec, s: float) -> DarbouxSample:
    """Darboux frame (T, Q, n) and scalars (k_g, k_n, tau_g, phi) at s.

        T' = k_g Q + k_n n,   Q' = tau_g n,   n' = -tau_g Q
        k_g = kappa cos(phi), k_n = -kappa sin(phi)

    A one-sample `darboux_samples` call.
    """
    return darboux_samples(surface, trace, [float(s)])[0]


def darboux_samples(surface: SurfaceSpec, trace: TraceSpec, S) -> list[DarbouxSample]:
    S = _finite_samples(S)
    a = _darboux_arrays(surface, trace, S)
    return [
        DarbouxSample(
            s=float(S[i]),
            T=GVec3(1.0, float(a["Ty"][i]), float(a["Tz"][i])),
            Q=GVec3(0.0, float(a["Qy"][i]), float(a["Qz"][i])),
            n=GVec3(0.0, float(a["ny"][i]), float(a["nz"][i])),
            kg=float(a["kg"][i]), kn=float(a["kn"][i]),
            tau_g=float(a["taug"][i]), phi=float(a["phi"][i]),
        )
        for i in range(S.size)
    ]


@dataclass
class TraceClassification:
    geodesic: bool
    asymptotic: bool
    line_of_curvature: bool
    max_abs_kg: float
    max_abs_kn: float
    max_abs_taug: float


def _classify(a: dict, tol: float) -> TraceClassification:
    """classify_trace of the Darboux arrays `a`."""
    mg, mn, mt = (float(np.abs(a[k]).max()) for k in ("kg", "kn", "taug"))
    return TraceClassification(mg <= tol, mn <= tol, mt <= tol, mg, mn, mt)


def classify_trace(surface: SurfaceSpec, trace: TraceSpec, samples: int = 64,
                   tol: float = ANALYTIC_TOL) -> TraceClassification:
    """Geodesic / asymptotic / line of curvature flags: k_g, k_n, tau_g
    within tol of zero at every sample."""
    return _classify(_darboux_arrays(surface, trace, trace.samples(samples)), tol)


# ---------------------------------------------------------------------------
# Isophote axis reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisReport:
    """Result of an axis reconstruction.

    branch is one of C5-trivial, C6-line-of-curvature, C13-asymptotic,
    C14-degenerate.  residual is the maximum finite-difference |d'| over
    the samples (None for the degenerate branch, where no constant axis
    exists unless the trace is a straight line).
    """

    d: GVec3 | None
    theta_or_phi: float
    branch: str
    residual: float | None
    status: str  # "ok" | "degenerate"
    sign: int | None = None
    note: str = ""


def _axis_data(surface: SurfaceSpec, trace: TraceSpec, samples: int, tol: float):
    """The samples, the Darboux arrays and the flags an axis is built from;
    its residual is a finite difference, so it needs two samples."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    S = trace.samples(samples)
    a = _darboux_arrays(surface, trace, S)
    return S, a, _classify(a, tol)


def _axis_residual(S: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                   msg: str = "reconstructed axis is not constant (residual {:.3g})") -> float:
    """Max finite-difference |d'|; above RESIDUAL_TOL the axis is rejected."""
    gy = np.gradient(dy, S)
    gz = np.gradient(dz, S)
    residual = float(np.hypot(gy, gz).max())
    if not residual <= RESIDUAL_TOL:  # a NaN residual is rejected too
        raise AxisConstraintError(msg.format(residual))
    return residual


def _check_theta(theta: float) -> None:
    if not (0.0 <= theta <= math.pi / 2 + 1e-15):
        raise ValueError("theta must lie in [0, pi/2]")


def _tan_branches(a: dict, c: TraceClassification, theta: float):
    """max |k_n + tan(theta) k_g|, max |k_n - tan(theta) k_g|, and the
    scale max(1, max |k_g|) that a branch's tolerance is multiplied by."""
    t = math.tan(theta)
    return (float(np.abs(a["kn"] + t * a["kg"]).max()),
            float(np.abs(a["kn"] - t * a["kg"]).max()),
            max(1.0, c.max_abs_kg))


def axis_isotropic(surface: SurfaceSpec, trace: TraceSpec, theta: float,
                   samples: int = 64, tol: float = ANALYTIC_TOL) -> AxisReport:
    """Reconstruct a unit isotropic axis making constant angle theta with n.

    Asymptotic traces admit only the trivial axis d = n (theta = 0).
    Lines of curvature use d = -(k_n/k_g) cos(theta) Q + cos(theta) n,
    which is unit exactly when k_n/k_g = +-tan(theta) at every sample;
    either sign is accepted and the realized sign is recorded.
    """
    _check_theta(theta)  # before the trace is sampled
    return _axis_isotropic(*_axis_data(surface, trace, samples, tol), theta, tol)


def _axis_isotropic(S: np.ndarray, a: dict, c: TraceClassification, theta: float,
                    tol: float) -> AxisReport:
    _check_theta(theta)
    if c.asymptotic and abs(theta) <= tol:
        dy, dz = a["ny"], a["nz"]
        residual = _axis_residual(
            S, dy, dz, "d = n is not constant along the trace "
            "(residual {:.3g}); the trace is not a line of curvature")
        return AxisReport(d=GVec3(0.0, float(dy[0]), float(dz[0])),
                          theta_or_phi=theta, branch="C5-trivial",
                          residual=residual, status="ok")

    if c.line_of_curvature:
        undef = np.abs(a["kg"]) <= tol
        if np.any(undef):
            i = int(np.argmax(undef))
            raise AxisUndefinedError(
                f"k_g vanishes at s = {float(S[i]):.6g}; "
                "the line-of-curvature axis formula k_n/k_g is undefined")
        minus, plus, scale = _tan_branches(a, c, theta)
        if min(minus, plus) > tol * scale:
            raise AxisConstraintError(
                f"|k_n/k_g| != tan(theta) along the trace (best deviation "
                f"{min(minus, plus):.3g} at tan(theta) = {math.tan(theta):.6g})")
        ratio = a["kn"] / a["kg"]
        ct = math.cos(theta)
        dy = -ratio * ct * a["Qy"] + ct * a["ny"]
        dz = -ratio * ct * a["Qz"] + ct * a["nz"]
        residual = _axis_residual(S, dy, dz)
        return AxisReport(d=GVec3(0.0, float(dy[0]), float(dz[0])),
                          theta_or_phi=theta, branch="C6-line-of-curvature",
                          residual=residual, status="ok", sign=1 if plus <= minus else -1)

    raise NotLineOfCurvatureError(
        f"trace is neither asymptotic-with-theta-0 nor a line of curvature "
        f"(max |k_n| = {c.max_abs_kn:.3g}, max |tau_g| = {c.max_abs_taug:.3g})")


def axis_nonisotropic(surface: SurfaceSpec, trace: TraceSpec, phi_measure: float,
                      samples: int = 64, tol: float = ANALYTIC_TOL) -> AxisReport:
    """Reconstruct a unit non-isotropic axis d = T + phi n.

    Requires an asymptotic trace; d is constant iff k_g = phi tau_g at
    every sample.  A line of curvature that is not asymptotic is reported
    as degenerate: the corresponding formula forces kappa = 0, so only a
    straight line could carry such an axis.
    """
    return _axis_nonisotropic(*_axis_data(surface, trace, samples, tol), phi_measure, tol)


def _axis_nonisotropic(S: np.ndarray, a: dict, c: TraceClassification, phi_measure: float,
                       tol: float) -> AxisReport:
    if c.asymptotic:
        dev = np.abs(a["kg"] - phi_measure * a["taug"])
        if dev.max() > tol:
            i = int(np.argmax(dev))
            raise AxisConstraintError(
                f"constancy condition k_g = phi tau_g violated at "
                f"s = {float(S[i]):.6g} (deviation {float(dev[i]):.3g})")
        dy = a["Ty"] + phi_measure * a["ny"]
        dz = a["Tz"] + phi_measure * a["nz"]
        residual = _axis_residual(S, dy, dz)
        return AxisReport(d=GVec3(1.0, float(dy[0]), float(dz[0])),
                          theta_or_phi=phi_measure, branch="C13-asymptotic",
                          residual=residual, status="ok")

    if c.line_of_curvature:
        return AxisReport(
            d=None, theta_or_phi=phi_measure, branch="C14-degenerate",
            residual=None, status="degenerate",
            note="line-of-curvature trace with non-isotropic axis forces "
                 "k_g = k_n = 0 (kappa = 0): only a straight line qualifies")

    raise NotAsymptoticError(
        f"trace is not asymptotic (max |k_n| = {c.max_abs_kn:.3g})")


def transform_surface(surface: SurfaceSpec, m: GalileanMotion) -> SurfaceSpec:
    """The motion image of a surface, as new coordinate expressions."""
    cp, sp = math.cos(m.phi), math.sin(m.phi)
    v = list(surface.x.variables)

    def lin(t0: float, cx: float, cy: float, cz: float) -> expr.ExprAST:
        out = expr.const(t0)
        for coeff, ast in ((cx, surface.x), (cy, surface.y), (cz, surface.z)):
            term = expr.combine("*", expr.const(coeff), ast, v)
            out = expr.combine("+", out, term, v)
        return out

    return SurfaceSpec(
        x=lin(m.a, 1.0, 0.0, 0.0),
        y=lin(m.b, m.c1, cp, sp),
        z=lin(m.d0, m.e1, -sp, cp),
        domain=surface.domain,
        parameters=dict(surface.parameters),
    )


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------

@dataclass
class TheoremConfig:
    axis: GVec3 | None = None
    theta: float | None = None         # reconstruct an isotropic axis
    phi_measure: float | None = None   # reconstruct a non-isotropic axis


@dataclass
class TheoremReport:
    name: str
    hypothesis_met: bool
    conclusion_verified: bool | None
    details: dict


def verify_theorems(surface: SurfaceSpec, trace: TraceSpec,
                    config: TheoremConfig | None = None) -> dict[str, TheoremReport]:
    """Numerically check every statement of the axis section on one trace.

    Each theorem is evaluated as hypothesis -> conclusion: the hypothesis
    is tested on sampled Darboux/Frenet data for the configured axis, and
    the conclusion is asserted only when the hypothesis holds.
    """
    cfg = config or TheoremConfig()
    tol = ANALYTIC_TOL
    S, a, c = _axis_data(surface, trace, 64, tol)

    axis, recon, reason = cfg.axis, None, "no axis provided or reconstructed"
    for name, value, reconstruct in (("axis_isotropic", cfg.theta, _axis_isotropic),
                                     ("axis_nonisotropic", cfg.phi_measure, _axis_nonisotropic)):
        if axis is None and value is not None:
            try:
                recon = reconstruct(S, a, c, value, tol)
                axis = recon.d
            except Exception as e:  # noqa: BLE001 - reported, not swallowed
                reason = f"{name} failed: {e}"

    names = ("thm_3_1_i", "thm_3_1_ii", "thm_3_2", "thm_3_3",
             "thm_3_4", "cor_3_5", "thm_3_6_i", "thm_3_6_ii")
    if axis is None:
        return {name: TheoremReport(name, False, None, {"reason": reason}) for name in names}

    iso = axis.is_isotropic
    fieldv = a["ny"] * axis.y + a["nz"] * axis.z
    spread = float(fieldv.max() - fieldv.min())
    isophote = spread <= tol
    silhouette = bool(np.abs(fieldv).max() <= tol)
    kappa = a["kappa"]
    max_kappa = float(kappa.max())
    straight = max_kappa <= tol

    fren = _curve_arrays(induced_curve(surface, trace), S) if kappa.min() > KAPPA_MIN else None
    tau_max = None if fren is None else float(np.abs(fren["tau"]).max())
    # is the trace a plane curve, and max |tau|; None and NaN if tau is unknown
    plane, plane_tau = ((True, 0.0) if straight else (None, math.nan) if tau_max is None
                        else (tau_max <= tol, tau_max))

    common = {"field_spread": spread, "field_mean": float(fieldv.mean()),
              "max_kappa": max_kappa,
              "axis": axis.to_list(), "axis_kind": axis.kind}
    if recon is not None:
        common.update(axis_residual=recon.residual, axis_branch=recon.branch)
    # a theorem whose hypothesis is not tested below stays not met
    out = {name: TheoremReport(name, False, None, dict(common)) for name in names}

    def report(name, hyp, concl, **details):
        out[name] = TheoremReport(name, hyp, concl if hyp else None, {**common, **details})

    # 3.1 (i): a geodesic isophote with isotropic axis is a straight line
    report("thm_3_1_i", iso and isophote and c.geodesic, straight,
           max_abs_kg=c.max_abs_kg)

    # 3.1 (ii): an asymptotic isophote with isotropic axis is a plane
    # curve and its axis is spanned by B
    if iso and isophote and c.asymptotic and fren is not None:
        proj = fren["By"] * axis.y + fren["Bz"] * axis.z
        collin = float(np.hypot(axis.y - proj * fren["By"],
                                axis.z - proj * fren["Bz"]).max())
        concl = tau_max <= tol and collin <= tol and \
            float(np.abs(np.abs(proj) - 1.0).max()) <= tol
        report("thm_3_1_ii", True, concl, max_abs_tau=tau_max,
               axis_off_binormal=collin)

    if iso and isophote and c.line_of_curvature and not straight:
        # theta for the isotropic-axis statements, from the measured field
        theta = math.acos(max(-1.0, min(1.0, float(fieldv.mean()))))
        minus, plus, scale = _tan_branches(a, c, theta)

        # 3.2: on the k_n/k_g = -tan(theta) branch the axis is
        # perpendicular to the principal normal
        if fren is not None and minus <= tol * scale:
            nd = float(np.abs(fren["Ny"] * axis.y + fren["Nz"] * axis.z).max())
            comb = float(np.abs(-(a["kn"] / kappa) * math.cos(theta)
                                - (a["kg"] / kappa) * math.sin(theta)).max())
            report("thm_3_2", True, nd <= tol and comb <= tol,
                   theta=theta, max_abs_N_dot_d=nd, frame_combination=comb)
        elif fren is not None:
            report("thm_3_2", False, None, theta=theta,
                   reason="trace is not on the -tan(theta) branch")

        # 3.3: tan(theta) branch with the binormal combination vanishing
        # forces theta = pi/4
        if not c.geodesic:
            comb = float(np.abs(-(a["kn"] / kappa) * math.sin(theta)
                                + (a["kg"] / kappa) * math.cos(theta)).max())
            if plus <= tol * scale and comb <= tol:
                forced = float(np.abs(np.arctan2(np.abs(a["kn"]), np.abs(a["kg"]))
                                      - math.pi / 4).max())
                report("thm_3_3", True,
                       abs(theta - math.pi / 4) <= tol and forced <= tol,
                       theta=theta, frame_combination=comb,
                       max_theta_deviation=forced)
            else:
                report("thm_3_3", False, None, theta=theta,
                       frame_combination=comb,
                       reason="not on the tan(theta) branch with vanishing "
                              "binormal combination")

    # 3.4: a silhouette whose isotropic axis is parallel to Q is a plane curve
    if iso and silhouette:
        proj = a["Qy"] * axis.y + a["Qz"] * axis.z
        off_q = float(np.hypot(axis.y - proj * a["Qy"],
                               axis.z - proj * a["Qz"]).max())
        unit = float(np.abs(np.abs(proj) - 1.0).max())
        if off_q <= tol and unit <= tol:
            report("thm_3_4", True, plane, axis_off_Q=off_q,
                   max_abs_tau=plane_tau,
                   max_abs_kg=c.max_abs_kg, max_abs_taug=c.max_abs_taug)
        else:
            report("thm_3_4", False, None, axis_off_Q=off_q)

    # Corollary 3.5: a geodesic or line-of-curvature isophote with
    # non-isotropic axis is a straight line
    report("cor_3_5",
           (not iso) and isophote and (c.geodesic or c.line_of_curvature),
           straight)

    if (not iso) and silhouette:
        # 3.6 (i): a silhouette with non-isotropic axis in span{T, Q} is a
        # plane curve
        b_comp = (axis.y - a["Ty"]) * a["ny"] + (axis.z - a["Tz"]) * a["nz"]
        defect = float(np.abs(b_comp).max())
        if defect <= tol:
            report("thm_3_6_i", True, plane, max_abs_tau=plane_tau,
                   max_span_defect=defect)
        else:
            report("thm_3_6_i", False, None, max_span_defect=defect)

        # 3.6 (ii): a silhouette whose axis is spanned by T is a geodesic
        off_t = float(np.hypot(axis.y - a["Ty"], axis.z - a["Tz"]).max())
        report("thm_3_6_ii", off_t <= tol, c.geodesic, axis_off_T=off_t,
               max_abs_kg=c.max_abs_kg)

    return out
