"""Surfaces of revolution from a profile curve (s, 0, g(s)).

Euclidean rotation sweeps the profile along Euclidean circles:
    X(s,t) = (s, g(s) sin t, g(s) cos t),      n = (0, sin t, cos t)
Isotropic rotation sweeps it along isotropic circles (parabolas):
    X(s,t) = (s + c t, s t + c t^2/2, g(s)),   n = (0, c g', s)/sqrt((c g')^2 + s^2)

The verifiers tie these to the helix characterizations: parallels t = t0
of the Euclidean surface see the profile's binormal (t0 odd multiple of
pi/2) or principal normal (t0 multiple of pi), and the quadratic profile
g = s^2/(2c) + A makes the whole isotropic surface a single isophote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr
from .curve import (
    CurveSpec,
    _check_interval,
    _values,
    detect_general_helix,
    detect_slant_helix,
    frenet,
)
from .errors import G3Error
from .galilean import GVec3, normalize_axis
from .isophote import field_grid
from .surface import SurfaceSpec, TheoremReport, sample_surface

S_MIN_DEFAULT = 1e-3
EUCLIDEAN_T_RANGE = (0.0, 2.0 * math.pi)
ISOTROPIC_T_RANGE = (-2.0, 2.0)


@dataclass(frozen=True)
class ProfileSpec:
    """Profile curve data: g(s) over a domain, plus the isotropic-rotation
    radius c.

    The first coordinate function is always f(s) = s (arc-length form).
    Euclidean rotation additionally needs g > 0 on the domain.
    """

    g: expr.ExprAST
    domain: tuple[float, float]
    c: float = 1.0

    def __post_init__(self):
        _check_interval(self.domain)

    @classmethod
    def from_string(cls, g_src: str, domain: tuple[float, float], c: float = 1.0,
                    parameters: dict[str, float] | None = None) -> "ProfileSpec":
        return cls(expr.parse(g_src, ["s"], dict(parameters or {})),
                   (float(domain[0]), float(domain[1])), float(c))


def profile_curve(profile: ProfileSpec) -> CurveSpec:
    """The profile as a plane curve (s, 0, g(s))."""
    zero = expr.parse("0", ["s"])
    return CurveSpec(zero, profile.g, profile.domain, dict(profile.g.params))


def revolve_euclidean(profile: ProfileSpec) -> SurfaceSpec:
    """Euclidean surface of revolution; t runs over [0, 2 pi].  g must be
    finite and positive at 64 points spread over the profile's domain; a g
    that cannot be evaluated there is NaN, so it is rejected too."""
    S = np.linspace(profile.domain[0], profile.domain[1], 64)
    gv = np.broadcast_to(expr.on_partials(_values, (profile.g,), (S,), check=False)[0],
                         S.shape)
    bad = ~(np.isfinite(gv) & (gv > 0.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise G3Error(
            f"euclidean revolution needs g > 0; g({float(S[i]):.6g}) = {float(gv[i]):.6g}")
    v = ["u1", "u2"]
    g_u1 = expr.subst(profile.g, {"s": expr.parse("u1", v)}, v)
    x = expr.parse("u1", v)
    sin_t, cos_t = expr.parse("sin(u2)", v), expr.parse("cos(u2)", v)
    y = expr.combine("*", g_u1, sin_t, v)
    z = expr.combine("*", g_u1, cos_t, v)
    # omega = |g| and n = (0, sin t, cos t) where g > 0 (Section 4)
    return SurfaceSpec(x, y, z, (profile.domain, EUCLIDEAN_T_RANGE),
                       dict(profile.g.params), normal=(g_u1, sin_t, cos_t))


def revolve_isotropic(profile: ProfileSpec) -> SurfaceSpec:
    """Isotropic surface of revolution with radius c, t in ISOTROPIC_T_RANGE;
    u1 is clamped to s >= S_MIN_DEFAULT, away from s = 0, where the normal
    direction is discontinuous for profiles with g'(0) = 0."""
    if profile.c <= 0.0:
        raise G3Error("isotropic revolution needs c > 0")
    lo = max(profile.domain[0], S_MIN_DEFAULT)
    hi = profile.domain[1]
    if lo >= hi:
        raise G3Error(f"profile domain [{profile.domain[0]:g}, {hi:g}] is empty "
                      f"after clamping to s >= {S_MIN_DEFAULT:g}")
    v = ["u1", "u2"]
    params = dict(profile.g.params)
    if "rotc" in params and params["rotc"] != profile.c:
        raise G3Error("parameter name 'rotc' is reserved by revolve_isotropic")
    params["rotc"] = profile.c
    g_u1 = expr.subst(profile.g, {"s": expr.parse("u1", v)}, v)
    x = expr.parse("u1 + rotc*u2", v, {"rotc": profile.c})
    y = expr.parse("u1*u2 + rotc*u2^2/2", v, {"rotc": profile.c})
    return SurfaceSpec(x, y, g_u1, ((lo, hi), ISOTROPIC_T_RANGE), params)


def frame_normal_decomposition(profile: ProfileSpec, mode: str,
                               s: float, t: float) -> tuple[float, float]:
    """Coefficients (a_N, a_B) with n(s,t) = a_N N(s) + a_B B(s), where
    (N, B) is the profile's Frenet frame.

    Closed forms for profiles with g'' > 0: Euclidean (cos t, -sin t),
    isotropic (s, -g'(s) c)/sqrt((g' c)^2 + s^2).  Computed here by
    projecting the sampled surface normal, which also covers g'' < 0.
    """
    if mode not in ("euclidean", "isotropic"):
        raise ValueError("mode must be 'euclidean' or 'isotropic'")
    fr = frenet(profile_curve(profile), s)  # raises if the profile is straight
    surf = revolve_euclidean(profile) if mode == "euclidean" else revolve_isotropic(profile)
    n = sample_surface(surf, s, t).n
    return (n.y * fr.N.y + n.z * fr.N.z, n.y * fr.B.y + n.z * fr.B.z)


def _verify_helix_prop(name: str, detect, t0s: tuple[float, float], reason: str,
                       profile: ProfileSpec, d: GVec3, tol: float) -> TheoremReport:
    """Gate on the helix detector; then the shading field along each
    parallel t = t0 of the Euclidean revolution must be constant.  The
    field is taken from the partials, not from the closed-form normal,
    which is constant on parallels by construction."""
    curve = profile_curve(profile)
    helix = detect(curve, d, samples=128, tol=tol)
    details: dict = {"helix_value": helix.value, "helix_spread": helix.spread}
    if not helix.is_helix:
        return TheoremReport(name, False, None, {**details, "reason": reason})
    surf = replace(revolve_euclidean(profile), normal=None)
    S = np.linspace(profile.domain[0], profile.domain[1], 128)
    ok = True
    for k, t0 in enumerate(t0s):
        vals = field_grid(surf, d, S, np.full_like(S, t0))
        spread = float(vals.max() - vals.min())
        details[f"t0_{k}"] = t0
        details[f"field_spread_{k}"] = spread
        details[f"field_value_{k}"] = float(vals.mean())
        ok = ok and spread <= tol
    return TheoremReport(name, True, ok, details)


def verify_prop_4_1(profile: ProfileSpec, d: GVec3, tol: float = 1e-9) -> TheoremReport:
    """General-helix profiles give isophotes along t = (2k+1) pi/2.

    Gate: <B, d> constant for the profile.  Assertion: the shading field
    along the parallels t0 = pi/2, 3pi/2 is constant to within tol, and
    the surface normal there is -+ the profile binormal.
    """
    return _verify_helix_prop("prop_4_1", detect_general_helix,
                              (math.pi / 2.0, 3 * math.pi / 2.0),
                              "profile is not a general helix for d",
                              profile, d, tol)


def verify_prop_4_2(profile: ProfileSpec, d: GVec3, tol: float = 1e-9) -> TheoremReport:
    """Slant-helix profiles give isophotes along t = k pi."""
    return _verify_helix_prop("prop_4_2", detect_slant_helix, (0.0, math.pi),
                              "profile is not a slant helix for d",
                              profile, d, tol)


def verify_prop_4_3(c: float, A: float, lam: float, branch: str,
                    grid: tuple[int, int] = (64, 64)) -> TheoremReport:
    """The quadratic profile g = s^2/(2c) + A makes the whole isotropic
    surface of revolution one isophote with constant <n, d> = lam/sqrt(2),
    checked on s in [S_MIN_DEFAULT, 5] to within 1e-12 max(1, |lam|).

    branch "i" takes the axis along the profile normal, d = (0, 0, lam);
    branch "ii" along minus the binormal, d = (0, lam, 0).  Also checks
    that the profile is simultaneously a general and a slant helix.
    """
    if branch not in ("i", "ii"):
        raise ValueError("branch must be 'i' or 'ii'")
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    if c <= 0.0:
        raise G3Error("c must be positive")
    profile = ProfileSpec.from_string("s^2/(2*cc) + AA", (S_MIN_DEFAULT, 5.0), c=c,
                                      parameters={"cc": c, "AA": A})
    d = GVec3(0.0, 0.0, lam) if branch == "i" else GVec3(0.0, lam, 0.0)
    surf = revolve_isotropic(profile)
    U1 = np.linspace(surf.domain[0][0], surf.domain[0][1], grid[0] + 1)
    U2 = np.linspace(surf.domain[1][0], surf.domain[1][1], grid[1] + 1)
    unit = normalize_axis(d)
    vals = field_grid(surf, unit, U1[:, None], U2[None, :]) * abs(lam)
    value = float(vals.mean())
    spread = float(vals.max() - vals.min())
    expected = lam / math.sqrt(2.0)
    scale = max(1.0, abs(lam))
    cu = profile_curve(profile)
    gen = detect_general_helix(cu, unit, samples=64, tol=1e-10)
    sla = detect_slant_helix(cu, unit, samples=64, tol=1e-10)
    ok = (spread <= 1e-12 * scale and abs(value - expected) <= 1e-12 * scale
          and gen.is_helix and sla.is_helix)
    return TheoremReport("prop_4_3_" + branch, True, ok, {
        "value": value, "spread": spread, "expected": expected,
        "corollary_4_4": {"general_helix": gen.is_helix, "slant_helix": sla.is_helix,
                          "B_dot_d": gen.value, "N_dot_d": sla.value},
    })
