"""The scalar APIs `frenet`, `darboux` and `field` are one-sample calls
into the batch kernels: equal to element i of the batch call bit for bit,
and raising the same error classes and messages as before."""

import math

import numpy as np
import pytest

from g3geom import (
    CurveSpec,
    ExprDomainError,
    GVec3,
    InadmissibleTraceError,
    SingularNormalError,
    StraightSegmentError,
    SurfaceSpec,
    TraceSpec,
    darboux,
    darboux_samples,
    field,
    field_grid,
    frenet,
    frenet_samples,
    induced_curve,
    normalize_axis,
)

Z_AXIS = GVec3(0.0, 0.0, 1.0)


def test_frenet_equals_batch_element(cubic_curve, corpus):
    curves = [cubic_curve] + [induced_curve(s, t) for s, t in corpus[:6]]
    for curve in curves:
        S = np.linspace(curve.domain[0], curve.domain[1], 17)
        batch = frenet_samples(curve, S)
        for i, s in enumerate(S):
            assert repr(frenet(curve, s)) == repr(batch[i])


def test_darboux_equals_batch_element(cylinder, helix_trace, corpus):
    for surface, trace in [(cylinder, helix_trace)] + list(corpus[:6]):
        S = trace.samples(17)
        batch = darboux_samples(surface, trace, S)
        for i, s in enumerate(S):
            assert repr(darboux(surface, trace, s)) == repr(batch[i])


def test_field_equals_batch_element(cylinder, corpus):
    axis = normalize_axis(GVec3(0.0, 0.2, 1.0))
    wavy = SurfaceSpec.from_strings("u1", "u2", "0.8*sin(3*u1)*cos(3*u2)",
                                    ((0.0, 2 * math.pi), (0.0, 2 * math.pi)))
    for surface in [cylinder, wavy] + [s for s, _ in corpus[:4]]:
        U1, U2 = (g.ravel() for g in np.meshgrid(*surface.grid(9, 7)))
        batch = field_grid(surface, axis, U1, U2)
        for i in range(U1.size):
            assert field(surface, axis, U1[i], U2[i]).hex() == float(batch[i]).hex()


def test_frenet_keeps_straight_segment_error():
    line = CurveSpec.from_strings("s", "2*s", (0.0, 1.0))
    with pytest.raises(StraightSegmentError,
                       match=r"^kappa <= 1e-10 at s = 0\.5: Frenet frame undefined$"):
        frenet(line, 0.5)


def test_darboux_keeps_inadmissible_trace_error(plane):
    trace = TraceSpec.from_strings("2*s", "s", (0.0, 1.0))
    with pytest.raises(InadmissibleTraceError,
                       match=r"^trace x-velocity 2 != 1 at s = 0\.3; "):
        darboux(plane, trace, 0.3)


def test_field_keeps_singular_normal_error_on_cone():
    cone = SurfaceSpec.from_strings("u1", "u1*cos(u2)", "u1*sin(u2)",
                                    ((0.0, 1.0), (0.0, 2 * math.pi)))
    with pytest.raises(SingularNormalError,
                       match=r"^omega = 0 at \(u1,u2\)=\(0,1\)$"):
        field(cone, Z_AXIS, 0.0, 1.0)


def test_field_keeps_domain_error():
    surf = SurfaceSpec.from_strings("u1", "u2", "log(u1)", ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ExprDomainError, match="log of non-positive value"):
        field(surf, Z_AXIS, 0.0, 0.5)
