"""The scalar APIs `frenet`, `darboux` and `field` are one-sample calls
into the batch kernels: equal to element i of the batch call bit for bit,
and raising the same error classes and messages as before."""

import math

import numpy as np
import pytest

from g3geom import (
    CurveSpec,
    ExprDomainError,
    G3Error,
    GVec3,
    InadmissibleTraceError,
    ProfileSpec,
    SingularNormalError,
    StraightSegmentError,
    SurfaceSpec,
    TraceSpec,
    classify_trace,
    darboux,
    darboux_samples,
    field,
    field_grid,
    frenet,
    frenet_samples,
    induced_curve,
    normalize_axis,
    sample_surface,
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
                       match=r"^omega = 0 is not a finite number above 1e-10 "
                             r"at \(u1,u2\)=\(0,1\)$"):
        field(cone, Z_AXIS, 0.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_field_and_sample_surface_raise_where_omega_is_not_finite():
    # 0 * inf makes omega NaN at u1 = 2 (field returned nan there, and
    # sample_surface a sample of NaNs), and y_u2 = e^1600 makes it inf
    nan_omega = SurfaceSpec.from_strings("u1", "u2", "(u2 - u2)*exp(400*u1)")
    inf_omega = SurfaceSpec.from_strings("u1", "exp(800*u1)*u2", "u2")
    for surface, omega in ((nan_omega, "nan"), (inf_omega, "inf")):
        for call in (lambda: field(surface, Z_AXIS, 2.0, 0.5),
                     lambda: sample_surface(surface, 2.0, 0.5)):
            with pytest.raises(SingularNormalError,
                               match=rf"^omega = {omega} .*at \(u1,u2\)=\(2,0\.5\)$"):
                call()
        assert field(surface, Z_AXIS, 0.5, 0.5) == 1.0
    # omega is finite at u1 = 0.5, but y_u1^2 overflows in h11
    with pytest.raises(G3Error, match=r"^h11 = inf is not finite at \(u1,u2\)=\(0\.5,1\)$"):
        sample_surface(inf_omega, 0.5, 1.0)


@pytest.mark.filterwarnings("error")
def test_darboux_raises_where_omega_or_a_result_is_not_finite():
    # darboux returned a frame of NaNs and classify_trace NaN maxima with
    # every flag False on the first surface; the second overflowed with a
    # RuntimeWarning.  darboux, field and sample_surface run one evaluator,
    # so they name the same omega
    nan_omega = SurfaceSpec.from_strings("u1", "u2", "(u2 - u2)*exp(400*u1)")
    inf_omega = SurfaceSpec.from_strings("u1", "exp(800*u1)*u2", "u2")
    trace = TraceSpec.from_strings("s", "0.5", (0.0, 3.0))

    def raises_omega(surface, omega, s):
        at = f"{s:.6g}".replace(".", r"\.")
        with pytest.raises(SingularNormalError, match=rf"^omega = {omega} is not a finite "
                           rf"number above 1e-10 along trace at s = {at}$"):
            darboux(surface, trace, s)
        for call in (lambda: field(surface, Z_AXIS, s, 0.5),
                     lambda: sample_surface(surface, s, 0.5)):
            with pytest.raises(SingularNormalError, match=rf"^omega = {omega} is not a finite "
                               rf"number above 1e-10 at \(u1,u2\)=\({at},0\.5\)$"):
                call()

    raises_omega(nan_omega, "nan", 2.0)
    raises_omega(inf_omega, "inf", 2.0)
    # the first of 64 samples on [0, 3] where z_u1 = 400 e^(400 s) overflows
    with pytest.raises(SingularNormalError, match=r"^omega = nan .* at s = 1\.80952$"):
        classify_trace(nan_omega, trace)
    S = trace.samples(64)
    assert field(nan_omega, Z_AXIS, S[37], 0.5) == 1.0
    raises_omega(nan_omega, "nan", S[38])
    # omega is finite at s = 0.5, but the derivative of the normal is not
    with pytest.raises(G3Error, match=r"^nyp = nan is not finite along trace at s = 0\.5$"):
        darboux(inf_omega, trace, 0.5)
    sample = darboux(nan_omega, trace, 0.5)
    assert (sample.kg, sample.kn, sample.tau_g) == (0.0, 0.0, 0.0)


def test_sample_arrays_are_one_dimensional_and_finite(cubic_curve, cylinder, helix_trace):
    # these raised TypeError, IndexError or returned NaN before the check
    with pytest.raises(ValueError, match=r"^S must be a 1-D array of samples, got shape \(\)$"):
        frenet_samples(cubic_curve, 4096)
    with pytest.raises(ValueError, match=r"^S must be a 1-D array of samples, got shape \(\)$"):
        darboux_samples(cylinder, helix_trace, 5)
    with pytest.raises(ValueError, match=r"shape \(2, 2\)$"):
        frenet_samples(cubic_curve, [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError, match=r"^S\[2\] = inf is not finite$"):
        frenet_samples(cubic_curve, [0.1, 0.2, math.inf, math.nan])
    with pytest.raises(ValueError, match=r"^S\[1\] = nan is not finite$"):
        darboux_samples(cylinder, helix_trace, [0.5, math.nan])
    with pytest.raises(ValueError, match=r"^S\[0\] = nan is not finite$"):
        frenet(cubic_curve, math.nan)
    with pytest.raises(ValueError, match=r"^S\[0\] = -inf is not finite$"):
        darboux(cylinder, helix_trace, -math.inf)
    paraboloid = SurfaceSpec.from_strings("u1", "u2", "u1^2+u2^2")
    with pytest.raises(ValueError, match=r"^\(u1, u2\)\[0\] = nan is not finite$"):
        field(paraboloid, Z_AXIS, math.nan, 0.0)
    with pytest.raises(ValueError, match=r"^\(u1, u2\)\[1\] = inf is not finite$"):
        sample_surface(paraboloid, 0.5, math.inf)
    assert frenet_samples(cubic_curve, []) == []


def test_spec_domains_are_finite_intervals():
    # each of these built at the parent, and a NaN domain was only caught
    # later (revolve_euclidean's g > 0 check) or not at all
    for domain in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0), (2.0, 1.0)):
        lo, hi = domain
        message = rf"^domain must be finite with lo < hi, got \({lo!r}, {hi!r}\)$"
        for build in (lambda: ProfileSpec.from_string("1", domain),
                      lambda: ProfileSpec.from_string("s + 1", domain),
                      lambda: CurveSpec.from_strings("s^2", "s^3", domain),
                      lambda: TraceSpec.from_strings("s", "0.5", domain)):
            with pytest.raises(ValueError, match=message):
                build()
        with pytest.raises(ValueError, match=message.replace("^domain", "^u1 domain")):
            SurfaceSpec.from_strings("u1", "u2", "0", (domain, (0.0, 1.0)))
        with pytest.raises(ValueError, match=message.replace("^domain", "^u2 domain")):
            SurfaceSpec.from_strings("u1", "u2", "0", ((0.0, 1.0), domain))
    assert CurveSpec.from_strings("s^2", "s^3", (-1, 2)).domain == (-1.0, 2.0)


@pytest.mark.filterwarnings("error")
def test_frenet_raises_where_a_result_is_not_finite():
    # g = 2 e^(800 s) overflows at s = 1; frenet_samples returned a row of
    # NaNs there, with an overflow warning
    curve = CurveSpec.from_strings("s^2", "2*exp(800*s)", (0.0, 1.0))
    with pytest.raises(G3Error, match=r"^g = inf is not finite at s = 1$") as e:
        frenet_samples(curve, curve.samples(3))
    assert type(e.value) is G3Error
    assert frenet(curve, 0.5).kappa == pytest.approx(1600.0 * 800.0 * math.exp(400.0))


def test_field_keeps_domain_error():
    surf = SurfaceSpec.from_strings("u1", "u2", "log(u1)", ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ExprDomainError, match="log of non-positive value"):
        field(surf, Z_AXIS, 0.0, 0.5)
