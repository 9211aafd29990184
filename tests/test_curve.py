import math

import numpy as np
import pytest

from g3geom import (
    CurveSpec,
    G3Error,
    GVec3,
    StraightSegmentError,
    detect_general_helix,
    detect_slant_helix,
    frenet,
    frenet_samples,
    gcross,
    gdot,
    gnorm,
    is_admissible,
    transform_curve,
)
from g3geom.verify import random_motions


def test_frenet_cubic_at_zero(cubic_curve):
    f = frenet(cubic_curve, 0.0)
    assert f.T.to_list() == [1.0, 0.0, 0.0]
    assert f.N.to_list() == [0.0, 1.0, 0.0]
    assert f.B.to_list() == [0.0, 0.0, 1.0]
    assert f.kappa == 1.0
    assert f.tau == 1.0


def test_frenet_cubic_closed_forms(cubic_curve):
    # hand-derived: alpha' = (1, s, s^2/2), alpha'' = (0, 1, s),
    # alpha''' = (0, 0, 1)  =>  kappa = sqrt(1+s^2), tau = 1/(1+s^2)
    f = frenet(cubic_curve, 1.0)
    assert f.kappa == pytest.approx(math.sqrt(2), abs=1e-14)
    assert f.tau == pytest.approx(0.5, abs=1e-14)
    for s in np.linspace(0.0, 2.0, 23):
        f = frenet(cubic_curve, float(s))
        assert f.kappa == pytest.approx(math.sqrt(1 + s * s), abs=1e-12)
        assert f.tau == pytest.approx(1 / (1 + s * s), abs=1e-12)


def test_frenet_plane_curve():
    c = CurveSpec.from_strings("0", "s^2/2", (-1.0, 1.0))
    for s in (-0.5, 0.0, 0.8):
        f = frenet(c, s)
        assert f.kappa == 1.0
        assert f.tau == 0.0
        assert f.N.to_list() == [0.0, 0.0, 1.0]
        assert f.B.to_list() == [0.0, -1.0, 0.0]


def test_frenet_straight_segment_error():
    c = CurveSpec.from_strings("0", "0", (0.0, 1.0))
    with pytest.raises(StraightSegmentError):
        frenet(c, 0.5)


def test_frenet_frame_invariants(cubic_curve):
    for f in frenet_samples(cubic_curve, np.linspace(0, 2, 40)):
        assert abs(gnorm(f.N) - 1.0) <= 1e-12
        assert abs(gnorm(f.B) - 1.0) <= 1e-12
        assert abs(gdot(f.N, f.B)) <= 1e-12
        b = gcross(f.T, f.N)
        assert math.hypot(b.y - f.B.y, b.z - f.B.z) <= 1e-12


def test_frenet_ode_finite_differences(cubic_curve):
    h = 1e-5
    rng = np.random.default_rng(5)
    for s in rng.uniform(0.05, 1.95, size=100):
        fm, f0, fp = (frenet(cubic_curve, v) for v in (s - h, s, s + h))

        def fd(get):
            a, b = get(fp), get(fm)
            return ((a.y - b.y) / (2 * h), (a.z - b.z) / (2 * h))

        dT = ((fp.T.y - fm.T.y) / (2 * h), (fp.T.z - fm.T.z) / (2 * h))
        assert math.hypot(dT[0] - f0.kappa * f0.N.y,
                          dT[1] - f0.kappa * f0.N.z) <= 1e-5
        dN = fd(lambda f: f.N)
        assert math.hypot(dN[0] - f0.tau * f0.B.y,
                          dN[1] - f0.tau * f0.B.z) <= 1e-5
        dB = fd(lambda f: f.B)
        assert math.hypot(dB[0] + f0.tau * f0.N.y,
                          dB[1] + f0.tau * f0.N.z) <= 1e-5


def test_is_admissible_good_curve(cubic_curve):
    rep = is_admissible(cubic_curve, samples=64)
    assert rep.ok and rep.eval_ok and rep.frame_ok
    assert rep.violations == []


def test_is_admissible_log_domain():
    c = CurveSpec.from_strings("log(s)", "0", (-1.0, 1.0))
    rep = is_admissible(c, samples=33)
    assert not rep.ok and not rep.eval_ok
    assert any(v["kind"] == "domain" and v["s"] <= 0 for v in rep.violations)


def test_is_admissible_names_each_expressions_own_error():
    # f and g both fail at s = 0, and each violation carries the message of
    # its own expression; g overflows at s = 1 with no domain error
    c = CurveSpec.from_strings("log(s)", "1/s + exp(800*s)", (0.0, 1.0))
    rep = is_admissible(c, samples=5)
    assert [(v["s"], v["message"]) for v in rep.violations] == [
        (0.0, "log of non-positive value (offset 0)"),
        (0.0, "division by zero (offset 1)"), (1.0, "non-finite value")]


def test_is_admissible_flags_straight_line():
    c = CurveSpec.from_strings("0", "0", (0.0, 1.0))
    rep = is_admissible(c, samples=16)
    assert rep.eval_ok and not rep.frame_ok and not rep.ok
    assert any(v["kind"] == "straight" for v in rep.violations)
    assert rep.min_kappa == 0.0


def test_general_helix_profile():
    profile = CurveSpec.from_strings("0", "s^2/2 + 1", (0.0, 2.0))
    rep = detect_general_helix(profile, GVec3(0, 1, 0), samples=64, tol=1e-10)
    assert rep.is_helix
    assert rep.value == pytest.approx(-1.0, abs=1e-14)
    assert rep.spread <= 1e-14


def test_general_helix_rejects_cubic(cubic_curve):
    # <B, d> = 1/sqrt(1+s^2) varies over [0,2]: spread about 0.55
    rep = detect_general_helix(cubic_curve, GVec3(0, 0, 1), samples=64, tol=1e-8)
    assert not rep.is_helix
    assert rep.spread == pytest.approx(1 - 1 / math.sqrt(5), abs=1e-12)


def test_plane_curves_are_general_helices():
    c = CurveSpec.from_strings("sin(s)", "0", (0.2, 1.2))
    for d in (GVec3(0, 1, 0), GVec3(0, 0, 1), GVec3(0, 0.6, 0.8)):
        assert detect_general_helix(c, d, samples=32, tol=1e-10).is_helix


def test_slant_helix_profile():
    profile = CurveSpec.from_strings("0", "s^2/2 + 1", (0.0, 2.0))
    rep = detect_slant_helix(profile, GVec3(0, 0, 1), samples=64, tol=1e-10)
    assert rep.is_helix
    assert rep.value == pytest.approx(1.0, abs=1e-14)


def test_slant_helix_rejects_cubic(cubic_curve):
    rep = detect_slant_helix(cubic_curve, GVec3(0, 1, 0), samples=64, tol=1e-8)
    assert not rep.is_helix


def test_helix_axis_preconditions(cubic_curve):
    with pytest.raises(G3Error):
        detect_slant_helix(cubic_curve, GVec3(0, 0, 0))
    with pytest.raises(G3Error):
        detect_general_helix(cubic_curve, GVec3(1, 0, 0))  # not isotropic
    with pytest.raises(G3Error):
        detect_general_helix(cubic_curve, GVec3(0, 2, 0))  # not unit


def test_motion_invariance_of_curvature_torsion(cubic_curve):
    S = np.linspace(0.0, 2.0, 25)
    base = frenet_samples(cubic_curve, S)
    for m in random_motions(count=100, seed=999):
        moved = transform_curve(cubic_curve, m)
        got = frenet_samples(moved, S + m.a)
        for b, g in zip(base, got):
            assert abs(b.kappa - g.kappa) <= 1e-8
            assert abs(b.tau - g.tau) <= 1e-8
