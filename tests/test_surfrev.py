import math

import pytest

from g3geom import (
    G3Error,
    GVec3,
    ProfileSpec,
    SingularNormalError,
    StraightSegmentError,
    frame_normal_decomposition,
    profile_curve,
    revolve_euclidean,
    revolve_isotropic,
    sample_surface,
    verify_prop_4_1,
    verify_prop_4_2,
    verify_prop_4_3,
)
from g3geom.expr import eval_jet


def test_revolve_euclidean_cylinder():
    surf = revolve_euclidean(ProfileSpec.from_string("1", (0.0, 2.0)))
    s = sample_surface(surf, 0.7, 1.3)
    assert s.point.to_list() == pytest.approx(
        [0.7, math.sin(1.3), math.cos(1.3)], abs=1e-15)
    assert surf.domain[1] == (0.0, 2.0 * math.pi)


def test_revolve_euclidean_normal_is_profile_independent():
    # n = (0, sin t, cos t) regardless of g (g > 0)
    for g_src in ("1", "s^2/2 + 1", "2 + sin(s)"):
        surf = revolve_euclidean(ProfileSpec.from_string(g_src, (0.0, 2.0)))
        for s, t in ((0.1, 0.4), (1.0, 2.2), (1.9, 5.5)):
            n = sample_surface(surf, s, t).n
            assert n.y == pytest.approx(math.sin(t), abs=1e-12)
            assert n.z == pytest.approx(math.cos(t), abs=1e-12)


def test_revolve_euclidean_requires_positive_profile():
    with pytest.raises(G3Error):
        revolve_euclidean(ProfileSpec.from_string("s", (-1.0, 1.0)))


def test_revolve_euclidean_rejects_a_nan_profile():
    # nan <= 0.0 is False, so a profile that is NaN on the domain once built
    # (a NaN domain is rejected by ProfileSpec itself: see
    # test_scalar_batch.py::test_spec_domains_are_finite_intervals)
    with pytest.raises(G3Error, match=r"^euclidean revolution needs g > 0; g\(.*\) = nan"):
        revolve_euclidean(ProfileSpec.from_string("0*exp(1000*s) + 1", (0.0, 1.0)))


def test_revolve_euclidean_checks_the_values_of_g():
    # the check evaluates g alone, with no domain checks: a g that is -inf
    # or NaN at a sample is rejected by its value, and sqrt(s) at s = 0,
    # which has no derivative there, still revolves
    for src, value in (("log(s) + 2", "-inf"), ("sqrt(s - 0.5) + 1", "nan")):
        with pytest.raises(G3Error, match=rf"^euclidean revolution needs g > 0; "
                                          rf"g\(0\) = {value}$"):
            revolve_euclidean(ProfileSpec.from_string(src, (0.0, 1.0)))
    with pytest.raises(G3Error, match=r"^euclidean revolution needs g > 0; g\(0\.714286\) = inf$"):
        revolve_euclidean(ProfileSpec.from_string("exp(1000*s) + 1", (0.0, 1.0)))
    surf = revolve_euclidean(ProfileSpec.from_string("sqrt(s) + 1", (0.0, 1.0)))
    assert sample_surface(surf, 0.25, 0.0).point.z == 1.5


def test_revolve_isotropic_point_and_normal():
    profile = ProfileSpec.from_string("s^2/2 + 1", (0.0, 3.0), c=2.0)
    surf = revolve_isotropic(profile)
    c = 2.0
    for s, t in ((0.5, -1.0), (1.5, 0.3), (2.5, 1.9)):
        smp = sample_surface(surf, s, t)
        assert smp.point.to_list() == pytest.approx(
            [s + c * t, s * t + c * t * t / 2, s * s / 2 + 1], abs=1e-12)
        gp = s  # g' of s^2/2 + 1
        w = math.hypot(gp * c, s)
        assert smp.n.y == pytest.approx(gp * c / w, abs=1e-12)
        assert smp.n.z == pytest.approx(s / w, abs=1e-12)


def test_revolve_isotropic_clamps_domain_and_checks_c():
    profile = ProfileSpec.from_string("s^2/2", (0.0, 2.0))
    surf = revolve_isotropic(profile)
    assert surf.domain[0][0] == pytest.approx(1e-3)
    with pytest.raises(G3Error):
        revolve_isotropic(ProfileSpec.from_string("s^2/2", (0.0, 1.0), c=-1.0))
    with pytest.raises(G3Error):
        revolve_isotropic(ProfileSpec.from_string("s^2/2", (-3.0, -1.0)))


def test_revolve_isotropic_flat_profile_normal():
    # g' = 0: the normal is (0, 0, 1) for s > 0, singular at s = 0
    profile = ProfileSpec.from_string("1", (0.0, 2.0))
    surf = revolve_isotropic(profile)
    n = sample_surface(surf, 1.3, 0.7).n
    assert n.to_list() == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
    with pytest.raises(SingularNormalError):
        sample_surface(surf, 0.0, 0.0)


def test_frame_decomposition_euclidean():
    profile = ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))
    aN, aB = frame_normal_decomposition(profile, "euclidean", 1.0, math.pi / 2)
    assert (aN, aB) == pytest.approx((0.0, -1.0), abs=1e-12)   # n = -B
    aN, aB = frame_normal_decomposition(profile, "euclidean", 1.0, 0.0)
    assert (aN, aB) == pytest.approx((1.0, 0.0), abs=1e-12)    # n = N
    for t in (0.3, 2.0, 4.1):
        aN, aB = frame_normal_decomposition(profile, "euclidean", 0.5, t)
        assert (aN, aB) == pytest.approx((math.cos(t), -math.sin(t)), abs=1e-12)
        assert aN * aN + aB * aB == pytest.approx(1.0, abs=1e-12)


def test_frame_decomposition_isotropic():
    profile = ProfileSpec.from_string("s^2/(2*c0)", (1e-3, 3.0), c=1.5,
                                      parameters={"c0": 1.5})
    for s in (0.5, 1.0, 2.0):
        aN, aB = frame_normal_decomposition(profile, "isotropic", s, 0.8)
        assert (aN, aB) == pytest.approx(
            (1 / math.sqrt(2), -1 / math.sqrt(2)), abs=1e-12)
    gp_c = lambda s: s  # g' c = s for the quadratic profile
    profile2 = ProfileSpec.from_string("s^2/2 + s", (0.5, 3.0), c=1.0)
    for s in (0.6, 1.2):
        aN, aB = frame_normal_decomposition(profile2, "isotropic", s, 0.0)
        w = math.hypot(s + 1.0, s)
        assert aN == pytest.approx(s / w, abs=1e-12)
        assert aB == pytest.approx(-(s + 1.0) / w, abs=1e-12)


def test_frame_decomposition_rejects_straight_profile():
    with pytest.raises(StraightSegmentError):
        frame_normal_decomposition(ProfileSpec.from_string("1", (0.0, 1.0)),
                                   "euclidean", 0.5, 0.0)
    with pytest.raises(ValueError):
        frame_normal_decomposition(ProfileSpec.from_string("s^2/2", (0, 1)),
                                   "sideways", 0.5, 0.0)


def test_prop_4_1_on_helix_profile():
    rep = verify_prop_4_1(ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0)),
                          GVec3(0, 1, 0), tol=1e-9)
    assert rep.hypothesis_met and rep.conclusion_verified
    assert rep.details["field_spread_0"] <= 1e-9
    assert rep.details["field_spread_1"] <= 1e-9
    # n(s, pi/2) = -B = (0,1,0), so the field equals <d, (0,1,0)> = 1
    assert rep.details["field_value_0"] == pytest.approx(1.0, abs=1e-12)


def test_prop_4_2_on_helix_profile():
    rep = verify_prop_4_2(ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0)),
                          GVec3(0, 0, 1), tol=1e-9)
    assert rep.hypothesis_met and rep.conclusion_verified
    assert rep.details["field_value_0"] == pytest.approx(1.0, abs=1e-12)
    assert rep.details["field_value_1"] == pytest.approx(-1.0, abs=1e-12)


def test_prop_4_1_gate_rejects_non_helix():
    # g'' = s changes sign: <B, d> flips, so the helix hypothesis fails
    profile = ProfileSpec.from_string("s^3/6 + 2", (-1.0, 1.0))
    rep = verify_prop_4_1(profile, GVec3(0, 1, 0), tol=1e-8)
    assert not rep.hypothesis_met
    assert rep.conclusion_verified is None
    assert "not a general helix" in rep.details["reason"]


def test_prop_4_3_branches():
    rep = verify_prop_4_3(1.0, 0.0, 1.0, "i")
    assert rep.conclusion_verified
    assert rep.details["value"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert rep.details["spread"] <= 1e-12
    assert rep.details["corollary_4_4"]["general_helix"]
    assert rep.details["corollary_4_4"]["slant_helix"]

    rep = verify_prop_4_3(2.0, 5.0, 1.0, "ii")
    assert rep.conclusion_verified
    assert rep.details["value"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    rep = verify_prop_4_3(1.0, 0.0, 2.0, "i")
    assert rep.conclusion_verified
    assert rep.details["value"] == pytest.approx(math.sqrt(2), abs=1e-12)

    with pytest.raises(ValueError):
        verify_prop_4_3(1.0, 0.0, 0.0, "i")
    with pytest.raises(ValueError):
        verify_prop_4_3(1.0, 0.0, 1.0, "iii")


def test_profile_curve_form():
    profile = ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))
    c = profile_curve(profile)
    assert float(eval_jet(c.f, 1.3, 0).value) == 0.0
    assert float(eval_jet(c.g, 1.0, 0).value) == 1.5
    assert c.domain == (0.0, 2.0)
