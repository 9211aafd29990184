import math

import numpy as np
import pytest

from g3geom import (
    AxisConstraintError,
    AxisUndefinedError,
    GVec3,
    InadmissibleTraceError,
    NotAsymptoticError,
    NotLineOfCurvatureError,
    SingularNormalError,
    SurfaceSpec,
    TheoremConfig,
    TraceSpec,
    axis_isotropic,
    axis_nonisotropic,
    classify_trace,
    darboux,
    darboux_samples,
    frenet_samples,
    induced_curve,
    sample_surface,
    verify_theorems,
)
from g3geom import surface as surface_module
from g3geom.surface import _axis_residual, _darboux_arrays
from g3geom.curve import _curve_arrays


def _parabolic_cylinder(sign):
    z = "u1^2/2" if sign > 0 else "-u1^2/2"
    return SurfaceSpec.from_strings("u1", "u1^2/2 + u2", z,
                                    ((0.0, 2.0), (-1.0, 1.0)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_plane(plane):
    s = sample_surface(plane, 0.4, 1.7)
    assert s.n.to_list() == [0.0, 0.0, 1.0]
    assert s.omega == 1.0
    assert (s.g1, s.g2) == (1.0, 0.0)
    assert (s.h11, s.h12, s.h22) == (0.0, 0.0, 1.0)
    assert s.point.to_list() == [0.4, 1.7, 0.0]


def test_sample_cylinder(cylinder):
    s = sample_surface(cylinder, 0.0, math.pi / 2)
    assert s.omega == pytest.approx(1.0, abs=1e-15)
    assert s.n.y == pytest.approx(1.0, abs=1e-15)
    assert s.n.z == pytest.approx(0.0, abs=1e-15)


def test_sample_singular_euclidean_plane():
    surf = SurfaceSpec.from_strings("0", "u1", "u2", ((0, 1), (0, 1)))
    with pytest.raises(SingularNormalError):
        sample_surface(surf, 0.5, 0.5)


# ---------------------------------------------------------------------------
# Darboux apparatus
# ---------------------------------------------------------------------------

def test_darboux_cylinder_helix(cylinder, helix_trace):
    for s in (0.0, 0.7, 1.9):
        d = darboux(cylinder, helix_trace, s)
        assert d.kg == pytest.approx(0.0, abs=1e-12)
        assert d.kn == pytest.approx(-1.0, abs=1e-12)
        assert d.tau_g == pytest.approx(-1.0, abs=1e-12)
        assert d.phi == pytest.approx(math.pi / 2, abs=1e-12)


def test_darboux_meridian_of_revolution_surface():
    # profile (s, 0, s^2/2 + 1) revolved; meridian t = t0 has
    # T' = g'' n, so kg = taug = 0 and kn = g'' = 1
    t0 = 0.8
    surf = SurfaceSpec.from_strings(
        "u1", "(u1^2/2 + 1)*sin(u2)", "(u1^2/2 + 1)*cos(u2)",
        ((0.0, 2.0), (0.0, 2 * math.pi)))
    trace = TraceSpec.from_strings("s", "0.8", (0.0, 2.0))
    for s in (0.1, 1.0, 1.7):
        d = darboux(surf, trace, s)
        assert d.kg == pytest.approx(0.0, abs=1e-12)
        assert d.tau_g == pytest.approx(0.0, abs=1e-12)
        assert d.kn == pytest.approx(1.0, abs=1e-12)
        assert d.n.y == pytest.approx(math.sin(t0), abs=1e-12)
        assert d.n.z == pytest.approx(math.cos(t0), abs=1e-12)


def test_darboux_plane_parabola(plane):
    trace = TraceSpec.from_strings("s", "s^2/2", (0.0, 2.0))
    d = darboux(plane, trace, 1.3)
    assert d.kg == pytest.approx(1.0, abs=1e-12)
    assert d.kn == pytest.approx(0.0, abs=1e-12)
    assert d.tau_g == pytest.approx(0.0, abs=1e-12)


def test_inadmissible_trace_rejected(plane):
    trace = TraceSpec.from_strings("2*s", "0", (0.0, 1.0))
    with pytest.raises(InadmissibleTraceError):
        darboux(plane, trace, 0.5)


def test_darboux_frame_orthonormal(corpus):
    surface, trace = corpus[0]
    for d in darboux_samples(surface, trace, trace.samples(16)):
        assert math.hypot(d.Q.y, d.Q.z) == pytest.approx(1.0, abs=1e-12)
        assert math.hypot(d.n.y, d.n.z) == pytest.approx(1.0, abs=1e-12)
        assert d.Q.y * d.n.y + d.Q.z * d.n.z == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_cylinder_helix(cylinder, helix_trace):
    c = classify_trace(cylinder, helix_trace)
    assert c.geodesic and not c.asymptotic and not c.line_of_curvature


def test_classify_meridian():
    surf = SurfaceSpec.from_strings(
        "u1", "(u1^2/2 + 1)*sin(u2)", "(u1^2/2 + 1)*cos(u2)",
        ((0.0, 2.0), (0.0, 2 * math.pi)))
    c = classify_trace(surf, TraceSpec.from_strings("s", "1.1", (0.0, 2.0)))
    assert c.geodesic and c.line_of_curvature and not c.asymptotic


def test_classify_plane_parabola(plane):
    c = classify_trace(plane, TraceSpec.from_strings("s", "s^2/2", (0.0, 2.0)))
    assert c.asymptotic and c.line_of_curvature and not c.geodesic


# ---------------------------------------------------------------------------
# frame identities on the randomized corpus
# ---------------------------------------------------------------------------

def test_b5_curvature_identity(corpus):
    for surface, trace in corpus:
        S = trace.samples(50)
        a = _darboux_arrays(surface, trace, S)
        fr = _curve_arrays(induced_curve(surface, trace), S)
        assert float(np.abs(fr["kappa"] ** 2 - (a["kg"] ** 2 + a["kn"] ** 2)).max()) <= 1e-9


def test_b5_torsion_identity(corpus):
    h = 1e-5
    for surface, trace in corpus:
        S = trace.samples(30)
        S = S[(S > trace.domain[0] + 2 * h) & (S < trace.domain[1] - 2 * h)]
        a0 = _darboux_arrays(surface, trace, S)
        ap = _darboux_arrays(surface, trace, S + h)
        am = _darboux_arrays(surface, trace, S - h)
        kgp = (ap["kg"] - am["kg"]) / (2 * h)
        knp = (ap["kn"] - am["kn"]) / (2 * h)
        k2 = a0["kg"] ** 2 + a0["kn"] ** 2
        tau_from_darboux = a0["taug"] + (a0["kg"] * knp - kgp * a0["kn"]) / k2
        fr = _curve_arrays(induced_curve(surface, trace), S)
        mask = fr["kappa"] > 1e-6
        assert float(np.abs(fr["tau"] - tau_from_darboux)[mask].max()) <= 1e-6


def test_b6_frame_transform(corpus):
    for surface, trace in corpus:
        S = trace.samples(40)
        a = _darboux_arrays(surface, trace, S)
        fr = _curve_arrays(induced_curve(surface, trace), S)
        cp, sp = np.cos(a["phi"]), np.sin(a["phi"])
        assert np.allclose(a["Qy"], cp * fr["Ny"] + sp * fr["By"], atol=1e-9)
        assert np.allclose(a["Qz"], cp * fr["Nz"] + sp * fr["Bz"], atol=1e-9)
        assert np.allclose(a["ny"], -sp * fr["Ny"] + cp * fr["By"], atol=1e-9)
        assert np.allclose(a["nz"], -sp * fr["Nz"] + cp * fr["Bz"], atol=1e-9)


def test_b4_ode_finite_differences(corpus):
    h = 1e-5
    for surface, trace in corpus[:8]:
        S = trace.samples(25)
        S = S[(S > trace.domain[0] + 2 * h) & (S < trace.domain[1] - 2 * h)]
        a0 = _darboux_arrays(surface, trace, S)
        ap = _darboux_arrays(surface, trace, S + h)
        am = _darboux_arrays(surface, trace, S - h)

        def fd(key):
            return (ap[key] - am[key]) / (2 * h)

        assert np.all(np.hypot(fd("Ty") - (a0["kg"] * a0["Qy"] + a0["kn"] * a0["ny"]),
                               fd("Tz") - (a0["kg"] * a0["Qz"] + a0["kn"] * a0["nz"]))
                      <= 1e-5)
        assert np.all(np.hypot(fd("Qy") - a0["taug"] * a0["ny"],
                               fd("Qz") - a0["taug"] * a0["nz"]) <= 1e-5)
        assert np.all(np.hypot(fd("ny") + a0["taug"] * a0["Qy"],
                               fd("nz") + a0["taug"] * a0["Qz"]) <= 1e-5)


# ---------------------------------------------------------------------------
# axis reconstruction
# ---------------------------------------------------------------------------

def test_axis_isotropic_trivial_branch(plane):
    trace = TraceSpec.from_strings("s", "s^2/2", (0.0, 2.0))
    rep = axis_isotropic(plane, trace, 0.0)
    assert rep.branch == "C5-trivial"
    assert rep.status == "ok"
    assert rep.d.to_list() == [0.0, 0.0, 1.0]
    assert rep.residual <= 1e-12


def test_axis_isotropic_not_line_of_curvature(cylinder, helix_trace):
    with pytest.raises(NotLineOfCurvatureError):
        axis_isotropic(cylinder, helix_trace, 0.3)


def test_axis_isotropic_constraint_violated(plane):
    trace = TraceSpec.from_strings("s", "s^2/2", (0.0, 2.0))
    with pytest.raises(AxisConstraintError):
        axis_isotropic(plane, trace, math.pi / 4)


def test_axis_isotropic_c6_branches():
    # traces with kn/kg = +-1 and tau_g = 0: axis exists exactly at theta=pi/4
    for sign, expected in ((+1.0, [0.0, -math.sqrt(0.5), math.sqrt(0.5)]),
                           (-1.0, [0.0, math.sqrt(0.5), math.sqrt(0.5)])):
        rep = axis_isotropic(_parabolic_cylinder(sign),
                             TraceSpec.from_strings("s", "0", (0.0, 2.0)),
                             math.pi / 4)
        assert rep.branch == "C6-line-of-curvature"
        assert rep.sign == (1 if sign > 0 else -1)
        assert rep.residual <= 1e-10
        assert rep.d.to_list() == pytest.approx(expected, abs=1e-12)
        # reconstructed axis is unit isotropic
        assert math.hypot(rep.d.y, rep.d.z) == pytest.approx(1.0, abs=1e-12)


def test_axis_isotropic_straight_trace_is_undefined(plane):
    # k_g = k_n = 0 everywhere: k_n/k_g is 0/0, so no axis, not a NaN one
    trace = TraceSpec.from_strings("s", "2*s", (0.0, 2.0))
    with pytest.raises(AxisUndefinedError, match=r"k_g vanishes at s = 0\b"):
        axis_isotropic(plane, trace, 0.3)


def test_axis_residual_rejects_nan():
    S = np.linspace(0.0, 1.0, 5)
    with pytest.raises(AxisConstraintError, match="residual nan"):
        _axis_residual(S, np.full(5, np.nan), np.zeros(5))


def test_axis_reconstruction_needs_two_samples(plane):
    trace = TraceSpec.from_strings("s", "2*s", (0.0, 2.0))
    for reconstruct, angle in ((axis_isotropic, 0.0), (axis_nonisotropic, 0.5)):
        with pytest.raises(ValueError, match="samples must be >= 2"):
            reconstruct(plane, trace, angle, samples=1)


def test_axis_nonisotropic_straight_trace(plane):
    trace = TraceSpec.from_strings("s", "2*s", (0.0, 2.0))
    rep = axis_nonisotropic(plane, trace, 0.5)
    assert rep.branch == "C13-asymptotic"
    assert rep.d.to_list() == pytest.approx([1.0, 2.0, 0.5], abs=1e-12)
    assert rep.residual <= 1e-12


def test_axis_nonisotropic_constancy_violated(plane):
    trace = TraceSpec.from_strings("s", "s^2/2", (0.0, 2.0))
    with pytest.raises(AxisConstraintError):
        axis_nonisotropic(plane, trace, 1.0)


def test_axis_nonisotropic_not_asymptotic(cylinder, helix_trace):
    with pytest.raises(NotAsymptoticError):
        axis_nonisotropic(cylinder, helix_trace, 0.7)


def test_axis_nonisotropic_degenerate_line_of_curvature():
    # line of curvature that is not asymptotic: kappa = 0 is forced, so the
    # report flags the degenerate branch instead of returning an axis
    rep = axis_nonisotropic(_parabolic_cylinder(+1.0),
                            TraceSpec.from_strings("s", "0", (0.0, 2.0)), 0.4)
    assert rep.branch == "C14-degenerate"
    assert rep.status == "degenerate"
    assert rep.d is None and rep.residual is None
    assert "straight line" in rep.note


# ---------------------------------------------------------------------------
# theorem machinery
# ---------------------------------------------------------------------------

def test_theorems_plane_straight_geodesic(plane):
    trace = TraceSpec.from_strings("s", "2*s", (0.0, 2.0))
    reports = verify_theorems(plane, trace, TheoremConfig(theta=0.0))
    r = reports["thm_3_1_i"]
    assert r.hypothesis_met and r.conclusion_verified
    # non-matching hypotheses stay unverified rather than failing
    assert not reports["thm_3_2"].hypothesis_met
    assert reports["thm_3_2"].conclusion_verified is None


def test_theorems_asymptotic_parabola(plane):
    trace = TraceSpec.from_strings("s", "s^2/2", (0.0, 2.0))
    reports = verify_theorems(plane, trace, TheoremConfig(theta=0.0))
    r = reports["thm_3_1_ii"]
    assert r.hypothesis_met and r.conclusion_verified
    assert r.details["max_abs_tau"] <= 1e-12


def test_theorem_3_4_silhouette_with_Q_axis(plane):
    # spec'd scenario: straight trace with kg = taug = 0, axis parallel to Q
    trace = TraceSpec.from_strings("s", "0.8*s", (0.0, 2.0))
    d = darboux(plane, trace, 0.0)
    axis = GVec3(0.0, d.Q.y, d.Q.z)
    reports = verify_theorems(plane, trace, TheoremConfig(axis=axis))
    r = reports["thm_3_4"]
    assert r.hypothesis_met and r.conclusion_verified
    assert r.details["max_abs_kg"] <= 1e-12
    assert r.details["max_abs_taug"] <= 1e-12
    # and the curved variant: parabola trace, Q is still (0,1,0)
    trace2 = TraceSpec.from_strings("s", "s^2/2", (0.0, 2.0))
    reports2 = verify_theorems(plane, trace2,
                               TheoremConfig(axis=GVec3(0.0, 1.0, 0.0)))
    r2 = reports2["thm_3_4"]
    assert r2.hypothesis_met and r2.conclusion_verified
    assert r2.details["max_abs_tau"] <= 1e-12


def test_theorem_3_3_forces_quarter_angle():
    reports = verify_theorems(_parabolic_cylinder(+1.0),
                              TraceSpec.from_strings("s", "0", (0.0, 2.0)),
                              TheoremConfig(theta=math.pi / 4))
    r = reports["thm_3_3"]
    assert r.hypothesis_met and r.conclusion_verified
    assert r.details["max_theta_deviation"] <= 1e-12


def test_theorem_3_2_minus_branch():
    reports = verify_theorems(_parabolic_cylinder(-1.0),
                              TraceSpec.from_strings("s", "0", (0.0, 2.0)),
                              TheoremConfig(theta=math.pi / 4))
    r = reports["thm_3_2"]
    assert r.hypothesis_met and r.conclusion_verified
    assert r.details["max_abs_N_dot_d"] <= 1e-12


def test_theorems_without_axis_report_reason(plane):
    trace = TraceSpec.from_strings("s", "2*s", (0.0, 2.0))
    reports = verify_theorems(plane, trace, TheoremConfig())
    assert all(not r.hypothesis_met for r in reports.values())
    assert "no axis" in reports["thm_3_1_i"].details["reason"]


def _count_darboux_calls(monkeypatch):
    """The sample counts of every `_darboux_arrays` call from now on."""
    sizes = []
    darboux_arrays = surface_module._darboux_arrays

    def counted(surface, trace, S):
        sizes.append(S.size)
        return darboux_arrays(surface, trace, S)

    monkeypatch.setattr(surface_module, "_darboux_arrays", counted)
    return sizes


def test_theorems_reconstruct_the_axis_from_the_samples_they_check(monkeypatch):
    sizes = _count_darboux_calls(monkeypatch)
    reports = verify_theorems(_parabolic_cylinder(-1.0),
                              TraceSpec.from_strings("s", "0", (0.0, 2.0)),
                              TheoremConfig(theta=math.pi / 4))
    assert sizes == [64]
    assert reports["thm_3_2"].hypothesis_met
    assert reports["thm_3_2"].details["axis_branch"] == "C6-line-of-curvature"


def test_axis_isotropic_checks_theta_before_sampling(monkeypatch, plane):
    sizes = _count_darboux_calls(monkeypatch)
    trace = TraceSpec.from_strings("s", "2*s", (0.0, 2.0))
    for theta in (-0.1, 2.0, float("nan")):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
            axis_isotropic(plane, trace, theta, samples=1)
    assert sizes == []
    report = verify_theorems(plane, trace, TheoremConfig(theta=2.0))["thm_3_1_i"]
    assert report.details == {"reason": "axis_isotropic failed: theta must lie in [0, pi/2]"}


def test_induced_curve_matches_trace(cylinder, helix_trace):
    c = induced_curve(cylinder, helix_trace)
    for f, s in zip(frenet_samples(c, np.linspace(0.1, 1.9, 7)),
                    np.linspace(0.1, 1.9, 7)):
        assert f.T.y == pytest.approx(math.cos(s), abs=1e-12)
        assert f.T.z == pytest.approx(-math.sin(s), abs=1e-12)
