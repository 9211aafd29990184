import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g3geom import (
    AngleKind,
    G3Error,
    GalileanMotion,
    GVec3,
    angle,
    apply_motion,
    gcross,
    gdot,
    gnorm,
    normalize_axis,
)

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
vectors = st.builds(GVec3, finite, finite, finite)


def test_gdot_examples():
    assert gdot(GVec3(1, 2, 3), GVec3(2, 0, 1)) == 2.0
    assert gdot(GVec3(0, 3, 4), GVec3(0, 1, 1)) == 7.0
    assert gdot(GVec3(0, 1, 0), GVec3(1, 5, 5)) == 0.0


def test_gnorm_examples():
    assert gnorm(GVec3(2, 7, 9)) == 2.0
    assert gnorm(GVec3(0, 3, 4)) == 5.0
    assert gnorm(GVec3(0, 0, 0)) == 0.0


def test_gcross_examples():
    assert gcross(GVec3(1, 0, 0), GVec3(0, 1, 0)) == GVec3(0, 0, 1)
    assert gcross(GVec3(1, 0, 0), GVec3(0, 0, 1)) == GVec3(0, -1, 0)


@given(finite, finite, finite, finite)
def test_gcross_of_isotropic_pair_vanishes(a, b, c, d):
    out = gcross(GVec3(0, a, b), GVec3(0, c, d))
    assert out == GVec3(0, 0, 0)


@given(vectors, vectors)
def test_gdot_symmetric(x, y):
    assert gdot(x, y) == gdot(y, x)


@given(vectors, vectors)
def test_gcross_output_isotropic_and_orthogonal(x, y):
    out = gcross(x, y)
    assert out.x == 0.0
    assert gdot(out, x) == pytest.approx(0.0, abs=1e-9 * (1 + gnorm(x)) ** 3)
    assert gdot(out, y) == pytest.approx(0.0, abs=1e-9 * (1 + gnorm(y)) ** 3)


def test_angle_examples():
    m = angle(GVec3(1, 0, 0), GVec3(1, 3, 4))
    assert m.kind is AngleKind.BETWEEN_NON_ISOTROPIC
    assert m.value == 5.0

    m = angle(GVec3(1, 2, 0), GVec3(0, 1, 0))
    assert m.kind is AngleKind.NON_ISOTROPIC_VS_ISOTROPIC
    assert m.value == 2.0

    m = angle(GVec3(0, 1, 0), GVec3(0, 0, 1))
    assert m.kind is AngleKind.BETWEEN_ISOTROPIC
    assert m.value == pytest.approx(math.pi / 2)


def test_angle_preconditions():
    with pytest.raises(G3Error):
        angle(GVec3(2, 0, 0), GVec3(1, 1, 1))  # non-unit for the spread measure
    with pytest.raises(G3Error):
        angle(GVec3(1, 2, 0), GVec3(0, 0, 0))  # zero isotropic vector
    with pytest.raises(G3Error):
        angle(GVec3(0, 0, 0), GVec3(0, 1, 0))


def test_normalize_axis():
    assert normalize_axis(GVec3(0, 3, 4)) == GVec3(0, 0.6, 0.8)
    assert normalize_axis(GVec3(2, 2, 0)) == GVec3(1, 1, 0)
    with pytest.raises(G3Error):
        normalize_axis(GVec3(0, 0, 0))


def test_normalize_axis_rejects_non_finite_components():
    # (0, nan, 1) normalized to a NaN axis and (0, inf, 1) to (0, nan, 0)
    for d in (GVec3(0, math.nan, 1), GVec3(0, math.inf, 1), GVec3(0, 1, -math.inf),
              GVec3(math.nan, 1, 0), GVec3(math.inf, 1, 0), GVec3(2, math.nan, 0)):
        with pytest.raises(G3Error, match="non-finite component"):
            normalize_axis(d)


def test_vector_components_must_be_real_numbers():
    # ("a", 1, 2) was built, and gdot on it raised TypeError
    for parts in (("a", 1, 2), (0, None, 1), (0, 1, [2.0]), (0, 1j, 0)):
        with pytest.raises(ValueError, match="must be a real number"):
            GVec3(*parts)
    v = GVec3(np.float64(0.5), np.int64(1), 2)
    assert gdot(v, v) == 0.25


def test_apply_motion_examples():
    ident = GalileanMotion.identity()
    p = GVec3(0.3, -1.2, 2.5)
    assert apply_motion(ident, p) == p

    rot = GalileanMotion(phi=math.pi / 2)
    out = apply_motion(rot, GVec3(0, 1, 0))
    assert out.x == 0.0
    assert out.y == pytest.approx(0.0, abs=1e-15)
    assert out.z == pytest.approx(-1.0)

    shift = GalileanMotion(a=5.0)
    assert apply_motion(shift, GVec3(1, 1, 1)) == GVec3(6, 1, 1)


def _random_motions(rng, n):
    return [GalileanMotion(*(float(v) for v in rng.uniform(-2, 2, size=5)),
                           phi=float(rng.uniform(-math.pi, math.pi)))
            for _ in range(n)]


def test_motions_are_isometries_on_directions():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        m = _random_motions(rng, 1)[0]
        kind = rng.integers(0, 3)
        if kind == 0:
            u = GVec3(0.0, *(float(v) for v in rng.uniform(-3, 3, size=2)))
        else:
            u = GVec3(*(float(v) for v in rng.uniform(-3, 3, size=3)))
        v = GVec3(0.0 if rng.random() < 0.5 else float(rng.uniform(-3, 3)),
                  float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        mu = apply_motion(m, u, as_direction=True)
        mv = apply_motion(m, v, as_direction=True)
        assert abs(gdot(mu, mv) - gdot(u, v)) <= 1e-12 * max(1.0, abs(gdot(u, v)))
        assert abs(gnorm(mu) - gnorm(u)) <= 1e-12 * max(1.0, gnorm(u))


def test_motion_composition():
    rng = np.random.default_rng(321)
    for _ in range(200):
        m1, m2, m3 = _random_motions(rng, 3)
        p = GVec3(*(float(v) for v in rng.uniform(-3, 3, size=3)))
        lhs = apply_motion(m1.compose(m2), p)
        rhs = apply_motion(m1, apply_motion(m2, p))
        for a, b in zip(lhs.to_list(), rhs.to_list()):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        assoc1 = (m1.compose(m2)).compose(m3)
        assoc2 = m1.compose(m2.compose(m3))
        q1, q2 = apply_motion(assoc1, p), apply_motion(assoc2, p)
        for a, b in zip(q1.to_list(), q2.to_list()):
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))
    ident = GalileanMotion.identity()
    m = _random_motions(rng, 1)[0]
    p = GVec3(1, 2, 3)
    assert apply_motion(ident.compose(m), p).to_list() == \
        pytest.approx(apply_motion(m, p).to_list(), abs=1e-12)
    assert apply_motion(m.compose(ident), p).to_list() == \
        pytest.approx(apply_motion(m, p).to_list(), abs=1e-12)


def test_vector_kind_tag():
    assert GVec3(0, 1, 2).kind == "isotropic"
    assert GVec3(1e-13, 1, 2).is_isotropic
    assert GVec3(1e-6, 1, 2).kind == "non-isotropic"


@settings(max_examples=50)
@given(vectors)
def test_vector_json_round_trip(v):
    assert GVec3.from_seq(v.to_list()) == v
