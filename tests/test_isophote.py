import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extract_golden import CASES as GOLDEN_CASES
from g3geom import (
    G3Error,
    GVec3,
    IsophoteQuery,
    ProfileSpec,
    SingularNormalError,
    SurfaceSpec,
    apply_motion,
    extract,
    field,
    field_grid,
    normalize_axis,
    revolve_euclidean,
    revolve_isotropic,
    sample_surface,
    silhouette,
    transform_surface,
)
from g3geom import expr, isophote
from g3geom.isophote import MAX_GRID_POINTS, crossing_cells
from g3geom.surface import _values
from g3geom.verify import random_motions, revolution_isophotes

Z_AXIS = GVec3(0.0, 0.0, 1.0)
Y_AXIS = GVec3(0.0, 1.0, 0.0)


def _bisect_scalar(f, lo, hi, tol=1e-12):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

def test_field_on_euclidean_revolution_is_cos_t():
    profile = ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))
    surf = revolve_euclidean(profile)
    for s, t in ((0.2, 0.0), (1.0, 1.1), (1.7, 4.4)):
        assert field(surf, Z_AXIS, s, t) == pytest.approx(math.cos(t), abs=1e-12)


def test_field_constant_on_quadratic_isotropic_revolution():
    profile = ProfileSpec.from_string("s^2/2", (1e-3, 3.0))
    surf = revolve_isotropic(profile)
    for s, t in ((0.01, -1.0), (1.0, 0.0), (2.5, 1.7)):
        assert field(surf, Z_AXIS, s, t) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_field_with_axis_equal_to_normal(cylinder):
    n = sample_surface(cylinder, 0.3, 1.2).n
    assert field(cylinder, n, 0.3, 1.2) == pytest.approx(1.0, abs=1e-12)


def test_field_requires_unit_axis(cylinder):
    with pytest.raises(G3Error):
        field(cylinder, GVec3(0, 0, 2), 0.1, 0.1)


def test_field_grid_nan_at_singular_points():
    # x = 0 plane: omega vanishes identically
    surf = SurfaceSpec.from_strings("0", "u1", "u2", ((0, 1), (0, 1)))
    vals = field_grid(surf, Z_AXIS, np.array([0.2, 0.5]), np.array([0.2, 0.5]))
    assert np.all(np.isnan(vals))


def _grid_surfaces(cylinder):
    wavy = SurfaceSpec.from_strings("u1", "u2", "0.8*sin(3*u1)*cos(3*u2)",
                                    ((0.0, 2 * math.pi), (0.0, 2 * math.pi)))
    rev = revolve_euclidean(ProfileSpec.from_string("1.5 + 0.2*s^2 + 0.1*sin(2*s)",
                                                    (0.1, 2.0)))
    return [(wavy, normalize_axis(GVec3(0.0, 0.2, 1.0))), (cylinder, Z_AXIS),
            (rev, normalize_axis(GVec3(0.0, 0.3, 1.0)))]


def test_field_grid_separable_operands_equal_meshgrid(cylinder):
    for surf, axis in _grid_surfaces(cylinder):
        U1, U2 = surf.grid(41, 33)
        M1, M2 = np.meshgrid(U1, U2, indexing="ij")
        sep = field_grid(surf, axis, U1[:, None], U2[None, :])
        full = field_grid(surf, axis, M1, M2)
        assert sep.shape == (41, 33)
        assert sep.tobytes() == full.tobytes()


def _perfbench_family(name):
    """A surface of one of perfbench's isophote families (perfbench/gen.py)."""
    if name == "wavy":
        return SurfaceSpec.from_strings("u1", "u2", "amp*sin(a*u1)*cos(b*u2)",
                                        ((0.0, 6.0), (0.0, 6.0)),
                                        {"amp": 1.0, "a": 3.0, "b": 2.8})
    if name == "cylinder":
        return SurfaceSpec.from_strings("u1", "r*sin(u2)", "r*cos(u2)",
                                        ((0.0, 2.0), (0.0, 6.0)), {"r": 0.8})
    if name == "quadratic":
        return revolve_isotropic(ProfileSpec.from_string(
            "s^2/(2*cc) + AA", (0.001, 5.0), c=1.2, parameters={"cc": 1.2, "AA": 0.3}))
    return revolve_euclidean(ProfileSpec.from_string(
        "p0 + p1*s^2 + p2*sin(w*s)", (0.5, 2.0),
        parameters={"p0": 1.5, "p1": 0.2, "p2": 0.1, "w": 2.0}))


# expr.TapeOps (operations, full grid, peak live) of the values tape and
# the field tape that extract runs
# y and z of a revolution each compute g: every tree reads its own
# parameters, so what they share of g is only what reads none
_TAPE_OPS = {"wavy": ((6, 1, 3), (13, 6, 5)), "cylinder": ((4, 0, 4), (11, 0, 6)),
             "revolution": ((17, 2, 6), (24, 8, 6)), "quadratic": ((13, 3, 6), (19, 6, 7))}


@pytest.mark.parametrize("family, full_grid", [("wavy", 6), ("cylinder", 0),
                                                ("revolution", 8), ("quadratic", 6)])
def test_field_tape_full_grid_operations(family, full_grid):
    # the field tape computes only the slots the field reads: a dead
    # partial, normal part or seed zero would add full-grid operations.
    # With x = u1 the normal parts are A = -z_u2 and B = y_u2.  Wavy: z_u2
    # (a column times a row), A, omega, A d_y, the sum with d_z (B is the
    # constant 1) and the quotient.  Revolution: y_u2 and z_u2 (g(u1)
    # times a row each), A, omega, two axis products, sum and quotient.
    # The cylinder's field is a row of u2.  The values tape (the lift and
    # tessellate) is pinned as well, so a change to any tape extract runs
    # shows here.
    surface = _perfbench_family(family)
    asts = (surface.x, surface.y, surface.z)
    values, shading = _TAPE_OPS[family]
    assert expr._compiled(asts, False, _values, 0).ops == values
    tape = expr._compiled(asts, False, isophote._shading, 2)
    assert tape.ops == shading and tape.ops.full_grid == full_grid
    U1, U2 = surface.grid(9, 7)
    F = field_grid(surface, normalize_axis(GVec3(0.0, 0.3, 1.0)), U1[:, None], U2[None, :])
    assert np.isfinite(F).all()


def test_normal_tape_runs_nothing_on_the_full_grid():
    # the revolution's closed-form field: w of u1, the field of u2
    surface = _perfbench_family("revolution")
    tape = expr._compiled(surface.normal, False, isophote._normal_shading, 2)
    assert tape.ops.full_grid == 0


def test_field_grid_returns_a_new_full_array(cylinder):
    # the cylinder's field depends on u2 alone, the others on both
    for surf, axis in _grid_surfaces(cylinder):
        U1, U2 = surf.grid(17, 9)
        F = field_grid(surf, axis, U1[:, None], U2[None, :])
        assert F.shape == (17, 9) and F.dtype == np.float64
        assert F.flags.writeable and F.flags.c_contiguous and F.flags.owndata
    plane = SurfaceSpec.from_strings("u1", "u2", "0", ((0.0, 1.0), (0.0, 1.0)))
    F = field_grid(plane, Y_AXIS, np.zeros(4), np.zeros(1))
    assert F.shape == (4,) and F.flags.writeable and np.all(F == 0.0)


@pytest.mark.parametrize("family, bound", [("wavy", 14), ("cylinder", 2), ("revolution", 14)])
def test_field_grid_peak_allocation(cylinder, family, bound):
    """Peak traced allocation of a 257^2 field, in multiples of its bytes:
    x, y and z carry first partials only, on their operands' shapes."""
    assert _field_grid_peak(cylinder, family, 257) <= bound


def _field_grid_peak(cylinder, family: str, n: int) -> float:
    """Peak traced allocation of a warm n^2 field_grid call, in multiples
    of its output's bytes."""
    surf, axis = dict(zip(("wavy", "cylinder", "revolution"), _grid_surfaces(cylinder)))[family]
    U1, U2 = surf.grid(n, n)
    G1, G2 = U1[:, None], U2[None, :]
    field_grid(surf, axis, G1, G2)
    tracemalloc.start()
    try:
        field_grid(surf, axis, G1, G2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


def test_field_grid_and_extract_start_no_thread(cylinder, monkeypatch):
    def no_thread(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    wavy, axis = _grid_surfaces(cylinder)[0]
    U1, U2 = wavy.grid(725, 725)
    assert field_grid(wavy, axis, U1[:, None], U2[None, :]).shape == (725, 725)
    iso = extract(wavy, IsophoteQuery.raw_level(axis, 0.5, grid=(724, 724)))
    assert len(iso.closed) > 0 and iso.stats.failed_edges == 0


def _block_cases(cylinder):
    """(name, surface, axis, n1, n2): grids of more than one block whose
    row count is not a multiple of the block rows, rows of at least 2^15
    points, a field of u1 only and one with undefined points."""
    wavy, _, rev = (s for s, _ in _grid_surfaces(cylinder))
    ring = SurfaceSpec.from_strings("u2", "sin(u1)", "cos(u1)",
                                    ((0.0, 2 * math.pi), (0.0, 1.0)))
    holes = SurfaceSpec.from_strings(
        "u1", "u2", "sqrt(1.2 - u1^2 - u2^2) + 0.1*u1*u2", ((-1.0, 1.0), (-1.0, 1.0)))
    axis = normalize_axis(GVec3(0.0, 0.2, 1.0))
    return [("wavy", wavy, axis, 1801, 300), ("revolution", rev, axis, 1000, 333),
            ("long rows", wavy, axis, 21, (1 << 15) + 5),
            ("u1 only", ring, axis, 1801, 300), ("holes", holes, axis, 777, 777)]


@pytest.mark.parametrize("threads", [1, 2])
def test_blocked_field_equals_one_block(cylinder, monkeypatch, threads):
    # the grid's bytes do not depend on the CPU count the process reports
    monkeypatch.setattr(isophote, "worker_count", lambda: threads)
    seen = {}
    for name, surf, axis, n1, n2 in _block_cases(cylinder):
        U1, U2 = surf.grid(n1, n2)
        assert max(2, isophote.BLOCK_POINTS // n2) < n1, name
        # one call on the whole grid, as a grid of one block runs
        found = isophote._normal_field(surf, axis, U1[:, None], U2[None, :])
        whole = (found if found is not None
                 else isophote._shading_block(surf, axis, U1[:, None], U2[None, :]))[0]
        want = np.broadcast_to(whole, (n1, n2)).tobytes()
        F = field_grid(surf, axis, U1[:, None], U2[None, :])
        assert F.tobytes() == want, name
        M1, M2 = np.meshgrid(U1, U2, indexing="ij")
        assert field_grid(surf, axis, M1, M2).tobytes() == want, name
        seen[name] = whole.shape, int(np.isnan(F).sum())
    assert seen["u1 only"][0] == (1801, 1)
    assert 0 < seen["holes"][1] < 777 * 777


@pytest.mark.parametrize("family, bound", [("wavy", 2.5), ("cylinder", 1.1), ("revolution", 2.5)])
def test_field_grid_peak_allocation_blocked(cylinder, family, bound):
    """At 1025^2 the grid runs in row blocks, so the peak traced
    allocation stays near the output's own bytes."""
    assert _field_grid_peak(cylinder, family, 1025) <= bound


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_cylinder_isophote(cylinder):
    level = math.cos(math.pi / 3)
    iso = extract(cylinder, IsophoteQuery.for_angle(Z_AXIS, math.pi / 3,
                                                    grid=(64, 64)))
    assert len(iso.polylines) == 2
    # independent 1-d oracle for the crossing ordinates of cos(u2) = 1/2
    roots = sorted([
        _bisect_scalar(lambda t: math.cos(t) - level, 0.9, 1.2),
        _bisect_scalar(lambda t: math.cos(t) - level, 5.1, 5.4),
    ])
    found = sorted(pl.points[0][1] for pl in iso.polylines)
    for got, want in zip(found, roots):
        assert abs(got - want) <= 1e-6
    for pl in iso.polylines:
        assert not pl.closed
        for p in pl.points:
            assert min(abs(p[1] - r) for r in roots) <= 1e-6


def test_extract_vertices_satisfy_level_equation(cylinder):
    q = IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, grid=(32, 32))
    iso = extract(cylinder, q)
    for pl in iso.polylines:
        for p in pl.points:
            v = field(cylinder, Z_AXIS, p[0], p[1])
            assert abs(v - iso.level) <= q.refine_tol
            # vertex inside the parameter rectangle
            (a1, b1), (a2, b2) = cylinder.domain
            assert a1 - 1e-12 <= p[0] <= b1 + 1e-12
            assert a2 - 1e-12 <= p[1] <= b2 + 1e-12
            # ambient coordinates match the parametrization
            pt = sample_surface(cylinder, p[0], p[1]).point
            assert (p[2], p[3], p[4]) == pytest.approx(pt.to_list(), abs=1e-12)


def test_extract_constant_field_detected():
    profile = ProfileSpec.from_string("s^2/2", (1e-3, 3.0))
    surf = revolve_isotropic(profile)
    iso = extract(surf, IsophoteQuery.for_angle(Z_AXIS, math.pi / 4, grid=(32, 32)))
    assert iso.polylines == []
    cf = iso.constant_field
    assert cf is not None and cf.matches_level
    assert cf.value == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert cf.spread <= 1e-12
    # a different level on the same surface: constant field, not an isophote
    iso2 = extract(surf, IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, grid=(32, 32)))
    assert iso2.constant_field is not None and not iso2.constant_field.matches_level


def test_silhouette_cylinder(cylinder):
    iso = silhouette(cylinder, Y_AXIS, grid=(48, 48))
    # field = sin(u2): zero set at u2 in {0 (boundary), pi, 2 pi (boundary)}
    assert len(iso.polylines) >= 2
    for pl in iso.polylines:
        for p in pl.points:
            assert min(abs(p[1] - r) for r in (0.0, math.pi, 2 * math.pi)) <= 1e-6


def test_silhouette_plane_constant_cases(plane):
    iso = silhouette(plane, Z_AXIS, grid=(8, 8))
    assert iso.polylines == [] and iso.constant_field.value == 1.0
    assert not iso.constant_field.matches_level

    iso2 = silhouette(plane, Y_AXIS, grid=(8, 8))
    assert iso2.polylines == [] and iso2.constant_field.value == 0.0
    assert iso2.constant_field.matches_level  # whole plane is the silhouette


def test_closed_polyline_detected():
    # for x = u1 graphs the normal sees z_u2 only; with
    # z_u2 = u1^2 + u2^2 the level sets of the field are circles
    surf = SurfaceSpec.from_strings("u1", "u2", "u1^2*u2 + u2^3/3",
                                    ((-1.0, 1.0), (-1.0, 1.0)))
    level = 1.0 / math.sqrt(1.0 + 0.64 ** 2)  # circle of radius 0.8
    iso = extract(surf, IsophoteQuery.raw_level(Z_AXIS, level, grid=(96, 96)))
    assert len(iso.polylines) == 1
    pl = iso.polylines[0]
    assert pl.closed
    for p in pl.points:
        assert math.hypot(p[0], p[1]) == pytest.approx(0.8, abs=1e-6)


def test_revolution_isophotes_are_parallels_at_two_grids():
    """The `isophote_revolution` cases at 256^2 and 512^2: each is two open
    polylines of n1+1 vertices on its two parallels, within the bound the
    field gives, with the same topology at both sizes."""
    topology = {}
    for n in (256, 512):
        cases = revolution_isophotes((n, n))
        for name, c in cases.items():
            assert c["vertices"] == [n + 1, n + 1], (name, n)
            assert c["parallels"], (name, n)
            assert c["max_u2_deviation"] <= c["bound"], (name, n)
        topology[n] = {name: (len(c["vertices"]), c["closed"]) for name, c in cases.items()}
    assert topology[256] == topology[512] == {
        "axis": (2, [False, False]), "helix": (2, [False, False])}


def test_level_validation():
    with pytest.raises(ValueError):
        IsophoteQuery.raw_level(Z_AXIS, 1.5)
    with pytest.raises(ValueError):
        IsophoteQuery.for_angle(Z_AXIS, -0.1)
    with pytest.raises(G3Error):
        IsophoteQuery.for_angle(GVec3(1.0, 0.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        IsophoteQuery.for_silhouette(Z_AXIS, grid=(1, 8))
    # non-isotropic axes accept any raw level
    q = IsophoteQuery.raw_level(GVec3(1.0, 0.5, 0.0), 3.7)
    assert q.level == 3.7


def test_query_grid_is_two_integers_under_the_cap():
    # the query checks its grid where it is built, from any caller, so a
    # bad grid raises before extract allocates anything
    assert MAX_GRID_POINTS == 1 << 22
    bad = [(8.5, 8), (8, 8.0), ("8", 8), "88", (True, 8), (8, np.bool_(True)), (8,),
           (8, 8, 8), 8, 8.5, None, (2 ** 11 + 1, 2 ** 11), (10 ** 9, 10 ** 9), (1, 8)]
    for grid in bad:
        for build in (lambda: IsophoteQuery.raw_level(Z_AXIS, 0.5, grid),
                      lambda: IsophoteQuery.for_angle(Z_AXIS, 0.5, grid),
                      lambda: IsophoteQuery.for_silhouette(Z_AXIS, grid)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="grid"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16, (grid, peak)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        IsophoteQuery.raw_level(Z_AXIS, 0.5, (2 ** 11 + 1, 2 ** 11))
    q = IsophoteQuery.raw_level(Z_AXIS, 0.5, (2 ** 11, 2 ** 11))
    assert q.grid == (2048, 2048)
    # numpy integers are integers; the grid holds Python ints
    q = IsophoteQuery.for_angle(Z_AXIS, 0.5, (np.int64(8), np.int32(2)))
    assert q.grid == (8, 2) and all(type(n) is int for n in q.grid)


_WAVY_AXIS = GVec3(0.0, math.sin(0.2), math.cos(0.2))


def test_query_rejects_refine_tol_that_is_not_finite():
    # with refine_tol = inf every grid is "constant to within refine_tol":
    # the wavy field at 32^2, spread 0.62, was reported constant at its level
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="refine_tol must be finite and > 0"):
            IsophoteQuery.raw_level(_WAVY_AXIS, 0.5, (32, 32), tol)
        with pytest.raises(ValueError, match="refine_tol"):
            IsophoteQuery.for_angle(Z_AXIS, 1.0, (32, 32), tol)


def test_query_rejects_refine_tol_not_above_zero():
    # no probe meets refine_tol = -1, so every edge ran all MAX_REFINE_STEPS
    for tol in (-1.0, 0.0, -0.0):
        with pytest.raises(ValueError, match="refine_tol must be finite and > 0"):
            IsophoteQuery.raw_level(_WAVY_AXIS, 0.5, (32, 32), tol)
        with pytest.raises(ValueError, match="refine_tol"):
            IsophoteQuery.for_silhouette(Z_AXIS, (32, 32), tol)


def test_query_rejects_level_that_is_not_finite():
    # a NaN level under a non-isotropic axis crosses no edge, so extract
    # returned no polylines and no error
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="level must be finite"):
            IsophoteQuery.raw_level(GVec3(1.0, 0.5, 0.0), level)
        with pytest.raises(ValueError, match="level must be finite"):
            IsophoteQuery.raw_level(_WAVY_AXIS, level)


def test_query_rejects_values_that_are_not_numbers():
    # each raised TypeError, or (the string '0.5', True) was taken as a number
    cases = [(lambda: IsophoteQuery.raw_level(Z_AXIS, 0.5, (8, 8), "a"),
              "refine_tol must be a number, got 'a'"),
             (lambda: IsophoteQuery.for_angle(Z_AXIS, "a"), "beta must be a number, got 'a'"),
             (lambda: IsophoteQuery.for_silhouette(Z_AXIS, (8, 8), None),
              "refine_tol must be a number, got None"),
             (lambda: IsophoteQuery.raw_level(_WAVY_AXIS, "0.5"),
              "level must be a number, got '0.5'"),
             (lambda: IsophoteQuery.raw_level(_WAVY_AXIS, [0.5]),
              r"level must be a number, got \[0.5\]"),
             (lambda: IsophoteQuery.for_angle(Z_AXIS, True), "beta must be a number, got True")]
    for build, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()
    # numpy's numbers are numbers; the query holds Python floats
    q = IsophoteQuery.raw_level(_WAVY_AXIS, np.float32(0.5), (8, 8), np.float64(1e-6))
    assert type(q.level) is float and type(q.refine_tol) is float


# ---------------------------------------------------------------------------
# oracle and regression properties
# ---------------------------------------------------------------------------

def _brute_crossing_cells(F, level):
    """Independent per-cell edge scan (the marching-squares oracle)."""
    n1, n2 = F.shape[0] - 1, F.shape[1] - 1
    out = set()
    for i in range(n1):
        for j in range(n2):
            corners = (F[i, j], F[i + 1, j], F[i + 1, j + 1], F[i, j + 1])
            if any(not np.isfinite(c) for c in corners):
                continue
            sgn = [1 if c > level else -1 for c in corners]
            edges = [(sgn[0], sgn[1]), (sgn[1], sgn[2]),
                     (sgn[2], sgn[3]), (sgn[3], sgn[0])]
            if any(a * b < 0 for a, b in edges):
                out.add((i, j))
    return out


def test_crossing_cells_match_brute_force_oracle(cylinder, plane, corpus):
    cases = [
        (cylinder, Z_AXIS, math.cos(math.pi / 3)),
        (cylinder, Y_AXIS, 0.0),
        (cylinder, normalize_axis(GVec3(0.0, 1.0, 1.0)), 0.25),
        (SurfaceSpec.from_strings("u1", "u2", "u1^2 + u2^2",
                                  ((-1, 1), (-1, 1))), Z_AXIS, 0.9),
        (corpus[0][0], Z_AXIS, 0.3),
        (corpus[1][0], normalize_axis(GVec3(0.0, 2.0, 1.0)), -0.1),
    ]
    compared = 0
    for surf, axis, level in cases:
        U1, U2 = surf.grid(17, 17)
        F = field_grid(surf, axis, U1[:, None], U2[None, :])
        assert crossing_cells(F, level) == _brute_crossing_cells(F, level)
        # extract builds its cells from the same masks as crossing_cells
        stats = extract(surf, IsophoteQuery.raw_level(axis, level, grid=(16, 16))).stats
        if stats.failed_edges == 0:
            assert stats.cells_crossing == len(crossing_cells(F, level))
            compared += 1
    assert compared > 0


def _link_segments_oracle(segments: list[list[int]]) -> list[list[int]]:
    """The dict-of-lists linker that `_link_segments` replaced."""
    by_edge: dict[int, list[int]] = {}
    for k, (ea, eb) in enumerate(segments):
        by_edge.setdefault(ea, []).append(k)
        by_edge.setdefault(eb, []).append(k)
    used = [False] * len(segments)

    def walk(edge: int, stop: int) -> list[int]:
        path = []
        while True:
            nxt = [k for k in by_edge[edge] if not used[k]]
            if not nxt:
                return path
            used[nxt[0]] = True
            a, b = segments[nxt[0]]
            edge = b if a == edge else a
            path.append(edge)
            if edge == stop:
                return path

    chains = []
    for start, (ea, eb) in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        forward = walk(eb, ea)
        backward = walk(ea, forward[-1] if forward else eb)
        chains.append(backward[::-1] + [ea, eb] + forward)
    return chains


def _split(edge_ids: np.ndarray, lengths: np.ndarray) -> list[list[int]]:
    """The chains of `_link_segments`' flat edge ids and chain lengths."""
    ends = np.cumsum(lengths).tolist()
    return [edge_ids[b - n:b].tolist() for n, b in zip(lengths.tolist(), ends)]


def _random_field(seed: int):
    """A sum of random plane waves on [0, 1]^2, NaN inside two discs."""
    rng = np.random.default_rng(seed)
    a, b, c, d = (rng.uniform(lo, hi, 6) for lo, hi in
                  ((0.2, 0.5), (-3.0, 3.0), (-3.0, 3.0), (0.0, 2 * math.pi)))
    holes = rng.uniform(0.1, 0.9, (2, 2))

    def f(surface, axis, U1, U2):
        U1, U2 = np.broadcast_arrays(U1, U2)
        F = sum(a[k] * np.sin(2 * math.pi * (b[k] * U1 + c[k] * U2) + d[k])
                for k in range(6))
        for p, q in holes:
            F = np.where(np.hypot(U1 - p, U2 - q) < 0.07, np.nan, F)
        return F

    return f


def test_link_segments_match_dict_oracle(monkeypatch):
    plane = SurfaceSpec.from_strings("u1", "u2", "0", ((0.0, 1.0), (0.0, 1.0)))
    seen = []
    real = isophote._link_segments

    def spy(segments):
        edge_ids, lengths = real(segments)
        seen.append((segments.tolist(), _split(edge_ids, lengths)))
        return edge_ids, lengths

    monkeypatch.setattr(isophote, "_link_segments", spy)
    saddles = closed = 0
    for seed in range(6):
        f = _random_field(seed)
        monkeypatch.setattr(isophote, "_field", f)
        U1, U2 = plane.grid(41, 41)
        F = f(plane, Z_AXIS, U1[:, None], U2[None, :])
        for level in (-0.6, -0.2, 0.0, 0.35, 0.7):
            extract(plane, IsophoteQuery.raw_level(Z_AXIS, level, grid=(40, 40)))
            _, ch, cv, _, ok = isophote._cell_masks(F, level)
            saddles += int((ch[:, :-1] & ch[:, 1:] & cv[:-1] & cv[1:] & ok).sum())
    for segments, chains in seen:
        assert chains == _link_segments_oracle(segments)
        closed += sum(c[0] == c[-1] for c in chains)
    assert len(seen) == 30 and saddles > 0 and closed > 0
    edge_ids, lengths = real(np.empty((0, 2), dtype=np.int64))
    assert edge_ids.tolist() == [] and lengths.tolist() == []


def test_link_segments_pinned_order():
    # a closed loop (10, 11, 12), an open chain 19-23 whose first segment
    # (21, 22) lies in its middle, and a lone segment (30, 31); the chains
    # start in segment order, and four segments are stored reversed
    segments = np.array([(21, 22), (11, 10), (23, 22), (12, 11),
                         (30, 31), (20, 21), (10, 12), (19, 20)], dtype=np.int64)
    edge_ids, lengths = isophote._link_segments(segments)
    assert edge_ids.dtype == np.int64 and lengths.dtype == np.int64
    assert edge_ids.tolist() == [19, 20, 21, 22, 23, 11, 10, 12, 11, 30, 31]
    assert lengths.tolist() == [5, 4, 2]
    assert _split(edge_ids, lengths) == _link_segments_oracle(segments.tolist())


def test_cell_masks_match_sign_products():
    # the crossing edges are the sign changes of s = +1 above the level,
    # -1 at or below it, 0 where undefined: s * s' == -1
    rng = np.random.default_rng(5)
    F = rng.choice([-1.0, 0.25, 0.5, 0.75, 2.0, np.nan, np.inf, -np.inf], (23, 19))
    s = np.where(np.isfinite(F), np.where(F > 0.5, 1, -1), 0)
    up, ch, cv, cell, valid = isophote._cell_masks(F, 0.5)
    assert np.array_equal(up, F > 0.5)
    assert np.array_equal(ch, s[:-1] * s[1:] == -1)
    assert np.array_equal(cv, s[:, :-1] * s[:, 1:] == -1)
    assert np.array_equal(cell, ch[:, :-1] | ch[:, 1:] | cv[:-1] | cv[1:])
    assert np.array_equal(valid, (s[:-1, :-1] != 0) & (s[1:, :-1] != 0)
                          & (s[1:, 1:] != 0) & (s[:-1, 1:] != 0))
    assert ch.any() and cv.any() and not valid.all()


def test_grid_doubling_keeps_polylines(cylinder):
    for beta in (math.pi / 3, math.pi / 2):
        q16 = IsophoteQuery.for_angle(Z_AXIS, beta, grid=(16, 16))
        q32 = IsophoteQuery.for_angle(Z_AXIS, beta, grid=(32, 32))
        n16 = len(extract(cylinder, q16).polylines)
        n32 = len(extract(cylinder, q32).polylines)
        assert n32 >= n16 >= 1


def test_euclidean_rotation_equivariance(cylinder):
    from g3geom import GalileanMotion
    U1 = np.linspace(0.1, 1.9, 9)[:, None]
    U2 = np.linspace(0.3, 6.0, 9)[None, :]
    axis = normalize_axis(GVec3(0.0, 0.3, 0.9))
    base = field_grid(cylinder, axis, U1, U2)
    for phi in (0.4, -1.3, 2.9):
        m = GalileanMotion(phi=phi)
        moved = transform_surface(cylinder, m)
        moved_axis = apply_motion(m, axis, as_direction=True)
        vals = field_grid(moved, moved_axis, U1, U2)
        assert np.max(np.abs(vals - base)) <= 1e-12


def test_full_motion_field_invariance_with_isotropic_axis(cylinder):
    U1 = np.linspace(0.1, 1.9, 8)[:, None]
    U2 = np.linspace(0.3, 6.0, 8)[None, :]
    axis = normalize_axis(GVec3(0.0, 0.6, 0.8))
    base = field_grid(cylinder, axis, U1, U2)
    for m in random_motions(count=25, seed=4):
        vals = field_grid(transform_surface(cylinder, m),
                          apply_motion(m, axis, as_direction=True), U1, U2)
        assert np.max(np.abs(vals - base)) <= 1e-8


def test_saddle_cells_resolved_by_center_sample():
    # z = -sin(u1) cos(u2) gives field proportional to -sin(u1) sin(u2):
    # its zero set is the line grid u1, u2 in {pi, 2pi}, whose crossings
    # land strictly inside cells and force the alternating-sign case
    surf = SurfaceSpec.from_strings("u1", "u2", "-sin(u1)*cos(u2)",
                                    ((0.5, 0.5 + 2 * math.pi),
                                     (0.5, 0.5 + 2 * math.pi)))
    iso = silhouette(surf, Y_AXIS, grid=(31, 31))
    assert len(iso.polylines) >= 4
    assert iso.stats.failed_edges == 0
    for pl in iso.polylines:
        for p in pl.points:
            assert abs(math.sin(p[0]) * math.sin(p[1])) <= 1e-8
            assert abs(field(surf, Y_AXIS, p[0], p[1])) <= 1e-9


def test_singular_cells_skipped_not_fatal():
    # omega -> 0 along u1 = 0 inside the domain; the extractor must keep
    # working on the healthy part and count the dead cells
    profile = ProfileSpec.from_string("s^2/2", (1e-3, 2.0))
    surf = revolve_isotropic(profile)
    bad = SurfaceSpec(surf.x, surf.y, surf.z, ((-1.0, 2.0), (-1.0, 1.0)),
                      surf.parameters)
    iso = extract(bad, IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, grid=(24, 24)))
    assert iso.stats.cells_skipped > 0
    for pl in iso.polylines:
        for p in pl.points:
            assert abs(field(bad, Z_AXIS, p[0], p[1]) - iso.level) <= 1e-9


# ---------------------------------------------------------------------------
# edge refinement
# ---------------------------------------------------------------------------

def _probed_field(monkeypatch, f):
    """Make `isophote._field` the field f(u1, u2); return the list of
    (u2, value) arrays of its calls."""
    probes = []

    def field(surface, axis, U1, U2):
        values = f(np.asarray(U1, dtype=float), np.asarray(U2, dtype=float))
        probes.append((np.array(U2), values))
        return values

    monkeypatch.setattr(isophote, "_field", field)
    return probes


def _refine_along_u1(f, lo, hi, tol=1e-9):
    """`_refine_edges` on the edges from (lo_k, k) to (hi_k, k), level 0,
    with the points p0 + t (p1 - p0) of its t in place of t."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    rows = np.arange(len(lo), dtype=float)
    f0, f1 = f(lo, rows), f(hi, rows)
    assert np.all((f0 > 0) != (f1 > 0))  # a crossing: 0 counts as below
    p0, p1 = np.column_stack((lo, rows)), np.column_stack((hi, rows))
    t, *rest = isophote._refine_edges(None, None, 0.0, p0, p1, f0, f1, tol)
    return (p0 + t[:, None] * (p1 - p0), *rest)


@pytest.mark.parametrize("name", ["steep tanh", "flat cubic", "root at a node"])
def test_refine_edges_on_analytic_fields(monkeypatch, name):
    rng = np.random.default_rng(3)
    if name == "steep tanh":
        root, slope = 0.37, 50.0
        lo = root - rng.uniform(1e-6, 0.37, 40)
        hi = root + rng.uniform(1e-6, 0.63, 40)
    elif name == "flat cubic":
        root, slope = 0.6, None
        lo = root - rng.uniform(1e-3, 0.6, 40)
        hi = root + rng.uniform(1e-3, 0.4, 40)
    else:
        # f0 = 0 with f1 > 0, and f0 > 0 with f1 = 0
        root, slope = 0.25, 1.0
        lo = np.array([0.25, 0.25, 0.5, 1.0])
        hi = np.array([0.5, 0.75, 0.25, 0.25])

    def f(u, rows):
        return {"steep tanh": np.tanh(50.0 * (u - root)), "flat cubic": (u - root) ** 3,
                "root at a node": u - root}[name] + 0.0 * rows

    _probed_field(monkeypatch, f)
    pu, err, failed, evaluations, steps = _refine_along_u1(f, lo, hi)
    u = pu[:, 0]
    assert not failed.any() and steps <= isophote.MAX_REFINE_STEPS
    assert np.all(err <= 1e-9) and np.array_equal(err, np.abs(f(u, 0.0)))
    assert np.all((np.minimum(lo, hi) <= u) & (u <= np.maximum(lo, hi)))
    if slope is not None:
        assert np.all(np.abs(u - root) <= 1e-9 / slope * (1 + 1e-6) + 1e-15)
    if name == "root at a node":
        assert np.array_equal(u, np.full(4, root)) and evaluations == 4 and steps == 1


def test_refine_edges_probe_only_open_edges(monkeypatch):
    # edges 0-9 see a linear field, met by the first probe; edges 10-19 the
    # steep tanh, which takes several steps
    def f(u, rows):
        return np.where(rows < 10, u - 0.3, np.tanh(50.0 * (u - 0.37)))

    probes = _probed_field(monkeypatch, f)
    pu, err, failed, evaluations, steps = _refine_along_u1(f, np.full(20, 0.05),
                                                           np.full(20, 0.9))
    assert np.all(err <= 1e-9) and not failed.any()
    assert [len(r) for r, _ in probes][:2] == [20, 10]
    assert evaluations == sum(len(r) for r, _ in probes) and steps == len(probes)
    # an edge is probed again only while every earlier probe missed the tol
    for k in range(20):
        seen = [abs(v[r == k][0]) for r, v in probes if (r == k).any()]
        assert all(e > 1e-9 for e in seen[:-1]) and seen[-1] <= 1e-9, k


def test_refine_edges_nan_probe_fails_only_its_edge(monkeypatch):
    # edge 3 is undefined inside, between its finite endpoints
    def f(u, rows):
        inside = (rows == 3) & (u > 0.0) & (u < 0.9)
        return np.where(inside, np.nan, np.tanh(50.0 * (u - 0.37)))

    probes = _probed_field(monkeypatch, f)
    pu, err, failed, evaluations, steps = _refine_along_u1(f, np.zeros(8), np.full(8, 0.9))
    assert failed.tolist() == [k == 3 for k in range(8)]
    assert np.isinf(err[3]) and np.all(np.delete(err, 3) <= 1e-9)
    # the failed edge is not probed after its NaN
    assert sum(int((r == 3).sum()) for r, _ in probes) == 1


def test_refine_iterations_on_wavy_golden_case(monkeypatch):
    sizes = []
    real = isophote._field

    def counting(surface, axis, U1, U2):
        F = real(surface, axis, U1, U2)
        if F.ndim == 1:
            sizes.append(F.size)
        return F

    monkeypatch.setattr(isophote, "_field", counting)
    surface, query = GOLDEN_CASES["wavy_256"]()
    stats = extract(surface, query).stats
    assert stats.refined_edges == 2088 and stats.failed_edges == 0
    assert stats.refine_iterations_max <= 12
    # 1-D calls: the refinement steps, then any saddle centers
    probes = sizes[:stats.refine_iterations_max]
    assert probes[0] == stats.refined_edges and probes == sorted(probes, reverse=True)
    assert stats.refine_iterations_total == sum(probes)


# ---------------------------------------------------------------------------
# fields of one parameter: the line path and the closed-form normal
# ---------------------------------------------------------------------------

def _grid_path(monkeypatch, surface, query):
    """`extract` with the line path turned off."""
    with monkeypatch.context() as m:
        m.setattr(isophote, "_coordinate_lines", lambda *args: None)
        return extract(surface, query)


def _same_extraction(a, b, iterations=True) -> bool:
    sa, sb = dataclasses.asdict(a.stats), dataclasses.asdict(b.stats)
    if not iterations:
        del sa["refine_iterations_total"], sb["refine_iterations_total"]
    return (a.vertices.tobytes() == b.vertices.tobytes()
            and a.offsets.tobytes() == b.offsets.tobytes()
            and a.closed.tobytes() == b.closed.tobytes() and sa == sb)


_COLUMN = SurfaceSpec.from_strings("u1 + u2", "u2", "sin(3*u1)",
                                   ((0.0, 2.0), (0.0, 2 * math.pi)))
_REVOLUTION = ProfileSpec.from_string("1.5 + 0.2*s^2 + 0.1*sin(2*s)", (0.1, 2.0))


@pytest.mark.parametrize("name, grid", [("row", (17, 40)), ("row", (256, 256)),
                                        ("column", (40, 17)), ("column", (1024, 1024)),
                                        ("revolution", (64, 48)),
                                        ("revolution", (1024, 1024))])
def test_line_path_equals_grid_path(cylinder, monkeypatch, name, grid):
    surface = {"row": cylinder, "column": _COLUMN,
               "revolution": revolve_euclidean(_REVOLUTION)}[name]
    axis = normalize_axis(GVec3(0.0, 0.3, 1.0))
    U1, U2 = surface.grid(grid[0] + 1, grid[1] + 1)
    F = isophote._field(surface, axis, U1[:, None], U2[None, :])
    assert F.strides == ((0, 8) if name != "column" else (8, 0))
    n = grid[name == "column"] + 1  # vertices per line
    crossings = []
    for level in (0.5, 0.2, 0.9, 0.999999):
        query = IsophoteQuery.raw_level(axis, level, grid)
        lines, grid_path = extract(surface, query), _grid_path(monkeypatch, surface, query)
        assert _same_extraction(lines, grid_path, iterations=False), level
        crossings.append(len(lines.closed))
        assert not lines.closed.any()
        assert np.diff(lines.offsets).tolist() == [n] * crossings[-1]
        # one refined edge per line: evaluations fall by its vertex count
        assert (lines.stats.refine_iterations_total * n
                == grid_path.stats.refine_iterations_total)
    assert min(crossings[:3]) > 0


def test_line_path_skipped_on_nan_samples_and_failed_edges(monkeypatch):
    calls = []
    real = isophote._coordinate_lines

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(isophote, "_coordinate_lines", spy)
    # z = sqrt(u2) is NaN below u2 = 0: a row field with NaN samples
    nan_row = SurfaceSpec.from_strings("u1", "u2", "sqrt(u2)", ((0.0, 1.0), (-0.5, 1.0)))
    query = IsophoteQuery.raw_level(Y_AXIS, -0.5, (9, 12))
    iso = extract(nan_row, query)
    assert calls == [] and iso.stats.cells_skipped > 0 and len(iso.closed) == 1
    assert _same_extraction(iso, _grid_path(monkeypatch, nan_row, query))
    # z_u2 is NaN for |u2| < 0.1, inside the one crossing edge of each row
    failing = SurfaceSpec.from_strings("u1", "u2", "u2 + sqrt(u2^2 - 0.01)",
                                       ((0.0, 1.0), (-1.0, 1.0)))
    query = IsophoteQuery.for_silhouette(Y_AXIS, (6, 9))
    iso = extract(failing, query)
    assert calls == [None] and iso.stats.failed_edges == 7 and len(iso.closed) == 0
    assert _same_extraction(iso, _grid_path(monkeypatch, failing, query))


@settings(max_examples=60, deadline=None)
@given(p0=st.floats(1.0, 2.0), p1=st.floats(0.0, 0.5), p2=st.floats(-0.3, 0.3),
       w=st.floats(0.5, 4.0), phi=st.floats(-math.pi, math.pi),
       u1=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=8),
       u2=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=8))
def test_closed_form_field_agrees_with_partials(p0, p1, p2, w, phi, u1, u2):
    profile = ProfileSpec.from_string("p0 + p1*s^2 + p2*sin(w*s)", (0.5, 2.0),
                                      parameters={"p0": p0, "p1": p1, "p2": p2, "w": w})
    surface = revolve_euclidean(profile)
    plain = dataclasses.replace(surface, normal=None)
    axis = GVec3(0.0, math.sin(phi), math.cos(phi))
    U1, U2 = np.array(u1)[:, None], np.array(u2)[None, :]
    closed = field_grid(surface, axis, U1, U2)
    assert np.abs(closed - field_grid(plain, axis, U1, U2)).max() <= 1e-14
    assert field(surface, axis, u1[0], u2[0]) == closed[0, 0]


def test_closed_form_falls_back_where_g_is_not_above_omega_min(monkeypatch):
    # g = 1 - s is positive on the profile's domain, 0 at u1 = 1 and
    # negative beyond it, where n = -(sin t, cos t)
    surface = revolve_euclidean(ProfileSpec.from_string("1 - s", (-1.0, 0.5)))
    plain = dataclasses.replace(surface, normal=None)
    axis = normalize_axis(GVec3(0.0, 0.3, 1.0))
    U1, U2 = np.linspace(-1.0, 3.0, 1025), np.linspace(0.0, 2 * math.pi, 1025)
    assert max(2, isophote.BLOCK_POINTS // 1025) < np.searchsorted(U1, 1.0)
    for G1, G2 in ((U1[:, None], U2[None, :]), (U1, U2)):
        want = field_grid(plain, axis, G1, G2)
        assert field_grid(surface, axis, G1, G2).tobytes() == want.tobytes()
    assert np.isnan(field_grid(surface, axis, U1[:, None], U2[None, :])[512]).all()
    with pytest.raises(SingularNormalError) as closed_error:
        field(surface, axis, 1.0, 0.5)
    with pytest.raises(SingularNormalError) as plain_error:
        field(plain, axis, 1.0, 0.5)
    assert str(closed_error.value) == str(plain_error.value)
    assert field(surface, axis, 1.5, 0.5) == field(plain, axis, 1.5, 0.5)
    wide = dataclasses.replace(surface, domain=((-1.0, 2.0), (0.0, 2 * math.pi)))
    query = IsophoteQuery.for_angle(axis, 0.7, (96, 64))
    iso = extract(wide, query)
    assert iso.stats.cells_skipped > 0
    assert _same_extraction(iso, extract(dataclasses.replace(wide, normal=None), query))
