import csv
import io
import itertools
import json
import math
import warnings
from fractions import Fraction
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g3geom import (
    G3Error,
    GVec3,
    IsophoteQuery,
    ProfileSpec,
    SurfaceSpec,
    extract,
    darboux_samples,
    frenet_samples,
    revolve_isotropic,
    tessellate,
    write_csv,
    write_obj,
    write_svg,
)
from g3geom import export
from g3geom.export import TriMesh
from g3geom.expr import eval_jet2
from g3geom.isophote import CLOSE_TOL, MAX_GRID_POINTS, ExtractStats, IsophoteSet, _lift


def _parse_obj(data: bytes):
    """Minimal independent OBJ reader used as the round-trip oracle."""
    vertices, faces, lines = [], [], []
    for raw in data.decode("ascii").splitlines():
        parts = raw.split()
        if not parts or parts[0] == "#":
            continue
        if parts[0] == "v":
            vertices.append(tuple(float(x) for x in parts[1:4]))
        elif parts[0] == "f":
            faces.append(tuple(int(x) - 1 for x in parts[1:4]))
        elif parts[0] == "l":
            lines.append(tuple(int(x) - 1 for x in parts[1:]))
    return vertices, faces, lines


def test_tessellate_counts(plane, cylinder):
    mesh = tessellate(plane, 1, 1)
    assert len(mesh.vertices) == 4 and len(mesh.faces) == 2
    mesh = tessellate(cylinder, 2, 4)
    assert len(mesh.vertices) == 15 and len(mesh.faces) == 16
    assert mesh.provenance == (2, 4)
    for f in mesh.faces:
        assert len(set(f)) == 3
        assert all(0 <= i < 15 for i in f)


def test_tessellate_sizes_are_integers_under_the_cap(plane, monkeypatch):
    # 2.5 raised a bare TypeError from linspace, and True built a mesh
    for n1, n2 in ((2.5, 3), (True, 3), (3, False), (0, 3), (3, -1), ("2", 3), (None, 3)):
        with pytest.raises(ValueError, match="must be integers >= 1") as e:
            tessellate(plane, n1, n2)
        assert repr(n1) in str(e.value) and repr(n2) in str(e.value)
    assert tessellate(plane, np.int64(2), 3).provenance == (2, 3)
    side = math.isqrt(MAX_GRID_POINTS) - 1
    with pytest.raises(ValueError, match=f"above the cap MAX_GRID_POINTS = {MAX_GRID_POINTS}"):
        tessellate(plane, side, side + 1)
    # the cap counts vertices: 3 x 4 of a 2x3 mesh
    monkeypatch.setattr(export, "MAX_GRID_POINTS", 12)
    assert len(tessellate(plane, 2, 3).vertices) == 12
    with pytest.raises(ValueError, match="a 3x3 mesh has 16 vertices"):
        tessellate(plane, 3, 3)


def test_tessellate_figure_mesh_valid():
    profile = ProfileSpec.from_string("s^2/2", (1e-3, 5.0), c=1.0)
    surf = revolve_isotropic(profile)
    mesh = tessellate(surf, 64, 64)
    assert len(mesh.vertices) == 65 * 65
    assert len(mesh.faces) == 2 * 64 * 64


def test_tessellate_reports_bad_grid_point():
    surf = SurfaceSpec.from_strings("u1", "log(u2)", "0", ((0, 1), (-1, 1)))
    with pytest.raises(G3Error):
        tessellate(surf, 2, 2)


def test_trimesh_validation():
    with pytest.raises(G3Error):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 1)], (1, 1))
    with pytest.raises(G3Error):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 5)], (1, 1))
    # the message names the first bad face, whatever check it fails
    for faces, message in (
            ([(0, 1, 2), (2, 2, 1), (0, 1, 9)], "degenerate face (2, 2, 1)"),
            ([(0, 1, 2), (0, 1, 9), (2, 2, 1)], "face index out of range in (0, 1, 9)"),
            ([(0, 1, 2), (0, 1)], "degenerate face (0, 1)"),
            ([(0, 1, 2, 0)], "degenerate face (0, 1, 2, 0)"),
            ([(0, -1, 2)], "face index out of range in (0, -1, 2)")):
        with pytest.raises(G3Error) as exc:
            TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], faces, (1, 1))
        assert str(exc.value) == message


def test_trimesh_rejects_vertices_that_are_not_finite():
    for bad in (math.nan, math.inf, -math.inf):
        vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, bad), (bad, 0.0, 0.0)]
        with pytest.raises(ValueError, match=rf"^vertex 2 is not finite: \[0.0, 1.0, {bad}\]$"):
            TriMesh(vertices, [(0, 1, 2)], (1, 1))
    TriMesh([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1e308)], [(0, 1, 2)], (1, 1))


def test_trimesh_holds_arrays(plane):
    mesh = tessellate(plane, 3, 2)
    assert mesh.vertices.shape == (12, 3) and mesh.vertices.dtype == np.float64
    assert mesh.faces.shape == (12, 3) and mesh.faces.dtype == np.int64
    assert mesh != tessellate(plane, 3, 2)  # identity, not element-wise truth


def test_obj_mesh_round_trip(plane):
    mesh = tessellate(plane, 3, 2)
    data = write_obj(mesh)
    lines = data.decode("ascii").split("\n")
    assert sum(1 for x in lines if x.startswith("v ")) == len(mesh.vertices)
    assert sum(1 for x in lines if x.startswith("f ")) == len(mesh.faces)
    assert data.endswith(b"\n") and b"\r" not in data

    vertices, faces, _ = _parse_obj(data)
    assert len(vertices) == len(mesh.vertices)
    assert faces == [tuple(r) for r in mesh.faces.tolist()]
    for got, want in zip(vertices, [tuple(r) for r in mesh.vertices.tolist()]):
        assert got == want  # 17 significant digits round-trip exactly

    assert write_obj(mesh) == data  # byte determinism


def test_obj_polylines(cylinder):
    iso = extract(cylinder, IsophoteQuery.for_angle(GVec3(0, 0, 1), math.pi / 3,
                                                    grid=(16, 16)))
    data = write_obj(iso)
    vertices, faces, lines = _parse_obj(data)
    assert faces == []
    assert len(lines) == len(iso.polylines)
    assert len(vertices) == sum(len(p.points) for p in iso.polylines)

    empty = IsophoteSet(np.empty((0, 5)), [0], [], 0.5, None, iso.stats)
    assert write_obj(empty) == b"# g3geom OBJ export\n"


def test_csv_frenet_columns(cubic_curve):
    samples = frenet_samples(cubic_curve, [0.0, 1.0])
    data = write_csv(samples).decode("ascii")
    lines = data.strip().split("\n")
    assert lines[0] == "s,kappa,tau"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_csv_darboux_columns(cylinder, helix_trace):
    samples = darboux_samples(cylinder, helix_trace, [0.0, 0.5, 1.0])
    data = write_csv(samples).decode("ascii")
    assert data.startswith("s,kg,kn,taug,phi\n")
    assert len(data.strip().split("\n")) == 4


def test_csv_mapping_rows():
    rows = [{"u1": 0.0, "field": 0.5}, {"u1": 1.0, "field": 0.25}]
    data = write_csv(rows, columns=("u1", "field")).decode("ascii")
    assert data.splitlines()[0] == "u1,field"


def test_csv_isophote_vertices(cylinder):
    iso = extract(cylinder, IsophoteQuery.for_angle(GVec3(0, 0, 1), math.pi / 3,
                                                    grid=(16, 16)))
    data = write_csv(iso).decode("ascii")
    lines = data.strip().split("\n")
    assert lines[0] == "polyline,u1,u2,x,y,z"
    assert len(lines) == 1 + sum(len(p.points) for p in iso.polylines)


def test_svg_well_formed_with_polylines(cylinder):
    iso = extract(cylinder, IsophoteQuery.for_angle(GVec3(0, 0, 1), math.pi / 3,
                                                    grid=(32, 32)))
    data = write_svg(iso, cylinder.domain)
    root = ET.fromstring(data)  # raises on malformed XML
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2
    title = root.find(f"{ns}title")
    assert title is not None and f"{math.cos(math.pi/3):.17g}" in title.text
    assert write_svg(iso, cylinder.domain) == data


def test_svg_constant_field_annotation():
    profile = ProfileSpec.from_string("s^2/2", (1e-3, 3.0))
    surf = revolve_isotropic(profile)
    iso = extract(surf, IsophoteQuery.for_angle(GVec3(0, 0, 1), math.pi / 4,
                                                grid=(16, 16)))
    root = ET.fromstring(write_svg(iso, surf.domain))
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}rect")) == 2  # frame + shaded domain
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert any("isophote" in t for t in texts)


def _wavy_and_ring():
    """A wavy extraction at 128^2 (open and closed chains) and the closed
    ring of demos/04_isophote_extraction.py, with their surface domains."""
    wavy = SurfaceSpec.from_strings("u1", "u2", "0.8*sin(3*u1)*cos(3*u2)",
                                    ((0.0, 5.0), (0.0, 5.0)))
    bowl = SurfaceSpec.from_strings("u1", "u2", "u1^2*u2 + u2^3/3",
                                    ((-1.0, 1.0), (-1.0, 1.0)))
    axis = GVec3(0.0, 0.0, 1.0)
    return [(extract(wavy, IsophoteQuery.raw_level(axis, 0.8, grid=(128, 128))), wavy.domain),
            (extract(bowl, IsophoteQuery.raw_level(axis, 1.0 / math.sqrt(1.0 + 0.64 ** 2),
                                                   grid=(128, 128))), bowl.domain)]


def test_array_path_matches_list_path():
    closed_seen = open_seen = 0
    for iso, domain in _wavy_and_ring():
        # the writers read the arrays and leave the polylines view unbuilt
        written = (write_obj(iso), write_svg(iso, domain), write_csv(iso),
                   json.dumps(iso.to_json_dict(), sort_keys=True))
        assert iso._polylines is None
        V, offsets, closed = iso.vertices, iso.offsets, iso.closed
        assert not (V.flags.writeable or offsets.flags.writeable or closed.flags.writeable)
        assert V.ndim == 2 and V.shape[1] == 5 and V.dtype == np.float64
        assert V.flags.c_contiguous
        assert offsets.dtype == np.int64 and len(offsets) == len(closed) + 1
        assert offsets[0] == 0 and offsets[-1] == len(V) and np.all(np.diff(offsets) >= 0)
        assert closed.dtype == bool
        for pl, c in zip(iso.polylines, closed.tolist()):
            (a1, b1, *_), (a2, b2, *_) = pl.points[0], pl.points[-1]
            assert c == (len(pl.points) > 2 and math.hypot(a1 - a2, b1 - b2) <= CLOSE_TOL)
            assert pl.closed is c
        closed_seen += int(closed.sum())
        open_seen += int((~closed).sum())

        assert iso.polylines is iso.polylines
    assert closed_seen > 0 and open_seen > 0


def test_tessellate_domain_error_names_the_first_bad_point():
    # the first grid point, row-major, where a coordinate is not finite
    # (the interpreter's values, with the checks off)
    cases = [("u1", "u2", "sqrt(u1-1)", ((0.5, 2.0), (0.0, 1.0))),
             ("u1", "sqrt(1-u2)", "u1", ((0.0, 1.0), (0.0, 1.5))),
             ("u1", "u2", "sqrt(u1-1)*sqrt(2-u2)", ((1.5, 2.0), (0.0, 3.0))),
             ("u1", "log(0.6-u1)", "sqrt(u1)", ((0.0, 1.0), (1.0, 2.0)))]
    for x, y, z, domain in cases:
        surf = SurfaceSpec.from_strings(x, y, z, domain)
        U1, U2 = surf.grid(5, 4)
        xyz = [eval_jet2(c, (U1[:, None], U2[None, :]), check=False).value
               for c in (surf.x, surf.y, surf.z)]
        bad = ~np.isfinite(sum(xyz))
        i, j = map(int, np.argwhere(bad)[0])
        with pytest.raises(G3Error) as exc:
            tessellate(surf, 4, 3)
        assert str(exc.value) == (f"surface evaluation failed at grid point ({i},{j}) = "
                                  f"(u1,u2)=({float(U1[i]):.6g},{float(U2[j]):.6g})")
    surf = SurfaceSpec.from_strings("u1", "u2", "sqrt(u1-1)", ((0.5, 2.0), (0.0, 1.0)))
    with pytest.raises(G3Error, match=r"grid point \(0,0\) = \(u1,u2\)=\(0.5,0\)$"):
        tessellate(surf, 4, 4)


def test_tessellate_locates_a_failed_check_on_finite_values():
    # sqrt at 0 and abs at 0 have finite values but no derivative: the
    # report names the first grid point where the checked evaluation fails
    for z, where in (("sqrt(u1-1)", r"\(0,0\) = \(u1,u2\)=\(1,0\)"),
                     ("abs(u2-0.5)*u1", r"\(0,2\) = \(u1,u2\)=\(1,0.5\)")):
        surf = SurfaceSpec.from_strings("u1", "u2", z, ((1.0, 2.0), (0.0, 1.0)))
        with pytest.raises(G3Error, match=r"grid point " + where + "$"):
            tessellate(surf, 4, 4)


def test_svg_and_obj_of_an_empty_closed_polyline():
    # an empty closed polyline draws no point in SVG, not the next
    # polyline's first; OBJ still names its (absent) first vertex
    pts = [(1.0, 2.0, 0.0, 0.0, 0.0), (3.0, 4.0, 0.0, 0.0, 0.0)]
    iso = IsophoteSet(pts, [0, 0, 2], [True, False], 0.0, None,
                      ExtractStats(grid=(2, 2), cells_total=4))
    ns = "{http://www.w3.org/2000/svg}"
    drawn = ET.fromstring(write_svg(iso, ((0.0, 4.0), (0.0, 4.0)))).findall(f"{ns}polyline")
    assert [len(p.get("points").split()) for p in drawn] == [0, 2]
    assert write_obj(iso).decode("ascii").splitlines()[-2:] == ["l 1", "l 1 2"]


# ---------------------------------------------------------------------------
# the 17-digit float formatter
# ---------------------------------------------------------------------------

def _assert_formatted(values):
    """_float_rows of the values as one column equals '%.17g', with every
    warning an error."""
    values = np.asarray(values, dtype=np.float64)
    want = b"".join(b"%.17g\n" % v for v in values.tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = export._float_rows(values.reshape(-1, 1), b"", b",")
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split(b"\n"),
                                             want.split(b"\n")) if g != w]
        raise AssertionError(f"{len(bad)} values differ, first {bad[:3]}")


_bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
_fixed_range = st.builds(lambda x, neg: -x if neg else x,
                         st.floats(1e-4, 1e17, exclude_max=True), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_bit_patterns, _fixed_range, st.floats()), min_size=1, max_size=40))
def test_float_rows_equal_percent_17g_on_any_float(values):
    _assert_formatted(values)


def _ties():
    """Doubles whose 18th significant digit is an exact 5 that nothing
    follows: m * 2**(k - 17) with m odd, for decimal exponents k = -4..13."""
    out = []
    for k in range(-4, 14):
        m = math.ceil(Fraction(10) ** k / Fraction(2) ** (k - 17)) | 1
        for x in (math.ldexp(m, k - 17), math.ldexp(m + 2, k - 17), math.ldexp(m + 98, k - 17)):
            assert math.floor(math.log10(x)) == k
            assert (Fraction(x) * Fraction(10) ** (16 - k)).denominator == 2
            out += [x, -x]
    return out


def test_float_rows_equal_percent_17g_on_edges():
    tiny = 5e-324
    edges = [0.0, -0.0, tiny, -tiny, math.inf, -math.inf, math.nan, -math.nan,
             2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
             1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e17, np.nextafter(1e17, 0),
             # decimal strings that round up to a power of ten, and exact ties
             # at 17 digits
             float("9.99999999999999999e16"), float("99999999999999999.5"),
             float("9.999999999999999999e-5"), float("0.99999999999999999"),
             2251799813685248.25, 2251799813685248.75, 1.00000762939453125, 0.5, 1.5, 2.5]
    for k in range(-5, 18):
        x = 10.0 ** k
        edges += [x, np.nextafter(x, 0), np.nextafter(x, math.inf),
                  np.nextafter(np.nextafter(x, 0), 0)]
    edges += [v * 2 ** -20 for v in range(1, 40)] + [float(n) for n in range(-20, 121)]
    edges += [float(n) * 10.0 ** e for n in (1, 12, 120, 1200) for e in range(-6, 16)]
    edges += _ties()
    edges += [-x for x in edges]
    _assert_formatted(edges)
    # the same values in rows of 1, 3 and 7 columns
    values = np.array(edges)
    for c in (1, 3, 7):
        rows = values[:len(values) // c * c].reshape(-1, c)
        want = b"".join(b"v" + b"".join(b" %.17g" % v for v in r) + b"\n" for r in rows.tolist())
        assert export._float_rows(rows, b"v ", b" ") == want


def test_float_rows_in_blocks(monkeypatch):
    values = np.random.default_rng(5).standard_normal((101, 3)) * 10.0 ** np.arange(-5, 16, 7)
    values[::7, 1] = 0.0
    want = b"".join(b"%.17g;%.17g;%.17g\n" % tuple(r) for r in values.tolist())
    for block in (1, 2, 3, 4, 50, 303, 10 ** 6):
        monkeypatch.setattr(export, "_BLOCK", block)
        assert export._float_rows(values, b"", b";") == want
    assert export._float_rows(np.empty((0, 3)), b"v ", b" ") == b""
    assert export._float_rows(np.empty((2, 0)), b"", b",") == b"\n\n"


def _obj_oracle(obj) -> bytes:
    """write_obj as `%` formatting writes it, one float at a time."""
    head = "# g3geom OBJ export\n"
    if isinstance(obj, TriMesh):
        v = "v %.17g %.17g %.17g\n" * len(obj.vertices) % tuple(obj.vertices.ravel().tolist())
        f = "f %d %d %d\n" * len(obj.faces) % tuple((obj.faces + 1).ravel().tolist())
        return (head + v + f).encode("ascii")
    v = ("v %.17g %.17g %.17g\n" * len(obj.vertices)
         % tuple(obj.vertices[:, 2:].ravel().tolist()))
    lines = []
    for a, b, c in export._chains(obj.offsets, obj.closed):
        idx = tuple(range(a + 1, b + 1)) + (a + 1,) * c
        lines.append("l " + " ".join(["%d"] * len(idx)) % idx + "\n")
    return (head + v + "".join(lines)).encode("ascii")


def test_obj_mesh_lines_in_blocks_equal_percent_formatting(plane, monkeypatch):
    big = tessellate(plane, 70, 70)  # 5,041 v lines and 9,800 f lines
    assert write_obj(big) == _obj_oracle(big)
    small = tessellate(plane, 7, 5)
    want = _obj_oracle(small)
    for block in (1, 2, 3, 4, 50):
        monkeypatch.setattr(export, "_BLOCK", block)
        assert write_obj(small) == want


def test_obj_writes_an_identically_zero_coordinate_as_0():
    """Whatever the sign of u1 + u2: a -0.0 of the expression is written 0."""
    surface = SurfaceSpec.from_strings("u1", "u2", "0*u1", ((-1, 1), (-1, 1)))
    iso = _lift(surface, np.array([-1.0, -0.5, 0.5]), np.array([-1.0, -1.0, 1.0]),
                np.array([3]), 0.0, ExtractStats((1, 2), 2))
    for obj in (tessellate(surface, 2, 2), iso):
        z = [line.split()[3] for line in write_obj(obj).splitlines() if line.startswith(b"v ")]
        assert z and set(z) == {b"0"}


def _csv_oracle(cols, rows) -> bytes:
    """write_csv's bytes as `%` formatting writes them."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cols)
    fmt = ",".join(["%.17g"] * len(rows[0])) + "\n" if rows else ""
    out.write(fmt * len(rows) % tuple(map(float, itertools.chain.from_iterable(rows))))
    return out.getvalue().encode("ascii")


def test_writers_equal_percent_formatting(plane, cylinder, cubic_curve, helix_trace):
    isosets = [iso for iso, _ in _wavy_and_ring()]
    isosets.append(extract(cylinder, IsophoteQuery.for_angle(GVec3(0, 0, 1), math.pi / 3,
                                                             grid=(64, 64))))
    for iso in isosets:
        assert write_obj(iso) == _obj_oracle(iso)
        rows = np.column_stack([np.repeat(np.arange(len(iso.closed)), np.diff(iso.offsets)),
                                iso.vertices]).tolist()
        assert write_csv(iso) == _csv_oracle(("polyline", "u1", "u2", "x", "y", "z"), rows)
    for mesh in (tessellate(plane, 7, 5), tessellate(cylinder, 33, 65),
                 TriMesh([(0.0, -0.0, 1e-300), (1e17, -1e20, 123.456), (5e-324, 0.1, -2.5)],
                         [(0, 1, 2)], (1, 1))):
        assert write_obj(mesh) == _obj_oracle(mesh)
    frenet = frenet_samples(cubic_curve, np.linspace(0.0, 2.0, 9))
    assert write_csv(frenet) == _csv_oracle(("s", "kappa", "tau"),
                                            [(x.s, x.kappa, x.tau) for x in frenet])
    darboux = darboux_samples(cylinder, helix_trace, np.linspace(0.0, 1.0, 9))
    assert write_csv(darboux) == _csv_oracle(
        ("s", "kg", "kn", "taug", "phi"), [(x.s, x.kg, x.kn, x.tau_g, x.phi) for x in darboux])
    mapping = [{"a": math.nan, "b": -math.inf, "c": -0.0}, {"a": 1, "b": True, "c": 1e-7},
               {"a": np.float32(0.1), "b": 3, "c": Fraction(1, 3)}]
    assert write_csv(mapping) == _csv_oracle(("a", "b", "c"),
                                             [tuple(r.values()) for r in mapping])
    assert write_csv([]) == _csv_oracle((), [])
