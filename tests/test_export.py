import math
from xml.etree import ElementTree as ET

import numpy as np
import pytest

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
from g3geom.export import TriMesh


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

    empty = write_obj([])
    assert empty == b"# g3geom OBJ export\n"


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
