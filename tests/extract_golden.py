"""Writer outputs pinned by `tests/golden/extract.json` and
`tests/golden/export.json`.

Each extraction case records the SHA-256 of the OBJ, SVG and CSV bytes of
one `extract` result and its `to_json_dict()["stats"]`.  Each export case
records the SHA-256 of one writer call on a tessellation, a sample table or
a hand-made polyline set.  `test_golden.py` compares fresh runs with the
committed files; running this module writes both files again:

    PYTHONPATH=src python tests/extract_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from g3geom import (
    CurveSpec,
    GVec3,
    IsophoteQuery,
    ProfileSpec,
    SurfaceSpec,
    TraceSpec,
    darboux_samples,
    extract,
    frenet_samples,
    normalize_axis,
    revolve_euclidean,
    revolve_isotropic,
    tessellate,
    write_csv,
    write_obj,
    write_svg,
)
from g3geom.export import TriMesh
from g3geom.isophote import ExtractStats, IsophoteSet

GOLDEN = Path(__file__).parent / "golden" / "extract.json"
EXPORT_GOLDEN = Path(__file__).parent / "golden" / "export.json"

TWO_PI = 2.0 * math.pi
Z_AXIS = GVec3(0.0, 0.0, 1.0)
Y_AXIS = GVec3(0.0, 1.0, 0.0)
WAVY_AXIS = normalize_axis(GVec3(0.0, 0.2, 1.0))


def _wavy():
    return SurfaceSpec.from_strings("u1", "u2", "0.8*sin(3*u1)*cos(3*u2)",
                                    ((0.0, TWO_PI), (0.0, TWO_PI)))


def _cylinder():
    return SurfaceSpec.from_strings("u1", "sin(u2)", "cos(u2)",
                                    ((0.0, 2.0), (0.0, TWO_PI)))


def _saddle():
    return SurfaceSpec.from_strings("u1", "u2", "-sin(u1)*cos(u2)",
                                    ((0.5, 0.5 + TWO_PI), (0.5, 0.5 + TWO_PI)))


def _singular():
    # omega vanishes along u1 = 0 inside the domain
    surf = revolve_isotropic(ProfileSpec.from_string("s^2/2", (1e-3, 2.0)))
    return SurfaceSpec(surf.x, surf.y, surf.z, ((-1.0, 2.0), (-1.0, 1.0)),
                       surf.parameters)


def _plain(surface):
    """The surface without its closed-form normal."""
    return SurfaceSpec(surface.x, surface.y, surface.z, surface.domain, surface.parameters)


def _failed_edges():
    # z_u2 is NaN for |u1| < 0.1, between the grid nodes: the edges across
    # that strip fail to refine, while the level line near u1 = 0.5 does not
    return SurfaceSpec.from_strings(
        "u1", "u2", "(u2 + 0.2*u2^3)*(u1 + sqrt(u1^2 - 0.01))*(u1 - 0.5 + 0.2*u2)",
        ((-1.0, 1.0), (-1.0, 1.0)))


# name -> () -> (surface, query)
CASES = {
    "wavy_17": lambda: (_wavy(), IsophoteQuery.raw_level(WAVY_AXIS, 0.5, (17, 17))),
    "wavy_256": lambda: (_wavy(), IsophoteQuery.raw_level(WAVY_AXIS, 0.5, (256, 256))),
    "cylinder_beta_pi_3": lambda: (
        _cylinder(), IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, (256, 256))),
    # the revolution as a plain SurfaceSpec, whose field reads the partials
    "euclidean_revolution": lambda: (
        _plain(revolve_euclidean(ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0)))),
        IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, (64, 64))),
    # and with its closed-form normal, a field of u2 alone
    "euclidean_revolution_normal": lambda: (
        revolve_euclidean(ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))),
        IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, (64, 64))),
    "saddle_silhouette_31": lambda: (
        _saddle(), IsophoteQuery.for_silhouette(Y_AXIS, (31, 31))),
    "singular_cells_24": lambda: (
        _singular(), IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, (24, 24))),
    "failed_edges_9": lambda: (
        _failed_edges(), IsophoteQuery.for_silhouette(Y_AXIS, (9, 9))),
    "constant_field_quadratic": lambda: (
        revolve_isotropic(ProfileSpec.from_string("s^2/2", (1e-3, 3.0))),
        IsophoteQuery.for_angle(Z_AXIS, math.pi / 4, (32, 32))),
    # 725^2 samples, so the field grid runs in many row blocks; the name
    # is kept from when grids this large were split over threads
    "wavy_724_threaded": lambda: (
        _wavy(), IsophoteQuery.raw_level(WAVY_AXIS, 0.5, (724, 724))),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(name: str) -> dict:
    """Digests of the written outputs and the stats of one case."""
    surface, query = CASES[name]()
    iso = extract(surface, query)
    return {"obj": _sha(write_obj(iso)),
            "svg": _sha(write_svg(iso, surface.domain)),
            "csv": _sha(write_csv(iso)),
            "stats": iso.to_json_dict()["stats"]}


def _plane():
    return SurfaceSpec.from_strings("u1", "u2", "0", ((-1.0, 3.0), (-1.0, 6.0)))


def _frenet():
    curve = CurveSpec.from_strings("s^2/2", "s^3/6", (0.0, 2.0))
    return frenet_samples(curve, np.linspace(0.0, 2.0, 25))


def _darboux():
    trace = TraceSpec.from_strings("s", "s", (0.0, 2.0))
    return darboux_samples(_cylinder(), trace, np.linspace(0.0, 2.0, 25))


# field values the writers must print exactly as format(float(v), ".17g")
_SPECIAL = [0.0, -0.0, 1.0, -2.5, 1 / 3, 5e-324, 2.2250738585072014e-308,
            1e300, -1e-300, float("inf"), float("-inf"), float("nan"),
            np.float64(0.1), 7, 123456789012345678]


def _mapping_rows():
    return [{"u1": v, "field": _SPECIAL[-1 - k], "extra": k}
            for k, v in enumerate(_SPECIAL)]


def _handmade_set():
    # an empty, a one-point closed and a closed polyline with signed zeros
    pts = [(0.0, -0.0, -0.0, 1e-320, 2.0), (1.5, 2.0, 1 / 3, -1e300, 0.1),
           (6.25, 0.5, 7.0, float("inf"), -2.5)]
    return IsophoteSet([pts[1], *pts], [0, 0, 1, 4], [False, True, True], 0.25, None,
                       ExtractStats(grid=(2, 2), cells_total=4))


def _empty_set():
    return IsophoteSet(np.empty((0, 5)), [0], [], 0.25, None,
                       ExtractStats(grid=(2, 2), cells_total=4))


# name -> () -> bytes
EXPORT_CASES = {
    "obj_plane_1x1": lambda: write_obj(tessellate(_plane(), 1, 1)),
    "obj_cylinder_2x4": lambda: write_obj(tessellate(_cylinder(), 2, 4)),
    "obj_wavy_7x300": lambda: write_obj(tessellate(_wavy(), 7, 300)),
    "obj_isotropic_revolution_64": lambda: write_obj(tessellate(
        revolve_isotropic(ProfileSpec.from_string("s^2/2", (1e-3, 5.0), c=1.0)), 64, 64)),
    "obj_trimesh_from_tuples": lambda: write_obj(TriMesh(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, -0.0, 1e-310)],
        [(0, 1, 2), (1, 3, 2)], (1, 1))),
    "obj_polyline_list": lambda: write_obj(_handmade_set()),
    "obj_empty": lambda: write_obj(_empty_set()),
    "csv_frenet": lambda: write_csv(_frenet()),
    "csv_frenet_two_columns": lambda: write_csv(_frenet(), columns=("s", "kappa")),
    "csv_darboux": lambda: write_csv(_darboux()),
    "csv_mapping_columns": lambda: write_csv(_mapping_rows(), columns=("field", "u1")),
    "csv_mapping_sorted_keys": lambda: write_csv(_mapping_rows()),
    "csv_isophote_three_columns": lambda: write_csv(_handmade_set(), columns=("a", "b,c", "d")),
    "csv_handmade_set": lambda: write_csv(_handmade_set()),
    "csv_empty": lambda: write_csv([]),
    "csv_empty_columns": lambda: write_csv([], columns=("u1", "field")),
    "svg_handmade_set": lambda: write_svg(_handmade_set(), ((0, 8), (-1.0, 3.0))),
}


def record_export(name: str) -> str:
    """Digest of the bytes one export case writes."""
    return _sha(EXPORT_CASES[name]())


if __name__ == "__main__":
    for path, cases, rec in ((GOLDEN, CASES, record),
                             (EXPORT_GOLDEN, EXPORT_CASES, record_export)):
        doc = {name: rec(name) for name in cases}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(doc)} cases to {path}")
