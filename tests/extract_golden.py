"""Extraction cases pinned by `tests/golden/extract.json`.

Each case records the SHA-256 of the OBJ, SVG and CSV bytes of one
`extract` result and its `to_json_dict()["stats"]`.  `test_golden.py`
compares a fresh run with the committed file; running this module writes
the file again:

    PYTHONPATH=src python tests/extract_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from g3geom import (
    GVec3,
    IsophoteQuery,
    ProfileSpec,
    SurfaceSpec,
    extract,
    normalize_axis,
    revolve_euclidean,
    revolve_isotropic,
    write_csv,
    write_obj,
    write_svg,
)

GOLDEN = Path(__file__).parent / "golden" / "extract.json"

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


def _failed_edges():
    # z_u2 is NaN for |u1| < 0.1, between the grid nodes: the edges across
    # that strip fail to refine, while the level line near u1 = 0.5 does not
    return SurfaceSpec.from_strings(
        "u1", "u2", "(u2 + 0.2*u2^3)*(u1 + sqrt(u1^2 - 0.01))*(u1 - 0.5 + 0.2*u2)",
        ((-1.0, 1.0), (-1.0, 1.0)))


# name -> () -> (surface, query, workers)
CASES = {
    "wavy_17": lambda: (_wavy(), IsophoteQuery.raw_level(WAVY_AXIS, 0.5, (17, 17)), None),
    "wavy_256": lambda: (_wavy(), IsophoteQuery.raw_level(WAVY_AXIS, 0.5, (256, 256)), None),
    "cylinder_beta_pi_3": lambda: (
        _cylinder(), IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, (256, 256)), None),
    "euclidean_revolution": lambda: (
        revolve_euclidean(ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))),
        IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, (64, 64)), None),
    "saddle_silhouette_31": lambda: (
        _saddle(), IsophoteQuery.for_silhouette(Y_AXIS, (31, 31)), None),
    "singular_cells_24": lambda: (
        _singular(), IsophoteQuery.for_angle(Z_AXIS, math.pi / 3, (24, 24)), None),
    "failed_edges_9": lambda: (
        _failed_edges(), IsophoteQuery.for_silhouette(Y_AXIS, (9, 9)), None),
    "constant_field_quadratic": lambda: (
        revolve_isotropic(ProfileSpec.from_string("s^2/2", (1e-3, 3.0))),
        IsophoteQuery.for_angle(Z_AXIS, math.pi / 4, (32, 32)), None),
    # 725^2 samples: at least 2^19, so the field grid is split over threads
    "wavy_724_threaded": lambda: (
        _wavy(), IsophoteQuery.raw_level(WAVY_AXIS, 0.5, (724, 724)), 2),
}


def record(name: str) -> dict:
    """Digests of the written outputs and the stats of one case."""
    surface, query, workers = CASES[name]()
    iso = extract(surface, query, workers=workers)

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {"obj": sha(write_obj(iso)),
            "svg": sha(write_svg(iso, surface.domain)),
            "csv": sha(write_csv(iso)),
            "stats": iso.to_json_dict()["stats"]}


if __name__ == "__main__":
    doc = {name: record(name) for name in CASES}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
