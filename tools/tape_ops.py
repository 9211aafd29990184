"""Print what the compiled tapes of perfbench's surface families run.

    python3 tools/tape_ops.py

For each family that perfbench's isophote workloads extract on (wavy,
cylinder, Euclidean revolution, isotropic quadratic revolution) one
surface is drawn from `perfbench/gen.py` with seed 1 and loaded as the
benchmark loads it.  Every tape is an `expr.on_partials` tape.  For its
sample tape (`surface._sample_parts`, `sample_surface`), its values tape
(`surface._coordinate_values`, the lift and `tessellate`), its field
tape (`isophote._field_block`, the field grid and the refinement) and its
Darboux tape (`surface._darboux_parts`, `darboux` and every caller of
`surface._darboux_arrays`) the table gives `expr.TapeOps`: the operations
one call runs, those of them on the full grid when the operands are a
column and a row, and the most temporaries alive at once.  The field
tape's count leaves out the two full-grid operations of the omega mask,
which runs outside it.  The Euclidean revolution adds its profile tape
(`curve._values` of g, the g > 0 check of `revolve_euclidean`), a
univariate tape whose full-grid count is its operations on the whole
sample array of s, and its normal tape (`isophote._normal_shading` on the
closed-form normal of `SurfaceSpec.normal`), which gives its field in place
of the field tape wherever the closed form holds.  The values, field, normal and profile tapes are compiled with
check=False, as `extract` and `revolve_euclidean` run them, and the
sample and Darboux tapes with check=True, as `sample_surface` and
`darboux` run them (so their domain tests count as operations).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # write no __pycache__ into perfbench/
sys.path.insert(0, str(HERE / "src"))
sys.path.insert(0, str(HERE / "perfbench"))

import gen  # noqa: E402

from g3geom import expr, isophote, load_scene_dict  # noqa: E402
from g3geom.curve import _values  # noqa: E402
from g3geom.surface import _darboux_parts, _sample_parts  # noqa: E402
from g3geom.surfrev import revolve_euclidean, revolve_isotropic  # noqa: E402

FAMILIES = ("wavy", "cylinder", "revolution", "quadratic")
SEED = 1


def part_of(kind: str, seed: int):
    """The surface of one generated part of the family, as perfbench builds
    it, and the profile a Euclidean revolution checks (else None)."""
    scene = load_scene_dict(getattr(gen, kind)(random.Random(seed), 16)["scene"])
    if "S" in scene.surfaces:
        return scene.surfaces["S"], None
    entry = scene.profiles["P"]
    if entry.mode == "euclidean":
        return revolve_euclidean(entry.profile), entry.profile
    return revolve_isotropic(entry.profile), None


def tapes(surface, profile=None) -> dict:
    asts = (surface.x, surface.y, surface.z)
    out = {"sample": expr._compiled(asts, True, _sample_parts, 0),
           "values": expr._compiled(asts, False, _values, 0),
           "field": expr._compiled(asts, False, isophote._shading, 2),
           "darboux": expr._compiled(asts, True, _darboux_parts, 4)}
    if surface.normal is not None:
        out["normal"] = expr._compiled(surface.normal, False, isophote._normal_shading, 2)
    if profile is not None:
        out["profile"] = expr._compiled((profile.g,), False, _values, 0)
    return out


def main() -> int:
    print(f"{'family':<11} {'tape':<10} {'operations':>10} {'full grid':>9} {'peak live':>9}")
    for kind in FAMILIES:
        for name, tape in tapes(*part_of(kind, SEED)).items():
            ops = tape.ops
            print(f"{kind:<11} {name:<10} {ops.operations:>10} {ops.full_grid:>9} "
                  f"{ops.peak_live:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
