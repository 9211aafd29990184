"""Print what the compiled tapes of perfbench's surface families run.

    python3 tools/tape_ops.py

For each family that perfbench's isophote workloads extract on (wavy,
cylinder, Euclidean revolution, isotropic quadratic revolution) one
surface is drawn from `perfbench/gen.py` with seed 1 and loaded as the
benchmark loads it.  For its coordinate tape (`expr.first_partials`,
`sample_surface`), its values tape (`surface._coordinate_values`, the lift
and `tessellate`) and its field tape (`isophote._field_block`, the field
grid and the refinement) the table gives `expr.TapeOps`: the
operations one call runs, those of them on the full grid when the
operands are a column and a row, and the most temporaries alive at once.
The field tape's count leaves out the two full-grid operations of the
omega mask, which runs outside it.  Both tapes are compiled with
check=False, as `extract` runs them.
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
from g3geom.surface import _values  # noqa: E402
from g3geom.surfrev import revolve_euclidean, revolve_isotropic  # noqa: E402

FAMILIES = ("wavy", "cylinder", "revolution", "quadratic")
SEED = 1


def surface_of(kind: str, seed: int):
    """The surface of one generated part of the family, as perfbench builds it."""
    scene = load_scene_dict(getattr(gen, kind)(random.Random(seed), 16)["scene"])
    if "S" in scene.surfaces:
        return scene.surfaces["S"]
    entry = scene.profiles["P"]
    revolve = revolve_euclidean if entry.mode == "euclidean" else revolve_isotropic
    return revolve(entry.profile)


def tapes(surface) -> dict:
    asts = (surface.x, surface.y, surface.z)
    return {"coordinate": expr._compiled(asts, False),
            "values": expr._compiled(asts, False, _values),
            "field": expr._compiled(asts, False, isophote._shading, 2)}


def main() -> int:
    print(f"{'family':<11} {'tape':<10} {'operations':>10} {'full grid':>9} {'peak live':>9}")
    for kind in FAMILIES:
        for name, tape in tapes(surface_of(kind, SEED)).items():
            ops = tape.ops
            print(f"{kind:<11} {name:<10} {ops.operations:>10} {ops.full_grid:>9} "
                  f"{ops.peak_live:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
