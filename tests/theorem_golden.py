"""Theorem reports pinned by `tests/golden/theorems.json`.

Each case is one `verify_theorems` call; it records the SHA-256 of all
eight of its reports (hypothesis, conclusion and details), or of the
error it raised.  The cases are the scenarios of `verify`'s theorem
checks, then every surface of `SURFACES` with every trace of `TRACES`
and every config of `CONFIGS`.  `test_golden.py` compares fresh runs with
the committed file; running this module writes it again:

    PYTHONPATH=src python tests/theorem_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from g3geom import GVec3, TheoremConfig, verify_theorems
from g3geom.verify import _THEOREMS, _trace, cylinder_surface, parabolic_cylinder, plane_surface

GOLDEN = Path(__file__).parent / "golden" / "theorems.json"

SURFACES = {
    "plane": plane_surface,
    "parabolic_cylinder_+1": lambda: parabolic_cylinder(+1.0),
    "parabolic_cylinder_-1": lambda: parabolic_cylinder(-1.0),
    "cylinder": cylinder_surface,
}
TRACES = (("s", "2*s"), ("s", "s^2/2"), ("s", "0"), ("s", "s"), ("s", "0.8*s"))
CONFIGS = {
    "theta=0": TheoremConfig(theta=0.0),
    "theta=pi/4": TheoremConfig(theta=math.pi / 4),
    "theta=2": TheoremConfig(theta=2.0),
    "phi=0.5": TheoremConfig(phi_measure=0.5),
    "theta=0.3,phi=0.5": TheoremConfig(theta=0.3, phi_measure=0.5),
    "axis=0,1,0": TheoremConfig(axis=GVec3(0.0, 1.0, 0.0)),
    "axis=1,0.7,0": TheoremConfig(axis=GVec3(1.0, 0.7, 0.0)),
    "none": TheoremConfig(),
}

# name -> (surface builder, trace (u1, u2), config)
CASES = {f"verify/{name}": (surface, trace, config)
         for name, surface, trace, config in _THEOREMS}
CASES.update((f"{sname}/{','.join(trace)}/{cname}", (surface, trace, config))
             for sname, surface in SURFACES.items()
             for trace in TRACES
             for cname, config in CONFIGS.items())


def _encode(value):
    # a value json cannot write (a numpy bool, say) keeps its type in the digest
    return f"{type(value).__name__}:{value!r}"


def record(name: str) -> str:
    """Digest of the eight reports of one case, or of the error it raised."""
    surface, trace, config = CASES[name]
    try:
        reports = verify_theorems(surface(), _trace(*trace), config)
    except Exception as e:  # noqa: BLE001 - the error is what is pinned
        doc = {"error": type(e).__name__, "message": str(e)}
    else:
        doc = {key: [r.name, r.hypothesis_met, r.conclusion_verified, r.details]
               for key, r in reports.items()}
        doc["order"] = list(reports)
    text = json.dumps(doc, sort_keys=True, default=_encode)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    doc = {name: record(name) for name in CASES}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
