"""Seeded inputs for the benchmark workloads.

Only the scene documents and the call sizes built here reach g3geom.  Each
job also carries a `truth` dict: the closed-form parameters the output
checks in jobs.py compute their expected values from.  `truth` never goes
to g3geom, so a check compares g3geom against numpy, not against itself.

The same (workload, seed, size, stream) always gives the same jobs.  The
warm-up, timed and reference passes draw from separate streams, so no
timed job repeats an input the process has already seen.  Jobs are made
one at a time as the loop asks for them, so no pool of inputs sits in
memory while g3geom runs.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

TWO_PI = 2.0 * math.pi

WORKLOADS = ("iso_large", "iso_small", "frames", "revolve_mesh")

# Input sizes.  "tiny" only exists so the smoke test runs in seconds.
SIZES = {
    "full": {"iso_large_grid": 1024, "iso_small_grid": (16, 64),
             "frames_samples": 512, "frames_points": 8, "mesh": 256},
    "tiny": {"iso_large_grid": 32, "iso_small_grid": (8, 12),
             "frames_samples": 24, "frames_points": 2, "mesh": 8},
}

WARMUP = {"iso_large": 3, "iso_small": 3, "frames": 8, "revolve_mesh": 4}

# An iso_small job is a batch of this many extractions, eight per family.  A
# single small extraction takes about 10 ms, so a stall of the host of a few
# tens of ms would decide the tail of a loop of single extractions.  At 32 a
# job takes about as long as an iso_large job, a 50 s run has about 110 jobs,
# and the tail (ten jobs beyond) is near p90 on both workloads.
BATCH = 32


def _axis(phi: float) -> list[float]:
    """Unit isotropic axis (0, sin phi, cos phi)."""
    return [0.0, math.sin(phi), math.cos(phi)]


def wavy(rng: random.Random, grid: int) -> dict:
    """Height field z = amp sin(a u1) cos(b u2) over [0, 2 pi]^2, cut at a
    seeded raw level of a slightly tilted isotropic axis: closed curves."""
    p = {"amp": rng.uniform(0.9, 1.1), "a": rng.uniform(2.5, 3.5),
         "b": rng.uniform(2.5, 3.5)}
    phi, level = rng.uniform(0.0, 0.3), rng.uniform(0.4, 0.7)
    scene = {"surfaces": {"S": {"x": "u1", "y": "u2",
                                "z": "amp*sin(a*u1)*cos(b*u2)",
                                "domain": [[0.0, TWO_PI], [0.0, TWO_PI]],
                                "params": p}},
             "axes": {"d": _axis(phi)}}
    return {"kind": "wavy", "scene": scene, "grid": grid, "level": level,
            "truth": {**p, "phi": phi, "level": level}}


def cylinder(rng: random.Random, grid: int) -> dict:
    """Cylinder of seeded radius under the axis (0, 0, 1) at angle beta:
    the isophotes are the rulings u2 = beta and 2 pi - beta."""
    r, length = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)
    beta = rng.uniform(0.4, 1.2)
    scene = {"surfaces": {"S": {"x": "u1", "y": "r*sin(u2)", "z": "r*cos(u2)",
                                "domain": [[0.0, length], [0.0, TWO_PI]],
                                "params": {"r": r}}},
             "axes": {"d": _axis(0.0)}}
    return {"kind": "cylinder", "scene": scene, "grid": grid, "beta": beta,
            "truth": {"r": r, "phi": 0.0, "beta": beta}}


def _profile_params(rng: random.Random) -> dict:
    """g(s) = p0 + p1 s^2 + p2 sin(w s) with p0 > p2 >= 0, so g > 0."""
    return {"p0": rng.uniform(1.0, 2.0), "p1": rng.uniform(0.0, 0.5),
            "p2": rng.uniform(0.0, 0.3), "w": rng.uniform(1.0, 3.0)}


PROFILE_G = "p0 + p1*s^2 + p2*sin(w*s)"


def revolution(rng: random.Random, grid: int) -> dict:
    """Euclidean revolution of a seeded profile.  Its normal is
    (0, sin t, cos t), so under the axis (0, sin phi, cos phi) at angle
    beta the isophotes are the parallels t = phi + beta and phi - beta."""
    p = _profile_params(rng)
    s0, s1 = rng.uniform(0.05, 0.2), rng.uniform(1.5, 2.5)
    phi, beta = rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2)
    scene = {"profiles": {"P": {"g": PROFILE_G, "domain": [s0, s1],
                                "mode": "euclidean", "params": p}},
             "axes": {"d": _axis(phi)}}
    return {"kind": "revolution", "scene": scene, "grid": grid, "beta": beta,
            "truth": {**p, "phi": phi, "beta": beta}}


def quadratic(rng: random.Random, grid: int) -> dict:
    """Isotropic revolution of g = s^2/(2c) + A: the shading field under
    (0, 0, 1) is 1/sqrt(2) everywhere, so extraction takes the
    constant-field early return."""
    c, shift = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    beta = rng.uniform(0.4, 1.2)
    scene = {"profiles": {"P": {"g": "s^2/(2*cc) + AA", "domain": [0.001, 5.0],
                                "mode": "isotropic", "c": c,
                                "params": {"cc": c, "AA": shift}}},
             "axes": {"d": _axis(0.0)}}
    return {"kind": "quadratic", "scene": scene, "grid": grid, "beta": beta,
            "truth": {"value": 1.0 / math.sqrt(2.0)}}


def frames(rng: random.Random, samples: int, points: int) -> dict:
    """A polynomial curve and a transcendental surface/trace pair.

    Curve: f = c2 s^2 + c3 s^3 + c4 s^4 with c2 > 0 and c3, c4 >= 0 on
    s >= 0, so f'' > 0 and the Frenet frame exists everywhere.
    Surface X = (u1, r sin u2 + a sin u1, r cos u2 + a cos u1) has
    omega = r; the trace (s, w s + p sin(q s)) keeps u2' >= w - p q > 1,
    which keeps the induced curvature above r - a > 0.
    """
    cp = {"c2": rng.uniform(0.5, 1.5), "c3": rng.uniform(0.0, 0.5),
          "c4": rng.uniform(0.0, 0.2), "d1": rng.uniform(-1.0, 1.0),
          "d2": rng.uniform(-1.0, 1.0), "d3": rng.uniform(-0.5, 0.5)}
    length = rng.uniform(1.0, 2.0)
    sp = {"r": rng.uniform(1.0, 2.0), "a": rng.uniform(0.0, 0.5)}
    tp = {"w": rng.uniform(1.5, 2.5), "p": rng.uniform(0.0, 0.2),
          "q": rng.uniform(1.0, 2.0)}
    trace_len = rng.uniform(1.0, 3.0)
    scene = {
        "curves": {"C": {"f": "c2*s^2 + c3*s^3 + c4*s^4",
                         "g": "d1*s + d2*s^2 + d3*s^3",
                         "domain": [0.0, length], "params": cp}},
        "surfaces": {"S": {"x": "u1", "y": "r*sin(u2) + a*sin(u1)",
                           "z": "r*cos(u2) + a*cos(u1)",
                           "domain": [[0.0, trace_len], [-1.0, 10.0]],
                           "params": sp}},
        "traces": {"T": {"u1": "s", "u2": "w*s + p*sin(q*s)",
                         "domain": [0.0, trace_len], "params": tp}},
        "axes": {"d": _axis(0.0)},
    }
    return {"kind": "frames", "scene": scene, "samples": samples,
            "curve_points": sorted(rng.uniform(0.0, length) for _ in range(points)),
            "trace_points": sorted(rng.uniform(0.0, trace_len) for _ in range(points)),
            "truth": {**cp, **sp, **tp}}


def mesh(n: int, profile: dict, mode: str) -> dict:
    """One rotation of a seeded profile, tessellated n x n."""
    p, (s0, s1), c = profile["params"], profile["domain"], profile["c"]
    scene = {"profiles": {"P": {"g": PROFILE_G, "domain": [s0, s1],
                                "mode": mode, "c": c, "params": p}}}
    return {"kind": mode, "scene": scene, "mesh": n,
            "truth": {**p, "s0": s0, "s1": s1, "c": c}}


def stream(workload: str, seed: int, size: str = "full",
           name: str = "timed") -> Iterator[dict]:
    """The endless job sequence of one stream of a workload.

    Families go round-robin in a fixed order, so every run has the same
    mix whatever its length; only their parameters are drawn.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[size]
    rng = random.Random(f"{workload}/{seed}/{size}/{name}")
    profile: dict = {}
    for k in itertools.count():
        if workload == "iso_large":
            yield (wavy, cylinder, revolution)[k % 3](rng, sz["iso_large_grid"])
        elif workload == "iso_small":
            fams = (wavy, cylinder, revolution, quadratic)
            yield {"kind": "batch",
                   "parts": [fams[i % 4](rng, rng.randint(*sz["iso_small_grid"]))
                             for i in range(BATCH)]}
        elif workload == "frames":
            yield frames(rng, sz["frames_samples"], sz["frames_points"])
        else:
            # each profile is revolved by both rotations, in consecutive jobs
            if k % 2 == 0:
                profile = {"params": _profile_params(rng),
                           "domain": [rng.uniform(0.05, 0.2), rng.uniform(1.5, 2.5)],
                           "c": rng.uniform(0.5, 2.0)}
            yield mesh(sz["mesh"], profile, "euclidean" if k % 2 == 0 else "isotropic")


def build(workload: str, seed: int, size: str = "full", name: str = "warm",
          count: int | None = None) -> list[dict]:
    """The first `count` jobs of a stream; by default the warm-up pass."""
    n = WARMUP[workload] if count is None else count
    return list(itertools.islice(stream(workload, seed, size, name), n))
