"""Interleaved before/after runs of perfbench, written as one BENCH file.

    python3 tools/bench_pairs.py --before DIR --after DIR \\
        --workload iso_large --workload iso_small --seeds 61-70 \\
        --trace-seed 61 --out BENCH_6.json

DIR is a source tree (a git checkout) that holds perfbench/run.py.  For
each workload and seed the two trees run `perfbench/run.py --workload W
--seed N --seconds S --trace 0` one after the other; the side that runs
first alternates from seed to seed, so a slow minute of the host falls on
both sides alike.  --trace-seed adds one traced pair (--trace 1) per
workload.  The output holds the host, Python and numpy versions, both
commits, the seeds, every run's JSON line, and per side the median and
quartiles of each metric; for each metric it counts the pairs the after
side won.  The file is rewritten after every run, so an interrupted
session keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

SIDES = ("before", "after")


def _commit(tree: Path) -> str | None:
    got = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return got.stdout.strip() or None


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    t0 = time.time()
    got = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    line = json.loads(got.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "started": t0,
            "wall_s": time.time() - t0, "result": line}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, and how
    many pairs the after side won."""
    out: dict[str, dict] = {}
    pairs: dict[tuple, dict] = {}
    for r in runs:
        if r["trace"] == 0:
            pairs.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r["result"]
    for (workload, _), pair in sorted(pairs.items()):
        if len(pair) < 2:
            continue
        wl = out.setdefault(workload, {"pairs": 0, "failed": 0, "metrics": {}})
        wl["pairs"] += 1
        wl["failed"] += sum(p["failed"] for p in pair.values())
        for name, entry in pair["before"]["metrics"].items():
            m = wl["metrics"].setdefault(name, {"unit": entry["unit"], "values": {s: [] for s in SIDES},
                                                "after_wins": 0})
            b, a = entry["value"], pair["after"]["metrics"][name]["value"]
            m["values"]["before"].append(b)
            m["values"]["after"].append(a)
            if (a > b) if better.get(name) == "higher" else (a < b):
                m["after_wins"] += 1
    for wl in out.values():
        for m in wl["metrics"].values():
            vals = m.pop("values")
            for side in SIDES:
                m[side] = _quartiles(vals[side])
            m["median_diff"] = m["after"]["median"] - m["before"]["median"]
            m["before_iqr"] = m["before"]["q3"] - m["before"]["q1"]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, type=Path)
    ap.add_argument("--after", required=True, type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="one seed N or a range N-M")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((trees["after"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    doc = {
        "host": {"machine": platform.machine(), "system": platform.system(),
                 "release": platform.release(), "processor": platform.processor(),
                 "cpus": len(os.sched_getaffinity(0))},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commits": {s: _commit(t) for s, t in trees.items()},
        "command": "perfbench/run.py --workload W --seed N --seconds "
                   f"{args.seconds:g} --trace 0",
        "workloads": args.workload, "seeds": _seeds(args.seeds),
        "trace_seed": args.trace_seed, "runs": [], "summary": {},
    }
    plan = []
    for workload in args.workload:
        for i, seed in enumerate(doc["seeds"]):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            plan += [(side, workload, seed, 0) for side in order]
        if args.trace_seed is not None:
            plan += [(side, workload, args.trace_seed, 1) for side in SIDES]
    for side, workload, seed, trace in plan:
        run = _run(trees[side], workload, seed, args.seconds, trace)
        doc["runs"].append({"side": side, **run})
        doc["summary"] = summarize(doc["runs"], better)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{side:6s} {workload} seed {seed} trace {trace}: "
              f"{json.dumps(run['result']['metrics'])[:160]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
