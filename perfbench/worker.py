"""Runs one workload in a process of its own and reports what it measured.

run.py starts this script; the process it runs in is the one whose peak
memory the benchmark reports.  With --setup-only it imports g3geom, builds
the workload's warm-up inputs, prints "ready" and exits, which is what
setup_s times.  Otherwise it prints one JSON line with the measurements.

Untraced run: a warm-up pass, then a closed loop with one client for
--seconds: each job starts when the previous one and its check are done.
A job's clock runs only while the job runs; its check runs after.

Traced run: the same warm-up, then for half of --seconds each job twice,
untraced and with spans on.  The difference in job time between the two
is the tracing overhead.  Probes then time single layers on the first
jobs' inputs, and a few reference jobs of the workloads that own the
layers this workload never calls give those layers a value too.  The spans
are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import g3geom  # noqa: E402
import g3geom.cli  # noqa: E402,F401  (setup_s covers the CLI import too)
import numpy as np  # noqa: E402
from g3geom.isophote import worker_count  # noqa: E402

import gen  # noqa: E402
import jobs  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

PROBE_JOBS = 9    # traced jobs whose inputs the layer probes reuse
REF_JOBS = 3      # traced reference jobs per owning workload

# Per-layer metrics.  ("mean", span, scale): mean span duration, scaled;
# ("per_point", span): total duration over total work, in ns;
# ("count", counter): mean counter value per job.
LAYERS = {
    "isophote.extract_ms": ("mean", "isophote.extract", 1e3),
    "isophote.extract_self_ms": ("self", "isophote.extract", "isophote.field_grid"),
    "isophote.refine_evals": ("count", "isophote.refine_evals"),
    "isophote.refine_evals_per_edge": ("ratio", "isophote.refine_evals",
                                       "isophote.refined_edges"),
    "isophote.refined_edges": ("count", "isophote.refined_edges"),
    "isophote.failed_edges": ("count", "isophote.failed_edges"),
    "isophote.cells_crossing": ("count", "isophote.cells_crossing"),
    "isophote.vertices": ("count", "isophote.vertices"),
    "isophote.vertices_over_tol": ("count", "isophote.vertices_over_tol"),
    "isophote.field_grid_ms": ("mean", "isophote.field_grid", 1e3),
    "isophote.field_grid_ns_per_point": ("per_point", "isophote.field_grid"),
    "expr.eval_jet2_ns_per_point": ("per_point", "expr.eval_jet2"),
    "expr.eval_jet_ns_per_point": ("per_point", "expr.eval_jet"),
    "expr.parse_us": ("mean", "expr.parse", 1e6),
    "surface.induced_curve_us": ("mean", "surface.induced_curve", 1e6),
    "scene.load_ms": ("mean", "scene.load", 1e3),
    "curve.frenet_samples_ms": ("mean", "curve.frenet_samples", 1e3),
    "curve.frenet_us": ("mean", "curve.frenet", 1e6),
    "surface.darboux_samples_ms": ("mean", "surface.darboux_samples", 1e3),
    "surface.darboux_us": ("mean", "surface.darboux", 1e6),
    "surface.classify_trace_ms": ("mean", "surface.classify_trace", 1e3),
    "surface.verify_theorems_ms": ("mean", "surface.verify_theorems", 1e3),
    "surfrev.revolve_ms": ("mean", "surfrev.revolve", 1e3),
    "export.tessellate_ms": ("mean", "export.tessellate", 1e3),
    "export.write_obj_ms": ("mean", "export.write_obj", 1e3),
    "export.obj_bytes": ("count", "export.obj_bytes"),
    "export.write_svg_ms": ("mean", "export.write_svg", 1e3),
    "export.write_csv_ms": ("mean", "export.write_csv", 1e3),
}

# The workload whose reference jobs stand in for a layer that the traced
# workload itself never calls, by span or counter name.
OWNER = {
    "isophote.extract": "iso_large", "isophote.field_grid": "iso_large",
    "isophote.refine_evals": "iso_large", "isophote.refined_edges": "iso_large",
    "isophote.failed_edges": "iso_large", "isophote.cells_crossing": "iso_large",
    "isophote.vertices": "iso_large", "isophote.vertices_over_tol": "iso_large",
    "expr.eval_jet2": "iso_large",
    "export.write_svg": "iso_large",
    "expr.eval_jet": "frames", "expr.parse": "frames", "curve.frenet": "frames",
    "curve.frenet_samples": "frames", "surface.induced_curve": "frames",
    "surface.darboux": "frames", "surface.darboux_samples": "frames",
    "surface.classify_trace": "frames", "surface.verify_theorems": "frames",
    "export.write_csv": "frames",
    "surfrev.revolve": "revolve_mesh", "export.tessellate": "revolve_mesh",
    "export.write_obj": "revolve_mesh", "export.obj_bytes": "revolve_mesh",
}


def run_loop(workload: str, todo: Iterable[dict], tr, *,
             seconds: float = math.inf, start: int = 0, probe_jobs: int = 0):
    """Closed loop over the jobs in `todo`, numbered from `start`, until
    they run out or `seconds` of wall time have passed.  Jobs numbered
    below `probe_jobs` are probed.

    Returns each job's wall time in seconds and the failures: jobs that
    raised, or whose output failed its check.
    """
    run, check, probe = jobs.WORKLOADS[workload]
    times: list[float] = []
    failures: list[dict] = []
    end = time.perf_counter() + seconds
    for k, job in enumerate(todo, start):
        if time.perf_counter() >= end:
            break
        tr.job = (workload, k)
        t0 = time.perf_counter()
        try:
            with tr.span("job"):
                out = run(job, tr)
        except Exception as e:  # a failed job is counted, not fatal
            out, err = None, f"{type(e).__name__}: {e}"
        else:
            err = None
        times.append(time.perf_counter() - t0)
        if err is None:
            try:
                err = check(job, out)
            except Exception as e:  # noqa: BLE001 - a check that breaks fails the job
                err = f"check raised {type(e).__name__}: {e}"
        if err is None and k < probe_jobs:
            probe(job, out, tr)
        if err is not None:
            failures.append({"workload": workload, "job": k, "kind": job["kind"],
                             "error": err})
        out = None
    return times, failures


def end_to_end(times: list[float], failures: list[dict]) -> dict:
    n = len(times)
    ms = sorted(t * 1e3 for t in times)
    # the tail is the highest percentile with at least ten jobs above it
    i = n - 11 if n >= 11 else n - 1
    return {
        "throughput_jobs_s": (n - len(failures)) / sum(times),
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": ms[i],
        "tail_percentile": 100.0 * (i + 1) / n,
        "tail_jobs_beyond": n - 1 - i,
        "jobs": n,
    }


def _pick(records: list[dict], name: str, workload: str) -> list[dict]:
    """The records named `name` from the workload's own jobs, else from the
    reference jobs of the workload that owns that layer."""
    own = [r for r in records if r["name"] == name and r["job"][0] == workload]
    if own:
        return own
    owner = OWNER[name]
    return [r for r in records if r["name"] == name and r["job"][0] == owner]


def layer_metrics(tr: Tracer, workload: str) -> dict:
    out = {}
    for metric, (how, *arg) in LAYERS.items():
        if how == "count":
            vals = [r["value"] for r in _pick(tr.counts, arg[0], workload)]
            value = sum(vals) / len(vals)
        elif how == "ratio":
            num = sum(r["value"] for r in _pick(tr.counts, arg[0], workload))
            den = sum(r["value"] for r in _pick(tr.counts, arg[1], workload))
            value = num / den
        elif how == "mean":
            durs = [r["dur"] for r in _pick(tr.spans, arg[0], workload)]
            value = arg[1] * sum(durs) / len(durs)
        elif how == "per_point":
            recs = _pick(tr.spans, arg[0], workload)
            value = 1e9 * sum(r["dur"] for r in recs) / sum(r["work"] for r in recs)
        else:  # self: extract minus field_grid on the same grid, per probed job
            grid = {r["job"]: r["dur"] for r in _pick(tr.spans, arg[1], workload)}
            diffs = [r["dur"] - grid[r["job"]]
                     for r in _pick(tr.spans, arg[0], workload) if r["job"] in grid]
            value = 1e3 * sum(diffs) / len(diffs)
        out[metric] = value
    return out


def self_time_table(tr: Tracer) -> dict:
    table: dict[str, dict] = {}
    for r in tr.spans:
        row = table.setdefault(f"{r['job'][0]}:{r['name']}",
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += r["dur"]
        row["self_s"] += r["self"]
    return table


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "g3_threads": os.environ.get("G3_THREADS"),
            "worker_count": worker_count(), "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(gen.SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(g3geom.__file__).resolve().is_relative_to(SRC):
        print(f"g3geom imported from {g3geom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w, seed, size = args.workload, args.seed, args.size
    warm = gen.build(w, seed, size)
    timed = gen.stream(w, seed, size)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    result = {"env": environment(seed)}
    _, failures = run_loop(w, warm, NULL)
    attempted = len(warm)
    if args.trace == 0:
        times, fails = run_loop(w, timed, NULL, seconds=args.seconds)
        result["end_to_end"] = end_to_end(times, fails)
    else:
        # each job runs untraced and traced back to back, in alternating
        # order, so that both see the machine in the same state
        tr = Tracer()
        times0, times1, fails = [], [], []
        end = time.perf_counter() + args.seconds / 2
        for k, job in enumerate(timed):
            if time.perf_counter() >= end:
                break
            for t in ((NULL, tr) if k % 2 == 0 else (tr, NULL)):
                got, more = run_loop(w, [job], t, start=k,
                                     probe_jobs=PROBE_JOBS if t is tr else 0)
                (times1 if t is tr else times0).extend(got)
                fails += more
        attempted += len(times1)
        for owner in sorted(set(OWNER.values()) - {w}):
            refs = gen.build(owner, seed, size, "ref", count=1 + REF_JOBS)
            _, more = run_loop(owner, refs[:1], NULL)
            fails += more
            _, more = run_loop(owner, refs[1:], tr, start=1, probe_jobs=1 + REF_JOBS)
            fails += more
            attempted += len(refs)
        tr.self_times()
        layers = layer_metrics(tr, w)
        layers["trace.overhead_share"] = sum(times1) / sum(times0) - 1.0
        result["layers"] = layers
        outdir = Path(__file__).resolve().parent / "out"
        outdir.mkdir(exist_ok=True)
        record = {"workload": w, "env": result["env"], "layers": layers,
                  "self_time": self_time_table(tr), "spans": tr.spans,
                  "counts": tr.counts}
        path = outdir / f"trace-{w}-seed{seed}-{size}.json"
        path.write_text(json.dumps(record))
        result["trace_file"] = str(path.relative_to(ROOT))
        times = times0
    failures += fails
    result["attempted"] = attempted + len(times)
    result["failures"] = failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
