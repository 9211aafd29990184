"""The g3geom benchmark.

    python3 perfbench/run.py --workload iso_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere inside a source tree: it imports g3geom from the
tree's src/ and needs nothing built.  For one workload it prints a table of
metrics, each by name with its unit, and as its last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics from
a separate traced run.  --workload all runs every workload both ways.

The workload runs in a child process (worker.py), whose peak memory is
reported; setup_s is the median over several fresh interpreters of the
time to import g3geom and g3geom.cli and build the workload's first inputs.
G3_THREADS is set to the number of CPUs this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 6
TIME_LIMIT = 170.0   # seconds for one workload at one trace setting


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["G3_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def _worker(args, workload: str, extra: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size, *extra]


def time_setup(cmd: list[str], timeout: float) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    g3geom and built the workload's first inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup run failed (exit {proc.returncode})")
    return elapsed


def run_workload(args, workload: str, deadline: float) -> tuple[dict, dict]:
    """(metrics, worker result) for one workload at args.trace."""
    metrics: dict[str, float] = {}
    setup_cmd = _worker(args, workload, ["--setup-only"])
    samples: list[float] = []
    if args.trace == 0:
        time_setup(setup_cmd, deadline - time.monotonic())   # fills the bytecode cache
        samples += [time_setup(setup_cmd, deadline - time.monotonic())
                    for _ in range(SETUP_SAMPLES // 2)]
    got = subprocess.run(_worker(args, workload, []), stdout=subprocess.PIPE,
                         env=_env(), cwd=ROOT, timeout=deadline - time.monotonic(),
                         check=True)
    result = json.loads(got.stdout.decode().strip().splitlines()[-1])
    if args.trace == 0:
        # half of the set-up samples after the loop, so that they see the
        # machine at two moments as far apart as the run allows
        samples += [time_setup(setup_cmd, deadline - time.monotonic())
                    for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        metrics["setup_s"] = statistics.median(samples)
        e2e = result["end_to_end"]
        for name in ("throughput_jobs_s", "job_ms_p50", "job_ms_tail"):
            metrics[name] = e2e[name]
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    else:
        metrics.update(result["layers"])
    return metrics, result


def print_table(workload: str, args, metrics: dict, units: dict, result: dict) -> None:
    env = result["env"]
    print(f"== {workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}"
          f"  size {args.size}")
    print("   env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        note = ""
        if name == "job_ms_tail":
            e2e = result["end_to_end"]
            note = (f"  (p{e2e['tail_percentile']:.1f} of {e2e['jobs']} jobs,"
                    f" {e2e['tail_jobs_beyond']} beyond)")
        print(f"   {name:34s} {value:14.6g} {units[name]}{note}")
    failed, attempted = len(result["failures"]), result["attempted"]
    print(f"   {'fail_share':34s} {failed / attempted:14.6g} share"
          f"  ({failed} of {attempted} jobs)")
    if "trace_file" in result:
        print(f"   spans written to {result['trace_file']}")
    for f in result["failures"][:10]:
        print(f"   FAILED {f}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "g3geom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no g3geom source tree with BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    args = ap.parse_args(argv)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {t: [m["name"] for m in spec[key]]
              for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    runs = ([(w, t) for w in names for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        args.trace = trace
        deadline = time.monotonic() + TIME_LIMIT
        try:
            metrics, result = run_workload(args, workload, deadline)
        except (subprocess.SubprocessError, RuntimeError, OSError, ValueError,
                KeyError, IndexError) as e:
            print(f"{workload}: benchmark run failed: {e}", file=sys.stderr)
            return 1
        if sorted(metrics) != sorted(wanted[trace]):
            print(f"{workload}: metrics {sorted(metrics)} do not match "
                  f"BENCHMARK.json {sorted(wanted[trace])}", file=sys.stderr)
            return 1
        metrics = {n: metrics[n] for n in wanted[trace]}
        print_table(workload, args, metrics, units, result)
        failed = len(result["failures"])
        summary["correct"] = summary["correct"] and failed == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for n, v in metrics.items():
            summary["metrics"][prefix + n] = {"value": v, "unit": units[n]}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
