"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Every metric of BENCHMARK.json comes out by name with its unit and no job
fails; a wrong expected value is counted as a failure, so a check cannot
pass silently; and without a source tree the benchmark exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_named_with_unit(workload, trace, key):
    got = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert got.returncode == 0, got.stderr
    *table, last = got.stdout.strip().splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    text = "\n".join(table)
    for name, unit in [*want.items(), ("fail_share", "share")]:
        assert re.search(rf"^ +{re.escape(name)} +\S+ {re.escape(unit)}\b", text, re.M), name


@pytest.mark.parametrize("workload,kind,key", [
    ("iso_large", "wavy", "level"),          # |field - level| at every vertex
    ("iso_large", "cylinder", "beta"),       # rulings u2 = beta, 2 pi - beta
    ("iso_large", "revolution", "p0"),       # parallels and their vertices
    ("iso_small", "quadratic", "value"),     # constant field 1/sqrt(2)
    ("frames", "frames", "c2"),              # polynomial curve kappa and tau
    ("frames", "frames", "r"),               # induced kappa, Darboux identity
    ("revolve_mesh", "euclidean", "p0"),     # mesh vertex coordinates
    ("revolve_mesh", "isotropic", "c"),
])
def test_wrong_expected_value_is_a_failure(workload, kind, key):
    import gen
    import worker
    from spans import NULL

    def truth(job):   # of the first job, or part of a batch, of that kind
        return next((p["truth"] for p in job.get("parts", [job]) if p["kind"] == kind),
                    None)

    job = next(j for j in gen.build(workload, 3, "tiny", count=8) if truth(j))
    _, failures = worker.run_loop(workload, [job], NULL)
    assert failures == []
    truth(job)[key] *= 1.001
    _, failures = worker.run_loop(workload, [job], NULL)
    assert len(failures) == 1


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert got.returncode != 0
    assert '"metrics"' not in got.stdout
