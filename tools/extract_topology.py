"""Compare the extraction topology of two source trees over the test suite.

    python3 tools/extract_topology.py --before DIR --after DIR

DIR is a source tree that holds src/g3geom and tests/.  Two test sets,
the before tree's tests and this checkout's (one set when their files
are identical), each run against each tree's `src`, with every `extract`
call recorded: the test that made it, the grid and level, whether the
field was constant, the polyline vertex counts and closed flags, the
stats, and the (u1, u2) of every vertex.  The calls of the runs are
paired by test set, test and call order; hypothesis runs with seed 0 on
both sides, so its tests make the same calls.  A test module that fails
to import against a tree (the older tree lacks a name that a newer test
imports) makes no calls on that side; its calls are counted as "only
after" or "only before", and the other test set still covers what the
module tested before.  The paired count is printed per set.  Topology
must be identical: polyline count, polyline lengths, closed flags,
`cells_crossing`, `cells_skipped`, `failed_edges` and `refined_edges`.
So must these stats against the before tree's `tests/golden/extract.json`,
for every case of `tests/extract_golden.py`.  Vertex displacement and
refinement counts are reported, not judged.  Test failures do not matter
here, only what the calls returned.  Exit 0 when at least one call pairs
up and all of it is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
TOPOLOGY = ("polylines", "closed", "constant", "cells_crossing", "cells_skipped",
            "failed_edges", "refined_edges")


def _summary(iso) -> dict:
    stats = iso.stats
    return {"grid": list(stats.grid), "level": iso.level,
            "constant": iso.constant_field is not None,
            "polylines": [len(p.points) for p in iso.polylines],
            "closed": [p.closed for p in iso.polylines],
            "cells_crossing": stats.cells_crossing, "cells_skipped": stats.cells_skipped,
            "failed_edges": stats.failed_edges, "refined_edges": stats.refined_edges,
            "evaluations": stats.refine_iterations_total,
            "steps": stats.refine_iterations_max,
            "uv": [p[:2] for pl in iso.polylines for p in pl.points]}


def record(out: Path, tests: Path) -> None:
    """Run the tests in the directory `tests` in this process with `extract`
    wrapped in every g3geom module that binds it; write the calls as JSON
    to `out`."""
    import pytest

    import g3geom
    from g3geom import isophote

    calls: list[dict] = []
    real = isophote.extract

    def extract(surface, query):
        iso = real(surface, query)
        test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
        calls.append({"test": test, **_summary(iso)})
        return iso

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "g3geom" and getattr(module, "extract", None) is real:
            module.extract = extract
    assert g3geom.extract is extract
    sys.path.insert(0, str(tests))
    # a fixed hypothesis seed, so that two runs draw the same examples and
    # their calls pair up; a test module that does not import against the
    # tree (it tests a newer name) is left out, not the whole run
    pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                 "--continue-on-collection-errors", str(tests)])
    out.write_text(json.dumps(calls))


def _run(tree: Path, tests: Path, out: Path) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, __file__, "--record", str(out), "--tests", str(tests)],
                   env=env, cwd=tests.parent, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def _keyed(tests: Path, calls: list[dict]) -> dict:
    seen: dict[str, int] = {}
    out = {}
    for c in calls:
        k = seen[c["test"]] = seen.get(c["test"], -1) + 1
        out[(str(tests), c["test"], k)] = c
    return out


def _files(tests: Path) -> dict:
    return {p.relative_to(tests): p.read_bytes() for p in tests.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts}


def _test_sets(before: Path) -> list[Path]:
    """The before tree's tests and this checkout's, once if they are identical."""
    mine = HERE / "tests"
    theirs = before / "tests"
    return [mine] if not theirs.is_dir() or _files(theirs) == _files(mine) else [theirs, mine]


def compare(before: Path, after: Path) -> int:
    sets = _test_sets(before)
    old: dict = {}
    new: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, tests in enumerate(sets):
            old.update(_keyed(tests, _run(before, tests, Path(tmp) / f"before{k}.json")))
            new.update(_keyed(tests, _run(after, tests, Path(tmp) / f"after{k}.json")))
    problems = []
    shift, shift_at = 0.0, None
    evals = {"before": 0, "after": 0}
    steps = {"before": 0, "after": 0}
    common = sorted(old.keys() & new.keys())
    if not common:
        problems.append("no extract calls paired up")
    for key in common:
        b, a = old[key], new[key]
        if (b["grid"], b["level"]) != (a["grid"], a["level"]):
            problems.append(f"{key}: calls do not pair up")
            continue
        diff = [f for f in TOPOLOGY if b[f] != a[f]]
        if diff:
            problems.append(f"{key}: {', '.join(f'{f} {b[f]} -> {a[f]}' for f in diff)}")
            continue
        for p, q in zip(b["uv"], a["uv"]):
            d = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
            if d > shift:
                shift, shift_at = d, key
        for side, c in (("before", b), ("after", a)):
            evals[side] += c["evaluations"]
            steps[side] = max(steps[side], c["steps"])
    golden = json.loads((before / "tests" / "golden" / "extract.json").read_text())
    sys.path.insert(0, str(after / "src"))
    sys.path.insert(0, str(HERE / "tests"))
    from extract_golden import CASES, record as record_case

    for name in sorted(CASES):
        got = record_case(name)["stats"]
        want = golden[name]["stats"]
        diff = [f for f in ("cells_total", *TOPOLOGY[3:]) if got[f] != want[f]]
        if diff:
            problems.append(f"golden {name}: " + ", ".join(
                f"{f} {want[f]} -> {got[f]}" for f in diff))
    for tests in sets:
        paired, only_before, only_after = (
            sum(key[0] == str(tests) for key in keys)
            for keys in (common, old.keys() - new.keys(), new.keys() - old.keys()))
        print(f"tests of {tests.parent}: {paired} paired extract calls "
              f"({only_before} only before, {only_after} only after)")
    print(f"{len(common)} paired in all, {len(CASES)} golden cases")
    print(f"largest vertex shift in u1 or u2: {shift:.3g} ({shift_at})")
    print(f"field evaluations: {evals['before']} -> {evals['after']}; "
          f"most steps in one call: {steps['before']} -> {steps['after']}")
    for p in problems:
        print("DIFFERS", p)
    print("topology identical" if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path)
    ap.add_argument("--after", type=Path)
    ap.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--tests", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.record:
        record(args.record, args.tests)
        return 0
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    return compare(args.before.resolve(), args.after.resolve())


if __name__ == "__main__":
    sys.exit(main())
