"""The benchmark scripts in perfbench/ import from g3geom, but tier-1 does
not collect them: every name they import must still exist, and the first
job of each workload must run on what g3geom returns."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _g3geom_imports():
    """(file:line, module, name) per g3geom import; name is None for a
    plain `import g3geom.x`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "g3geom":
                for alias in node.names:
                    yield f"{path.name}:{node.lineno}", node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "g3geom":
                        yield f"{path.name}:{node.lineno}", alias.name, None


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_benchmark_imports_resolve():
    imports = list(_g3geom_imports())
    assert imports
    missing = [f"{where}: {module}.{name}" if name else f"{where}: {module}"
               for where, module, name in imports if not _resolves(module, name)]
    assert not missing, missing


@pytest.mark.parametrize("workload", ["iso_large", "iso_small", "frames", "revolve_mesh"])
def test_benchmark_first_job_runs(workload, monkeypatch):
    # a job reads attributes of g3geom's results (iso.polylines,
    # Scene.profiles, ProfileEntry.mode) that the import check cannot see
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, jobs, spans = (importlib.import_module(m) for m in ("gen", "jobs", "spans"))
    run, check, probe = jobs.WORKLOADS[workload]
    job = next(gen.stream(workload, 0, "tiny", "timed"))
    out = run(job, spans.NULL)
    # the verdict is perfbench's to report: a coarse tiny grid may miss
    verdict = check(job, out)
    assert verdict is None or isinstance(verdict, str)
    probe(job, out, spans.NULL)
