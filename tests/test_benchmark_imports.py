"""The benchmark scripts in perfbench/ import from g3geom, but tier-1 does
not collect them: every name they import must still exist."""

import ast
import importlib
from pathlib import Path

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
