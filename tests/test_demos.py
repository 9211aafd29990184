"""Every script in demos/ runs to completion against the source tree.

The scripts are copied to a temporary directory first, so the files they
write land there and not in the checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    dest = tmp_path_factory.mktemp("demos")
    shutil.copytree(ROOT / "demos", dest, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("output", "__pycache__"))
    return dest


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, demo_dir):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo_dir / name)], cwd=demo_dir,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
