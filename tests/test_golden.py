"""Outputs pinned byte for byte to committed goldens: the `g3geom verify
--json` report, and the OBJ/SVG/CSV digests and stats of the extraction
cases in `extract_golden.py`."""

import json
from pathlib import Path

import pytest

from extract_golden import CASES, GOLDEN as EXTRACT_GOLDEN, record
from g3geom.verify import run_suite

GOLDEN = Path(__file__).parent / "golden" / "verify.json"


def test_verify_report_matches_golden():
    report = json.dumps(run_suite(), sort_keys=True, indent=2) + "\n"
    assert report == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_extract_matches_golden(name):
    golden = json.loads(EXTRACT_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    assert record(name) == golden[name]
