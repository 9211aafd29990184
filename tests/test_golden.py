"""`g3geom verify --json` is pinned byte for byte to a committed report."""

import json
from pathlib import Path

from g3geom.verify import run_suite

GOLDEN = Path(__file__).parent / "golden" / "verify.json"


def test_verify_report_matches_golden():
    report = json.dumps(run_suite(), sort_keys=True, indent=2) + "\n"
    assert report == GOLDEN.read_text(encoding="utf-8")
