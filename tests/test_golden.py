"""Outputs pinned byte for byte to committed goldens: the `g3geom verify
--json` report, the OBJ/SVG/CSV digests and stats of the extraction cases
in `extract_golden.py`, the digests of its export cases, and the digests
of the theorem reports of the cases in `theorem_golden.py`."""

import json
from pathlib import Path

import pytest

from extract_golden import (CASES, EXPORT_CASES, EXPORT_GOLDEN, GOLDEN as EXTRACT_GOLDEN,
                            record, record_export)
import theorem_golden
from g3geom.verify import random_corpus, run_suite

GOLDEN = Path(__file__).parent / "golden" / "verify.json"


def test_verify_report_matches_golden():
    report = json.dumps(run_suite(), sort_keys=True, indent=2) + "\n"
    assert report == GOLDEN.read_text(encoding="utf-8")


def test_verify_corpus_built_once():
    corpus = random_corpus()
    assert isinstance(corpus, tuple) and random_corpus() is corpus


@pytest.mark.parametrize("name", sorted(CASES))
def test_extract_matches_golden(name):
    golden = json.loads(EXTRACT_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    assert record(name) == golden[name]


@pytest.mark.parametrize("name", sorted(EXPORT_CASES))
def test_export_matches_golden(name):
    golden = json.loads(EXPORT_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(EXPORT_CASES)
    assert record_export(name) == golden[name]


@pytest.mark.parametrize("name", list(theorem_golden.CASES))
def test_theorem_reports_match_golden(name):
    golden = json.loads(theorem_golden.GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(theorem_golden.CASES)
    assert theorem_golden.record(name) == golden[name]
