"""The golden report signature of ``run_all(n=8, seed=42)``.

``tests/data/verify_signature.json`` holds each report's name, kind,
tolerance, statement, notes and inputs, in run order. Residuals stay out:
they move with numpy and scipy builds, and other tests bound them. A change
that renames, rewords, reorders, adds or drops a check regenerates the file,
and says so, with

    PYTHONPATH=src python tests/test_signature.py
"""
from __future__ import annotations

import json
import pathlib

from chaoscalc.verifier import run_all

SIGNATURE = pathlib.Path(__file__).parent / "data" / "verify_signature.json"
FIELDS = ("name", "kind", "tolerance", "statement", "notes", "inputs")


def signature() -> list:
    reports, _ = run_all(n=8, seed=42)
    # round-trip through JSON, so notes compare as lists and keys as strings
    return json.loads(json.dumps([{f: r.to_json()[f] for f in FIELDS} for r in reports]))


def test_reports_match_the_golden_signature():
    golden = json.loads(SIGNATURE.read_text())
    current = signature()
    assert [entry["name"] for entry in current] == [entry["name"] for entry in golden]
    for now, then in zip(current, golden):
        assert now == then, now["name"]


if __name__ == "__main__":
    SIGNATURE.parent.mkdir(exist_ok=True)
    # one report a line, so a regenerated file diffs report by report
    lines = ",\n".join(json.dumps(entry) for entry in signature())
    SIGNATURE.write_text(f"[\n{lines}\n]\n")
