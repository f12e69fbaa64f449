"""The two golden files of ``verify``.

``tests/data/verify_signature.json`` holds each report's name, kind,
tolerance, statement, notes and inputs of ``run_all(n=8, seed=42)``, in run
order. Residuals stay out: they move with numpy and scipy builds.

``tests/data/verify_residuals.json`` holds, for each of seven ``verify``
invocations, every report's name and residual as ``float.hex`` in run
order, controls included, with the numpy version that computed them. A
change to a route must leave every residual bit-identical. Another numpy
may round a reduction differently, so the comparison is made only on the
numpy version the file records; on any other the test skips and says which
versions differ. Regenerate the files there to compare by hand.

A change that renames, rewords, reorders, adds or drops a check, or moves a
residual on purpose, regenerates both files, and lists each move, with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from chaoscalc.verifier import run_all
from chaoscalc.weights import Weight2D

DATA = pathlib.Path(__file__).parent / "data"
SIGNATURE, RESIDUALS = DATA / "verify_signature.json", DATA / "verify_residuals.json"
FIELDS = ("name", "kind", "tolerance", "statement", "notes", "inputs")

# the running two-entry weight of the README, as a --weight file holds it
RUNNING_WEIGHT = {
    "kind": "dense",
    "entries": [[0, 1, 2.0], [1, 1, 3.0]],
    "column_sums": "from_entries",
    "tail_bound": 0.0,
}

# (command-line flags, the run_all arguments verify makes of them)
INVOCATIONS = [
    ("--n 4 --seed 9", {"n": 4, "seed": 9}),
    ("--n 5", {"n": 5}),
    ("--n 6", {"n": 6}),
    ("--n 8", {"n": 8}),
    ("--n 8 --seed 117", {"n": 8, "seed": 117}),
    ("--n 10", {"n": 10}),
    ("--n 4 --weight running.json", {"n": 4, "weight": RUNNING_WEIGHT}),
]


def signature() -> list:
    reports, _ = run_all(n=8, seed=42)
    # round-trip through JSON, so notes compare as lists and keys as strings
    return json.loads(json.dumps([{f: r.to_json()[f] for f in FIELDS} for r in reports]))


def residuals(n: int, seed: int = 42, weight: dict | None = None) -> list:
    """[name, float.hex(residual)] of every report of one run, in run order."""
    override = None if weight is None else Weight2D.from_json(weight)
    reports, _ = run_all(n=n, seed=seed, weight_override=override)
    return [[r.name, float.hex(r.residual)] for r in reports]


def test_reports_match_the_golden_signature():
    golden = json.loads(SIGNATURE.read_text())
    current = signature()
    assert [entry["name"] for entry in current] == [entry["name"] for entry in golden]
    for now, then in zip(current, golden):
        assert now == then, now["name"]


PINNED = json.loads(RESIDUALS.read_text())


def test_the_file_covers_every_invocation():
    assert [run["flags"] for run in PINNED["runs"]] == [flags for flags, _ in INVOCATIONS]
    assert [run["args"] for run in PINNED["runs"]] == [args for _, args in INVOCATIONS]


@pytest.mark.parametrize("run", PINNED["runs"], ids=[run["flags"] for run in PINNED["runs"]])
def test_residuals_are_bit_identical(run):
    if np.__version__ != PINNED["numpy"]:
        pytest.skip(f"residuals pinned on numpy {PINNED['numpy']}, running {np.__version__}")
    current = residuals(**run["args"])
    assert [name for name, _ in current] == [name for name, _ in run["residuals"]]
    for now, then in zip(current, run["residuals"]):
        assert now == then, (run["flags"], now[0], float.fromhex(now[1]), float.fromhex(then[1]))


def _one_a_line(entries, indent: str = "") -> str:
    # one report a line, so a regenerated file diffs report by report
    return ",\n".join(f"{indent}{json.dumps(entry)}" for entry in entries)


if __name__ == "__main__":
    SIGNATURE.write_text(f"[\n{_one_a_line(signature())}\n]\n")
    runs = []
    for flags, args in INVOCATIONS:
        head = json.dumps({"flags": flags, "args": args})[:-1]
        runs.append(f'  {head}, "residuals": [\n{_one_a_line(residuals(**args), "    ")}\n  ]}}')
    body = ",\n".join(runs)
    RESIDUALS.write_text(f'{{"numpy": {json.dumps(np.__version__)}, "runs": [\n{body}\n]}}\n')
