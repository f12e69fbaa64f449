"""Write ``verify_residuals.json``: the residual of every report, as
``float.hex``, for seven ``chaoscalc verify`` invocations, and the numpy
version that computed them.

    PYTHONPATH=src python tests/data/make_verify_residuals.py

``tests/test_verify_residuals.py`` compares a run against the file exactly.
A change that moves a residual on purpose regenerates the file with this
script and lists every move.
"""
from __future__ import annotations

import json
import pathlib

import numpy as np

from chaoscalc.verifier import run_all
from chaoscalc.weights import Weight2D

RESIDUALS = pathlib.Path(__file__).with_name("verify_residuals.json")

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


def residuals(n: int, seed: int = 42, weight: dict | None = None) -> list:
    """[name, float.hex(residual)] of every report of one run, in run order."""
    override = None if weight is None else Weight2D.from_json(weight)
    reports, _ = run_all(n=n, seed=seed, weight_override=override)
    return [[r.name, float.hex(r.residual)] for r in reports]


if __name__ == "__main__":
    # one report a line, so a regenerated file diffs report by report
    runs = []
    for flags, args in INVOCATIONS:
        head = json.dumps({"flags": flags, "args": args})[:-1]
        lines = ",\n".join(f"    {json.dumps(entry)}" for entry in residuals(**args))
        runs.append(f'  {head}, "residuals": [\n{lines}\n  ]}}')
    body = ",\n".join(runs)
    RESIDUALS.write_text(f'{{"numpy": {json.dumps(np.__version__)}, "runs": [\n{body}\n]}}\n')
