"""Every residual of seven ``verify`` invocations, pinned as ``float.hex``.

``tests/data/verify_residuals.json`` holds, for each invocation, every
report's name and residual in run order, controls included, with the numpy
version that computed them; ``tests/data/make_verify_residuals.py`` writes
it. A change to a route must leave every residual bit-identical, or
regenerate the file and list each move.

Another numpy may round a reduction differently, so the comparison is made
only on the numpy version the file records; on any other the test skips and
says which versions differ. Regenerate the file there to compare by hand.
"""
from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

DATA = pathlib.Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_verify_residuals", DATA / "make_verify_residuals.py"
)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)

PINNED = json.loads(make.RESIDUALS.read_text())


def test_the_file_covers_every_invocation():
    assert [run["flags"] for run in PINNED["runs"]] == [flags for flags, _ in make.INVOCATIONS]
    assert [run["args"] for run in PINNED["runs"]] == [args for _, args in make.INVOCATIONS]


@pytest.mark.parametrize("run", PINNED["runs"], ids=[run["flags"] for run in PINNED["runs"]])
def test_residuals_are_bit_identical(run):
    if np.__version__ != PINNED["numpy"]:
        pytest.skip(f"residuals pinned on numpy {PINNED['numpy']}, running {np.__version__}")
    current = make.residuals(**run["args"])
    assert [name for name, _ in current] == [name for name, _ in run["residuals"]]
    for now, then in zip(current, run["residuals"]):
        assert now == then, (run["flags"], now[0], float.fromhex(now[1]), float.fromhex(then[1]))
