"""Fuzzing the command line's input contract.

Every flag that reads a JSON file is handed arbitrary JSON, arbitrary
bytes, or a valid payload with one field replaced or removed. Whatever the
file holds, ``main`` must return instead of raising: 2 comes with exactly
one stderr line starting with ``error:`` and nothing on stdout, and 1 only
with a JSON report on stdout that records a failed check. The error line
spells a rejected value as JSON, never as a Python repr, and never passes
on the text of a Python exception.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chaoscalc.cli import main
from chaoscalc.qms import matrix_to_json

WEIGHT = {"kind": "dense", "entries": [[0, 1, 2.0], [1, 1, 3.0]],
          "column_sums": {"1": 5.0}, "tail_bound": 0.0}
VALID = {
    "weight": WEIGHT,
    "diag1d": {"kind": "diag1d", "entries": [[0, 0.5], [1, 2.0]], "sup_bound": 2.0},
    "expr": {"op": "compose", "args": [
        {"op": "scale", "c": [2.0, -1.0], "arg": {"op": "create", "k": 0}},
        {"op": "sum", "args": [{"op": "annihilate", "k": 1}, {"op": "number"},
                               {"op": "gwn", "weight": WEIGHT}, {"op": "identity"}]},
    ]},
    "functional": {"truncation": 2, "coefficients": [[[1], 1.0, 0.5], [[0, 1], -2.0, 0.0]]},
    "x": matrix_to_json(np.arange(16.0).reshape(4, 4), 2),
    "hamiltonian": matrix_to_json(np.diag([0.0, 1.0, 1.0, 2.0]), 2),
    "thetas": {"thetas": [0.25, 0.5]},
}

# flag under test -> (argv with FUZZ where the fuzzed file goes, seed payloads)
FUZZ = "<fuzzed file>"
FLAGS = {
    "verify --weight": (["verify", "--n", "2", "--weight", FUZZ], ["weight", "diag1d"]),
    "apply --expr": (["apply", "--expr", FUZZ, "--functional", "functional"], ["expr"]),
    "apply --functional": (["apply", "--expr", "expr", "--functional", FUZZ], ["functional"]),
    "norms --functional": (["norms", "--functional", FUZZ], ["functional"]),
    "qms --weight": (["qms", "--weight", FUZZ, "--x", "x"], ["weight", "diag1d"]),
    "qms --x": (["qms", "--weight", "weight", "--x", FUZZ], ["x"]),
    "qms --hamiltonian": (
        ["qms", "--weight", "weight", "--x", "x", "--hamiltonian", FUZZ], ["hamiltonian"]
    ),
    "simulate --theta": (["simulate", "--n", "2", "--theta", FUZZ], ["thetas"]),
}

WORDS = sorted(
    {"op", "k", "args", "arg", "c", "weight", "kind", "entries", "column_sums",
     "tail_bound", "sup_bound", "truncation", "coefficients", "thetas", "n", "rows",
     "dense", "diag1d", "from_entries", "annihilate", "create", "identity", "zero",
     "number", "gwn", "wn1d", "sum", "scale", "compose", "1"}
)
# Integers stay small or far past int64 (both sides of every range check),
# so no input asks for a huge allocation.
INTEGERS = st.integers(-3, 70) | st.sampled_from([2**63, -(2**64), 10**30])
SCALARS = (
    st.none() | st.booleans() | INTEGERS | st.floats()
    | st.sampled_from(WORDS) | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# replacements a hand-edited file is likely to hold
EDGES = st.sampled_from(
    [0, 1, -1, 3, 0.5, 1.7, -0.0, 1e308, float("inf"), float("nan"), True, None, "", "1", [], {}]
)
DELETE = object()


def _paths(node, prefix=()):
    """Every position in a payload, the root first, as key/index tuples."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def _mutate(payload, path, value):
    if not path:
        return payload if value is DELETE else value
    out = copy.deepcopy(payload)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


@st.composite
def near_valid(draw, seeds):
    """A valid payload with one position replaced or removed."""
    payload = VALID[draw(st.sampled_from(seeds))]
    path = draw(st.sampled_from(list(_paths(payload))))
    return _mutate(payload, path, draw(st.just(DELETE) | EDGES | JSON_VALUES))


def _contents(flag):
    near = near_valid(FLAGS[flag][1]).map(lambda data: json.dumps(data).encode())
    anything = JSON_VALUES.map(lambda data: json.dumps(data).encode())
    # near-valid payloads twice as often: they get past the first check
    return st.one_of(near, near, anything, st.binary(max_size=40))


CASES = st.sampled_from(sorted(FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), _contents(flag))
)
DEEP = b"[" * 200_000 + b"]" * 200_000


# a JSON string, which may hold any word; a long spelling is cut, so its
# last string may run to the end of the line
JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*(?:"|$)')
PYTHON_REPRS = re.compile(r"\b(None|True|False)\b")
# what Python's own TypeErrors say, which a loader should never pass on
PYTHON_TEXT = ("unhashable type", "object is not iterable", "not subscriptable",
               "has no len()", "has no attribute", "argument must be", "inhomogeneous")


def _reject(constant):
    raise AssertionError(f"{constant} in a successful report")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, data in VALID.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    paths[FUZZ] = root / "fuzzed.json"
    return paths


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
@example(case=("apply --expr", b"\xff\xfe{}"))
@example(case=("simulate --theta", b"[0.5, \xff]"))
@example(case=("apply --expr", DEEP))
@example(case=("verify --weight", DEEP))
@example(case=("norms --functional", b'["truncation"]'))
@example(case=("apply --functional", b'["truncation"]'))
# an index past int64 in a weight: the theta oracle once shifted by it
@example(case=("verify --weight", b'{"kind": "dense", "entries": [[9223372036854775808, 1, 2.0]]}'))
# a list as an index, and a null in a coefficient: the loaders once passed on
# Python's TypeError text and a repr of the rejected item
@example(case=("verify --weight", b'{"kind": "dense", "entries": [[[0], 1, 1.0]]}'))
@example(case=("norms --functional", b'{"truncation": 2, "coefficients": [[[1], null]]}'))
def test_json_flags_keep_the_exit_code_contract(files, case):
    flag, content = case
    files[FUZZ].write_bytes(content)
    argv = [str(files[a]) if a in files else a for a in FLAGS[flag][0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
        assert out.getvalue() == "" and not caught, [str(w.message) for w in caught]
        assert not PYTHON_REPRS.search(JSON_STRING.sub("", lines[0])), lines[0]
        assert not any(text in lines[0] for text in PYTHON_TEXT), lines[0]
    elif code == 1:
        report = json.loads(out.getvalue())
        assert report.get("all_ok") is False or report.get("passed") is False
    else:
        assert code == 0
        json.loads(out.getvalue(), parse_constant=_reject)  # strict JSON: no NaN


@settings(max_examples=40, deadline=None)
@given(samples=st.integers(-3, 3000) | st.sampled_from([2**63 - 1, 2**63, 10**20]))
# 0 and 10**20 lie outside [1, 2**63 - 1], the range of the int64 draw counts;
# 10**18 costs no more than 10 samples and must pass
@example(samples=0)
@example(samples=10**20)
@example(samples=10**18)
def test_sample_count_keeps_the_exit_code_contract(samples):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--n", "2", "--samples", str(samples)])
    if not 1 <= samples < 2**63:
        lines = err.getvalue().splitlines()
        assert code == 2 and len(lines) == 1, err.getvalue()
        assert lines[0].startswith("error: samples must")
        assert out.getvalue() == ""
    else:
        report = json.loads(out.getvalue(), parse_constant=_reject)
        assert code == (0 if report["passed"] else 1)
        if samples == 10**18:
            assert code == 0
