"""One valid payload for each JSON input format of the command line, and
command lines over them that each exit 0.

A payload is named by its file name, and a command line names the files it
reads. Run as a script, this module writes every payload into the current
directory and prints one command line per line, for a shell to hand to the
installed console script. It imports only numpy and chaoscalc, so it runs
where scipy, pytest and hypothesis are not installed.
"""
from __future__ import annotations

import json
import pathlib

import numpy as np

from chaoscalc.qms import matrix_to_json

N = 3  # observables are 2^N x 2^N matrices, and a theta sequence has N steps

DENSE = {"kind": "dense", "entries": [[0, 1, 2.0], [1, 1, 3.0], [2, 0, 0.5]],
         "column_sums": {"0": 0.5, "1": 5.0}, "tail_bound": 0.0}
DIAG1D = {"kind": "diag1d", "entries": [[0, 1.0], [2, 0.5]], "sup_bound": 1.0}
PAYLOADS = {
    "dense.json": DENSE,
    "diag1d.json": DIAG1D,
    # every operator kind
    "expr.json": {"op": "sum", "args": [
        {"op": "compose", "args": [{"op": "create", "k": 1}, {"op": "annihilate", "k": 0}]},
        {"op": "scale", "c": [2.0, -1.0], "arg": {"op": "gwn", "weight": DENSE}},
        {"op": "wn1d", "weight": DIAG1D},
        {"op": "number"},
        {"op": "identity"},
        {"op": "zero"},
    ]},
    "functional.json": {"truncation": N, "coefficients": [[[0, 1], 1.0, 0.5], [[2], -2.0, 0.0]]},
    "x.json": matrix_to_json(np.arange(4.0**N).reshape(2**N, 2**N), N),
    "hamiltonian.json": matrix_to_json(np.diag(np.arange(2.0**N)), N),
    "thetas.json": {"thetas": [0.3, 0.5, 0.7]},
}

# every subcommand, and every JSON flag at least once
COMMANDS = [
    ["verify", "--n", "4"],
    ["verify", "--n", str(N), "--weight", "dense.json"],
    ["verify", "--n", str(N), "--weight", "diag1d.json", "--only", "l2,qms"],
    ["simulate", "--n", str(N), "--theta", "thetas.json"],
    ["simulate", "--n", str(N), "--samples", "1000", "--seed", "7"],
    ["apply", "--expr", "expr.json", "--functional", "functional.json"],
    ["norms", "--functional", "functional.json", "--p", "0", "1.5"],
    ["qms", "--weight", "dense.json", "--x", "x.json"],
    ["qms", "--weight", "dense.json", "--x", "x.json", "--hamiltonian", "hamiltonian.json"],
]


def write(directory) -> dict:
    """Write every payload into directory; {file name: path as a string}."""
    paths = {}
    for name, data in PAYLOADS.items():
        path = pathlib.Path(directory, name)
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    return paths


def commands(paths: dict) -> list:
    """COMMANDS with each file name replaced by its path in ``paths``."""
    return [[paths.get(arg, arg) for arg in argv] for argv in COMMANDS]


if __name__ == "__main__":
    write(".")
    for argv in COMMANDS:
        print(" ".join(argv))
