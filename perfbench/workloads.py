"""The three workloads: how request i is built from (seed, i), run and checked.

A workload's timed window runs passes over a fixed-size request list, one
request after the other from one client (closed loop). Request i of pass p
has global index p * PASS_SIZE + i and derives every input from
(seed, global index); inputs are generated before the pass starts, and the
outputs are checked after it ends.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks


def request_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


class Workload:
    """Base: subclasses set NAME and PASS_SIZE and implement the hooks."""

    NAME = ""
    PASS_SIZE = 1
    PASS_SECONDS = 1.0  # pass time on a 2-vCPU 2 GHz Xeon VM, one BLAS thread, no THP
    WARM_UP_INDEX = 10**6  # beyond any timed request index

    def __init__(self, chaoscalc, seed: int, workdir: str):
        self.cc = chaoscalc
        self.seed = seed
        self.workdir = workdir

    def make(self, index: int):
        """Inputs of request `index`, built outside the timed window."""
        raise NotImplementedError

    def run(self, request):
        """The timed part of one request; by default a CLI call."""
        # Progress lines go to stderr; keep them out of the benchmark's output.
        with contextlib.redirect_stderr(io.StringIO()):
            return self.cc.cli.main(request["argv"])

    def check(self, request, output) -> list:
        raise NotImplementedError

    def warm_up(self) -> list:
        """Input generation plus one untimed request; returns its problems."""
        request = self.make(self.WARM_UP_INDEX)
        return self.check(request, self.run(request))

    def out_bytes(self, request) -> int:
        """Bytes the request wrote through the CLI's --out file."""
        path = request.get("out")
        return os.path.getsize(path) if path and os.path.exists(path) else 0

    def payload(self, request):
        """The JSON the request wrote through the CLI's --out file, if any."""
        path = request.get("out")
        return _read(path) if path and os.path.exists(path) else None

    def _path(self, index: int, suffix: str) -> str:
        # One file per pass slot: each pass is checked before the next runs.
        return os.path.join(self.workdir, f"{self.NAME}-{index % self.PASS_SIZE}{suffix}")


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Verify(Workload):
    """`chaoscalc verify --n 8` through cli.main: the north-star verdict."""

    NAME = "verify"
    PASS_SIZE = 2
    PASS_SECONDS = 7.7
    N = 8

    reference = None  # (name, kind) list of the warm-up run

    def make(self, index):
        out = self._path(index, ".json")
        argv = ["verify", "--n", str(self.N), "--seed", str(self.seed + index), "--out", out]
        return {"argv": argv, "out": out}

    def check(self, request, output):
        payload = self.payload(request)
        if self.reference is None:
            self.reference = checks.report_signature(payload)
        return checks.check_verify(output, payload, self.reference)


class Simulate(Workload):
    """`chaoscalc simulate`, alternating exact n = 12 and sampled n = 6."""

    NAME = "simulate"
    PASS_SIZE = 2
    PASS_SECONDS = 4.5
    EXACT_N = 12
    SAMPLED_N = 6
    SAMPLES = 100_000
    # The sampled mode accepts when every Gram entry lies within 4 standard
    # errors, a test that rejects about one correct run in a hundred. Its
    # inputs are therefore the documented example (theta 0.5, seed 42) on
    # every request, so a rejection always means a changed result, and each
    # output must reproduce the warm-up's statistics.
    SAMPLED_ARGS = ["--theta", "0.5", "--seed", "42"]

    reference = None  # payload of the warm-up's sampled request

    def make(self, index):
        out = self._path(index, ".json")
        if index % 2 == 0:
            pattern = request_rng(self.seed, index).uniform(0.2, 0.8, 3)
            thetas = [float(pattern[k % 3]) for k in range(self.EXACT_N)]
            theta_file = self._path(index, "-theta.json")
            with open(theta_file, "w", encoding="utf-8") as fh:
                json.dump({"thetas": thetas}, fh)
            argv = ["simulate", "--theta", theta_file, "--n", str(self.EXACT_N)]
            mode = "exact"
        else:
            argv = ["simulate", "--n", str(self.SAMPLED_N),
                    "--samples", str(self.SAMPLES), *self.SAMPLED_ARGS]
            mode = "monte-carlo"
        return {"argv": argv + ["--tol", repr(checks.SIMULATE_TOLERANCE), "--out", out],
                "out": out, "mode": mode}

    def check(self, request, output):
        payload = self.payload(request)
        if request["mode"] == "monte-carlo" and self.reference is None:
            self.reference = payload
        return checks.check_simulate(
            output, payload, request["mode"], self.reference
        )

    def warm_up(self):
        """One request of each mode."""
        problems = []
        for index in (self.WARM_UP_INDEX, self.WARM_UP_INDEX + 1):
            request = self.make(index)
            problems += self.check(request, self.run(request))
        return problems


class Generator(Workload):
    """GeneratorSpec + generator_apply at n = 9 on seeded random weights.

    A pass applies one new weight to APPLIES Hermitian observables: one first
    apply, then APPLIES - 1 repeats. A weight sits on a 4 x 4 block with
    exactly half of its 16 entries set, so every weight carries the same
    number of jump terms.
    """

    NAME = "generator"
    N = 9
    SUPPORT = 4
    APPLIES = 6
    PASS_SIZE = APPLIES
    PASS_SECONDS = 5.9

    def __init__(self, chaoscalc, seed, workdir):
        super().__init__(chaoscalc, seed, workdir)
        self._weights = {}

    def weight(self, group: int):
        if group not in self._weights:
            rng = request_rng(self.seed, group, stream=1)
            pairs = [(j, k) for j in range(self.SUPPORT) for k in range(self.SUPPORT)]
            chosen = rng.choice(len(pairs), size=len(pairs) // 2, replace=False)
            entries = {pairs[c]: float(1.0 - rng.random()) for c in sorted(chosen)}
            self._weights[group] = self.cc.Weight2D(entries)
        return self._weights[group]

    def make(self, index):
        rng = request_rng(self.seed, index, stream=2)
        size = 1 << self.N
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        return {"weight": self.weight(index // self.APPLIES), "x": (a + a.conj().T) / 2}

    def run(self, request):
        spec = self.cc.GeneratorSpec(request["weight"], self.N)
        return self.cc.generator_apply(spec, request["x"])

    def check(self, request, output):
        expected = checks.generator_oracle(
            self.cc.transfer_matrix, request["weight"].entries, self.N, request["x"]
        )
        return checks.check_generator(output, expected)

    def warm_up(self):
        # Build every transfer matrix a weight on the block can use, then
        # apply one small weight the timed requests never use.
        for j in range(self.SUPPORT):
            for k in range(self.SUPPORT):
                self.cc.transfer_matrix(j, k, self.N)
        small = self.cc.Weight2D({(0, 1): 0.5, (1, 1): 0.25})
        request = dict(self.make(self.WARM_UP_INDEX), weight=small)
        return self.check(request, self.run(request))


WORKLOADS = {cls.NAME: cls for cls in (Verify, Simulate, Generator)}
