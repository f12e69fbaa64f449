"""Output checks for the three workloads.

Each checker returns a list of problems (empty when the output is correct).
The verdicts the program prints are recomputed from the numbers it reports,
so a residual nudged past its tolerance is caught even when the flags next
to it were left alone. Generator outputs are compared with an oracle built
here from sparse transfer matrices.
"""
from __future__ import annotations

import numpy as np

VERIFY_REPORTS = 134
VERIFY_CONTROLS = 28
GENERATOR_TOLERANCE = 1e-12
SIMULATE_TOLERANCE = 1e-12  # the --tol every exact simulate request passes
SAMPLED_TOLERANCE = 1e-12  # slack the sampled mode allows over 4 standard errors


def normalized_gap(a, b) -> float:
    """max|a - b| / max(1, max|a|, max|b|)."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale


def report_signature(payload: dict) -> list:
    """(name, kind) of every report, in order; independent of the seed."""
    return [(r["name"], r["kind"]) for r in payload["checks"]]


def check_verify(exit_code: int, payload: dict, reference: list) -> list:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    checks = payload.get("checks", [])
    if report_signature(payload) != reference:
        problems.append("report names or kinds differ from the reference run")
    caught = controls = 0
    for rep in checks:
        passed = rep["residual"] <= rep["tolerance"]
        control = rep["kind"] == "negative-control"
        ok = not passed if control else passed
        if rep["passed"] != passed or rep["ok"] != ok:
            problems.append(f"{rep['name']}: flags disagree with residual")
        if not ok:
            problems.append(f"{rep['name']}: not ok (residual {rep['residual']:.3e})")
        if control:
            controls += 1
            caught += ok
    if payload.get("all_ok") is not True:
        problems.append("all_ok is not true")
    if caught != controls or controls != VERIFY_CONTROLS:
        problems.append(f"{caught} of {controls} negative controls caught")
    if len(checks) != VERIFY_REPORTS:
        problems.append(f"{len(checks)} reports, expected {VERIFY_REPORTS}")
    return problems


SAMPLED_FIELDS = ("max_deviation", "worst_entry", "worst_excess_over_4se")


def check_simulate(exit_code: int, payload: dict, mode: str, reference: dict | None) -> list:
    """Exact mode: the verdict recomputed from the deviations. Sampled mode:
    the verdict, and the statistics of `reference`, a sampled run on the same
    inputs; exact mode ignores it."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if payload.get("mode") != mode:
        problems.append(f"mode {payload.get('mode')!r}, expected {mode!r}")
        return problems
    if mode == "exact":
        moments = payload["moments"]
        worst = max(
            payload["gram_deviation"], moments["max_mean_dev"], moments["max_second_dev"]
        )
        recomputed = worst <= SIMULATE_TOLERANCE
    else:
        recomputed = payload["worst_excess_over_4se"] <= SAMPLED_TOLERANCE
        got = [float(v) for f in SAMPLED_FIELDS for v in np.atleast_1d(payload[f])]
        want = [float(v) for f in SAMPLED_FIELDS for v in np.atleast_1d(reference[f])]
        if len(got) != len(want) or normalized_gap(got, want) > SAMPLED_TOLERANCE:
            problems.append("sampled statistics differ from the reference run")
    if payload.get("passed") is not True or not recomputed:
        problems.append(f"{mode} simulate did not pass")
    return problems


def popcounts(n: int) -> np.ndarray:
    """Subset sizes over the 2**n masks, by counting bits one at a time."""
    masks = np.arange(1 << n)
    return sum((masks >> k) & 1 for k in range(n)).astype(float)


def generator_oracle(transfer_matrix, entries: dict, n: int, x: np.ndarray) -> np.ndarray:
    """i[H, X] - 1/2 sum w (X B'B - 2 B'XB + B'B X), H = diag(subset size).

    Products are taken with the sparse transfer matrices; nothing is turned
    dense and no term is cached.
    """
    h = popcounts(n)
    out = 1j * (h[:, None] * x - x * h[None, :])
    for (j, k), rate in sorted(entries.items()):
        b = transfer_matrix(j, k, n)
        b_adj = b.conj().T.tocsr()
        bb = b_adj @ b
        out -= 0.5 * rate * (x @ bb - 2.0 * ((b_adj @ x) @ b) + bb @ x)
    return out


def check_generator(result: np.ndarray, expected: np.ndarray) -> list:
    gap = normalized_gap(result, expected)
    if not gap <= GENERATOR_TOLERANCE:
        return [f"generator result off the oracle by {gap:.3e}"]
    return []
