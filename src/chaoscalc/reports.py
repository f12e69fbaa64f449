"""Report containers and the comparison rules shared by the check suites.

A two-sided check's residual is the largest absolute entry of (lhs - rhs),
normalized by max(1, largest entry magnitude of either side); a one-sided
check's is its largest entrywise excess over its bound, normalized by
max(1, |bound|). So tolerances mean the same thing across scalar, functional
and matrix comparisons. A negative control repeats one comparison of its
family with the left side perturbed by a relative PERTURBATION.

A report is ``ok`` when a plain check passed, or when a negative control
failed as it should; a report whose residual is not finite is never ``ok``,
since NaN or infinity shows the comparison itself broke.
"""
from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import check_truncation
from .functionals import Functional

CHECK = "check"
NEGATIVE_CONTROL = "negative-control"
# A control nudges one entry by this much times max(1, largest magnitude).
PERTURBATION = 1e-6


def max_abs(x) -> float:
    """Largest entry magnitude of a scalar, array, sparse matrix or functional."""
    if isinstance(x, Functional):
        return x.max_abs()
    if sp.issparse(x):
        return float(abs(x).max()) if x.nnz else 0.0
    arr = np.asarray(x)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def residual(lhs, rhs) -> float:
    """Normalized worst-entry gap between two comparable objects."""
    gap = max_abs(lhs - rhs)
    return gap / max(1.0, max_abs(lhs), max_abs(rhs))


def excess(value, bound) -> float:
    """Largest entrywise (value - bound) / max(1, |bound|), or 0 when every
    entry of value is within its bound; a NaN entry gives NaN."""
    value, bound = np.asarray(value, dtype=float), np.asarray(bound, dtype=float)
    over = (value - bound) / np.maximum(1.0, np.abs(bound))
    return float(np.max(over, initial=0.0))


def perturbed(x):
    """A copy of x with its first entry nudged by
    PERTURBATION * max(1, max_abs(x)), for negative controls."""
    eps = PERTURBATION * max(1.0, max_abs(x))
    if isinstance(x, Functional):
        target = int(x.masks[0]) if len(x.masks) else 0
        return x + eps * Functional.delta(target, x.truncation)
    if sp.issparse(x):
        bump = sp.csr_matrix(
            ([eps], ([0], [0])), shape=x.shape, dtype=complex
        )
        return (x + bump).tocsr()
    arr = np.asarray(x)
    if arr.ndim == 0:
        return x + eps
    out = np.array(arr, copy=True)
    out.flat[0] = out.flat[0] + eps
    return out


def family_level(n: int) -> int:
    """n as a check family's truncation level: within the cap and at least 1,
    so that the comparison each negative control repeats is made."""
    n = check_truncation(n)
    if n < 1:
        raise ValueError(f"the check families need n >= 1, got {n}")
    return n


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check (or its negative control).

    ``passed`` and ``ok`` are derived from the residual, tolerance and kind,
    so a report cannot carry a verdict that disagrees with its residual.
    """

    name: str
    statement: str
    residual: float
    tolerance: float
    kind: str = CHECK
    inputs: dict = field(default_factory=dict)
    notes: tuple = ()

    def __post_init__(self):
        if self.kind not in (CHECK, NEGATIVE_CONTROL):
            raise ValueError(f"unknown report kind {self.kind!r}")

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def ok(self) -> bool:
        return math.isfinite(self.residual) and self.passed == (self.kind == CHECK)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "kind": self.kind,
            "ok": self.ok,
            "inputs": self.inputs,
            "notes": list(self.notes),
        }


def family_reports(inputs: dict, tolerance: float, checks, control) -> list:
    """Reports of one check family, all at one tolerance and on one input.

    Each entry of ``checks`` is ``(name, statement, residual, *notes)``.
    ``control`` is ``(name, statement, lhs, rhs)``: a comparison that one of
    the checks makes, which the family's negative control, reported last,
    repeats as ``residual(perturbed(lhs), rhs)``.
    """
    name, statement, lhs, rhs = control
    statement += (
        f", with one entry of the left side off by {PERTURBATION:g} times "
        "max(1, its largest magnitude), must fail"
    )
    entries = [(CHECK, *check) for check in checks] + [
        (NEGATIVE_CONTROL, name, statement, residual(perturbed(lhs), rhs))
    ]
    return [
        VerificationReport(
            name, statement, float(res), tolerance, kind, dict(inputs), tuple(notes)
        )
        for kind, name, statement, res, *notes in entries
    ]


def all_ok(reports) -> bool:
    return all(r.ok for r in reports)


def run_to_json(reports, config: dict, timings: dict | None = None) -> dict:
    """Full run payload; everything nondeterministic lives under 'timing'."""
    checks = [r for r in reports if r.kind == CHECK]
    controls = [r for r in reports if r.kind == NEGATIVE_CONTROL]
    return {
        "config": dict(config),
        "checks": [r.to_json() for r in reports],
        "counts": {
            "checks": len(checks),
            "negative_controls": len(controls),
            "not_ok": sum(1 for r in reports if not r.ok),
        },
        "all_ok": all_ok(reports),
        "timing": timing_json(timings or {}),
    }


def timing_json(seconds: dict) -> dict:
    """The one nondeterministic field of every payload: a UTC timestamp and
    wall seconds per phase."""
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seconds": dict(seconds),
    }


def format_line(report: VerificationReport) -> str:
    tag = "PASS" if report.ok else "FAIL"
    if report.kind == NEGATIVE_CONTROL:
        tag += "[control]"
    return (
        f"{tag:14s} {report.name:44s} "
        f"residual={report.residual:.3e} tol={report.tolerance:.1e}"
    )
