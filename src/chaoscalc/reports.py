"""Report containers and residual arithmetic shared by the check suites.

A residual is always the largest absolute entry of (lhs - rhs), normalized
by max(1, largest entry magnitude of either side), so tolerances mean the
same thing across scalar, functional and matrix comparisons. A report is
``ok`` when a plain check passed, or when a negative control (deliberately
corrupted input) failed as it should; a report whose residual is not finite
is never ``ok``, since NaN or infinity shows the comparison itself broke.
"""
from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .functionals import Functional

CHECK = "check"
NEGATIVE_CONTROL = "negative-control"


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


def perturbed(x, eps: float = 1e-6):
    """A copy of x with one entry nudged by eps (for negative controls)."""
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

    Each entry of ``checks`` is ``(name, statement, residual, *notes)``;
    ``control`` is the ``(name, statement, residual)`` of the family's
    negative control, which comes last.
    """
    entries = [(CHECK, *check) for check in checks] + [(NEGATIVE_CONTROL, *control)]
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
