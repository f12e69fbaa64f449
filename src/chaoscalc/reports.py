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

The families draw their probes and random fixtures from ``SplitMix64``, a
seeded stream written with numpy's integer arithmetic alone, so a verify
run never loads ``numpy.random``.
"""
from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import check_truncation
from .functionals import Functional, _tag_bounds

CHECK = "check"
NEGATIVE_CONTROL = "negative-control"
# Tolerance of the families that pin no other, of a Hamiltonian's hermiticity,
# and the default of ``simulate --tol``.
TOLERANCE = 1e-12
# A control nudges one entry by this much times max(1, largest magnitude).
PERTURBATION = 1e-6

# SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): its golden-ratio increment and finalizer factors
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """The seeded stream of the check families: draw i of seed s hashes the
    state s + (i + 1) * 0x9E3779B97F4A7C15 mod 2**64 through SplitMix64's
    finalizer and keeps the top 53 bits, a float in [0, 1).

    ``random(size=None, out=None)`` is ``numpy.random.Generator.random``:
    no size gives one float, a size an array, and ``out``, a C-contiguous
    float64 array, is filled in place. Draws run on from call to call, so
    ``random(a)`` then ``random(b)`` reads as ``random(a + b)``. The seed is
    the starting state, not a counter offset, so nearby seeds share no draws.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self._seed, self._drawn = int(seed), 0

    def random(self, size=None, out=None):
        scalar = size is None and out is None
        if out is None:
            out = np.empty(() if size is None else size)
        elif out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array")
        bits = out.reshape(-1).view(np.uint64)
        # the first state in Python ints: numpy's scalar uint64 multiply warns on overflow
        start = (self._seed + (self._drawn + 1) * _GOLDEN) % (1 << 64)
        self._drawn += bits.size
        scratch = np.arange(bits.size, dtype=np.uint64)
        np.multiply(scratch, np.uint64(_GOLDEN), out=bits)
        bits += np.uint64(start)
        for shift, factor in ((30, _MIX1), (27, _MIX2)):
            bits ^= np.right_shift(bits, np.uint64(shift), out=scratch)
            bits *= factor
        bits ^= np.right_shift(bits, np.uint64(31), out=scratch)
        bits >>= np.uint64(11)
        np.multiply(bits, 2.0**-53, out=out.reshape(-1))
        return float(out) if scalar else out


def uniform_draws(rng, shape, dtype=float) -> np.ndarray:
    """An array of ``shape`` whose entries, or real and imaginary parts, are
    uniform on [-1, 1), filled in place by ``rng.random``: a complex entry
    takes two consecutive draws, its real part first."""
    out = np.empty(shape, dtype)
    parts = out.reshape(-1).view(float)
    rng.random(out=parts)
    parts *= 2.0
    parts -= 1.0
    return out


def _block_max_abs(x, blocks: int = 1) -> np.ndarray:
    """Largest entry magnitude in each of ``blocks`` blocks; an empty block
    reads 0, a NaN entry gives NaN. A scalar or 0-d array is one block, an
    array splits into equal row blocks and a table into the tags
    ``masks >> truncation``; with one block the whole table is the block,
    a tagged stack included."""
    if isinstance(x, Functional):
        if blocks == 1:
            return x.moduli().max(initial=0.0, keepdims=True)
        bounds = _tag_bounds(x.masks, x.truncation, blocks)
        out = np.zeros(blocks)
        filled = bounds[:-1] < bounds[1:]
        if filled.any():
            out[filled] = np.maximum.reduceat(x.moduli(), bounds[:-1][filled])
        return out
    arr = np.abs(np.asarray(x))
    rows = len(arr) if arr.ndim else 0
    if blocks > 1 and (rows == 0 or rows % blocks):
        raise ValueError(f"{rows} rows do not split into {blocks} equal row blocks")
    return arr.reshape(blocks, arr.size // blocks).max(axis=1, initial=0.0)


def residual(lhs, rhs, blocks: int = 1) -> float:
    """Normalized worst-entry gap between two comparable objects.

    With ``blocks`` > 1, lhs and rhs are stacks of that many blocks, and
    each block pair is compared, and normalized, on its own: the result is
    the largest per-block residual, NaN when any block's is NaN. The blocks
    of an array are its equal row blocks; those of a tagged
    :class:`Functional` (one table holding a stack of tables, table t's
    entry at sigma under mask ``(t << truncation) | sigma``, a stack of
    matrix tables among them) are its tags, block t being the entries
    whose ``masks >> truncation == t``. An empty block reads 0, and a tag
    of the gap at or above ``blocks`` raises ``ValueError``.

    A comparison with no gap reads 0 without measuring its sides: a NaN or
    infinite entry on either side leaves a NaN or infinite gap, so a zero
    gap means finite sides, which no normalization moves off 0.
    """
    gap = _block_max_abs(lhs - rhs, blocks)
    if not gap.any():
        return 0.0
    scale = np.maximum(_block_max_abs(lhs, blocks), _block_max_abs(rhs, blocks))
    with np.errstate(invalid="ignore"):  # inf / inf is NaN
        return float((gap / np.maximum(1.0, scale)).max())


def excess(value, bound) -> float:
    """Largest entrywise (value - bound) / max(1, |bound|), or 0 when every
    entry of value is within its bound; a NaN entry gives NaN."""
    value, bound = np.asarray(value, dtype=float), np.asarray(bound, dtype=float)
    over = (value - bound) / np.maximum(1.0, np.abs(bound))
    return float(np.max(over, initial=0.0))


def _worst(values) -> float:
    """The largest value as ``max`` picks it, 0 for none, but NaN when any
    is NaN: ``max`` keeps a NaN only in first place, so a comparison that
    broke later on would read as a pass."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def perturbed(x):
    """A copy of x with its first entry nudged by
    PERTURBATION * max(1, largest magnitude of x), for negative controls."""
    eps = PERTURBATION * max(1.0, _block_max_abs(x).item())
    if isinstance(x, Functional):
        target = x.masks[:1] if len(x.masks) else np.zeros(1, dtype=np.int64)
        return x + Functional._from_arrays(target, np.array([eps], dtype=complex), x.truncation)
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


def family_trials(trials: int) -> int:
    """A family that draws probes makes its comparisons, and takes its
    control, on the first one, so it needs at least one."""
    if trials < 1:
        raise ValueError(f"the check families need trials >= 1, got {trials}")
    return trials


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
