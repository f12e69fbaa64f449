"""Truncated functionals: coefficient tables over the subset basis.

A functional is a finite table ``sigma -> complex`` over subsets of
{0, ..., n-1}. The same container serves both sides of the duality: test
vectors carry chaotic-expansion coefficients, generalized elements carry
the values of their transform on basis subsets. The scale of norms

    norm(xi, p)^2      = sum lambda(sigma)^(2p) |c(sigma)|^2
    dual_norm(phi, p)^2 = sum lambda(sigma)^(-2p) |phi(sigma)|^2

makes the conjugation map an isometry between the two at every level p.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .basis import (
    Subset, _mask_of, as_real, basis_size, check_truncation, lam_at, lambda_series_partial
)

# Masks are stored as int64, so a table's truncation level stays below 63.
_MAX_TABLE_TRUNCATION = 62
_MAX_INT64 = np.iinfo(np.int64).max
_NO_MASKS = np.zeros(0, dtype=np.int64)
_NO_VALUES = np.zeros(0, dtype=complex)


def _table_truncation(n) -> int:
    n = check_truncation(n)
    if n > _MAX_TABLE_TRUNCATION:
        raise ValueError(
            f"truncation level {n} exceeds {_MAX_TABLE_TRUNCATION}, the largest "
            "a coefficient table can index with int64 masks"
        )
    return n


def _moduli(values: np.ndarray) -> np.ndarray:
    # hypot, as Python's abs(complex) computes it; np.abs differs in the last bit
    return np.hypot(values.real, values.imag)


def _tag_bounds(masks: np.ndarray, n: int, blocks: int) -> np.ndarray:
    """Where each tag ``masks >> n`` below ``blocks`` starts in sorted
    ``masks``, and where the last ends; a tag at or above ``blocks`` raises
    ``ValueError``."""
    if len(masks) and masks[-1] >> n >= blocks:
        raise ValueError(f"tag {masks[-1] >> n} lies outside {blocks} blocks")
    return np.searchsorted(masks >> n, np.arange(blocks + 1))


def _tag_sums(masks: np.ndarray, terms: np.ndarray, n: int, blocks: int) -> np.ndarray:
    """The sum of ``terms`` over each tag ``masks >> n`` below ``blocks``,
    each bit-identical to ``np.sum`` over that tag's terms alone: one block
    is ``np.sum``, equally full tags are the rows of one reshape (a row sum
    adds in ``np.sum``'s order, which ``np.add.reduceat`` does not), and
    tags of different sizes are summed one by one."""
    if blocks == 1:
        return np.sum(terms, keepdims=True)
    bounds = _tag_bounds(masks, n, blocks)
    sizes = np.diff(bounds)
    if (sizes == sizes[0]).all():
        return terms.reshape(blocks, sizes[0]).sum(axis=1)
    return np.array([np.sum(terms[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])])


class _CoeffView(Mapping):
    """Read-only ``{mask: complex}`` view of a table's mask and value arrays."""

    __slots__ = ("_masks", "_values")

    def __init__(self, masks: np.ndarray, values: np.ndarray):
        self._masks = masks
        self._values = values

    def __getitem__(self, mask) -> complex:
        if isinstance(mask, (int, np.integer)) and 0 <= mask <= _MAX_INT64:
            i = int(np.searchsorted(self._masks, mask))
            if i < len(self._masks) and self._masks[i] == mask:
                return self._values.item(i)
        raise KeyError(mask)

    def __iter__(self):
        return iter(self._masks.tolist())

    def __len__(self) -> int:
        return len(self._masks)

    def __repr__(self) -> str:
        return repr(dict(zip(self._masks.tolist(), self._values.tolist())))


@dataclass
class Functional:
    """Finite coefficient table over the truncated subset basis.

    The table is two arrays: ``masks``, sorted, unique int64 subset masks
    below ``2**truncation``, and ``values``, their complex coefficients, none
    of them zero. ``coeffs`` is a read-only ``{mask: complex}`` view of both.
    ``Functional(mapping, n)`` validates every key and value; operator
    outputs that already meet the invariants skip that through
    :meth:`_from_arrays`. Tables are values: the arrays are shared between a
    table and the tables derived from it, and nothing writes into them. So a
    table computes its coefficient moduli once, on first use, and keeps
    them (:meth:`moduli`); a derived table computes its own.
    """

    coeffs: Mapping
    truncation: int
    masks: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.truncation = _table_truncation(self.truncation)
        limit = 1 << self.truncation
        cleaned = {}
        for key, value in dict(self.coeffs).items():
            mask = _mask_of(key)
            if mask >= limit:
                raise ValueError(
                    f"subset {Subset(mask)!r} lies outside truncation {self.truncation}"
                )
            c = complex(value)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at {Subset(mask)!r} is not finite: {c}")
            if c != 0:
                cleaned[mask] = c
        masks = sorted(cleaned)
        self._set(
            np.array(masks, dtype=np.int64),
            np.array([cleaned[m] for m in masks], dtype=complex),
        )

    def _set(self, masks: np.ndarray, values: np.ndarray) -> None:
        self.masks = masks
        self.values = values
        self.coeffs = _CoeffView(masks, values)
        self._abs = None

    @classmethod
    def _from_arrays(cls, masks: np.ndarray, values: np.ndarray, n: int) -> "Functional":
        """Trusted constructor: the caller guarantees the table invariants
        (masks sorted, unique, int64 and below 2**n; no zero value; n valid).
        Nothing is checked or copied."""
        out = object.__new__(cls)
        out.truncation = n
        out._set(masks, values)
        return out

    @classmethod
    def _dropping_zeros(cls, masks: np.ndarray, values: np.ndarray, n: int) -> "Functional":
        """Trusted constructor for values that may contain zeros (products,
        sums); the masks must meet the invariants."""
        if np.count_nonzero(values) == len(values):
            return cls._from_arrays(masks, values, n)
        keep = values != 0
        return cls._from_arrays(masks[keep], values[keep], n)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Functional":
        return cls._from_arrays(_NO_MASKS, _NO_VALUES, _table_truncation(n))

    @classmethod
    def delta(cls, sigma, n: int) -> "Functional":
        """The basis functional supported on a single subset."""
        return cls({_mask_of(sigma): 1.0}, n)

    @classmethod
    def from_vector(cls, vec, n: int) -> "Functional":
        """The table of a length-2^n vector, zeros dropped. A (blocks, 2^n)
        array gives one tagged table holding row t as table t, its entry at
        sigma under mask ``(t << n) | sigma`` (see :meth:`norm`)."""
        n = _table_truncation(n)
        vec = np.asarray(vec)
        if vec.shape[-1:] != (1 << n,) or vec.ndim > 2:
            raise ValueError(
                f"vector length {vec.shape} does not match basis size {1 << n}"
            )
        vec = vec.ravel()
        masks = np.flatnonzero(vec).astype(np.int64)
        values = np.asarray(vec[masks], dtype=complex)
        if not np.isfinite(values).all():
            raise ValueError("vector has a non-finite entry")
        return cls._from_arrays(masks, values, n)

    # -- access ------------------------------------------------------------

    def fock(self, sigma) -> complex:
        """Coefficient (transform value) at sigma; zero off the support."""
        return self.coeffs.get(_mask_of(sigma), 0j)

    def as_vector(self) -> np.ndarray:
        out = np.zeros(basis_size(self.truncation), dtype=complex)
        out[self.masks] = self.values
        return out

    def moduli(self) -> np.ndarray:
        """|value| of every entry, in mask order; computed once per table."""
        if self._abs is None:
            self._abs = _moduli(self.values)
        return self._abs

    def __iter__(self) -> Iterator:
        for m, c in zip(self.masks.tolist(), self.values.tolist()):
            yield Subset(m), c

    # -- linear structure ----------------------------------------------------

    def _merge(self, other: "Functional", sign: int) -> "Functional":
        if not isinstance(other, Functional):
            return NotImplemented
        n = max(self.truncation, other.truncation)
        theirs = other.values if sign > 0 else -other.values
        # Series sums start from ``Functional.zero`` and the intertwining
        # checks subtract tables on one support, so those two cases skip the
        # union of the mask arrays.
        if not len(self.masks):
            return Functional._from_arrays(other.masks, theirs, n)
        if np.array_equal(self.masks, other.masks):
            return Functional._dropping_zeros(self.masks, self.values + theirs, n)
        # both runs are sorted, so a stable sort of the two merges them
        masks = np.sort(np.concatenate([self.masks, other.masks]), kind="stable")
        masks = masks[np.append(True, masks[1:] != masks[:-1])]
        values = np.zeros(len(masks), dtype=complex)
        values[np.searchsorted(masks, self.masks)] = self.values
        values[np.searchsorted(masks, other.masks)] += theirs
        return Functional._dropping_zeros(masks, values, n)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __mul__(self, scalar):
        if isinstance(scalar, Functional):
            return NotImplemented
        return Functional._dropping_zeros(
            self.masks, complex(scalar) * self.values, self.truncation
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Functional)
            and self.truncation == other.truncation
            and np.array_equal(self.masks, other.masks)
            and np.array_equal(self.values, other.values)
        )

    # -- norms and duality ---------------------------------------------------

    def _graded_norm(self, power: float, blocks: int | None) -> float | np.ndarray:
        # Overflow (huge |p| or coefficients) gives inf or nan rather than a
        # warning; callers that print norms check them.
        with np.errstate(over="ignore", invalid="ignore"):
            weights = lam_at(self.masks & ((1 << self.truncation) - 1)) ** power
            terms = weights * self.moduli() ** 2
            norms = np.sqrt(_tag_sums(self.masks, terms, self.truncation, blocks or 1))
        return float(norms[0]) if blocks is None else norms

    def norm(self, p: float, blocks: int | None = None) -> float | np.ndarray:
        """Graded norm with weight lambda^(2p); p = 0 is the plain l2 norm.

        With ``blocks``, the table is a stack of that many tables, table t's
        coefficient at sigma under mask ``(t << truncation) | sigma``, and
        the result is the array of their norms, each equal to the table's
        own ``norm(p)``; the same holds for :meth:`dual_norm` and
        :meth:`pair`.
        """
        return self._graded_norm(2 * p, blocks)

    def dual_norm(self, p: float, blocks: int | None = None) -> float | np.ndarray:
        """Dual-side norm with weight lambda^(-2p)."""
        return self._graded_norm(-2 * p, blocks)

    def conjugated(self) -> "Functional":
        """Coefficient-wise complex conjugate; realizes the duality embedding."""
        return Functional._from_arrays(self.masks, self.values.conj(), self.truncation)

    def pair(self, xi: "Functional", blocks: int | None = None) -> complex | np.ndarray:
        """Bilinear pairing: sum of products of coefficients, no conjugation."""
        if np.array_equal(self.masks, xi.masks):  # one support, the same products in order
            masks, products = self.masks, self.values * xi.values
        else:
            _, mine, theirs = np.intersect1d(
                self.masks, xi.masks, assume_unique=True, return_indices=True
            )
            masks, products = self.masks[mine], self.values[mine] * xi.values[theirs]
        sums = _tag_sums(masks, products, self.truncation, blocks or 1)
        return complex(sums[0]) if blocks is None else sums

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "coefficients": [
                [Subset(m).to_json(), c.real, c.imag]
                for m, c in zip(self.masks.tolist(), self.values.tolist())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Functional":
        """Table from its JSON form; ValueError on any malformed payload."""
        if not isinstance(data, dict) or "truncation" not in data:
            raise ValueError("functional JSON must be an object with a 'truncation' field")
        n = _table_truncation(data["truncation"])
        items = data.get("coefficients", [])
        if not isinstance(items, list):
            raise ValueError(f"'coefficients' must be a list, got {type(items).__name__}")
        coeffs = {}
        for item in items:
            if not isinstance(item, list) or len(item) != 3:
                raise ValueError(
                    f"coefficient must be [[indices], re, im], got {item!r}"
                )
            indices, re, im = item
            mask = Subset.from_json(indices, n).mask
            if mask in coeffs:
                raise ValueError(f"duplicate coefficient for subset {indices!r}")
            try:
                coeffs[mask] = complex(as_real(re, "re"), as_real(im, "im"))
            except ValueError as exc:
                raise ValueError(f"coefficient at {indices!r}: {exc}") from None
        return cls(coeffs, n)


def riesz_embed(xi: Functional) -> Functional:
    """Embed a test vector into the dual side (coefficient conjugation)."""
    return xi.conjugated()


@dataclass(frozen=True)
class GrowthBound:
    """Pointwise bound |phi(sigma)| <= scale * lambda(sigma)**order."""

    scale: float
    order: float

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")


@dataclass(frozen=True)
class GrowthCheckResult:
    worst_excess: float
    witness: Subset | None
    dual_norm_at_next: float
    dual_norm_cap: float


def check_growth(
    phi: Functional, bound: GrowthBound, blocks: int | None = None
) -> GrowthCheckResult | list:
    """Measure the pointwise growth bound and its norm consequence; the
    caller judges both against its own tolerance.

    ``worst_excess`` is the largest |phi(sigma)| - scale * lambda(sigma)**order,
    or 0 when none is positive, and ``witness`` the smallest mask attaining
    it, or None. The consequence probed is: a bound of order p caps the dual
    norm one level up, ``dual_norm_at_next`` = dual_norm(phi, p + 1) <=
    ``dual_norm_cap`` = scale * sqrt(sum over the truncated basis of
    lambda^(-2)), since each coefficient contributes at most
    (scale * lambda^p)^2 * lambda^(-2(p+1)). The sum is taken in its product
    form, :func:`~chaoscalc.basis.lambda_series_partial`.

    With ``blocks``, phi is a stack of that many tables, as for
    :meth:`Functional.norm`, and the result is the list of their results,
    each equal to ``check_growth`` on the table alone.
    """
    n = phi.truncation
    low = (1 << n) - 1
    excess = phi.moduli() - bound.scale * lam_at(phi.masks & low) ** bound.order
    cap = bound.scale * math.sqrt(lambda_series_partial(2.0, n))
    bounds = _tag_bounds(phi.masks, n, blocks or 1)
    results = []
    for lo, hi, dual in zip(bounds[:-1], bounds[1:], phi.dual_norm(bound.order + 1, blocks or 1)):
        worst = 0.0
        witness = None
        if hi > lo:
            # argmax takes the first, i.e. smallest, mask attaining the worst excess
            i = lo + int(np.argmax(excess[lo:hi]))
            if excess[i] > 0:
                worst = float(excess[i])
                witness = Subset(int(phi.masks[i]) & low)
        results.append(GrowthCheckResult(worst, witness, float(dual), cap))
    return results[0] if blocks is None else results
