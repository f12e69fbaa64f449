"""Finite subsets of the nonnegative integers, used as basis labels.

Every basis object in this package is indexed by a finite subset ``sigma``
of {0, 1, 2, ...}, stored as a bitmask (bit k set means k is in sigma).
Enumerating all subsets of {0, ..., n-1} in mask order gives the canonical
ordering of the truncated basis: position == mask.
"""
from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

_DEFAULT_MAX_TRUNCATION = 20


def max_truncation() -> int:
    """Hard cap on the truncation level (full bases have 2**n elements).

    Override with the environment variable CHAOSCALC_MAX_N.
    """
    raw = os.environ.get("CHAOSCALC_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_TRUNCATION
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CHAOSCALC_MAX_N must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"CHAOSCALC_MAX_N must be nonnegative, got {value}")
    return value


def as_index(k, what: str = "index") -> int:
    """k as a plain nonnegative int; a bool, a float such as 1.7 or any other
    non-integer is a ValueError, never truncated."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {k!r}")
    if k < 0:
        raise ValueError(f"{what} must be nonnegative, got {k}")
    return int(k)


def as_real(x, what: str = "value") -> float:
    """x as a float; a string, a bool or anything else that is not a real
    number is a ValueError naming ``what``, never parsed or cast."""
    if not isinstance(x, (str, bytes, bool, np.bool_)):
        try:
            return float(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {x!r}")


def check_truncation(n: int) -> int:
    """Validate a truncation level and return it as a plain int."""
    n = as_index(n, "truncation level")
    cap = max_truncation()
    if n > cap:
        raise ValueError(
            f"truncation level {n} exceeds the cap {cap}; "
            "set CHAOSCALC_MAX_N to raise it"
        )
    return n


class Subset:
    """A finite subset of {0, 1, 2, ...} backed by a bitmask.

    Immutable, hashable, iterates in increasing order. The mask doubles as
    the basis index once a truncation level is fixed.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        object.__setattr__(self, "mask", as_index(mask, "mask"))

    def __setattr__(self, name, value):
        raise AttributeError("Subset is immutable")

    @classmethod
    def of(cls, *indices: int) -> "Subset":
        return cls.from_indices(indices)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int | None = None) -> "Subset":
        """With ``n`` given, each index must lie below it (checked before any shift)."""
        mask = 0
        for k in indices:
            k = as_index(k)
            if n is not None and k >= n:
                raise ValueError(f"index {k} lies outside truncation {n}")
            mask |= 1 << k
        return cls(mask)

    @classmethod
    def from_json(cls, data, n: int | None = None) -> "Subset":
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"subset JSON must be a list of indices, got {data!r}")
        return cls.from_indices(data, n)

    def to_json(self) -> list:
        return list(self.indices())

    def indices(self) -> tuple:
        return tuple(k for k in range(self.mask.bit_length()) if self.mask >> k & 1)

    def __contains__(self, k) -> bool:
        return isinstance(k, (int, np.integer)) and k >= 0 and bool(self.mask >> int(k) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Subset) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("Subset", self.mask))

    def __repr__(self) -> str:
        return f"Subset.of({', '.join(map(str, self.indices()))})"


def _mask_of(sigma) -> int:
    if isinstance(sigma, Subset):
        return sigma.mask
    if isinstance(sigma, (int, np.integer)) and not isinstance(sigma, bool):
        return as_index(sigma, "mask")
    if isinstance(sigma, (list, tuple, set, frozenset)):
        return Subset.of(*sigma).mask
    raise ValueError(f"expected a Subset, a bitmask or indices, got {sigma!r}")


def lam(sigma) -> float:
    """Product of (k + 1) over k in sigma; equals 1 on the empty set."""
    out = 1.0
    mask = _mask_of(sigma)
    k = 0
    while mask:
        if mask & 1:
            out *= k + 1
        mask >>= 1
        k += 1
    return out


def basis_size(n: int) -> int:
    return 1 << check_truncation(n)


# lambda of bits 0-7 and of bits 8-15 of a mask, by byte value: two fixed
# tables of integers whose product is at most 16! < 2**53.
_LOW_BYTES = tuple(np.array([lam(b << shift) for b in range(256)]) for shift in (0, 8))
_LOW_BITS = 16
_BYTE_POPCOUNTS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def lam_at(masks) -> np.ndarray:
    """lambda at each of the given nonnegative int64 masks, as floats.

    Every value equals ``lam(mask)`` exactly. Below bit 16 each partial
    product :func:`lam` forms is an integer under 2**53, so the two byte
    tables give the same double in one product; from bit 16 up, the value
    is multiplied by m + 1 for each set bit m in increasing order, as lam
    does.
    """
    masks = np.asarray(masks, dtype=np.int64)
    out = _LOW_BYTES[0][masks & 255] * _LOW_BYTES[1][masks >> 8 & 255]
    width = int(masks.max()).bit_length() if masks.size else 0
    for m in range(_LOW_BITS, width):
        np.multiply(out, m + 1, out=out, where=(masks & 1 << m) != 0)
    return out


def lam_vector(n: int) -> np.ndarray:
    """lambda over the full truncated basis, as a float array of length 2**n;
    :func:`lam_at` at every mask, for the dense routes that need them all."""
    return lam_at(np.arange(1 << check_truncation(n)))


def popcount_at(masks) -> np.ndarray:
    """Cardinality of the subset at each of the given nonnegative int64
    masks, as int64. Adds up per-byte counts from a fixed table, so numpy
    < 2.0 (no ``np.bitwise_count``) runs it too."""
    masks = np.asarray(masks, dtype=np.int64)
    out = np.zeros(masks.shape, dtype=np.int64)
    width = int(masks.max()).bit_length() if masks.size else 0
    for shift in range(0, width, 8):
        out += _BYTE_POPCOUNTS[masks >> shift & 255]
    return out


def popcount_vector(n: int) -> np.ndarray:
    """Cardinality of every subset of {0, ..., n-1}, length 2**n;
    :func:`popcount_at` at every mask."""
    return popcount_at(np.arange(1 << check_truncation(n)))


def lambda_series_partial(r: float, n: int) -> float:
    """Partial sum of lambda^(-r) over all subsets of {0, ..., n-1}.

    Uses the factorization over independent bits:
    sum over Gamma_n of lambda^(-r) == prod_{k<n} (1 + (k+1)^(-r)).
    Requires r > 1 (the full series diverges otherwise).
    """
    if not r > 1:
        raise ValueError(f"series requires r > 1, got {r}")
    n = check_truncation(n)
    out = 1.0
    for k in range(n):
        out *= 1.0 + float(k + 1) ** (-r)
    return out
