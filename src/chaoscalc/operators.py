"""Ladder and weighted-number operators on coefficient tables.

Two families act on :class:`~chaoscalc.functionals.Functional`:

* transform-side operators (``apply_*``, expression trees): the annihilator
  moves mass from ``sigma + {k}`` down to ``sigma``, the creator gates on
  membership, diagonal operators multiply by a function of the subset;
* square-integrable-side operators (``l2_*``): the same index moves written
  against the orthonormal product basis, kept as an independent code path so
  the verification suite can compare the two routes instead of testing a
  function against itself.

Expressions compose with ``@``, add with ``+`` and scale with ``*``; they can
be applied directly (sparse: selections and gathers on a table's mask and
value arrays) or materialized as scipy CSR matrices over the truncated basis,
columns indexed by input subset mask. A matrix known only through a kernel
comes from :func:`materialize_apply`, which applies the kernel once to the
whole basis with each mask's column tagged in the bits above n; every kernel
therefore changes only bits below n and evaluates diagonals at those bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .basis import as_index, check_truncation, popcount_vector
from .functionals import Functional
from .weights import Weight1D, Weight2D

_MAX_TAGGED_TRUNCATION = 31  # 2n tag bits stay clear of an int64 mask's sign bit

# ---------------------------------------------------------------------------
# direct applications
# ---------------------------------------------------------------------------


def _check_index(k: int, n: int, what: str) -> int:
    k = as_index(k, f"{what} index")
    if k >= n:
        raise ValueError(f"{what} index {k} outside truncation {n}")
    return k


def apply_annihilate(k: int, phi: Functional) -> Functional:
    """Transform-side annihilator: output at sigma reads input at sigma + {k}."""
    k = _check_index(k, phi.truncation, "annihilate")
    bit = 1 << k
    keep = (phi.masks & bit) != 0
    return Functional._from_arrays(phi.masks[keep] ^ bit, phi.values[keep], phi.truncation)


def apply_create(k: int, phi: Functional) -> Functional:
    """Transform-side creator: output at sigma containing k reads sigma - {k}."""
    k = _check_index(k, phi.truncation, "create")
    bit = 1 << k
    keep = (phi.masks & bit) == 0
    return Functional._from_arrays(phi.masks[keep] | bit, phi.values[keep], phi.truncation)


def _subset_masks(phi: Functional) -> np.ndarray:
    """phi's masks below bit n, where diagonals are evaluated; inside
    :func:`materialize_apply` the bits above n carry a column tag."""
    return phi.masks & ((1 << phi.truncation) - 1)


def _times(phi: Functional, factors: np.ndarray) -> Functional:
    """phi with each coefficient multiplied by the factor at its position."""
    return Functional._dropping_zeros(phi.masks, factors * phi.values, phi.truncation)


def occupation_apply(k: int, phi: Functional) -> Functional:
    """create(k) after annihilate(k): multiplies by the membership indicator."""
    k = _check_index(k, phi.truncation, "occupation")
    keep = (phi.masks & 1 << k) != 0
    return Functional._from_arrays(phi.masks[keep], phi.values[keep], phi.truncation)


def hop_apply(j: int, k: int, phi: Functional) -> Functional:
    """Closed form of create(k) @ annihilate(j) @ create(j) @ annihilate(k).

    Diagonal: sigma keeps its coefficient exactly when k is present and
    (for j != k) j is absent; for j == k only the presence of k matters.
    """
    n = phi.truncation
    j = _check_index(j, n, "hop row")
    k = _check_index(k, n, "hop column")
    bit_k = 1 << k
    gate = bit_k | (0 if j == k else 1 << j)
    keep = (phi.masks & gate) == bit_k
    return Functional._from_arrays(phi.masks[keep], phi.values[keep], n)


def gwn_apply(w: Weight2D, phi: Functional) -> Functional:
    """Weighted number operator for 2D weights: multiply by theta(sigma)."""
    return _times(phi, w.theta_vector(phi.truncation)[_subset_masks(phi)])


def wn1d_apply(u: Weight1D, phi: Functional) -> Functional:
    """Weighted number operator for 1D weights: multiply by count(sigma)."""
    return _times(phi, u.count_vector(phi.truncation)[_subset_masks(phi)])


def number_apply(phi: Functional) -> Functional:
    """Plain number operator: multiply by the cardinality of sigma."""
    return _times(phi, popcount_vector(phi.truncation)[_subset_masks(phi)])


def series_partial_2d(w: Weight2D, phi: Functional, m: int) -> Functional:
    """Square partial sum of the double series for the 2D operator.

    Sums w(j, k) * hop(j, k) over listed entries with j < m and k < m. Once m
    reaches the weight's support bound the sum has stabilized; if the weight
    carries closed-form column sums the unlisted mass is simply not summable
    term by term, so callers should hold an exact weight here.
    """
    if m < 0 or m > phi.truncation:
        raise ValueError(f"partial-sum cutoff {m} outside [0, {phi.truncation}]")
    total = Functional.zero(phi.truncation)
    for (j, k), v in sorted(w.entries.items()):
        if j < m and k < m:
            total = total + v * hop_apply(j, k, phi)
    return total


def series_partial_1d(u: Weight1D, phi: Functional, m: int) -> Functional:
    """Partial sum of u(k) * occupation(k) over k < m."""
    if m < 0 or m > phi.truncation:
        raise ValueError(f"partial-sum cutoff {m} outside [0, {phi.truncation}]")
    total = Functional.zero(phi.truncation)
    for k, v in sorted(u.values.items()):
        if k < m:
            total = total + v * occupation_apply(k, phi)
    return total


def number_series_partial(phi: Functional, m: int) -> Functional:
    """Partial sum of occupation(k) over k < m; stabilizes at m == truncation."""
    return series_partial_1d(Weight1D.constant(1.0, phi.truncation), phi, m)


# ---------------------------------------------------------------------------
# square-integrable side (independent code path)
# ---------------------------------------------------------------------------


def l2_annihilate(k: int, xi: Functional) -> Functional:
    """Gradient-type operator on product-basis coefficients.

    Sends the basis vector labeled sigma to the one labeled sigma - {k} when
    k is present, and kills it otherwise.
    """
    k = _check_index(k, xi.truncation, "l2 annihilate")
    present = (xi.masks >> k & 1).astype(bool)
    return Functional._from_arrays(
        xi.masks[present] - (1 << k), xi.values[present], xi.truncation
    )


def l2_create(k: int, xi: Functional) -> Functional:
    """Adjoint of :func:`l2_annihilate` on product-basis coefficients."""
    k = _check_index(k, xi.truncation, "l2 create")
    absent = (xi.masks >> k & 1) == 0
    return Functional._from_arrays(
        xi.masks[absent] + (1 << k), xi.values[absent], xi.truncation
    )


def l2_wn_apply(w: Weight2D, xi: Functional) -> Functional:
    """Weighted number operator on the square-integrable side: diagonal theta."""
    subsets = xi.masks & ((1 << xi.truncation) - 1)
    out = xi.values * w.theta_vector(xi.truncation).take(subsets)
    return Functional._dropping_zeros(xi.masks, out, xi.truncation)


def l2_wn1d_apply(u: Weight1D, xi: Functional) -> Functional:
    """1D weighted number operator on the square-integrable side."""
    subsets = xi.masks & ((1 << xi.truncation) - 1)
    out = xi.values * u.count_vector(xi.truncation).take(subsets)
    return Functional._dropping_zeros(xi.masks, out, xi.truncation)


def materialize_apply(
    apply_fn: Callable[[Functional], Functional], n: int
) -> sp.csr_matrix:
    """Matrix of an operator given only its action, from one call of ``apply_fn``.

    The whole basis goes in as one private table whose masks carry their
    column above bit n, ``(col << n) | col``, all values 1. Every kernel
    selects on masks, changes only bits below n (``^``, ``|``, ``+ (1 << k)``,
    ``- (1 << k)``) and gathers diagonals at the low bits; sums merge sorted
    masks. So no column's entries mix with another's, and each output entry
    reads as row ``mask & (2**n - 1)``, column ``mask >> n``. The tag takes
    2n bits of an int64 mask, so n is capped at 31. The tagged table never
    reaches a caller; ``Functional(...)`` rejects masks at or above ``2**n``.
    """
    n = check_truncation(n)
    if n > _MAX_TAGGED_TRUNCATION:
        raise ValueError(
            f"materialize_apply needs n <= {_MAX_TAGGED_TRUNCATION}, got {n}: "
            "a column tag takes 2n bits of an int64 mask"
        )
    size = 1 << n
    cols = np.arange(size, dtype=np.int64)
    image = apply_fn(Functional._from_arrays(cols << n | cols, np.ones(size, dtype=complex), n))
    return sp.csr_matrix(
        (image.values, (image.masks & (size - 1), image.masks >> n)),
        shape=(size, size),
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


class OperatorExpr:
    """Base class: a symbolic operator applicable to functionals."""

    def apply(self, phi: Functional) -> Functional:
        raise NotImplementedError

    def materialize(self, n: int) -> sp.csr_matrix:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return Sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return Sum((self, Scale(-1.0, other)))

    def __mul__(self, scalar):
        if isinstance(scalar, OperatorExpr):
            return NotImplemented
        return Scale(complex(scalar), self)

    __rmul__ = __mul__

    def __neg__(self):
        return Scale(-1.0, self)

    def __matmul__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return Compose((self, other))


def read_only(m: sp.csr_matrix) -> sp.csr_matrix:
    """Lock a cached matrix's arrays, so that a caller writing into the
    shared result gets an error instead of corrupting later lookups."""
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def _annihilate_matrix(k: int, n: int) -> sp.csr_matrix:
    size = 1 << n
    bit = 1 << k
    cols = np.array([m for m in range(size) if m & bit], dtype=np.int64)
    rows = cols ^ bit
    data = np.ones(len(cols), dtype=complex)
    return read_only(sp.csr_matrix((data, (rows, cols)), shape=(size, size)))


@lru_cache(maxsize=None)
def _create_matrix(k: int, n: int) -> sp.csr_matrix:
    size = 1 << n
    bit = 1 << k
    cols = np.array([m for m in range(size) if not m & bit], dtype=np.int64)
    rows = cols | bit
    data = np.ones(len(cols), dtype=complex)
    return read_only(sp.csr_matrix((data, (rows, cols)), shape=(size, size)))


@dataclass(frozen=True)
class Annihilate(OperatorExpr):
    k: int

    def apply(self, phi):
        return apply_annihilate(self.k, phi)

    def materialize(self, n):
        n = check_truncation(n)
        _check_index(self.k, n, "annihilate")
        return _annihilate_matrix(self.k, n)

    def to_json(self):
        return {"op": "annihilate", "k": self.k}


@dataclass(frozen=True)
class Create(OperatorExpr):
    k: int

    def apply(self, phi):
        return apply_create(self.k, phi)

    def materialize(self, n):
        n = check_truncation(n)
        _check_index(self.k, n, "create")
        return _create_matrix(self.k, n)

    def to_json(self):
        return {"op": "create", "k": self.k}


@dataclass(frozen=True, eq=False)
class Diagonal(OperatorExpr):
    """Multiplication by a real function of the subset.

    ``vector_fn(n)`` evaluates it over the full truncated basis; ``json_form``
    makes the node serializable when the function has one.
    """

    vector_fn: Callable[[int], np.ndarray]
    json_form: dict | None = None

    def apply(self, phi):
        return _times(phi, self.vector(phi.truncation)[_subset_masks(phi)])

    def vector(self, n: int) -> np.ndarray:
        return np.asarray(self.vector_fn(check_truncation(n)), dtype=float)

    def materialize(self, n):
        return sp.diags(self.vector(n).astype(complex), format="csr")

    def to_json(self):
        if self.json_form is None:
            raise ValueError(
                "only named diagonal forms (gwn/wn1d/number) serialize to JSON"
            )
        return dict(self.json_form)


@dataclass(frozen=True)
class Identity(OperatorExpr):
    def apply(self, phi):
        return Functional._from_arrays(phi.masks, phi.values, phi.truncation)

    def materialize(self, n):
        return sp.identity(1 << check_truncation(n), dtype=complex, format="csr")

    def to_json(self):
        return {"op": "identity"}


@dataclass(frozen=True)
class Zero(OperatorExpr):
    def apply(self, phi):
        return Functional.zero(phi.truncation)

    def materialize(self, n):
        size = 1 << check_truncation(n)
        return sp.csr_matrix((size, size), dtype=complex)

    def to_json(self):
        return {"op": "zero"}


@dataclass(frozen=True)
class Sum(OperatorExpr):
    terms: tuple

    def apply(self, phi):
        out = Functional.zero(phi.truncation)
        for term in self.terms:
            out = out + term.apply(phi)
        return out

    def materialize(self, n):
        size = 1 << check_truncation(n)
        out = sp.csr_matrix((size, size), dtype=complex)
        for term in self.terms:
            out = out + term.materialize(n)
        return out

    def to_json(self):
        return {"op": "sum", "args": [t.to_json() for t in self.terms]}


@dataclass(frozen=True)
class Scale(OperatorExpr):
    factor: complex
    arg: OperatorExpr

    def apply(self, phi):
        return self.factor * self.arg.apply(phi)

    def materialize(self, n):
        return (self.factor * self.arg.materialize(n)).tocsr()

    def to_json(self):
        return {
            "op": "scale",
            "c": [self.factor.real, self.factor.imag],
            "arg": self.arg.to_json(),
        }


@dataclass(frozen=True)
class Compose(OperatorExpr):
    """Composition, leftmost factor applied last (operator product order)."""

    factors: tuple

    def apply(self, phi):
        out = phi
        for factor in reversed(self.factors):
            out = factor.apply(out)
        return out

    def materialize(self, n):
        size = 1 << check_truncation(n)
        out = sp.identity(size, dtype=complex, format="csr")
        for factor in self.factors:
            out = out @ factor.materialize(n)
        return out.tocsr()

    def to_json(self):
        return {"op": "compose", "args": [f.to_json() for f in self.factors]}


# -- expression constructors -------------------------------------------------


def annihilate(k: int) -> Annihilate:
    return Annihilate(as_index(k))


def create(k: int) -> Create:
    return Create(as_index(k))


def identity() -> Identity:
    return Identity()


def zero() -> Zero:
    return Zero()


def occupation(k: int) -> Compose:
    """create(k) @ annihilate(k); symbol is the membership indicator."""
    k = as_index(k)
    return Compose((Create(k), Annihilate(k)))


def hop_expr(j: int, k: int) -> Compose:
    """The four-fold product create(k) @ annihilate(j) @ create(j) @ annihilate(k)."""
    j, k = as_index(j), as_index(k)
    return Compose((Create(k), Annihilate(j), Create(j), Annihilate(k)))


def number() -> Diagonal:
    return Diagonal(lambda n: popcount_vector(n).astype(float), {"op": "number"})


def gwn_expr(w: Weight2D) -> Diagonal:
    """Expression form of the 2D weighted number operator (diagonal theta)."""
    return Diagonal(w.theta_vector, {"op": "gwn", "weight": w.to_json()})


def wn1d_expr(u: Weight1D) -> Diagonal:
    """Expression form of the 1D weighted number operator (diagonal count)."""
    return Diagonal(u.count_vector, {"op": "wn1d", "weight": u.to_json()})


def materialize(expr: OperatorExpr, n: int) -> sp.csr_matrix:
    """CSR matrix of an expression over the truncated basis (column = input)."""
    return expr.materialize(n)


# Trees are applied, materialized and serialized recursively, so parsing
# caps their depth well inside Python's recursion limit.
_MAX_EXPR_DEPTH = 100


def parse_expr(data: dict, _depth: int = 0) -> OperatorExpr:
    """Rebuild an expression tree from its JSON form; ValueError on any
    malformed payload, including one nested deeper than ``_MAX_EXPR_DEPTH``."""
    if not isinstance(data, dict) or "op" not in data:
        raise ValueError(f"operator JSON must be an object with an 'op' key, got {data!r}")
    if _depth > _MAX_EXPR_DEPTH:
        raise ValueError(f"operator expression nests deeper than {_MAX_EXPR_DEPTH} levels")
    op = data["op"]

    def field(key):
        if key not in data:
            raise ValueError(f"operator {op!r} requires a {key!r} field")
        return data[key]

    if op in ("annihilate", "create"):
        k = as_index(field("k"), f"{op} index 'k'")
        return Annihilate(k) if op == "annihilate" else Create(k)
    if op == "identity":
        return Identity()
    if op == "zero":
        return Zero()
    if op == "number":
        return number()
    if op == "gwn":
        return gwn_expr(Weight2D.from_json(field("weight")))
    if op == "wn1d":
        return wn1d_expr(Weight1D.from_json(field("weight")))
    if op in ("sum", "compose"):
        args = field("args")
        if not isinstance(args, list):
            raise ValueError(f"operator {op!r} requires an 'args' list, got {args!r}")
        parsed = tuple(parse_expr(arg, _depth + 1) for arg in args)
        return Sum(parsed) if op == "sum" else Compose(parsed)
    if op == "scale":
        c = field("c")
        try:
            re, im = c
            factor = complex(float(re), float(im))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"scale factor 'c' must be [re, im], got {c!r}") from exc
        return Scale(factor, parse_expr(field("arg"), _depth + 1))
    raise ValueError(f"unknown operator kind {op!r}")
