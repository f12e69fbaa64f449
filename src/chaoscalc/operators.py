"""Ladder and weighted-number operators on coefficient tables.

Two families act on :class:`~chaoscalc.functionals.Functional`:

* transform-side operators (``apply_*`` kernels and the expressions built
  on them): the annihilator moves mass from ``sigma + {k}`` down to
  ``sigma``, the creator gates on membership, diagonal operators multiply
  by a function of the subset;
* square-integrable-side operators (``l2_*``): the same index moves written
  against the orthonormal product basis, kept as an independent code path so
  the verification suite can compare the two routes instead of testing a
  function against itself.

An expression (:func:`parse_expr` reads one from its JSON form) is the
function ``Functional -> Functional`` it applies: each leaf calls its
kernel, and sums, scalings and compositions combine those calls. An
expression or a kernel can be applied directly (sparse: selections and
gathers on a table's mask and value arrays) or materialized over the
truncated basis, columns indexed by input subset mask. Inside the package a
matrix is a matrix table, the same mask and value arrays at truncation 2n
with entry (r, c) under mask ``(c << n) | r``, row block b of a stack above
bit 2n. Every table comes from :func:`apply_table`, which applies the
operator once to the whole basis with each mask's column tagged in the bits
above n; every kernel therefore changes only bits below n and evaluates
diagonals at those bits.
:func:`table_product` multiplies tables with at most one entry per column,
as ladders, diagonals, their products and stacks of them are, by one
gather. The public :func:`materialize` (also named ``materialize_apply``)
converts a table to scipy CSR in one step, :func:`table_csr`, and only that
step imports ``scipy.sparse``.
"""
from __future__ import annotations

import cmath
from typing import TYPE_CHECKING, Callable

import numpy as np

from .basis import as_index, as_list, as_real, check_truncation, json_spelling, popcount_at
from .functionals import Functional
from .weights import Weight1D, Weight2D

if TYPE_CHECKING:
    import scipy.sparse

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
    :func:`apply_table` the bits above n carry a column tag."""
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
    return _times(phi, w.theta_at(_subset_masks(phi)))


def wn1d_apply(u: Weight1D, phi: Functional) -> Functional:
    """Weighted number operator for 1D weights: multiply by count(sigma)."""
    return _times(phi, u.count_at(_subset_masks(phi)))


def number_apply(phi: Functional) -> Functional:
    """Plain number operator: multiply by the cardinality of sigma."""
    return _times(phi, popcount_at(_subset_masks(phi)))


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


def l2_hop(j: int, k: int, xi: Functional) -> Functional:
    """The four-fold product d+(k) d(j) d+(j) d(k), composed from the l2 moves."""
    return l2_create(k, l2_annihilate(j, l2_create(j, l2_annihilate(k, xi))))


def l2_wn_apply(w: Weight2D, xi: Functional) -> Functional:
    """Weighted number operator on the square-integrable side: diagonal theta."""
    subsets = xi.masks & ((1 << xi.truncation) - 1)
    out = xi.values * w.theta_at(subsets)
    return Functional._dropping_zeros(xi.masks, out, xi.truncation)


def l2_wn1d_apply(u: Weight1D, xi: Functional) -> Functional:
    """1D weighted number operator on the square-integrable side."""
    subsets = xi.masks & ((1 << xi.truncation) - 1)
    out = xi.values * u.count_at(subsets)
    return Functional._dropping_zeros(xi.masks, out, xi.truncation)


# ---------------------------------------------------------------------------
# matrix tables: M[r, c] of row block b under mask (b << 2n) | (c << n) | r
# ---------------------------------------------------------------------------


def _basis(n: int) -> np.ndarray:
    """Every mask below 2^n; a matrix table takes 2n bits of an int64 mask."""
    if n > _MAX_TAGGED_TRUNCATION:
        raise ValueError(
            f"matrix tables need n <= {_MAX_TAGGED_TRUNCATION}, got {n}: "
            "a column tag takes 2n bits of an int64 mask"
        )
    return np.arange(1 << n, dtype=np.int64)


def table_product(left: Functional, right: Functional) -> Functional:
    """Blockwise product of two matrix tables: block b of the result is
    left's block b times right's block b.

    Both factors must have at most one entry per column, as every ladder,
    diagonal, jump operator, product and stack of them has; a factor with
    two entries in a column raises ValueError (a sum of such matrices is
    multiplied by applying it, see :func:`apply_table`). Each entry of right
    at (m, c) then meets at most left's one entry in column m, so the
    product is one gather through a dense lookup from (block, column) to
    left's entry, and keeps right's mask order.
    """
    n = right.truncation // 2
    low = (1 << n) - 1
    keys = left.masks >> n  # (b << n) | column
    for side, columns in (("left", keys), ("right", right.masks >> n)):
        if (columns[1:] == columns[:-1]).any():
            raise ValueError(f"the {side} factor of a table product has two entries in a column")
    wanted = right.masks >> 2 * n << n | (right.masks & low)  # (b << n) | row
    lookup = np.full(max(keys.max(initial=-1), wanted.max(initial=-1)) + 1, -1)
    lookup[keys] = np.arange(len(keys))
    at = lookup[wanted]
    hit = at >= 0
    at = at[hit]
    masks = (right.masks[hit] & ~low) | (left.masks[at] & low)
    values = left.values[at] * right.values[hit]
    return Functional._dropping_zeros(masks, values, right.truncation)


def table_transpose(table: Functional) -> Functional:
    """Each block of a matrix table transposed: (c, r) swapped within its tag."""
    n = table.truncation // 2
    low = (1 << n) - 1
    masks = (table.masks & ~((1 << 2 * n) - 1)) | (table.masks & low) << n | table.masks >> n & low
    order = np.argsort(masks)
    return Functional._from_arrays(masks[order], table.values[order], table.truncation)


def table_dense(table: Functional) -> np.ndarray:
    """A one-block matrix table as a dense 2^n x 2^n array."""
    n = table.truncation // 2
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    out[table.masks & ((1 << n) - 1), table.masks >> n] = table.values
    return out


def table_csr(table: Functional) -> scipy.sparse.csr_matrix:
    """A one-block matrix table as scipy CSR: the package's public matrix form."""
    import scipy.sparse  # loaded on first use: only this boundary needs it

    n = table.truncation // 2
    size = 1 << n
    return scipy.sparse.csr_matrix(
        (table.values, (table.masks & (size - 1), table.masks >> n)),
        shape=(size, size),
        dtype=complex,
    )


def apply_table(apply_fn: Callable[[Functional], Functional], n: int) -> Functional:
    """Matrix table of an operator given only its action, from one call of
    ``apply_fn``.

    The whole basis goes in as one private table whose masks carry their
    column above bit n, ``(col << n) | col``, all values 1. Every kernel
    selects on masks, changes only bits below n (``^``, ``|``, ``+ (1 << k)``,
    ``- (1 << k)``) and gathers diagonals at the low bits; sums merge sorted
    masks. So no column's entries mix with another's, and the output masks
    are the matrix table's ``(col << n) | row``. The tag takes 2n bits of an
    int64 mask, so n is capped at 31. ``Functional(...)`` rejects masks at or
    above ``2**n``, so the tagged input never reaches a caller.
    """
    cols = _basis(check_truncation(n))
    image = apply_fn(Functional._from_arrays(cols << n | cols, np.ones(1 << n, dtype=complex), n))
    return Functional._from_arrays(image.masks, image.values, 2 * n)


def materialize(expr: Callable[[Functional], Functional], n: int) -> scipy.sparse.csr_matrix:
    """CSR matrix of an operator given only its action, an expression or a
    kernel, over the truncated basis (column = input; see :func:`apply_table`).

    One of the three functions that need SciPy, with ``materialize_apply`` and
    ``qms.transfer_matrix``; without it they raise ModuleNotFoundError."""
    return table_csr(apply_table(expr, n))


materialize_apply = materialize


# ---------------------------------------------------------------------------
# expressions: an expression is the function Functional -> Functional it
# applies. A leaf reads its kernel from this module's globals when it is
# applied, not at parse time, so a kernel replaced on the module (a test's
# stand-in, a mutant) is the one `chaoscalc apply` runs.
# ---------------------------------------------------------------------------


def annihilate(k: int) -> Callable[[Functional], Functional]:
    k = as_index(k)
    return lambda phi: apply_annihilate(k, phi)


def create(k: int) -> Callable[[Functional], Functional]:
    k = as_index(k)
    return lambda phi: apply_create(k, phi)


def _compose(factors: tuple) -> Callable[[Functional], Functional]:
    """Operator product, leftmost factor applied last."""

    def product(phi: Functional) -> Functional:
        for factor in reversed(factors):
            phi = factor(phi)
        return phi

    return product


def hop_expr(j: int, k: int) -> Callable[[Functional], Functional]:
    """The four-fold product create(k) @ annihilate(j) @ create(j) @ annihilate(k)."""
    j, k = as_index(j), as_index(k)
    return _compose((create(k), annihilate(j), create(j), annihilate(k)))


def number() -> Callable[[Functional], Functional]:
    return lambda phi: number_apply(phi)


def gwn_expr(w: Weight2D) -> Callable[[Functional], Functional]:
    """Expression form of the 2D weighted number operator (diagonal theta)."""
    return lambda phi: gwn_apply(w, phi)


def wn1d_expr(u: Weight1D) -> Callable[[Functional], Functional]:
    """Expression form of the 1D weighted number operator (diagonal count)."""
    return lambda phi: wn1d_apply(u, phi)


# Expressions are applied recursively, so parsing caps their depth well
# inside Python's recursion limit.
_MAX_EXPR_DEPTH = 100


def parse_expr(data: dict, _depth: int = 0) -> Callable[[Functional], Functional]:
    """Rebuild an expression from its JSON form; ValueError on any malformed
    payload, including one nested deeper than ``_MAX_EXPR_DEPTH``."""
    if not isinstance(data, dict) or "op" not in data:
        raise ValueError(
            f"operator JSON must be an object with an 'op' key, got {json_spelling(data)}"
        )
    if _depth > _MAX_EXPR_DEPTH:
        raise ValueError(f"operator expression nests deeper than {_MAX_EXPR_DEPTH} levels")
    op = data["op"]

    def field(key):
        if key not in data:
            raise ValueError(f"operator {op!r} requires a {key!r} field")
        return data[key]

    if op in ("annihilate", "create"):
        k = as_index(field("k"), f"{op} index 'k'")
        return annihilate(k) if op == "annihilate" else create(k)
    if op == "identity":
        return lambda phi: phi
    if op == "zero":
        return lambda phi: Functional.zero(phi.truncation)
    if op == "number":
        return number()
    if op == "gwn":
        return gwn_expr(Weight2D.from_json(field("weight")))
    if op == "wn1d":
        return wn1d_expr(Weight1D.from_json(field("weight")))
    if op in ("sum", "compose"):
        args = as_list(field("args"), f"'args' of operator {op!r}")
        parsed = tuple(parse_expr(arg, _depth + 1) for arg in args)
        if op == "compose":
            return _compose(parsed)
        return lambda phi: sum((term(phi) for term in parsed), Functional.zero(phi.truncation))
    if op == "scale":
        c = field("c")
        re, im = as_list(c, "scale factor 'c' [re, im]", 2)
        factor = complex(as_real(re, "scale factor 'c': re"), as_real(im, "scale factor 'c': im"))
        if not cmath.isfinite(factor):
            raise ValueError(f"scale factor 'c' must be finite, got {json_spelling(c)}")
        arg = parse_expr(field("arg"), _depth + 1)
        return lambda phi: factor * arg(phi)
    raise ValueError(f"unknown operator kind {json_spelling(op)}")
