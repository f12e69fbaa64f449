"""Weight data for the weighted number operators.

Two containers:

* ``Weight1D`` -- a nonnegative function u on indices with a finite sup
  bound; drives the diagonal counting function ``count(sigma) = sum_{k in
  sigma} u(k)``.
* ``Weight2D`` -- a nonnegative function w on index pairs whose columns are
  summable, with ``alpha = sup_k sum_j w(j, k)`` finite; drives the spectral
  function ``theta``.

Entries not listed are zero, except that a column may carry a closed-form
``column_sums`` value (entries then only need to cover the indices a
computation will actually touch) plus a ``tail_bound`` for mass that is not
accounted for at all.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Mapping

import numpy as np

from .basis import Subset, _mask_of, as_index, as_list, as_real, check_truncation, json_spelling

_REL_TOL = 1e-12


def _json_kind(data, kinds: tuple) -> str:
    """The kind of a weight JSON object, one of ``kinds``."""
    if not isinstance(data, dict):
        raise ValueError(f"weight JSON must be an object, got {json_spelling(data)}")
    kind = data.get("kind")
    if kind not in kinds:
        expected = " or ".join(map(repr, kinds))
        raise ValueError(f"expected kind {expected}, got {json_spelling(kind)}")
    return kind


def _json_entries(data: dict, kind: str, shape: str, indices: int) -> dict:
    """The ``entries`` list of a weight JSON object as {index tuple: value},
    each entry ``indices`` indices and a value; every index is checked
    before it is hashed, and an index tuple may appear once."""
    entries, entry, index = {}, f"{kind} entry {shape}", f"{kind} entry index"
    for item in as_list(data.get("entries", []), f"{kind} entries"):
        *key, value = as_list(item, entry, indices + 1)
        key = tuple(as_index(i, index) for i in key)
        if key in entries:
            raise ValueError(f"duplicate {kind} entry at {json_spelling(list(key))}")
        entries[key] = value
    return entries


# Masks are nonnegative int64, so no index at or above this is ever inside.
_MASK_BITS = 63
# Mask-term cells per chunk of _sum_inside, which bounds its scratch memory.
_CHUNK_CELLS = 1 << 16


def _sum_inside(masks, pairs, terms) -> np.ndarray:
    """At each nonnegative int64 mask, the sum of the terms whose index pair
    (j, k) lies inside its subset, added in the given order. A term outside
    adds 0.0, which leaves every sum as it is, so a chunk of masks is one
    (terms, masks) table, summed down its columns."""
    masks = np.asarray(masks, dtype=np.int64)
    out = np.zeros(masks.shape, dtype=float)
    kept = [(j, k, t) for (j, k), t in zip(pairs, terms) if max(j, k) < _MASK_BITS]
    bits = np.array([(1 << j) | (1 << k) for j, k, _ in kept], dtype=np.int64)[:, None]
    values = np.array([t for _, _, t in kept], dtype=float)[:, None]
    step = max(1, _CHUNK_CELLS // max(1, len(kept)))
    for lo in range(0, masks.size, step):
        chunk = masks[lo : lo + step]
        # numpy adds a table's rows in order, but sums a lone column pairwise,
        # in another order: a lone mask is read twice
        wide = np.broadcast_to(chunk, (max(2, chunk.size),))
        table = np.where((wide & bits) == bits, values, 0.0)
        out[lo : lo + step] = table.sum(axis=0)[: chunk.size]
    return out


def _as_clean_float(v, what: str) -> float:
    value = as_real(v, what)
    if not np.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class Weight1D:
    """Nonnegative weights on single indices, zero off the listed support."""

    values: Mapping[int, float]
    sup_bound: float | None = None
    # set by the constructors whose keys are already checked plain ints
    _indices_checked: InitVar[bool] = False

    def __post_init__(self, _indices_checked):
        cleaned = {}
        for k, v in dict(self.values).items():
            if not _indices_checked:
                k = as_index(k, "weight index")
            value = _as_clean_float(v, f"weight value at {k}")
            if value != 0.0:
                cleaned[k] = value
        object.__setattr__(self, "values", cleaned)
        listed_sup = max(cleaned.values(), default=0.0)
        if self.sup_bound is None:
            object.__setattr__(self, "sup_bound", listed_sup)
        else:
            bound = _as_clean_float(self.sup_bound, "sup_bound")
            if bound + _REL_TOL * max(1.0, bound) < listed_sup:
                raise ValueError(
                    f"sup_bound {bound} is below a listed value {listed_sup}"
                )
            object.__setattr__(self, "sup_bound", bound)

    @classmethod
    def constant(cls, value: float, n: int) -> "Weight1D":
        """u == value on {0, ..., n-1}."""
        n = check_truncation(n)
        return cls({k: value for k in range(n)}, sup_bound=float(value))

    def __call__(self, k: int) -> float:
        return self.values.get(int(k), 0.0)

    def beta(self) -> float:
        """Sup bound used in the one-dimensional norm estimates."""
        return self.sup_bound

    def count(self, sigma) -> float:
        """sum_{k in sigma} u(k); the weighted occupation total."""
        mask = _mask_of(sigma)
        return sum(v for k, v in self.values.items() if mask >> k & 1)

    def count_at(self, masks) -> np.ndarray:
        """count at each of the given nonnegative int64 masks, in
        O(masks x listed values), adding them in the order :meth:`count` does."""
        return _sum_inside(masks, [(k, k) for k in self.values], self.values.values())

    def count_vector(self, n: int) -> np.ndarray:
        """count over the full truncated basis, length 2**n."""
        return self.count_at(np.arange(1 << check_truncation(n)))

    def support_bound(self) -> int:
        """1 + largest listed index (0 when empty)."""
        return 1 + max(self.values, default=-1)

    @classmethod
    def from_json(cls, data: dict) -> "Weight1D":
        """Weights from their JSON form; ValueError on any malformed payload."""
        _json_kind(data, ("diag1d",))
        values = {k: v for (k,), v in _json_entries(data, "diag1d", "[k, value]", 1).items()}
        return cls(values, sup_bound=data.get("sup_bound"), _indices_checked=True)


@dataclass(frozen=True, eq=False)
class Weight2D:
    """Nonnegative weights on index pairs (j, k) with summable columns."""

    entries: Mapping[tuple, float]
    column_sums: Mapping[int, float] | None = None
    tail_bound: float = 0.0
    # set by the constructors whose keys are already pairs of checked plain ints
    _indices_checked: InitVar[bool] = False

    def __post_init__(self, _indices_checked):
        cleaned = {}
        for key, v in dict(self.entries).items():
            pair = key
            if not _indices_checked:
                if len(key) != 2:
                    raise ValueError(f"entry key must be a pair (j, k), got {key!r}")
                pair = tuple(as_index(i, f"entry index in {key!r}") for i in key)
            value = _as_clean_float(v, f"weight value at {key}")
            if value != 0.0:
                cleaned[pair] = value
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(
            self, "tail_bound", _as_clean_float(self.tail_bound, "tail_bound")
        )
        # Each column's listed entries (j, w(j, k)) and their sum, in entry
        # order, so theta, colsum and the slices never rescan every entry.
        columns, listed_sums = {}, {}
        for (j, k), v in cleaned.items():
            columns.setdefault(k, []).append((j, v))
            listed_sums[k] = listed_sums.get(k, 0.0) + v
        for k, total in listed_sums.items():
            if not np.isfinite(total):
                raise ValueError(
                    f"the listed entries of column {k} sum to {total}: column sums "
                    "must be finite"
                )
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_listed_sums", listed_sums)
        if self.column_sums is not None:
            sums = {}
            for k, v in dict(self.column_sums).items():
                k = as_index(k, "column_sums index")
                value = _as_clean_float(v, f"column sum at {k}")
                listed = self._listed_colsum(k)
                if value + _REL_TOL * max(1.0, value) < listed:
                    raise ValueError(
                        f"column sum {value} at k={k} is below the listed sum {listed}"
                    )
                sums[k] = value
            object.__setattr__(self, "column_sums", sums)

    @classmethod
    def from_entries(cls, triples, tail_bound: float = 0.0) -> "Weight2D":
        """Build from an iterable of (j, k, value) triples; each index is
        checked before it is hashed, and a pair may appear once."""
        entries = {}
        for j, k, v in triples:
            key = (as_index(j, "entry index"), as_index(k, "entry index"))
            if key in entries:
                raise ValueError(f"duplicate entry for pair {key}")
            entries[key] = v
        return cls(entries, tail_bound=tail_bound, _indices_checked=True)

    @classmethod
    def from_weight1d(cls, u: Weight1D) -> "Weight2D":
        """Diagonal lift: w(k, k) = u(k), zero off the diagonal."""
        return cls({(k, k): v for k, v in u.values.items()}, _indices_checked=True)

    @classmethod
    def zero(cls) -> "Weight2D":
        return cls({})

    def __call__(self, j: int, k: int) -> float:
        return self.entries.get((int(j), int(k)), 0.0)

    def _listed_colsum(self, k: int) -> float:
        return self._listed_sums.get(k, 0.0)

    def colsum(self, k: int) -> float:
        """Column sum sum_j w(j, k), using a supplied closed form if present."""
        k = int(k)
        if self.column_sums is not None and k in self.column_sums:
            return self.column_sums[k]
        return self._listed_colsum(k)

    def alpha(self) -> float:
        """sup_k colsum(k) + tail_bound; exact when tail_bound == 0."""
        columns = set(self._listed_sums)
        if self.column_sums is not None:
            columns |= set(self.column_sums)
        best = max((self.colsum(k) for k in columns), default=0.0)
        return best + self.tail_bound

    def row_slice(self, k: int) -> Weight1D:
        """The function m -> w(k, m) as one-dimensional weights."""
        values = {m: v for (j, m), v in self.entries.items() if j == int(k)}
        return Weight1D(values, sup_bound=self._slice_sup(values))

    def col_slice(self, k: int) -> Weight1D:
        """The function j -> w(j, k) as one-dimensional weights."""
        values = dict(self._columns.get(int(k), ()))
        return Weight1D(values, sup_bound=self._slice_sup(values))

    def _slice_sup(self, values: dict) -> float:
        # any single unlisted entry is dominated by the unaccounted column mass
        return max(values.values(), default=0.0) + self._unlisted_mass_bound()

    def _unlisted_mass_bound(self) -> float:
        slack = 0.0
        if self.column_sums is not None:
            slack = max(
                (self.column_sums[k] - self._listed_colsum(k) for k in self.column_sums),
                default=0.0,
            )
        return max(slack, 0.0) + self.tail_bound

    def theta(self, sigma) -> float:
        """Spectral value of the weighted number operator at sigma.

        Computed by splitting the double sum over rows and columns hitting
        sigma: the diagonal part contributes w(j, j) for j in sigma, and each
        column k in sigma contributes its total mass minus the part whose row
        index also lies in sigma (counted once via the diagonal).
        """
        mask = _mask_of(sigma)
        total = 0.0
        for k in Subset(mask):
            total += self.entries.get((k, k), 0.0)
            inside = sum(v for j, v in self._columns.get(k, ()) if mask >> j & 1)
            total += self.colsum(k) - inside
        return total

    def theta_at(self, masks) -> np.ndarray:
        """theta at each of the given nonnegative int64 masks, in
        O(masks x terms).

        Same rearrangement as :meth:`theta`, vectorized: w(k,k) + colsum(k)
        added over k in sigma in increasing k, then each listed entry with
        both indices inside sigma subtracted in entry order.
        """
        columns = sorted(set(self._listed_sums).union(self.column_sums or ()))
        pairs = [(k, k) for k in columns] + list(self.entries)
        terms = [self.entries.get((k, k), 0.0) + self.colsum(k) for k in columns]
        return _sum_inside(masks, pairs, terms + [-v for v in self.entries.values()])

    def theta_vector(self, n: int) -> np.ndarray:
        """theta over the full truncated basis, length 2**n."""
        return self.theta_at(np.arange(1 << check_truncation(n)))

    def support_bound(self) -> int:
        """1 + largest index appearing in entries or column_sums (0 if none)."""
        best = -1
        for j, k in self.entries:
            best = max(best, j, k)
        if self.column_sums is not None:
            best = max(best, max(self.column_sums, default=-1))
        return 1 + best

    def is_exact(self) -> bool:
        """True when all mass is listed: no tail, no closed-form slack."""
        return self._unlisted_mass_bound() == 0.0

    @classmethod
    def from_json(cls, data: dict) -> "Weight2D":
        """Weights from their JSON form; ValueError on any malformed payload."""
        if _json_kind(data, ("dense", "diag1d")) == "diag1d":
            return cls.from_weight1d(Weight1D.from_json(data))
        entries = _json_entries(data, "dense", "[j, k, value]", 2)
        sums = data.get("column_sums", "from_entries")
        if sums == "from_entries":
            column_sums = None
        elif isinstance(sums, dict):
            if not all(k.isdecimal() for k in sums):
                keys = json_spelling(list(sums))
                raise ValueError(f"column_sums keys must be indices, got {keys}")
            column_sums = {int(k): v for k, v in sums.items()}
        else:
            raise ValueError(
                f"column_sums must be 'from_entries' or a mapping, got {json_spelling(sums)}"
            )
        return cls(entries, column_sums, data.get("tail_bound", 0.0), _indices_checked=True)


def theta_double_sum(w: Weight2D, sigma) -> float | np.ndarray:
    """Literal double-sum evaluation of theta, term by term.

    Slower than :meth:`Weight2D.theta` and unable to use closed-form column
    sums, but independent of the rearranged formula; kept as the oracle the
    verification suite compares against. ``sigma`` is one subset, or an
    int64 array of masks, which gives the array of theta at each, every
    value as the one subset gives it.
    """
    if isinstance(sigma, np.ndarray):
        # numpy cannot shift by a count past int64, and an int64 mask holds
        # no index at or above _MASK_BITS, so those indices read as absent
        mask, total, top = sigma, np.zeros(sigma.shape), _MASK_BITS
    else:
        mask, total, top = _mask_of(sigma), 0.0, math.inf
    for (j, k), v in sorted(w.entries.items()):
        inside_j = mask >> j & 1 if j < top else 0
        inside_k = mask >> k & 1 if k < top else 0
        if j == k:
            total += v * inside_j
        else:
            total += v * inside_k * (1 - inside_j)
    return total
