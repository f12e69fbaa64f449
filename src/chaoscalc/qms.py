"""Lindblad-type generator built from index-transfer jump operators.

The jump operator for an ordered pair (j, k) moves occupation from index k
to index j on the product basis; its rate is the weight entry w(j, k),
stored and used verbatim (no square roots are taken anywhere). The
generator acts on observables, matrices over the truncated basis:

    L(X) = i (H X - X H) - 1/2 * sum_{j,k} w(j,k) (X B'B - 2 B' X B + B'B X)

with B the transfer matrix for (j, k) and B' its adjoint. Summing the rates
against B'B collapses to the diagonal spectral function, which gives the
verification suite three independent evaluation routes to compare.

B sends each mask m of its domain (bit k set and bit j clear; only bit k set
when j == k) to the one mask (m - {k}) + {j}. Both bits lie below the weight's
support bound s, so B'XB moves whole blocks between the (2,)*2s tile positions
of X and B'B is the domain's indicator: ``generator_apply`` works on tiles,
and B itself is only an oracle.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .basis import as_index, as_list, check_truncation, json_spelling, popcount_vector
from .functionals import Functional
from .operators import (
    apply_table, l2_annihilate, l2_create, l2_series_2d, table_csr, table_product, table_transpose,
)
from .reports import (
    TOLERANCE, SplitMix64, _worst, family_level, family_reports, family_trials, residual,
    uniform_draws,
)
from .weights import Weight2D

if TYPE_CHECKING:
    import scipy.sparse

# Cells per band accumulator of generator_apply (512 KiB, L2-resident) and its
# ufunc buffer: with numpy's default (8192) an apply at n = 9 runs ~30 % longer.
_TILE_CELLS, _UFUNC_BUFFER = 1 << 15, 256

# generator_apply's band workers, under the CPU count they were made for: a new
# count drops the pool, whose idle threads exit once it is collected, and a
# forked child drops the copy it inherits, which has no threads
_pool: dict = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.clear)


def transfer_matrix(j: int, k: int, n: int) -> scipy.sparse.csr_matrix:
    """Jump operator moving occupation k -> j, as a truncated matrix.

    Materialized from the square-integrable-side applications on every
    call; each call returns a new matrix. The indices must be integers
    below n (1.0 or True is a ValueError). Needs SciPy, which only the CSR
    functions and the tests use: without it this raises ModuleNotFoundError.
    """
    return table_csr(_transfer_table(j, k, n))


def _transfer_table(j: int, k: int, n: int) -> Functional:
    n = check_truncation(n)
    j, k = as_index(j, "transfer row"), as_index(k, "transfer column")
    return apply_table(lambda xi: l2_create(j, l2_annihilate(k, xi)), n)


@dataclass(frozen=True)
class GeneratorSpec:
    """Weight (jump rates), truncation and optional Hamiltonian, and the
    generator's plan, read from them when the spec is built: the support bound
    ``split`` = s, the sorted jump terms, each a rate with its domain and image
    slices of the (2,)*2s tile axes, and the diagonal factors ``half + i d``
    and ``rest - i d``, d the default Hamiltonian's diagonal, else 0."""

    weight: Weight2D
    truncation: int
    hamiltonian: np.ndarray | None = None
    split: int = field(init=False, repr=False, compare=False)
    terms: list = field(init=False, repr=False, compare=False)
    left: np.ndarray = field(init=False, repr=False, compare=False)
    right: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = check_truncation(self.truncation)
        size = 1 << n
        s = self.weight.support_bound()
        if s > n:
            raise ValueError(f"weight support bound {s} exceeds truncation {n}")
        h = self.hamiltonian
        if h is not None:
            h = np.asarray(h, dtype=complex)
            if h.shape != (size, size):
                raise ValueError(f"hamiltonian shape {h.shape} does not match basis size {size}")
            if not np.isfinite(h).all():
                raise ValueError("hamiltonian entries must be finite")
            gap = residual(h, h.conj().T)
            if gap > TOLERANCE:
                raise ValueError(f"hamiltonian is not hermitian (residual {gap:.3e})")
        occ = np.zeros(size)
        ov = occ.reshape((size >> s,) + (2,) * s)
        terms = []
        for (j, k), rate in sorted(self.weight.entries.items()):
            if j == k:
                dom = img = _bit_view({k: 1}, s)
            else:
                dom, img = _bit_view({k: 1, j: 0}, s), _bit_view({k: 0, j: 1}, s)
            terms.append((rate, dom + dom, img + img))
            ov[(slice(None),) + dom] += rate
        diag = popcount_vector(n) if h is None else 0.0
        # half + rest == -occ exactly, also where halving a subnormal rounds
        half = -0.5 * occ
        rest = -occ - half
        object.__setattr__(self, "truncation", n)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "split", s)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "left", half + 1j * diag)
        object.__setattr__(self, "right", rest - 1j * diag)


def _bit_view(bits: dict, s: int) -> tuple:
    """Basic-slicing index pinning the given bits on (2,)*s, axis s-1-b for bit b."""
    return tuple(bits.get(s - 1 - axis, slice(None)) for axis in range(s))


def generator_apply(spec: GeneratorSpec, x: np.ndarray) -> np.ndarray:
    """Full generator: commutator with the Hamiltonian plus the dissipator.

    X, viewed as (A, S, A, S) with A = 2^(n-s) and S = 2^s, is read in place, in bands
    of high-bit row groups seen in tile-major order (S, S, rows, A) by a strided view;
    each jump term B'XB is a slice of the (2,)*2s tile axes, summed into the thread's
    one accumulator. The default Hamiltonian (occupancy count) joins the -1/2 occ of
    the dissipator in one diagonal factor, applied to the band's rows in one product.
    The terms are summed into zeros in the order occ is summed and the diagonal
    product is added last: on L(I)'s diagonal both are the same rounded sum, so L(I)
    is exactly 0. A given Hamiltonian is multiplied densely.

    Every jump term moves basis elements only within the low s bits, so each row
    band of L(X) reads only the same rows of X. The calling thread
    and min(bands, CPUs) - 1 pooled worker threads take the bands from one
    shared iterator, each under the caller's numpy error state; CPUs are those
    the process may run on. Bands write disjoint rows with the same arithmetic
    per element, so the image does not depend on how many threads ran. An
    apply with one band starts no thread.
    """
    n, s = spec.truncation, spec.split
    x = np.asarray(x, dtype=complex)
    if x.shape != (1 << n, 1 << n):
        raise ValueError(f"observable shape {x.shape} does not match basis size {1 << n}")
    a, t = 1 << (n - s), 1 << s
    rows = min(a, max(1, _TILE_CELLS // (t << n)))
    bands = range(0, a, rows)
    # the CPUs this process may run on
    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    )
    out = np.empty(x.shape, dtype=complex)
    err = dict(np.geterr(), call=np.geterrcall())
    args = (spec, x.reshape(a, t, a, t), out, rows, iter(bands), threading.Lock(), err)
    workers, jobs = min(len(bands), cpus) - 1, []
    if workers:
        if cpus not in _pool:
            # imported here: concurrent.futures loads logging, about 0.6 MB and
            # 8 ms, which a process whose applies have one band never needs
            from concurrent.futures import ThreadPoolExecutor

            _pool.clear()
            _pool[cpus] = ThreadPoolExecutor(cpus - 1)
        jobs = [_pool[cpus].submit(_apply_bands, *args) for _ in range(workers)]
    try:
        _apply_bands(*args)
    finally:
        # no worker is left writing to out when the apply returns or raises
        for job in jobs:
            job.exception()
    for job in jobs:
        job.result()
    if spec.hamiltonian is not None:
        out += 1j * (spec.hamiltonian @ x - x @ spec.hamiltonian)
    return out


def _apply_bands(spec, xv, out, rows, bands, lock, err) -> None:
    """Write generator_apply's image of X, read in place as xv = (A, S, A, S), on
    the row bands taken from the shared iterator until it runs out, each band
    ``rows`` high-bit row groups from its start, its tiles a strided view of xv;
    numpy runs under the error state ``err`` and the ufunc buffer _UFUNC_BUFFER."""
    n, s = spec.truncation, spec.split
    a, t = 1 << (n - s), 1 << s
    acc = np.empty((t, t, rows, a), dtype=complex)
    tiles = (2,) * 2 * s
    with np.errstate(**err):
        bufsize = np.setbufsize(_UFUNC_BUFFER)
        try:
            while True:
                with lock:
                    lo = next(bands, None)
                if lo is None:
                    return
                r = min(rows, a - lo)
                xt = xv[lo : lo + r].transpose(1, 3, 0, 2).reshape(tiles + (r, a))
                acc.fill(0)
                av = acc.reshape(tiles + (rows, a))[..., :r, :]
                for rate, dom, img in spec.terms:
                    # the product in av's layout, not the view's: the add walks both in step
                    av[dom] += np.multiply(rate, xt[img], order="C")
                band = slice(lo * t, (lo + r) * t)
                chunk = out[band]
                np.add.outer(spec.left[band], spec.right, out=chunk)
                chunk = chunk.reshape(r, t, a, t)
                chunk *= xv[lo : lo + r]
                chunk += acc[:, :, :r].transpose(2, 0, 3, 1)
        finally:
            np.setbufsize(bufsize)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_sum_identity(w: Weight2D, n: int, tag: str = "w") -> list:
    """Rate-weighted B'B summed three ways: adjoint, explicit, diagonal.

    Route one multiplies each transfer matrix by its numerical adjoint; route
    two composes the four elementary moves explicitly; route three is the
    diagonal spectral function. All three are matrix tables and must agree
    entrywise.
    """
    n = family_level(n)
    if not w.is_exact() or w.support_bound() > n:
        raise ValueError(
            "sum identity needs explicitly listed weights supported within "
            "the truncation"
        )
    via_adjoint = Functional.zero(2 * n)
    for (j, k), rate in sorted(w.entries.items()):
        b = _transfer_table(j, k, n)
        via_adjoint = via_adjoint + rate * table_product(table_transpose(b).conjugated(), b)
    via_explicit = apply_table(lambda xi: l2_series_2d(w, xi), n)
    cols = np.arange(1 << n, dtype=np.int64)
    theta = w.theta_vector(n).astype(complex)
    diagonal = Functional._dropping_zeros(cols << n | cols, theta, 2 * n)
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "exclusion-sum-adjoint-vs-explicit",
                "sum of w(j,k) B'B with numerical adjoints equals the literal "
                "four-fold composition",
                residual(via_adjoint, via_explicit),
            ),
            (
                "exclusion-sum-explicit-vs-diagonal",
                "the composed sum equals the diagonal spectral function",
                residual(via_explicit, diagonal),
            ),
            (
                "exclusion-sum-adjoint-vs-diagonal",
                "the adjoint-route sum equals the diagonal spectral function",
                residual(via_adjoint, diagonal),
            ),
        ],
        (
            "exclusion-sum-negative-control",
            "adjoint-route sum against the diagonal spectral function",
            via_adjoint,
            diagonal,
        ),
    )


def check_generator_structure(
    w: Weight2D, n: int, trials: int = 100, seed: int = 42, tag: str = "w"
) -> list:
    """Structural facts: unital kernel, hermiticity preservation, linearity,
    and the classical reduction: on diagonal observables the generator is the
    exclusion chain's generator Q, computed from the weight's entries alone.

    Each identity holds for every observable, so the trials draw X and Y
    with real and imaginary parts uniform on [-1, 1), straight from the
    seed's stream. f is uniform on [-sqrt 3, sqrt 3), of unit variance, so
    that Q f reaches past 1 in modulus, where the reduction's residual is
    relative, not absolute."""
    n = family_level(n)
    trials = family_trials(trials)
    size = 1 << n
    spec = GeneratorSpec(weight=w, truncation=n)
    rng = SplitMix64(seed)
    inputs = {"n": n, "weight": tag, "trials": trials, "seed": seed}

    unital = generator_apply(spec, np.eye(size, dtype=complex))

    herm, lin = [], []
    for _ in range(trials):
        x = uniform_draws(rng, (size, size), complex)
        y = uniform_draws(rng, (size, size), complex)
        lx = generator_apply(spec, x)
        herm.append(residual(generator_apply(spec, x.conj().T), lx.conj().T))
        a, b = uniform_draws(rng, 2, complex).tolist()
        lxy = generator_apply(spec, a * x + b * y)
        lin.append(residual(lxy, a * lx + b * generator_apply(spec, y)))

    # the classical chain on subsets: (Q f)(sigma) sums w(j, k) [f(sigma - {k} + {j})
    # - f(sigma)] over k in sigma and j not (so j != k), read off the masks, not
    # the spec's plan
    f = np.sqrt(3.0) * uniform_draws(rng, size)
    masks, qf = np.arange(size), np.zeros(size)
    for (j, k), rate in sorted(w.entries.items()):
        moves = (masks >> k & 1 == 1) & (masks >> j & 1 == 0)
        qf += rate * np.where(moves, f[masks ^ (1 << k | 1 << j)] - f, 0.0)
    image = generator_apply(spec, np.diag(f.astype(complex)))

    return family_reports(
        inputs,
        TOLERANCE,
        [
            (
                "qms-unital",
                "the generator kills the identity observable",
                residual(unital, 0.0),
            ),
            (
                "qms-hermiticity",
                "the generator of the adjoint observable is the adjoint image",
                _worst(herm),
            ),
            (
                "qms-linearity",
                "the generator is complex-linear in the observable",
                _worst(lin),
            ),
            (
                "qms-diagonal-reduction",
                "on a diagonal observable diag(f) the generator is diag(Q f), Q the "
                "classical exclusion chain with the weight's rates",
                residual(image, np.diag(qf)),
            ),
        ],
        (
            "qms-negative-control",
            "generator of the identity observable against 0",
            unital,
            0.0,
        ),
    )


# ---------------------------------------------------------------------------
# observable serialization
# ---------------------------------------------------------------------------


def matrix_to_json(x: np.ndarray, n: int) -> dict:
    x = np.asarray(x, dtype=complex)
    size = 1 << check_truncation(n)
    if x.shape != (size, size):
        raise ValueError(f"matrix shape {x.shape} does not match basis size {size}")
    pairs = np.ascontiguousarray(x).view(float).reshape(size, size, 2)
    return {"n": n, "rows": pairs.tolist()}


def _reads_as_pairs(row, size: int) -> bool:
    try:
        return np.asarray(row, dtype=float).shape == (size, 2)
    except (TypeError, ValueError, OverflowError):
        return False


def matrix_from_json(data: dict) -> tuple:
    if not isinstance(data, dict) or "n" not in data or "rows" not in data:
        raise ValueError("matrix JSON requires 'n' and 'rows'")
    n = check_truncation(data["n"])
    size = 1 << n
    try:
        pairs = np.ascontiguousarray(data["rows"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        # numpy reads any list of rows that each read as size pairs, so some row here does not
        rows = as_list(data["rows"], "matrix JSON rows")
        i = next(i for i, row in enumerate(rows) if not _reads_as_pairs(row, size))
        message = f"matrix JSON rows[{i}] must be {size} [re, im] pairs"
        raise ValueError(f"{message}, got {json_spelling(rows[i])}") from None
    if pairs.shape != (size, size, 2):
        raise ValueError(f"matrix JSON must be {size} x {size} [re, im] pairs for n = {n}")
    # numpy also reads "1.5", true and null as floats; only JSON numbers pass
    for i, row in enumerate(data["rows"]):
        if {type(cell) for pair in row for cell in pair} - {int, float}:
            bad = next(cell for pair in row for cell in pair if type(cell) not in (int, float))
            raise ValueError(
                f"matrix JSON rows[{i}] must hold numbers only, got {json_spelling(bad)}"
            )
    return pairs.view(complex)[..., 0], n
