"""Lindblad-type generator built from index-transfer jump operators.

The jump operator for an ordered pair (j, k) moves occupation from index k
to index j on the product basis; its rate is the weight entry w(j, k),
stored and used verbatim (no square roots are taken anywhere). The
generator acts on observables, matrices over the truncated basis:

    L(X) = i (H X - X H) - 1/2 * sum_{j,k} w(j,k) (X B'B - 2 B' X B + B'B X)

with B the transfer matrix for (j, k) and B' its adjoint. Summing the rates
against B'B collapses to the diagonal spectral function, which gives the
verification suite three independent evaluation routes to compare.

B sends each mask m of its domain D to the one mask t(m) = (m - {k}) + {j}.
So B'XB is X gathered at t on D x D and B'B is the indicator of D: the
dissipator is applied by index gathers, and B itself is only an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .basis import as_index, check_truncation, popcount_vector
from .operators import l2_annihilate, l2_create, materialize_apply, read_only
from .reports import family_level, family_reports, max_abs, residual
from .weights import Weight2D

_HERMITIAN_TOL = 1e-12
# The tolerance of both generator check families.
TOLERANCE = 1e-12


def transfer_matrix(j: int, k: int, n: int) -> sp.csr_matrix:
    """Jump operator moving occupation k -> j, as a truncated matrix.

    Materialized from the square-integrable-side applications. The result
    is cached and shared, so its arrays are read-only. The indices are
    checked before the cache is consulted, so 1.0 or True never reads the
    entry of 1.
    """
    n = check_truncation(n)
    return _transfer_matrix(as_index(j, "transfer row"), as_index(k, "transfer column"), n)


@lru_cache(maxsize=None)
def _transfer_matrix(j: int, k: int, n: int) -> sp.csr_matrix:
    return read_only(materialize_apply(lambda xi: l2_create(j, l2_annihilate(k, xi)), n))


@dataclass
class GeneratorSpec:
    """Weight (jump rates), truncation and optional Hamiltonian."""

    weight: Weight2D
    truncation: int
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        self.truncation = check_truncation(self.truncation)
        size = 1 << self.truncation
        if self.weight.support_bound() > self.truncation:
            raise ValueError(
                f"weight support bound {self.weight.support_bound()} exceeds "
                f"truncation {self.truncation}"
            )
        if self.hamiltonian is not None:
            h = np.asarray(self.hamiltonian, dtype=complex)
            if h.shape != (size, size):
                raise ValueError(
                    f"hamiltonian shape {h.shape} does not match basis size {size}"
                )
            gap = max_abs(h - h.conj().T)
            if gap > _HERMITIAN_TOL * max(1.0, max_abs(h)):
                raise ValueError(f"hamiltonian is not hermitian (gap {gap:.3e})")
            self.hamiltonian = h


def _transfer_indices(j: int, k: int, n: int) -> tuple:
    """Domain of the transfer k -> j (masks holding k, and j only if j == k)
    and its image, as basis index arrays."""
    bit_j, bit_k = 1 << j, 1 << k
    masks = np.arange(1 << n)
    dom = masks[((masks & bit_k) != 0) & ((masks & ~bit_k & bit_j) == 0)]
    return dom, (dom & ~bit_k) | bit_j


def dissipator_apply(w: Weight2D, n: int, x: np.ndarray) -> np.ndarray:
    """The rate-weighted jump part of the generator applied to an observable."""
    n = check_truncation(n)
    x = np.asarray(x, dtype=complex)
    size = 1 << n
    if x.shape != (size, size):
        raise ValueError(f"observable shape {x.shape} does not match basis size {size}")
    out = np.zeros_like(x)
    occ = np.zeros(size)  # sum of w(j,k) B'B, a diagonal
    for (j, k), rate in sorted(w.entries.items()):
        dom, img = _transfer_indices(j, k, n)
        out[np.ix_(dom, dom)] += rate * x[np.ix_(img, img)]
        occ[dom] += rate
    return out - 0.5 * (x * occ[None, :] + occ[:, None] * x)


def generator_apply(spec: GeneratorSpec, x: np.ndarray) -> np.ndarray:
    """Full generator: commutator with the Hamiltonian plus the dissipator.

    The default Hamiltonian (occupancy count) is diagonal, so its commutator
    is taken by broadcasting; a given Hamiltonian is multiplied densely.
    """
    out = dissipator_apply(spec.weight, spec.truncation, x)
    x = np.asarray(x, dtype=complex)
    if spec.hamiltonian is None:
        h = popcount_vector(spec.truncation)
        return out + 1j * (h[:, None] * x - x * h[None, :])
    h = spec.hamiltonian
    return out + 1j * (h @ x - x @ h)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_sum_identity(w: Weight2D, n: int, tag: str = "w") -> list:
    """Rate-weighted B'B summed three ways: adjoint, explicit, diagonal.

    Route one multiplies each transfer matrix by its numerical adjoint; route
    two composes the four elementary moves explicitly; route three is the
    diagonal spectral function. All three must agree entrywise.
    """
    n = family_level(n)
    if not w.is_exact() or w.support_bound() > n:
        raise ValueError(
            "sum identity needs explicitly listed weights supported within "
            "the truncation"
        )
    size = 1 << n
    via_adjoint = np.zeros((size, size), dtype=complex)
    via_explicit = np.zeros((size, size), dtype=complex)
    for (j, k), rate in sorted(w.entries.items()):
        b = transfer_matrix(j, k, n).toarray()
        via_adjoint += rate * (b.conj().T @ b)
        explicit = materialize_apply(
            lambda xi: l2_create(k, l2_annihilate(j, l2_create(j, l2_annihilate(k, xi)))),
            n,
        ).toarray()
        via_explicit += rate * explicit
    diagonal = np.diag(w.theta_vector(n).astype(complex))
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
    and the classical (diagonal) reduction."""
    n = family_level(n)
    size = 1 << n
    spec = GeneratorSpec(weight=w, truncation=n)
    rng = np.random.default_rng(seed)
    inputs = {"n": n, "weight": tag, "trials": trials, "seed": seed}

    unital = generator_apply(spec, np.eye(size, dtype=complex))

    worst_herm = worst_lin = 0.0
    for _ in range(trials):
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        lx = generator_apply(spec, x)
        worst_herm = max(
            worst_herm, residual(generator_apply(spec, x.conj().T), lx.conj().T)
        )
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        worst_lin = max(
            worst_lin,
            residual(
                generator_apply(spec, a * x + b * y),
                a * lx + b * generator_apply(spec, y),
            ),
        )

    diag_entries = {(j, k): v for (j, k), v in w.entries.items() if j == k}
    if not diag_entries:
        diag_entries = {(k, k): 1.0 for k in range(n)}
    diag_weight = Weight2D(diag_entries)
    diag_spec = GeneratorSpec(weight=diag_weight, truncation=n)
    x_diag = np.diag(rng.standard_normal(size).astype(complex))
    image = generator_apply(diag_spec, x_diag)

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
                worst_herm,
            ),
            (
                "qms-linearity",
                "the generator is complex-linear in the observable",
                worst_lin,
            ),
            (
                "qms-diagonal-reduction",
                "diagonal rates and a diagonal observable stay diagonal "
                "(classical birth-death reduction)",
                residual(image, np.diag(np.diag(image))),
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
    return {
        "n": n,
        "rows": [[[float(v.real), float(v.imag)] for v in row] for row in x],
    }


def matrix_from_json(data: dict) -> tuple:
    if not isinstance(data, dict) or "n" not in data or "rows" not in data:
        raise ValueError("matrix JSON requires 'n' and 'rows'")
    n = check_truncation(data["n"])
    size = 1 << n
    try:
        pairs = np.ascontiguousarray(data["rows"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON rows must hold numeric [re, im] pairs: {exc}") from exc
    if pairs.shape != (size, size, 2):
        raise ValueError(f"matrix JSON must be {size} x {size} [re, im] pairs for n = {n}")
    return pairs.view(complex)[..., 0], n
