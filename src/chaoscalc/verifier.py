"""Identity verification suites.

Each ``check_*`` function verifies one family of operator identities on the
truncated basis and returns a list of reports. Families never test a formula
against its own implementation: closed forms are compared with literal
compositions, rearranged sums with term-by-term oracles, expression-tree
matrices with matrices materialized from the independent application routes.

Every residual comes from ``reports``: a two-sided check is a ``residual``,
a bound, monotonicity or range check an ``excess``. Every family also names
one comparison its checks make, which ``reports.family_reports`` repeats as
the family's negative control, with one entry of the left side nudged by an
amount relative to its largest magnitude; the control must fail. A control
that passes means the check could not have caught a real defect, and
poisons the run exactly like a failed check.
"""
from __future__ import annotations

import itertools
import time
from operator import attrgetter
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .basis import check_truncation, lam_vector, popcount_vector
from .functionals import Functional, GrowthBound, check_growth, pair, riesz_embed
from .operators import (
    annihilate,
    apply_annihilate,
    apply_create,
    create,
    gwn_apply,
    gwn_expr,
    hop_apply,
    hop_expr,
    l2_annihilate,
    l2_create,
    l2_wn1d_apply,
    l2_wn_apply,
    materialize,
    materialize_apply,
    number,
    number_apply,
    number_series_partial,
    occupation,
    series_partial_1d,
    series_partial_2d,
    wn1d_apply,
    wn1d_expr,
)
from .qms import check_generator_structure, check_sum_identity
from .reports import excess, family_level, family_reports, residual
from .weights import Weight1D, Weight2D, theta_double_sum

# Each family's tolerance is fixed by the family, not by the caller: car and
# hop compare 0/1 matrices and are exact, the spectral shifts add a few weight
# entries, and every other identity carries rounding from longer sums.
EXACT_TOLERANCE = 0.0
SHIFT_TOLERANCE = 1e-14
TOLERANCE = 1e-12
# The generator acts on dense 2^n x 2^n observables, so qms runs at
# min(n, QMS_MAX_N).
QMS_MAX_N = 6

_ADJOINT_NOTE = (
    "transpose relation holds entrywise on the truncated matrices; "
    "nothing is claimed about the untruncated operators"
)
_DUAL_NORM_NOTE = "dual norm: sum of lambda^(-2p) |coeff|^2 (adopted convention)"


def random_weight2d(rng: np.random.Generator, size: int) -> Weight2D:
    """Finitely supported random weights on [0, size) x [0, size): each entry
    is drawn from [0, 1) with probability 1/2."""
    entries = {}
    for j in range(size):
        for k in range(size):
            if rng.random() < 0.5:
                entries[(j, k)] = float(rng.random())
    return Weight2D(entries)


def random_weight1d(rng: np.random.Generator, size: int) -> Weight1D:
    return Weight1D({k: float(rng.random()) for k in range(size)})


def random_functional(rng: np.random.Generator, n: int) -> Functional:
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Functional.from_vector(vec, n)


def _check_trials(trials: int) -> int:
    """A family that draws probes makes its comparisons, and takes its
    control, on the first one, so it needs at least one."""
    if trials < 1:
        raise ValueError(f"the check families need trials >= 1, got {trials}")
    return trials


def _ladder_matrices(n: int):
    a = [materialize(annihilate(k), n) for k in range(n)]
    c = [materialize(create(k), n) for k in range(n)]
    return a, c


# ---------------------------------------------------------------------------
# exact matrix families
# ---------------------------------------------------------------------------


def check_car(n: int) -> list:
    """Anticommutation at equal indices, commutation across indices, nilpotency.

    All matrices involved have disjoint 0/1 entries, so these residuals are
    exactly zero, not merely small; the tolerance is 0.
    """
    n = family_level(n)
    a, c = _ladder_matrices(n)
    eye = sp.identity(1 << n, dtype=complex, format="csr")
    equal_time = [(c[k] @ a[k] + a[k] @ c[k], eye) for k in range(n)]
    cross_aa = cross_cc = cross_ca = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            cross_aa = max(cross_aa, residual(a[j] @ a[k], a[k] @ a[j]))
            cross_cc = max(cross_cc, residual(c[j] @ c[k], c[k] @ c[j]))
            cross_ca = max(cross_ca, residual(c[j] @ a[k], a[k] @ c[j]))
            cross_ca = max(cross_ca, residual(c[k] @ a[j], a[j] @ c[k]))
    masks = np.arange(1 << n, dtype=np.int64)
    occ = max(
        residual(
            materialize(occupation(k), n),
            sp.diags((masks >> k & 1).astype(complex), format="csr"),
        )
        for k in range(n)
    )
    return family_reports(
        {"n": n},
        EXACT_TOLERANCE,
        [
            (
                "car-equal-time",
                "create(k) annihilate(k) + annihilate(k) create(k) = identity",
                max(residual(lhs, rhs) for lhs, rhs in equal_time),
            ),
            (
                "car-nilpotent",
                "annihilate(k)^2 = 0 and create(k)^2 = 0",
                max(
                    max(residual(a[k] @ a[k], 0.0), residual(c[k] @ c[k], 0.0))
                    for k in range(n)
                ),
            ),
            (
                "car-cross-annihilate",
                "annihilate(j) annihilate(k) = annihilate(k) annihilate(j), j != k",
                cross_aa,
            ),
            (
                "car-cross-create",
                "create(j) create(k) = create(k) create(j), j != k",
                cross_cc,
            ),
            (
                "car-cross-mixed",
                "create(j) annihilate(k) = annihilate(k) create(j), j != k",
                cross_ca,
            ),
            (
                "occupation-symbol",
                "create(k) annihilate(k) acts as the membership indicator of k",
                occ,
            ),
            (
                "car-adjoint-transpose",
                "annihilate(k) and create(k) are mutual transposes on the truncation",
                max(residual(a[k].T.tocsr(), c[k]) for k in range(n)),
                _ADJOINT_NOTE,
            ),
        ],
        ("car-negative-control", "equal-time relation at k = 0", *equal_time[0]),
    )


def check_hop(n: int) -> list:
    """Closed form of the four-fold ladder product against literal composition."""
    n = family_level(n)
    masks = np.arange(1 << n, dtype=np.int64)
    closed_forms = []
    worst_symbol = 0.0
    for j in range(n):
        for k in range(n):
            closed = materialize_apply(lambda f: hop_apply(j, k, f), n)
            closed_forms.append((closed, materialize(hop_expr(j, k), n)))
            in_k = masks >> k & 1
            if j == k:
                symbol = in_k.astype(complex)
            else:
                symbol = (in_k & (1 - (masks >> j & 1))).astype(complex)
            worst_symbol = max(
                worst_symbol, residual(closed, sp.diags(symbol, format="csr"))
            )
    return family_reports(
        {"n": n},
        EXACT_TOLERANCE,
        [
            (
                "hop-closed-form",
                "create(k) annihilate(j) create(j) annihilate(k) equals its "
                "membership-gated diagonal closed form",
                max(residual(lhs, rhs) for lhs, rhs in closed_forms),
            ),
            (
                "hop-symbol",
                "the four-fold product is diagonal with symbol "
                "[k in sigma] * (j == k or j not in sigma)",
                worst_symbol,
            ),
        ],
        ("hop-negative-control", "closed form at j = k = 0", *closed_forms[0]),
    )


# ---------------------------------------------------------------------------
# commutation families
# ---------------------------------------------------------------------------


def check_commutation_2d(w: Weight2D, n: int, tag: str = "w") -> list:
    """Commutators of the 2D weighted number operator with the ladder pair."""
    n = family_level(n)
    a, c = _ladder_matrices(n)
    big_k = materialize(gwn_expr(w), n)
    sides_a = []
    worst_c = worst_occ = 0.0
    for k in range(n):
        row = materialize(wn1d_expr(w.row_slice(k)), n)
        col = materialize(wn1d_expr(w.col_slice(k)), n)
        scal_a = 2.0 * w(k, k) + w.colsum(k)
        sides_a.append(
            (big_k @ a[k], a[k] @ big_k + a[k] @ row + a[k] @ col - scal_a * a[k])
        )
        lhs_c = big_k @ c[k]
        rhs_c = c[k] @ big_k - c[k] @ row - c[k] @ col + w.colsum(k) * c[k]
        worst_c = max(worst_c, residual(lhs_c, rhs_c))
        occ_k = c[k] @ a[k]
        worst_occ = max(worst_occ, residual(big_k @ occ_k, occ_k @ big_k))
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "gwn-commute-annihilate",
                "gwn(w) a(k) = a(k) gwn(w) + a(k) wn1d(row_k) + a(k) wn1d(col_k)"
                " - (2 w(k,k) + colsum(k)) a(k)",
                max(residual(lhs, rhs) for lhs, rhs in sides_a),
            ),
            (
                "gwn-commute-create",
                "gwn(w) a+(k) = a+(k) gwn(w) - a+(k) wn1d(row_k) - a+(k) wn1d(col_k)"
                " + colsum(k) a+(k)",
                worst_c,
            ),
            ("gwn-commute-occupation", "gwn(w) commutes with a+(k) a(k)", worst_occ),
        ],
        (
            "gwn-commutation-negative-control",
            "annihilator commutation at k = 0",
            *sides_a[0],
        ),
    )


def check_commutation_1d(u: Weight1D, n: int, tag: str = "u") -> list:
    """Commutators of the 1D weighted number operator with the ladder pair."""
    n = family_level(n)
    a, c = _ladder_matrices(n)
    nu = materialize(wn1d_expr(u), n)
    sides_a = []
    worst_c = worst_occ = 0.0
    for k in range(n):
        sides_a.append((nu @ a[k], a[k] @ nu - u(k) * a[k]))
        worst_c = max(worst_c, residual(nu @ c[k], c[k] @ nu + u(k) * c[k]))
        occ_k = c[k] @ a[k]
        worst_occ = max(worst_occ, residual(nu @ occ_k, occ_k @ nu))
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "wn1d-commute-annihilate",
                "wn1d(u) a(k) = a(k) wn1d(u) - u(k) a(k)",
                max(residual(lhs, rhs) for lhs, rhs in sides_a),
            ),
            ("wn1d-commute-create", "wn1d(u) a+(k) = a+(k) wn1d(u) + u(k) a+(k)", worst_c),
            ("wn1d-commute-occupation", "wn1d(u) commutes with a+(k) a(k)", worst_occ),
        ],
        (
            "wn1d-commutation-negative-control",
            "annihilator commutation at k = 0",
            *sides_a[0],
        ),
    )


def check_commutation_number(n: int) -> list:
    """The unweighted special case: number operator against the ladder pair."""
    n = family_level(n)
    a, c = _ladder_matrices(n)
    nn = materialize(number(), n)
    sides_a = [(nn @ a[k], a[k] @ nn - a[k]) for k in range(n)]
    worst_c = max(residual(nn @ c[k], c[k] @ nn + c[k]) for k in range(n))
    return family_reports(
        {"n": n},
        TOLERANCE,
        [
            (
                "number-commute-annihilate",
                "number a(k) = a(k) number - a(k)",
                max(residual(lhs, rhs) for lhs, rhs in sides_a),
            ),
            ("number-commute-create", "number a+(k) = a+(k) number + a+(k)", worst_c),
        ],
        ("number-commutation-negative-control", "number commutation at k = 0", *sides_a[0]),
    )


# ---------------------------------------------------------------------------
# scalar spectral shifts
# ---------------------------------------------------------------------------


def check_spectral_shifts(w: Weight2D, n: int, tag: str = "w") -> list:
    """Adding/removing an index shifts theta by row, column and diagonal terms."""
    n = family_level(n)
    masks = np.arange(1 << n, dtype=np.int64)
    theta = w.theta_vector(n)
    sides_add = []
    worst_remove = 0.0
    for k in range(n):
        bit = 1 << k
        row_count = w.row_slice(k).count_vector(n)
        col_count = w.col_slice(k).count_vector(n)
        outside = (masks & bit) == 0
        sides_add.append(
            (
                theta[masks[outside] | bit],
                (theta - row_count - col_count + w.colsum(k))[outside],
            )
        )
        inside = ~outside
        lhs_r = theta[masks[inside] ^ bit]
        rhs_r = (theta + row_count + col_count - 2.0 * w(k, k) - w.colsum(k))[inside]
        worst_remove = max(worst_remove, residual(lhs_r, rhs_r))

    checks = [
        (
            "spectral-shift-add",
            "theta(sigma + {k}) = theta(sigma) - count(row_k, sigma)"
            " - count(col_k, sigma) + colsum(k), for k outside sigma",
            max(residual(lhs, rhs) for lhs, rhs in sides_add),
        ),
        (
            "spectral-shift-remove",
            "theta(sigma - {k}) = theta(sigma) + count(row_k, sigma)"
            " + count(col_k, sigma) - 2 w(k,k) - colsum(k), for k in sigma",
            worst_remove,
        ),
    ]
    if w.is_exact():
        oracle = np.array([theta_double_sum(w, int(m)) for m in masks])
        checks.append(
            (
                "theta-vs-double-sum",
                "rearranged theta equals the literal double sum over entries",
                residual(theta, oracle),
            )
        )
    return family_reports(
        {"n": n, "weight": tag},
        SHIFT_TOLERANCE,
        checks,
        ("spectral-shift-negative-control", "index-addition shift at k = 0", *sides_add[0]),
    )


# ---------------------------------------------------------------------------
# series representations
# ---------------------------------------------------------------------------


def check_representations(w: Weight2D, u: Weight1D, n: int, tag: str = "w") -> list:
    """Partial sums of the hop/occupation series stabilize at the support bound."""
    n = family_level(n)
    if not w.is_exact():
        raise ValueError(
            "series checks need every unit of weight mass listed explicitly"
        )
    if w.support_bound() > n or u.support_bound() > n:
        raise ValueError(
            f"series checks need weight support within the truncation "
            f"(support bound {max(w.support_bound(), u.support_bound())}, n = {n})"
        )
    target = materialize(gwn_expr(w), n)
    stabilized = []
    diagonals = []
    for cut in range(n + 1):
        partial = materialize_apply(lambda f: series_partial_2d(w, f, cut), n)
        diagonals.append(np.real(partial.diagonal()))
        if cut >= w.support_bound():
            stabilized.append(partial)

    rng = np.random.default_rng(0)
    probe = random_functional(rng, n)
    wn1d_probe = wn1d_apply(u, probe)

    def l2_series_term(j, k, xi):
        return l2_create(k, l2_annihilate(j, l2_create(j, l2_annihilate(k, xi))))

    def l2_series(xi):
        out = Functional.zero(xi.truncation)
        for (j, k), v in sorted(w.entries.items()):
            out = out + v * l2_series_term(j, k, xi)
        return out

    l2_mat = materialize_apply(l2_series, n)
    l2_target = materialize_apply(lambda xi: l2_wn_apply(w, xi), n)
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "gwn-series",
                "sum of w(j,k) hop(j,k) over j,k < m equals gwn(w) once m covers "
                "the support",
                max(residual(partial, target) for partial in stabilized),
            ),
            (
                "gwn-series-monotone",
                "diagonal of the partial sums is nondecreasing in the cutoff",
                max(excess(prev, cur) for prev, cur in zip(diagonals, diagonals[1:])),
            ),
            (
                "wn1d-series",
                "sum of u(k) a+(k) a(k) over k < m equals wn1d(u) once m covers "
                "the support",
                max(
                    residual(series_partial_1d(u, probe, cut), wn1d_probe)
                    for cut in range(u.support_bound(), n + 1)
                ),
            ),
            (
                "number-series",
                "sum of a+(k) a(k) over k < n equals the number operator",
                residual(number_series_partial(probe, n), number_apply(probe)),
            ),
            (
                "l2-wn-series",
                "the same series written with the square-integrable-side operators "
                "sums to the diagonal theta action",
                residual(l2_mat, l2_target),
            ),
        ],
        (
            "representation-negative-control",
            "first stabilized partial sum against gwn(w)",
            stabilized[0],
            target,
        ),
    )


# ---------------------------------------------------------------------------
# conjugation intertwining
# ---------------------------------------------------------------------------


def check_riesz_intertwining(
    w: Weight2D, n: int, trials: int = 100, seed: int = 42, tag: str = "w"
) -> list:
    """Conjugation carries the square-integrable operators to the transform side."""
    n = family_level(n)
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    probes = [random_functional(rng, n) for _ in range(trials)]
    worst_a = worst_c = worst_w = worst_pair = 0.0
    for xi in probes:
        embedded = riesz_embed(xi)
        for k in range(n):
            worst_a = max(
                worst_a,
                residual(riesz_embed(l2_annihilate(k, xi)), apply_annihilate(k, embedded)),
            )
            worst_c = max(
                worst_c, residual(riesz_embed(l2_create(k, xi)), apply_create(k, embedded))
            )
        worst_w = max(
            worst_w, residual(riesz_embed(l2_wn_apply(w, xi)), gwn_apply(w, embedded))
        )
        worst_pair = max(worst_pair, residual(pair(embedded, xi), xi.norm(0) ** 2))
    return family_reports(
        {"n": n, "weight": tag, "trials": trials, "seed": seed},
        TOLERANCE,
        [
            (
                "riesz-intertwining-annihilate",
                "conjugate(l2_annihilate(k, xi)) = a(k) conjugate(xi)",
                worst_a,
            ),
            (
                "riesz-intertwining-create",
                "conjugate(l2_create(k, xi)) = a+(k) conjugate(xi)",
                worst_c,
            ),
            (
                "riesz-intertwining-wn",
                "conjugate(l2_wn(w, xi)) = gwn(w) conjugate(xi)",
                worst_w,
            ),
            (
                "riesz-pairing-positivity",
                "pairing of conjugate(xi) with xi is the squared plain norm",
                worst_pair,
            ),
        ],
        (
            "riesz-negative-control",
            "annihilator intertwining at k = 0 on the first probe",
            riesz_embed(l2_annihilate(0, probes[0])),
            apply_annihilate(0, riesz_embed(probes[0])),
        ),
    )


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


def _dual_norms(coeffs: np.ndarray, lam_vec: np.ndarray, p: float) -> np.ndarray:
    weights = lam_vec[:, None] ** (-2.0 * p)
    return np.sqrt(np.sum(weights * np.abs(coeffs) ** 2, axis=0))


def check_norm_bounds(
    w: Weight2D,
    u: Weight1D,
    n: int,
    trials: int = 1000,
    seed: int = 42,
    tag: str = "w",
) -> list:
    """One-level norm estimates for the weighted number operators.

    Applying the 2D operator costs at most a factor 2*alpha when moving one
    level down the dual scale; the 1D operator costs at most beta, and that
    constant is attained on the basis functional at {0}.
    """
    n = family_level(n)
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    lam_vec = lam_vector(n)
    theta = w.theta_vector(n)
    count = u.count_vector(n)
    two_alpha = 2.0 * w.alpha()
    beta = u.beta()
    shape = (1 << n, trials)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    worst_2d = worst_1d = 0.0
    for p in (0, 1, 2):
        base = _dual_norms(coeffs, lam_vec, p)
        lifted = _dual_norms(theta[:, None] * coeffs, lam_vec, p + 1)
        worst_2d = max(worst_2d, excess(lifted, two_alpha * base))
        lifted = _dual_norms(count[:, None] * coeffs, lam_vec, p + 1)
        worst_1d = max(worst_1d, excess(lifted, beta * base))

    # route consistency: the vectorized norms above against the Functional API
    probe = Functional.from_vector(coeffs[:, 0], n)
    api = gwn_apply(w, probe).dual_norm(2)
    vec = float(_dual_norms(theta[:, None] * coeffs[:, :1], lam_vec, 2)[0])

    # sharpness of the 1D constant: on the basis functional at {0} (where
    # lambda = 1) a constant weight is an equality, not just a bound
    const = Weight1D.constant(1.5, n)
    sharp_delta = Functional.delta(1, n)
    attained = l2_wn1d_apply(const, sharp_delta).dual_norm(1) / sharp_delta.dual_norm(0)

    lift_alpha = Weight2D.from_weight1d(u).alpha()

    return family_reports(
        {"n": n, "weight": tag, "trials": trials, "seed": seed},
        TOLERANCE,
        [
            (
                "gwn-dual-norm-bound",
                "dual_norm(gwn(w) phi, p+1) <= 2 alpha(w) dual_norm(phi, p)",
                worst_2d,
                _DUAL_NORM_NOTE,
            ),
            (
                "wn1d-dual-norm-bound",
                "dual_norm(wn1d(u) phi, p+1) <= beta(u) dual_norm(phi, p)",
                worst_1d,
                _DUAL_NORM_NOTE,
            ),
            (
                "norm-bound-route-consistency",
                "vectorized dual norms match the coefficient-table API",
                residual(api, vec),
            ),
            (
                "wn1d-bound-attained",
                "with constant weights the 1D constant is attained on the basis "
                "functional at {0}",
                residual(attained, 1.5),
            ),
            (
                "remark-1d-comparison",
                "alpha of the diagonal lift equals beta, so the sharp 1D constant "
                "improves on the generic 2 alpha",
                residual(lift_alpha, beta),
            ),
        ],
        ("norm-bound-negative-control", "attained 1D constant against 1.5", attained, 1.5),
    )


# ---------------------------------------------------------------------------
# square-integrable-side lemmas
# ---------------------------------------------------------------------------


def check_l2_lemmas(w: Weight2D, u: Weight1D, n: int, tag: str = "w") -> list:
    """The ladder/number lemmas written on the square-integrable side.

    All matrices here are materialized from the l2_* application functions,
    the code path that never touches the expression engine.
    """
    n = family_level(n)
    eye = sp.identity(1 << n, dtype=complex, format="csr")
    d = [materialize_apply(lambda f, k=k: l2_annihilate(k, f), n) for k in range(n)]
    ds = [materialize_apply(lambda f, k=k: l2_create(k, f), n) for k in range(n)]
    s_w = materialize_apply(lambda f: l2_wn_apply(w, f), n)
    n_u = materialize_apply(lambda f: l2_wn1d_apply(u, f), n)

    car = max(residual(ds[k] @ d[k] + d[k] @ ds[k], eye) for k in range(n))
    worst_ua = max(residual(n_u @ d[k], d[k] @ n_u - u(k) * d[k]) for k in range(n))
    worst_uc = max(residual(n_u @ ds[k], ds[k] @ n_u + u(k) * ds[k]) for k in range(n))
    sides_wa = []
    worst_wc = 0.0
    for k in range(n):
        row = materialize_apply(lambda f: l2_wn1d_apply(w.row_slice(k), f), n)
        col = materialize_apply(lambda f: l2_wn1d_apply(w.col_slice(k), f), n)
        scal = 2.0 * w(k, k) + w.colsum(k)
        sides_wa.append((s_w @ d[k], d[k] @ s_w + d[k] @ row + d[k] @ col - scal * d[k]))
        worst_wc = max(
            worst_wc,
            residual(
                s_w @ ds[k],
                ds[k] @ s_w - ds[k] @ row - ds[k] @ col + w.colsum(k) * ds[k],
            ),
        )
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            ("l2-car", "d+(k) d(k) + d(k) d+(k) = identity on the truncation", car),
            ("l2-wn1d-commute-annihilate", "N_u d(k) = d(k) N_u - u(k) d(k)", worst_ua),
            ("l2-wn1d-commute-create", "N_u d+(k) = d+(k) N_u + u(k) d+(k)", worst_uc),
            (
                "l2-wn-commute-annihilate",
                "S_w d(k) = d(k) S_w + d(k) N_row + d(k) N_col"
                " - (2 w(k,k) + colsum(k)) d(k)",
                max(residual(lhs, rhs) for lhs, rhs in sides_wa),
            ),
            (
                "l2-wn-commute-create",
                "S_w d+(k) = d+(k) S_w - d+(k) N_row - d+(k) N_col + colsum(k) d+(k)",
                worst_wc,
            ),
        ],
        ("l2-negative-control", "S_w annihilator commutation at k = 0", *sides_wa[0]),
    )


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def check_weight_invariants(w: Weight2D, u: Weight1D, n: int, tag: str = "w") -> list:
    """Range and additivity facts about theta, count and alpha."""
    n = family_level(n)
    theta = w.theta_vector(n)
    cap = 2.0 * w.alpha() * popcount_vector(n)
    columns = [w.colsum(k) for k in range(w.support_bound())]
    count = u.count_vector(n)
    lift = Weight2D.from_weight1d(u).theta_vector(n)

    masks = np.arange(1 << n, dtype=np.int64)
    additive = 0.0
    for k in range(n):
        bit = 1 << k
        outside = (masks & bit) == 0
        additive = max(
            additive, residual(count[masks[outside] | bit], count[outside] + u(k))
        )

    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "theta-range",
                "0 <= theta(sigma) <= 2 alpha(w) #sigma on the whole basis",
                max(excess(-theta, 0.0), excess(theta, cap)),
            ),
            (
                "alpha-dominates-columns",
                "every column sum is at most alpha",
                excess(columns, w.alpha()),
            ),
            (
                "lift-theta-equals-count",
                "theta of the diagonal lift of u equals count(u, .)",
                residual(lift, count),
            ),
            (
                "count-additive",
                "count(sigma + {k}) = count(sigma) + u(k) for k outside sigma",
                additive,
            ),
            (
                "theta-empty",
                "theta and count vanish on the empty set",
                residual(np.array([w.theta(0), u.count(0)]), 0.0),
            ),
        ],
        (
            "weight-invariant-negative-control",
            "theta of the diagonal lift of u against count(u, .)",
            lift,
            count,
        ),
    )


def check_functional_invariants(n: int, trials: int = 50, seed: int = 42) -> list:
    """Norm scale structure, pairing bounds and the growth-bound consequence."""
    n = family_level(n)
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    lam_vec = lam_vector(n)
    grid = (0.0, 0.5, 1.0, 2.0)
    worst_mono = worst_dual = worst_cs = worst_growth = 0.0
    isometry = []
    for _ in range(trials):
        xi = random_functional(rng, n)
        phi = random_functional(rng, n)
        norms = [xi.norm(p) for p in grid]
        worst_mono = max(worst_mono, excess(norms[:-1], norms[1:]))
        duals = [xi.dual_norm(p) for p in grid]
        worst_dual = max(worst_dual, excess(duals[1:], duals[:-1]))
        embedded = riesz_embed(xi)
        isometry.append(
            (
                np.array([embedded.dual_norm(p) for p in (0, 1, 2)]),
                np.array([xi.dual_norm(p) for p in (0, 1, 2)]),
            )
        )
        for p in (0, 1):
            worst_cs = max(worst_cs, excess(abs(pair(phi, xi)), phi.dual_norm(p) * xi.norm(p)))
        # a table built to satisfy |coeff| <= scale * lambda^order must pass
        # the growth check together with its dual-norm consequence
        scale, order = 2.0, 1.0
        sample = rng.uniform(0.0, 1.0, size=1 << n) * np.exp(
            2j * np.pi * rng.uniform(size=1 << n)
        )
        bounded = Functional.from_vector(scale * lam_vec**order * sample, n)
        outcome = check_growth(bounded, GrowthBound(scale, order))
        if not (outcome.satisfied and outcome.dual_bound_holds):
            worst_growth = max(worst_growth, 1.0)
        else:
            worst_growth = max(
                worst_growth, excess(outcome.dual_norm_at_next, outcome.dual_norm_cap)
            )
    return family_reports(
        {"n": n, "trials": trials, "seed": seed},
        TOLERANCE,
        [
            ("norm-monotone", "norm(xi, p) is nondecreasing in p", worst_mono),
            ("dual-norm-antitone", "dual_norm(xi, p) is nonincreasing in p", worst_dual),
            (
                "riesz-isometry",
                "conjugation preserves every dual norm",
                max(residual(lhs, rhs) for lhs, rhs in isometry),
            ),
            (
                "pairing-cauchy-schwarz",
                "|pair(phi, xi)| <= dual_norm(phi, p) norm(xi, p)",
                worst_cs,
            ),
            (
                "growth-dual-bound",
                "a pointwise bound of order p caps the dual norm at level p+1 "
                "with the series constant",
                worst_growth,
                _DUAL_NORM_NOTE,
            ),
        ],
        (
            "functional-invariant-negative-control",
            "dual norms at p = 0, 1, 2 of the first conjugated probe against its own",
            *isometry[0],
        ),
    )


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------


def fixture_weights(n: int, seed: int) -> dict:
    """Named 2D fixtures: trivial, diagonal, the running two-entry one, random."""
    rng = np.random.default_rng(seed)
    out = {
        "zero": Weight2D.zero(),
        "diag-ones": Weight2D.from_weight1d(Weight1D.constant(1.0, n)),
        "running": Weight2D.from_entries([(0, 1, 2.0), (1, 1, 3.0)]),
    }
    size = max(2, min(n, 4))
    for i in range(2):
        out[f"rnd{i}"] = random_weight2d(rng, size)
    return out


def fixture_weights1d(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "ones": Weight1D.constant(1.0, n),
        "ramp": Weight1D({k: float(k) for k in range(n)}),
        "rnd": random_weight1d(rng, max(2, min(n, 4))),
    }


class _Run(NamedTuple):
    n: int
    seed: int
    weights2d: dict
    weights1d: dict
    u: Weight1D  # the 1D weight of the families that take one


# Fixture fan-outs: each maps a run to the {tag: weight} fixtures of a family.
_each_2d = attrgetter("weights2d")
_each_1d = attrgetter("weights1d")


def _once(run):
    return {None: None}


def _series_fixture(run):
    """The running weight, or the first 2D fixture when they were overridden."""
    tag = "running" if "running" in run.weights2d else next(iter(run.weights2d))
    return {tag: run.weights2d[tag]}


def _random_fixture(run):
    """The first random weight, or the series fixture when they were overridden."""
    if "rnd0" in run.weights2d:
        return {"rnd0": run.weights2d["rnd0"]}
    return _series_fixture(run)


def _qms_family(run, w):
    qn = min(run.n, QMS_MAX_N)
    return check_sum_identity(w, qn) + check_generator_structure(
        w, qn, trials=20, seed=run.seed
    )


# (family, fixture fan-out, call(run, weight, tag)), in run order. Adjacent
# entries with the same fan-out run fixture by fixture, so commutation-2d and
# spectral-shift alternate over the 2D fixtures. The calls look the check
# functions up when they run, so wrappers installed on this module see them.
_REGISTRY = (
    ("car", _once, lambda r, w, tag: check_car(r.n)),
    ("hop", _once, lambda r, w, tag: check_hop(r.n)),
    ("commutation-2d", _each_2d, lambda r, w, tag: check_commutation_2d(w, r.n, tag)),
    ("spectral-shift", _each_2d, lambda r, w, tag: check_spectral_shifts(w, r.n, tag)),
    ("commutation-1d", _each_1d, lambda r, u, tag: check_commutation_1d(u, r.n, tag)),
    ("commutation-number", _once, lambda r, w, tag: check_commutation_number(r.n)),
    ("representation", _series_fixture,
     lambda r, w, tag: check_representations(w, r.u, r.n, tag)),
    ("riesz", _random_fixture,
     lambda r, w, tag: check_riesz_intertwining(w, r.n, seed=r.seed, tag=tag)),
    ("norm-bound", _random_fixture,
     lambda r, w, tag: check_norm_bounds(w, r.u, r.n, seed=r.seed, tag=tag)),
    ("l2", _random_fixture, lambda r, w, tag: check_l2_lemmas(w, r.u, r.n, tag)),
    ("weight-invariant", _each_2d,
     lambda r, w, tag: check_weight_invariants(w, r.u, r.n, tag)),
    ("functional-invariant", _once,
     lambda r, w, tag: check_functional_invariants(r.n, 50, r.seed)),
    ("qms", _series_fixture, lambda r, w, tag: _qms_family(r, w)),
)

FAMILY_NAMES = tuple(family for family, _, _ in _REGISTRY)


def run_all(n: int = 8, seed: int = 42, only=None, weight_override: Weight2D | None = None):
    """Run every family on the fixture set; returns (reports, timings).

    ``only`` restricts to a nonempty subset of FAMILY_NAMES. A weight override
    replaces the 2D fixtures wholesale (tagged 'custom'). Timings are per
    family run, labelled ``family``, ``family#1``, ..., and deliberately kept
    out of the reports themselves.
    """
    n = check_truncation(n)
    if n < 2:
        raise ValueError(
            f"the check families need n >= 2, got {n}: the fixture weights sit on "
            "indices 0 and 1"
        )
    if only is not None and not only:
        raise ValueError(f"the family selection is empty; choose from {FAMILY_NAMES}")
    unknown = set(only or ()) - set(FAMILY_NAMES)
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}; choose from {FAMILY_NAMES}")
    if weight_override is not None:
        # theta is at most 2 alpha n on the basis, so this keeps it finite
        if not np.isfinite(2.0 * weight_override.alpha() * n):
            raise ValueError(
                f"the weight's theta can reach 2 * alpha * n = 2 * "
                f"{weight_override.alpha():g} * {n}, which overflows double precision"
            )
        weights2d = {"custom": weight_override}
    else:
        weights2d = fixture_weights(n, seed)
    weights1d = fixture_weights1d(n, seed)
    run = _Run(n, seed, weights2d, weights1d, weights1d["rnd"])
    reports, timings, counts = [], {}, {}
    for fan_out, entries in itertools.groupby(_REGISTRY, key=lambda entry: entry[1]):
        entries = [entry for entry in entries if only is None or entry[0] in only]
        for tag, w in fan_out(run).items():
            for family, _, call in entries:
                index = counts.get(family, 0)
                counts[family] = index + 1
                label = family if index == 0 else f"{family}#{index}"
                start = time.perf_counter()
                reports.extend(call(run, w, tag))
                timings[label] = time.perf_counter() - start
    return reports, timings
