"""Identity verification suites.

Each ``check_*`` function verifies one family of operator identities on the
truncated basis and returns a list of reports. Families never test a formula
against its own implementation: closed forms are compared with literal
compositions, rearranged sums with term-by-term oracles, the transform-side
kernels with the independent square-integrable ones.

Every residual comes from ``reports``: a two-sided check is a ``residual``,
a bound, monotonicity or range check an ``excess``. Every family also names
one comparison its checks make, which ``reports.family_reports`` repeats as
the family's negative control, with one entry of the left side nudged by an
amount relative to its largest magnitude; the control must fail. A control
that passes means the check could not have caught a real defect, and
poisons the run exactly like a failed check.

The matrix families (car, hop, the three commutation families and the l2
lemmas) work on matrix tables (see ``operators``), each built by
``apply_table`` from one call of a kernel, and make one table
product per identity side, not one per index: the per-k operands go into
one stack, block b tagged above bit 2n (a stack multiplies blockwise, so it
is also the block diagonal of its blocks; a fixed factor is repeated down
one, per-k scalars scale each block's values), and each k's residual is
read off its own tag with ``residual(..., blocks=b)``. A stack holds at
most ``_STACK_ROWS`` rows, so memory stays bounded at any n; no family
loads ``scipy.sparse``. One kernel, ``_commutators``, checks a diagonal D
against a ladder pair stack by stack, and the equal-time relation of the
pair; the three commutation families and car hand it tables of the
transform kernels (``apply_*``, ``gwn_apply``, ``wn1d_apply``,
``number_apply``), the l2 lemmas tables of the ``l2_*`` kernels.
In one ``run_all``, car, hop and the three commutation families share one
transform ladder pair, built on its first use in the run.
riesz checks its intertwinings on stacks of basis columns, column c holding
a random z_c at row c under ``apply_table``'s column tag, a residual per
tag. riesz and functional-invariant draw each stack's probes straight into
one tagged table, probe t at ``(t << n) | sigma``, in the order drawing them
one at a time would take, and ``Functional`` reads their norms, pairings and
growth bounds per tag.
spectral-shift and weight-invariant compare their per-k arrays, all of
one length, as the row blocks of one ``residual(..., blocks=n)``.
Every fold over comparisons keeps a NaN, wherever it falls.
"""
from __future__ import annotations

import time

import numpy as np

from .basis import as_index, check_truncation, lam_vector, popcount_vector
from .functionals import Functional, GrowthBound, _moduli, check_growth, riesz_embed
from .operators import (
    apply_annihilate,
    apply_create,
    apply_table,
    gwn_apply,
    hop_apply,
    l2_annihilate,
    l2_create,
    l2_series_2d,
    l2_wn1d_apply,
    l2_wn_apply,
    number_apply,
    number_series_partial,
    series_partial_1d,
    series_partial_2d,
    table_product,
    table_transpose,
    wn1d_apply,
)
from .qms import check_generator_structure, check_sum_identity
from .reports import (
    TOLERANCE,
    _worst,
    excess,
    family_level,
    family_reports,
    family_trials,
    residual,
)
from .weights import Weight1D, Weight2D, theta_double_sum

# Each family's tolerance is fixed by the family, not by the caller: car and
# hop compare 0/1 matrices and are exact, the spectral shifts add a few weight
# entries, and every other identity carries rounding from longer sums.
EXACT_TOLERANCE = 0.0
SHIFT_TOLERANCE = 1e-14
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


def _table(kernel, arg, n: int) -> Functional:
    """The matrix table of ``kernel(arg, .)``, from one call of the kernel."""
    return apply_table(lambda f: kernel(arg, f), n)


def _ladder_matrices(n: int, lower, upper):
    """One side's ladder tables, ``lower(k, .)`` and ``upper(k, .)`` for every k < n."""
    return [_table(lower, k, n) for k in range(n)], [_table(upper, k, n) for k in range(n)]


def _transform_ladders(n: int, ladders):
    """The transform-side ladder pair ``ladders``, built here when None."""
    return ladders or _ladder_matrices(n, apply_annihilate, apply_create)


# ---------------------------------------------------------------------------
# stacked operands
# ---------------------------------------------------------------------------

# Rows of one stacked operand, or entries of one tagged table of probes or
# basis columns. Each table product, kernel call and norm has a fixed
# Python-level cost, so the matrix families stack their per-k operands, riesz
# applies each kernel to a stack of basis columns, and the probed families
# read norms off stacks of probes. At n = 8 an identity fits one or two
# stacks, a probe table holds 32 probes and a column table the whole basis;
# from n = 13 a stack holds one block or probe, so memory stays bounded.
_STACK_ROWS = 1 << 13


def _chunks(items, n: int) -> list:
    """items in consecutive runs of as many as one stack of 2^n-row blocks holds."""
    items = list(items)
    per = max(1, _STACK_ROWS >> n)
    return [items[i : i + per] for i in range(0, len(items), per)]


def _stack(tables) -> Functional:
    """One private table holding tables[t]'s entry at sigma under mask
    ``(t << n) | sigma``, n the truncation of tables[0]: the column tag of
    ``apply_table``. Every kernel keeps the tag and the mask order, and
    ``residual(..., blocks=b)`` reads each table's comparison off its own
    tag. As a matrix table it holds tables[b] as its row block b; blocks
    multiply blockwise, so a stack is also the block diagonal of its blocks."""
    n = tables[0].truncation
    masks = np.concatenate([t << n | table.masks for t, table in enumerate(tables)])
    values = np.concatenate([table.values for table in tables])
    return Functional._from_arrays(masks, values, n)


def _first(stack: Functional) -> Functional:
    """Block 0 of a stack, for a family's control."""
    end = np.searchsorted(stack.masks, 1 << stack.truncation)
    return Functional._from_arrays(stack.masks[:end], stack.values[:end], stack.truncation)


def _diagonals(values, n: int) -> Functional:
    """Stack of diagonal blocks: block b is diag(values[b * 2^n : (b + 1) * 2^n])."""
    at = np.flatnonzero(values)
    rows = at & ((1 << n) - 1)
    return Functional._from_arrays(at >> n << 2 * n | rows << n | rows, values[at], 2 * n)


def _shifted(values, stack: Functional) -> Functional:
    """stack with block b scaled by values[b]; unit shifts need no product."""
    if all(v == 1.0 for v in values):
        return stack
    factors = np.asarray(values, dtype=complex)[stack.masks >> stack.truncation]
    return Functional._dropping_zeros(stack.masks, factors * stack.values, stack.truncation)


# ---------------------------------------------------------------------------
# exact matrix families
# ---------------------------------------------------------------------------


def check_car(n: int, ladders=None) -> list:
    """Anticommutation at equal indices, commutation across indices, nilpotency.

    All matrices involved have disjoint 0/1 entries, so these residuals are
    exactly zero, not merely small; the tolerance is 0. The equal-time
    relation is the commutator kernel's; the other per-k checks run on its
    stacks beside it. ``ladders`` is the transform ladder pair as
    ``_ladder_matrices`` builds it, or None to build it here; the same holds
    for hop and the three commutation families.
    """
    n = family_level(n)
    a, c = _transform_ladders(n, ladders)
    masks = np.arange(1 << n, dtype=np.int64)
    nothing = Functional._from_arrays(masks[:0], np.zeros(0, dtype=complex), 2 * n)
    nilpotent, occ, adjoint = [], [], []

    def beside(ks, stack_a, stack_c, occupied):
        blocks = len(ks)
        nilpotent.append(residual(table_product(stack_a, stack_a), nothing, blocks))
        nilpotent.append(residual(table_product(stack_c, stack_c), nothing, blocks))
        symbol = np.concatenate([masks >> k & 1 for k in ks]).astype(complex)
        occ.append(residual(occupied, _diagonals(symbol, n), blocks))
        adjoint.append(residual(table_transpose(stack_a), stack_c, blocks))

    _, _, (equal_time, control) = _commutators(a, c, [], car=True, beside=beside)
    cross_aa, cross_cc, cross_ca = [], [], []
    for pairs in _chunks(((j, k) for j in range(n) for k in range(j + 1, n)), n):
        blocks = len(pairs)
        js, ks = zip(*pairs)
        a_j, a_k = _stack([a[j] for j in js]), _stack([a[k] for k in ks])
        c_j, c_k = _stack([c[j] for j in js]), _stack([c[k] for k in ks])
        cross_aa.append(residual(table_product(a_j, a_k), table_product(a_k, a_j), blocks))
        cross_cc.append(residual(table_product(c_j, c_k), table_product(c_k, c_j), blocks))
        cross_ca.append(residual(table_product(c_j, a_k), table_product(a_k, c_j), blocks))
        cross_ca.append(residual(table_product(c_k, a_j), table_product(a_j, c_k), blocks))
    return family_reports(
        {"n": n},
        EXACT_TOLERANCE,
        [
            (
                "car-equal-time",
                "create(k) annihilate(k) + annihilate(k) create(k) = identity",
                equal_time,
            ),
            ("car-nilpotent", "annihilate(k)^2 = 0 and create(k)^2 = 0", _worst(nilpotent)),
            (
                "car-cross-annihilate",
                "annihilate(j) annihilate(k) = annihilate(k) annihilate(j), j != k",
                _worst(cross_aa),
            ),
            (
                "car-cross-create",
                "create(j) create(k) = create(k) create(j), j != k",
                _worst(cross_cc),
            ),
            (
                "car-cross-mixed",
                "create(j) annihilate(k) = annihilate(k) create(j), j != k",
                _worst(cross_ca),
            ),
            (
                "occupation-symbol",
                "create(k) annihilate(k) acts as the membership indicator of k",
                _worst(occ),
            ),
            (
                "car-adjoint-transpose",
                "annihilate(k) and create(k) are mutual transposes on the truncation",
                _worst(adjoint),
                _ADJOINT_NOTE,
            ),
        ],
        ("car-negative-control", "equal-time relation at k = 0", *control),
    )


def check_hop(n: int, ladders=None) -> list:
    """Closed form of the four-fold ladder product against literal composition.

    The literal side multiplies the tables of the ladder kernels in the factor
    order create(k) annihilate(j) create(j) annihilate(k) of ``hop_expr``.
    Given no ``ladders``, it builds only those of one stack's pairs at a time.
    """
    n = family_level(n)
    masks = np.arange(1 << n, dtype=np.int64)
    worst_closed, worst_symbol = [], []
    for pairs in _chunks(((j, k) for j in range(n) for k in range(n)), n):
        blocks = len(pairs)
        js, ks = zip(*pairs)
        if ladders is None:
            # only the ladders of one stack's pairs are alive
            ann = {i: _table(apply_annihilate, i, n) for i in {*js, *ks}}
            cre = {i: _table(apply_create, i, n) for i in {*js, *ks}}
        else:
            ann, cre = ladders
        closed = _stack([apply_table(lambda f: hop_apply(j, k, f), n) for j, k in pairs])
        literal = _stack([cre[k] for k in ks])
        for factor in ([ann[j] for j in js], [cre[j] for j in js], [ann[k] for k in ks]):
            literal = table_product(literal, _stack(factor))
        if not worst_closed:
            control = (_first(closed), _first(literal))
        worst_closed.append(residual(closed, literal, blocks))
        del literal
        symbol = np.concatenate(
            [(masks >> k & 1) & (1 if j == k else 1 - (masks >> j & 1)) for j, k in pairs]
        ).astype(complex)
        worst_symbol.append(residual(closed, _diagonals(symbol, n), blocks))
    return family_reports(
        {"n": n},
        EXACT_TOLERANCE,
        [
            (
                "hop-closed-form",
                "create(k) annihilate(j) create(j) annihilate(k) equals its "
                "membership-gated diagonal closed form",
                _worst(worst_closed),
            ),
            (
                "hop-symbol",
                "the four-fold product is diagonal with symbol "
                "[k in sigma] * (j == k or j not in sigma)",
                _worst(worst_symbol),
            ),
        ],
        ("hop-negative-control", "closed form at j = k = 0", *control),
    )


# ---------------------------------------------------------------------------
# commutation families
# ---------------------------------------------------------------------------


def _gwn_relation(w: Weight2D, wn, wn1d, n: int) -> tuple:
    """The relation of one side's 2D weighted number kernel ``wn(w, .)`` with
    its 1D kernel ``wn1d`` at the slices row_k and col_k, as tables."""
    return (
        _table(wn, w, n),
        [2.0 * w(k, k) + w.colsum(k) for k in range(n)],
        [w.colsum(k) for k in range(n)],
        (lambda k: _table(wn1d, w.row_slice(k), n), lambda k: _table(wn1d, w.col_slice(k), n)),
    )


def _commutators(lower, upper, relations, occupation=False, car=False, beside=None):
    """The commutator kernel: each relation ``(D, s, t, slices)`` against the
    ladder pair L(k) = lower[k], U(k) = upper[k], k < n, one stack of ks at a
    time, every stack of ladders built once for all relations:

        D L(k) = L(k) D + sum of L(k) S(k) - s[k] L(k),
        D U(k) = U(k) D - sum of U(k) S(k) + t[k] U(k),

    with D and each S(k) = slice(k) matrix tables of one side's kernels
    (see ``_ladder_matrices`` and ``_gwn_relation``), slices summed in order.
    Returns one (L worst, U worst, occupation worst) per relation, the last
    that of D U(k) L(k) = U(k) L(k) D with ``occupation``; the first
    relation's L sides at k = 0, for the control; and, with ``car``, the
    worst of U(k) L(k) + L(k) U(k) = identity with its sides at k = 0, else
    (0, None). ``beside(ks, L stack, U stack, U L stack)`` runs on every
    stack, for the checks a family makes next to these.
    """
    n = len(lower)
    worst = [([], [], []) for _ in relations]
    control = car_control = None
    equal_time = []
    for ks in _chunks(range(n), n):
        blocks = len(ks)
        stack_l, stack_u = _stack([lower[k] for k in ks]), _stack([upper[k] for k in ks])
        occ = table_product(stack_u, stack_l) if occupation or car else None
        if car:
            pair_sum = occ + table_product(stack_l, stack_u)
            eye = _diagonals(np.ones(blocks << n, dtype=complex), n)
            if car_control is None:
                car_control = (_first(pair_sum), _first(eye))
            equal_time.append(residual(pair_sum, eye, blocks))
        if beside is not None:
            beside(ks, stack_l, stack_u, occ)
        for (big, shifts_l, shifts_u, slices), (res_l, res_u, res_occ) in zip(relations, worst):
            each_k = _stack([big] * blocks)
            parts = [_stack([slice_at(k) for k in ks]) for slice_at in slices]
            lhs, rhs = table_product(each_k, stack_l), table_product(stack_l, each_k)
            for part in parts:
                rhs = rhs + table_product(stack_l, part)
            rhs = rhs - _shifted([shifts_l[k] for k in ks], stack_l)
            if control is None:
                control = (_first(lhs), _first(rhs))
            res_l.append(residual(lhs, rhs, blocks))
            rhs = table_product(stack_u, each_k)
            for part in parts:
                rhs = rhs - table_product(stack_u, part)
            rhs = rhs + _shifted([shifts_u[k] for k in ks], stack_u)
            res_u.append(residual(table_product(each_k, stack_u), rhs, blocks))
            if occupation:
                sides = table_product(each_k, occ), table_product(occ, each_k)
                res_occ.append(residual(*sides, blocks))
    worst_relations = [tuple(map(_worst, found)) for found in worst]
    return worst_relations, control, (_worst(equal_time), car_control)


def check_commutation_2d(w: Weight2D, n: int, tag: str = "w", ladders=None) -> list:
    """Commutators of the 2D weighted number operator with the ladder pair."""
    n = family_level(n)
    relation = _gwn_relation(w, gwn_apply, wn1d_apply, n)
    [(worst_a, worst_c, worst_occ)], control, _ = _commutators(
        *_transform_ladders(n, ladders), [relation], occupation=True
    )
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "gwn-commute-annihilate",
                "gwn(w) a(k) = a(k) gwn(w) + a(k) wn1d(row_k) + a(k) wn1d(col_k)"
                " - (2 w(k,k) + colsum(k)) a(k)",
                worst_a,
            ),
            (
                "gwn-commute-create",
                "gwn(w) a+(k) = a+(k) gwn(w) - a+(k) wn1d(row_k) - a+(k) wn1d(col_k)"
                " + colsum(k) a+(k)",
                worst_c,
            ),
            ("gwn-commute-occupation", "gwn(w) commutes with a+(k) a(k)", worst_occ),
        ],
        ("gwn-commutation-negative-control", "annihilator commutation at k = 0", *control),
    )


def check_commutation_1d(u: Weight1D, n: int, tag: str = "u", ladders=None) -> list:
    """Commutators of the 1D weighted number operator with the ladder pair."""
    n = family_level(n)
    shifts = [u(k) for k in range(n)]
    relation = (_table(wn1d_apply, u, n), shifts, shifts, ())
    [(worst_a, worst_c, worst_occ)], control, _ = _commutators(
        *_transform_ladders(n, ladders), [relation], occupation=True
    )
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            ("wn1d-commute-annihilate", "wn1d(u) a(k) = a(k) wn1d(u) - u(k) a(k)", worst_a),
            ("wn1d-commute-create", "wn1d(u) a+(k) = a+(k) wn1d(u) + u(k) a+(k)", worst_c),
            ("wn1d-commute-occupation", "wn1d(u) commutes with a+(k) a(k)", worst_occ),
        ],
        ("wn1d-commutation-negative-control", "annihilator commutation at k = 0", *control),
    )


def check_commutation_number(n: int, ladders=None) -> list:
    """The unweighted special case: number operator against the ladder pair."""
    n = family_level(n)
    relation = (apply_table(number_apply, n), [1.0] * n, [1.0] * n, ())
    [(worst_a, worst_c, _)], control, _ = _commutators(
        *_transform_ladders(n, ladders), [relation]
    )
    return family_reports(
        {"n": n},
        TOLERANCE,
        [
            ("number-commute-annihilate", "number a(k) = a(k) number - a(k)", worst_a),
            ("number-commute-create", "number a+(k) = a+(k) number + a+(k)", worst_c),
        ],
        ("number-commutation-negative-control", "number commutation at k = 0", *control),
    )


# ---------------------------------------------------------------------------
# scalar spectral shifts
# ---------------------------------------------------------------------------


def check_spectral_shifts(w: Weight2D, n: int, tag: str = "w") -> list:
    """Adding/removing an index shifts theta by row, column and diagonal terms."""
    n = family_level(n)
    masks = np.arange(1 << n, dtype=np.int64)
    theta = w.theta_vector(n)
    # row k of each (n, 2^n) array belongs to index k; its masks outside
    # (inside) k are block k of the stacked add (remove) comparison, and
    # row 0 of the (n, 2^(n-1)) add sides is the control's k = 0
    bits = 1 << np.arange(n, dtype=np.int64)[:, None]
    outside = (masks & bits) == 0
    row_count = np.array([w.row_slice(k).count_vector(n) for k in range(n)])
    col_count = np.array([w.col_slice(k).count_vector(n) for k in range(n)])
    colsum = np.array([[w.colsum(k)] for k in range(n)])
    diagonal = np.array([[w(k, k)] for k in range(n)])
    add_l = theta[(masks | bits)[outside]].reshape(n, -1)
    add_r = (theta - row_count - col_count + colsum)[outside].reshape(n, -1)
    remove_l = theta[(masks ^ bits)[~outside]]
    remove_r = (theta + row_count + col_count - 2.0 * diagonal - colsum)[~outside]

    checks = [
        (
            "spectral-shift-add",
            "theta(sigma + {k}) = theta(sigma) - count(row_k, sigma)"
            " - count(col_k, sigma) + colsum(k), for k outside sigma",
            residual(add_l, add_r, n),
        ),
        (
            "spectral-shift-remove",
            "theta(sigma - {k}) = theta(sigma) + count(row_k, sigma)"
            " + count(col_k, sigma) - 2 w(k,k) - colsum(k), for k in sigma",
            residual(remove_l, remove_r, n),
        ),
    ]
    if w.is_exact():
        checks.append(
            (
                "theta-vs-double-sum",
                "rearranged theta equals the literal double sum over entries",
                residual(theta, theta_double_sum(w, masks)),
            )
        )
    return family_reports(
        {"n": n, "weight": tag},
        SHIFT_TOLERANCE,
        checks,
        ("spectral-shift-negative-control", "index-addition shift at k = 0", add_l[0], add_r[0]),
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
    target = _table(gwn_apply, w, n)
    stabilized = []
    diagonals = np.zeros((n + 1, 1 << n))
    for cut in range(n + 1):
        partial = apply_table(lambda f: series_partial_2d(w, f, cut), n)
        rows, cols = partial.masks & ((1 << n) - 1), partial.masks >> n
        diagonals[cut, rows[rows == cols]] = partial.values[rows == cols].real
        if cut >= w.support_bound():
            stabilized.append(partial)

    rng = np.random.default_rng(0)
    probe = random_functional(rng, n)
    wn1d_probe = wn1d_apply(u, probe)

    l2_mat = _table(l2_series_2d, w, n)
    l2_target = _table(l2_wn_apply, w, n)
    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "gwn-series",
                "sum of w(j,k) hop(j,k) over j,k < m equals gwn(w) once m covers "
                "the support",
                _worst([residual(partial, target) for partial in stabilized]),
            ),
            (
                "gwn-series-monotone",
                "diagonal of the partial sums is nondecreasing in the cutoff",
                excess(diagonals[:-1], diagonals[1:]),
            ),
            (
                "wn1d-series",
                "sum of u(k) a+(k) a(k) over k < m equals wn1d(u) once m covers "
                "the support",
                _worst(
                    [
                        residual(series_partial_1d(u, probe, cut), wn1d_probe)
                        for cut in range(u.support_bound(), n + 1)
                    ]
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
    trials = family_trials(trials)
    rng = np.random.default_rng(seed)
    worst_pair = []
    for stack in _chunks(range(trials), n):
        blocks = len(stack)
        # probe t's real and imaginary parts, in the order random_functional draws them
        parts = rng.standard_normal((blocks, 2, 1 << n))
        table = Functional.from_vector(parts[:, 0] + 1j * parts[:, 1], n)
        if not worst_pair:
            first = _first(table)
            control = riesz_embed(l2_annihilate(0, first)), apply_annihilate(0, riesz_embed(first))
        # a float's ** 2, libm's pow, as the per-probe check squared: numpy's square can differ
        squares = np.array([norm**2 for norm in table.norm(0, blocks).tolist()])
        worst_pair.append(residual(riesz_embed(table).pair(table, blocks), squares, blocks))
    z = random_functional(rng, n)
    worst_a, worst_c, worst_w = [], [], []
    for lo in range(0, len(z.masks), _STACK_ROWS):
        cols, values = z.masks[lo : lo + _STACK_ROWS], z.values[lo : lo + _STACK_ROWS]
        blocks = len(cols)
        table = Functional._from_arrays(np.arange(blocks) << n | cols, values, n)
        embedded = riesz_embed(table)
        for k in range(n):
            lhs = riesz_embed(l2_annihilate(k, table))
            worst_a.append(residual(lhs, apply_annihilate(k, embedded), blocks))
            lhs = riesz_embed(l2_create(k, table))
            worst_c.append(residual(lhs, apply_create(k, embedded), blocks))
        lhs = riesz_embed(l2_wn_apply(w, table))
        worst_w.append(residual(lhs, gwn_apply(w, embedded), blocks))
    return family_reports(
        {"n": n, "weight": tag, "trials": trials, "seed": seed},
        TOLERANCE,
        [
            (
                "riesz-intertwining-annihilate",
                "conjugate(l2_annihilate(k, xi)) = a(k) conjugate(xi)",
                _worst(worst_a),
            ),
            (
                "riesz-intertwining-create",
                "conjugate(l2_create(k, xi)) = a+(k) conjugate(xi)",
                _worst(worst_c),
            ),
            (
                "riesz-intertwining-wn",
                "conjugate(l2_wn(w, xi)) = gwn(w) conjugate(xi)",
                _worst(worst_w),
            ),
            (
                "riesz-pairing-positivity",
                "pairing of conjugate(xi) with xi is the squared plain norm",
                _worst(worst_pair),
            ),
        ],
        (
            "riesz-negative-control",
            "annihilator intertwining at k = 0 on the first probe",
            *control,
        ),
    )


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


def check_norm_bounds(
    w: Weight2D,
    u: Weight1D,
    n: int,
    trials: int = 1,
    seed: int = 42,
    tag: str = "w",
) -> list:
    """One-level norm estimates for the weighted number operators.

    Applying the 2D operator costs at most a factor 2*alpha when moving one
    level down the dual scale; the 1D operator costs at most beta, and that
    constant is attained on the basis functional at {0}.

    Both operators are diagonal, and for a diagonal symbol d the squared ratio
    dual_norm(d phi, p+1)^2 / dual_norm(phi, p)^2 is a mean of (|d| / lambda)^2,
    so each bound is read off the exact operator norm max |d| / lambda, attained
    on a basis functional, at every p. ``trials`` random probes, drawn one at a
    time, compare the vectorized dual norm with the coefficient-table API.
    """
    n = family_level(n)
    trials = family_trials(trials)
    rng = np.random.default_rng(seed)
    lam_vec = lam_vector(n)
    theta = w.theta_vector(n)
    beta = u.beta()

    # the identity is linear in the probe, so scaling it keeps the squares of
    # a huge finite theta times the probe from overflowing
    scale = 1.0 / max(1.0, float(np.max(np.abs(theta))))
    route = []
    for _ in range(trials):
        probe = scale * random_functional(rng, n)
        api = gwn_apply(w, probe).dual_norm(2)
        vec = float(np.sqrt(np.sum(lam_vec**-4.0 * np.abs(theta * probe.as_vector()) ** 2)))
        route.append(residual(api, vec))

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
                excess(np.abs(theta) / lam_vec, 2.0 * w.alpha()),
                _DUAL_NORM_NOTE,
            ),
            (
                "wn1d-dual-norm-bound",
                "dual_norm(wn1d(u) phi, p+1) <= beta(u) dual_norm(phi, p)",
                excess(np.abs(u.count_vector(n)) / lam_vec, beta),
                _DUAL_NORM_NOTE,
            ),
            (
                "norm-bound-route-consistency",
                "vectorized dual norms match the coefficient-table API",
                _worst(route),
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

    Every table here comes from an l2_* kernel through the helpers the
    transform-side families use, so only the kernels differ; a test runs
    this family with every transform kernel forbidden.
    """
    n = family_level(n)
    shifts = [u(k) for k in range(n)]
    relations = [
        _gwn_relation(w, l2_wn_apply, l2_wn1d_apply, n),
        (_table(l2_wn1d_apply, u, n), shifts, shifts, ()),
    ]
    [(worst_wa, worst_wc, _), (worst_ua, worst_uc, _)], control, (car, _) = _commutators(
        *_ladder_matrices(n, l2_annihilate, l2_create), relations, car=True
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
                worst_wa,
            ),
            (
                "l2-wn-commute-create",
                "S_w d+(k) = d+(k) S_w - d+(k) N_row - d+(k) N_col + colsum(k) d+(k)",
                worst_wc,
            ),
        ],
        ("l2-negative-control", "S_w annihilator commutation at k = 0", *control),
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
    # row k belongs to index k, its masks outside k being block k
    bits = 1 << np.arange(n, dtype=np.int64)[:, None]
    outside = (masks & bits) == 0
    shifted = (count + np.array([[u(k)] for k in range(n)]))[outside]
    additive = residual(count[(masks | bits)[outside]], shifted, n)

    return family_reports(
        {"n": n, "weight": tag},
        TOLERANCE,
        [
            (
                "theta-range",
                "0 <= theta(sigma) <= 2 alpha(w) #sigma on the whole basis",
                _worst([excess(-theta, 0.0), excess(theta, cap)]),
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
    trials = family_trials(trials)
    rng = np.random.default_rng(seed)
    lam_vec = lam_vector(n)
    grid = (0.0, 0.5, 1.0, 2.0)
    worst_mono, worst_dual, worst_cs, worst_growth, isometry = [], [], [], [], []
    for stack in _chunks(range(trials), n):
        blocks = len(stack)
        # per probe, in draw order: xi's and phi's real and imaginary parts
        # (as random_functional draws them), then a modulus and a phase
        xs, phis, polar = (np.empty((blocks, 2, 1 << n)) for _ in range(3))
        for t in range(blocks):
            rng.standard_normal(out=xs[t])
            rng.standard_normal(out=phis[t])
            rng.random(out=polar[t])
        xi = Functional.from_vector(xs[:, 0] + 1j * xs[:, 1], n)
        phi = Functional.from_vector(phis[:, 0] + 1j * phis[:, 1], n)
        sample = polar[:, 0] * np.exp(2j * np.pi * polar[:, 1])
        # |coeff| <= 2 lambda^1 must pass the growth check and its dual-norm consequence
        bounded = Functional.from_vector(2.0 * lam_vec * sample, n)
        del xs, phis, polar, sample  # free the raw draws before the norms: the tables suffice
        growth = check_growth(bounded, GrowthBound(2.0, 1.0), blocks)
        worst_growth.append(excess([g.worst_excess for g in growth], 0.0))
        worst_growth.append(
            excess([g.dual_norm_at_next for g in growth], [g.dual_norm_cap for g in growth])
        )
        # row i holds each probe's norm at grid[i]; p = 0, 1, 2 sit at rows 0, 2, 3
        norms = np.array([xi.norm(p, blocks) for p in grid])
        worst_mono.append(excess(norms[:-1], norms[1:]))
        duals = np.array([xi.dual_norm(p, blocks) for p in grid])
        worst_dual.append(excess(duals[1:], duals[:-1]))
        embedded = riesz_embed(xi)
        lhs = np.array([embedded.dual_norm(p, blocks) for p in (0, 1, 2)]).T
        rhs = duals[[0, 2, 3]].T
        if not isometry:
            control = lhs[0], rhs[0]
        isometry.append(residual(lhs, rhs, blocks))
        pairing = _moduli(phi.pair(xi, blocks))
        for p, norm in ((0, norms[0]), (1, norms[2])):
            worst_cs.append(excess(pairing, phi.dual_norm(p, blocks) * norm))
    return family_reports(
        {"n": n, "trials": trials, "seed": seed},
        TOLERANCE,
        [
            ("norm-monotone", "norm(xi, p) is nondecreasing in p", _worst(worst_mono)),
            ("dual-norm-antitone", "dual_norm(xi, p) is nonincreasing in p", _worst(worst_dual)),
            ("riesz-isometry", "conjugation preserves every dual norm", _worst(isometry)),
            (
                "pairing-cauchy-schwarz",
                "|pair(phi, xi)| <= dual_norm(phi, p) norm(xi, p)",
                _worst(worst_cs),
            ),
            (
                "growth-dual-bound",
                "a pointwise bound of order p caps the dual norm at level p+1 "
                "with the series constant",
                _worst(worst_growth),
                _DUAL_NORM_NOTE,
            ),
        ],
        (
            "functional-invariant-negative-control",
            "dual norms at p = 0, 1, 2 of the first conjugated probe against its own",
            *control,
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


FAMILY_NAMES = (
    "car",
    "hop",
    "commutation-2d",
    "spectral-shift",
    "commutation-1d",
    "commutation-number",
    "representation",
    "riesz",
    "norm-bound",
    "l2",
    "weight-invariant",
    "functional-invariant",
    "qms",
)


def _family_runs(n: int, seed: int, weights2d: dict):
    """(family, call) for every family run, in run order; commutation-2d and
    spectral-shift alternate over the 2D fixtures. The series fixture is the
    running weight and the random one rnd0, each the first 2D fixture when
    the fixtures were overridden. A call looks its check function up when it
    runs, so wrappers installed on this module see it. car, hop and the
    three commutation families share one transform ladder pair, built on its
    first use in the run, from the kernels this module holds then."""
    weights1d = fixture_weights1d(n, seed)
    u = weights1d["rnd"]
    series = "running" if "running" in weights2d else next(iter(weights2d))
    rnd = "rnd0" if "rnd0" in weights2d else series
    w_series, w_rnd = weights2d[series], weights2d[rnd]
    pair = []

    def ladders():
        if not pair:
            pair.append(_ladder_matrices(n, apply_annihilate, apply_create))
        return pair[0]

    yield "car", lambda: check_car(n, ladders())
    yield "hop", lambda: check_hop(n, ladders())
    for tag, w in weights2d.items():
        yield "commutation-2d", lambda w=w, tag=tag: check_commutation_2d(w, n, tag, ladders())
        yield "spectral-shift", lambda w=w, tag=tag: check_spectral_shifts(w, n, tag)
    for tag, v in weights1d.items():
        yield "commutation-1d", lambda v=v, tag=tag: check_commutation_1d(v, n, tag, ladders())
    yield "commutation-number", lambda: check_commutation_number(n, ladders())
    pair.clear()  # the last family that reads the pair has run
    yield "representation", lambda: check_representations(w_series, u, n, series)
    yield "riesz", lambda: check_riesz_intertwining(w_rnd, n, seed=seed, tag=rnd)
    yield "norm-bound", lambda: check_norm_bounds(w_rnd, u, n, seed=seed, tag=rnd)
    yield "l2", lambda: check_l2_lemmas(w_rnd, u, n, rnd)
    for tag, w in weights2d.items():
        yield "weight-invariant", lambda w=w, tag=tag: check_weight_invariants(w, u, n, tag)
    yield "functional-invariant", lambda: check_functional_invariants(n, 50, seed)
    qn = min(n, QMS_MAX_N)
    yield "qms", lambda: check_sum_identity(w_series, qn, series) + check_generator_structure(
        w_series, qn, trials=20, seed=seed, tag=series
    )


def run_all(n: int = 8, seed: int = 42, only=None, weight_override: Weight2D | None = None):
    """Run every family on the fixture set; returns (reports, timings).

    ``only`` restricts to a nonempty subset of FAMILY_NAMES. A weight override
    replaces the 2D fixtures wholesale (tagged 'custom'). Timings are per
    family run, labelled ``family``, ``family#1``, ..., and deliberately kept
    out of the reports themselves.
    """
    n, seed = check_truncation(n), as_index(seed, "seed")
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
    reports, timings, counts = [], {}, {}
    for family, call in _family_runs(n, seed, weights2d):
        if only is not None and family not in only:
            continue
        index = counts.get(family, 0)
        counts[family] = index + 1
        label = family if index == 0 else f"{family}#{index}"
        start = time.perf_counter()
        reports.extend(call())
        timings[label] = time.perf_counter() - start
    return reports, timings
