"""Coefficient-table kernels against dense routes, and the two-route guard.

Every kernel works on a table's sorted mask array and its value array. Here
random sparse tables (n <= 6, some zero and tiny values, so products can
underflow) are checked against a dense route on ``as_vector()``: the CSR
matrices for index moves, ``theta_vector``/``count_vector``/
``popcount_vector`` for diagonals, plain vector arithmetic for the linear
structure and ``lam_vector`` for the norms. Every output must keep the table
invariants. The mask evaluators behind the diagonals and norms are checked
against the scalar oracles on masks that use all 63 bits. The one-call
``materialize_apply``, which tags each basis column in the mask bits above
n, is checked against a literal column-by-column sweep of every kernel, and
the matrix tables of random JSON expression trees, read by ``parse_expr`` as
``chaoscalc apply`` reads them, against scipy products of leaf matrices
written from their definitions. Those scipy ladders are also the
oracle of both sides' index moves: every table in the package comes from
applying a kernel, so a table from the package would test a kernel against
itself.
"""
from __future__ import annotations

import functools
import math
import operator
import pathlib
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaoscalc
from chaoscalc import operators, verifier, weights
from chaoscalc.basis import Subset, lam, lam_at, lam_vector, popcount_at, popcount_vector
from chaoscalc.functionals import Functional, GrowthBound, check_growth
from chaoscalc.operators import (
    apply_annihilate,
    apply_create,
    apply_table,
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
    occupation_apply,
    parse_expr,
    series_partial_1d,
    series_partial_2d,
    wn1d_apply,
    wn1d_expr,
)
from chaoscalc.verifier import (
    check_car,
    check_commutation_1d,
    check_commutation_2d,
    check_commutation_number,
    check_hop,
    check_l2_lemmas,
)
from chaoscalc.weights import Weight1D, Weight2D, theta_double_sum

SETTINGS = settings(max_examples=60, deadline=None)

coefficient = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-300 + 0j, -1e-300j, 5e-324 + 0j]),
)


@st.composite
def tables(draw, n=None):
    if n is None:
        n = draw(st.integers(0, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1 << n, unique=True))
    return Functional({m: draw(coefficient) for m in masks}, n)


@st.composite
def table_pairs(draw):
    n = draw(st.integers(0, 6))
    return draw(tables(n)), draw(tables(n))


@st.composite
def weights2d(draw, n):
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    return Weight2D(draw(st.dictionaries(pairs, st.floats(0.0, 10.0), max_size=12)))


@st.composite
def weights1d(draw, n):
    index = st.integers(0, max(n - 1, 0))
    return Weight1D(draw(st.dictionaries(index, st.floats(0.0, 10.0), max_size=6)))


def assert_invariants(phi: Functional):
    masks, values = phi.masks, phi.values
    assert masks.dtype == np.int64 and values.dtype == np.complex128
    assert masks.shape == values.shape == (len(phi.coeffs),)
    assert np.all(np.diff(masks) > 0)
    assert np.all(masks >= 0) and np.all(masks < 1 << phi.truncation)
    assert np.all(values != 0)


def assert_matches(phi: Functional, dense: np.ndarray):
    assert_invariants(phi)
    assert np.array_equal(phi.as_vector(), dense)


def scipy_ladder(k: int, n: int, create: bool):
    """Row r reads column r - {k} (create, k in r) or r + {k} (annihilate)."""
    rows = np.arange(1 << n)
    rows = rows[((rows >> k & 1) == 1) == create]
    return sp.csr_matrix(
        (np.ones(len(rows), dtype=complex), (rows, rows ^ 1 << k)), shape=(1 << n, 1 << n)
    )


@SETTINGS
@given(tables())
def test_constructor_invariants(phi):
    assert_invariants(phi)
    assert dict(phi.coeffs) == {
        int(m): complex(c) for m, c in enumerate(phi.as_vector()) if c != 0
    }


@SETTINGS
@given(tables(), st.data())
def test_index_moves_match_csr(phi, data):
    n = phi.truncation
    if n == 0:
        return
    k = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    vec = phi.as_vector()
    a = [scipy_ladder(i, n, create=False) for i in range(n)]
    c = [scipy_ladder(i, n, create=True) for i in range(n)]
    assert_matches(apply_annihilate(k, phi), a[k] @ vec)
    assert_matches(apply_create(k, phi), c[k] @ vec)
    assert_matches(l2_annihilate(k, phi), a[k] @ vec)
    assert_matches(l2_create(k, phi), c[k] @ vec)
    assert_matches(occupation_apply(k, phi), c[k] @ a[k] @ vec)
    assert_matches(hop_apply(j, k, phi), c[k] @ a[j] @ c[j] @ a[k] @ vec)


@SETTINGS
@given(st.data())
def test_diagonals_match_vectors(data):
    n = data.draw(st.integers(0, 6))
    phi = data.draw(tables(n))
    w = data.draw(weights2d(n))
    u = data.draw(weights1d(n))
    vec = phi.as_vector()
    theta, count = w.theta_vector(n) * vec, u.count_vector(n) * vec
    assert_matches(gwn_apply(w, phi), theta)
    assert_matches(l2_wn_apply(w, phi), theta)
    assert_matches(gwn_expr(w)(phi), theta)
    assert_matches(wn1d_apply(u, phi), count)
    assert_matches(l2_wn1d_apply(u, phi), count)
    assert_matches(wn1d_expr(u)(phi), count)
    assert_matches(number_apply(phi), popcount_vector(n) * vec)
    assert_matches(number()(phi), popcount_vector(n) * vec)


@SETTINGS
@given(table_pairs(), coefficient)
def test_linear_structure_matches_vectors(pair_of_tables, z):
    a, b = pair_of_tables
    va, vb = a.as_vector(), b.as_vector()
    assert_matches(a + b, va + vb)
    assert_matches(a - b, va - vb)
    assert_matches(z * a, z * va)
    assert_matches(a * z, z * va)
    assert_matches(-a, -va)
    assert_matches(a.conjugated(), va.conj())
    assert (a == b) == np.array_equal(va, vb)


@SETTINGS
@given(table_pairs())
def test_pair_matches_dot_product(pair_of_tables):
    a, b = pair_of_tables
    products = a.as_vector() * b.as_vector()
    scale = max(1.0, float(np.sum(np.abs(products))))
    assert abs(a.pair(b) - np.sum(products)) <= 1e-13 * scale
    assert abs(a.pair(b) - b.pair(a)) <= 1e-13 * scale
    # a's conjugate shares a's support, which pairs without an intersection
    same = a.conjugated()
    products = a.as_vector() * same.as_vector()
    scale = max(1.0, float(np.sum(np.abs(products))))
    assert abs(a.pair(same) - np.sum(products)) <= 1e-13 * scale


@SETTINGS
@given(tables(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]))
def test_norms_match_lam_vector(phi, p):
    lams, sq = lam_vector(phi.truncation), np.abs(phi.as_vector()) ** 2
    assert phi.norm(p) == pytest.approx(math.sqrt(np.sum(lams ** (2 * p) * sq)), rel=1e-13)
    assert phi.dual_norm(p) == pytest.approx(
        math.sqrt(np.sum(lams ** (-2 * p) * sq)), rel=1e-13
    )


@SETTINGS
@given(tables(), st.floats(0.0, 5.0), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_growth_witness_is_smallest_worst_mask(phi, scale, order):
    # the literal loop: the first mask, in increasing order, whose excess
    # beats every earlier one and zero
    worst, witness = 0.0, None
    for m, c in sorted(phi.coeffs.items()):
        excess = abs(c) - scale * lam(m) ** order
        if excess > worst:
            worst, witness = excess, Subset(m)
    result = check_growth(phi, GrowthBound(scale, order))
    assert result.worst_excess == worst
    assert result.witness == witness


# Indices reach past the 63 bits of an int64 mask. With small integer weight
# values every sum is exact in any order, so theta's rearranged and
# double-sum oracles and count's sum must agree with the evaluators bit for
# bit. With any float values the evaluators must still match the reference
# loops below, which fix the order of the additions.
far_index = st.integers(0, 70) | st.sampled_from([61, 62, 63])
small_integer = st.integers(0, 1000).map(float)


@st.composite
def far_weights(draw, values):
    entries = draw(st.dictionaries(st.tuples(far_index, far_index), values, max_size=12))
    w = Weight2D(entries)
    if draw(st.booleans()):
        # closed-form column sums at or above the listed ones
        columns = draw(st.lists(far_index, max_size=4))
        w = Weight2D(entries, column_sums={k: w.colsum(k) + draw(values) for k in columns})
    return w, Weight1D(draw(st.dictionaries(far_index, values, max_size=6)))


def theta_in_builder_order(w: Weight2D, mask: int) -> float:
    """w(k,k) + colsum(k) added in increasing k, then the listed entries
    inside sigma subtracted in entry order."""
    total = 0.0
    for k in Subset(mask):
        total += w(k, k) + w.colsum(k)
    for (j, k), v in w.entries.items():
        if mask >> j & 1 and mask >> k & 1:
            total -= v
    return total


def count_in_builder_order(u: Weight1D, mask: int) -> float:
    """The listed values inside sigma added in entry order."""
    total = 0.0
    for k, v in u.values.items():
        if mask >> k & 1:
            total += v
    return total


@SETTINGS
@given(st.data())
def test_mask_evaluators_match_scalar_oracles(data):
    n = data.draw(st.integers(0, 63) | st.just(63))
    sigmas = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    masks = np.array(sigmas, dtype=np.int64)
    integral = data.draw(st.booleans())
    w, u = data.draw(far_weights(small_integer if integral else st.floats(0.0, 10.0)))
    theta, count = w.theta_at(masks), u.count_at(masks)
    assert theta.dtype == count.dtype == np.float64
    assert theta.tolist() == [theta_in_builder_order(w, m) for m in sigmas]
    assert count.tolist() == [count_in_builder_order(u, m) for m in sigmas]
    if integral:
        assert theta.tolist() == [w.theta(m) for m in sigmas]
        if w.is_exact():
            assert theta.tolist() == [theta_double_sum(w, m) for m in sigmas]
        assert count.tolist() == [u.count(m) for m in sigmas]
    assert lam_at(masks).tolist() == [lam(m) for m in sigmas]
    assert popcount_at(masks).tolist() == [len(Subset(m)) for m in sigmas]


def test_mask_evaluators_keep_the_builder_order(monkeypatch):
    # many full-mantissa terms on dense and top-bit masks: a sum taken in any
    # other order rounds differently somewhere here
    rng = np.random.default_rng(3)
    indices = [0, 1, 2, 3, 5, 8, 61, 62, 63, 64]
    pairs = rng.choice(indices, size=(30, 2)).tolist()
    entries = {(j, k): float(rng.random()) for j, k in pairs}
    listed = Weight2D(entries)
    w = Weight2D(entries, column_sums={k: listed.colsum(k) + 1.5 for k in (2, 9, 62)})
    u = Weight1D({k: float(rng.random()) for k in rng.choice(indices, size=8).tolist()})
    masks = np.concatenate([np.arange(512), rng.integers(0, 2**63 - 1, size=512)])
    sigmas = masks.tolist()
    theta = [theta_in_builder_order(w, m) for m in sigmas]
    count = [count_in_builder_order(u, m) for m in sigmas]
    assert w.theta_at(masks).tolist() == theta and u.count_at(masks).tolist() == count
    assert lam_at(masks).tolist() == [lam(m) for m in sigmas]
    # the same sums when the masks are worked through a few at a time, and
    # one at a time, where numpy would sum a lone column pairwise
    monkeypatch.setattr(weights, "_CHUNK_CELLS", 100)
    assert w.theta_at(masks).tolist() == theta and u.count_at(masks).tolist() == count
    some = range(0, len(sigmas), 37)
    assert [w.theta_at(masks[i : i + 1])[0] for i in some] == [theta[i] for i in some]


# mostly indices a small mask can hold, some past an int64 mask
index = st.integers(0, 7) | st.integers(0, 70)


def sum_inside_by_rows(masks, pairs, terms) -> np.ndarray:
    """weights._sum_inside one term at a time: each term's row of a (terms,
    masks) table added to every mask at once, in the given order."""
    masks = np.asarray(masks, dtype=np.int64)
    out = np.zeros(masks.shape)
    for (j, k), term in zip(pairs, terms):
        if max(j, k) < 63:
            bits = (1 << j) | (1 << k)
            out += np.where(masks & bits == bits, term, 0.0)
    return out


@SETTINGS
@given(
    st.lists(st.integers(0, 255) | st.integers(0, 2**63 - 1), min_size=1, max_size=40),
    st.lists(st.tuples(index, index, st.floats(-1e6, 1e6)), max_size=40),
    st.sampled_from([1, 7, 100, 1 << 16]),
)
# one mask holding every pair of twelve full-mantissa terms, which a pairwise
# sum rounds differently
@example([255], [(j % 8, j // 2, 1 / (j + 3)) for j in range(12)], 1 << 16)
def test_sum_inside_adds_the_terms_in_order(masks, entries, cells):
    pairs, terms = [(j, k) for j, k, _ in entries], [t for *_, t in entries]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "_CHUNK_CELLS", cells)
        got = weights._sum_inside(masks, pairs, terms)
    assert got.tobytes() == sum_inside_by_rows(masks, pairs, terms).tobytes()


def test_package_keeps_no_cache():
    # per-level or per-index memos grow with every level and index a process
    # touches; kernels evaluate at the masks they are given instead
    cache = re.compile(
        r"\blru_cache\b|\bcached_property\b|functools\.cache\b|import[^\n]*\bcache\b"
    )
    package = pathlib.Path(chaoscalc.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert not cache.search(path.read_text()), path.name


def test_coefficient_view_is_read_only():
    phi = Functional({0b10: 2.0, 0b01: 0.0}, 2)
    assert dict(phi.coeffs) == {2: 2 + 0j} and len(phi.coeffs) == 1
    assert phi.coeffs[2] == 2.0 and 1 not in phi.coeffs and 2**70 not in phi.coeffs
    with pytest.raises(TypeError):
        phi.coeffs[1] = 1.0


# ---------------------------------------------------------------------------
# one-call materialization against a column-by-column sweep
# ---------------------------------------------------------------------------


def swept(apply_fn, n):
    """The matrix column by column: the kernel applied to each basis delta."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for m in range(1 << n):
        image = apply_fn(Functional.delta(m, n))
        out[image.masks, m] = image.values
    return out


@SETTINGS
@given(st.data())
def test_one_call_materialize_matches_column_sweep(data):
    n = data.draw(st.integers(1, 6))
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n - 1))
    cut = data.draw(st.integers(0, n))
    w = data.draw(weights2d(n))
    u = data.draw(weights1d(n))

    def l2_hop(f):
        return l2_create(k, l2_annihilate(j, l2_create(j, l2_annihilate(k, f))))

    kernels = {
        "apply_annihilate": lambda f: apply_annihilate(k, f),
        "apply_create": lambda f: apply_create(k, f),
        "occupation_apply": lambda f: occupation_apply(k, f),
        "hop_apply": lambda f: hop_apply(j, k, f),
        "hop_expr": hop_expr(j, k),
        "gwn_apply": lambda f: gwn_apply(w, f),
        "wn1d_apply": lambda f: wn1d_apply(u, f),
        "number_apply": number_apply,
        "gwn_expr": gwn_expr(w),
        "wn1d_expr": wn1d_expr(u),
        "number": number(),
        "series_partial_2d": lambda f: series_partial_2d(w, f, cut),
        "series_partial_1d": lambda f: series_partial_1d(u, f, cut),
        "number_series_partial": lambda f: number_series_partial(f, cut),
        "diagonal after index move": lambda f: gwn_apply(w, apply_create(j, f)),
        "l2_annihilate": lambda f: l2_annihilate(k, f),
        "l2_create": lambda f: l2_create(k, f),
        "l2_wn_apply": lambda f: l2_wn_apply(w, f),
        "l2_wn1d_apply": lambda f: l2_wn1d_apply(u, f),
        "l2 four-fold hop": l2_hop,
        "l2 sum": lambda f: l2_hop(f) + 2.5 * l2_wn_apply(w, l2_annihilate(j, f)),
    }
    for name, kernel in kernels.items():
        one_call = materialize_apply(kernel, n)
        assert one_call.shape == (1 << n, 1 << n), name
        assert np.array_equal(one_call.toarray(), swept(kernel, n)), name


def test_materialize_apply_calls_the_kernel_once():
    calls = []

    def kernel(f):
        calls.append(f)
        return hop_apply(0, 1, f)

    matrix = materialize_apply(kernel, 3)
    assert len(calls) == 1
    assert np.array_equal(matrix.toarray(), materialize(hop_expr(0, 1), 3).toarray())


def test_materialize_apply_caps_the_tag_at_31(monkeypatch):
    monkeypatch.setenv("CHAOSCALC_MAX_N", "40")

    def kernel(f):
        raise AssertionError("the kernel ran past the tag cap")

    with pytest.raises(ValueError, match="n <= 31"):
        materialize_apply(kernel, 32)


# ---------------------------------------------------------------------------
# expression trees against scipy products of the leaf definitions
# ---------------------------------------------------------------------------
#
# Every value below is a small dyadic number, so each sum and product is
# exact in any order and the two routes must agree entry for entry.


def scipy_diagonal(values):
    return sp.diags(np.asarray(values, dtype=complex), format="csr")


def ladder_json(op: str, k: int) -> dict:
    return {"op": op, "k": k}


def node_json(op: str, *args: dict) -> dict:
    return {"op": op, "args": list(args)}


def scale_json(c: complex, arg: dict) -> dict:
    return {"op": "scale", "c": [c.real, c.imag], "arg": arg}


@st.composite
def expression_trees(draw):
    """(n, an expression's JSON form, its CSR matrix built here from the
    definitions)."""
    n = draw(st.integers(1, 5))
    size = 1 << n
    index = st.integers(0, n - 1)
    value = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    w_entries = draw(st.dictionaries(st.tuples(index, index), value, max_size=4))
    u_values = draw(st.dictionaries(index, value, max_size=3))
    w, u = Weight2D(w_entries), Weight1D(u_values)
    w_json = {"kind": "dense", "entries": [[j, k, v] for (j, k), v in w_entries.items()]}
    u_json = {"kind": "diag1d", "entries": [[k, v] for k, v in u_values.items()]}
    masks = range(size)
    leaves = st.one_of(
        index.map(lambda k: (ladder_json("annihilate", k), scipy_ladder(k, n, create=False))),
        index.map(lambda k: (ladder_json("create", k), scipy_ladder(k, n, create=True))),
        # two entries in some rows and columns, so products meet and sum
        st.tuples(index, index).map(
            lambda jk: (
                node_json("sum", ladder_json("annihilate", jk[0]), ladder_json("create", jk[1])),
                scipy_ladder(jk[0], n, create=False) + scipy_ladder(jk[1], n, create=True),
            )
        ),
        st.just(
            ({"op": "gwn", "weight": w_json},
             scipy_diagonal([theta_double_sum(w, m) for m in masks]))
        ),
        st.just(
            ({"op": "wn1d", "weight": u_json},
             scipy_diagonal([sum(map(u, Subset(m))) for m in masks]))
        ),
        st.just(({"op": "number"}, scipy_diagonal([bin(m).count("1") for m in masks]))),
        st.just(({"op": "identity"}, sp.identity(size, dtype=complex, format="csr"))),
        st.just(({"op": "zero"}, sp.csr_matrix((size, size), dtype=complex))),
    )

    def combined(op, reduce):
        def build(parts):
            exprs, matrices = zip(*parts)
            return node_json(op, *exprs), functools.reduce(reduce, matrices)

        return build

    def extend(children):
        parts = st.lists(children, min_size=1, max_size=3)
        factor = st.sampled_from([2.0, -1.0, 0.5j, 1.0 - 1.0j])
        return st.one_of(
            parts.map(combined("sum", operator.add)),
            parts.map(combined("compose", operator.matmul)),
            st.tuples(factor, children).map(
                lambda fc: (scale_json(fc[0], fc[1][0]), fc[0] * fc[1][1])
            ),
        )

    data, matrix = draw(st.recursive(leaves, extend, max_leaves=6))
    return n, data, matrix


@settings(max_examples=150, deadline=None)
@given(expression_trees())
def test_materialize_matches_scipy_products_of_the_leaves(case):
    n, data, matrix = case
    expr = parse_expr(data)
    table = apply_table(expr, n)
    assert table.truncation == 2 * n
    assert_invariants(table)
    got = materialize(expr, n)
    assert isinstance(got, sp.csr_matrix) and got.shape == (1 << n, 1 << n)
    assert np.array_equal(got.toarray(), matrix.toarray())


@pytest.mark.parametrize("n", [2, 3])
def test_a_left_factor_with_two_entries_in_a_column(n):
    # annihilate(0) + create(1) holds two entries in some columns, so the
    # product joins a run of left entries per right entry and sums them
    left = node_json("sum", ladder_json("annihilate", 0), ladder_json("create", 1))
    right = node_json(
        "sum",
        scale_json(2.0, ladder_json("create", 0)),
        ladder_json("annihilate", 1),
        {"op": "number"},
    )
    a0, c1 = scipy_ladder(0, n, create=False), scipy_ladder(1, n, create=True)
    c0, a1 = scipy_ladder(0, n, create=True), scipy_ladder(1, n, create=False)
    count = scipy_diagonal([bin(m).count("1") for m in range(1 << n)])
    a_sum, b_sum = a0 + c1, 2.0 * c0 + a1 + count
    for first, second, want in ((left, right, a_sum @ b_sum), (right, left, b_sum @ a_sum)):
        got = materialize(parse_expr(node_json("compose", first, second)), n)
        assert np.array_equal(got.toarray(), want.toarray())


# tiny values, so that products underflow to zeros, which a product drops
nonzero = st.one_of(
    st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    ),
    st.sampled_from([1e-300 + 0j, -1e-300j, 5e-324 + 0j]),
)


@st.composite
def monomial_stacks(draw, n: int):
    """A stack of one to three random matrix tables with at most one entry
    per column, row block b above bit 2n, as the stacked ladders are."""
    masks, values = [], []
    for b in range(draw(st.integers(1, 3))):
        for c in range(1 << n):
            if draw(st.booleans()):
                r = draw(st.integers(0, (1 << n) - 1))
                masks.append(b << 2 * n | c << n | r)
                values.append(draw(nonzero))
    return Functional._from_arrays(
        np.array(masks, dtype=np.int64), np.array(values, dtype=complex), 2 * n
    )


def scipy_block(table: Functional, n: int, b: int):
    """Row block b of a stacked matrix table as scipy CSR."""
    size = 1 << n
    at = table.masks >> 2 * n == b
    rows, cols = table.masks[at] & size - 1, table.masks[at] >> n & size - 1
    return sp.csr_matrix((table.values[at], (rows, cols)), shape=(size, size))


def scipy_blockwise_product(left: Functional, right: Functional, n: int) -> Functional:
    """Block b of left times block b of right as scipy CSR products, one per
    block of a three-block stack, read back into a stacked matrix table."""
    masks, values = [], []
    for b in range(3):
        product = (scipy_block(left, n, b) @ scipy_block(right, n, b)).tocoo()
        kept = product.data != 0
        rows, cols = product.row[kept].astype(np.int64), product.col[kept].astype(np.int64)
        masks.append(b << 2 * n | cols << n | rows)
        values.append(product.data[kept])
    masks, values = np.concatenate(masks), np.concatenate(values)
    order = np.argsort(masks)
    return Functional._from_arrays(masks[order], values[order].astype(complex), 2 * n)


@SETTINGS
@given(st.data())
def test_monomial_products_gather_the_blockwise_scipy_product(data):
    # each entry of a product of monomial factors is one left value times one
    # right value. scipy may fuse a complex product's multiply-add (one ulp
    # apart in an imaginary part was seen), so values agree to a few ulps of
    # the product's modulus; which entries survive must agree exactly. The
    # tiny values are real or imaginary, so their underflows match too.
    n = data.draw(st.integers(1, 4))
    left, right = data.draw(monomial_stacks(n)), data.draw(monomial_stacks(n))
    gathered = operators.table_product(left, right)
    expected = scipy_blockwise_product(left, right, n)
    assert gathered.truncation == expected.truncation
    assert np.array_equal(gathered.masks, expected.masks)
    assert np.allclose(gathered.values, expected.values, rtol=4 * np.finfo(float).eps, atol=0)
    assert np.all(np.diff(gathered.masks) > 0) and np.all(gathered.values != 0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_factor_with_two_entries_in_a_column_is_refused(side):
    # the product is only a gather; a sum with two entries in a column is
    # multiplied by applying it, through the expression's own table
    n = 2
    two_in_a_column = node_json("sum", ladder_json("annihilate", 0), ladder_json("create", 1))
    two = apply_table(parse_expr(two_in_a_column), n)  # column 0b01 holds both
    one = apply_table(create(0), n)
    factors = (two, one) if side == "left" else (one, two)
    with pytest.raises(ValueError, match=f"the {side} factor"):
        operators.table_product(*factors)


# ---------------------------------------------------------------------------
# the square-integrable side never routes through the transform side
# ---------------------------------------------------------------------------

# every transform-side table, an expression's included, comes from these
TRANSFORM_KERNELS = (
    "apply_annihilate",
    "apply_create",
    "occupation_apply",
    "hop_apply",
    "gwn_apply",
    "wn1d_apply",
    "number_apply",
    "_times",
)


def test_l2_side_is_independent_of_transform_kernels(monkeypatch):
    # the ladder oracles are scipy matrices written from the definitions
    n = 4
    rng = np.random.default_rng(5)
    w = Weight2D({(0, 1): 2.0, (1, 1): 3.0, (3, 0): 0.5, (2, 2): 1.0})
    u = Weight1D({0: 0.5, 2: 1.5, 3: 2.0})
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    xi = Functional.from_vector(vec, n)
    ladders = [
        (scipy_ladder(k, n, create=False) @ vec, scipy_ladder(k, n, create=True) @ vec)
        for k in range(n)
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("the square-integrable side called a transform kernel")

    for name in TRANSFORM_KERNELS:
        monkeypatch.setattr(operators, name, forbidden)
        # verifier holds its own references to the kernels it imports
        if hasattr(verifier, name):
            monkeypatch.setattr(verifier, name, forbidden)
    for k, (down, up) in enumerate(ladders):
        assert_matches(l2_annihilate(k, xi), down)
        assert_matches(l2_create(k, xi), up)
    assert_matches(l2_wn_apply(w, xi), w.theta_vector(n) * vec)
    assert_matches(l2_wn1d_apply(u, xi), u.count_vector(n) * vec)
    reports = check_l2_lemmas(w, u, n)
    assert reports and all(r.ok for r in reports)


L2_KERNELS = (
    "l2_annihilate",
    "l2_create",
    "l2_hop",
    "l2_wn_apply",
    "l2_wn1d_apply",
)


def test_transform_side_is_independent_of_l2_kernels(monkeypatch):
    # the converse: car, hop and the commutation families build every matrix
    # from the transform kernels; both sides share apply_table, which
    # test_one_call_materialize_matches_column_sweep checks on its own
    n = 4
    w = Weight2D({(0, 1): 2.0, (1, 1): 3.0, (3, 0): 0.5, (2, 2): 1.0})
    u = Weight1D({0: 0.5, 2: 1.5, 3: 2.0})

    def forbidden(*args, **kwargs):
        raise AssertionError("the transform side called a square-integrable kernel")

    for name in L2_KERNELS:
        monkeypatch.setattr(operators, name, forbidden)
        # verifier holds its own references to the kernels it imports
        if hasattr(verifier, name):
            monkeypatch.setattr(verifier, name, forbidden)
    for reports in (
        check_car(n),
        check_hop(n),
        check_commutation_2d(w, n),
        check_commutation_1d(u, n),
        check_commutation_number(n),
    ):
        assert reports and all(r.ok for r in reports)
