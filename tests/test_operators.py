"""Ladder operators, diagonal operators, series partial sums, both routes.

The closed forms here are cross-checked against literal compositions of the
elementary matrices, which is the point: nothing in this file verifies a
function against its own implementation.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from chaoscalc.basis import Subset, enumerate_basis, lam, lam_vector
from chaoscalc.functionals import Functional, pair, riesz_embed
from chaoscalc.operators import (
    Compose,
    Diagonal,
    Scale,
    Sum,
    annihilate,
    apply_annihilate,
    apply_create,
    create,
    gwn_apply,
    gwn_expr,
    hop_apply,
    hop_expr,
    identity,
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
    occupation_apply,
    parse_expr,
    series_partial_1d,
    series_partial_2d,
    wn1d_apply,
    wn1d_expr,
    zero,
)
from chaoscalc.weights import Weight1D, Weight2D


@pytest.fixture
def running() -> Weight2D:
    return Weight2D.from_entries([(0, 1, 2.0), (1, 1, 3.0)])


def random_functional(rng, n):
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Functional.from_vector(vec, n)


def random_weight(rng, size, density=0.5):
    entries = {}
    for j in range(size):
        for k in range(size):
            if rng.random() < density:
                entries[(j, k)] = float(rng.random())
    return Weight2D(entries)


class TestLadderActions:
    def test_annihilate_hand_cases(self):
        n = 2
        assert apply_annihilate(1, Functional.delta(Subset.of(0, 1), n)) == (
            Functional.delta(Subset.of(0), n)
        )
        assert apply_annihilate(1, Functional.delta(Subset.of(0), n)) == (
            Functional.zero(n)
        )
        assert apply_annihilate(0, Functional.delta(Subset.of(0), n)) == (
            Functional.delta(Subset(), n)
        )

    def test_create_hand_cases(self):
        n = 2
        assert apply_create(1, Functional.delta(Subset.of(0), n)) == (
            Functional.delta(Subset.of(0, 1), n)
        )
        assert apply_create(1, Functional.delta(Subset.of(1), n)) == Functional.zero(n)

    def test_linear(self):
        rng = np.random.default_rng(0)
        a, b = random_functional(rng, 3), random_functional(rng, 3)
        lhs = apply_annihilate(2, a + 2j * b)
        rhs = apply_annihilate(2, a) + 2j * apply_annihilate(2, b)
        assert lhs.isclose(rhs, tol=1e-15)

    def test_index_range(self):
        phi = Functional.delta(Subset(), 2)
        with pytest.raises(ValueError):
            apply_annihilate(2, phi)
        with pytest.raises(ValueError):
            apply_create(-1, phi)
        with pytest.raises(ValueError):
            annihilate(2).materialize(2)
        # the constructors never truncate an index: 1.9 is not 1
        for build in (lambda: annihilate(1.9), lambda: create(True),
                      lambda: occupation(0.5), lambda: hop_expr(0, 1.7)):
            with pytest.raises(ValueError, match="integer"):
                build()

    def test_applies_never_truncate_an_index(self):
        # 1.7 used to act at index 1, and True at index 1
        phi = Functional.delta(Subset.of(1, 2), 3)
        for apply in (lambda: apply_annihilate(1.7, phi), lambda: apply_create(2.0, phi),
                      lambda: occupation_apply(True, phi), lambda: hop_apply(True, 2.9, phi),
                      lambda: l2_annihilate(1.0, phi), lambda: l2_create(False, phi)):
            with pytest.raises(ValueError, match="integer"):
                apply()
        assert apply_annihilate(np.int64(1), phi) == Functional.delta(Subset.of(2), 3)


class TestDiagonalActions:
    def test_lambda_multiplier(self):
        phi = Functional.delta(Subset.of(0, 2), 3)
        out = Diagonal(lam_vector).apply(phi)
        assert out.fock(Subset.of(0, 2)) == lam(Subset.of(0, 2)) == 3.0

    def test_gwn_hand_cases(self, running):
        n = 3
        assert gwn_apply(Weight2D.zero(), Functional.delta(Subset.of(1), n)) == (
            Functional.zero(n)
        )
        out = gwn_apply(running, Functional.delta(Subset.of(1), n))
        assert out.fock(Subset.of(1)) == 5.0
        out = gwn_apply(running, Functional.delta(Subset.of(0, 1), n))
        assert out.fock(Subset.of(0, 1)) == 3.0

    def test_wn1d_and_number(self):
        n = 3
        u = Weight1D({1: 7.0})
        out = wn1d_apply(u, Functional.delta(Subset.of(1, 2), n))
        assert out.fock(Subset.of(1, 2)) == 7.0
        out = number_apply(Functional.delta(Subset.of(0, 1, 2), n))
        assert out.fock(Subset.of(0, 1, 2)) == 3.0
        assert number_apply(Functional.delta(Subset(), n)) == Functional.zero(n)

    def test_occupation_symbol(self):
        n = 3
        for sigma in enumerate_basis(n):
            for k in range(n):
                via_expr = occupation(k).apply(Functional.delta(sigma, n))
                direct = occupation_apply(k, Functional.delta(sigma, n))
                expect = sigma.indicator(k) * Functional.delta(sigma, n)
                assert via_expr == expect
                assert direct == expect

    def test_diagonal_lift_consistency(self):
        rng = np.random.default_rng(5)
        u = Weight1D({k: float(rng.random()) for k in range(4)})
        phi = random_functional(rng, 4)
        lifted = gwn_apply(Weight2D.from_weight1d(u), phi)
        assert lifted.isclose(wn1d_apply(u, phi), tol=1e-14)


class TestHop:
    def test_hand_cases(self):
        n = 2
        assert hop_apply(0, 1, Functional.delta(Subset.of(1), n)) == (
            Functional.delta(Subset.of(1), n)
        )
        assert hop_apply(0, 1, Functional.delta(Subset.of(0, 1), n)) == (
            Functional.zero(n)
        )
        assert hop_apply(0, 1, Functional.delta(Subset.of(0), n)) == Functional.zero(n)

    def test_diagonal_case_is_occupation(self):
        n = 3
        rng = np.random.default_rng(2)
        phi = random_functional(rng, n)
        for j in range(n):
            assert hop_apply(j, j, phi) == occupation_apply(j, phi)

    def test_closed_form_matches_fourfold_composition(self):
        n = 4
        for j in range(n):
            for k in range(n):
                expr = hop_expr(j, k)
                for sigma in enumerate_basis(n):
                    delta = Functional.delta(sigma, n)
                    assert hop_apply(j, k, delta) == expr.apply(delta)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        phi = random_functional(rng, 4)
        once = hop_apply(0, 2, phi)
        assert hop_apply(0, 2, once) == once


class TestAnticommutation:
    """Exact (residual identically zero) relations of the elementary matrices."""

    def test_equal_time_at_small_n(self):
        n = 4
        eye = sp.identity(1 << n, dtype=complex, format="csr")
        for k in range(n):
            a = materialize(annihilate(k), n)
            c = materialize(create(k), n)
            gap = c @ a + a @ c - eye
            assert gap.nnz == 0 or abs(gap).max() == 0.0

    def test_nilpotent(self):
        n = 4
        for k in range(n):
            a = materialize(annihilate(k), n)
            c = materialize(create(k), n)
            assert (a @ a).nnz == 0
            assert (c @ c).nnz == 0

    def test_cross_indices_commute(self):
        n = 4
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                a_j = materialize(annihilate(j), n)
                a_k = materialize(annihilate(k), n)
                c_j = materialize(create(j), n)
                c_k = materialize(create(k), n)
                assert abs(a_j @ a_k - a_k @ a_j).max() == 0.0
                assert abs(c_j @ c_k - c_k @ c_j).max() == 0.0
                assert abs(c_j @ a_k - a_k @ c_j).max() == 0.0

    def test_adjoint_transpose_on_truncation(self):
        # the two elementary matrices are exact transposes of each other on
        # every truncated basis; this says nothing about the untruncated
        # operators and is asserted only at the matrix level
        for n in (1, 3, 5):
            for k in range(n):
                a = materialize(annihilate(k), n).toarray()
                c = materialize(create(k), n).toarray()
                assert np.array_equal(a.T, c)

    def test_pairing_adjoint(self):
        rng = np.random.default_rng(8)
        n = 4
        phi, xi = random_functional(rng, n), random_functional(rng, n)
        for k in range(n):
            lhs = pair(apply_annihilate(k, phi), xi)
            rhs = pair(phi, l2_create(k, xi))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSeries:
    def test_tiny_hand_case(self):
        w = Weight2D({(0, 0): 2.0})
        phi = Functional.delta(Subset.of(0), 2)
        assert series_partial_2d(w, phi, 0) == Functional.zero(2)
        assert series_partial_2d(w, phi, 1) == 2.0 * phi
        assert series_partial_2d(w, phi, 2) == gwn_apply(w, phi)

    def test_stabilizes_beyond_support(self, running):
        rng = np.random.default_rng(4)
        n = 5
        phi = random_functional(rng, n)
        for w in (Weight2D.zero(), running, random_weight(rng, 3)):
            target = gwn_apply(w, phi)
            bound = w.support_bound()
            gaps = []
            for m in range(n + 1):
                partial = series_partial_2d(w, phi, m)
                gaps.append((partial - target).max_abs())
                if m >= bound:
                    assert partial.isclose(target, tol=1e-13)
            # nothing moves once the support is exhausted
            assert all(g == gaps[-1] for g in gaps[bound:])

    def test_one_dimensional(self):
        rng = np.random.default_rng(6)
        n = 5
        phi = random_functional(rng, n)
        u = Weight1D({0: 1.0, 2: 0.5})
        target = wn1d_apply(u, phi)
        assert series_partial_1d(u, phi, 3).isclose(target, tol=1e-14)
        assert series_partial_1d(u, phi, n).isclose(target, tol=1e-14)
        partial = series_partial_1d(u, phi, 1)
        assert partial.isclose(
            1.0 * occupation_apply(0, phi), tol=1e-14
        )

    def test_number_series(self):
        rng = np.random.default_rng(7)
        n = 4
        phi = random_functional(rng, n)
        assert number_series_partial(phi, n).isclose(number_apply(phi), tol=1e-14)
        assert number_series_partial(phi, 0) == Functional.zero(n)

    def test_cutoff_validation(self):
        phi = Functional.delta(Subset(), 3)
        with pytest.raises(ValueError):
            series_partial_2d(Weight2D.zero(), phi, 4)
        with pytest.raises(ValueError):
            series_partial_1d(Weight1D.zero(), phi, -1)


class TestMaterialize:
    def test_annihilate_n1(self):
        mat = materialize(annihilate(0), 1).toarray()
        assert np.array_equal(mat, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_create_n1(self):
        mat = materialize(create(0), 1).toarray()
        assert np.array_equal(mat, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_identity_zero_diag(self):
        assert abs(materialize(identity(), 2) - sp.identity(4)).max() == 0.0
        assert materialize(zero(), 2).nnz == 0
        lam_mat = materialize(Diagonal(lam_vector), 3).toarray()
        for sigma in enumerate_basis(3):
            assert lam_mat[sigma.mask, sigma.mask] == lam(sigma)

    def test_compose_matches_matmul(self):
        n = 3
        expr = create(1) @ annihilate(1)
        direct = materialize(expr, n)
        by_hand = materialize(create(1), n) @ materialize(annihilate(1), n)
        assert abs(direct - by_hand).max() == 0.0

    def test_sum_scale(self):
        n = 2
        expr = 2.0 * annihilate(0) + create(0) * (1 - 1j)
        mat = materialize(expr, n).toarray()
        expect = 2.0 * materialize(annihilate(0), n).toarray() + (
            1 - 1j
        ) * materialize(create(0), n).toarray()
        assert np.array_equal(mat, expect)

    @pytest.mark.parametrize("seed", range(5))
    def test_apply_agrees_with_matrix(self, seed, running):
        # dual route: dictionary application vs materialized matrix action
        rng = np.random.default_rng(seed)
        n = 4
        leaves = [
            annihilate(int(rng.integers(n))),
            create(int(rng.integers(n))),
            number(),
            gwn_expr(random_weight(rng, n)),
            wn1d_expr(Weight1D({int(rng.integers(n)): 1.5})),
            identity(),
        ]
        expr = Compose(
            (
                Sum((leaves[int(rng.integers(6))], leaves[int(rng.integers(6))])),
                Scale(complex(rng.standard_normal(), rng.standard_normal()),
                      leaves[int(rng.integers(6))]),
            )
        )
        phi = random_functional(rng, n)
        via_apply = expr.apply(phi).as_vector()
        via_matrix = materialize(expr, n) @ phi.as_vector()
        assert np.max(np.abs(via_apply - via_matrix)) < 1e-12

    def test_column_sweep_reproduces_matrix(self):
        n = 3
        swept = materialize_apply(lambda f: apply_annihilate(1, f), n).toarray()
        direct = materialize(annihilate(1), n).toarray()
        assert np.array_equal(swept, direct)

    @pytest.mark.parametrize("leaf", [annihilate, create])
    def test_cached_ladder_matrix_is_read_only(self, leaf):
        before = materialize(leaf(1), 3).toarray()
        cached = materialize(leaf(1), 3)
        for arr in (cached.data, cached.indices, cached.indptr):
            with pytest.raises(ValueError):
                arr[:] = 7
        assert np.array_equal(materialize(leaf(1), 3).toarray(), before)


class TestL2Side:
    def test_hand_cases(self):
        n = 2
        assert l2_annihilate(1, Functional.delta(Subset.of(0, 1), n)) == (
            Functional.delta(Subset.of(0), n)
        )
        assert l2_annihilate(1, Functional.delta(Subset.of(0), n)) == Functional.zero(n)
        assert l2_create(1, Functional.delta(Subset.of(0), n)) == (
            Functional.delta(Subset.of(0, 1), n)
        )
        assert l2_create(1, Functional.delta(Subset.of(1), n)) == Functional.zero(n)

    def test_same_coefficient_matrices_as_transform_side(self):
        # both sides act by identical real 0/1 coefficient moves; this is
        # exactly why conjugation intertwines them
        n = 3
        for k in range(n):
            lhs = materialize_apply(lambda f: l2_annihilate(k, f), n).toarray()
            rhs = materialize(annihilate(k), n).toarray()
            assert np.array_equal(lhs, rhs)
            lhs = materialize_apply(lambda f: l2_create(k, f), n).toarray()
            rhs = materialize(create(k), n).toarray()
            assert np.array_equal(lhs, rhs)

    def test_conjugation_intertwines(self, running):
        rng = np.random.default_rng(11)
        n = 4
        xi = random_functional(rng, n)
        for k in range(n):
            assert riesz_embed(l2_annihilate(k, xi)).isclose(
                apply_annihilate(k, riesz_embed(xi)), tol=1e-14
            )
            assert riesz_embed(l2_create(k, xi)).isclose(
                apply_create(k, riesz_embed(xi)), tol=1e-14
            )
        assert riesz_embed(l2_wn_apply(running, xi)).isclose(
            gwn_apply(running, riesz_embed(xi)), tol=1e-14
        )

    def test_wn1d_l2(self):
        rng = np.random.default_rng(12)
        xi = random_functional(rng, 3)
        u = Weight1D({0: 2.0, 2: 1.0})
        lifted = l2_wn_apply(Weight2D.from_weight1d(u), xi)
        assert l2_wn1d_apply(u, xi).isclose(lifted, tol=1e-14)


class TestJson:
    def test_roundtrip_tree(self, running):
        expr = Sum(
            (
                Compose((create(1), annihilate(0))),
                Scale(2 - 1j, gwn_expr(running)),
                wn1d_expr(Weight1D({0: 1.0})),
                number(),
                identity(),
                zero(),
            )
        )
        data = expr.to_json()
        back = parse_expr(data)
        rng = np.random.default_rng(13)
        phi = random_functional(rng, 3)
        assert back.apply(phi).isclose(expr.apply(phi), tol=1e-14)
        assert back.to_json() == data

    def test_plain_diagonal_does_not_serialize(self):
        with pytest.raises(ValueError):
            Diagonal(lam_vector).to_json()
        assert number().to_json() == {"op": "number"}

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_expr({"kind": "annihilate"})
        with pytest.raises(ValueError):
            parse_expr({"op": "teleport"})
        with pytest.raises(ValueError):
            parse_expr([1, 2])
        # every malformed field is a ValueError that names it
        for bad, field in (
            ({"op": "annihilate", "k": 1.9}, "'k'"),
            ({"op": "create", "k": True}, "'k'"),
            ({"op": "create"}, "'k'"),
            ({"op": "gwn"}, "'weight'"),
            ({"op": "wn1d", "weight": [1]}, "weight"),
            ({"op": "sum", "args": 5}, "'args'"),
            ({"op": "compose", "args": {"op": "zero"}}, "'args'"),
            ({"op": "scale", "c": 2.0, "arg": {"op": "zero"}}, "'c'"),
            ({"op": "scale", "c": [1.0, "i"], "arg": {"op": "zero"}}, "'c'"),
            ({"op": "scale", "c": [1.0, 0.0]}, "'arg'"),
        ):
            with pytest.raises(ValueError, match=field):
                parse_expr(bad)

    def test_parse_depth_cap(self):
        expr = {"op": "zero"}
        for _ in range(100):
            expr = {"op": "sum", "args": [expr]}
        assert parse_expr(expr).apply(Functional.delta([0], 2)) == Functional.zero(2)
        with pytest.raises(ValueError, match="deeper than 100"):
            parse_expr({"op": "scale", "c": [1.0, 0.0], "arg": expr})
