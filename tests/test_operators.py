"""Ladder operators, diagonal operators, series partial sums, both routes.

The closed forms here are cross-checked against literal compositions of the
elementary matrices, which is the point: nothing in this file verifies a
function against its own implementation.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from chaoscalc import operators
from chaoscalc.basis import Subset, popcount_at
from chaoscalc.functionals import Functional, riesz_embed
from chaoscalc.operators import (
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
    parse_expr,
    series_partial_1d,
    series_partial_2d,
    wn1d_apply,
    wn1d_expr,
)
from chaoscalc.reports import residual
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


def weight_json(w: Weight2D) -> dict:
    return {"kind": "dense", "entries": [[j, k, v] for (j, k), v in w.entries.items()]}


def ladder_json(op: str, k: int) -> dict:
    return {"op": op, "k": k}


def node_json(op: str, *args: dict) -> dict:
    return {"op": op, "args": list(args)}


def scale_json(c: complex, arg: dict) -> dict:
    return {"op": "scale", "c": [c.real, c.imag], "arg": arg}


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
        assert residual(lhs, rhs) <= 1e-15

    def test_index_range(self):
        phi = Functional.delta(Subset(), 2)
        with pytest.raises(ValueError):
            apply_annihilate(2, phi)
        with pytest.raises(ValueError):
            apply_create(-1, phi)
        with pytest.raises(ValueError):
            materialize(annihilate(2), 2)
        # the constructors never truncate an index: 1.9 is not 1
        for build in (lambda: annihilate(1.9), lambda: create(True),
                      lambda: hop_expr(0, 1.7)):
            with pytest.raises(ValueError, match="integer"):
                build()

    def test_applies_never_truncate_an_index(self):
        # 1.7 used to act at index 1, and True at index 1
        phi = Functional.delta(Subset.of(1, 2), 3)
        for apply in (lambda: apply_annihilate(1.7, phi), lambda: apply_create(2.0, phi),
                      lambda: hop_apply(1, True, phi), lambda: hop_apply(True, 2.9, phi),
                      lambda: l2_annihilate(1.0, phi), lambda: l2_create(False, phi)):
            with pytest.raises(ValueError, match="integer"):
                apply()
        assert apply_annihilate(np.int64(1), phi) == Functional.delta(Subset.of(2), 3)


class TestDiagonalActions:
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
        for sigma in map(Subset, range(1 << n)):
            for k in range(n):
                occupation = node_json(
                    "compose", ladder_json("create", k), ladder_json("annihilate", k)
                )
                via_expr = parse_expr(occupation)(Functional.delta(sigma, n))
                direct = hop_apply(k, k, Functional.delta(sigma, n))
                expect = int(k in sigma) * Functional.delta(sigma, n)
                assert via_expr == expect
                assert direct == expect

    def test_diagonal_lift_consistency(self):
        rng = np.random.default_rng(5)
        u = Weight1D({k: float(rng.random()) for k in range(4)})
        phi = random_functional(rng, 4)
        lifted = gwn_apply(Weight2D.from_weight1d(u), phi)
        assert residual(lifted, wn1d_apply(u, phi)) <= 1e-14


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

    def test_closed_form_matches_fourfold_composition(self):
        n = 4
        for j in range(n):
            for k in range(n):
                expr = hop_expr(j, k)
                for sigma in map(Subset, range(1 << n)):
                    delta = Functional.delta(sigma, n)
                    assert hop_apply(j, k, delta) == expr(delta)

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
            lhs = apply_annihilate(k, phi).pair(xi)
            rhs = phi.pair(l2_create(k, xi))
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
                gaps.append((partial - target).moduli().max(initial=0.0))
                if m >= bound:
                    assert residual(partial, target) <= 1e-13
            # nothing moves once the support is exhausted
            assert all(g == gaps[-1] for g in gaps[bound:])

    def test_one_dimensional(self):
        rng = np.random.default_rng(6)
        n = 5
        phi = random_functional(rng, n)
        u = Weight1D({0: 1.0, 2: 0.5})
        target = wn1d_apply(u, phi)
        assert residual(series_partial_1d(u, phi, 3), target) <= 1e-14
        assert residual(series_partial_1d(u, phi, n), target) <= 1e-14
        partial = series_partial_1d(u, phi, 1)
        assert residual(partial, 1.0 * hop_apply(0, 0, phi)) <= 1e-14

    def test_number_series(self):
        rng = np.random.default_rng(7)
        n = 4
        phi = random_functional(rng, n)
        assert residual(number_series_partial(phi, n), number_apply(phi)) <= 1e-14
        assert number_series_partial(phi, 0) == Functional.zero(n)

    def test_cutoff_validation(self):
        phi = Functional.delta(Subset(), 3)
        with pytest.raises(ValueError):
            series_partial_2d(Weight2D.zero(), phi, 4)
        with pytest.raises(ValueError):
            series_partial_1d(Weight1D({}), phi, -1)


class TestMaterialize:
    def test_annihilate_n1(self):
        mat = materialize(annihilate(0), 1).toarray()
        assert np.array_equal(mat, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_create_n1(self):
        mat = materialize(create(0), 1).toarray()
        assert np.array_equal(mat, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_identity_zero_diag(self):
        assert abs(materialize(parse_expr({"op": "identity"}), 2) - sp.identity(4)).max() == 0.0
        assert materialize(parse_expr({"op": "zero"}), 2).nnz == 0

    def test_compose_matches_matmul(self):
        n = 3
        expr = parse_expr(
            node_json("compose", ladder_json("create", 1), ladder_json("annihilate", 1))
        )
        direct = materialize(expr, n)
        by_hand = materialize(create(1), n) @ materialize(annihilate(1), n)
        assert abs(direct - by_hand).max() == 0.0

    def test_sum_scale(self):
        n = 2
        expr = node_json(
            "sum",
            scale_json(2.0, ladder_json("annihilate", 0)),
            scale_json(1 - 1j, ladder_json("create", 0)),
        )
        mat = materialize(parse_expr(expr), n).toarray()
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
            ladder_json("annihilate", int(rng.integers(n))),
            ladder_json("create", int(rng.integers(n))),
            {"op": "number"},
            {"op": "gwn", "weight": weight_json(random_weight(rng, n))},
            {"op": "wn1d", "weight": {"kind": "diag1d", "entries": [[int(rng.integers(n)), 1.5]]}},
            {"op": "identity"},
        ]
        expr = parse_expr(
            node_json(
                "compose",
                node_json("sum", leaves[int(rng.integers(6))], leaves[int(rng.integers(6))]),
                scale_json(complex(rng.standard_normal(), rng.standard_normal()),
                      leaves[int(rng.integers(6))]),
            )
        )
        phi = random_functional(rng, n)
        via_apply = expr(phi).as_vector()
        via_matrix = materialize(expr, n) @ phi.as_vector()
        assert np.max(np.abs(via_apply - via_matrix)) < 1e-12

    def test_column_sweep_reproduces_matrix(self):
        n = 3
        swept = materialize_apply(lambda f: apply_annihilate(1, f), n).toarray()
        direct = materialize(annihilate(1), n).toarray()
        assert np.array_equal(swept, direct)

    @pytest.mark.parametrize("n", range(7))
    def test_diagonal_csr_matches_diags(self, n, running):
        # theta vanishes wherever bit 1 is clear and the count wherever bit 2
        # is: those zeros are dropped, as scipy's diags drops them
        masks = np.arange(1 << n, dtype=np.int64)
        u = Weight1D({2: 1.5})
        for leaf, values_at in (
            (gwn_expr(running), running.theta_at),
            (wn1d_expr(u), u.count_at),
            (number(), popcount_at),
        ):
            got = materialize(leaf, n)
            want = sp.diags(values_at(masks).astype(complex), format="csr")
            for part in ("data", "indices", "indptr"):
                mine, theirs = getattr(got, part), getattr(want, part)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)

    @pytest.mark.parametrize("leaf", [annihilate, create])
    def test_cached_ladder_matrix_is_read_only(self, leaf):
        # each call builds its own matrix, so a write into one never shows
        # in the next
        before = materialize(leaf(1), 3).toarray()
        first = materialize(leaf(1), 3)
        for arr in (first.data, first.indices, first.indptr):
            arr[:] = 0
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
            assert residual(
                riesz_embed(l2_annihilate(k, xi)), apply_annihilate(k, riesz_embed(xi))
            ) <= 1e-14
            assert residual(
                riesz_embed(l2_create(k, xi)), apply_create(k, riesz_embed(xi))
            ) <= 1e-14
        assert residual(
            riesz_embed(l2_wn_apply(running, xi)), gwn_apply(running, riesz_embed(xi))
        ) <= 1e-14

    def test_wn1d_l2(self):
        rng = np.random.default_rng(12)
        xi = random_functional(rng, 3)
        u = Weight1D({0: 2.0, 2: 1.0})
        lifted = l2_wn_apply(Weight2D.from_weight1d(u), xi)
        assert residual(l2_wn1d_apply(u, xi), lifted) <= 1e-14


class TestJson:
    def test_roundtrip_tree(self, running):
        dense = {"kind": "dense", "entries": [[0, 1, 2.0], [1, 1, 3.0]]}
        ladders = [{"op": "create", "k": 1}, {"op": "annihilate", "k": 0}]
        data = {
            "op": "sum",
            "args": [
                {"op": "compose", "args": ladders},
                {"op": "scale", "c": [2.0, -1.0], "arg": {"op": "gwn", "weight": dense}},
                {"op": "wn1d", "weight": {"kind": "diag1d", "entries": [[0, 1.0]]}},
                {"op": "number"},
                {"op": "identity"},
                {"op": "zero"},
            ],
        }
        rng = np.random.default_rng(13)
        phi = random_functional(rng, 3)
        by_kernels = (
            apply_create(1, apply_annihilate(0, phi))
            + (2 - 1j) * gwn_apply(running, phi)
            + wn1d_apply(Weight1D({0: 1.0}), phi)
            + number_apply(phi)
            + phi
        )
        assert residual(parse_expr(data)(phi), by_kernels) <= 1e-14

    def test_named_diagonals_parse(self, running):
        rng = np.random.default_rng(14)
        phi = random_functional(rng, 3)
        dense = {"kind": "dense", "entries": [[0, 1, 2.0], [1, 1, 3.0]]}
        diag1d = {"kind": "diag1d", "entries": [[0, 1.0], [2, 0.5]]}
        for data, direct in (
            ({"op": "number"}, number_apply(phi)),
            ({"op": "gwn", "weight": dense}, gwn_apply(running, phi)),
            ({"op": "wn1d", "weight": diag1d}, wn1d_apply(Weight1D({0: 1.0, 2: 0.5}), phi)),
        ):
            assert parse_expr(data)(phi) == direct

    def test_leaves_apply_the_verified_kernels(self, monkeypatch):
        # each parsed leaf calls its kernel in this module when applied, so a
        # kernel the verifier checks is the kernel that apply runs
        dense = {"kind": "dense", "entries": [[0, 1, 2.0], [1, 1, 3.0]]}
        leaves = {
            "apply_annihilate": parse_expr({"op": "annihilate", "k": 0}),
            "apply_create": parse_expr({"op": "create", "k": 0}),
            "gwn_apply": parse_expr({"op": "gwn", "weight": dense}),
            "wn1d_apply": parse_expr({"op": "wn1d", "weight": {"kind": "diag1d", "entries": []}}),
            "number_apply": parse_expr({"op": "number"}),
        }
        phi = Functional.delta(Subset.of(0, 1), 2)
        for kernel, expr in leaves.items():
            def stand_in(*args, kernel=kernel):
                raise RuntimeError(kernel)

            monkeypatch.setattr(operators, kernel, stand_in)
            with pytest.raises(RuntimeError, match=kernel):
                expr(phi)

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
            # float() would take these: a number must not come quoted or as a bool
            ({"op": "scale", "c": ["2", "1e2"], "arg": {"op": "zero"}}, "'c'"),
            ({"op": "scale", "c": [True, 0.0], "arg": {"op": "zero"}}, "'c'"),
            ({"op": "scale", "c": [1.0, 0.0]}, "'arg'"),
            ({"op": "scale", "c": [float("nan"), 0], "arg": {"op": "identity"}}, "'c'"),
            ({"op": "scale", "c": [float("inf"), 0], "arg": {"op": "identity"}}, "'c'"),
        ):
            with pytest.raises(ValueError, match=field):
                parse_expr(bad)

    def test_parse_depth_cap(self):
        expr = {"op": "zero"}
        for _ in range(100):
            expr = {"op": "sum", "args": [expr]}
        assert parse_expr(expr)(Functional.delta([0], 2)) == Functional.zero(2)
        with pytest.raises(ValueError, match="deeper than 100"):
            parse_expr({"op": "scale", "c": [1.0, 0.0], "arg": expr})
