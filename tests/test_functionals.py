"""Coefficient tables, graded norms, duality and the growth-bound checker.

Hand-frozen values: the basis vector at {1} has lambda = 2, so its p = 2
norm is 2^2 = 4 and its conjugated image has dual norm 2^(-1) = 0.5 at
p = 1. The empty-set basis vector has lambda = 1, so every norm equals 1.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscalc.basis import Subset, lam, lam_vector
from chaoscalc.functionals import (
    Functional,
    GrowthBound,
    GrowthCheckResult,
    check_growth,
    riesz_embed,
)


def random_functional(rng: np.random.Generator, n: int) -> Functional:
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Functional.from_vector(vec, n)


class TestContainer:
    def test_construction_drops_zeros(self):
        phi = Functional({Subset.of(0): 1.0, Subset.of(1): 0.0}, 2)
        assert phi.coeffs == {1: 1.0 + 0j}
        assert phi.fock(Subset.of(1)) == 0j
        assert phi.fock(Subset.of(0)) == 1.0

    def test_out_of_truncation(self):
        with pytest.raises(ValueError):
            Functional({Subset.of(3): 1.0}, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Functional({0: 1.0, 1: bad}, 2)
        vec = np.array([1.0, 0.0, bad, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            Functional.from_vector(vec, 2)
        data = {"truncation": 2, "coefficients": [[[1], bad.real, complex(bad).imag]]}
        with pytest.raises(ValueError, match="finite"):
            Functional.from_json(data)

    def test_delta_and_vector_roundtrip(self):
        phi = Functional.delta(Subset.of(0, 2), 3)
        vec = phi.as_vector()
        assert vec[0b101] == 1.0
        assert np.count_nonzero(vec) == 1
        assert Functional.from_vector(vec, 3) == phi
        with pytest.raises(ValueError):
            Functional.from_vector(vec, 2)

    def test_arithmetic(self):
        a = Functional.delta(Subset.of(0), 2)
        b = Functional.delta(Subset.of(1), 2)
        combo = 2 * a - b * 3j
        assert combo.fock(Subset.of(0)) == 2
        assert combo.fock(Subset.of(1)) == -3j
        assert (combo - combo).coeffs == {}
        assert (-combo).fock(Subset.of(0)) == -2
        assert (a + b).truncation == 2

    def test_support_sorted(self):
        phi = Functional({0b110: 1.0, 0b1: 2.0}, 3)
        assert phi.masks.tolist() == [0b1, 0b110]
        assert [s for s, _ in phi] == [Subset.of(0), Subset.of(1, 2)]


class TestNorms:
    def test_hand_values(self):
        z1 = Functional.delta(Subset.of(1), 2)
        assert z1.norm(2) == pytest.approx(4.0, abs=1e-15)
        assert z1.norm(0) == 1.0
        assert z1.norm(1) == pytest.approx(2.0, abs=1e-15)
        d0 = Functional.delta(Subset(), 2)
        for p in (0, 1, 5):
            assert d0.norm(p) == 1.0
            assert d0.dual_norm(p) == 1.0

    def test_dual_hand_value(self):
        phi = riesz_embed(Functional.delta(Subset.of(1), 2))
        assert phi.dual_norm(1) == pytest.approx(0.5, abs=1e-15)

    def test_p_zero_is_plain_l2(self):
        rng = np.random.default_rng(3)
        xi = random_functional(rng, 4)
        plain = math.sqrt(sum(abs(c) ** 2 for c in xi.coeffs.values()))
        assert xi.norm(0) == pytest.approx(plain, rel=1e-14)
        assert xi.dual_norm(0) == pytest.approx(plain, rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_p(self, seed):
        rng = np.random.default_rng(seed)
        xi = random_functional(rng, 4)
        # lambda >= 1 makes norm(p) nondecreasing and dual_norm(p) nonincreasing
        values = [xi.norm(p) for p in (0, 0.5, 1, 2)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(values, values[1:]))
        duals = [xi.dual_norm(p) for p in (0, 0.5, 1, 2)]
        assert all(a >= b * (1 - 1e-14) for a, b in zip(duals, duals[1:]))

    def test_embedding_is_isometry_levelwise(self):
        rng = np.random.default_rng(9)
        xi = random_functional(rng, 4)
        phi = riesz_embed(xi)
        for p in (0, 1, 2):
            assert phi.dual_norm(p) <= xi.norm(p) * (1 + 1e-14)
            assert phi.dual_norm(-p) == pytest.approx(xi.norm(p), rel=1e-13)


def tagged(tables, n: int) -> Functional:
    """tables[t]'s coefficient at sigma under mask ``(t << n) | sigma``."""
    masks = np.concatenate([t << n | table.masks for t, table in enumerate(tables)])
    values = np.concatenate([table.values for table in tables])
    return Functional._from_arrays(masks, values, n)


def sparse_functional(rng: np.random.Generator, n: int, keep: float) -> Functional:
    vec = random_functional(rng, n).as_vector() * (rng.uniform(size=1 << n) < keep)
    return Functional.from_vector(vec * 10.0 ** rng.integers(-6, 6, size=1 << n), n)


class TestPerTag:
    """A stack's per-tag norms and pairings are each table's own, exactly."""

    @pytest.mark.parametrize("full", [True, False], ids=["equal-tags", "unequal-tags"])
    def test_norms_and_pairings_equal_each_tables_own(self, full):
        rng = np.random.default_rng(31)
        n = 9  # 512 entries a full tag: several of numpy's pairwise-sum blocks
        if full:
            xis = [random_functional(rng, n) for _ in range(6)]
            phis = [random_functional(rng, n) for _ in range(6)]
        else:
            # tags of different sizes, one of them empty, and supports that
            # differ between phi and xi
            xis = [sparse_functional(rng, n, keep) for keep in (0.9, 0.0, 0.3, 1.0, 0.05)]
            phis = [sparse_functional(rng, n, keep) for keep in (0.5, 0.7, 1.0, 0.2, 0.0)]
        blocks = len(xis)
        xi, phi = tagged(xis, n), tagged(phis, n)
        for p in (0.0, 0.5, 1.0, 2.0, -1.0):
            assert xi.norm(p, blocks).tolist() == [t.norm(p) for t in xis]
            assert xi.dual_norm(p, blocks).tolist() == [t.dual_norm(p) for t in xis]
        assert phi.pair(xi, blocks).tolist() == [f.pair(t) for f, t in zip(phis, xis)]
        embedded = riesz_embed(xi)
        assert embedded.pair(xi, blocks).tolist() == [riesz_embed(t).pair(t) for t in xis]

    def test_a_tag_outside_the_blocks_raises(self):
        xi = tagged([random_functional(np.random.default_rng(2), 3)] * 3, 3)
        with pytest.raises(ValueError, match="tag 2 lies outside 2 blocks"):
            xi.norm(0, 2)
        with pytest.raises(ValueError, match="tag 2 lies outside 2 blocks"):
            xi.pair(xi, 2)


class TestRieszAndPairing:
    def test_conjugation(self):
        xi = Functional({Subset.of(0): 1 + 2j, Subset(): -3j}, 1)
        phi = riesz_embed(xi)
        assert phi.fock(Subset.of(0)) == 1 - 2j
        assert phi.fock(Subset()) == 3j
        assert riesz_embed(phi) == xi
        real = Functional({Subset.of(0): 2.5}, 1)
        assert riesz_embed(real) == real

    def test_pair_deltas(self):
        n = 3
        for sigma in map(Subset, range(1 << n)):
            for tau in map(Subset, range(1 << n)):
                value = Functional.delta(sigma, n).pair(Functional.delta(tau, n))
                assert value == (1.0 if sigma == tau else 0.0)

    def test_pair_with_embedding_gives_squared_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            xi = random_functional(rng, 4)
            value = riesz_embed(xi).pair(xi)
            assert value.imag == pytest.approx(0.0, abs=1e-12)
            assert value.real == pytest.approx(xi.norm(0) ** 2, rel=1e-12)

    def test_pair_is_bilinear(self):
        rng = np.random.default_rng(23)
        a, b, c = (random_functional(rng, 3) for _ in range(3))
        z = 2 - 1j
        lhs = a.pair(z * b + c)
        rhs = z * a.pair(b) + a.pair(c)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert a.pair(b) == pytest.approx(b.pair(a), rel=1e-12)


class TestGrowth:
    def test_delta_satisfies_unit_bound(self):
        phi = Functional.delta(Subset(), 3)
        res = check_growth(phi, GrowthBound(1.0, 0.0))
        assert res.worst_excess == 0.0 and res.witness is None
        assert res.dual_norm_at_next <= res.dual_norm_cap

    def test_tight_bound_passes(self):
        n = 4
        lams = lam_vector(n)
        phi = Functional.from_vector(lams.astype(complex), n)
        res = check_growth(phi, GrowthBound(1.0, 1.0))
        assert res.worst_excess == 0.0 and res.witness is None
        # the consequence is an inequality with explicit constant
        assert res.dual_norm_at_next <= res.dual_norm_cap * (1 + 1e-12)

    def test_violation_reports_witness(self):
        n = 4
        lams = lam_vector(n)
        phi = Functional.from_vector((lams**2).astype(complex), n)
        res = check_growth(phi, GrowthBound(1.0, 1.0))
        # the witness attains the maximal excess; adding index 0 leaves lambda
        # unchanged, so the top two subsets tie and either is a valid witness
        top = max(lam(s) ** 2 - lam(s) for s in map(Subset, range(1 << n)))
        assert res.worst_excess == pytest.approx(top, rel=1e-12)
        assert res.worst_excess == pytest.approx(
            lam(res.witness) ** 2 - lam(res.witness), rel=1e-12
        )
        # the norm consequence is measured whether or not the bound holds
        assert res.dual_norm_at_next == phi.dual_norm(2.0)
        assert res.dual_norm_at_next > res.dual_norm_cap

    def test_zero_scale(self):
        res = check_growth(Functional.zero(3), GrowthBound(0.0, 2.0))
        assert (res.worst_excess, res.witness) == (0.0, None)
        assert res.dual_norm_at_next == res.dual_norm_cap == 0.0
        phi = Functional.delta(Subset.of(0), 3)
        res = check_growth(phi, GrowthBound(0.0, 2.0))
        assert (res.worst_excess, res.witness) == (1.0, Subset.of(0))

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("scale", [0.0, 1.5])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_a_stack_measures_each_table_as_alone(self, scale, order, data):
        # tags of unequal sizes, one of them empty; small whole values tie
        # moduli, so the witness must be the first mask of its own tag
        n = data.draw(st.integers(0, 5))
        part = st.one_of(st.sampled_from([0.0, 1.0, -2.0, 3.0]), st.floats(-9.0, 9.0))
        coefficient = st.builds(complex, part, part)
        tables = [
            Functional(coeffs, n)
            for coeffs in data.draw(
                st.lists(st.dictionaries(st.integers(0, (1 << n) - 1), coefficient), max_size=4)
            )
        ]
        tables.insert(data.draw(st.integers(0, len(tables))), Functional.zero(n))
        bound = GrowthBound(scale, order)
        stacked = check_growth(tagged(tables, n), bound, len(tables))
        assert len(stacked) == len(tables)
        for got, table in zip(stacked, tables):
            alone = check_growth(table, bound)
            assert got.worst_excess == alone.worst_excess
            assert got.witness == alone.witness
            assert got.dual_norm_at_next == alone.dual_norm_at_next
            assert got.dual_norm_cap == alone.dual_norm_cap

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            GrowthBound(-1.0, 0.0)
        with pytest.raises(ValueError):
            GrowthBound(1.0, -2.0)

    def test_result_is_frozen(self):
        res = GrowthCheckResult(0.0, None, 1.0, 2.0)
        with pytest.raises(AttributeError):
            res.worst_excess = 1.0


class TestJson:
    def test_roundtrip(self):
        phi = Functional({Subset.of(0, 2): 1.5 - 2j, Subset(): 3.0}, 3)
        data = phi.to_json()
        assert data == {
            "truncation": 3,
            "coefficients": [[[], 3.0, 0.0], [[0, 2], 1.5, -2.0]],
        }
        assert Functional.from_json(data) == phi

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            Functional.from_json({"coefficients": []})
        with pytest.raises(ValueError):
            Functional.from_json({"truncation": 2, "coefficients": [[[0], 1.0]]})
        with pytest.raises(ValueError):
            Functional.from_json(
                {"truncation": 2, "coefficients": [[[0], 1.0, 0.0], [[0], 2.0, 0.0]]}
            )
        # wrong JSON types, non-integer and out-of-range indices raise ValueError
        for bad in (
            ["truncation"],
            "truncation",
            {"truncation": 2, "coefficients": 5},
            {"truncation": 2, "coefficients": [5]},
            {"truncation": 2, "coefficients": ["abc"]},
            {"truncation": 2, "coefficients": [[[1.7], 1.0, 0.0]]},
            {"truncation": 2, "coefficients": [[[True], 1.0, 0.0]]},
            {"truncation": 2, "coefficients": [[[2], 1.0, 0.0]]},
            {"truncation": 2, "coefficients": [[[2**70], 1.0, 0.0]]},
            {"truncation": 2, "coefficients": [[[0], [1.0], 0.0]]},
            {"truncation": 2, "coefficients": [[[0], 10**400, 0.0]]},
            {"truncation": 2, "coefficients": [[[0], "one", 0.0]]},
        ):
            with pytest.raises(ValueError):
                Functional.from_json(bad)

    @pytest.mark.parametrize("value", ["1.0", True], ids=["string", "bool"])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_a_quoted_number_is_rejected(self, part, value):
        # float() takes "1.0" and True, so a mistyped part used to load as 1.0
        item = [[0], 1.0, 0.0]
        item[1 if part == "re" else 2] = value
        with pytest.raises(ValueError, match=rf"coefficient at \[0\]: {part} must be a number"):
            Functional.from_json({"truncation": 2, "coefficients": [item]})
