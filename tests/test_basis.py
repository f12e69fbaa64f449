"""Subset/index plumbing and the lambda weight sequence.

Expected values below were computed by hand before the implementation:
lambda({0,2}) = 1*3 = 3, lambda({1,3,4}) = 2*4*5 = 40, and the series
partial sums for r=2: n=1 gives 1 + 1 = 2, n=2 gives 2 * (1 + 1/4) = 2.5.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscalc.basis import (
    Subset,
    basis_size,
    check_truncation,
    lam,
    lam_vector,
    lambda_series_partial,
    max_truncation,
    popcount_at,
    popcount_vector,
)


def brute_force_series(r: float, n: int) -> float:
    """Independent oracle: literally enumerate Gamma_n and sum lambda^(-r)."""
    total = 0.0
    for mask in range(1 << n):
        total += lam(mask) ** (-r)
    return total


class TestSubset:
    def test_empty(self):
        s = Subset()
        assert s.mask == 0
        assert len(s) == 0
        assert s.indices() == ()
        assert lam(s) == 1.0

    def test_of_and_indices(self):
        s = Subset.of(2, 0)
        assert s.mask == 0b101
        assert s.indices() == (0, 2)
        assert 0 in s and 2 in s and 1 not in s
        assert -1 not in s

    def test_indicator(self):
        # membership is the one bit test; numpy indices read as ints, and
        # anything that is not an integer is never a member
        s = Subset.of(0, 4)
        assert np.int64(4) in s and np.int64(1) not in s
        assert 4.0 not in s and "0" not in s and None not in s

    def test_immutable_and_hashable(self):
        s = Subset.of(1, 2)
        with pytest.raises(AttributeError):
            s.mask = 7
        assert len({Subset.of(1, 2), Subset.of(2, 1)}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Subset(-1)
        with pytest.raises(ValueError):
            Subset.of(-3)
        with pytest.raises(ValueError):
            Subset("0b101")
        # an index is never truncated or read off a bool
        for bad in (1.7, 2.0, True, "1", None):
            with pytest.raises(ValueError):
                Subset.from_indices([0, bad])
        assert Subset.from_indices([np.int64(2), 0]) == Subset.of(0, 2)

    def test_bound_checked_before_the_shift(self):
        assert Subset.from_json([0, 2], n=3) == Subset.of(0, 2)
        for index in (3, 2**70):
            with pytest.raises(ValueError, match="outside truncation 3"):
                Subset.from_json([index], n=3)

    def test_json_roundtrip(self):
        s = Subset.of(5, 0, 3)
        assert s.to_json() == [0, 3, 5]
        assert Subset.from_json(s.to_json()) == s
        with pytest.raises(ValueError):
            Subset.from_json("nope")

    @given(st.sets(st.integers(min_value=0, max_value=40)))
    @settings(max_examples=60)
    def test_roundtrip_property(self, idx):
        s = Subset.from_indices(idx)
        assert set(s.indices()) == idx
        assert len(s) == len(idx)
        assert Subset.from_json(s.to_json()) == s


class TestLambda:
    def test_hand_values(self):
        assert lam(Subset()) == 1.0
        assert lam(Subset.of(0, 2)) == 3.0
        assert lam(Subset.of(1, 3, 4)) == 40.0

    def test_accepts_raw_mask(self):
        assert lam(0b101) == 3.0

    def test_accepts_index_collections(self):
        assert lam([0, 2]) == 3.0
        assert lam((0, 2)) == lam({0, 2}) == 3.0
        with pytest.raises(ValueError):
            lam(True)  # bools are not masks
        with pytest.raises(ValueError):
            lam("01")

    @given(st.sets(st.integers(min_value=0, max_value=30), max_size=8))
    @settings(max_examples=60)
    def test_multiplicative_over_disjoint_split(self, idx):
        s = Subset.from_indices(idx)
        even = Subset.from_indices(k for k in idx if k % 2 == 0)
        odd = Subset.from_indices(k for k in idx if k % 2 == 1)
        assert lam(s) == pytest.approx(lam(even) * lam(odd), rel=1e-15)
        # lambda dominates cardinality: each factor k+1 >= 1 and the chain
        # 1 <= #sigma <= lambda(sigma) holds for every finite subset
        assert lam(s) >= 1.0
        assert lam(s) >= len(idx)

    def test_vectorized_matches_scalar(self):
        vec = lam_vector(6)
        pop = popcount_vector(6)
        for mask in range(1 << 6):
            assert vec[mask] == lam(Subset(mask))
            assert pop[mask] == len(Subset(mask))

    def test_vectors_built_once_per_level_and_read_only(self):
        # each call builds its own vector, so a write into one never shows
        # in the next
        for build in (lam_vector, popcount_vector):
            before = build(5).copy()
            build(5)[:] = 7
            assert np.array_equal(build(np.int64(5)), before)
            assert len(build(4)) == 16

    def test_popcount_without_bitwise_count(self, monkeypatch):
        # numpy < 2.0 has no np.bitwise_count; the declared floor is 1.24
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for n in range(11):
            pop = popcount_vector(n)
            assert pop.dtype == np.int64
            assert pop.tolist() == [bin(m).count("1") for m in range(1 << n)]
        masks = [0, 1, 2**62, 2**62 + 5, 2**63 - 1, 0b1011 << 40]
        pop = popcount_at(np.array(masks, dtype=np.int64))
        assert pop.dtype == np.int64
        assert pop.tolist() == [bin(m).count("1") for m in masks]


class TestEnumeration:
    def test_small(self):
        assert basis_size(0) == 1
        # mask order means position == mask
        assert [Subset(m) for m in range(basis_size(2))] == [
            Subset(),
            Subset.of(0),
            Subset.of(1),
            Subset.of(0, 1),
        ]
        assert basis_size(3) == 8

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            check_truncation(-1)
        with pytest.raises(ValueError):
            check_truncation(2.5)
        with pytest.raises(ValueError):
            check_truncation(max_truncation() + 1)
        assert check_truncation(np.int64(4)) == 4

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("CHAOSCALC_MAX_N", "3")
        with pytest.raises(ValueError):
            check_truncation(4)
        monkeypatch.setenv("CHAOSCALC_MAX_N", "abc")
        with pytest.raises(ValueError):
            max_truncation()


class TestSeries:
    def test_hand_values(self):
        assert lambda_series_partial(2.0, 0) == 1.0
        assert lambda_series_partial(2.0, 1) == pytest.approx(2.0, abs=1e-15)
        assert lambda_series_partial(2.0, 2) == pytest.approx(2.5, abs=1e-15)

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("n", [0, 1, 3, 6, 9])
    def test_product_formula_matches_enumeration(self, r, n):
        assert lambda_series_partial(r, n) == pytest.approx(
            brute_force_series(r, n), rel=1e-13
        )

    def test_monotone_and_bounded(self):
        for r in (1.2, 2.0, 4.0):
            # the product is at most exp(zeta(r)), and zeta(r) <= r / (r - 1)
            # by comparison with the integral of x^(-r) from 1
            bound = math.exp(r / (r - 1))
            prev = 0.0
            for n in range(10):
                cur = lambda_series_partial(r, n)
                assert cur > prev
                assert cur <= bound
                prev = cur

    def test_bound_value(self):
        # Euler: prod over k >= 1 of (1 + 1/k^2) = sinh(pi) / pi; the factors
        # past k = 20 multiply to less than exp(sum of 1/k^2) < exp(1/20)
        limit = math.sinh(math.pi) / math.pi
        partial = lambda_series_partial(2.0, 20)
        assert partial < limit < partial * math.exp(1 / 20)

    def test_requires_r_above_one(self):
        with pytest.raises(ValueError):
            lambda_series_partial(1.0, 4)
        with pytest.raises(ValueError):
            lambda_series_partial(0.5, 4)
