"""Bernoulli noise model: atoms, exact Gram, conditional moments, sampling.

Frozen outcome values, computed by hand from the defining probabilities:
theta = 1/2 gives steps +/- 1 with equal weight; theta = 1/4 gives
+sqrt(3) with probability 1/4 and -1/sqrt(3) with probability 3/4.
"""
from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoscalc import martingale
from chaoscalc.functionals import Functional
from chaoscalc.martingale import (
    BernoulliParams,
    atom_probs,
    chaotic_expand,
    conditional_moments,
    exact_gram,
    gram_deviation,
    monte_carlo_gram,
    psi_matrix,
    reconstruct,
    rng_stream,
)
from chaoscalc.reports import residual


def z_matrix(params):
    """Dense table of basis-product values, entry (atom, mask): the oracle
    that the per-step Kronecker factors are checked against."""
    return martingale._products_over_masks(psi_matrix(params))


def sample_steps(params, samples, seed, stream=0):
    """Draw (samples, n) step outcomes from the product measure, one uniform
    per step of each path: the per-path sampler that the library's atom
    counts are checked against."""
    hits = rng_stream(seed, stream).random((samples, params.n)) < params.thetas
    return np.where(hits, params.plus_values(), params.minus_values())


class TestParams:
    def test_symmetric_values(self):
        params = BernoulliParams.constant(0.5, 3)
        assert np.allclose(params.plus_values(), 1.0)
        assert np.allclose(params.minus_values(), -1.0)

    def test_quarter_values(self):
        params = BernoulliParams.constant(0.25, 1)
        assert params.plus_values()[0] == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert params.minus_values()[0] == pytest.approx(-1 / math.sqrt(3.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliParams((0.5, 1.0))
        with pytest.raises(ValueError):
            BernoulliParams((0.0,))
        with pytest.raises(ValueError):
            BernoulliParams.cycling((), 4)

    @pytest.mark.parametrize("theta", [5e-324, 1e-310])
    def test_overflowing_step_value(self, theta):
        with pytest.raises(ValueError, match="overflows"):
            BernoulliParams((theta, 0.5))
        # kept one at a time: together their atom probability 1e-316 underflows
        for kept in ((1e-300,), (1 - 1e-16,)):
            assert np.isfinite(BernoulliParams(kept).plus_values()).all()

    def test_underflowing_atom_probability(self):
        tiny = sys.float_info.min
        for thetas in ((1e-200, 1e-200), (1e-300, 1 - 1e-16), (tiny / 2,)):
            with pytest.raises(ValueError, match="below the smallest normal double"):
                BernoulliParams(thetas)
        for thetas in ((1e-150, 1e-150, 0.5), (tiny,), (0.5, 1 - 1e-16)):
            assert min(atom_probs(BernoulliParams(thetas))) >= tiny

    def test_cycling(self):
        params = BernoulliParams.cycling((0.25, 1 / 3, 2 / 3, 0.9), 6)
        assert params.thetas[:4] == (0.25, 1 / 3, 2 / 3, 0.9)
        assert params.thetas[4] == 0.25 and params.thetas[5] == 1 / 3

    def test_json_roundtrip(self):
        params = BernoulliParams((0.25, 0.75))
        assert BernoulliParams.from_json({"thetas": [0.25, 0.75]}) == params

    @pytest.mark.parametrize(
        "data",
        [[0.5], {}, {"thetas": 0.5}, {"thetas": "0.5"}, {"thetas": [[0.5]]},
         {"thetas": [None]}, {"thetas": ["half"]}, {"thetas": [10**400]}],
    )
    def test_json_bad_payloads(self, data):
        with pytest.raises(ValueError):
            BernoulliParams.from_json(data)

    @pytest.mark.parametrize("theta", ["0.5", True], ids=["string", "bool"])
    def test_json_quoted_number_is_rejected(self, theta):
        # float() takes "0.5" and True (1.0, then out of range for the wrong reason)
        with pytest.raises(ValueError, match="theta must be a number"):
            BernoulliParams.from_json({"thetas": [theta, 0.5]})


class TestAtoms:
    def test_probs_single_step(self):
        params = BernoulliParams.constant(0.25, 1)
        p = atom_probs(params)
        # bit 0 clear = negative branch
        assert p[0] == 0.75 and p[1] == 0.25

    def test_probs_product(self):
        params = BernoulliParams((0.25, 0.5))
        p = atom_probs(params)
        assert p[0b00] == 0.75 * 0.5
        assert p[0b01] == 0.25 * 0.5
        assert p[0b10] == 0.75 * 0.5
        assert p[0b11] == 0.25 * 0.5
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_psi_matrix_layout(self):
        params = BernoulliParams((0.25, 0.5))
        psi = psi_matrix(params)
        assert psi[0b01, 0] == pytest.approx(math.sqrt(3.0))
        assert psi[0b00, 0] == pytest.approx(-1 / math.sqrt(3.0))
        assert psi[0b10, 1] == 1.0 and psi[0b00, 1] == -1.0

    def test_z_products(self):
        params = BernoulliParams((0.25, 0.5))
        z = z_matrix(params)
        psi = psi_matrix(params)
        assert np.all(z[:, 0] == 1.0)
        assert np.allclose(z[:, 0b11], psi[:, 0] * psi[:, 1])

    def test_z_matches_literal_products(self):
        params = BernoulliParams((0.2, 0.5, 0.7, 0.9, 1 / 3))
        z, psi = z_matrix(params), psi_matrix(params)
        for mask in range(1 << params.n):
            bits = [k for k in range(params.n) if mask >> k & 1]
            assert np.allclose(z[:, mask], np.prod(psi[:, bits], axis=1), rtol=1e-14, atol=0)

    def test_exact_cap(self, monkeypatch):
        # the 2**n x 2**n Gram and the per-atom step table stop at 13
        params = BernoulliParams.constant(0.5, 14)
        for table in (exact_gram, psi_matrix):
            with pytest.raises(ValueError, match="up to n = 13 .*2048 MiB at n = 14"):
                table(params)
        assert len(atom_probs(params)) == 1 << 14
        ones = chaotic_expand(np.ones(1 << 14), params)
        assert np.array_equal(reconstruct(ones, params), np.ones(1 << 14))
        # the vectors of 2**n values stop at 20 whatever CHAOSCALC_MAX_N allows
        monkeypatch.setenv("CHAOSCALC_MAX_N", "21")
        params = BernoulliParams.constant(0.5, 21)
        vectors = (
            atom_probs,
            conditional_moments,
            lambda p: chaotic_expand(np.zeros(1), p),
            lambda p: reconstruct(Functional.zero(21), p),
        )
        for vector in vectors:
            with pytest.raises(ValueError, match="up to n = 20 .*16 MiB at n = 21"):
                vector(params)


class TestGram:
    def test_single_step_identity(self):
        g = exact_gram(BernoulliParams.constant(0.25, 1))
        assert np.allclose(g, np.eye(2), atol=1e-15)

    def test_symmetric_walsh_exact(self):
        # theta = 1/2 makes every entry a dyadic rational: identity exactly
        g = exact_gram(BernoulliParams.constant(0.5, 3))
        assert np.array_equal(g, np.eye(8))

    @pytest.mark.parametrize(
        "thetas", [(0.25, 1 / 3, 2 / 3), (0.9, 0.1, 0.5, 0.42)]
    )
    def test_mixed_identity(self, thetas):
        g = exact_gram(BernoulliParams(thetas))
        assert np.max(np.abs(g - np.eye(len(g)))) < 1e-13


def dense_gram(params):
    z, p = z_matrix(params), atom_probs(params)
    return z.T @ (p[:, None] * z)


def tree_counts(params, samples, seed):
    """Draw counts per atom node by node down the tree of steps: each count
    splits with one scalar binomial draw into the paths that took step k's
    negative branch and those that took its positive one, in the order of
    the vectorized draws and on the same stream."""
    rng = rng_stream(seed)
    counts = [samples]
    for theta in params.thetas:
        hits = [int(rng.binomial(count, theta)) for count in counts]
        counts = [count - hit for count, hit in zip(counts, hits)] + hits
    return counts


def sample_means(z):
    """The mean over the rows of z of z[:, A] * z[:, B], for every (A, B), each
    a pairwise sum (numpy's, along a contiguous axis), so its rounding error
    grows with the log of the sample count."""
    columns = np.ascontiguousarray(z.T)
    return np.array([(columns * column).sum(axis=1) for column in columns]) / len(z)


def check_one_shot_oracle(thetas, samples):
    """monte_carlo_gram at seed 5 against a table of basis products per
    sample, over the paths that tree_counts draws; returns both results."""
    params = BernoulliParams(tuple(thetas))
    n = params.n
    atoms = np.repeat(np.arange(1 << n), tree_counts(params, samples, seed=5))
    positive = (atoms[:, None] >> np.arange(n)) & 1 == 1
    steps = np.where(positive, params.plus_values(), params.minus_values())
    z = np.ones((samples, 1 << n))
    for mask in range(1 << n):
        for k in range(n):
            if mask >> k & 1:
                z[:, mask] *= steps[:, k]
    gram_ref, second_ref = sample_means(z), sample_means(z * z)
    stderr_ref = np.sqrt(np.maximum(second_ref - gram_ref**2, 0.0) / samples)
    gram, stderr = monte_carlo_gram(params, samples, seed=5)
    assert np.array_equal(gram, gram.T) and np.array_equal(stderr, stderr.T)
    if all(t == 0.5 for t in thetas):
        # every product is +-1: the sums are exact in any order
        assert np.array_equal(gram, gram_ref) and np.array_equal(stderr, stderr_ref)
    # 1e-13 of the size of the summed terms: the mean of |z_A z_B| for
    # the Gram, of z_A**2 z_B**2 for the variance
    scale = sample_means(np.abs(z))
    assert np.all(np.abs(gram - gram_ref) <= 1e-13 * scale)
    variance, variance_ref = samples * stderr**2, samples * stderr_ref**2
    assert np.all(np.abs(variance - variance_ref) <= 1e-13 * second_ref)
    return gram, stderr, gram_ref, stderr_ref


def index_mirrored_gram(params, samples, seed):
    """monte_carlo_gram with each table's strict lower triangle overwritten
    through ``np.tril_indices`` and fancy indexing: the reference for the
    library's one boolean mask."""
    counts = martingale._atom_counts(params, samples, seed)
    seen = np.flatnonzero(counts)
    weights = counts[seen].astype(float)[:, None]
    z = martingale._products_over_masks(psi_matrix(params)[seen])
    gram = z.T @ (weights * z)
    z *= z
    second = z.T @ (weights * z)
    lower = np.tril_indices(len(gram), -1)
    for table in (gram, second):
        table[lower] = table.T[lower]
        table /= samples
    stderr = np.sqrt(np.maximum(second - gram**2, 0.0) / samples)
    return gram, stderr


def path_counts(params, samples, seed):
    """Draw counts per atom from :func:`sample_steps`' paths."""
    positive = sample_steps(params, samples, seed) > 0
    return np.bincount(positive @ (1 << np.arange(params.n)), minlength=1 << params.n)


# The chi-square statistic with 15 degrees of freedom, 2**4 atoms less one,
# exceeds this with probability 1e-6.
CHI_SQUARE_CRITICAL = 56.49


def chi_square(draw):
    """Chi-square statistic of the atom counts ``draw(params, samples, seed)``
    pooled over 20 seeds of 5000 samples, against :func:`atom_probs`."""
    params = BernoulliParams((0.25, 1 / 3, 0.9, 0.6))
    counts = sum(draw(params, 5000, seed) for seed in range(20))
    expected = 100_000 * atom_probs(params)
    return float(np.sum((counts - expected) ** 2 / expected))


def traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedGram:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        thetas = data.draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
        params = BernoulliParams(tuple(thetas))
        gram = exact_gram(params)
        assert np.array_equal(gram, gram.T)
        assert np.max(np.abs(gram - dense_gram(params))) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_symmetric_walsh_bitwise(self, n):
        gram = exact_gram(BernoulliParams.constant(0.5, n))
        assert np.array_equal(gram, np.eye(1 << n))
        mixed = exact_gram(BernoulliParams.cycling((0.25, 1 / 3, 0.9), n))
        assert np.array_equal(mixed, mixed.T)

    @pytest.mark.parametrize("thetas", [(0.5,) * 6, (0.25, 1 / 3, 2 / 3, 0.9, 0.6, 0.1)])
    def test_sampled_matches_one_shot_oracle(self, thetas):
        gram, stderr, gram_ref, stderr_ref = check_one_shot_oracle(thetas, 20_000)
        assert np.allclose(gram, gram_ref, rtol=0, atol=1e-13)
        assert np.allclose(stderr, stderr_ref, rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        thetas=st.integers(0, 8).flatmap(
            lambda n: st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)
        ),
        samples=st.integers(1, 5000),
    )
    def test_block_size_is_invisible(self, thetas, samples):
        # the counts do not depend on whether a step's splits are drawn as
        # one vectorized block or one node at a time
        params = BernoulliParams(tuple(thetas))
        counts = martingale._atom_counts(params, samples, seed=5)
        assert np.array_equal(counts, tree_counts(params, samples, seed=5))
        check_one_shot_oracle(thetas, samples)

    @settings(max_examples=40, deadline=None)
    @given(
        thetas=st.integers(0, 8).flatmap(
            lambda n: st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)
        ),
        samples=st.sampled_from([1, 2, 10**5, 2**63 - 1]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_mask_mirror_matches_index_mirror(self, thetas, samples, seed):
        params = BernoulliParams(tuple(thetas))
        gram, stderr = monte_carlo_gram(params, samples, seed)
        gram_ref, stderr_ref = index_mirrored_gram(params, samples, seed)
        assert gram.tobytes() == gram_ref.tobytes()
        assert stderr.tobytes() == stderr_ref.tobytes()

    def test_counts_follow_atom_probs(self):
        assert chi_square(martingale._atom_counts) < CHI_SQUARE_CRITICAL
        assert chi_square(path_counts) < CHI_SQUARE_CRITICAL

    def test_shifted_counts_fail(self, shifted_draws):
        assert chi_square(martingale._atom_counts) > CHI_SQUARE_CRITICAL

    def test_memory_is_bounded(self):
        params = BernoulliParams.cycling((0.25, 1 / 3, 0.9), 6)
        small = traced_peak(monte_carlo_gram, params, 50_000, 3)
        large = traced_peak(monte_carlo_gram, params, 400_000, 3)
        assert large < 1.1 * small
        params = BernoulliParams.cycling((0.25, 1 / 3, 0.9), 11)
        gram_bytes = 8 * 4**11
        # the dense product held three such tables
        assert traced_peak(exact_gram, params) < 2 * gram_bytes
        # z_matrix is as large as the Gram; these never build it
        phi = Functional.from_vector(np.arange(2048.0), 11)
        values = psi_matrix(params)[:, 0]
        assert traced_peak(reconstruct, phi, params) < gram_bytes
        assert traced_peak(chaotic_expand, values, params) < gram_bytes

    def test_one_block_alive(self):
        # the exact Gram is built in place and the expansion maps work on
        # vectors of 2**n values; the sampled Gram holds the 256 draw counts
        # and a few 256 x 256 tables over the drawn atoms: 3.0 MiB measured,
        # bounded with 1 MiB of margin (a table of products per sample would
        # take 39 MiB here)
        params = BernoulliParams.cycling((0.25, 1 / 3, 0.9), 11)
        assert traced_peak(exact_gram, params) < 1.05 * 8 * 4**11
        phi = Functional.from_vector(np.arange(2048.0), 11)
        values = psi_matrix(params)[:, 0]
        assert traced_peak(reconstruct, phi, params) < 12 * 2**20
        assert traced_peak(chaotic_expand, values, params) < 12 * 2**20
        sampled = BernoulliParams.cycling((0.25, 1 / 3, 0.9), 8)
        assert traced_peak(monte_carlo_gram, sampled, 20_000, 3) < 4 * 2**20

    def test_products_only_over_atoms(self, monkeypatch):
        rows_seen = []
        products = martingale._products_over_masks

        def spy(step_values):
            rows_seen.append(len(step_values))
            return products(step_values)

        monkeypatch.setattr(martingale, "_products_over_masks", spy)
        params = BernoulliParams.cycling((0.25, 1 / 3, 0.9), 6)
        monte_carlo_gram(params, 100_000, seed=3)
        assert rows_seen and max(rows_seen) <= 64

    def test_empty_path(self):
        gram, stderr = monte_carlo_gram(BernoulliParams(()), 10, seed=1)
        assert np.array_equal(gram, [[1.0]]) and np.array_equal(stderr, [[0.0]])


def max_deviation(gram):
    """max |G - I| read off a whole Gram: 1 subtracted from the diagonal,
    then the larger of the largest entry and minus the smallest."""
    gram = gram.copy()
    gram[np.diag_indices(len(gram))] -= 1.0
    return float(max(gram.max(), -gram.min()))


def gram_deviations(params):
    """Largest |G - I| of the factorized Gram and of the dense oracle, after
    checking that the two Grams agree entry by entry and that
    :func:`gram_deviation` reads the factorized one bit for bit."""
    factorized, dense = exact_gram(params), dense_gram(params)
    assert np.max(np.abs(factorized - dense)) <= 1e-12
    deviation = max_deviation(factorized)
    assert gram_deviation(params).hex() == deviation.hex()
    return deviation, max_deviation(dense)


# thetas spread over the decades towards 0 and towards 1
EXTREME_THETAS = st.builds(
    lambda e, near_one: 1.0 - 10.0**e if near_one else 10.0**e,
    st.floats(-12.0, math.log10(0.95)),
    st.booleans(),
)


class TestGramDeviation:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_dense(self, data):
        n = data.draw(st.integers(0, 10), label="n")
        thetas = st.one_of(st.floats(0.05, 0.95), EXTREME_THETAS)
        params = BernoulliParams(tuple(data.draw(st.lists(thetas, min_size=n, max_size=n))))
        # hex() also tells the zeros apart by sign
        assert gram_deviation(params).hex() == max_deviation(exact_gram(params)).hex()

    def test_non_finite_step_value_propagates(self, monkeypatch):
        # NaN-blind maxima would drop a NaN factor and report a finite deviation
        minus_values = BernoulliParams.minus_values

        def nan_at_step_1(self):
            out = minus_values(self)
            out[1] = np.nan
            return out

        monkeypatch.setattr(BernoulliParams, "minus_values", nan_at_step_1)
        assert math.isnan(gram_deviation(BernoulliParams.cycling((0.25, 1 / 3), 4)))


class TestGramControls:
    """Step values that break orthonormality show in the factorized Gram and
    in :func:`gram_deviation` as they do in the dense oracle."""

    def test_scaled_plus_values(self, scaled_plus_values):
        factorized, dense = gram_deviations(BernoulliParams.cycling((0.25, 1 / 3, 0.9), 6))
        assert 1e-6 < factorized < 1e-5
        assert abs(factorized - dense) <= 1e-12

    def test_swapped_step(self, swapped_step):
        # step 2 now has mean t v- + (1 - t) v+ = -8/3 at theta = 0.9
        factorized, dense = gram_deviations(BernoulliParams.cycling((0.25, 1 / 3, 0.9), 6))
        assert factorized > 0.5
        assert abs(factorized - dense) <= 1e-12


def fsum_moments(params):
    """Per-step conditional-moment deviations summed atom by atom: for every
    step and every past, math.fsum of p * v and p * v**2 over the atoms that
    share that past, divided by the fsum of their p."""
    n, p = params.n, martingale.atom_probs(params)
    plus, minus = params.plus_values(), params.minus_values()
    mean_devs, second_devs = [], []
    for m in range(n):
        groups = {}
        for atom in range(1 << n):
            v = plus[m] if atom >> m & 1 else minus[m]
            group = groups.setdefault(atom & ((1 << m) - 1), ([], [], []))
            for terms, term in zip(group, (p[atom], p[atom] * v, p[atom] * v * v)):
                terms.append(term)
        sums = [tuple(map(math.fsum, group)) for group in groups.values()]
        mean_devs.append(max(abs(first / mass) for mass, first, _ in sums))
        second_devs.append(max(abs(second / mass - 1.0) for mass, _, second in sums))
    return mean_devs, second_devs


class TestMoments:
    @pytest.mark.parametrize("theta", [0.5, 0.25, 0.9])
    def test_constant(self, theta):
        report = conditional_moments(BernoulliParams.constant(theta, 5))
        assert report.max_mean_dev < 1e-14
        assert report.max_second_dev < 1e-14

    @pytest.mark.parametrize(
        "params",
        [
            *(BernoulliParams.constant(theta, 8) for theta in (0.5, 0.05, 0.01)),
            BernoulliParams.cycling((0.1, 0.5, 0.9), 8),
            BernoulliParams.cycling((0.1, 0.5, 0.9), 1),
        ],
    )
    def test_matches_fsum_oracle(self, params):
        self.check_fsum_oracle(params)

    @settings(max_examples=40, deadline=None)
    @given(thetas=st.lists(st.one_of(st.floats(0.01, 0.99), EXTREME_THETAS), max_size=8))
    def test_random_thetas_match_fsum_oracle(self, thetas):
        self.check_fsum_oracle(BernoulliParams(tuple(thetas)))

    @staticmethod
    def check_fsum_oracle(params):
        report = conditional_moments(params)
        mean_devs, second_devs = fsum_moments(params)
        assert np.allclose(report.mean_dev_per_step, mean_devs, rtol=0, atol=1e-15)
        assert np.allclose(report.second_dev_per_step, second_devs, rtol=0, atol=1e-15)

    def test_reads_the_atom_law(self, monkeypatch):
        # a law that is no product: 0.01 moved from atom 0b11 to atom 0b01
        # makes step 1 positive less often after a positive step 0, and each
        # later step after the past 0b11 less often negative; the per-atom
        # sums read 0.06804 on step 1 and 0.48447 on step 5
        params = BernoulliParams.cycling((0.3, 0.6), 6)
        gram_dev = gram_deviation(params)
        product_law = martingale.atom_probs

        def moved_mass(params):
            probs = product_law(params)
            probs[0b11] -= 0.01
            probs[0b01] += 0.01
            return probs

        monkeypatch.setattr(martingale, "atom_probs", moved_mass)
        report = conditional_moments(params)
        self.check_fsum_oracle(params)
        assert report.mean_dev_per_step[1] == pytest.approx(0.06804, abs=1e-5)
        assert report.max_mean_dev == report.mean_dev_per_step[5]
        assert report.max_mean_dev == pytest.approx(0.48447, abs=1e-5)
        assert gram_deviation(params) == gram_dev

    def test_max_keeps_a_late_nan(self):
        report = martingale.MomentReport((1e-16, math.nan), (math.nan, 1e-16))
        assert math.isnan(report.max_mean_dev)
        assert math.isnan(report.max_second_dev)
        assert martingale.MomentReport((), ()).max_mean_dev == 0.0

    def test_memory_is_bounded(self):
        # the atom law and the ratios r: 1.5 vectors of 8 * 2**20 bytes;
        # summing p * v per step over all atoms held 4.75
        params = BernoulliParams.cycling((0.3, 0.5, 0.7), 20)
        assert traced_peak(atom_probs, params) < 1.1 * 8 * 2**20
        assert traced_peak(conditional_moments, params) < 1.6 * 8 * 2**20

    def test_random_thetas(self):
        rng = np.random.default_rng(1)
        thetas = tuple(rng.uniform(0.05, 0.95, size=6))
        report = conditional_moments(BernoulliParams(thetas))
        assert report.max_mean_dev < 1e-13
        assert report.max_second_dev < 1e-13
        assert len(report.mean_dev_per_step) == 6
        data = report.to_json()
        assert data["max_mean_dev"] == report.max_mean_dev


class TestSampling:
    def test_reproducible_streams(self):
        params = BernoulliParams.constant(0.3, 4)
        a = sample_steps(params, 100, seed=42)
        b = sample_steps(params, 100, seed=42)
        assert np.array_equal(a, b)
        c = sample_steps(params, 100, seed=42, stream=1)
        assert not np.array_equal(a, c)

    def test_outcome_values(self):
        params = BernoulliParams.constant(0.25, 2)
        draws = sample_steps(params, 500, seed=7)
        values = set(np.round(draws.ravel(), 12))
        assert values == {
            round(math.sqrt(3.0), 12),
            round(-1 / math.sqrt(3.0), 12),
        }

    def test_gram_within_stderr(self):
        params = BernoulliParams((0.25, 1 / 3, 2 / 3, 0.9))
        gram, se = monte_carlo_gram(params, 20000, seed=42)
        diff = np.abs(gram - np.eye(len(gram)))
        assert np.all(diff <= 4.0 * se + 1e-12)
        # diagonal of a product basis square has positive variance in general
        assert se.shape == gram.shape

    def test_rate_scales_like_root_n(self):
        params = BernoulliParams.constant(0.25, 4)
        sizes = (1000, 100000)
        errs = []
        for samples in sizes:
            gram, _ = monte_carlo_gram(params, samples, seed=42)
            errs.append(float(np.sqrt(np.mean((gram - np.eye(len(gram))) ** 2))))
        scaled = [e * math.sqrt(s) for e, s in zip(errs, sizes)]
        assert 0.2 < scaled[0] / scaled[1] < 5.0

    def test_validation(self):
        params = BernoulliParams.constant(0.5, 2)
        # True was taken as one sample and 2.5 was a TypeError
        for samples in (True, 2.5, 0, 2**63):
            with pytest.raises(ValueError, match="samples must"):
                monte_carlo_gram(params, samples, seed=1)
        assert monte_carlo_gram(params, 2**63 - 1, seed=1)[0].shape == (4, 4)
        with pytest.raises(ValueError):
            monte_carlo_gram(BernoulliParams.constant(0.5, 9), 10, seed=1)

    def test_rng_stream_is_counter_based(self):
        gen = rng_stream(42, 3)
        assert type(gen.bit_generator).__name__ == "Philox"

    def test_draw_equal_to_theta_misses(self):
        # a uniform is k / 2**53 and hits when strictly below theta, so for
        # theta on that grid P(hit) = theta exactly; a draw equal to theta
        # takes the negative branch
        theta = float(rng_stream(11).random())
        params = BernoulliParams((theta, 0.5))
        minus = params.minus_values()[0]
        assert sample_steps(params, 1, seed=11)[0, 0] == minus
        # one sample: the Gram is the outer product of the drawn atom's
        # basis products
        atoms = z_matrix(params)
        for seed in range(8):
            gram, _ = monte_carlo_gram(params, 1, seed)
            assert sum(np.array_equal(gram, np.outer(z, z)) for z in atoms) == 1

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_rng_stream_key_range(self, seed, stream):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            rng_stream(seed, stream)
        rng_stream(2**64 - 1, 2**64 - 1)


class TestExpansion:
    def test_constants_and_monomials(self):
        params = BernoulliParams((0.25, 0.6, 0.5))
        n, psi = params.n, psi_matrix(params)
        ones = chaotic_expand(np.ones(1 << n), params)
        assert residual(ones, Functional.delta(0, n)) <= 1e-13
        step1 = chaotic_expand(psi[:, 1], params)
        assert residual(step1, Functional.delta(0b010, n)) <= 1e-13
        mixed = chaotic_expand(psi[:, 0] * psi[:, 1] + 2.0, params)
        expect = Functional({0b011: 1.0, 0: 2.0}, n)
        assert residual(mixed, expect) <= 1e-13

    def test_expand_then_reconstruct(self):
        params = BernoulliParams((0.25, 1 / 3, 2 / 3, 0.9))
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(16)
        phi = Functional.from_vector(vec.astype(complex), 4)
        # expansion of the reconstructed atom values recovers the table
        again = chaotic_expand(reconstruct(phi, params), params)
        assert residual(again, phi) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_butterflies_match_full_table(self, n):
        params = BernoulliParams.cycling((0.25, 0.6, 0.5, 0.9), n)
        z, p = z_matrix(params), atom_probs(params)
        rng = np.random.default_rng(n)
        vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        expanded = chaotic_expand(vec, params)
        values = reconstruct(Functional.from_vector(vec, n), params)
        assert np.allclose(expanded.as_vector(), z.T @ (p * vec), rtol=0, atol=1e-12)
        assert np.allclose(values, z @ vec, rtol=0, atol=1e-12)

    def test_truncation_mismatch(self):
        params = BernoulliParams.constant(0.5, 3)
        with pytest.raises(ValueError):
            reconstruct(Functional.zero(2), params)
        for values in (np.ones(4), np.ones((2, 8))):
            with pytest.raises(ValueError, match="does not match the 8 atoms"):
                chaotic_expand(values, params)
