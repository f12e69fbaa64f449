"""Generator assembly and its structural checks.

The tiny n = 2 oracle below is worked out by hand. With the single rate
w(0, 1) = 1 the jump operator moves occupation from index 1 to index 0, so
its matrix has a single entry: basis mask 2 ({1}) maps to mask 1 ({0}).
Squaring up, B'B = diag(0, 0, 1, 0), and for the occupation observable of
index 1 the cross term B'XB vanishes, leaving L(X) = -diag(0, 0, 1, 0):
the exclusion at work, decay only from the state where index 0 is free.
"""
from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoscalc import qms
from chaoscalc.basis import popcount_vector
from chaoscalc.qms import (
    GeneratorSpec,
    check_generator_structure,
    check_sum_identity,
    generator_apply,
    matrix_from_json,
    matrix_to_json,
    transfer_matrix,
)
from chaoscalc.reports import all_ok
from chaoscalc.verifier import fixture_weights, run_all
from chaoscalc.weights import Weight2D


def count_hamiltonian(n):
    """Dense form of the default Hamiltonian: diagonal subset cardinality."""
    return np.diag([complex(bin(m).count("1")) for m in range(1 << n)])


def dissipator(w, n, x):
    """The rate-weighted jump part alone: the generator with a zero Hamiltonian."""
    return generator_apply(GeneratorSpec(w, n, np.zeros((1 << n, 1 << n))), x)


def literal_generator(h, rate_table, x):
    """Independent expansion of the generator from explicit jump matrices."""
    out = 1j * (h @ x - x @ h)
    for b, rate in rate_table:
        bb = b.conj().T @ b
        out = out + rate * (b.conj().T @ x @ b - 0.5 * (x @ bb + bb @ x))
    return out


def bitview_generator(w, n, h, x):
    """The generator on the (2,)*2n bit view of X, one axis per bit on each
    side: the reference for the summation order. Each jump term is summed
    into zeros in sorted order, occ in the same order, and the diagonal
    product is added last, so a kernel that keeps this order per element
    gives the same bytes."""
    size = 1 << n
    x = np.asarray(x, dtype=complex)
    occ = np.zeros(size)
    ov = occ.reshape((2,) * n)
    acc = np.zeros((size, size), dtype=complex)
    av, xv = acc.reshape((2,) * 2 * n), x.reshape((2,) * 2 * n)

    def pinned(bits):
        index = [slice(None)] * n
        for b, value in bits.items():
            index[n - 1 - b] = value
        return tuple(index)

    for (j, k), rate in sorted(w.entries.items()):
        if j == k:
            dom = img = pinned({k: 1})
        else:
            dom, img = pinned({k: 1, j: 0}), pinned({k: 0, j: 1})
        av[dom + dom] += rate * xv[img + img]
        ov[dom] += rate
    diag = popcount_vector(n) if h is None else 0.0
    half = -0.5 * occ
    rest = -occ - half
    out = np.add.outer(half + 1j * diag, rest - 1j * diag)
    out *= x
    out += acc
    if h is not None:
        h = np.asarray(h, dtype=complex)
        out += 1j * (h @ x - x @ h)
    return out


def jump_rate_table(w, n):
    return [(transfer_matrix(j, k, n).toarray(), v) for (j, k), v in sorted(w.entries.items())]


def hand_jump_matrix_n2():
    # move occupation 1 -> 0 on masks (0, 1, 2, 3): only {1} -> {0}
    b = np.zeros((4, 4), dtype=complex)
    b[1, 2] = 1.0
    return b


@st.composite
def rate_tables(draw):
    """A truncation up to 6 and rates on its index pairs, diagonal included.
    Half the rates are tiny, so whole columns can have a subnormal sum, where
    halving rounds."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return n, {}
    index = st.integers(0, n - 1)
    rates = st.floats(min_value=0.0, max_value=1e300) | st.floats(
        min_value=0.0, max_value=2.0**-1021
    )
    return n, draw(st.dictionaries(st.tuples(index, index), rates, max_size=n * n))


class TestHandOracle:
    def test_transfer_matrix_matches_hand(self):
        assert np.array_equal(transfer_matrix(0, 1, 2).toarray(), hand_jump_matrix_n2())

    def test_each_call_builds_its_own_transfer_matrix(self):
        # a write into one call's matrix never shows in the next
        before = transfer_matrix(0, 1, 3).toarray()
        first = transfer_matrix(0, 1, 3)
        for arr in (first.data, first.indices, first.indptr):
            arr[:] = 0
        assert np.array_equal(transfer_matrix(0, 1, 3).toarray(), before)

    def test_transfer_matrix_rejects_non_integer_indices(self):
        # 1.0 and True are not read as index 1
        assert transfer_matrix(1, 0, 3).nnz == 2
        for j, k in ((1.0, 0), (True, 0), (1, 0.0), (1.5, 0)):
            with pytest.raises(ValueError, match="integer"):
                transfer_matrix(j, k, 3)
        with pytest.raises(ValueError, match="outside truncation 3"):
            transfer_matrix(3, 0, 3)

    def test_occupation_of_source_decays(self):
        w = Weight2D({(0, 1): 1.0})
        spec = GeneratorSpec(weight=w, truncation=2, hamiltonian=np.zeros((4, 4)))
        x = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)  # occupation of index 1
        image = generator_apply(spec, x)
        assert np.allclose(image, np.diag([0.0, 0.0, -1.0, 0.0]), atol=1e-15)

    def test_occupation_of_target_grows(self):
        w = Weight2D({(0, 1): 1.0})
        spec = GeneratorSpec(weight=w, truncation=2, hamiltonian=np.zeros((4, 4)))
        x = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)  # occupation of index 0
        image = generator_apply(spec, x)
        assert np.allclose(image, np.diag([0.0, 0.0, 1.0, 0.0]), atol=1e-15)

    @staticmethod
    def random_case(rng, n):
        """Every diagonal rate plus a random share of the off-diagonal ones,
        and a random complex observable."""
        w = Weight2D(
            {
                (j, k): float(rng.random())
                for j in range(n)
                for k in range(n)
                if j == k or rng.random() < 0.6
            }
        )
        size = 1 << n
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        return w, x

    @staticmethod
    def random_hermitian(rng, size):
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        return (a + a.conj().T) / 2

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_literal_expansion(self, seed):
        rng = np.random.default_rng(seed)
        for n in (3, 6, 0, 1):
            w, x = self.random_case(rng, n)
            rate_table = jump_rate_table(w, n)
            for h in (None, self.random_hermitian(rng, 1 << n)):
                spec = GeneratorSpec(weight=w, truncation=n, hamiltonian=h)
                dense_h = count_hamiltonian(n) if h is None else h
                expect = literal_generator(dense_h, rate_table, x)
                assert np.max(np.abs(generator_apply(spec, x) - expect)) < 1e-12

    @pytest.mark.parametrize("n", range(7))
    def test_dissipator_matches_literal_expansion(self, n):
        rng = np.random.default_rng(100 + n)
        w, x = self.random_case(rng, n)
        no_hamiltonian = np.zeros((1 << n, 1 << n))
        expect = literal_generator(no_hamiltonian, jump_rate_table(w, n), x)
        assert np.max(np.abs(dissipator(w, n, x) - expect)) < 1e-12

    @pytest.mark.parametrize("n", [3, 6])
    def test_literal_expansion_catches_one_rate_off(self, n):
        rng = np.random.default_rng(11)
        w, x = self.random_case(rng, n)
        expect = literal_generator(count_hamiltonian(n), jump_rate_table(w, n), x)
        (j, k), v = sorted(w.entries.items())[-1]
        nudged = Weight2D({**w.entries, (j, k): v + 1e-6})
        got = generator_apply(GeneratorSpec(weight=nudged, truncation=n), x)
        assert np.max(np.abs(got - expect)) > 1e-12

    def test_zero_weight_leaves_commutator(self):
        rng = np.random.default_rng(9)
        spec = GeneratorSpec(weight=Weight2D.zero(), truncation=2)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = count_hamiltonian(2)
        assert np.allclose(generator_apply(spec, x), 1j * (h @ x - x @ h), atol=1e-14)
        assert np.max(np.abs(dissipator(Weight2D.zero(), 2, x))) == 0.0


class TestSumIdentity:
    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 1): 2.0, (1, 1): 3.0},
            {(0, 0): 1.0, (1, 2): 0.5, (2, 1): 0.25, (3, 3): 1.5},
        ],
    )
    def test_three_routes_agree(self, entries):
        reports = check_sum_identity(Weight2D(entries), 4)
        assert all_ok(reports)
        checks = [r for r in reports if r.kind == "check"]
        assert len(checks) == 3
        assert all(r.residual <= 1e-12 for r in checks)

    @pytest.mark.parametrize(
        "tag, pinned", [("rnd0", 3.335653203354088e-16), ("rnd1", 1.9411004563162478e-16)]
    )
    def test_residuals_pinned(self, tag, pinned):
        # each B'B has exact 0/1 entries whichever route multiplies it, so
        # the residuals of verify's n = 6 fixtures stay bit for bit
        w = fixture_weights(6, 42)[tag]
        checks = [r.residual for r in check_sum_identity(w, 6) if r.kind == "check"]
        assert checks == [0.0, pinned, pinned]

    def test_control_fails_as_it_should(self):
        reports = check_sum_identity(Weight2D({(0, 1): 1.0}), 3)
        controls = [r for r in reports if r.kind == "negative-control"]
        assert len(controls) == 1
        assert not controls[0].passed and controls[0].ok

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_sum_identity(Weight2D({(0, 9): 1.0}), 3)
        inexact = Weight2D({(0, 0): 1.0}, column_sums={0: 2.0})
        with pytest.raises(ValueError):
            check_sum_identity(inexact, 3)


class TestStructure:
    def test_all_ok_on_random_weight(self):
        rng = np.random.default_rng(21)
        w = Weight2D(
            {(int(j), int(k)): float(rng.random()) for j, k in rng.integers(0, 4, (6, 2))}
        )
        reports = check_generator_structure(w, 4, trials=10, seed=1)
        assert all_ok(reports)
        names = {r.name for r in reports}
        assert "qms-unital" in names and "qms-diagonal-reduction" in names

    @pytest.mark.parametrize("tag", ["zero", "diag-ones", "running", "rnd0", "rnd1"])
    def test_diagonal_reduction_is_the_classical_chain(self, tag):
        # verify's n = 6 draw: the generator on diag(f) against diag(Q f)
        w = fixture_weights(6, 42)[tag]
        reports = check_generator_structure(w, 6, trials=20, seed=42)
        [reduction] = [r for r in reports if r.name == "qms-diagonal-reduction"]
        assert reduction.residual <= 1e-15

    def test_diagonal_reduction_by_hand(self, monkeypatch):
        # w(0, 1) = 1 at n = 2 moves {1} (mask 2) to {0} (mask 1), so
        # (Q f)({1}) = f({0}) - f({1}) and Q f is 0 elsewhere
        applied, compared = [], []
        apply, compare = qms.generator_apply, qms.residual
        monkeypatch.setattr(qms, "generator_apply", lambda s, x: applied.append(x) or apply(s, x))
        monkeypatch.setattr(qms, "residual", lambda a, b: compared.append((a, b)) or compare(a, b))
        check_generator_structure(Weight2D({(0, 1): 1.0}), 2, trials=1)
        f = np.diag(applied[-1]).real
        image, expected = compared[-1]
        assert np.array_equal(expected, np.diag([0.0, 0.0, f[1] - f[2], 0.0]))
        assert np.array_equal(image, expected)

    def test_a_nan_in_a_later_trial_fails_the_check(self, monkeypatch):
        # trial 1 makes calls 1 and 2; a NaN from trial 2's hermiticity
        # comparison must survive the fold over trials
        real, calls = qms.residual, []

        def third_is_nan(lhs, rhs):
            calls.append(None)
            return np.nan if len(calls) == 3 else real(lhs, rhs)

        monkeypatch.setattr(qms, "residual", third_is_nan)
        reports = check_generator_structure(Weight2D({(0, 1): 1.0}), 2, trials=3)
        assert [r.name for r in reports if not r.ok] == ["qms-hermiticity"]

    def test_unital_is_exact(self):
        w = Weight2D({(0, 1): 0.7, (2, 2): 1.3})
        spec = GeneratorSpec(weight=w, truncation=3)
        image = generator_apply(spec, np.eye(8, dtype=complex))
        assert np.max(np.abs(image)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(table=rate_tables(), seed=st.none() | st.integers(0, 2**32 - 1))
    @example(table=(3, {(0, 1): 5e-324}), seed=None)
    def test_unital_is_exact_for_any_weight(self, table, seed):
        n, entries = table
        w = Weight2D(entries)
        h = None
        if seed is not None:
            h = TestHandOracle.random_hermitian(np.random.default_rng(seed), 1 << n)
        identity = np.eye(1 << n)
        spec = GeneratorSpec(weight=w, truncation=n, hamiltonian=h)
        assert np.max(np.abs(generator_apply(spec, identity))) == 0.0
        assert np.max(np.abs(dissipator(w, n, identity))) == 0.0

    @pytest.mark.parametrize("entry", [(5, 0), (0, 5)])
    def test_weight_past_the_truncation_is_rejected(self, entry):
        w = Weight2D({entry: 1.0})
        message = "weight support bound 6 exceeds truncation 3"
        with pytest.raises(ValueError, match=message):
            dissipator(w, 3, np.eye(8))
        # the plan is read from the weight when the spec is built, so no
        # field can be swapped under it
        spec = GeneratorSpec(weight=Weight2D.zero(), truncation=3)
        for name, value in (("weight", w), ("truncation", 4), ("hamiltonian", np.eye(8))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)

    def test_a_spec_compares_and_hashes_by_identity(self):
        # comparing fields would take the truth value of a Hamiltonian array
        w = Weight2D({(0, 1): 0.7})
        spec, twin = (GeneratorSpec(w, 2, np.eye(4)) for _ in range(2))
        assert spec == spec and spec != twin
        assert {spec: 1}[spec] == 1 and hash(spec) != hash(twin)

    def test_a_spec_applied_twice_gives_the_same_bits(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        w = Weight2D({(0, 1): 0.7, (2, 2): 1.3, (3, 0): 5e-324})
        for h in (None, TestHandOracle.random_hermitian(rng, 16)):
            spec = GeneratorSpec(w, 4, h)
            first = generator_apply(spec, x)
            assert np.array_equal(generator_apply(spec, x), first)

    def test_ufunc_buffer_size_is_restored(self):
        # the apply shrinks numpy's ufunc buffer while it runs, and hands
        # back whatever size the caller had
        spec = GeneratorSpec(Weight2D({(0, 1): 0.7, (2, 2): 1.3}), 4)
        default = np.getbufsize()
        generator_apply(spec, np.eye(16))
        assert np.getbufsize() == default
        old = np.setbufsize(4096)
        try:
            generator_apply(spec, np.eye(16))
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(weight=Weight2D({(0, 5): 1.0}), truncation=2)
        with pytest.raises(ValueError):
            GeneratorSpec(
                weight=Weight2D.zero(), truncation=1, hamiltonian=np.eye(4)
            )
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            GeneratorSpec(weight=Weight2D.zero(), truncation=1, hamiltonian=bad)
        # hermiticity is a residual: the gap is measured against max(1, |h|)
        h = np.array([[1e6, 1e-8], [0.0, 0.0]])
        GeneratorSpec(weight=Weight2D.zero(), truncation=1, hamiltonian=h)
        h[0, 1] = 1e-5
        with pytest.raises(ValueError, match="not hermitian"):
            GeneratorSpec(weight=Weight2D.zero(), truncation=1, hamiltonian=h)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_hamiltonian_is_rejected(self, entry):
        # a NaN hermiticity residual would compare as within tolerance, and
        # an infinite entry would warn in the residual's subtraction
        h = np.array([[entry, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="hamiltonian entries must be finite"):
                GeneratorSpec(weight=Weight2D.zero(), truncation=1, hamiltonian=h)

    def test_observable_shape_checked(self):
        spec = GeneratorSpec(weight=Weight2D.zero(), truncation=2)
        with pytest.raises(ValueError):
            generator_apply(spec, np.eye(3))


def supported_weight(rng, n, support):
    """Random rates on the index pairs below the support bound, the pair
    (support - 1, 0) always among them, so the bound is exactly support."""
    pairs = [(j, k) for j in range(support) for k in range(support)]
    entries = {p: float(rng.random()) for p in pairs if rng.random() < 0.5}
    if support:
        entries[(support - 1, 0)] = float(rng.random())
    return Weight2D(entries)


def observable_with_signed_zeros(rng, size):
    """A random complex observable with a share of its entries -0.0 - 0.0j,
    so a kernel that skips adding the zero accumulator somewhere shows."""
    x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    x[rng.random((size, size)) < 0.1] = complex(-0.0, -0.0)
    return x


class TestBitViewOracle:
    """Every image from the tile-major kernel is byte-equal to the bit-view
    reference, whatever the support bound and chunking."""

    @settings(max_examples=100, deadline=None)
    @given(table=rate_tables(), seed=st.integers(0, 2**32 - 1), hermitian=st.booleans())
    def test_rate_tables(self, table, seed, hermitian):
        n, entries = table
        w = Weight2D(entries)
        rng = np.random.default_rng(seed)
        x = observable_with_signed_zeros(rng, 1 << n)
        h = TestHandOracle.random_hermitian(rng, 1 << n) if hermitian else None
        got = generator_apply(GeneratorSpec(w, n, h), x)
        assert got.tobytes() == bitview_generator(w, n, h, x).tobytes()

    @pytest.mark.parametrize("n", [8, 9])
    def test_seeded_supports(self, n):
        rng = np.random.default_rng(60 + n)
        for support in (0, 1, 4, n - 1, n):
            w = supported_weight(rng, n, support)
            assert GeneratorSpec(w, n).split == support
            x = observable_with_signed_zeros(rng, 1 << n)
            got = generator_apply(GeneratorSpec(w, n), x)
            assert got.tobytes() == bitview_generator(w, n, None, x).tobytes(), support

    @pytest.mark.parametrize("name", ["benchmark-weight", "full-support"])
    def test_apply_reads_the_observable_in_place(self, monkeypatch, traced_peak, name):
        # on one CPU an apply holds the image and one band accumulator, the size
        # of one of X's row bands, and no copy of X: the benchmark weight at
        # n = 9 has support bound 4 and 8 bands, and at full support (A = 1)
        # the one band is all of X. A term's product, at most a quarter of the
        # accumulator, stays within the half-accumulator margin.
        w, n, h, x, bands = TestBands.case(name)
        TestBands.allow_cpus(monkeypatch, 1)
        peak, got = traced_peak(generator_apply, GeneratorSpec(w, n, h), x)
        beyond_image, accumulator = peak - got.nbytes, x.nbytes // bands
        assert beyond_image < 1.5 * accumulator
        assert got.tobytes() == bitview_generator(w, n, h, x).tobytes()

    @pytest.mark.parametrize("n, support, rows", [(6, 2, 3), (7, 3, 5), (5, 2, 1)])
    def test_partial_last_chunk(self, monkeypatch, n, support, rows):
        # a budget of `rows` high-bit row groups, which does not divide
        # 2^(n - support), so the last chunk is partial
        monkeypatch.setattr(qms, "_TILE_CELLS", rows << (n + support))
        rng = np.random.default_rng(n + support)
        w = supported_weight(rng, n, support)
        x = observable_with_signed_zeros(rng, 1 << n)
        for h in (None, TestHandOracle.random_hermitian(rng, 1 << n)):
            got = generator_apply(GeneratorSpec(w, n, h), x)
            assert got.tobytes() == bitview_generator(w, n, h, x).tobytes(), h is None


class TestLayouts:
    """An observable's memory layout and dtype never change its image."""

    @staticmethod
    def layouts(rng, n):
        size = 1 << n
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        big = rng.standard_normal((2 * size, 2 * size)) + 1j * rng.standard_normal(
            (2 * size, 2 * size)
        )
        return {
            "transposed": x.T,
            "adjoint": x.conj().T,
            "fortran": np.asfortranarray(x),
            "strided": big[::2, ::2],
            "real": rng.standard_normal((size, size)),
        }

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_layouts_give_bitwise_equal_images(self, n):
        rng = np.random.default_rng(40 + n)
        w, _ = TestHandOracle.random_case(rng, n)
        h = TestHandOracle.random_hermitian(rng, 1 << n)
        applies = {
            "default hamiltonian": lambda x: generator_apply(GeneratorSpec(w, n), x),
            "dense hamiltonian": lambda x: generator_apply(GeneratorSpec(w, n, h), x),
            "dissipator": lambda x: dissipator(w, n, x),
        }
        for layout, x in self.layouts(rng, n).items():
            copy = np.ascontiguousarray(x, dtype=complex)
            before, copy_before = x.copy(), copy.copy()
            for name, apply in applies.items():
                assert apply(x).tobytes() == apply(copy).tobytes(), (layout, name)
                assert x.tobytes() == before.tobytes(), (layout, name)
                assert copy.tobytes() == copy_before.tobytes(), (layout, name)


class TestBands:
    """The row bands of an apply are shared by the calling thread and pooled
    workers, one fewer than the CPUs the process may run on or the bands."""

    @staticmethod
    def allow_cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        # a fresh pool, dropped when the test ends
        monkeypatch.setattr(qms, "_pool", {})

    @staticmethod
    def case(name):
        """(weight, n, hamiltonian, observable, bands) of a named case."""
        rng = np.random.default_rng(90)
        if name == "benchmark-weight":
            # rates on 8 of the 16 pairs of a 4 x 4 block, as the generator
            # benchmark draws them
            pairs = [(j, k) for j in range(4) for k in range(4)]
            chosen = rng.choice(len(pairs), size=8, replace=False)
            w = Weight2D({pairs[c]: float(1.0 - rng.random()) for c in sorted(chosen)})
            return w, 9, None, observable_with_signed_zeros(rng, 512), 8
        x = observable_with_signed_zeros(rng, 256)
        if name == "full-support":
            return Weight2D({(7, 0): 0.5, (2, 2): 1.5}), 8, None, x, 1
        h = TestHandOracle.random_hermitian(rng, 256)
        return supported_weight(rng, 8, 3), 8, h, x, 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", ["benchmark-weight", "full-support", "hamiltonian"])
    def test_images_do_not_depend_on_the_worker_count(self, monkeypatch, cpus, name):
        w, n, h, x, bands = self.case(name)
        self.allow_cpus(monkeypatch, cpus)
        runners, apply_bands = [], qms._apply_bands

        def counted(*args):
            runners.append(threading.get_ident())
            apply_bands(*args)

        monkeypatch.setattr(qms, "_apply_bands", counted)
        spec = GeneratorSpec(w, n, h)
        want = bitview_generator(w, n, h, x).tobytes()
        for _ in range(3):
            assert generator_apply(spec, x).tobytes() == want
        # the caller and min(bands, cpus) - 1 workers each apply, and the
        # pool reuses its workers
        assert len(runners) == 3 * min(bands, cpus)
        assert runners.count(threading.get_ident()) == 3
        assert len(set(runners)) <= min(bands, cpus)

    def test_many_workers_and_frequent_switches_lose_no_band(self, monkeypatch):
        # more workers than most machines have CPUs, 64 bands of one high-bit
        # row group each, and thread switches as often as the interpreter
        # allows: a band lost, or a buffer two threads share, shows in bytes
        n, support = 8, 2
        self.allow_cpus(monkeypatch, 8)
        monkeypatch.setattr(qms, "_TILE_CELLS", 1 << (n + support))
        rng = np.random.default_rng(91)
        w = supported_weight(rng, n, support)
        x = observable_with_signed_zeros(rng, 1 << n)
        want = bitview_generator(w, n, None, x).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert generator_apply(GeneratorSpec(w, n), x).tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    def test_verify_starts_no_thread(self, monkeypatch):
        # verify runs the generator at n = 6, where an apply is one band
        self.allow_cpus(monkeypatch, 4)

        def start(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", start)
        assert all_ok(run_all(n=8)[0])

    def test_workers_run_under_the_callers_error_state(self, monkeypatch):
        # at n = 8 the running weight, support bound 2, gives two bands
        self.allow_cpus(monkeypatch, 2)
        w = Weight2D({(0, 1): 2.0, (1, 1): 3.0})
        x = np.full((256, 256), 1e308, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                got = generator_apply(GeneratorSpec(w, 8), x)
                want = bitview_generator(w, 8, None, x)
        assert not np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_applies_with_its_own_workers(self):
        # The parent's pool is copied into a child without its threads. The
        # second child reads the parent's pid from os.getpid, as a descendant
        # given its ancestor's recycled pid would. In a fresh interpreter, so
        # that the pytest process never forks with live threads; the alarm
        # ends a child whose apply waits forever.
        script = textwrap.dedent("""
            import os, signal, sys, threading, warnings
            import numpy as np
            from chaoscalc.qms import GeneratorSpec, generator_apply
            from chaoscalc.weights import Weight2D

            os.sched_getaffinity = lambda pid: {0, 1}
            spec = GeneratorSpec(Weight2D({(0, 1): 2.0, (1, 1): 3.0}), 9)
            x = np.arange(262144.0).reshape(512, 512)
            first = generator_apply(spec, x)
            assert threading.active_count() == 2
            parent = os.getpid()
            for same_pid in (False, True):
                with warnings.catch_warnings():
                    # Python 3.12 on warns of a fork with live threads
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    if same_pid:
                        os.getpid = lambda: parent
                    signal.alarm(10)
                    os._exit(0 if generator_apply(spec, x).tobytes() == first.tobytes() else 1)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code:
                    sys.exit(f"child exit code {code}, same pid {same_pid}")
        """)
        src = str(pathlib.Path(qms.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert result.returncode == 0, result.stderr


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back, n = matrix_from_json(matrix_to_json(x, 2))
        assert n == 2
        assert np.allclose(back, x, atol=0)

    def test_json_bytes_match_the_entrywise_form(self):
        # -0.0, a subnormal and a non-contiguous input keep their exact
        # bytes against the per-entry float form
        rng = np.random.default_rng(3)
        big = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x = big[::2, 1::2]
        x[0, 0] = complex(-0.0, 5e-324)
        x[1, 2] = complex(-5e-324, -0.0)
        assert not x.flags.c_contiguous
        entrywise = [[[float(v.real), float(v.imag)] for v in row] for row in x]
        payload = matrix_to_json(x, 2)
        assert json.dumps(payload) == json.dumps({"n": 2, "rows": entrywise})
        assert json.dumps(payload["rows"][0][0]) == "[-0.0, 5e-324]"
        assert json.dumps(payload["rows"][1][2]) == "[-5e-324, -0.0]"
        assert json.dumps(matrix_to_json(x.real, 2)["rows"][0][0]) == "[-0.0, 0.0]"

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": []})
        with pytest.raises(ValueError):
            matrix_from_json({"n": 1, "rows": [[[0, 0]]]})
        with pytest.raises(ValueError):
            matrix_to_json(np.eye(3), 2)

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"n": 1, "rows": 5},
            {"n": 1, "rows": [[[0, 0], [0, 0]], [[0, 0], 7]]},
            {"n": 1, "rows": [[[0, 0], [0, 0]], [[0, 0], [0, 0, 0]]]},
            {"n": 1, "rows": [[[0, 0], [0, 0]], [[0, 0], ["re", 0]]]},
            {"n": 1, "rows": [[[0, 0], [0, 0]], [[0, 0], [{}, 0]]]},
        ],
    )
    def test_malformed_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            matrix_from_json(payload)
