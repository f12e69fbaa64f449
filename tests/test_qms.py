"""Generator assembly and its structural checks.

The tiny n = 2 oracle below is worked out by hand. With the single rate
w(0, 1) = 1 the jump operator moves occupation from index 1 to index 0, so
its matrix has a single entry: basis mask 2 ({1}) maps to mask 1 ({0}).
Squaring up, B'B = diag(0, 0, 1, 0), and for the occupation observable of
index 1 the cross term B'XB vanishes, leaving L(X) = -diag(0, 0, 1, 0):
the exclusion at work, decay only from the state where index 0 is free.
"""
from __future__ import annotations

import numpy as np
import pytest

from chaoscalc.qms import (
    GeneratorSpec,
    check_generator_structure,
    check_sum_identity,
    dissipator_apply,
    generator_apply,
    matrix_from_json,
    matrix_to_json,
    transfer_matrix,
)
from chaoscalc.reports import all_ok
from chaoscalc.weights import Weight2D


def count_hamiltonian(n):
    """Dense form of the default Hamiltonian: diagonal subset cardinality."""
    return np.diag([complex(bin(m).count("1")) for m in range(1 << n)])


def literal_generator(h, rate_table, x):
    """Independent expansion of the generator from explicit jump matrices."""
    out = 1j * (h @ x - x @ h)
    for b, rate in rate_table:
        bb = b.conj().T @ b
        out = out + rate * (b.conj().T @ x @ b - 0.5 * (x @ bb + bb @ x))
    return out


def jump_rate_table(w, n):
    return [(transfer_matrix(j, k, n).toarray(), v) for (j, k), v in sorted(w.entries.items())]


def hand_jump_matrix_n2():
    # move occupation 1 -> 0 on masks (0, 1, 2, 3): only {1} -> {0}
    b = np.zeros((4, 4), dtype=complex)
    b[1, 2] = 1.0
    return b


class TestHandOracle:
    def test_transfer_matrix_matches_hand(self):
        assert np.array_equal(transfer_matrix(0, 1, 2).toarray(), hand_jump_matrix_n2())

    def test_transfer_matrix_is_read_only(self):
        before = transfer_matrix(0, 1, 3).toarray()
        cached = transfer_matrix(0, 1, 3)
        for arr in (cached.data, cached.indices, cached.indptr):
            with pytest.raises(ValueError):
                arr[:] = 7
        assert np.array_equal(transfer_matrix(0, 1, 3).toarray(), before)

    def test_transfer_matrix_checks_indices_before_the_cache(self):
        # (1, 0, 3) is cached first; 1.0 and True hash like 1 but must not
        # be served from its entry
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
        for n in (3, 6):
            w, x = self.random_case(rng, n)
            rate_table = jump_rate_table(w, n)
            for h in (None, self.random_hermitian(rng, 1 << n)):
                spec = GeneratorSpec(weight=w, truncation=n, hamiltonian=h)
                dense_h = count_hamiltonian(n) if h is None else h
                expect = literal_generator(dense_h, rate_table, x)
                assert np.max(np.abs(generator_apply(spec, x) - expect)) < 1e-12

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
        assert np.max(np.abs(dissipator_apply(Weight2D.zero(), 2, x))) == 0.0


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

    def test_unital_is_exact(self):
        w = Weight2D({(0, 1): 0.7, (2, 2): 1.3})
        spec = GeneratorSpec(weight=w, truncation=3)
        image = generator_apply(spec, np.eye(8, dtype=complex))
        assert np.max(np.abs(image)) == 0.0

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

    def test_observable_shape_checked(self):
        spec = GeneratorSpec(weight=Weight2D.zero(), truncation=2)
        with pytest.raises(ValueError):
            generator_apply(spec, np.eye(3))


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back, n = matrix_from_json(matrix_to_json(x, 2))
        assert n == 2
        assert np.allclose(back, x, atol=0)

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
