"""Check families, negative controls, report payloads, run assembly."""
from __future__ import annotations

import ast
import json
import pathlib

import numpy as np
import pytest

import chaoscalc
from chaoscalc import qms, verifier
from chaoscalc.basis import Subset
from chaoscalc.functionals import Functional, GrowthCheckResult
from chaoscalc.operators import hop_apply, hop_expr, materialize, materialize_apply
from chaoscalc.qms import check_generator_structure, check_sum_identity
from chaoscalc.reports import (
    CHECK,
    NEGATIVE_CONTROL,
    VerificationReport,
    _block_max_abs,
    all_ok,
    excess,
    family_reports,
    format_line,
    perturbed,
    residual,
    run_to_json,
)
from chaoscalc.verifier import (
    FAMILY_NAMES,
    check_car,
    check_commutation_1d,
    check_commutation_2d,
    check_commutation_number,
    check_functional_invariants,
    check_hop,
    check_l2_lemmas,
    check_norm_bounds,
    check_representations,
    check_riesz_intertwining,
    check_spectral_shifts,
    check_weight_invariants,
    fixture_weights,
    fixture_weights1d,
    random_weight1d,
    random_weight2d,
    run_all,
)
from chaoscalc.weights import Weight1D, Weight2D


def stacked(dense, blocks: int = 1) -> Functional:
    """A dense stack of equal square row blocks as a tagged matrix table:
    entry (r, c) of block b under mask ``(b << 2n) | (c << n) | r``."""
    arr = np.asarray(dense, dtype=complex)
    size = arr.shape[1]
    flat = arr.reshape(blocks, size, size).transpose(0, 2, 1).ravel()
    masks = np.flatnonzero(flat)
    return Functional._from_arrays(masks, flat[masks], 2 * (size.bit_length() - 1))


@pytest.fixture(scope="module")
def rnd_weight():
    return random_weight2d(np.random.default_rng(123), 4)


@pytest.fixture(scope="module")
def rnd_u():
    return random_weight1d(np.random.default_rng(7), 4)


class TestResidualHelpers:
    def test_scalar(self):
        assert residual(1.0, 1.0) == 0.0
        assert residual(2.0, 1.0) == pytest.approx(0.5)

    def test_matrix_and_functional(self):
        a = np.eye(3, dtype=complex)
        assert residual(a, a) == 0.0
        assert _block_max_abs(np.zeros((3, 3), dtype=complex)) == 0.0
        # 4 at (0, 1) and -3 at (1, 0), as an array or a matrix table
        summed = np.array([[0.0, 4.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4])
        assert _block_max_abs(summed[:3, :3]) == _block_max_abs(stacked(summed)) == 4.0
        phi = Functional({0: 2.0}, 2)
        assert residual(phi, Functional({0: 1.0}, 2)) == pytest.approx(0.5)

    def test_residual_per_row_block(self):
        lhs = np.array([[100.0, 0.0], [0.0, 1.0], [10.0, 0.0], [0.0, 1.0]])
        rhs = lhs.copy()
        rhs[3, 0] += 1.0
        # block 1 is rows 2 and 3, normalized by its own largest entry, 10
        assert residual(lhs, rhs, blocks=2) == residual(lhs[2:], rhs[2:]) == 1.0 / 10.0
        assert residual(stacked(lhs, 2), stacked(rhs, 2), blocks=2) == 0.1
        # one block is the unblocked residual, normalized by the whole stack
        assert residual(lhs, rhs, blocks=1) == residual(lhs, rhs) == 1.0 / 100.0
        # a 1D array splits into equal runs
        assert residual(np.array([0.0, 0.0, 4.0, 5.0]), np.array([0.5, 0.0, 4.0, 5.0]), 2) == 0.5

    def test_residual_per_tag(self):
        # tag 0 holds a probe of magnitude 1e6, tag 1 a small one that is off
        # by 0.5 of 2.5: normalized by its own tag, the small gap is not hidden
        big, small = Functional({0: 1e6, 1: 1.0}, 1), Functional({1: 2.0}, 1)
        off = small + Functional({1: 0.5}, 1)
        lhs, rhs = verifier._stack([big, small]), verifier._stack([big, off])
        assert lhs.masks.tolist() == [0b00, 0b01, 0b11]
        assert residual(lhs, rhs, blocks=2) == residual(small, off) == 0.5 / 2.5
        # one block is the unblocked residual, normalized by the whole table
        assert residual(lhs, rhs, blocks=1) == residual(lhs, rhs) == 0.5 / 1e6
        untagged = Functional({0: 3.0, 0b11: 4j}, 2)
        assert residual(untagged, 2 * untagged, blocks=1) == 5.0 / 10.0

    def test_residual_empty_and_broken_tags(self):
        empty, probe = Functional.zero(2), Functional({0b10: 4.0}, 2)
        # tag 0 stores nothing on either side and reads 0; tag 1 is off by 1 of 4
        lhs = verifier._stack([empty, probe])
        rhs = verifier._stack([empty, probe + Functional({0b01: 1.0}, 2)])
        assert residual(lhs, rhs, blocks=2) == 0.25
        assert residual(lhs, lhs, blocks=3) == residual(empty, empty, blocks=2) == 0.0
        # NaN in the last tag: a fold that keeps the first value would hide it
        broken = Functional._from_arrays(np.array([0b110]), np.array([np.nan + 0j]), 2)
        stack = verifier._stack([probe, probe])
        assert np.isnan(residual(stack, stack + broken, blocks=2))
        # a tag at or above blocks is a table the caller did not count
        with pytest.raises(ValueError, match="tag 2 lies outside 2 blocks"):
            residual(verifier._stack([empty, probe, probe]), lhs, blocks=2)

    def test_residual_empty_and_broken_blocks(self):
        # block 0 of the stack stores no entry; block 1 differs by 2 of 4
        lhs = stacked(np.array([[0, 0], [0, 0], [4, 0], [0, 1]]), 2)
        rhs = stacked(np.array([[0, 0], [0, 0], [4, 2], [0, 1]]), 2)
        assert residual(lhs, rhs, blocks=2) == 0.5
        first = verifier._first(lhs), verifier._first(rhs)
        assert residual(*first) == residual(lhs, lhs, blocks=2) == 0.0
        assert residual(np.zeros((4, 0)), np.zeros((4, 0)), blocks=2) == 0.0
        # NaN in the last block: a fold that keeps the first value would hide it
        broken = np.eye(4, dtype=complex)
        broken[3, 3] = np.nan
        assert np.isnan(residual(np.eye(4, dtype=complex), broken, blocks=4))
        two = np.vstack([np.eye(2, dtype=complex)] * 2)
        cracked = two.copy()
        cracked[3, 1] = np.nan
        assert np.isnan(residual(stacked(two, 2), stacked(cracked, 2), blocks=2))
        with pytest.raises(ValueError, match="equal row blocks"):
            residual(np.zeros((3, 2)), np.zeros((3, 2)), blocks=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_the_same_non_finite_entry_on_both_sides_is_not_a_zero_gap(self, bad):
        # a zero gap reads 0 without measuring the sides; the same NaN or
        # infinity on both sides must still leave a NaN gap, in every form
        arr = np.eye(4, dtype=complex)
        arr[3, 3] = bad
        table = Functional._from_arrays(np.array([0b01, 0b110]), np.array([1.0, bad + 0j]), 2)
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.isnan(residual(complex(bad), complex(bad)))
            for wrap in (np.asarray, stacked):
                assert np.isnan(residual(wrap(arr), wrap(arr.copy())))
                assert np.isnan(residual(wrap(arr), wrap(arr.copy()), blocks=4))
            assert np.isnan(residual(table, table))
            assert np.isnan(residual(table, table, blocks=2))

    def test_perturbed_each_kind(self):
        assert perturbed(0.0) == 1e-6
        arr = perturbed(np.zeros((2, 2)))
        assert arr[0, 0] == 1e-6 and arr.sum() == 1e-6
        mat = perturbed(stacked(np.zeros((2, 2))))
        assert mat.fock(0) == 1e-6  # entry (0, 0)
        phi = perturbed(Functional({0b10: 1.0}, 2))
        assert phi.fock(0b10) == 1.0 + 1e-6
        empty = perturbed(Functional.zero(1))
        assert empty.fock(0) == 1e-6

    def test_perturbed_is_relative(self):
        # the nudge is 1e-6 times max(1, largest magnitude), so the
        # perturbation survives the residual's normalization at any scale
        for scale in (1e-3, 1.0, 3e7, 1e200):
            arr = np.array([0.0, scale])
            assert perturbed(arr)[0] == 1e-6 * max(1.0, scale)
            assert residual(perturbed(arr), arr) == pytest.approx(1e-6, rel=1e-9)
        phi = Functional({0b01: 2.0, 0b10: -4e9}, 2)
        assert perturbed(phi).fock(0b01) == 2.0 + 1e-6 * 4e9

    def test_excess(self):
        # entrywise: (3 - 2) / 2 and (25 - 20) / 20, normalized by max(1, |bound|)
        assert excess([3.0, 25.0], [2.0, 20.0]) == 0.5
        assert excess(0.5, 0.2) == pytest.approx(0.3)
        assert excess([-3.0, -5.0], -4.0) == 0.25
        # every bound holds: 0, however far below
        assert excess([1.0, 19.0], [2.0, 20.0]) == 0.0
        assert excess([], 1.0) == 0.0
        broken = excess([1.0, float("nan")], 2.0)
        assert np.isnan(broken)
        assert not VerificationReport("x", "s", broken, 1e-12).ok

    def test_family_reports_builds_the_control(self):
        lhs = stacked(np.array([[3e8, 0.0], [0.0, 1.0]]))
        rhs = stacked(np.array([[3e8, 0.0], [0.0, 1.0]]))
        reports = family_reports(
            {"n": 1}, 1e-12, [("c", "s", residual(lhs, rhs))], ("c-control", "c", lhs, rhs)
        )
        check, control = reports
        assert check.kind == CHECK and check.ok
        assert control.kind == NEGATIVE_CONTROL and control.name == "c-control"
        assert control.residual == residual(perturbed(lhs), rhs)
        assert control.residual == pytest.approx(1e-6, rel=1e-6)
        assert control.ok and not control.passed
        assert control.statement.startswith("c, with one entry")
        assert "1e-06 times max(1, its largest magnitude)" in control.statement

    def test_report_build(self):
        rep = VerificationReport("x", "s", 0.0, 1e-12)
        assert rep.passed and rep.ok
        control = VerificationReport("x-control", "s", 1.0, 1e-12, kind=NEGATIVE_CONTROL)
        assert not control.passed and control.ok
        with pytest.raises(ValueError):
            VerificationReport("x", "s", 0.0, 1e-12, kind="bogus")
        line = format_line(control)
        assert line.startswith("PASS[control]")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("kind", [CHECK, NEGATIVE_CONTROL])
    def test_non_finite_residual_is_never_ok(self, value, kind):
        rep = VerificationReport("x", "s", value, 1e-12, kind=kind)
        assert not rep.ok
        assert not all_ok([VerificationReport("y", "s", 0.0, 1e-12), rep])
        assert format_line(rep).startswith("FAIL")


FAMILY_CALLS = [
    ("car", lambda w, u: check_car(4)),
    ("hop", lambda w, u: check_hop(4)),
    ("commutation-2d", lambda w, u: check_commutation_2d(w, 5)),
    ("commutation-1d", lambda w, u: check_commutation_1d(u, 5)),
    ("commutation-number", lambda w, u: check_commutation_number(5)),
    ("spectral-shift", lambda w, u: check_spectral_shifts(w, 6)),
    ("representation", lambda w, u: check_representations(w, u, 5)),
    ("riesz", lambda w, u: check_riesz_intertwining(w, 4, trials=20, seed=3)),
    ("norm-bound", lambda w, u: check_norm_bounds(w, u, 5, trials=200, seed=3)),
    ("l2", lambda w, u: check_l2_lemmas(w, u, 4)),
    ("weight-invariant", lambda w, u: check_weight_invariants(w, u, 6)),
    ("functional-invariant", lambda w, u: check_functional_invariants(4, trials=20, seed=3)),
]


class TestFamilies:
    @pytest.mark.parametrize("family,call", FAMILY_CALLS, ids=[f for f, _ in FAMILY_CALLS])
    def test_family_all_ok_with_working_control(self, family, call, rnd_weight, rnd_u):
        reports = call(rnd_weight, rnd_u)
        assert reports, "family produced no reports"
        assert all_ok(reports)
        controls = [r for r in reports if r.kind == NEGATIVE_CONTROL]
        assert controls, "family has no negative control"
        for control in controls:
            assert not control.passed, "control should fail its comparison"

    def test_exact_families_at_zero_tolerance(self):
        for rep in check_car(5) + check_hop(5):
            if rep.kind != NEGATIVE_CONTROL:
                assert rep.tolerance == 0.0
                assert rep.residual == 0.0

    def test_car_runs_where_2n_passes_the_truncation_cap(self):
        # a matrix table has truncation 2n, above the default cap of 20 from
        # n = 11, so car's empty table cannot come from Functional.zero(2 * n)
        assert all_ok(check_car(11))

    def test_zero_weight_edge(self):
        w, u = Weight2D.zero(), Weight1D({})
        assert all_ok(check_commutation_2d(w, 3))
        assert all_ok(check_spectral_shifts(w, 3))
        assert all_ok(check_weight_invariants(w, u, 3))
        assert all_ok(check_representations(w, u, 3))

    def test_diagonal_weight_families(self):
        w = Weight2D.from_weight1d(Weight1D.constant(2.0, 4))
        assert all_ok(check_commutation_2d(w, 4))
        assert all_ok(check_spectral_shifts(w, 4))

    def test_report_payload_shape(self, rnd_weight):
        rep = check_spectral_shifts(rnd_weight, 4)[0]
        data = rep.to_json()
        assert set(data) == {
            "name",
            "statement",
            "residual",
            "tolerance",
            "passed",
            "kind",
            "ok",
            "inputs",
            "notes",
        }
        assert data["inputs"]["n"] == 4

    def test_series_preconditions(self, rnd_u):
        w_big = Weight2D({(0, 7): 1.0})
        with pytest.raises(ValueError):
            check_representations(w_big, rnd_u, 4)
        inexact = Weight2D({(0, 0): 1.0}, tail_bound=0.5)
        with pytest.raises(ValueError):
            check_representations(inexact, rnd_u, 4)

    def test_oracle_skipped_for_inexact_weights(self, rnd_weight):
        inexact = Weight2D(dict(rnd_weight.entries), column_sums={0: 50.0})
        names = {r.name for r in check_spectral_shifts(inexact, 4)}
        assert "theta-vs-double-sum" not in names
        names = {r.name for r in check_spectral_shifts(rnd_weight, 4)}
        assert "theta-vs-double-sum" in names


# every check family, called at truncation level n
LEVEL_CALLS = [
    lambda n: check_car(n),
    lambda n: check_hop(n),
    lambda n: check_commutation_2d(Weight2D.zero(), n),
    lambda n: check_commutation_1d(Weight1D({}), n),
    lambda n: check_commutation_number(n),
    lambda n: check_spectral_shifts(Weight2D.zero(), n),
    lambda n: check_representations(Weight2D.zero(), Weight1D({}), n),
    lambda n: check_riesz_intertwining(Weight2D.zero(), n, trials=2),
    lambda n: check_norm_bounds(Weight2D.zero(), Weight1D({}), n, trials=2),
    lambda n: check_l2_lemmas(Weight2D.zero(), Weight1D({}), n),
    lambda n: check_weight_invariants(Weight2D.zero(), Weight1D({}), n),
    lambda n: check_functional_invariants(n, trials=2),
    lambda n: check_sum_identity(Weight2D.zero(), n),
    lambda n: check_generator_structure(Weight2D.zero(), n, trials=2),
]


@pytest.mark.parametrize("call", LEVEL_CALLS)
def test_each_family_needs_n_at_least_one(call):
    # each control repeats a comparison made at index 0, so n = 0 has none
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        call(0)
    assert all_ok(call(1))


@pytest.mark.parametrize(
    "call",
    [
        lambda trials: check_riesz_intertwining(Weight2D.zero(), 3, trials=trials),
        lambda trials: check_norm_bounds(Weight2D.zero(), Weight1D({}), 3, trials=trials),
        lambda trials: check_functional_invariants(3, trials=trials),
        lambda trials: check_generator_structure(Weight2D.zero(), 3, trials=trials),
    ],
    ids=["riesz", "norm-bound", "functional-invariant", "qms"],
)
def test_probe_families_need_a_trial(call):
    # without a probe the probed checks compare nothing, and the riesz,
    # norm-bound and functional-invariant controls repeat a comparison made
    # on the first probe
    for trials in (0, -5):
        with pytest.raises(ValueError, match=f"trials >= 1, got {trials}"):
            call(trials)
    assert all_ok(call(1))


@pytest.mark.parametrize(
    "measured, residual_read",
    [
        (GrowthCheckResult(3e-6, Subset.of(0), 1.0, 2.0), 3e-6),
        (GrowthCheckResult(0.0, None, 2.5, 2.0), 0.25),
    ],
    ids=["pointwise-excess", "dual-norm-over-cap"],
)
def test_growth_residual_reads_what_check_growth_measured(
    monkeypatch, measured, residual_read
):
    # the family judges check_growth's two measurements of each tag with excess
    monkeypatch.setattr(verifier, "check_growth", lambda phi, bound, blocks: [measured] * blocks)
    reports = check_functional_invariants(3, trials=2)
    growth = next(r for r in reports if r.name == "growth-dual-bound")
    assert growth.residual == residual_read and not growth.ok


def test_nan_after_the_first_comparison_fails_spectral_shift(monkeypatch):
    # max(0.0, nan) is 0.0: a NaN past the first comparison of a fold read as
    # a pass; the second call is the index-removal shift
    real, calls = verifier.residual, []

    def second_is_nan(lhs, rhs, *blocks):
        calls.append(None)
        return float("nan") if len(calls) == 2 else real(lhs, rhs, *blocks)

    monkeypatch.setattr(verifier, "residual", second_is_nan)
    reports = check_spectral_shifts(Weight2D.from_entries([(0, 1, 2.0)]), 3)
    assert not all_ok(reports)
    assert [r.name for r in reports if not r.ok] == ["spectral-shift-remove"]


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_shifts_catch_one_row_slice_skewed_at_k(monkeypatch, k):
    # each k is one row block of the stacked add and remove comparisons; a
    # row slice off by 1e-9 at one k >= 1 fails both, and not the control,
    # which compares the k = 0 block
    real = Weight2D.row_slice

    def skewed(self, j):
        row = real(self, j)
        return Weight1D({**row.values, 0: row(0) + 1e-9}) if j == k else row

    monkeypatch.setattr(Weight2D, "row_slice", skewed)
    w = Weight2D.from_entries([(0, 1, 2.0), (1, 1, 3.0), (3, 2, 0.5)])
    reports = check_spectral_shifts(w, 4)
    assert [r.name for r in reports if not r.ok] == ["spectral-shift-add", "spectral-shift-remove"]


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_count_additive_catches_one_skewed_weight(k):
    class Skewed(Weight1D):
        def __call__(self, j):
            return super().__call__(j) + (1e-9 if j == k else 0.0)

    reports = check_weight_invariants(Weight2D.zero(), Skewed({0: 1.0, 2: 0.25}), 4)
    assert [r.name for r in reports if not r.ok] == ["count-additive"]


@pytest.mark.parametrize("family,call", FAMILY_CALLS, ids=[f for f, _ in FAMILY_CALLS])
def test_every_residual_reaches_a_report(monkeypatch, family, call, rnd_weight, rnd_u):
    # a NaN from any one comparison leaves its family not ok, wherever it
    # falls in a fold
    real, calls = verifier.residual, []

    def counting(lhs, rhs, *blocks):
        calls.append(None)
        return real(lhs, rhs, *blocks)

    monkeypatch.setattr(verifier, "residual", counting)
    call(rnd_weight, rnd_u)
    total = len(calls)
    for broken in sorted({2, total // 2, total} & set(range(1, total + 1))):
        calls.clear()

        def nan_at(lhs, rhs, *blocks, broken=broken):
            calls.append(None)
            return float("nan") if len(calls) == broken else real(lhs, rhs, *blocks)

        monkeypatch.setattr(verifier, "residual", nan_at)
        assert not all_ok(call(rnd_weight, rnd_u)), (family, broken, total)


def test_hop_holds_one_pair_of_matrices(traced_peak):
    # each residual is folded as it is computed, and only the j = k = 0
    # pair is kept for the control; all n^2 pairs are about 100 times one
    # pair's bytes at n = 12
    n = 12
    pair = (materialize_apply(lambda f: hop_apply(0, 0, f), n), materialize(hop_expr(0, 0), n))
    pair_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in pair)
    assert traced_peak(check_hop, n)[0] < 16 * pair_bytes


@pytest.mark.parametrize(
    "cls, method, factor, bound, expected",
    [
        # 2 alpha of the running weight falls to 2.0, under |theta| / lambda
        # = 5 / 2 at the mask {1} alone; a thousand random probes at seed 42
        # reach a ratio of only 1.79, so a bound read off them passed this
        (Weight2D, "alpha", 0.2, "gwn-dual-norm-bound", (2.5 - 2.0) / 2.0),
        # beta of the ramp falls to 0.7, under |count| / lambda = 7 / 8 at
        # {7}; the thousand probes at seed 42 passed this too
        (Weight1D, "beta", 0.1, "wn1d-dual-norm-bound", 0.875 - 0.7),
    ],
    ids=["gwn", "wn1d"],
)
def test_norm_bounds_read_the_exact_operator_norm(monkeypatch, cls, method, factor, bound, expected):
    w, u = fixture_weights(8, 42)["running"], fixture_weights1d(8, 42)["ramp"]
    real = getattr(cls, method)
    monkeypatch.setattr(cls, method, lambda self: factor * real(self))
    reports = {r.name: r for r in check_norm_bounds(w, u, 8, seed=42)}
    assert not reports[bound].passed
    assert reports[bound].residual == pytest.approx(expected)


def test_norm_bound_holds_one_probe(traced_peak):
    # the bounds need |theta| / lambda and |count| / lambda alone, and the
    # route probes are drawn one at a time, so 100 probes peak where one does
    n = 12
    w = random_weight2d(np.random.default_rng(1), 4)
    u = random_weight1d(np.random.default_rng(2), 4)
    vector_bytes = 16 << n  # one complex value per basis element
    check_norm_bounds(w, u, n)
    peaks = [traced_peak(check_norm_bounds, w, u, n, trials=trials)[0] for trials in (1, 100)]
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 16 * vector_bytes


def test_riesz_holds_one_stack_of_probes(traced_peak):
    # probes are drawn and compared one tagged table at a time: at n = 12 a
    # table holds two probes, so 100 probes peak where one table does, while
    # all 100 at once would be 50 tables' entries
    n = 12
    w = random_weight2d(np.random.default_rng(1), 4)
    assert verifier._chunks(range(100), n)[0] == [0, 1]
    stack_bytes = verifier._STACK_ROWS * (8 + 16)  # int64 mask, complex value
    check_riesz_intertwining(w, n, trials=2)
    peaks = [traced_peak(check_riesz_intertwining, w, n, trials=trials)[0] for trials in (2, 100)]
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 16 * stack_bytes


@pytest.mark.parametrize(
    "call",
    [
        lambda w, u, n: check_commutation_2d(w, n),
        lambda w, u, n: check_commutation_1d(u, n),
        lambda w, u, n: check_commutation_number(n),
        lambda w, u, n: check_l2_lemmas(w, u, n),
    ],
    ids=["commutation-2d", "commutation-1d", "commutation-number", "l2"],
)
def test_commutator_kernel_holds_one_stack_of_ladders(monkeypatch, traced_peak, call):
    # at n = 12 a stack holds two of the twelve ks, so the commutator kernel
    # peaks well under what stacking every k at once takes; the warm call
    # keeps the first import of scipy.sparse out of the peaks
    n = 12
    w = random_weight2d(np.random.default_rng(1), 4)
    u = random_weight1d(np.random.default_rng(2), 4)
    call(w, u, n)
    peaks = []
    for rows in (verifier._STACK_ROWS, 1 << 30):
        monkeypatch.setattr(verifier, "_STACK_ROWS", rows)
        peaks.append(traced_peak(call, w, u, n)[0])
    assert peaks[0] < peaks[1] / 2


@pytest.mark.parametrize("rows", [1, 3, None], ids=["one-probe", "three-probes", "default"])
def test_functional_invariants_check_growth_once_a_stack(monkeypatch, rows):
    n, trials = 4, 7
    if rows is not None:
        monkeypatch.setattr(verifier, "_STACK_ROWS", rows << n)
    real, calls = verifier.check_growth, []

    def counting(phi, bound, blocks):
        calls.append(blocks)
        return real(phi, bound, blocks)

    monkeypatch.setattr(verifier, "check_growth", counting)
    assert all_ok(check_functional_invariants(n, trials))
    assert calls == [len(stack) for stack in verifier._chunks(range(trials), n)]


def test_generator_structure_applies_through_generator_apply(monkeypatch):
    # 20 trials make one unital apply and four a trial, and the diagonal
    # reduction one more, all on the one spec: all 82 go through the public
    # apply, so the benchmark's tracer sees every one
    real, specs = qms.generator_apply, []

    def counting(spec, x):
        specs.append(spec)
        return real(spec, x)

    monkeypatch.setattr(qms, "generator_apply", counting)
    w = Weight2D({(0, 1): 1.0, (1, 1): 0.5})
    assert all_ok(check_generator_structure(w, 3, trials=20))
    assert len(specs) == 82 and all(spec is specs[0] for spec in specs)
    assert specs[0].weight is w


def test_run_all_builds_one_transform_ladder_pair(monkeypatch):
    # kernels patched before run_all are the ones the shared pair is built
    # from, each ladder table once; a run that needs no pair builds none
    kernels = {}
    for name in ("apply_annihilate", "apply_create"):
        kernels[name] = lambda k, phi, real=getattr(verifier, name): real(k, phi)
        monkeypatch.setattr(verifier, name, kernels[name])
    real, built = verifier._table, []

    def counting(kernel, arg, n):
        if kernel in kernels.values():
            built.append((kernel, arg))
        return real(kernel, arg, n)

    monkeypatch.setattr(verifier, "_table", counting)
    n = 4
    expected = {(kernel, k) for kernel in kernels.values() for k in range(n)}
    for only, count in ((None, 2 * n), (["hop", "commutation-1d"], 2 * n), (["riesz", "qms"], 0)):
        built.clear()
        reports, _ = run_all(n=n, only=only)
        assert all_ok(reports)
        assert len(built) == len(set(built)) == count and set(built) <= expected, only


# (checks, negative controls) per family in run_all(n=5): one family run per
# fixture, so five 2D fixtures give commutation-2d five controls. qms runs
# once and carries two controls.
FAN_OUT = {
    "car": (7, 1),
    "hop": (2, 1),
    "commutation-2d": (15, 5),
    "spectral-shift": (15, 5),
    "commutation-1d": (9, 3),
    "commutation-number": (2, 1),
    "representation": (5, 1),
    "riesz": (4, 1),
    "norm-bound": (5, 1),
    "l2": (5, 1),
    "weight-invariant": (25, 5),
    "functional-invariant": (5, 1),
    "qms": (7, 2),
}


class TestRunAll:
    def test_registry_fan_out(self):
        _, timings = run_all(n=5, seed=11)
        # timings keep run order: commutation-2d and spectral-shift alternate
        # over the five 2D fixtures
        assert list(timings) == [
            "car",
            "hop",
            *(
                label
                for i in ("", "#1", "#2", "#3", "#4")
                for label in (f"commutation-2d{i}", f"spectral-shift{i}")
            ),
            "commutation-1d",
            "commutation-1d#1",
            "commutation-1d#2",
            "commutation-number",
            "representation",
            "riesz",
            "norm-bound",
            "l2",
            *(f"weight-invariant{i}" for i in ("", "#1", "#2", "#3", "#4")),
            "functional-invariant",
            "qms",
        ]
        assert set(FAN_OUT) == set(FAMILY_NAMES)
        for family, counts in FAN_OUT.items():
            kinds = [r.kind for r in run_all(n=5, seed=11, only=[family])[0]]
            assert (kinds.count(CHECK), kinds.count(NEGATIVE_CONTROL)) == counts, family

    @pytest.mark.parametrize("override", [None, Weight2D({(0, 1): 2.0})])
    def test_family_names_follow_the_run_order(self, override):
        # FAMILY_NAMES is written out by hand; it must list the families in
        # the order the runs first reach them, with or without an override
        weights2d = fixture_weights(5, 11) if override is None else {"custom": override}
        families = [family for family, _ in verifier._family_runs(5, 11, weights2d)]
        assert tuple(dict.fromkeys(families)) == FAMILY_NAMES

    def test_full_run_ok_and_deterministic(self):
        reports_a, timings_a = run_all(n=5, seed=11)
        reports_b, _ = run_all(n=5, seed=11)
        assert all_ok(reports_a)
        assert [r.to_json() for r in reports_a] == [r.to_json() for r in reports_b]
        assert set(timings_a)  # every family timed
        payload_a = run_to_json(reports_a, {"n": 5, "seed": 11}, timings_a)
        payload_b = run_to_json(reports_b, {"n": 5, "seed": 11}, {})
        a = json.dumps({k: v for k, v in payload_a.items() if k != "timing"}, sort_keys=True)
        b = json.dumps({k: v for k, v in payload_b.items() if k != "timing"}, sort_keys=True)
        assert a == b
        assert payload_a["counts"]["not_ok"] == 0
        assert payload_a["all_ok"] is True

    def test_seed_117_functional_invariant_control_is_caught(self):
        # its control used to perturb one coefficient of the conjugated probe,
        # which moved the dual norms by 7.3e-14 here, inside the 1e-12 tolerance
        reports, _ = run_all(n=8, seed=117, only=["functional-invariant"])
        assert all_ok(reports)

    @pytest.mark.parametrize(
        "n,seed,big",
        [(5, 11, None), (8, 42, None), (3, 42, 1e7), (3, 42, 1e9)],
        ids=["n5-seed11", "n8-seed42", "entry-1e7", "entry-1e9"],
    )
    def test_every_control_reads_its_relative_size(self, n, seed, big):
        # an absolute 1e-6 nudge read 6.3e-10 for functional-invariant at
        # n = 8, seed 42, and fell below 1e-13 on weights with an entry of
        # 1e7 or 1e9, where the residual's normalization hid it
        override = None
        if big is not None:
            override = Weight2D.from_entries([(0, 0, big), (1, 0, 0.7), (1, 1, 0.1)])
        reports, _ = run_all(n=n, seed=seed, weight_override=override)
        controls = [r for r in reports if r.kind == NEGATIVE_CONTROL]
        # one 2D fixture in place of five when the weight is overridden
        assert len(controls) == (28 if big is None else 16)
        for control in controls:
            assert control.residual >= 1e-7, control.name

    def test_only_filter(self):
        reports, timings = run_all(n=4, seed=2, only=["car", "qms"])
        names = {r.name for r in reports}
        assert any(n.startswith("car-") for n in names)
        assert any(n.startswith("qms-") for n in names)
        assert not any(n.startswith("gwn-") for n in names)
        assert set(timings) == {"car", "qms"}
        with pytest.raises(ValueError):
            run_all(n=4, only=["no-such-family"])

    def test_weight_override(self, rnd_weight):
        reports, _ = run_all(n=5, seed=3, weight_override=rnd_weight, only=["commutation-2d"])
        tags = {r.inputs.get("weight") for r in reports}
        assert tags == {"custom"}
        assert all_ok(reports)

    @pytest.mark.parametrize("override", [None, Weight2D({(0, 1): 2.0})])
    def test_every_weight_input_names_a_fixture_of_the_run(self, override):
        # qms once recorded "w", a name no fixture has
        weights2d = fixture_weights(4, 42) if override is None else {"custom": override}
        names = set(weights2d) | set(fixture_weights1d(4, 42))
        reports, _ = run_all(n=4, weight_override=override)
        tags = [(r.name, r.inputs["weight"]) for r in reports if "weight" in r.inputs]
        assert [(name, tag) for name, tag in tags if tag not in names] == []
        assert {tag for name, tag in tags if name.startswith("qms-")} == {
            "running" if override is None else "custom"
        }

    def test_override_with_oversized_support_raises(self):
        big = Weight2D({(0, 9): 1.0})
        with pytest.raises(ValueError):
            run_all(n=4, weight_override=big, only=["representation"])


def tiny_float_literals():
    """(module, owner) of every float literal in (0, 1e-9) in the package,
    where owner is the module-level name the literal sits under."""
    found = []
    for path in sorted(pathlib.Path(chaoscalc.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.Assign):
                owner = ", ".join(ast.unparse(t) for t in stmt.targets)
            else:
                owner = getattr(stmt, "name", ast.unparse(stmt)[:40])
            found += [
                (path.stem, owner)
                for node in ast.walk(stmt)
                if isinstance(node, ast.Constant)
                and type(node.value) is float
                and 0.0 < node.value < 1e-9
            ]
    return sorted(found)


def test_tolerances_are_not_written_out_twice():
    # every comparison rule goes through reports; the others are a family's
    # pinned tolerance, input validation in weights, and simulate's sampled
    # slack
    assert tiny_float_literals() == [
        ("cli", "cmd_simulate"),
        ("reports", "TOLERANCE"),
        ("verifier", "SHIFT_TOLERANCE"),
        ("weights", "_REL_TOL"),
    ]
