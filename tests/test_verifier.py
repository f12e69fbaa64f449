"""Check families, negative controls, report payloads, run assembly."""
from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

from chaoscalc.functionals import Functional
from chaoscalc.qms import check_generator_structure, check_sum_identity
from chaoscalc.reports import (
    CHECK,
    NEGATIVE_CONTROL,
    VerificationReport,
    all_ok,
    excess,
    family_reports,
    format_line,
    max_abs,
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
        a = sp.csr_matrix(np.eye(3, dtype=complex))
        assert residual(a, a) == 0.0
        assert max_abs(sp.csr_matrix((3, 3), dtype=complex)) == 0.0
        phi = Functional({0: 2.0}, 2)
        assert residual(phi, Functional({0: 1.0}, 2)) == pytest.approx(0.5)

    def test_perturbed_each_kind(self):
        assert perturbed(0.0) == 1e-6
        arr = perturbed(np.zeros((2, 2)))
        assert arr[0, 0] == 1e-6 and arr.sum() == 1e-6
        mat = perturbed(sp.csr_matrix((2, 2), dtype=complex))
        assert mat[0, 0] == 1e-6
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
        lhs = sp.csr_matrix(np.array([[3e8, 0.0], [0.0, 1.0]], dtype=complex))
        rhs = lhs.copy()
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

    def test_zero_weight_edge(self):
        w, u = Weight2D.zero(), Weight1D.zero()
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
    lambda n: check_commutation_1d(Weight1D.zero(), n),
    lambda n: check_commutation_number(n),
    lambda n: check_spectral_shifts(Weight2D.zero(), n),
    lambda n: check_representations(Weight2D.zero(), Weight1D.zero(), n),
    lambda n: check_riesz_intertwining(Weight2D.zero(), n, trials=2),
    lambda n: check_norm_bounds(Weight2D.zero(), Weight1D.zero(), n, trials=2),
    lambda n: check_l2_lemmas(Weight2D.zero(), Weight1D.zero(), n),
    lambda n: check_weight_invariants(Weight2D.zero(), Weight1D.zero(), n),
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
        lambda trials: check_norm_bounds(Weight2D.zero(), Weight1D.zero(), 3, trials=trials),
        lambda trials: check_functional_invariants(3, trials=trials),
    ],
    ids=["riesz", "norm-bound", "functional-invariant"],
)
def test_probe_families_need_a_trial(call):
    # the control repeats a comparison made on the first probe
    with pytest.raises(ValueError, match="trials >= 1, got 0"):
        call(0)
    assert all_ok(call(1))


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

    def test_each_family_pins_its_tolerance(self):
        # no caller passes a tolerance, so only this notices a drifted constant
        pinned = {"car": 0.0, "hop": 0.0, "spectral-shift": 1e-14}
        for family in FAMILY_NAMES:
            reports, _ = run_all(n=5, seed=11, only=[family])
            assert {r.tolerance for r in reports} == {pinned.get(family, 1e-12)}, family

    def test_fixture_sets(self):
        ws = fixture_weights(5, seed=1)
        assert set(ws) == {"zero", "diag-ones", "running", "rnd0", "rnd1"}
        us = fixture_weights1d(5, seed=1)
        assert set(us) == {"ones", "ramp", "rnd"}

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

    def test_override_with_oversized_support_raises(self):
        big = Weight2D({(0, 9): 1.0})
        with pytest.raises(ValueError):
            run_all(n=4, weight_override=big, only=["representation"])
