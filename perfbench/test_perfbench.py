"""Tests of the benchmark itself: checkers, tracer and tail percentile.

Run with ``python3 -m pytest perfbench -q`` from the checkout root. Every
checker must pass a clean output and flag one perturbed by 1e-6.
"""
from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import chaoscalc  # noqa: E402
import chaoscalc.cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

EPS = 1e-6


def cli_payload(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = chaoscalc.cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def verify_payload(tmp_path_factory):
    return cli_payload(tmp_path_factory.mktemp("verify"), "verify", "--n", "3", "--seed", "5")


def test_verify_checker_passes_clean_output(verify_payload):
    code, payload = verify_payload
    reference = checks.report_signature(payload)
    assert checks.check_verify(code, payload, reference) == []


@pytest.mark.parametrize("kind", ["check", "negative-control"])
def test_verify_checker_flags_perturbed_residual(verify_payload, kind):
    code, payload = verify_payload
    reference = checks.report_signature(payload)
    bad = copy.deepcopy(payload)
    target = next(r for r in bad["checks"] if r["kind"] == kind)
    # A check's residual moves above its 1e-12-scale tolerance; a control's
    # (at most 1e-6 after normalisation) drops to zero or below, so it passes.
    target["residual"] += EPS if kind == "check" else -EPS
    assert checks.check_verify(code, bad, reference)


def test_verify_checker_flags_renamed_report(verify_payload):
    code, payload = verify_payload
    reference = checks.report_signature(payload)
    bad = copy.deepcopy(payload)
    bad["checks"][0]["name"] += "-x"
    assert checks.check_verify(code, bad, reference)


def test_simulate_checker_exact(tmp_path):
    code, payload = cli_payload(tmp_path, "simulate", "--n", "4", "--theta", "0.3",
                                "--tol", repr(checks.SIMULATE_TOLERANCE))
    assert checks.check_simulate(code, payload, "exact", None) == []
    bad = copy.deepcopy(payload)
    bad["gram_deviation"] += EPS
    assert checks.check_simulate(code, bad, "exact", None)


def test_simulate_checker_sampled(tmp_path):
    argv = ("simulate", "--n", "3", "--samples", "2000", "--theta", "0.5", "--seed", "42")
    code, payload = cli_payload(tmp_path, *argv)
    _, again = cli_payload(tmp_path, *argv)
    assert checks.check_simulate(code, again, "monte-carlo", payload) == []
    bad = copy.deepcopy(again)
    bad["max_deviation"] += EPS
    assert checks.check_simulate(code, bad, "monte-carlo", payload)


def test_generator_checker():
    n = 5
    w = chaoscalc.Weight2D({(0, 1): 0.7, (2, 0): 0.2, (1, 1): 0.4})
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
    x = (a + a.conj().T) / 2
    result = chaoscalc.generator_apply(chaoscalc.GeneratorSpec(w, n), x)
    expected = checks.generator_oracle(chaoscalc.transfer_matrix, w.entries, n, x)
    assert checks.check_generator(result, expected) == []
    bad = result.copy()
    bad[0, 0] += EPS
    assert checks.check_generator(bad, expected)


def functional_constructor():
    return vars(chaoscalc.Functional)["__post_init__"]


def test_tracer_patches_every_namespace_and_restores():
    originals = (chaoscalc.operators.materialize, chaoscalc.qms.l2_create, functional_constructor())
    tracer = spans.Tracer()
    with tracer:
        # verifier and qms bind these with `from .operators import ...`
        assert chaoscalc.verifier.materialize is chaoscalc.operators.materialize
        assert chaoscalc.operators.materialize is not originals[0]
        assert chaoscalc.qms.l2_create is chaoscalc.operators.l2_create
        assert functional_constructor() is not originals[2]
    assert (chaoscalc.operators.materialize, chaoscalc.qms.l2_create, functional_constructor()) == originals
    assert chaoscalc.verifier.materialize is originals[0]


def test_tracer_self_time_families_and_qms_n(tmp_path):
    tracer = spans.Tracer()
    argv = ["verify", "--n", "7", "--seed", "1", "--only", "car,qms",
            "--out", str(tmp_path / "out.json")]
    request = tracer.wrap(lambda: chaoscalc.cli.main(argv), "request")
    with tracer:
        assert request() == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    total = tracer.stats["request"][1]
    self_sum = sum(own for _, _, own in tracer.stats.values())
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert all(inc >= own - 1e-12 for _, inc, own in tracer.stats.values())
    metrics = spans.layer_metrics(tracer, total, total, 0, [payload, None])
    families = {k: v["value"] for k, v in metrics.items() if k.startswith("verifier.family_s.")}
    assert len(families) == len(chaoscalc.FAMILY_NAMES)
    assert families["verifier.family_s.car"] > 0 and families["verifier.family_s.qms"] > 0
    assert families["verifier.family_s.riesz"] == 0.0
    assert sum(families.values()) <= total
    assert metrics["verifier.qms_n"]["value"] == 6  # the qms family runs at min(n, 6)
    assert metrics["verifier.reports"]["value"] == len(payload["checks"])
    assert metrics["verifier.controls_caught_ratio"]["value"] == 1.0


def test_first_and_repeat_applies_follow_the_weight_not_a_cache():
    n = 5
    w = chaoscalc.Weight2D({(0, 1): 0.7, (1, 1): 0.4})
    x = np.eye(1 << n, dtype=complex)
    tracer = spans.Tracer()
    with tracer:
        for _ in range(3):
            # As if the package kept no jump terms: every apply rebuilds them.
            chaoscalc.qms._TERMS_CACHE.clear()
            chaoscalc.generator_apply(chaoscalc.GeneratorSpec(w, n), x)
    metrics = spans.layer_metrics(tracer, 1.0, 1.0, 0, [])
    assert metrics["qms.transfer_matrix_calls"]["value"] == 3 * len(w.entries)
    assert metrics["qms.first_apply_s"]["value"] > 0
    assert metrics["qms.repeat_apply_s"]["value"] > 0
    total = tracer.stats["qms.generator_apply"][1]
    both = metrics["qms.first_apply_s"]["value"] + metrics["qms.repeat_apply_s"]["value"]
    assert both == pytest.approx(total)


def test_tail_latency_needs_ten_beyond_and_sits_above_median():
    assert run.tail_latency([1.0] * 21) is None
    tail = run.tail_latency([float(i) for i in range(30)])
    assert tail["value"] == 19.0 and tail["samples"] == 30
    assert sum(1 for i in range(30) if i > tail["value"]) == 10
