"""End-to-end runs of the console entry point via main(argv)."""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import chaoscalc
import cli_inputs
from chaoscalc import cli
from chaoscalc.basis import Subset, lam
from chaoscalc.cli import main
from chaoscalc.functionals import Functional
from chaoscalc.qms import GeneratorSpec, generator_apply, matrix_from_json, matrix_to_json
from chaoscalc.weights import Weight1D, Weight2D

RUNNING_WEIGHT = {
    "kind": "dense",
    "entries": [[0, 1, 2.0], [1, 1, 3.0]],
    "column_sums": "from_entries",
    "tail_bound": 0.0,
}


MALFORMED_WEIGHTS = {
    "negative-entry": {"kind": "dense", "entries": [[0, 1, -1.0]]},
    "entries-not-a-list": {"kind": "dense", "entries": 5},
    "top-level-list": [[0, 1, 2.0], [1, 1, 3.0]],
}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def run_capped(limit: int, *argv, env=None) -> subprocess.CompletedProcess:
    """The CLI in a child process whose address space is capped at limit
    bytes, so a kernel that sizes its work too large fails there instead of
    exhausting the machine."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from chaoscalc.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(pathlib.Path(chaoscalc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", **(env or {})}
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        timeout=120, env=env,
    )


class TestVerify:
    def test_default_families_pass(self, capsys):
        code, payload, err = run_cli(capsys, "verify", "--n", "4", "--seed", "5")
        assert code == 0
        assert payload["all_ok"] is True
        assert payload["counts"]["not_ok"] == 0
        assert payload["config"]["seed"] == 5
        assert "PASS" in err and "checks ok" in err

    def test_only_comma_list(self, capsys):
        code, payload, _ = run_cli(capsys, "verify", "--n", "4", "--only", "car,hop")
        assert code == 0
        families = {c["name"].split("-")[0] for c in payload["checks"]}
        assert families == {"car", "hop", "occupation"}  # occupation rides with car

    def test_unknown_family_is_config_error(self, capsys):
        code, payload, err = run_cli(capsys, "verify", "--n", "4", "--only", "bogus")
        assert code == 2 and payload is None
        assert "unknown families" in err

    @pytest.mark.parametrize(
        "argv, entries, message",
        [
            (["--n", "2"], [[0, 1, 1e308], [1, 1, 1e308]], "column 1"),
            (["--n", "2"], [[0, 0, 1e308], [1, 1, 1e308]], "2 * alpha * n"),
            (["--n", "0"], None, "n >= 2"),
            (["--n", "1"], None, "n >= 2"),
            (["--n", "1"], [[0, 0, 1.0]], "n >= 2"),
            (["--only", ","], None, "empty"),
        ],
        ids=[
            "column-sum-overflows", "theta-overflows", "n0", "n1", "n1-one-index", "only-empty"
        ],
    )
    def test_bad_run_is_one_error_line(self, tmp_path, capsys, argv, entries, message):
        if entries is not None:
            weight = {"kind": "dense", "entries": entries}
            argv = argv + ["--weight", write_json(tmp_path / "w.json", weight)]
        code, payload, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert message in err

    def test_negative_seed_is_named(self, capsys):
        code, payload, err = run_cli(capsys, "verify", "--n", "2", "--seed", "-1")
        assert code == 2 and payload is None
        assert err == "error: seed must be nonnegative, got -1\n"

    def test_seed_past_64_bits_is_named(self, capsys):
        # the seed is the stream's 64-bit starting state, as simulate's key word
        code, payload, err = run_cli(capsys, "verify", "--n", "2", "--seed", str(2**64))
        assert code == 2 and payload is None
        assert err == f"error: seed must lie in [0, 2**64), got {2**64}\n"

    def test_huge_finite_weight_passes_without_warning(self, tmp_path, capsys):
        # the norm bounds of a 1e200 entry are finite, and the route probe is
        # scaled by 1 / max |theta|, so no dual norm squares past the range
        path = write_json(tmp_path / "w.json", {"kind": "dense", "entries": [[0, 0, 1e200]]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--n", "2", "--weight", path])
        assert not caught, [str(w.message) for w in caught]
        assert code == 0

        def finite_only(constant):
            raise AssertionError(f"{constant} in the report")

        payload = json.loads(capsys.readouterr().out, parse_constant=finite_only)
        assert payload["all_ok"]

    def test_reports_stable_outside_timing(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--n", "4", "--seed", "9", "--out", str(out_a)]) == 0
        assert main(["verify", "--n", "4", "--seed", "9", "--out", str(out_b)]) == 0
        capsys.readouterr()
        a, b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
        a.pop("timing"), b.pop("timing")
        assert a == b

    def test_weight_override_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", RUNNING_WEIGHT)
        code, payload, _ = run_cli(
            capsys, "verify", "--n", "4", "--only", "spectral-shift", "--weight", path
        )
        assert code == 0 and payload["all_ok"]

    def test_corrupt_weight_file(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", "--weight", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--weight", "/no/such/file.json")
        assert code == 2 and "cannot read" in err


class TestApply:
    def test_identity_round_trip(self, tmp_path, capsys):
        phi = Functional({0b101: 1.5 + 0.5j, 0b010: -2.0}, 3)
        f_path = write_json(tmp_path / "phi.json", phi.to_json())
        e_path = write_json(tmp_path / "id.json", {"op": "identity"})
        code, payload, _ = run_cli(capsys, "apply", "--expr", e_path, "--functional", f_path)
        assert code == 0
        payload.pop("command")
        assert Functional.from_json(payload) == phi

    def test_weighted_number_on_singleton(self, tmp_path, capsys):
        f_path = write_json(
            tmp_path / "phi.json",
            {"truncation": 3, "coefficients": [[[1], 1.0, 0.0]]},
        )
        e_path = write_json(tmp_path / "expr.json", {"op": "gwn", "weight": RUNNING_WEIGHT})
        code, payload, _ = run_cli(capsys, "apply", "--expr", e_path, "--functional", f_path)
        assert code == 0
        assert payload["coefficients"] == [[[1], 5.0, 0.0]]

    def test_out_of_range_index(self, tmp_path, capsys):
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": [[[0], 1.0, 0.0]]}
        )
        e_path = write_json(tmp_path / "expr.json", {"op": "annihilate", "k": 5})
        code, _, err = run_cli(capsys, "apply", "--expr", e_path, "--functional", f_path)
        assert code == 2 and err.startswith("error:")

    def test_malformed_expression(self, tmp_path, capsys):
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": []}
        )
        e_path = write_json(tmp_path / "expr.json", {"op": "frobnicate"})
        code, _, err = run_cli(capsys, "apply", "--expr", e_path, "--functional", f_path)
        assert code == 2 and "frobnicate" in err

    def test_non_finite_coefficient(self, tmp_path, capsys):
        # 1e400 parses to inf; printing it back would not be valid JSON
        f_path = tmp_path / "phi.json"
        f_path.write_text('{"truncation": 2, "coefficients": [[[0], 1e400, 0.0]]}')
        e_path = write_json(tmp_path / "id.json", {"op": "identity"})
        code, payload, err = run_cli(
            capsys, "apply", "--expr", e_path, "--functional", str(f_path)
        )
        assert code == 2 and payload is None
        assert_one_error_line(err)

    def test_overflowing_result(self, tmp_path, capsys):
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": [[[0], 1e300, 0.0]]}
        )
        e_path = write_json(
            tmp_path / "big.json", {"op": "scale", "c": [1e300, 0.0], "arg": {"op": "identity"}}
        )
        code, payload, err = run_cli(capsys, "apply", "--expr", e_path, "--functional", f_path)
        assert code == 2 and payload is None
        assert_one_error_line(err)


class TestNorms:
    def test_vacuum_and_singleton(self, tmp_path, capsys):
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": [[[], 1.0, 0.0]]}
        )
        code, payload, _ = run_cli(capsys, "norms", "--functional", f_path, "--p", "2")
        assert code == 0
        assert payload["norms"] == [{"p": 2.0, "norm": 1.0, "dual_norm": 1.0}]

        f_path = write_json(
            tmp_path / "one.json", {"truncation": 2, "coefficients": [[[1], 1.0, 0.0]]}
        )
        code, payload, _ = run_cli(
            capsys, "norms", "--functional", f_path, "--p", "0", "2"
        )
        assert code == 0
        assert payload["norms"][0] == {"p": 0.0, "norm": 1.0, "dual_norm": 1.0}
        assert payload["norms"][1] == {"p": 2.0, "norm": 4.0, "dual_norm": 0.25}

    def test_empty_functional(self, tmp_path, capsys):
        f_path = write_json(tmp_path / "zero.json", {"truncation": 3, "coefficients": []})
        code, payload, _ = run_cli(capsys, "norms", "--functional", f_path)
        assert code == 0
        assert all(row["norm"] == 0.0 and row["dual_norm"] == 0.0 for row in payload["norms"])

    def test_entries_counts_the_table(self, tmp_path, capsys):
        dense = Functional.from_vector(np.arange(1, 17, dtype=complex), 4)
        for phi, size in ((dense, 16), (Functional({0b101: 2.0}, 4), 1)):
            f_path = write_json(tmp_path / "phi.json", phi.to_json())
            code, payload, _ = run_cli(capsys, "norms", "--functional", f_path)
            assert code == 0 and payload["entries"] == size

    def test_non_finite_coefficient(self, tmp_path, capsys):
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": [[[0], "nan", 0]]}
        )
        code, payload, err = run_cli(capsys, "norms", "--functional", f_path)
        assert code == 2 and payload is None
        assert_one_error_line(err)

    @pytest.mark.parametrize("p", ["1000", "-1000"])
    def test_overflowing_norm(self, tmp_path, capsys, p):
        # lambda({1}) = 2, and 2**2000 overflows on one side of the scale
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": [[[1], 1.0, 0.0]]}
        )
        code, payload, err = run_cli(capsys, "norms", "--functional", f_path, "--p", p)
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert "p = " in err

    @pytest.mark.parametrize("p", ["-1e-3", "-2E1", "-0.001", "-.5", "-3", "-1."])
    def test_negative_p_in_every_float_form(self, tmp_path, capsys, p):
        # argparse alone reads -1e-3 and -2E1 as flags: "expected at least
        # one argument"
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": [[[1], 1.0, 0.0]]}
        )
        assert main(["norms", "--functional", f_path, "--p", p, "2"]) == 0
        out = capsys.readouterr().out
        # the payload is one line of JSON
        assert out.count("\n") == 1
        assert [row["p"] for row in json.loads(out)["norms"]] == [float(p), 2.0]

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_p(self, tmp_path, capsys, p):
        f_path = write_json(
            tmp_path / "phi.json", {"truncation": 2, "coefficients": [[[1], 1.0, 0.0]]}
        )
        code, payload, err = run_cli(capsys, "norms", "--functional", f_path, "--p", p)
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert "--p" in err


def test_sparse_tables_at_truncation_62(tmp_path):
    # Diagonals and norms are evaluated at the table's own masks, so a
    # two-entry table at the int64 limit costs two entries, not 2**62, and
    # runs under a 1 GiB cap.
    w_json = {
        "kind": "dense",
        "entries": [[61, 0, 2.0], [0, 61, 1.5], [61, 61, 0.25], [3, 5, 0.75]],
    }
    u_json = {"kind": "diag1d", "entries": [[61, 3.0], [0, 0.5]]}
    w, u = Weight2D.from_json(w_json), Weight1D.from_json(u_json)
    expr = {
        "op": "compose",
        "args": [
            {"op": "gwn", "weight": w_json},
            {"op": "number"},
            {"op": "wn1d", "weight": u_json},
        ],
    }
    table = {(0, 61): 3 - 4j, (5, 61): 0.5 + 0j}
    functional = {
        "truncation": 62,
        "coefficients": [[list(s), c.real, c.imag] for s, c in table.items()],
    }
    expr_path = write_json(tmp_path / "expr.json", expr)
    phi_path = write_json(tmp_path / "phi.json", functional)

    def run(*argv):
        result = run_capped(2**30, *argv, env={"CHAOSCALC_MAX_N": "62"})
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    applied = run("apply", "--expr", expr_path, "--functional", phi_path)
    assert applied["truncation"] == 62
    expected = {
        s: w.theta(Subset.of(*s)) * (len(Subset.of(*s)) * (u.count(Subset.of(*s)) * c))
        for s, c in table.items()
    }
    assert {tuple(s): complex(re, im) for s, re, im in applied["coefficients"]} == expected

    normed = run("norms", "--functional", phi_path)
    assert normed["truncation"] == 62 and normed["entries"] == 2
    # numpy's power may round differently from math.pow, so the oracle takes
    # lambda from the scalar lam and its powers through numpy
    lams = np.array([lam(Subset.of(*s)) for s in table])
    moduli = np.array([abs(c) for c in table.values()])
    for row in normed["norms"]:
        for key, power in (("norm", 2 * row["p"]), ("dual_norm", -2 * row["p"])):
            oracle = math.sqrt(float(np.sum(lams**power * moduli**2)))
            assert row[key] == oracle, (key, row["p"])


def test_norm_bound_at_16_in_one_gib():
    # the bounds are read off |theta| / lambda and the probes are drawn one
    # at a time, so the family holds a few 2^16-entry vectors, not a
    # 2^16 x trials table
    result = run_capped(2**30, "verify", "--n", "16", "--only", "norm-bound")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["all_ok"] and payload["counts"]["not_ok"] == 0
    assert len(payload["checks"]) == 6


def test_out_of_memory_is_one_error_line():
    # car at n = 20 holds about 1 GB of ladder matrices, so under a 384 MiB
    # cap one of its allocations fails within a second
    result = run_capped(
        384 * 2**20, "verify", "--n", "20", "--only", "car", env={"CHAOSCALC_MAX_N": "20"}
    )
    assert result.returncode == 2 and result.stdout == ""
    assert_one_error_line(result.stderr)
    assert "verify at n = 20 ran out of memory" in result.stderr


def test_numpy_only_commands_load_no_scipy_submodule(tmp_path):
    # the command lines of cli_inputs, which read every JSON flag, run
    # simulate (both modes), apply, norms, qms and verify on numpy alone,
    # so a cold start skips scipy itself (about 12 ms to import), scipy.sparse
    # (about 18 MB and 0.16 s), scipy.special and scipy.linalg; the first
    # public CSR matrix loads scipy.sparse, and nothing loads scipy.special.
    # With scipy blocked, as where it is not installed, every command gives
    # the same exit code, stdout and --out bytes outside "timing", and the
    # CSR matrix raises ModuleNotFoundError
    commands = cli_inputs.commands(cli_inputs.write(tmp_path))
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        mode = sys.argv[1]
        if mode == "blocked":
            sys.modules["scipy"] = None
        import chaoscalc
        from chaoscalc.cli import main
        lazy = ("scipy", "scipy.sparse", "scipy.special", "scipy.linalg")
        runs = []
        for i, argv in enumerate({commands!r}):
            out, stdout = f"{tmp_path}/{{mode}}-{{i}}.json", io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, "--out", out])
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            payload.pop("timing", None)
            runs.append([code, stdout.getvalue(), json.dumps(payload, sort_keys=True)])
        loaded = {{"commands": [m for m in lazy if sys.modules.get(m)]}}
        try:
            chaoscalc.materialize(chaoscalc.annihilate(0), 2)
            loaded["materialize"] = [m for m in lazy if sys.modules.get(m)]
        except ModuleNotFoundError as exc:
            loaded["materialize"] = f"ModuleNotFoundError: {{exc.name}}"
        print(json.dumps({{"runs": runs, "loaded": loaded}}))
    """)
    src = str(pathlib.Path(chaoscalc.__file__).parents[1])
    children = {}
    for mode in ("plain", "blocked"):
        result = subprocess.run(
            [sys.executable, "-c", script, mode], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        children[mode] = json.loads(result.stdout.splitlines()[-1])
    plain, blocked = children["plain"], children["blocked"]
    assert [code for code, *_ in plain["runs"]] == [0] * len(commands)
    for argv, now, then in zip(commands, blocked["runs"], plain["runs"]):
        assert now == then, argv
    assert plain["loaded"] == {"commands": [], "materialize": ["scipy", "scipy.sparse"]}
    # a blocked scipy names the submodule asked for; an absent one names scipy
    assert blocked["loaded"] == {
        "commands": [], "materialize": "ModuleNotFoundError: scipy.sparse"
    }


def test_verify_loads_no_numpy_random(tmp_path):
    # verify draws its probes and fixtures from reports.SplitMix64, so a run
    # loads numpy.random (about 6 MB of resident memory) only where importing
    # numpy already does, as numpy 1.x does; simulate's sampler is the one
    # command that loads it
    verify = [argv for argv in cli_inputs.commands(cli_inputs.write(tmp_path)) if argv[0] == "verify"]
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import numpy
        alone = "numpy.random" in sys.modules
        from chaoscalc.cli import main
        codes = []
        for i, argv in enumerate({[["verify", "--n", "4"], *verify]!r}):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main([*argv, "--out", f"{tmp_path}/verify-{{i}}.json"]))
        print(json.dumps({{"codes": codes, "loaded": "numpy.random" in sys.modules, "alone": alone}}))
    """)
    src = str(pathlib.Path(chaoscalc.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    child = json.loads(result.stdout.splitlines()[-1])
    assert child["codes"] == [0] * (1 + len(verify))
    assert child["loaded"] == child["alone"]


@pytest.mark.parametrize("command", ["verify", "qms"])
@pytest.mark.parametrize(
    "weight", list(MALFORMED_WEIGHTS.values()), ids=list(MALFORMED_WEIGHTS)
)
def test_malformed_weight_is_config_error(tmp_path, capsys, command, weight):
    argv = [command, "--weight", write_json(tmp_path / "w.json", weight)]
    if command == "qms":
        argv += ["--x", write_json(tmp_path / "x.json", matrix_to_json(np.eye(4), 2))]
    code, payload, err = run_cli(capsys, *argv)
    assert code == 2 and payload is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestSimulate:
    def test_exact_default_theta(self, capsys):
        code, payload, _ = run_cli(capsys, "simulate", "--n", "5")
        assert code == 0 and payload["passed"]
        assert payload["mode"] == "exact"
        assert payload["gram_deviation"] == 0.0
        assert payload["thetas"] == [0.5] * 5

    def test_symmetric_walsh_at_benchmark_size(self, capsys):
        # theta = 1/2 makes every per-step Gram factor the identity exactly
        code, payload, _ = run_cli(capsys, "simulate", "--n", "12", "--theta", "0.5")
        assert code == 0 and payload["passed"]
        assert payload["gram_deviation"] == 0.0

    def test_scaled_plus_values_fail(self, capsys, scaled_plus_values):
        # a negative control: the deviation read off the factors still sees
        # broken step values
        code, payload, _ = run_cli(capsys, "simulate", "--n", "6")
        assert code == 1 and not payload["passed"]
        assert 1e-6 < payload["gram_deviation"] < 1e-5

    def test_swapped_step_fails(self, capsys, swapped_step):
        # at theta = 1/2 the swap changes nothing; at 1/4 step 2 has mean 2 / sqrt(3)
        code, payload, _ = run_cli(capsys, "simulate", "--n", "6", "--theta", "0.25")
        assert code == 1 and not payload["passed"]
        assert payload["gram_deviation"] > 0.5

    def test_exact_mode_holds_no_table(self, tmp_path):
        # the Gram alone is 128 MiB at n = 12; exact mode holds a few vectors
        # of 4096 values
        argv = ["simulate", "--n", "12", "--theta", "0.3", "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0  # warm-up, so that no first-call allocation counts
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_exact_mode_past_the_table_cap(self, capsys, monkeypatch):
        code, payload, _ = run_cli(capsys, "simulate", "--n", "16", "--theta", "0.3")
        assert code == 0 and payload["passed"]
        monkeypatch.setenv("CHAOSCALC_MAX_N", "21")
        code, payload, err = run_cli(capsys, "simulate", "--n", "21")
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert "exact mode handles up to n = 20" in err

    def test_theta_file_list(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", [0.25, 1 / 3, 2 / 3, 0.9])
        code, payload, _ = run_cli(capsys, "simulate", "--theta", path, "--n", "4")
        assert code == 0 and payload["passed"]
        assert payload["gram_deviation"] <= 1e-13

    def test_theta_file_length_mismatch(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", {"thetas": [0.25, 0.75]})
        code, _, err = run_cli(capsys, "simulate", "--theta", path, "--n", "4")
        assert code == 2 and "steps" in err

    def test_monte_carlo(self, capsys):
        code, payload, _ = run_cli(
            capsys, "simulate", "--n", "4", "--samples", "20000", "--seed", "11"
        )
        assert code == 0 and payload["passed"]
        assert payload["mode"] == "monte-carlo"
        assert payload["worst_excess_over_4se"] <= 0.0

    def test_shifted_draws_fail(self, capsys, shifted_draws):
        # a negative control: the 4-standard-error rule sees step 0 drawn at
        # theta + 0.02
        code, payload, _ = run_cli(capsys, "simulate", "--n", "6", "--samples", "100000")
        assert code == 1 and not payload["passed"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, capsys, seed):
        code, payload, err = run_cli(
            capsys, "simulate", "--n", "6", "--samples", "5", "--seed", seed
        )
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert "[0, 2**64)" in err

    def test_largest_seed(self, capsys):
        code, payload, _ = run_cli(
            capsys, "simulate", "--n", "3", "--samples", "2000", "--seed", str(2**64 - 1)
        )
        assert code == 0 and payload["passed"]
        assert payload["seed"] == 2**64 - 1

    def test_timing_format_matches_verify(self, capsys):
        code, payload, _ = run_cli(capsys, "simulate", "--n", "3")
        assert code == 0
        timing = payload["timing"]
        assert datetime.datetime.fromisoformat(timing["timestamp"]).tzinfo is not None
        assert isinstance(timing["seconds"], dict) and set(timing["seconds"]) == {"exact"}

    def test_invalid_theta_literal(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--theta", "1.5", "--n", "3")
        assert code == 2 and "strictly in (0, 1)" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_config_error(self, capsys, tol):
        # nan and -1 failed a correct run with exit 1, and inf passed any
        # exact run; sampled mode ignores --tol but rejects it the same way
        for extra in ((), ("--samples", "100")):
            code, payload, err = run_cli(capsys, "simulate", "--n", "3", f"--tol={tol}", *extra)
            assert code == 2 and payload is None
            assert_one_error_line(err)
            assert "--tol must be finite and nonnegative" in err

    def test_zero_tol(self, capsys):
        # at theta 1/2 every deviation is exactly 0, so no slack at all passes
        code, payload, _ = run_cli(capsys, "simulate", "--n", "6", "--tol", "0")
        assert code == 0 and payload["passed"]
        assert payload["gram_deviation"] == 0.0

    def test_overflowing_step_value(self, tmp_path, capsys):
        # sqrt((1 - t) / t) overflows at t = 5e-324; this reported a NaN Gram
        # deviation with numpy warnings
        path = write_json(tmp_path / "t.json", [5e-324, 0.5])
        for extra in ((), ("--samples", "1000")):
            code, payload, err = run_cli(capsys, "simulate", "--n", "2", "--theta", path, *extra)
            assert code == 2 and payload is None
            assert_one_error_line(err)
            assert "overflows" in err

    def test_overflowing_gram(self, tmp_path, capsys):
        # each step value is finite (1e100), but products over four steps are
        # not; the atom probability 1e-800 underflows first and is rejected
        path = write_json(tmp_path / "t.json", [1e-200] * 4)
        code, payload, err = run_cli(capsys, "simulate", "--n", "4", "--theta", path)
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert "smallest normal double" in err

    def test_underflowing_atom_probability(self, tmp_path, capsys):
        # the atom probability 1e-400 underflowed to 0 and the exact check
        # reported "gram_deviation": 1.0 with exit 1
        path = write_json(tmp_path / "t.json", [1e-200, 1e-200])
        code, payload, err = run_cli(capsys, "simulate", "--n", "2", "--theta", path)
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert "smallest normal double 2.2250738585072014e-308" in err
        # 5e-301 is a normal double: the identities hold to rounding
        path = write_json(tmp_path / "t.json", [1e-150, 1e-150, 0.5])
        code, payload, _ = run_cli(capsys, "simulate", "--n", "3", "--theta", path)
        assert code == 0 and payload["passed"]
        assert payload["gram_deviation"] <= 1e-13

    @pytest.mark.parametrize(
        "thetas",
        [[1e-300, 0.5], [1 - 1e-16, 0.5], [1e-38] * 8, [1e-15] * 20],
        ids=["tiny", "near-one", "tiny-8", "small-20"],
    )
    @pytest.mark.parametrize("samples", [None, 1, 2**62], ids=["exact", "one", "2**62"])
    def test_extreme_accepted_thetas_give_finite_deviations(
        self, tmp_path, capsys, thetas, samples
    ):
        # every theta the loader accepts has finite step values and a normal
        # atom law, so the deviations come out finite and the verdict is
        # the run's own; sampled mode reads exit 1 on several of these
        # (few samples, or never drawing a rare branch), not 2
        path = write_json(tmp_path / "t.json", thetas)
        extra = () if samples is None else ("--samples", str(samples))
        code, payload, err = run_cli(
            capsys, "simulate", "--n", str(len(thetas)), "--theta", path, *extra
        )
        if samples is not None and len(thetas) > 8:
            assert code == 2 and payload is None
            assert_one_error_line(err)
            assert "sampled mode handles up to n = 8" in err
            return
        assert code == (0 if payload["passed"] else 1)
        if samples is None:
            moments = payload["moments"]
            values = [payload["gram_deviation"], *moments["mean_dev_per_step"],
                      *moments["second_dev_per_step"]]
        else:
            values = [payload["max_deviation"], payload["worst_excess_over_4se"]]
        assert all(map(math.isfinite, values))


class TestQms:
    def test_matches_library_call(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        w_path = write_json(tmp_path / "w.json", RUNNING_WEIGHT)
        x_path = write_json(tmp_path / "x.json", matrix_to_json(x, 3))
        code, payload, _ = run_cli(capsys, "qms", "--weight", w_path, "--x", x_path)
        assert code == 0
        got, n = matrix_from_json(payload["result"])
        assert n == 3
        want = generator_apply(GeneratorSpec(Weight2D.from_json(RUNNING_WEIGHT), 3), x)
        assert np.abs(got - want).max() < 1e-12

    def test_custom_hamiltonian(self, tmp_path, capsys):
        x = np.eye(4, dtype=complex)
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        w_path = write_json(tmp_path / "w.json", RUNNING_WEIGHT)
        x_path = write_json(tmp_path / "x.json", matrix_to_json(x, 2))
        h_path = write_json(tmp_path / "h.json", matrix_to_json(h, 2))
        code, payload, _ = run_cli(
            capsys, "qms", "--weight", w_path, "--x", x_path, "--hamiltonian", h_path
        )
        assert code == 0
        got, _ = matrix_from_json(payload["result"])
        assert np.abs(got).max() == 0.0  # generator kills the identity

    def test_hamiltonian_size_mismatch(self, tmp_path, capsys):
        w_path = write_json(tmp_path / "w.json", RUNNING_WEIGHT)
        x_path = write_json(tmp_path / "x.json", matrix_to_json(np.eye(4, dtype=complex), 2))
        h_path = write_json(tmp_path / "h.json", matrix_to_json(np.eye(8, dtype=complex), 3))
        code, payload, err = run_cli(
            capsys, "qms", "--weight", w_path, "--x", x_path, "--hamiltonian", h_path
        )
        assert code == 2 and payload is None
        assert_one_error_line(err)
        assert "hamiltonian is sized for n = 3" in err

    def test_overflow_on_a_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # at n = 8 the running weight gives two row bands, so with two CPUs
        # a worker applies one of them, under the command's error state
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        w_path = write_json(tmp_path / "w.json", RUNNING_WEIGHT)
        x_path = write_json(tmp_path / "x.json", matrix_to_json(np.full((256, 256), 1e308), 8))
        code, payload, err = run_cli(capsys, "qms", "--weight", w_path, "--x", x_path)
        assert code == 2 and payload is None
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "rows",
        [5, [[[0, 0], [0, 0], [0, 0], [0, 0]]] * 3 + [[[0, 0], [0, 0], [0, 0], 1.5]]],
        ids=["rows-not-a-list", "cell-not-a-pair"],
    )
    def test_malformed_observable_is_config_error(self, tmp_path, capsys, rows):
        w_path = write_json(tmp_path / "w.json", RUNNING_WEIGHT)
        x_path = write_json(tmp_path / "x.json", {"n": 2, "rows": rows})
        code, payload, err = run_cli(capsys, "qms", "--weight", w_path, "--x", x_path)
        assert code == 2 and payload is None
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


PHI = cli_inputs.PAYLOADS["functional.json"]
DEEP = "[" * 200_000 + "]" * 200_000


def matrix_cell(value):
    """The valid n = 2 matrix with the real part of entry (1, 2) set to value."""
    matrix = matrix_to_json(np.eye(4), 2)
    matrix["rows"][1][2][0] = value
    return matrix


# Each case: the subcommand and {flag: file content (bytes, text or JSON
# data)}; the other files the subcommand requires are valid.
BAD_INPUTS = {
    "apply-expr-not-utf8": ("apply", {"--expr": b"\xff\xfe{}"}),
    "simulate-theta-not-utf8": ("simulate", {"--theta": b"[0.5, \xff]"}),
    "apply-expr-too-deep": ("apply", {"--expr": DEEP}),
    "verify-weight-too-deep": ("verify", {"--weight": DEEP}),
    "norms-functional-a-list": ("norms", {"--functional": ["truncation"]}),
    "apply-functional-a-list": ("apply", {"--functional": ["truncation"]}),
    "fractional-ladder-index": ("apply", {"--expr": {"op": "annihilate", "k": 1.9}}),
    "fractional-subset-index": (
        "norms", {"--functional": {"truncation": 3, "coefficients": [[[1.7], 1.0, 0.0]]}}
    ),
    "bool-subset-index": (
        "norms", {"--functional": {"truncation": 3, "coefficients": [[[True], 1.0, 0.0]]}}
    ),
    "subset-index-past-truncation": (
        "norms", {"--functional": {"truncation": 3, "coefficients": [[[2**70], 1.0, 0.0]]}}
    ),
    "fractional-weight-index": (
        "verify", {"--weight": {"kind": "dense", "entries": [[0.6, 1.2, 2.0]]}}
    ),
    "fractional-diag1d-index": (
        "qms", {"--weight": {"kind": "diag1d", "entries": [[0.5, 1.0]]}}
    ),
    "expression-too-deep": (
        "apply", {"--expr": '{"op": "sum", "args": [' * 300 + '{"op": "zero"}' + "]}" * 300}
    ),
    "thetas-not-a-list": ("simulate", {"--theta": {"thetas": 0.5}}),
    "matrix-int-past-float": ("qms", {"--x": matrix_cell(10**400)}),
}
VALID = {"--expr": "expr.json", "--functional": "functional.json", "--weight": "dense.json",
         "--x": "x.json"}
REQUIRED = {
    "apply": ["--expr", "--functional"], "norms": ["--functional"], "qms": ["--weight", "--x"]
}


def write_input(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


def input_argv(tmp_path, command, files):
    """argv for command at n = 3, with files written for its flags and the
    table's valid inputs for the required flags that files leaves out."""
    argv = [command, "--n", "3"] if command in ("verify", "simulate") else [command]
    for flag in dict.fromkeys(REQUIRED.get(command, []) + list(files)):
        content = files.get(flag, cli_inputs.PAYLOADS.get(VALID.get(flag)))
        argv += [flag, write_input(tmp_path / f"{flag[2:]}.json", content)]
    return argv


@pytest.mark.parametrize("case", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
def test_bad_input_is_one_error_line(tmp_path, capsys, case):
    command, files = case
    code, payload, err = run_cli(capsys, *input_argv(tmp_path, command, files))
    assert code == 2 and payload is None
    assert_one_error_line(err)


def coefficient(value):
    return {"truncation": 3, "coefficients": [[[1], value, 0.0]]}


# a number given as a JSON string, boolean or null, which float() or numpy
# would take, and a part of its error, which names the field and, where
# given, spells the value as JSON does
QUOTED_NUMBERS = {
    "norms-coefficient-string": (
        "norms", {"--functional": coefficient("1.0")},
        'coefficient at [1]: re must be a number, got "1.0"',
    ),
    "norms-coefficient-true": (
        "norms", {"--functional": coefficient(True)},
        "coefficient at [1]: re must be a number, got true",
    ),
    "norms-coefficient-null": (
        "norms", {"--functional": coefficient(None)},
        "coefficient at [1]: re must be a number, got null",
    ),
    "verify-dense-entry": (
        "verify", {"--weight": {"kind": "dense", "entries": [[0, 1, "2.0"]]}},
        "weight value at (0, 1)",
    ),
    "verify-dense-entry-null": (
        "verify", {"--weight": {"kind": "dense", "entries": [[0, 1, None]]}},
        "weight value at (0, 1) must be a number, got null",
    ),
    "verify-diag1d-entry": (
        "verify", {"--weight": {"kind": "diag1d", "entries": [[0, "2.0"]]}}, "weight value at 0"
    ),
    "qms-dense-entry": (
        "qms", {"--weight": {"kind": "dense", "entries": [[0, 1, True]]}}, "weight value at (0, 1)"
    ),
    "apply-scale-factor": (
        "apply", {"--expr": {"op": "scale", "c": ["2", "1e2"], "arg": {"op": "identity"}}}, "'c'"
    ),
    "simulate-theta": ("simulate", {"--theta": ["0.5", 0.5, 0.5]}, "theta"),
    "simulate-theta-false": (
        "simulate", {"--theta": [False, 0.5, 0.5]}, "theta must be a number, got false"
    ),
    "qms-x-string": (
        "qms", {"--x": matrix_cell("1.5")}, 'rows[1] must hold numbers only, got "1.5"'
    ),
    "qms-x-true": ("qms", {"--x": matrix_cell(True)}, "rows[1] must hold numbers only, got true"),
    "qms-hamiltonian-null": (
        "qms", {"--hamiltonian": matrix_cell(None)}, "rows[1] must hold numbers only, got null"
    ),
}


@pytest.mark.parametrize("case", list(QUOTED_NUMBERS.values()), ids=list(QUOTED_NUMBERS))
def test_a_quoted_number_is_one_error_line_naming_its_field(tmp_path, capsys, case):
    command, files, text = case
    code, payload, err = run_cli(capsys, *input_argv(tmp_path, command, files))
    assert code == 2 and payload is None
    assert_one_error_line(err)
    assert text in err


def matrix_row(row):
    """The valid n = 2 matrix with row 1 replaced."""
    matrix = matrix_to_json(np.eye(4), 2)
    matrix["rows"][1] = row
    return matrix


# a value of the wrong shape or kind, and the whole message, which spells it
# as JSON does (null, not None; true, not True)
JSON_SPELLED = {
    "norms-coefficient-short": (
        "norms", {"--functional": {"truncation": 3, "coefficients": [[[1], None]]}},
        "coefficient [[indices], re, im] must be a list of 3 items, got [[1], null]",
    ),
    "norms-subset-null": (
        "norms", {"--functional": {"truncation": 3, "coefficients": [[None, 1, 0]]}},
        "subset indices must be a list, got null",
    ),
    "verify-diag1d-entry-long": (
        "verify", {"--weight": {"kind": "diag1d", "entries": [[0, True, None]]}},
        "diag1d entry [k, value] must be a list of 2 items, got [0, true, null]",
    ),
    # a long value is cut after 80 characters, so the line stays short
    "verify-weight-a-long-list": (
        "verify", {"--weight": [[0, 1, 2.0]] * 1000},
        "weight JSON must be an object, got " + json.dumps([[0, 1, 2.0]] * 10)[:80] + "...",
    ),
    "verify-kind-null": (
        "verify", {"--weight": {"kind": None}}, "expected kind 'dense' or 'diag1d', got null"
    ),
    "verify-entries-not-a-list": (
        "verify", {"--weight": {"kind": "dense", "entries": 5}},
        "dense entries must be a list, got 5",
    ),
    "verify-dense-index-a-list": (
        "verify", {"--weight": {"kind": "dense", "entries": [[[0], 1, 1.0]]}},
        "dense entry index must be an integer, got [0]",
    ),
    "verify-column-sums-null": (
        "verify", {"--weight": {"kind": "dense", "entries": [], "column_sums": None}},
        "column_sums must be 'from_entries' or a mapping, got null",
    ),
    "apply-scale-factor-null": (
        "apply", {"--expr": {"op": "scale", "c": [None, 1], "arg": {"op": "identity"}}},
        "scale factor 'c': re must be a number, got null",
    ),
    "apply-args-null": (
        "apply", {"--expr": {"op": "sum", "args": None}},
        "'args' of operator 'sum' must be a list, got null",
    ),
    "apply-op-null": ("apply", {"--expr": {"op": None}}, "unknown operator kind null"),
    "qms-x-ragged-row": (
        "qms", {"--x": matrix_row([[0, 0], 7])},
        "matrix JSON rows[1] must be 4 [re, im] pairs, got [[0, 0], 7]",
    ),
}


@pytest.mark.parametrize("case", list(JSON_SPELLED.values()), ids=list(JSON_SPELLED))
def test_a_rejected_value_is_spelled_as_json(tmp_path, capsys, case):
    command, files, text = case
    code, payload, err = run_cli(capsys, *input_argv(tmp_path, command, files))
    assert code == 2 and payload is None
    assert err == f"error: {text}\n"


def test_missing_field_is_named(tmp_path, capsys):
    e_path = write_json(tmp_path / "expr.json", {"op": "gwn"})
    f_path = write_json(tmp_path / "phi.json", PHI)
    code, _, err = run_cli(capsys, "apply", "--expr", e_path, "--functional", f_path)
    assert code == 2
    assert err == "error: operator 'gwn' requires a 'weight' field\n"


@pytest.mark.parametrize("c", ["NaN", "Infinity"])
@pytest.mark.parametrize(
    "phi", [{"truncation": 3, "coefficients": []}, PHI], ids=["empty", "nonempty"]
)
def test_non_finite_scale_factor_is_one_error_line(tmp_path, capsys, c, phi):
    e_path = tmp_path / "expr.json"
    e_path.write_text(f'{{"op": "scale", "c": [{c}, 0], "arg": {{"op": "identity"}}}}')
    f_path = write_json(tmp_path / "phi.json", phi)
    code, payload, err = run_cli(capsys, "apply", "--expr", str(e_path), "--functional", f_path)
    assert code == 2 and payload is None
    assert_one_error_line(err)
    assert "'c'" in err


def outside_timing(payload):
    return {key: value for key, value in payload.items() if key != "timing"}


BAD_FLAGS = {
    "not-an-int": ["simulate", "--n", "abc"],
    "unknown-flag": ["simulate", "--bogus"],
    "missing-required-flag": ["apply", "--expr", "expr.json"],
    "unknown-subcommand": ["frobnicate"],
    "no-subcommand": [],
}


@pytest.mark.parametrize("argv", list(BAD_FLAGS.values()), ids=list(BAD_FLAGS))
def test_bad_flag_is_one_error_line(capsys, argv):
    # main returns 2 itself: argparse's usage block and SystemExit(2) never
    # reach the caller
    code, payload, err = run_cli(capsys, *argv)
    assert code == 2 and payload is None
    assert_one_error_line(err)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["simulate", "--help"])
    captured = capsys.readouterr()
    assert exited.value.code == 0
    assert captured.out.startswith("usage: chaoscalc simulate") and captured.err == ""


def test_repeated_calls_leak_no_state(tmp_path, capsys):
    # main parses every call with the one parser built at import, so no call
    # may leave a default, an appended list or an error behind for the next
    f_path = write_json(tmp_path / "phi.json", PHI)
    exact = ["simulate", "--n", "4", "--theta", "0.3"]
    code, first_exact, _ = run_cli(capsys, *exact)
    assert code == 0

    code, payload, _ = run_cli(capsys, "norms", "--functional", f_path, "--p", "3")
    assert code == 0 and [row["p"] for row in payload["norms"]] == [3.0]
    code, payload, _ = run_cli(capsys, "norms", "--functional", f_path)
    assert code == 0 and [row["p"] for row in payload["norms"]] == [0.0, 1.0, 2.0]

    code, first_verify, _ = run_cli(capsys, "verify", "--n", "3")
    assert code == 0
    code, payload, _ = run_cli(capsys, "verify", "--n", "3", "--only", "car")
    assert code == 0 and len(payload["checks"]) < len(first_verify["checks"])
    code, payload, _ = run_cli(capsys, "verify", "--n", "3")
    assert code == 0 and payload["config"]["only"] is None
    assert outside_timing(payload) == outside_timing(first_verify)

    assert run_cli(capsys, "simulate", "--n", "abc")[0] == 2
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    code, payload, _ = run_cli(capsys, *exact)
    assert code == 0 and outside_timing(payload) == outside_timing(first_exact)

    code, sampled, _ = run_cli(capsys, "simulate", "--n", "4", "--samples", "1000")
    assert code == 0 and sampled["mode"] == "monte-carlo"
    code, payload, _ = run_cli(capsys, *exact)
    assert code == 0 and outside_timing(payload) == outside_timing(first_exact)


def test_main_builds_no_parser_per_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["simulate", "--n", "3", "--out", os.devnull]) == 0


def test_out_of_memory_while_parsing_is_one_error_line(monkeypatch, capsys):
    def no_memory(argv):
        raise MemoryError

    monkeypatch.setattr(cli.PARSER, "parse_args", no_memory)
    code, payload, err = run_cli(capsys, "simulate", "--n", "3")
    assert code == 2 and payload is None
    assert err == "error: chaoscalc ran out of memory\n"
