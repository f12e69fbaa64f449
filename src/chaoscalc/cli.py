"""Command line front end.

Subcommands: verify (identity-check families), simulate (Bernoulli noise
Gram/moment checks), apply (operator expression to a functional), norms,
qms (generator application, sized by --x). Exit codes: 0 everything passed,
1 at least one genuine check failed, 2 bad input or no memory: a bad flag
(an unknown or missing flag or subcommand, or a value of the wrong type), a
file that is unreadable, not UTF-8 JSON, nested too deep or malformed
(the parser and the loaders raise ValueError), or a run out of memory;
:func:`main` alone turns either into one ``error:`` line and returns 2.
``--help`` prints help on stdout and exits 0. All reports are one line of
JSON with sorted keys; wall-clock data lives in a single "timing" field so that two
runs with the same config and seed agree byte for byte elsewhere.

The parser is built once, at import, as :data:`PARSER`; every :func:`main`
call parses with it. Its help text reads only module constants.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from .functionals import Functional
from .martingale import (
    _EXACT_VECTOR_CAP,
    _MC_BASIS_CAP,
    BernoulliParams,
    conditional_moments,
    gram_deviation,
    monte_carlo_gram,
)
from .operators import parse_expr
from .qms import GeneratorSpec, generator_apply, matrix_from_json, matrix_to_json
from .reports import TOLERANCE, all_ok, format_line, run_to_json, timing_json
from .verifier import FAMILY_NAMES, QMS_MAX_N, run_all
from .weights import Weight2D


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    # one line: with an indent, json.dumps falls back to its pure-Python encoder
    text = json.dumps(payload, sort_keys=True)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _say(message: str) -> None:
    # Human-readable progress goes to stderr so stdout stays valid JSON.
    print(message, file=sys.stderr)


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
    weight = Weight2D.from_json(_load_json(args.weight)) if args.weight else None
    reports, timings = run_all(n=args.n, seed=args.seed, only=only, weight_override=weight)
    for rep in reports:
        _say(format_line(rep))
    config = {
        "command": "verify",
        "n": args.n,
        "seed": args.seed,
        "only": only,
        "weight": args.weight,
    }
    payload = run_to_json(reports, config, timings)
    _emit(payload, args.out)
    bad = payload["counts"]["not_ok"]
    _say(f"{len(reports) - bad}/{len(reports)} checks ok")
    return 0 if all_ok(reports) else 1


_FLOAT_LITERAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _theta_params(raw: str, n: int) -> BernoulliParams:
    if _FLOAT_LITERAL.fullmatch(raw):
        return BernoulliParams.constant(float(raw), n)
    data = _load_json(raw)
    params = BernoulliParams.from_json({"thetas": data} if isinstance(data, list) else data)
    if params.n != n:
        raise ValueError(f"theta file provides {params.n} steps but --n is {n}")
    return params


def cmd_simulate(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
    params = _theta_params(args.theta, args.n)
    started = time.perf_counter()
    # a deviation that overflowed would read non-finite and fail, without
    # numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if args.samples is None:
            moments = conditional_moments(params)
            gram_dev = gram_deviation(params)
            passed = (
                gram_dev <= args.tol
                and moments.max_mean_dev <= args.tol
                and moments.max_second_dev <= args.tol
            )
            body = {"mode": "exact", "gram_deviation": gram_dev, "moments": moments.to_json()}
        else:
            gram, stderr = monte_carlo_gram(params, args.samples, args.seed)
            size = len(gram)
            gram[np.diag_indices(size)] -= 1.0
            dev = np.abs(gram, out=gram)
            slack = dev - 4.0 * stderr
            worst = int(np.argmax(slack))
            passed = bool(slack.flat[worst] <= 1e-12)
            body = {
                "mode": "monte-carlo",
                "samples": args.samples,
                "seed": args.seed,
                "max_deviation": float(dev.max()),
                "worst_entry": [worst // size, worst % size],
                "worst_excess_over_4se": float(slack.flat[worst]),
            }
    payload = {
        "command": "simulate",
        "thetas": list(params.thetas),
        "n": params.n,
        "passed": passed,
        "timing": timing_json({body["mode"]: time.perf_counter() - started}),
        **body,
    }
    _emit(payload, args.out)
    _say("simulate: pass" if passed else "simulate: FAIL")
    return 0 if passed else 1


def cmd_apply(args) -> int:
    expr = parse_expr(_load_json(args.expr))
    phi = Functional.from_json(_load_json(args.functional))
    # an overflow is reported below as one error, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        result = expr(phi)
    if not np.isfinite(result.values).all():
        raise ValueError("the result has a non-finite coefficient (overflow)")
    _emit({"command": "apply", **result.to_json()}, args.out)
    return 0


def cmd_norms(args) -> int:
    for p in args.p:
        if not math.isfinite(p):
            raise ValueError(f"--p must be finite, got {p}")
    phi = Functional.from_json(_load_json(args.functional))
    table = [
        {"p": p, "norm": phi.norm(p), "dual_norm": phi.dual_norm(p)} for p in args.p
    ]
    for row in table:
        if not (math.isfinite(row["norm"]) and math.isfinite(row["dual_norm"])):
            raise ValueError(
                f"the norms at p = {row['p']} overflow double precision; use a smaller |p|"
            )
    payload = {
        "command": "norms",
        "truncation": phi.truncation,
        "entries": len(phi.masks),
        "norms": table,
    }
    _emit(payload, args.out)
    return 0


def cmd_qms(args) -> int:
    weight = Weight2D.from_json(_load_json(args.weight))
    x, n = matrix_from_json(_load_json(args.x))
    ham = None
    if args.hamiltonian:
        ham, n_h = matrix_from_json(_load_json(args.hamiltonian))
        if n_h != n:
            raise ValueError(f"hamiltonian is sized for n = {n_h}, observable for n = {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        result = generator_apply(GeneratorSpec(weight, n, ham), x)
    if not np.isfinite(result).all():
        raise ValueError("the result has a non-finite entry (overflow or non-finite input)")
    _emit({"command": "qms", "result": matrix_to_json(result, n)}, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as ValueError, for :func:`main` to report,
    and reads every negative float literal, ``-1e-3`` too, as a value, not a
    flag; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher knows only the -1 and -.5 forms; this one
        # takes one minus sign before any _FLOAT_LITERAL without a sign
        self._negative_number_matcher = re.compile(rf"-(?![+-]){_FLOAT_LITERAL.pattern}\Z")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chaoscalc",
        description="Verification and simulation tools for the truncated chaotic calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="run identity-check families",
        description="Run the identity-check families. Each family fixes its own "
        f"tolerance. The qms family runs at min(n, {QMS_MAX_N}), because the "
        "generator acts on dense 2^n x 2^n observables.",
    )
    verify.add_argument(
        "--n", type=int, default=8, help="truncation level, at least 2 (default 8)"
    )
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument(
        "--only",
        action="append",
        metavar="FAMILY",
        help=f"restrict to families (repeatable, comma-separated); known: {', '.join(FAMILY_NAMES)}",
    )
    verify.add_argument("--weight", help="weight JSON file overriding the random fixtures")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser(
        "simulate",
        help="Bernoulli noise Gram and moment checks",
        description="Check that the Bernoulli basis is orthonormal and that each step "
        "has conditional mean 0 and second moment 1. Exact mode (the default) holds a "
        f"few vectors of 2^n values and handles n up to {_EXACT_VECTOR_CAP}; sampled "
        "mode (--samples) draws how often each of the 2^n outcomes occurs (2^n - 1 "
        "binomial draws, whatever --samples is) and weights one table of basis products "
        f"over the drawn outcomes by those counts; it handles n up to {_MC_BASIS_CAP}.",
    )
    simulate.add_argument("--theta", default="0.5", help='float literal or JSON file (default "0.5")')
    simulate.add_argument("--n", type=int, default=8)
    simulate.add_argument("--samples", type=int, help="Monte Carlo samples (default: exact)")
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument(
        "--tol",
        type=float,
        default=TOLERANCE,
        help=f"largest Gram and moment deviation that passes, exact mode only "
        f"(default {TOLERANCE:g}); sampled mode ignores it and allows 4 standard "
        "errors plus 1e-12 per entry",
    )
    simulate.add_argument("--out")
    simulate.set_defaults(func=cmd_simulate)

    apply_cmd = sub.add_parser("apply", help="apply an operator expression to a functional")
    apply_cmd.add_argument("--expr", required=True, help="operator expression JSON file")
    apply_cmd.add_argument("--functional", required=True, help="functional JSON file")
    apply_cmd.add_argument("--out")
    apply_cmd.set_defaults(func=cmd_apply)

    norms = sub.add_parser("norms", help="graded and dual norms of a functional")
    norms.add_argument("--functional", required=True)
    norms.add_argument("--p", type=float, nargs="+", default=(0.0, 1.0, 2.0))
    norms.add_argument("--out")
    norms.set_defaults(func=cmd_norms)

    qms = sub.add_parser("qms", help="apply the Lindblad-type generator to an observable")
    qms.add_argument("--weight", required=True)
    qms.add_argument("--x", required=True, help="observable matrix JSON file (sets the size)")
    qms.add_argument("--hamiltonian", help="optional Hamiltonian JSON (default: occupancy count)")
    qms.add_argument("--out")
    qms.set_defaults(func=cmd_qms)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = None
    try:
        args = PARSER.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        command = args.command if args else PARSER.prog
        at = f" at n = {args.n}" if hasattr(args, "n") else ""
        print(f"error: {command}{at} ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
