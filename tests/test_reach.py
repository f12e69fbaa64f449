"""Every function in the package is reached by a command, or is pinned here.

The five subcommands run in a fresh interpreter under ``sys.setprofile``,
installed before ``import chaoscalc`` so that work done at import counts,
on the command lines of ``cli_inputs`` plus one rejected input per size
cap, one JSON value of the wrong type and one ragged matrix, which reach
the helpers that only build error messages.
Every function or method defined in ``src/chaoscalc`` that no run entered,
dunders aside, must be one of ``UNREACHED``, each with the reason it stays.
A new function that no command reaches, or a pinned one that a command now
reaches, fails here.
"""
from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import chaoscalc
import cli_inputs

PACKAGE = pathlib.Path(chaoscalc.__file__).parent

UNREACHED = {
    # the paper's chaos expansion, to be checked by a verify family that
    # reads the ladders as its gradient and divergence
    "martingale.chaotic_expand": "the chaos expansion of a path functional",
    "martingale.reconstruct": "the inverse chaos expansion",
    "martingale._apply_steps": "the per-step Kronecker kernel of both expansions",
    # the library API that tests/test_acceptance.py calls
    "operators.materialize": "acceptance gate: the CSR matrix of an expression or a kernel",
    "operators.table_csr": "the one scipy boundary behind both CSR forms",
    "operators.hop_expr": "acceptance gate: the four-fold product as an expression",
    "martingale.exact_gram": "acceptance gate: the whole Gram, built in place",
    "martingale.BernoulliParams.cycling": "acceptance gate: cycling theta sequences",
    "verifier.random_functional": "acceptance-gate API: Gaussian probes from a numpy Generator",
    # the jump-operator oracle of the generator benchmark
    "qms.transfer_matrix": "the generator benchmark checks its output against it",
    # the README quick tour
    "functionals.Functional.fock": "the coefficient lookup of the quick tour",
    "basis.Subset.of": "an index list as a subset, as the quick tour passes [1]",
}

def defined_functions() -> dict:
    """``module.Qual.name`` of every function and method defined in the
    package, by (file name, first line of its code object)."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path.name, first)] = f"{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.", path)
    return found


def entered_functions(tmp_path) -> set:
    """(file name, first line) of every package function that the
    subcommands enter, from a fresh interpreter."""

    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    paths = cli_inputs.write(tmp_path)
    dense = paths["dense.json"]
    runs = [(0, {}, argv) for argv in cli_inputs.commands(paths)] + [
        # one rejected input per size cap
        (2, {}, ["verify", "--n", "21"]),
        (2, {"CHAOSCALC_MAX_N": "21"}, ["simulate", "--n", "21"]),
        (2, {}, ["simulate", "--n", "9", "--samples", "10"]),
        # a null theta, which the loader's error spells as JSON
        (2, {}, ["simulate", "--n", "3", "--theta", write("null.json", [None, 0.5, 0.5])]),
        # a matrix row numpy cannot read, which the loader names as JSON
        (2, {}, ["qms", "--weight", dense, "--x", write("ragged.json", {"n": 1, "rows": [
            [[0, 0], [0, 0]], [[0, 0], 7]]})]),
        # a bad flag value, which the parser's error method turns into ValueError
        (2, {}, ["simulate", "--n", "abc"]),
        (2, {"CHAOSCALC_MAX_N": "63"}, ["norms", "--functional", write(
            "wide.json", {"truncation": 63, "coefficients": []})]),
    ]
    script = textwrap.dedent(f"""
        import json, os, sys
        package = {str(PACKAGE)!r}
        entered = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                code = frame.f_code
                entered.add((os.path.basename(code.co_filename), code.co_firstlineno))

        sys.setprofile(profile)
        from chaoscalc.cli import main
        for code, env, argv in {runs!r}:
            os.environ.update(env)
            assert main(argv + ["--out", os.devnull]) == code, argv
            for key in env:
                del os.environ[key]
        sys.setprofile(None)
        print(json.dumps(sorted(entered)))
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1"}
    env.pop("CHAOSCALC_MAX_N", None)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    return {tuple(item) for item in json.loads(result.stdout.splitlines()[-1])}


def is_dunder(qualname: str) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def test_every_function_is_reached_or_pinned(tmp_path):
    defined = defined_functions()
    entered = entered_functions(tmp_path)
    unreached = {
        name for key, name in defined.items() if key not in entered and not is_dunder(name)
    }
    assert unreached == set(UNREACHED)


def test_all_lists_every_public_import_and_each_resolves():
    # ``from chaoscalc import *`` reads __all__: a stale name breaks it, and
    # a public name __init__ imports but does not list drops out of it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(chaoscalc.__all__)
    assert [name for name in chaoscalc.__all__ if not hasattr(chaoscalc, name)] == []
