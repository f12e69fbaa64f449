"""The README's examples run as written.

The library quick tour prints what its comments say, and the weight,
functional and expression examples under "JSON formats" load with their
loaders.
"""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

from chaoscalc.functionals import Functional
from chaoscalc.operators import parse_expr
from chaoscalc.weights import Weight2D

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def section(title: str) -> str:
    """The README text from the heading ``title`` to the next heading."""
    start = README.index(f"\n{title}\n")
    following = re.search(r"\n##+ ", README[start + 1 :])
    return README[start : start + 1 + following.start()]


def test_quick_tour_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", section("## Library quick tour"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick tour", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    expected = {i: line.split("#", 1)[1].strip() for i, line in enumerate(prints) if "#" in line}
    assert expected == {0: "(5+0j)", 1: "4.0 0.25"}
    assert {i: printed[i] for i in expected} == expected


def test_json_format_examples_load():
    text = section("### JSON formats")
    weight, functional = (json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S))
    expression = json.loads(re.search(r'`(\{"op".*?\})`', text).group(1))
    w = Weight2D.from_json(weight)
    assert w.entries == {(0, 1): 2.0, (1, 1): 3.0} and w.alpha() == 5.0
    phi = Functional.from_json(functional)
    assert phi.truncation == 3 and phi.fock([0, 2]) == 0.5 - 0.5j
    # create at 0 after annihilate at 1 moves {1} to {0}
    psi = parse_expr(expression)(Functional.delta([1], 3))
    assert psi.fock([0]) != 0 and psi.fock([1]) == 0
