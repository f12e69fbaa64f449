"""Every check can fail: a slip table per check family.

Each row names a small, plausible slip in one ``src/`` function (a sign, an
index, a dropped term, a 1e-9 factor) and the exact set of the family's
checks that fail under it. A check name that no plausible slip fails goes
in ``BLUNT`` with its reason, as ``tests/test_reach.py``'s ``UNREACHED``
does for code; a check in neither fails the test, so a new check arrives
with its slip. The car and hop slice lives in ``tests/test_verifier.py``
and the qms slice in ``tests/test_qms.py``; this file holds the
representation family.
"""
from __future__ import annotations

import sys

import pytest

import chaoscalc
from chaoscalc import operators, verifier
from chaoscalc.functionals import Functional
from chaoscalc.reports import CHECK
from chaoscalc.weights import Weight2D


def rebind(monkeypatch, original, replacement) -> int:
    """Patch every ``chaoscalc.*`` attribute that is ``original``.

    Modules bind kernels with ``from .x import f``, so a slip patched only
    where it is defined misses the other names. Returns how many bindings
    were patched.
    """
    hits = 0
    for name, module in list(sys.modules.items()):
        if name != "chaoscalc" and not name.startswith("chaoscalc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                hits += 1
    assert hits, f"{original.__name__} is bound nowhere in chaoscalc"
    return hits


def test_rebind_reaches_every_binding(monkeypatch):
    def stand_in(j, k, phi):
        return phi

    assert rebind(monkeypatch, operators.hop_apply, stand_in) >= 3
    assert operators.hop_apply is verifier.hop_apply is chaoscalc.hop_apply is stand_in


def _first_entry_skewed(kernel):
    def skewed(*args):
        out = kernel(*args)
        values = out.values.copy()
        values[:1] *= 1 + 1e-9
        return Functional._from_arrays(out.masks, values, out.truncation)

    return skewed


def _terms_subtracted(w, phi, m, f=operators.series_partial_2d):
    return -1.0 * f(w, phi, m)


def _dropping_last_entry(w, xi, f=operators.l2_series_2d):
    return f(Weight2D(dict(sorted(w.entries.items())[:-1])), xi)


def _cutoff_one_past(w, phi, m, f=operators.series_partial_2d):
    return f(w, phi, min(m + 1, phi.truncation))


# slip name -> ({original: replacement}, the exact representation checks
# that fail in run_all(n, only=["representation"]) at n = 4 and 6)
REPRESENTATION_SLIPS = {
    "hop-gate-ignoring-j": (
        {operators.hop_apply: lambda j, k, phi, f=operators.hop_apply: f(k, k, phi)},
        {"gwn-series"},
    ),
    # hop(k, k) is each 1D series' term, so both 1D series read the skew
    "hop-skewed-at-first-entry": (
        {operators.hop_apply: _first_entry_skewed(operators.hop_apply)},
        {"gwn-series", "number-series", "wn1d-series"},
    ),
    # total - v * hop for total + v * hop: the 1D series are 2D series too
    "series-terms-subtracted": (
        {operators.series_partial_2d: _terms_subtracted},
        {"gwn-series", "gwn-series-monotone", "number-series", "wn1d-series"},
    ),
    "l2-series-dropping-last-entry": (
        {operators.l2_series_2d: _dropping_last_entry}, {"l2-wn-series"}
    ),
    "number-apply-skewed": (
        {operators.number_apply: _first_entry_skewed(operators.number_apply)},
        {"number-series"},
    ),
    # below the support bound the sum at m takes the terms of m + 1, which
    # gwn-series compares with the operator of the weight truncated at m; one
    # more term of a nonnegative weight keeps the diagonal monotone
    "series-cutoff-one-past": (
        {operators.series_partial_2d: _cutoff_one_past}, {"gwn-series"}
    ),
}

# check name -> why no plausible slip fails it
BLUNT: dict = {}


def _failed(n):
    reports, _ = verifier.run_all(n=n, only=["representation"])
    return {r.name for r in reports if not r.ok}


@pytest.mark.parametrize("slip", sorted(REPRESENTATION_SLIPS))
def test_each_representation_slip_fails_its_checks(monkeypatch, slip):
    patches, fails = REPRESENTATION_SLIPS[slip]
    for original, replacement in patches.items():
        rebind(monkeypatch, original, replacement)
    for n in (4, 6):
        assert _failed(n) == fails, n


def test_every_representation_check_fails_under_a_slip_or_is_blunt():
    reports, _ = verifier.run_all(n=6, only=["representation"])
    names = {r.name for r in reports if r.kind == CHECK}
    killed = set().union(*(fails for _, fails in REPRESENTATION_SLIPS.values()))
    assert killed | set(BLUNT) == names
    assert not killed & set(BLUNT)

