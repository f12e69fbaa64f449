"""Fixtures shared by the library and CLI tests: negative controls (step
values that break the orthonormality of the Bernoulli basis, and sampled
draws that do not follow the product measure) and one memory probe."""
from __future__ import annotations

import tracemalloc

import pytest

from chaoscalc import martingale
from chaoscalc.martingale import BernoulliParams


@pytest.fixture
def scaled_plus_values(monkeypatch):
    """Every positive step value scaled by 1 + 1e-6."""
    plus_values = BernoulliParams.plus_values
    monkeypatch.setattr(
        BernoulliParams, "plus_values", lambda self: plus_values(self) * (1 + 1e-6)
    )


@pytest.fixture
def swapped_step(monkeypatch):
    """The positive and negative step values exchanged at step 2."""
    plus_values, minus_values = BernoulliParams.plus_values, BernoulliParams.minus_values

    def swapped_at_step_2(own, other):
        def values(self):
            out = own(self)
            out[2] = other(self)[2]
            return out
        return values

    monkeypatch.setattr(
        BernoulliParams, "plus_values", swapped_at_step_2(plus_values, minus_values)
    )
    monkeypatch.setattr(
        BernoulliParams, "minus_values", swapped_at_step_2(minus_values, plus_values)
    )


@pytest.fixture
def shifted_draws(monkeypatch):
    """Sampled atom counts with step 0 drawn at theta + 0.02, while the basis
    products keep the stated theta."""
    atom_counts = martingale._atom_counts

    def shifted(params, *args, **kwargs):
        thetas = (params.thetas[0] + 0.02, *params.thetas[1:])
        return atom_counts(BernoulliParams(thetas), *args, **kwargs)

    monkeypatch.setattr(martingale, "_atom_counts", shifted)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)``: the peak bytes traced while the
    call runs, its result included, and the result."""

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return peak
