"""The stacked literal route of the matrix families against a per-k oracle.

car, hop, the three commutation families and the l2 lemmas stack their per-k
operands and read each k's residual off a row block. The oracle below makes
the same comparisons one k (or one pair) at a time, on unstacked matrices,
in the order the families once looped; every residual, and every control's,
must come out equal as floats, not merely close.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscalc import verifier
from chaoscalc.operators import (
    annihilate,
    create,
    gwn_expr,
    hop_apply,
    hop_expr,
    l2_annihilate,
    l2_create,
    l2_wn1d_apply,
    l2_wn_apply,
    materialize,
    materialize_apply,
    number,
    occupation,
    wn1d_expr,
)
from chaoscalc.reports import perturbed, residual
from chaoscalc.weights import Weight1D, Weight2D


def ladders(n):
    return (
        [materialize(annihilate(k), n) for k in range(n)],
        [materialize(create(k), n) for k in range(n)],
    )


def control(lhs, rhs):
    return residual(perturbed(lhs), rhs)


def oracle_car(n):
    a, c = ladders(n)
    eye = sp.identity(1 << n, dtype=complex, format="csr")
    masks = np.arange(1 << n)
    equal_time = [(c[k] @ a[k] + a[k] @ c[k], eye) for k in range(n)]
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    mixed = [residual(c[j] @ a[k], a[k] @ c[j]) for j, k in pairs]
    mixed += [residual(c[k] @ a[j], a[j] @ c[k]) for j, k in pairs]
    return [
        max(residual(lhs, rhs) for lhs, rhs in equal_time),
        max(max(residual(a[k] @ a[k], 0.0), residual(c[k] @ c[k], 0.0)) for k in range(n)),
        max([residual(a[j] @ a[k], a[k] @ a[j]) for j, k in pairs], default=0.0),
        max([residual(c[j] @ c[k], c[k] @ c[j]) for j, k in pairs], default=0.0),
        max(mixed, default=0.0),
        max(
            residual(
                materialize(occupation(k), n),
                sp.diags((masks >> k & 1).astype(complex), format="csr"),
            )
            for k in range(n)
        ),
        max(residual(a[k].T.tocsr(), c[k]) for k in range(n)),
        control(*equal_time[0]),
    ]


def oracle_hop(n):
    masks = np.arange(1 << n)
    closed_res, symbol_res = [], []
    for j in range(n):
        for k in range(n):
            closed = materialize_apply(lambda f: hop_apply(j, k, f), n)
            literal = materialize(hop_expr(j, k), n)
            if j == k == 0:
                first = (closed, literal)
            closed_res.append(residual(closed, literal))
            symbol = (masks >> k & 1) & (1 if j == k else 1 - (masks >> j & 1))
            symbol_res.append(residual(closed, sp.diags(symbol.astype(complex), format="csr")))
    return [max(closed_res), max(symbol_res), control(*first)]


def oracle_commutation_2d(w, n):
    a, c = ladders(n)
    big_k = materialize(gwn_expr(w), n)
    sides_a, res_c, res_occ = [], [], []
    for k in range(n):
        row = materialize(wn1d_expr(w.row_slice(k)), n)
        col = materialize(wn1d_expr(w.col_slice(k)), n)
        scal_a = 2.0 * w(k, k) + w.colsum(k)
        sides_a.append((big_k @ a[k], a[k] @ big_k + a[k] @ row + a[k] @ col - scal_a * a[k]))
        rhs_c = c[k] @ big_k - c[k] @ row - c[k] @ col + w.colsum(k) * c[k]
        res_c.append(residual(big_k @ c[k], rhs_c))
        occ_k = c[k] @ a[k]
        res_occ.append(residual(big_k @ occ_k, occ_k @ big_k))
    return [
        max(residual(lhs, rhs) for lhs, rhs in sides_a),
        max(res_c),
        max(res_occ),
        control(*sides_a[0]),
    ]


def oracle_commutation_1d(u, n):
    a, c = ladders(n)
    nu = materialize(wn1d_expr(u), n)
    sides_a = [(nu @ a[k], a[k] @ nu - u(k) * a[k]) for k in range(n)]
    return [
        max(residual(lhs, rhs) for lhs, rhs in sides_a),
        max(residual(nu @ c[k], c[k] @ nu + u(k) * c[k]) for k in range(n)),
        max(residual(nu @ (c[k] @ a[k]), (c[k] @ a[k]) @ nu) for k in range(n)),
        control(*sides_a[0]),
    ]


def oracle_commutation_number(n):
    a, c = ladders(n)
    nn = materialize(number(), n)
    sides_a = [(nn @ a[k], a[k] @ nn - a[k]) for k in range(n)]
    return [
        max(residual(lhs, rhs) for lhs, rhs in sides_a),
        max(residual(nn @ c[k], c[k] @ nn + c[k]) for k in range(n)),
        control(*sides_a[0]),
    ]


def oracle_l2(w, u, n):
    eye = sp.identity(1 << n, dtype=complex, format="csr")
    d = [materialize_apply(lambda f, k=k: l2_annihilate(k, f), n) for k in range(n)]
    ds = [materialize_apply(lambda f, k=k: l2_create(k, f), n) for k in range(n)]
    s_w = materialize_apply(lambda f: l2_wn_apply(w, f), n)
    n_u = materialize_apply(lambda f: l2_wn1d_apply(u, f), n)
    sides_wa, res_wc = [], []
    for k in range(n):
        row = materialize_apply(lambda f: l2_wn1d_apply(w.row_slice(k), f), n)
        col = materialize_apply(lambda f: l2_wn1d_apply(w.col_slice(k), f), n)
        scal = 2.0 * w(k, k) + w.colsum(k)
        sides_wa.append((s_w @ d[k], d[k] @ s_w + d[k] @ row + d[k] @ col - scal * d[k]))
        rhs_c = ds[k] @ s_w - ds[k] @ row - ds[k] @ col + w.colsum(k) * ds[k]
        res_wc.append(residual(s_w @ ds[k], rhs_c))
    return [
        max(residual(ds[k] @ d[k] + d[k] @ ds[k], eye) for k in range(n)),
        max(residual(n_u @ d[k], d[k] @ n_u - u(k) * d[k]) for k in range(n)),
        max(residual(n_u @ ds[k], ds[k] @ n_u + u(k) * ds[k]) for k in range(n)),
        max(residual(lhs, rhs) for lhs, rhs in sides_wa),
        max(res_wc),
        control(*sides_wa[0]),
    ]


def families(w, u, n):
    """(family call, oracle call) of the six stacked families."""
    return {
        "car": (lambda: verifier.check_car(n), lambda: oracle_car(n)),
        "hop": (lambda: verifier.check_hop(n), lambda: oracle_hop(n)),
        "commutation-2d": (
            lambda: verifier.check_commutation_2d(w, n),
            lambda: oracle_commutation_2d(w, n),
        ),
        "commutation-1d": (
            lambda: verifier.check_commutation_1d(u, n),
            lambda: oracle_commutation_1d(u, n),
        ),
        "commutation-number": (
            lambda: verifier.check_commutation_number(n),
            lambda: oracle_commutation_number(n),
        ),
        "l2": (lambda: verifier.check_l2_lemmas(w, u, n), lambda: oracle_l2(w, u, n)),
    }


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    # seeded draws: random weights with messy values, on which a regrouped
    # sum or a shared normalization moves the last bits of a residual
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 7.3, 1e3]))
    rnd = verifier.random_weight2d(rng, n)
    w = draw(
        st.sampled_from(
            [
                Weight2D.zero(),
                Weight2D.from_weight1d(Weight1D.constant(1.0, n)),
                Weight2D({key: scale * v for key, v in rnd.entries.items()}),
            ]
        )
    )
    u = Weight1D({k: scale * v for k, v in verifier.random_weight1d(rng, n).values.items()})
    # a stack of one, two or three blocks, or the module's own budget
    blocks = draw(st.sampled_from([None, 1, 2, 3]))
    return w, u, n, blocks


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_stacked_residuals_equal_the_per_k_oracle(case):
    w, u, n, blocks = case
    with pytest.MonkeyPatch.context() as mp:
        if blocks is not None:
            mp.setattr(verifier, "_STACK_ROWS", blocks << n)
        for family, (call, oracle) in families(w, u, n).items():
            assert [r.residual for r in call()] == oracle(), family


@pytest.mark.parametrize("blocks", [1, 3])
def test_chunking_is_invisible_in_the_reports(monkeypatch, blocks):
    # one block a stack is the loop over k; three leave a short last stack
    n = 5
    w = verifier.random_weight2d(np.random.default_rng(5), 4)
    u = verifier.random_weight1d(np.random.default_rng(6), 4)
    default = {name: call() for name, (call, _) in families(w, u, n).items()}
    monkeypatch.setattr(verifier, "_STACK_ROWS", blocks << n)
    assert verifier._chunks(range(n), n)[0] == list(range(blocks))
    for name, (call, _) in families(w, u, n).items():
        assert call() == default[name], name
