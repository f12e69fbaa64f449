"""The stacked routes of the verifier against per-k and per-column oracles.

car, hop, the three commutation families and the l2 lemmas stack their per-k
matrix tables and read each k's residual off a block tag. The oracle below
makes the same comparisons one k (or one pair) at a time, with scipy CSR
products of unstacked matrices, in the order the families once looped; each
side goes into ``residual`` as an untagged matrix table. The riesz family
checks its intertwinings on the whole basis, one tagged table of basis
columns a stack, and reads each column's residual off its tag; its oracle
compares one untagged column at a time, and its pairing one probe at a
time. riesz and functional-invariant draw each stack's probes straight into
one tagged table; their oracles draw and check one probe at a time, as the
families once did. spectral-shift and weight-invariant compare every k's
equal-length arrays as row blocks of one residual; their oracle compares one
k at a time. Every residual, and every control's, must come out equal
as floats, not merely close.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscalc import verifier
from chaoscalc.basis import Subset, lam_at, lam_vector, lambda_series_partial
from chaoscalc.functionals import Functional, GrowthBound, riesz_embed
from chaoscalc.operators import (
    annihilate,
    create,
    gwn_expr,
    hop_apply,
    l2_annihilate,
    l2_create,
    l2_wn1d_apply,
    l2_wn_apply,
    materialize,
    materialize_apply,
    number,
    wn1d_expr,
)
from chaoscalc.reports import SplitMix64, excess, perturbed, residual, uniform_draws
from chaoscalc.weights import Weight1D, Weight2D


def ladders(n):
    return (
        [materialize(annihilate(k), n) for k in range(n)],
        [materialize(create(k), n) for k in range(n)],
    )


def table(matrix) -> Functional:
    """A square CSR matrix as a matrix table: entry (r, c) under mask
    ``(c << n) | r`` at truncation 2n, stored zeros left out."""
    coo = sp.coo_matrix(matrix)
    coo.sum_duplicates()
    n = coo.shape[0].bit_length() - 1
    keep = coo.data != 0
    masks = coo.col[keep].astype(np.int64) << n | coo.row[keep]
    order = np.argsort(masks)
    return Functional._from_arrays(masks[order], coo.data[keep][order].astype(complex), 2 * n)


def compare(lhs, rhs):
    return residual(table(lhs), table(rhs))


def control(lhs, rhs):
    return residual(perturbed(lhs), rhs)


def oracle_car(n):
    a, c = ladders(n)
    eye = sp.identity(1 << n, dtype=complex, format="csr")
    nothing = sp.csr_matrix((1 << n, 1 << n), dtype=complex)
    masks = np.arange(1 << n)
    equal_time = [(c[k] @ a[k] + a[k] @ c[k], eye) for k in range(n)]
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    mixed = [compare(c[j] @ a[k], a[k] @ c[j]) for j, k in pairs]
    mixed += [compare(c[k] @ a[j], a[j] @ c[k]) for j, k in pairs]
    return [
        max(compare(lhs, rhs) for lhs, rhs in equal_time),
        max(max(compare(a[k] @ a[k], nothing), compare(c[k] @ c[k], nothing)) for k in range(n)),
        max([compare(a[j] @ a[k], a[k] @ a[j]) for j, k in pairs], default=0.0),
        max([compare(c[j] @ c[k], c[k] @ c[j]) for j, k in pairs], default=0.0),
        max(mixed, default=0.0),
        max(
            compare(
                c[k] @ a[k],
                sp.diags((masks >> k & 1).astype(complex), format="csr"),
            )
            for k in range(n)
        ),
        max(compare(a[k].T.tocsr(), c[k]) for k in range(n)),
        control(*map(table, equal_time[0])),
    ]


def oracle_hop(n):
    a, c = ladders(n)
    masks = np.arange(1 << n)
    closed_res, symbol_res = [], []
    for j in range(n):
        for k in range(n):
            closed = materialize_apply(lambda f: hop_apply(j, k, f), n)
            literal = c[k] @ a[j] @ c[j] @ a[k]  # the factor order of hop_expr
            if j == k == 0:
                first = (closed, literal)
            closed_res.append(compare(closed, literal))
            symbol = (masks >> k & 1) & (1 if j == k else 1 - (masks >> j & 1))
            symbol_res.append(compare(closed, sp.diags(symbol.astype(complex), format="csr")))
    return [max(closed_res), max(symbol_res), control(*map(table, first))]


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
        res_c.append(compare(big_k @ c[k], rhs_c))
        occ_k = c[k] @ a[k]
        res_occ.append(compare(big_k @ occ_k, occ_k @ big_k))
    return [
        max(compare(lhs, rhs) for lhs, rhs in sides_a),
        max(res_c),
        max(res_occ),
        control(*map(table, sides_a[0])),
    ]


def oracle_commutation_1d(u, n):
    a, c = ladders(n)
    nu = materialize(wn1d_expr(u), n)
    sides_a = [(nu @ a[k], a[k] @ nu - u(k) * a[k]) for k in range(n)]
    return [
        max(compare(lhs, rhs) for lhs, rhs in sides_a),
        max(compare(nu @ c[k], c[k] @ nu + u(k) * c[k]) for k in range(n)),
        max(compare(nu @ (c[k] @ a[k]), (c[k] @ a[k]) @ nu) for k in range(n)),
        control(*map(table, sides_a[0])),
    ]


def oracle_commutation_number(n):
    a, c = ladders(n)
    nn = materialize(number(), n)
    sides_a = [(nn @ a[k], a[k] @ nn - a[k]) for k in range(n)]
    return [
        max(compare(lhs, rhs) for lhs, rhs in sides_a),
        max(compare(nn @ c[k], c[k] @ nn + c[k]) for k in range(n)),
        control(*map(table, sides_a[0])),
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
        res_wc.append(compare(s_w @ ds[k], rhs_c))
    return [
        max(compare(ds[k] @ d[k] + d[k] @ ds[k], eye) for k in range(n)),
        max(compare(n_u @ d[k], d[k] @ n_u - u(k) * d[k]) for k in range(n)),
        max(compare(n_u @ ds[k], ds[k] @ n_u + u(k) * ds[k]) for k in range(n)),
        max(compare(lhs, rhs) for lhs, rhs in sides_wa),
        max(res_wc),
        control(*map(table, sides_wa[0])),
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


def oracle_index_shifts(w, u, n):
    """spectral-shift's and count-additive's residuals, one k at a time."""
    masks = np.arange(1 << n, dtype=np.int64)
    theta, count = w.theta_vector(n), u.count_vector(n)
    add, remove, additive = [], [], []
    for k in range(n):
        bit = 1 << k
        row_count = w.row_slice(k).count_vector(n)
        col_count = w.col_slice(k).count_vector(n)
        outside, inside = (masks & bit) == 0, (masks & bit) != 0
        add.append(
            (theta[masks[outside] | bit], (theta - row_count - col_count + w.colsum(k))[outside])
        )
        shifted = theta + row_count + col_count - 2.0 * w(k, k) - w.colsum(k)
        remove.append(residual(theta[masks[inside] ^ bit], shifted[inside]))
        additive.append(residual(count[masks[outside] | bit], count[outside] + u(k)))
    return {
        "spectral-shift-add": max(residual(*sides) for sides in add),
        "spectral-shift-remove": max(remove),
        "spectral-shift-negative-control": control(*add[0]),
        "count-additive": max(additive),
    }


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_stacked_index_shifts_equal_the_per_k_oracle(case):
    # spectral-shift and weight-invariant compare every k in one residual
    # over n row blocks; at scale 1e3 the shifts read nonzero residuals
    w, u, n, _ = case
    reports = verifier.check_spectral_shifts(w, n) + verifier.check_weight_invariants(w, u, n)
    oracle = oracle_index_shifts(w, u, n)
    assert {r.name: r.residual for r in reports if r.name in oracle} == oracle


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


def oracle_riesz(w, n, trials, seed):
    """The riesz comparisons one untagged table at a time, through the
    transform-side kernels ``verifier`` calls: each basis column c alone,
    holding the z_c drawn after the probes, for the intertwinings, and each
    probe alone for the pairing and the control. Each probe is its own draw
    from the seed's stream."""
    rng = SplitMix64(seed)
    probes = [verifier._probes(rng, n) for _ in range(trials)]
    z = verifier._probes(rng, n)
    res_a, res_c, res_w = [], [], []
    for c, z_c in zip(z.masks.tolist(), z.values.tolist()):
        column = Functional({c: z_c}, n)
        embedded = riesz_embed(column)
        for k in range(n):
            lhs = riesz_embed(l2_annihilate(k, column))
            res_a.append(residual(lhs, verifier.apply_annihilate(k, embedded)))
            lhs = riesz_embed(l2_create(k, column))
            res_c.append(residual(lhs, verifier.apply_create(k, embedded)))
        lhs = riesz_embed(l2_wn_apply(w, column))
        res_w.append(residual(lhs, verifier.gwn_apply(w, embedded)))
    res_pair = [residual(riesz_embed(xi).pair(xi), xi.norm(0) ** 2) for xi in probes]
    first = probes[0]
    return [
        max(res_a),
        max(res_c),
        max(res_w),
        max(res_pair),
        control(
            riesz_embed(l2_annihilate(0, first)),
            verifier.apply_annihilate(0, riesz_embed(first)),
        ),
    ]


def skewed(kernel):
    """kernel with each output value scaled by 1 + 1e-9 * (sigma mod 5), sigma
    its low n bits: every column then reads its own nonzero residual."""

    def apply(*args):
        out = kernel(*args)
        low = out.masks & ((1 << out.truncation) - 1)
        return Functional._from_arrays(
            out.masks, out.values * (1 + 1e-9 * (low % 5)), out.truncation
        )

    return apply


TRANSFORM_KERNELS = ("apply_annihilate", "apply_create", "gwn_apply")


@st.composite
def riesz_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 7.3, 1e3]))
    # entries on the two indices above n too: a kernel that evaluated a
    # diagonal at the tagged masks would count the tag bits there
    rnd = verifier.random_weight2d(rng, n + 2)
    w = draw(
        st.sampled_from(
            [
                Weight2D.zero(),
                Weight2D.from_weight1d(Weight1D.constant(1.0, n + 2)),
                Weight2D({key: scale * v for key, v in rnd.entries.items()}),
            ]
        )
    )
    trials = draw(st.integers(min_value=1, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return w, n, trials, seed, draw(st.booleans())


# stack budgets in entries: one column or probe a stack; three columns (a
# short last stack) and one probe; three probes and every column; the default
@pytest.mark.parametrize(
    "rows", [lambda n: 1, lambda n: 3, lambda n: 3 << n, None],
    ids=["one-entry", "three-columns", "three-probes", "default"],
)
@settings(max_examples=20, deadline=None)
@given(case=riesz_cases())
def test_whole_basis_riesz_residuals_equal_the_per_column_oracle(rows, case):
    # skewed kernels make every intertwining residual nonzero and different
    # per column, so a table normalized as a whole would not match
    w, n, trials, seed, skew = case
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(verifier, "_STACK_ROWS", rows(n))
        if skew:
            for name in TRANSFORM_KERNELS:
                mp.setattr(verifier, name, skewed(getattr(verifier, name)))
        reports = verifier.check_riesz_intertwining(w, n, trials=trials, seed=seed)
        assert [r.residual for r in reports] == oracle_riesz(w, n, trials, seed)


def leaky(kernel):
    """kernel with its first output entry moved up into the next tag."""

    def apply(*args):
        out = kernel(*args)
        n, mask, value = out.truncation, out.masks[:1], out.values[:1]
        moved = Functional._from_arrays(mask + (1 << n), value, n)
        return out - Functional._from_arrays(mask, value, n) + moved

    return apply


@pytest.mark.parametrize(
    "kernel, name",
    [
        ("apply_annihilate", "riesz-intertwining-annihilate"),
        ("apply_create", "riesz-intertwining-create"),
        ("gwn_apply", "riesz-intertwining-wn"),
    ],
)
def test_a_kernel_leaking_into_the_next_tag_fails(monkeypatch, kernel, name):
    w = Weight2D.from_weight1d(Weight1D.constant(1.0, 4))
    monkeypatch.setattr(verifier, kernel, leaky(getattr(verifier, kernel)))
    reports = verifier.check_riesz_intertwining(w, 4, trials=5)
    assert [r.name for r in reports if not r.ok] == [name]


def growth_of_one(phi, bound):
    """(worst excess, its witness, dual norm one level up, cap) of one
    untagged table, written out as check_growth measured a single probe."""
    moduli = np.hypot(phi.values.real, phi.values.imag)
    over = moduli - bound.scale * lam_at(phi.masks) ** bound.order
    worst, witness = 0.0, None
    if len(over):
        i = int(np.argmax(over))
        if over[i] > 0:
            worst, witness = float(over[i]), Subset(int(phi.masks[i]))
    cap = bound.scale * math.sqrt(lambda_series_partial(2.0, phi.truncation))
    return worst, witness, phi.dual_norm(bound.order + 1), cap


def oracle_functional_invariants(n, trials, seed):
    """The functional-invariant comparisons one probe at a time, each probe
    drawn as its own untagged tables in the family's draw order: xi, phi,
    then the modulus and phase pairs of the bounded sample."""
    rng = SplitMix64(seed)
    lam_vec = lam_vector(n)
    grid = (0.0, 0.5, 1.0, 2.0)
    mono, dual, iso, cs, growth = [], [], [], [], []
    for _ in range(trials):
        xi = verifier._probes(rng, n)
        phi = verifier._probes(rng, n)
        polar = uniform_draws(rng, 1 << n, complex)
        sample = np.abs(polar.real) * np.exp(1j * np.pi * polar.imag)
        bounded = Functional.from_vector(2.0 * lam_vec * sample, n)
        worst, _, at_next, cap = growth_of_one(bounded, verifier.GrowthBound(2.0, 1.0))
        growth += [excess(worst, 0.0), excess(at_next, cap)]
        norms = [xi.norm(p) for p in grid]
        mono.append(excess(norms[:-1], norms[1:]))
        duals = [xi.dual_norm(p) for p in grid]
        dual.append(excess(duals[1:], duals[:-1]))
        embedded = verifier.riesz_embed(xi)
        lhs = np.array([embedded.dual_norm(p) for p in (0, 1, 2)])
        rhs = np.array([duals[0], duals[2], duals[3]])
        if not iso:
            first = lhs, rhs
        iso.append(residual(lhs, rhs))
        pairing = abs(phi.pair(xi))
        for p, norm in ((0, norms[0]), (1, norms[2])):
            cs.append(excess(pairing, phi.dual_norm(p) * norm))
    return [max(mono), max(dual), max(iso), max(cs), max(growth), control(*first)]


# stack budgets: one probe a stack, three probes a stack (a short last
# stack), the default (every probe in one stack at these n)
@pytest.mark.parametrize(
    "rows",
    [lambda n: 1 << n, lambda n: 3 << n, None],
    ids=["one-probe", "three-probes", "default"],
)
@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    trials=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    skew=st.booleans(),
)
def test_stacked_probe_residuals_equal_the_per_probe_oracle(rows, n, trials, seed, skew):
    # skewed, the conjugation misses each probe's isometry by its own amount
    # and the growth bound is a quarter of the one the probes meet, so the
    # growth and isometry residuals are nonzero and differ per probe
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(verifier, "_STACK_ROWS", rows(n))
        if skew:
            mp.setattr(verifier, "riesz_embed", skewed(riesz_embed))
            mp.setattr(verifier, "GrowthBound", lambda scale, order: GrowthBound(scale / 4, order))
        reports = verifier.check_functional_invariants(n, trials=trials, seed=seed)
        assert [r.residual for r in reports] == oracle_functional_invariants(n, trials, seed)
