"""Every check can fail: one slip table, ``SLIPS``, for every check family.

Each row patches a small, plausible slip into ``src/`` (a sign, an index, a
dropped term, a 1e-9 factor), keyed by qualified name, and names the exact
checks that fail under it, family by family. Under each slip every family
with rows runs alone at n = 4 and 6, qms also on the rnd0 and rnd1 weights
and car and hop also through ``check_car`` and ``check_hop``; a family the
row does not name must fail nothing. A check of such a family that no
plausible slip fails sits in ``BLUNT`` with its reason, as
``tests/test_reach.py``'s ``UNREACHED`` does for code, so a new check
arrives with its slip. ``LEFT`` names the families with no rows yet; a new
family adds rows, not a harness.
"""
from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest

import chaoscalc
from chaoscalc import operators, qms, verifier
from chaoscalc.basis import popcount_at
from chaoscalc.functionals import Functional
from chaoscalc.reports import CHECK
from chaoscalc.weights import Weight1D, Weight2D


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


def slip_in(monkeypatch, patches: dict) -> None:
    """Apply one row's patches. Each maps a qualified name below ``chaoscalc``
    to a function of the original that makes its replacement: a module's
    function is replaced on every binding through ``rebind``, a method on its
    class."""
    for qualname, make in patches.items():
        module, *owners, attr = qualname.split(".")
        owner = importlib.import_module(f"chaoscalc.{module}")
        for name in owners:
            owner = getattr(owner, name)
        original = getattr(owner, attr)
        if owners:
            monkeypatch.setattr(owner, attr, make(original))
        else:
            rebind(monkeypatch, original, make(original))


def _first_entry_skewed(kernel):
    def skewed(*args):
        out = kernel(*args)
        values = out.values.copy()
        values[:1] *= 1 + 1e-9
        return Functional._from_arrays(out.masks, values, out.truncation)

    return skewed


def _signed(kernel):
    """kernel with each entry times (-1)^(bits below k of its subset), the
    sign of a fermionic ladder; a ladder moves bit k alone, so its input and
    output agree there."""

    def signed(k, phi):
        out = kernel(k, phi)
        sign = 1 - 2 * (popcount_at(out.masks & (1 << k) - 1) & 1)
        return Functional._from_arrays(out.masks, out.values * sign, out.truncation)

    return signed


def _skewed(kernel, full):
    """kernel with each entry whose subset is full (else empty) times 1 + 1e-9:
    a creator's output is never the empty set, an annihilator's never the
    full one."""

    def skewed(k, phi):
        out = kernel(k, phi)
        low = (1 << out.truncation) - 1
        hit = (out.masks & low) == (low if full else 0)
        return Functional._from_arrays(out.masks, out.values * (1 + 1e-9 * hit), out.truncation)

    return skewed


def _ungated_annihilate(k, phi):
    masks = phi.masks ^ 1 << k
    order = np.argsort(masks)
    return Functional._from_arrays(masks[order], phi.values[order], phi.truncation)


def _needing_next_bit_clear(kernel):
    def create(k, phi):
        keep = (phi.masks & 1 << k + 1) == 0
        return kernel(k, Functional._from_arrays(phi.masks[keep], phi.values[keep], phi.truncation))

    return create


def _j_k_swapped(kernel):
    return lambda j, k, *rest: kernel(k, j, *rest)


def _dropping_last_entry(kernel):
    return lambda w, xi: kernel(Weight2D(dict(sorted(w.entries.items())[:-1])), xi)


def _row_one_raised_at_zero(row_slice):
    def raised(w, k):
        row = row_slice(w, k)
        return Weight1D({**row.values, 0: row(0) + 1e-9}) if k == 1 else row

    return raised


def _skewed_at_mask_one(double_sum):
    return lambda w, masks: double_sum(w, masks) * (1 + 1e-9 * (masks == 1))


def _planned(change):
    """GeneratorSpec.__post_init__ with the fields that ``change(spec)``
    returns set after the plan is read from the weight."""

    def make(plan):
        def slipped(spec):
            plan(spec)
            for name, value in change(spec).items():
                object.__setattr__(spec, name, value)

        return slipped

    return make


def _rates_scaled(scale):
    """Every jump rate and the dissipator's half of the diagonal factors
    scaled; the Hamiltonian's half is kept."""
    return _planned(
        lambda spec: {
            "terms": [(scale * rate, dom, img) for rate, dom, img in spec.terms],
            "left": scale * spec.left.real + 1j * spec.left.imag,
            "right": scale * spec.right.real + 1j * spec.right.imag,
        }
    )


def _one_rate_off(spec):
    (rate, *sides), *rest = spec.terms
    return {"terms": [(rate * (1 + 1e-9), *sides), *rest]}


def _image_rows_at_domain_bits(spec):
    # the row half of each image slice (the first s tile axes) read at the
    # domain's bits
    cut = spec.split
    return {"terms": [(rate, dom, dom[:cut] + img[cut:]) for rate, dom, img in spec.terms]}


# The car checks that one ladder entry off fails; hop-closed-form, which
# compares hop with the ladders' product, fails with them.
_LADDER_OFF = {"car-adjoint-transpose", "car-cross-mixed", "car-equal-time", "occupation-symbol"}
_HOP_FORM = {"hop": {"hop-closed-form"}}
_HOP_OFF = {"hop-closed-form", "hop-symbol"}
_SUM_ADJOINT = {"exclusion-sum-adjoint-vs-diagonal", "exclusion-sum-adjoint-vs-explicit"}
_SUM_EXPLICIT = {"exclusion-sum-adjoint-vs-explicit", "exclusion-sum-explicit-vs-diagonal"}
_CREATE, _ANNIHILATE = "operators.apply_create", "operators.apply_annihilate"
_SERIES = "operators.series_partial_2d"
_PLAN = "qms.GeneratorSpec.__post_init__"

# slip name -> ({qualified name: original -> replacement}, {family: the exact
# set of its checks that fail}); a family with rows that a row does not name
# fails nothing
SLIPS = {
    "create-fermionic-sign": (
        {_CREATE: _signed}, {"car": _LADDER_OFF | {"car-cross-create"}, **_HOP_FORM}
    ),
    # the fermionic algebra anticommutes across indices
    "fermionic-algebra": (
        {_CREATE: _signed, _ANNIHILATE: _signed},
        {"car": {"car-cross-annihilate", "car-cross-create", "car-cross-mixed"}},
    ),
    # flips bit k on every mask, present or not
    "annihilate-ungated": (
        {_ANNIHILATE: lambda f: _ungated_annihilate},
        {"car": {"car-adjoint-transpose", "car-nilpotent"},
         "commutation-2d": {"gwn-commute-annihilate"},
         "commutation-1d": {"wn1d-commute-annihilate"},
         "commutation-number": {"number-commute-annihilate"}},
    ),
    "create-needing-next-bit-clear": (
        {_CREATE: _needing_next_bit_clear},
        {"car": _LADDER_OFF | {"car-cross-create"}, **_HOP_FORM},
    ),
    "create-skewed-at-full-mask": (
        {_CREATE: lambda f: _skewed(f, True)}, {"car": _LADDER_OFF, **_HOP_FORM}
    ),
    "annihilate-skewed-at-empty-mask": (
        {_ANNIHILATE: lambda f: _skewed(f, False)}, {"car": _LADDER_OFF, **_HOP_FORM}
    ),
    # a+(k + 1) a(k) moves an index, so the occupation it stands for no
    # longer commutes with wn1d(u) where u(k + 1) != u(k), nor with gwn(w);
    # the number operator counts indices alone and cannot tell
    "create-at-next-index": (
        {_CREATE: lambda f: lambda k, phi: f((k + 1) % phi.truncation, phi)},
        {"car": _LADDER_OFF, **_HOP_FORM,
         "commutation-2d": {"gwn-commute-create", "gwn-commute-occupation"},
         "commutation-1d": {"wn1d-commute-create", "wn1d-commute-occupation"}},
    ),
    "transpose-skipped": (
        {"operators.table_transpose": lambda f: lambda table: table},
        {"car": {"car-adjoint-transpose"}, "qms": _SUM_ADJOINT},
    ),
    "hop-gate-ignoring-j": (
        {"operators.hop_apply": lambda f: lambda j, k, phi: f(k, k, phi)},
        {"hop": _HOP_OFF, "representation": {"gwn-series"}},
    ),
    # hop(k, k) is each 1D series' term, so both 1D series read the skew
    "hop-skewed-at-first-entry": (
        {"operators.hop_apply": _first_entry_skewed},
        {"hop": _HOP_OFF, "representation": {"gwn-series", "number-series", "wn1d-series"}},
    ),
    # a diagonal's first entry in a matrix table is at {0}: number's is 1
    "number-apply-skewed": (
        {"operators.number_apply": _first_entry_skewed},
        {"commutation-number": {"number-commute-annihilate", "number-commute-create"},
         "representation": {"number-series"}},
    ),
    # the gwn commutators read the row and column slices through wn1d
    "wn1d-apply-skewed": (
        {"operators.wn1d_apply": _first_entry_skewed},
        {"commutation-2d": {"gwn-commute-annihilate", "gwn-commute-create"},
         "commutation-1d": {"wn1d-commute-annihilate", "wn1d-commute-create"},
         "representation": {"wn1d-series"}},
    ),
    # total - v * hop for total + v * hop: the 1D series are 2D series too
    "series-terms-subtracted": (
        {_SERIES: lambda f: lambda w, phi, m: -1.0 * f(w, phi, m)},
        {"representation": {"gwn-series", "gwn-series-monotone", "number-series", "wn1d-series"}},
    ),
    # below the support bound the sum at m takes the terms of m + 1, which
    # gwn-series compares with the operator of the weight truncated at m; one
    # more term of a nonnegative weight keeps the diagonal monotone
    "series-cutoff-one-past": (
        {_SERIES: lambda f: lambda w, phi, m: f(w, phi, min(m + 1, phi.truncation))},
        {"representation": {"gwn-series"}},
    ),
    "l2-series-dropping-last-entry": (
        {"operators.l2_series_2d": _dropping_last_entry},
        {"representation": {"l2-wn-series"}, "qms": _SUM_EXPLICIT},
    ),
    "l2-hop-j-k-swapped": (
        {"operators.l2_hop": _j_k_swapped},
        {"representation": {"l2-wn-series"}, "qms": _SUM_EXPLICIT},
    ),
    "row-slice-raised": (
        {"weights.Weight2D.row_slice": _row_one_raised_at_zero},
        {"spectral-shift": {"spectral-shift-add", "spectral-shift-remove"},
         "commutation-2d": {"gwn-commute-annihilate", "gwn-commute-create"}},
    ),
    "theta-double-sum-skewed": (
        {"weights.theta_double_sum": _skewed_at_mask_one},
        {"spectral-shift": {"theta-vs-double-sum"}},
    ),
    "transfer-table-j-k-swapped": ({"qms._transfer_table": _j_k_swapped}, {"qms": _SUM_ADJOINT}),
    "bands-read-x-conjugated": (
        {"qms._apply_bands": lambda f: lambda spec, xv, *rest: f(spec, xv.conj(), *rest)},
        {"qms": {"qms-linearity"}},
    ),
    "one-rate-off-occupation-kept": (
        {_PLAN: _planned(_one_rate_off)},
        {"qms": {"qms-unital", "qms-diagonal-reduction"}},
    ),
    "image-rows-pinned-at-domain-bits": (
        {_PLAN: _planned(_image_rows_at_domain_bits)},
        {"qms": {"qms-unital", "qms-hermiticity", "qms-diagonal-reduction"}},
    ),
    "rates-doubled": ({_PLAN: _rates_scaled(2.0)}, {"qms": {"qms-diagonal-reduction"}}),
    "dissipator-sign-flipped": ({_PLAN: _rates_scaled(-1.0)}, {"qms": {"qms-diagonal-reduction"}}),
    # the known survivor: no check compares the commutator with its formula
    # yet (ROADMAP item 20)
    "hamiltonian-sign-flipped": (
        {_PLAN: _planned(lambda spec: {"left": spec.left.conj(), "right": spec.right.conj()})},
        {},
    ),
}

# check name -> why no plausible slip fails it
BLUNT: dict = {}

# the families with no rows yet (ROADMAP item 30)
LEFT = ("riesz", "norm-bound", "l2", "weight-invariant", "functional-invariant")

COVERED = sorted({family for _, fails in SLIPS.values() for family in fails})


def _failed(family, n) -> list:
    """The failing check names of each route a family is read by: alone in
    run_all, qms also on the rnd0 and rnd1 weights, car and hop also through
    their own builders."""
    runs = [verifier.run_all(n=n, only=[family])[0]]
    if family == "qms":
        for tag in ("rnd0", "rnd1"):
            w = verifier.fixture_weights(n, 42)[tag]
            runs.append(verifier.run_all(n=n, only=[family], weight_override=w)[0])
    if family in ("car", "hop"):
        runs.append(getattr(verifier, f"check_{family}")(n))
    return [{r.name for r in run if not r.ok} for run in runs]


@pytest.mark.parametrize("slip", sorted(SLIPS))
def test_each_slip_fails_its_checks(monkeypatch, slip):
    # each covered family fails exactly the row's set for it (none if the
    # row does not name it) on every route at n = 4 and 6
    patches, fails = SLIPS[slip]
    slip_in(monkeypatch, patches)
    for family in COVERED:
        for n in (4, 6):
            for failed in _failed(family, n):
                assert failed == fails.get(family, set()), (family, n)


@pytest.mark.parametrize("slip, scale", [("rates-doubled", 2.0), ("dissipator-sign-flipped", -1.0)])
def test_rate_slips_scale_the_classical_chain(monkeypatch, slip, scale):
    # the diagonal reduction's last comparison is the generator on diag(f)
    # against diag(Q f): under the slip its diagonal reads scale * Q f
    slip_in(monkeypatch, SLIPS[slip][0])
    compared, compare = [], qms.residual
    monkeypatch.setattr(qms, "residual", lambda a, b: compared.append((a, b)) or compare(a, b))
    for tag in ("running", "rnd0", "rnd1"):
        qms.check_generator_structure(verifier.fixture_weights(6, 42)[tag], 6, trials=20, seed=42)
        image, expected = (np.diag(m) for m in compared[-1])
        moved = expected != 0
        assert moved.any() and not image[~moved].any(), tag
        assert image[moved] / expected[moved] == pytest.approx(scale, rel=1e-12), tag


def test_every_check_fails_under_a_slip_or_is_blunt():
    # every check of the covered families at n = 6 fails under some row or
    # sits in BLUNT, never both, and every family is covered or LEFT
    assert sorted([*COVERED, *LEFT]) == sorted(verifier.FAMILY_NAMES)
    reports, _ = verifier.run_all(n=6, only=COVERED)
    names = {r.name for r in reports if r.kind == CHECK}
    killed = {name for _, fails in SLIPS.values() for failing in fails.values() for name in failing}
    assert killed | set(BLUNT) == names
    assert not killed & set(BLUNT)
