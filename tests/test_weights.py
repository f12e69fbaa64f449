"""Weight containers, alpha, the counting function and the spectral function.

Frozen hand computations for the running two-entry weight w(0,1)=2, w(1,1)=3:
column sums are (0, 5), so alpha = 5; theta({1}) = 3 + (5 - 3) = 5 and
theta({0,1}) = 3 + (5 - 5) = 3.
"""
from __future__ import annotations

import re

import numpy as np
import pytest

from chaoscalc import weights
from chaoscalc.basis import Subset
from chaoscalc.weights import Weight1D, Weight2D, theta_double_sum


@pytest.fixture
def running() -> Weight2D:
    return Weight2D.from_entries([(0, 1, 2.0), (1, 1, 3.0)])


def random_weight(rng: np.random.Generator, size: int, density: float = 0.4) -> Weight2D:
    entries = {}
    for j in range(size):
        for k in range(size):
            if rng.random() < density:
                entries[(j, k)] = float(rng.random())
    return Weight2D(entries)


class TestWeight1D:
    def test_call_and_count(self):
        u = Weight1D({1: 1.0, 2: 2.0})
        assert u(1) == 1.0
        assert u(0) == 0.0
        assert u.count(Subset.of(1, 2)) == 3.0
        assert u.count(Subset.of(0, 3)) == 0.0
        assert u.count(Subset()) == 0.0

    def test_constant_and_beta(self):
        u = Weight1D.constant(1.0, 4)
        assert u.beta() == 1.0
        assert u.count(Subset.of(0, 2, 3)) == 3.0
        assert Weight1D({}).beta() == 0.0
        assert Weight1D({0: 3.0}, sup_bound=7.0).beta() == 7.0

    def test_count_vector_matches_scalar(self):
        u = Weight1D({0: 0.5, 2: 1.5, 5: 4.0})
        vec = u.count_vector(4)
        for sigma in map(Subset, range(1 << 4)):
            assert vec[sigma.mask] == pytest.approx(u.count(sigma), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Weight1D({0: -1.0})
        with pytest.raises(ValueError):
            Weight1D({-2: 1.0})
        with pytest.raises(ValueError):
            Weight1D({0: 5.0}, sup_bound=4.0)
        with pytest.raises(ValueError):
            Weight1D({0: float("inf")})

    def test_json_roundtrip(self):
        data = {"kind": "diag1d", "entries": [[0, 2.0], [3, 1.5]], "sup_bound": 2.5}
        v = Weight1D.from_json(data)
        assert v.values == {0: 2.0, 3: 1.5} and v.beta() == 2.5
        assert Weight1D.from_json({"kind": "diag1d", "entries": [[1, 4.0]]}).beta() == 4.0
        with pytest.raises(ValueError):
            Weight1D.from_json({"kind": "dense", "entries": []})
        with pytest.raises(ValueError):
            Weight1D.from_json({"kind": "diag1d", "entries": [[0, 1.0], [0, 2.0]]})


class TestAlpha:
    def test_running_example(self, running):
        assert running.colsum(1) == 5.0
        assert running.colsum(0) == 0.0
        assert running.alpha() == 5.0

    def test_diagonal_lift_of_ones(self):
        w = Weight2D.from_weight1d(Weight1D.constant(1.0, 6))
        assert w.alpha() == 1.0

    def test_geometric_closed_form(self):
        # w(j, k) = 2^(-j-1) for every k: each column sums to exactly 1.
        # Entries listed out to j < 8 cover anything a truncated run touches;
        # the supplied closed form keeps alpha exact at 1.
        entries = {(j, k): 2.0 ** -(j + 1) for j in range(8) for k in range(8)}
        w = Weight2D(entries, column_sums={k: 1.0 for k in range(8)})
        assert w.alpha() == 1.0
        assert not w.is_exact()
        exact = Weight2D(entries)
        assert exact.alpha() == pytest.approx(1.0 - 2.0**-8, abs=1e-15)
        assert exact.is_exact()

    def test_tail_bound_adds(self, running):
        w = Weight2D(dict(running.entries), tail_bound=0.25)
        assert w.alpha() == 5.25

    def test_zero(self):
        assert Weight2D.zero().alpha() == 0.0
        assert Weight2D.zero().theta(Subset.of(0, 1, 2)) == 0.0


class TestTheta:
    def test_running_example(self, running):
        assert running.theta(Subset.of(1)) == 5.0
        assert running.theta(Subset.of(0, 1)) == 3.0
        assert running.theta(Subset.of(0)) == 0.0
        assert running.theta(Subset()) == 0.0

    def test_diagonal_lift_counts(self):
        u = Weight1D({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
        w = Weight2D.from_weight1d(u)
        for sigma in map(Subset, range(1 << 4)):
            assert w.theta(sigma) == len(sigma)

    def test_lift_matches_count_general(self):
        rng = np.random.default_rng(7)
        u = Weight1D({k: float(rng.random()) for k in range(5)})
        w = Weight2D.from_weight1d(u)
        for sigma in map(Subset, range(1 << 5)):
            assert w.theta(sigma) == pytest.approx(u.count(sigma), abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_double_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        w = random_weight(rng, 6)
        for sigma in map(Subset, range(1 << 6)):
            assert w.theta(sigma) == pytest.approx(
                theta_double_sum(w, sigma), abs=1e-13
            )

    @pytest.mark.parametrize("seed", [5, 6])
    def test_range_bound(self, seed):
        # 0 <= theta(sigma) <= 2 * alpha * #sigma on the whole truncated basis
        rng = np.random.default_rng(seed)
        w = random_weight(rng, 6)
        two_alpha = 2.0 * w.alpha()
        for sigma in map(Subset, range(1 << 6)):
            value = w.theta(sigma)
            assert value >= -1e-15
            assert value <= two_alpha * len(sigma) + 1e-12
        assert w.theta(Subset()) == 0.0

    def test_vectors_are_read_only(self, running):
        # each call builds its own vector, so a write into one never shows
        # in the next
        u = Weight1D({1: 2.0})
        for build in (running.theta_vector, u.count_vector):
            before = build(3).copy()
            build(3)[:] = 7.0
            assert np.array_equal(build(3), before)
        with pytest.raises(ValueError):
            running.theta_vector(True)

    def test_theta_vector_matches_scalar(self, running):
        rng = np.random.default_rng(11)
        for w in (running, random_weight(rng, 5)):
            vec = w.theta_vector(5)
            for sigma in map(Subset, range(1 << 5)):
                assert vec[sigma.mask] == pytest.approx(w.theta(sigma), abs=1e-13)

    def test_closed_form_columns_enter_theta(self):
        entries = {(j, k): 2.0 ** -(j + 1) for j in range(8) for k in range(4)}
        w = Weight2D(entries, column_sums={k: 1.0 for k in range(4)})
        # sigma within the listed support: theta is exact, using colsum == 1
        sigma = Subset.of(0, 2)
        expect = (
            2.0**-1  # w(0,0)
            + (1.0 - (2.0**-1 + 2.0**-3))  # column 0 minus rows {0, 2}
            + 2.0**-3  # w(2,2)
            + (1.0 - (2.0**-1 + 2.0**-3))  # column 2 minus rows {0, 2}
        )
        assert w.theta(sigma) == pytest.approx(expect, abs=1e-15)


class TestSlices:
    def test_running_slices(self, running):
        row0 = running.row_slice(0)
        assert row0.values == {1: 2.0}
        col1 = running.col_slice(1)
        assert col1.values == {0: 2.0, 1: 3.0}
        assert col1.beta() == 3.0
        assert running.col_slice(0).values == {}

    def test_slice_sup_inherits_slack(self):
        entries = {(0, 0): 1.0}
        w = Weight2D(entries, column_sums={0: 1.5}, tail_bound=0.25)
        # unlisted mass in some column is at most 0.5 + 0.25
        assert w.row_slice(0).beta() == pytest.approx(1.75)


class TestValidation:
    def test_negative_entry(self):
        with pytest.raises(ValueError):
            Weight2D({(0, 1): -0.5})

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            Weight2D({(-1, 0): 1.0})
        with pytest.raises(ValueError):
            Weight2D({(0, 1, 2): 1.0})

    def test_column_sum_below_listed(self):
        with pytest.raises(ValueError):
            Weight2D({(0, 0): 2.0, (1, 0): 1.0}, column_sums={0: 2.5})

    def test_overflowing_column_sum(self):
        with pytest.raises(ValueError, match="column 1"):
            Weight2D({(0, 1): 1e308, (1, 1): 1e308})
        # one such entry per column is finite
        assert Weight2D({(0, 0): 1e308, (1, 1): 1e308}).alpha() == 1e308

    def test_duplicate_triples(self):
        with pytest.raises(ValueError):
            Weight2D.from_entries([(0, 0, 1.0), (0, 0, 2.0)])

    @pytest.mark.parametrize(
        "triples, spelled",
        [
            ([([0], 1, 2.0)], "[0]"),
            # a float or bool equal to 1 once hashed as the pair (1, 1)
            ([(1.0, 1, 2.0), (1, 1, 3.0)], "1.0"),
            ([(True, 1, 2.0), (1, 1, 3.0)], "true"),
        ],
        ids=["list", "float", "bool"],
    )
    def test_triple_index_checked_before_hashing(self, triples, spelled):
        with pytest.raises(ValueError) as raised:
            Weight2D.from_entries(triples)
        assert str(raised.value) == f"entry index must be an integer, got {spelled}"

    def test_support_bound(self, running):
        assert running.support_bound() == 2
        assert Weight2D.zero().support_bound() == 0
        w = Weight2D({(0, 0): 1.0}, column_sums={5: 1.0})
        assert w.support_bound() == 6


class TestJson:
    def test_roundtrip_dense(self, running):
        data = {
            "kind": "dense",
            "entries": [[0, 1, 2.0], [1, 1, 3.0]],
            "column_sums": "from_entries",
            "tail_bound": 0.0,
        }
        w = Weight2D.from_json(data)
        assert w.entries == running.entries
        assert w.column_sums is None and w.alpha() == running.alpha()
        # column_sums and tail_bound default to the listed entries and 0
        assert Weight2D.from_json({"kind": "dense", "entries": data["entries"]}).alpha() == 5.0

    def test_roundtrip_with_sums(self):
        data = {
            "kind": "dense",
            "entries": [[0, 0, 1.0]],
            "column_sums": {"0": 2.0, "3": 1.0},
            "tail_bound": 0.5,
        }
        back = Weight2D.from_json(data)
        assert back.colsum(0) == 2.0 and back.colsum(3) == 1.0
        assert back.tail_bound == 0.5

    def test_diag1d_promotes(self):
        w = Weight2D.from_json({"kind": "diag1d", "entries": [[2, 4.0]]})
        assert w.entries == {(2, 2): 4.0}

    @pytest.mark.parametrize(
        "load, payload, indices",
        [
            (
                Weight2D.from_json,
                {"kind": "dense", "entries": [[0, 1, 2.0], [2, 0, 0.5]], "column_sums": {"1": 5.0}},
                [0, 1, 2, 0, 1],
            ),
            (Weight1D.from_json, {"kind": "diag1d", "entries": [[3, 1.0], [5, 2.0]]}, [3, 5]),
            (Weight2D.from_json, {"kind": "diag1d", "entries": [[3, 1.0], [5, 2.0]]}, [3, 5]),
            (Weight2D.from_entries, [(0, 1, 2.0), (2, 0, 0.5)], [0, 1, 2, 0]),
        ],
        ids=["dense", "diag1d", "diag1d-as-2d", "triples"],
    )
    def test_each_index_is_checked_once(self, monkeypatch, load, payload, indices):
        # the loader checks each index before hashing it, and the constructor
        # takes the checked ints as they are
        checked, check = [], weights.as_index

        def counted(k, what):
            checked.append(k)
            return check(k, what)

        monkeypatch.setattr(weights, "as_index", counted)
        load(payload)
        assert checked == indices

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            Weight2D.from_json({"kind": "sparse"})
        with pytest.raises(ValueError):
            Weight2D.from_json({"kind": "dense", "entries": [[0, 0]]})
        with pytest.raises(ValueError):
            Weight2D.from_json({"kind": "dense", "entries": [], "column_sums": 7})
        with pytest.raises(ValueError):
            Weight2D.from_json(
                {"kind": "dense", "entries": [[0, 0, 1.0], [0, 0, 2.0]]}
            )
        # wrong JSON types raise ValueError too, not TypeError/AttributeError
        for bad in (
            [[0, 1, 2.0]],
            {"kind": "dense", "entries": 5},
            {"kind": "dense", "entries": [[0, 1, None]]},
            {"kind": "dense", "entries": [[0, 1, 10**400]]},
            {"kind": "dense", "entries": [], "tail_bound": [1]},
            {"kind": "diag1d", "entries": [[[0], 1.0]]},
            # non-integer indices are rejected, not truncated
            {"kind": "dense", "entries": [[0.6, 1.2, 2.0]]},
            {"kind": "dense", "entries": [[True, 0, 2.0]]},
            {"kind": "diag1d", "entries": [[1.5, 1.0]]},
            {"kind": "dense", "entries": [], "column_sums": {"1.5": 1.0}},
            {"kind": "dense", "entries": [], "column_sums": {"-1": 1.0}},
        ):
            with pytest.raises(ValueError):
                Weight2D.from_json(bad)

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"kind": "dense", "entries": [[0, 1, "2.0"]]}, "weight value at (0, 1)"),
            ({"kind": "dense", "entries": [[0, 1, True]]}, "weight value at (0, 1)"),
            ({"kind": "dense", "entries": [], "column_sums": {"0": "1"}}, "column sum at 0"),
            ({"kind": "dense", "entries": [], "tail_bound": False}, "tail_bound"),
            ({"kind": "diag1d", "entries": [[0, "2.0"]]}, "weight value at 0"),
            ({"kind": "diag1d", "entries": [[0, 1.0]], "sup_bound": True}, "sup_bound"),
        ],
    )
    def test_a_quoted_number_is_rejected(self, bad, field):
        # float() takes "2.0" and True, so a mistyped value used to load
        with pytest.raises(ValueError, match=rf"{re.escape(field)} must be a number"):
            Weight2D.from_json(bad)
