"""Discrete-time Bernoulli noise realizing the product probability model.

Step k takes the value sqrt((1 - theta_k) / theta_k) with probability
theta_k and -sqrt(theta_k / (1 - theta_k)) otherwise, which pins the
conditional mean at 0 and the conditional second moment at 1. Products of
steps over a subset sigma give the basis family whose Gram matrix is the
identity. Exact mode works on the finite sample space (an atom per outcome
bitmask, bit k set = the positive branch): atom probabilities and basis
products both factor over steps, so the Gram matrix and the expansion maps
are Kronecker products of per-step 2 x 2 factors. The Gram's largest
deviation from the identity is read off those factors without building the
Gram. The conditional moments fold the atom law from the top step down:
splitting the law of steps 0..m by step m gives, per past, the chance of
each of step m's two values, which settles both moments. The fold costs
O(2**n) and holds at most one and a half vectors of 2**n values. Sampled
mode draws how often each of the 2**n atoms occurs, one binomial split per
step on a counter-based generator, and weights one table of basis products
over the drawn atoms by those counts: every draw of an atom carries the
same products.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .basis import as_index, as_real, check_truncation
from .functionals import Functional
from .reports import _worst

# The exact Gram over the 2**n basis products takes 8 * 4**n bytes: 512 MiB
# at n = 13. It stops at 13, as does psi_matrix.
_EXACT_ENUMERATION_CAP = 13
# The atom probabilities and the fold of them that gives the conditional
# moments, and so exact simulate, hold at most one and a half vectors of 2**n
# values, 8 * 2**n bytes each: 8 MiB at n = 20, 12 MiB at the peak. The chaos
# expansion and its inverse work on a few such vectors. A constant, so
# raising CHAOSCALC_MAX_N does not lift it.
_EXACT_VECTOR_CAP = 20
# The sampled Gram and its second moments are two 2**n x 2**n tables, 1 MiB
# at n = 8, built from a table of basis products over the drawn atoms, at
# most as large again; the counts per atom take 2**n - 1 binomial draws.
_MC_BASIS_CAP = 8


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams are independent by key.

    ``seed`` and ``stream`` are the two 64-bit words of the key, each in
    [0, 2**64); ValueError otherwise.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BernoulliParams:
    """Success probabilities theta_k for each step, all strictly inside (0, 1),
    with finite step values and with every atom probability a normal double."""

    thetas: tuple

    def __post_init__(self):
        cleaned = tuple(as_real(t, "theta") for t in self.thetas)
        for t in cleaned:
            if not 0.0 < t < 1.0:
                raise ValueError(f"theta values must lie strictly in (0, 1), got {t}")
            if not (math.isfinite((1.0 - t) / t) and math.isfinite(t / (1.0 - t))):
                raise ValueError(
                    f"theta {t} gives a step value sqrt((1 - t) / t) that overflows "
                    "double precision"
                )
        smallest = [min(t, 1.0 - t) for t in cleaned]
        if math.prod(smallest) < sys.float_info.min:
            exponent = sum(math.log10(m) for m in smallest)
            raise ValueError(
                f"the smallest atom probability, prod(min(t, 1 - t)) ~ 1e{exponent:.0f}, "
                f"is below the smallest normal double {sys.float_info.min!r}: "
                "atom probabilities would underflow"
            )
        object.__setattr__(self, "thetas", cleaned)
        check_truncation(len(cleaned))

    @classmethod
    def constant(cls, theta: float, n: int) -> "BernoulliParams":
        return cls((theta,) * check_truncation(n))

    @classmethod
    def cycling(cls, pattern, n: int) -> "BernoulliParams":
        pattern = tuple(pattern)
        if not pattern:
            raise ValueError("cycling pattern must be nonempty")
        return cls(tuple(pattern[k % len(pattern)] for k in range(check_truncation(n))))

    @property
    def n(self) -> int:
        return len(self.thetas)

    def plus_values(self) -> np.ndarray:
        t = np.asarray(self.thetas)
        return np.sqrt((1.0 - t) / t)

    def minus_values(self) -> np.ndarray:
        t = np.asarray(self.thetas)
        return -np.sqrt(t / (1.0 - t))

    @classmethod
    def from_json(cls, data: dict) -> "BernoulliParams":
        """Parameters from their JSON form; ValueError on any malformed payload."""
        thetas = data.get("thetas") if isinstance(data, dict) else None
        if not isinstance(thetas, list):
            raise ValueError("theta JSON must be an object with a 'thetas' list")
        return cls(tuple(thetas))


def _check_size(n: int, cap: int, scale: int, what: str, holder: str) -> int:
    """n, checked against one of the size caps: each ``holder`` takes 8 *
    scale**n bytes, and the error states the cap, the n asked and the bytes
    at both."""
    n = check_truncation(n)
    if n > cap:
        raise ValueError(
            f"{what} handles up to n = {cap} (got {n}): each {holder} takes 8 * {scale}**n "
            f"bytes, {_mib(8 * scale**cap)} at n = {cap} and {_mib(8 * scale**n)} at n = {n}"
        )
    return n


def _check_table_size(n: int) -> int:
    return _check_size(n, _EXACT_ENUMERATION_CAP, 4, "exact enumeration", "2**n x 2**n table")


def _check_vector_size(n: int) -> int:
    return _check_size(n, _EXACT_VECTOR_CAP, 2, "exact mode", "vector over the 2**n atoms")


def _mib(nbytes: int) -> str:
    return f"{nbytes / 2**20:.10g} MiB"


def atom_probs(params: BernoulliParams) -> np.ndarray:
    """Probability of every outcome bitmask, length 2**n.

    Built in place by the doubling recursion: after step k the first 2**k
    entries hold the law of steps 0..k-1; step k writes them times theta_k
    into the next 2**k, then scales them by 1 - theta_k. The result is the
    only vector held.
    """
    probs = np.empty(1 << _check_vector_size(params.n))
    probs[0] = 1.0
    for k, t in enumerate(params.thetas):
        h = 1 << k
        np.multiply(probs[:h], t, out=probs[h : 2 * h])
        probs[:h] *= 1.0 - t
    return probs


def psi_matrix(params: BernoulliParams) -> np.ndarray:
    """Step values per atom: entry (a, k) is the outcome of step k on atom a."""
    n = _check_table_size(params.n)
    atoms = np.arange(1 << n, dtype=np.int64)
    bits = (atoms[:, None] >> np.arange(n)) & 1
    return np.where(bits == 1, params.plus_values(), params.minus_values())


def _products_over_masks(step_values: np.ndarray) -> np.ndarray:
    """Row-wise products over every index subset.

    Input (rows, n) of per-step values; output (rows, 2**n) whose column m is
    the product over the bits of m, built by the doubling recursion. The output
    is column-major, so every leading run of columns is contiguous for BLAS.
    """
    rows, n = step_values.shape
    out = np.empty((rows, 1 << n), order="F")
    out[:, 0] = 1.0
    for k in range(n):
        h = 1 << k
        # masks with top bit k: the products over the lower bits times step k
        np.multiply(out[:, :h], step_values[:, k : k + 1], out=out[:, h : 2 * h])
    return out


def exact_gram(params: BernoulliParams) -> np.ndarray:
    """Gram matrix of the product basis under the exact atom probabilities.

    Atom probabilities and basis products both factor over steps, so the sum
    over atoms regroups into the Kronecker product of the per-step 2 x 2
    Grams. It is built in place by the doubling recursion of the basis
    masks: after step k the top-left 2**k x 2**k block holds the Gram of the
    steps below k; step k writes ``g01 * G`` into both off-diagonal blocks
    and ``g11 * G`` into the bottom-right one, then scales the top-left block
    by ``g00``. The Gram is the only table held. One ``g01`` serves both
    off-diagonal blocks, so the result is exactly symmetric, and at
    theta = 1/2 every factor is the identity, so the result is exactly the
    identity.
    """
    size = 1 << _check_table_size(params.n)
    gram = np.empty((size, size))
    gram[0, 0] = 1.0
    for k, (g00, g01, g11) in enumerate(_step_grams(params)):
        h = 1 << k
        low = gram[:h, :h]
        np.multiply(low, g01, out=gram[:h, h : 2 * h])
        np.multiply(low, g01, out=gram[h : 2 * h, :h])
        np.multiply(low, g11, out=gram[h : 2 * h, h : 2 * h])
        low *= g00
    return gram


def _step_grams(params: BernoulliParams):
    """Yield each step's 2 x 2 Gram ``(g00, g01, g11)``: E[s**(i + j)] over
    the step's two atoms, as Python floats."""
    steps = zip(params.thetas, params.minus_values().tolist(), params.plus_values().tolist())
    for theta, minus, plus in steps:
        g00 = (1.0 - theta) + theta
        g01 = (1.0 - theta) * minus + theta * plus
        g11 = (1.0 - theta) * minus * minus + theta * plus * plus
        yield g00, g01, g11


def gram_deviation(params: BernoulliParams) -> float:
    """Largest ``|G - I|`` over the entries of :func:`exact_gram`, bit for
    bit, in O(n) time and without building the Gram.

    Entry (i, j) of the Gram is the left-to-right rounded product of one
    factor per step: ``g00`` or ``g11`` where bit k of i and j agree, ``g01``
    where they differ. Rounded multiplication by a nonnegative factor is
    monotone, so the extremes over all 4**n products follow the steps: the
    largest and smallest all-diagonal products (every diagonal factor is
    positive) and the largest off-diagonal magnitude, a product with at
    least one ``g01`` step. The maxima keep NaN, so a non-finite factor
    shows in the result; ``dmin`` may drop it, as ``dmax`` keeps it.
    """
    dmax = dmin = 1.0
    omax = 0.0
    for g00, g01, g11 in _step_grams(params):
        a01 = abs(g01)
        omax = _nan_max(omax * _nan_max(_nan_max(g00, a01), g11), dmax * a01)
        dmax, dmin = dmax * _nan_max(g00, g11), dmin * min(g00, g11)
    return _nan_max(_nan_max(dmax - 1.0, 1.0 - dmin), omax)


def _nan_max(a: float, b: float) -> float:
    """The larger of two floats, NaN if either is NaN."""
    return a if a > b or a != a else b


def _apply_steps(vector: np.ndarray, factors) -> np.ndarray:
    """Apply the Kronecker product of per-step 2 x 2 matrices in place.

    ``factors[k]`` is ``((a, b), (c, d))`` and acts on bit k of the index of
    ``vector`` (length 2**n, contiguous): each pair (lo, hi) of entries that
    differ only in bit k becomes (a lo + b hi, c lo + d hi). n passes cost
    O(n 2**n), against O(4**n) for the full table.
    """
    for k, ((a, b), (c, d)) in enumerate(factors):
        pairs = vector.reshape(-1, 2, 1 << k)
        lo, hi = pairs[:, 0], pairs[:, 1]
        spill = b * hi
        hi *= d
        hi += c * lo
        lo *= a
        lo += spill
    return vector


@dataclass(frozen=True)
class MomentReport:
    """Worst conditional-moment deviations per step and overall."""

    mean_dev_per_step: tuple
    second_dev_per_step: tuple

    @property
    def max_mean_dev(self) -> float:
        return _worst(self.mean_dev_per_step)

    @property
    def max_second_dev(self) -> float:
        return _worst(self.second_dev_per_step)

    def to_json(self) -> dict:
        return {
            "mean_dev_per_step": list(self.mean_dev_per_step),
            "second_dev_per_step": list(self.second_dev_per_step),
            "max_mean_dev": self.max_mean_dev,
            "max_second_dev": self.max_second_dev,
        }


def conditional_moments(params: BernoulliParams) -> MomentReport:
    """Conditional mean and second moment of each step given its past.

    The past of step m is the outcome of steps 0..m-1, the low m bits of an
    atom; given it, the conditional mean must vanish and the conditional
    second moment must be 1, for every step. Both hold exactly up to floating
    point, whatever the theta sequence.

    A fold of :func:`atom_probs` from the top step down reads both. The law
    of steps 0..m splits into ``lo`` (step m negative) and ``hi`` (step m
    positive), one entry per past; ``lo + hi`` is the law of the steps below
    m, summed in place over one half, and feeds the next step. With ``v1``
    the step value of larger magnitude, ``v0`` the other, and ``r`` the
    conditional probability of ``v1``'s branch (``hi / (lo + hi)`` or
    ``lo / (lo + hi)``), both deviations are affine in r,
    ``|v0 + r (v1 - v0)|`` and ``|v0**2 + r (v1**2 - v0**2) - 1|``, with
    every term about 1 at most, so they round at that scale. Rounding keeps
    them monotone in r, so each step's worst past is at ``r.min()`` or
    ``r.max()``. The fold takes O(2**n) time and holds at most one and a
    half vectors of 2**n values: the atom law and the ratios ``r``.
    """
    n = _check_vector_size(params.n)
    law = atom_probs(params)
    ratios = np.empty(len(law) // 2)
    plus, minus = params.plus_values().tolist(), params.minus_values().tolist()
    mean_devs, second_devs = [0.0] * n, [0.0] * n
    for m in reversed(range(n)):
        lo, hi = law[: 1 << m], law[1 << m :]
        v0, v1, branch, law = minus[m], plus[m], hi, lo
        if abs(v0) > abs(v1):
            v0, v1, branch, law = v1, v0, lo, hi
        law += branch
        r = np.divide(branch, law, out=ratios[: 1 << m])
        low, high = float(r.min()), float(r.max())
        d1, d2 = v1 - v0, v1 * v1 - v0 * v0
        mean_devs[m] = _nan_max(abs(v0 + low * d1), abs(v0 + high * d1))
        second_devs[m] = _nan_max(abs(v0 * v0 + low * d2 - 1.0), abs(v0 * v0 + high * d2 - 1.0))
    return MomentReport(tuple(mean_devs), tuple(second_devs))


def _atom_counts(params: BernoulliParams, samples: int, seed: int) -> np.ndarray:
    """How often each atom occurs in ``samples`` paths, built in place like
    :func:`atom_probs`: step k splits each of the first 2**k counts by one
    binomial draw, writing its paths with bit k set into the next 2**k."""
    samples = as_index(samples, "samples")
    if not 1 <= samples < 1 << 63:  # the atom counts are int64
        raise ValueError(f"samples must lie in [1, 2**63 - 1], got {samples}")
    counts = np.empty(1 << params.n, dtype=np.int64)
    counts[0] = samples
    rng = rng_stream(seed)
    for k, theta in enumerate(params.thetas):
        h = 1 << k
        counts[h : 2 * h] = rng.binomial(counts[:h], theta)
        counts[:h] -= counts[h : 2 * h]
    return counts


def monte_carlo_gram(params: BernoulliParams, samples: int, seed: int) -> tuple:
    """Sampled Gram matrix plus a per-entry standard error estimate.

    ``samples`` paths, at most 2**63 - 1, are drawn as counts per atom, so
    neither time nor memory grows with ``samples``. Every draw of an atom
    carries the same basis products, so the sums over samples are the sums
    over the drawn atoms of count times products: one table of products over
    the at most 2**n drawn atoms, built by the same recursion as for a single
    sample, gives the Gram and the second moments.
    """
    _check_size(params.n, _MC_BASIS_CAP, 4, "sampled mode", "2**n x 2**n table")
    counts = _atom_counts(params, samples, seed)
    seen = np.flatnonzero(counts)
    weights = counts[seen].astype(float)[:, None]
    z = _products_over_masks(psi_matrix(params)[seen])
    gram = z.T @ (weights * z)
    z *= z
    second = z.T @ (weights * z)
    # the upper triangle, mirrored into the strict lower: exactly symmetric
    lower = np.tri(len(gram), k=-1, dtype=bool)
    for table in (gram, second):
        np.copyto(table, table.T, where=lower)
        table /= samples
    variance = np.maximum(second - gram**2, 0.0)
    stderr = np.sqrt(variance / samples)
    return gram, stderr


def chaotic_expand(values, params: BernoulliParams) -> Functional:
    """Coefficients of a functional of the noise path against the product basis.

    ``values`` holds the functional on each of the 2**n atoms (atom a is the
    path whose step k took its positive branch where bit k of a is set); the
    coefficient at sigma is the expectation of the values times the basis
    product, computed exactly over the finite sample space. The table of
    basis products is the Kronecker product of the per-step
    ``[[1, minus], [1, plus]]``, so its transpose is applied to the
    probability-weighted values one step at a time.
    """
    n = _check_vector_size(params.n)
    values = np.asarray(values, dtype=complex)
    if values.shape != (1 << n,):
        raise ValueError(f"atom values shape {values.shape} does not match the {1 << n} atoms")
    weighted = atom_probs(params) * values
    factors = [((1.0, 1.0), (minus, plus))
               for minus, plus in zip(params.minus_values(), params.plus_values())]
    return Functional.from_vector(_apply_steps(weighted, factors), n)


def reconstruct(phi: Functional, params: BernoulliParams) -> np.ndarray:
    """Values of a coefficient table as a function on atoms (inverse expansion).

    Applies the table of basis products, the Kronecker product of the
    per-step ``[[1, minus], [1, plus]]``, one step at a time.
    """
    if phi.truncation != params.n:
        raise ValueError(
            f"truncation {phi.truncation} does not match parameter length {params.n}"
        )
    _check_vector_size(params.n)
    factors = [((1.0, minus), (1.0, plus))
               for minus, plus in zip(params.minus_values(), params.plus_values())]
    return _apply_steps(phi.as_vector().astype(complex), factors)
