"""Discrete-time Bernoulli noise realizing the product probability model.

Step k takes the value sqrt((1 - theta_k) / theta_k) with probability
theta_k and -sqrt(theta_k / (1 - theta_k)) otherwise, which pins the
conditional mean at 0 and the conditional second moment at 1. Products of
steps over a subset sigma give the basis family whose Gram matrix is the
identity; everything here either enumerates the finite sample space exactly
(an atom per outcome bitmask, bit k set = the positive branch) or samples it
with a counter-based generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import check_truncation
from .functionals import Functional

_EXACT_ENUMERATION_CAP = 13  # 4**n work/memory; past this use sampling
_MC_BASIS_CAP = 8  # sample matrices hold 2**n columns


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams are independent by key."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BernoulliParams:
    """Success probabilities theta_k for each step, all strictly inside (0, 1)
    and with finite step values."""

    thetas: tuple

    def __post_init__(self):
        cleaned = tuple(float(t) for t in self.thetas)
        for t in cleaned:
            if not 0.0 < t < 1.0:
                raise ValueError(f"theta values must lie strictly in (0, 1), got {t}")
            if not (math.isfinite((1.0 - t) / t) and math.isfinite(t / (1.0 - t))):
                raise ValueError(
                    f"theta {t} gives a step value sqrt((1 - t) / t) that overflows "
                    "double precision"
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

    def to_json(self) -> dict:
        return {"thetas": list(self.thetas)}

    @classmethod
    def from_json(cls, data: dict) -> "BernoulliParams":
        """Parameters from their JSON form; ValueError on any malformed payload."""
        thetas = data.get("thetas") if isinstance(data, dict) else None
        if not isinstance(thetas, list):
            raise ValueError("theta JSON must be an object with a 'thetas' list")
        try:
            values = tuple(float(t) for t in thetas)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"'thetas' must hold numbers: {exc}") from exc
        return cls(values)


def _check_exact_size(n: int) -> int:
    n = check_truncation(n)
    if n > _EXACT_ENUMERATION_CAP:
        raise ValueError(
            f"exact enumeration handles up to n = {_EXACT_ENUMERATION_CAP} "
            f"(got {n}); use the sampling path instead"
        )
    return n


def atom_probs(params: BernoulliParams) -> np.ndarray:
    """Probability of every outcome bitmask, length 2**n."""
    _check_exact_size(params.n)
    probs = np.ones(1, dtype=float)
    for t in params.thetas:
        probs = np.concatenate([probs * (1.0 - t), probs * t])
    return probs

def psi_matrix(params: BernoulliParams) -> np.ndarray:
    """Step values per atom: entry (a, k) is the outcome of step k on atom a."""
    n = _check_exact_size(params.n)
    atoms = np.arange(1 << n, dtype=np.int64)
    bits = (atoms[:, None] >> np.arange(n)) & 1
    return np.where(bits == 1, params.plus_values(), params.minus_values())


def _products_over_masks(step_values: np.ndarray) -> np.ndarray:
    """Row-wise products over every index subset.

    Input (rows, n) of per-step values; output (rows, 2**n) whose column m is
    the product over the bits of m, built by the doubling recursion.
    """
    rows, n = step_values.shape
    out = np.empty((rows, 1 << n))
    out[:, 0] = 1.0
    for k in range(n):
        h = 1 << k
        # masks with top bit k: the products over the lower bits times step k
        np.multiply(out[:, :h], step_values[:, k : k + 1], out=out[:, h : 2 * h])
    return out


def z_matrix(params: BernoulliParams) -> np.ndarray:
    """Exact table of basis-product values: entry (atom, mask)."""
    return _products_over_masks(psi_matrix(params))


def exact_gram(params: BernoulliParams) -> np.ndarray:
    """Gram matrix of the product basis under the exact atom probabilities."""
    z = z_matrix(params)
    p = atom_probs(params)
    return z.T @ (p[:, None] * z)


@dataclass(frozen=True)
class MomentReport:
    """Worst conditional-moment deviations per step and overall."""

    mean_dev_per_step: tuple
    second_dev_per_step: tuple

    @property
    def max_mean_dev(self) -> float:
        return max(self.mean_dev_per_step, default=0.0)

    @property
    def max_second_dev(self) -> float:
        return max(self.second_dev_per_step, default=0.0)

    def to_json(self) -> dict:
        return {
            "mean_dev_per_step": list(self.mean_dev_per_step),
            "second_dev_per_step": list(self.second_dev_per_step),
            "max_mean_dev": self.max_mean_dev,
            "max_second_dev": self.max_second_dev,
        }


def conditional_moments(params: BernoulliParams) -> MomentReport:
    """Conditional mean and second moment of each step given its past.

    Atoms are grouped by their low-order bits (the outcomes of the earlier
    steps); within each group the conditional mean must vanish and the
    conditional second moment must be 1, for every step. Both hold exactly up
    to floating point, whatever the theta sequence.
    """
    n = _check_exact_size(params.n)
    p = atom_probs(params)
    psi = psi_matrix(params)
    mean_devs, second_devs = [], []
    for m in range(n):
        groups = 1 << m
        den = p.reshape(-1, groups).sum(axis=0)
        num1 = (p * psi[:, m]).reshape(-1, groups).sum(axis=0)
        num2 = (p * psi[:, m] ** 2).reshape(-1, groups).sum(axis=0)
        mean_devs.append(float(np.max(np.abs(num1 / den))))
        second_devs.append(float(np.max(np.abs(num2 / den - 1.0))))
    return MomentReport(tuple(mean_devs), tuple(second_devs))


def sample_steps(
    params: BernoulliParams, samples: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Draw (samples, n) step outcomes from the product measure."""
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = rng_stream(seed, stream)
    t = np.asarray(params.thetas)
    hits = rng.random((samples, params.n)) < t
    return np.where(hits, params.plus_values(), params.minus_values())


def monte_carlo_gram(
    params: BernoulliParams, samples: int, seed: int, stream: int = 0
) -> tuple:
    """Sampled Gram matrix plus a per-entry standard error estimate."""
    n = params.n
    if n > _MC_BASIS_CAP:
        raise ValueError(
            f"sampled Gram holds 2**n columns; capped at n = {_MC_BASIS_CAP}, got {n}"
        )
    z = _products_over_masks(sample_steps(params, samples, seed, stream))
    gram = z.T @ z / samples
    second = (z * z).T @ (z * z) / samples
    variance = np.maximum(second - gram**2, 0.0)
    stderr = np.sqrt(variance / samples)
    return gram, stderr


def chaotic_expand(f, params: BernoulliParams) -> Functional:
    """Coefficients of a functional of the noise path against the product basis.

    ``f`` maps a tuple of step values (one full path) to a number; the
    coefficient at sigma is the expectation of f times the basis product,
    computed exactly over the finite sample space.
    """
    n = _check_exact_size(params.n)
    psi = psi_matrix(params)
    values = np.array([complex(f(tuple(row))) for row in psi])
    weighted = atom_probs(params) * values
    coeffs = z_matrix(params).T @ weighted
    return Functional.from_vector(coeffs, n)


def reconstruct(phi: Functional, params: BernoulliParams) -> np.ndarray:
    """Values of a coefficient table as a function on atoms (inverse expansion)."""
    if phi.truncation != params.n:
        raise ValueError(
            f"truncation {phi.truncation} does not match parameter length {params.n}"
        )
    return z_matrix(params) @ phi.as_vector()
