"""Noise-sensitivity functionals of compressive maps and their certified bounds.

Three inequalities are verified numerically, each as a report with a left
side measured by exhaustive enumeration and a right side from a closed form:

* average noise sensitivity of a binary-alphabet map is at most
  sqrt(2 ln 2 * m/t),
* the coordinate-average KL divergence between conditioned and
  unconditioned outputs is at most I(output : input) / t,
* the average distance between the two ways of conditioning one coordinate
  (pinned to a symbol versus avoiding it) is at most
  1 - exp(-1 - I/t in nats) + 1/|alphabet|.

Probabilities and statistical distances are exact rationals; logarithms are
evaluated in floats, so certified slacks carry a 1e-9 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .compression import CompressiveMap
from .distributions import (
    FiniteDistribution,
    ProductDistribution,
    kl_divergence,
    mutual_information,
)

LEMMA_KL_BOUND = "KL_BOUND"
LEMMA_PINSKER = "PINSKER_SENS"
LEMMA_VAJDA = "VAJDA_SENS"

#: Tolerance for comparisons whose right side involves a logarithm.
SLACK_TOL = 1e-9

LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one inequality check.

    The witness is the coordinate/symbol pair attaining the largest single
    term of the averaged left side (symbol None when the left side averages
    over coordinates only).  slack = rhs - lhs must be >= -1e-9 on every
    valid instance; these are theorems.
    """

    lemma: str
    lhs: float
    rhs: float
    witness_j: int | None
    witness_x: int | None
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def holds(self, tol: float = SLACK_TOL) -> bool:
        return self.slack >= -tol

    def to_json(self) -> dict[str, Any]:
        return {
            "lemma": self.lemma,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "witness": {"j": self.witness_j, "x": self.witness_x},
            "params": dict(self.params),
        }


def pinsker_threshold(output_bits: int, arity: int) -> float:
    """sqrt(2 ln 2 * m/t), the noise-sensitivity ceiling of an (m, t) map."""
    return math.sqrt(2 * math.log(2) * output_bits / arity)


def vajda_threshold(info_bits: float, arity: int, alphabet_size: int) -> float:
    """1 - 2**(-log2(e) - I/t) + 1/|alphabet|; the conditioned-distance ceiling."""
    return 1.0 - 2.0 ** (-LOG2_E - info_bits / arity) + 1.0 / alphabet_size


# ---------------------------------------------------------------------------
# count-vector helpers (exact distances, float divergences)
# ---------------------------------------------------------------------------


def _count_distance(c1: np.ndarray, n1: int, c2: np.ndarray, n2: int) -> Fraction:
    # int64 is safe: counts and denominators are bounded by the row budget.
    diff = np.abs(c1.astype(np.int64) * n2 - c2.astype(np.int64) * n1).sum()
    return Fraction(int(diff), 2 * n1 * n2)


def _count_kl_bits(cp: np.ndarray, np_total: int, cq: np.ndarray, nq_total: int) -> float:
    total = 0.0
    for z in np.nonzero(cp)[0]:
        p = int(cp[z]) / np_total
        q = int(cq[z]) / nq_total
        if q == 0.0:
            return math.inf
        total += p * math.log2(p / q)
    return total


def _count_entropy_bits(counts: np.ndarray, total: int) -> float:
    out = 0.0
    for c in counts[counts > 0]:
        p = int(c) / total
        out -= p * math.log2(p)
    return out


def _uniform_counts(f: CompressiveMap) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(full counts, conditioned counts, full denom, conditioned denom)."""
    cond = f.conditioned_output_counts()
    full = cond[0].sum(axis=0)
    n_full = f.n_inputs * f.n_coins
    n_cond = n_full // f.alphabet_size
    return full, cond, n_full, n_cond


def _require_uniform(f: CompressiveMap, inputs: ProductDistribution | None) -> None:
    if inputs is not None:
        if inputs.arity != f.arity or set(inputs.alphabet) != set(range(f.alphabet_size)):
            raise ValueError("input law does not match the map")
        if not inputs.is_uniform():
            raise ValueError("this functional is defined for the uniform input law")


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def avg_noise_sensitivity(f: CompressiveMap, inputs: ProductDistribution | None = None) -> Fraction:
    """Average over coordinates of d(output | coord=0, output | coord=1).

    Defined for binary alphabets under the uniform input law; the exact
    average is returned as a rational.
    """
    if f.alphabet_size != 2:
        raise ValueError("average noise sensitivity needs a binary alphabet")
    _require_uniform(f, inputs)
    _, cond, _, n_cond = _uniform_counts(f)
    total = Fraction(0)
    for j in range(f.arity):
        total += _count_distance(cond[j, 0], n_cond, cond[j, 1], n_cond)
    return total / f.arity


def map_input_mutual_information(f: CompressiveMap, inputs: ProductDistribution | None = None) -> float:
    """I(output : input) in bits under the uniform input law.

    Computed as H(output) minus the input-average of the per-row coin
    entropies; zero coin bits make the conditional term vanish.
    """
    _require_uniform(f, inputs)
    h_out = _count_entropy_bits(f.output_counts(), f.n_inputs * f.n_coins)
    if f.coin_bits == 0:
        return h_out
    m_codes = 2**f.output_bits
    keyed = np.arange(f.n_inputs)[:, None] * m_codes + f.table
    row_counts = np.bincount(keyed.ravel(), minlength=f.n_inputs * m_codes).reshape(f.n_inputs, m_codes)
    # A row count is one of 0..n_coins, so -p log2 p is evaluated once per value.
    p = np.arange(f.n_coins + 1) / f.n_coins
    with np.errstate(divide="ignore", invalid="ignore"):
        term_of_count = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    h_given_input = float(term_of_count[row_counts].sum(axis=1).mean())
    return max(h_out - h_given_input, 0.0)


def joint_output_input_distribution(f: CompressiveMap) -> FiniteDistribution:
    """Exact joint law of (output label, input tuple) under uniform inputs.

    This is the slow reference route for the mutual information; it feeds
    straight into :func:`compresslab.distributions.mutual_information`.
    """
    pairs = []
    counts = []
    for idx in range(f.n_inputs):
        symbols = f.input_symbols(idx)
        row = f.table[idx]
        for code, cnt in zip(*np.unique(row, return_counts=True)):
            pairs.append((f.output_label(int(code)), symbols))
            counts.append(int(cnt))
    return FiniteDistribution.from_counts(pairs, counts, f.n_inputs * f.n_coins)


def kl_sensitivity(
    f: CompressiveMap, inputs: ProductDistribution | None = None
) -> tuple[float, float]:
    """(average conditioned-vs-full KL, I(output : input) / t), both in bits.

    The left side averages, over a uniform coordinate j and a symbol x drawn
    from factor j, the divergence between the output law with coordinate j
    pinned to x and the unconditioned output law.  The unconditioned law is
    a mixture of the conditioned ones, so every term is finite; an infinite
    term signals a broken table and raises.
    """
    if inputs is not None and not inputs.is_uniform():
        return _kl_sensitivity_general(f, inputs)
    _require_uniform(f, inputs)
    full, cond, n_full, n_cond = _uniform_counts(f)
    t, s = f.arity, f.alphabet_size
    lhs = 0.0
    for j in range(t):
        for x in range(s):
            term = _count_kl_bits(cond[j, x], n_cond, full, n_full)
            if math.isinf(term):
                raise RuntimeError(
                    f"infinite KL term at coordinate {j}, symbol {x}: the full output "
                    "law lost an outcome of one of its components, which is impossible "
                    "for a total table"
                )
            lhs += term
    lhs /= t * s
    rhs = map_input_mutual_information(f) / t
    return lhs, rhs


def _kl_sensitivity_general(f: CompressiveMap, inputs: ProductDistribution) -> tuple[float, float]:
    full = f.output_distribution(inputs)
    lhs = 0.0
    for j in range(f.arity):
        factor = inputs.marginal(j)
        for x in factor.support():
            conditioned = f.output_distribution(inputs.condition(j, equal_to=x))
            term = kl_divergence(conditioned, full)
            if math.isinf(term):
                raise RuntimeError(f"infinite KL term at coordinate {j}, symbol {x!r}")
            lhs += float(factor.prob(x)) * term
    lhs /= f.arity
    joint = _joint_for(f, inputs)
    rhs = mutual_information(joint) / f.arity
    return lhs, rhs


def _joint_for(f: CompressiveMap, inputs: ProductDistribution) -> FiniteDistribution:
    law = inputs.joint()
    pairs = []
    masses = []
    for symbols in law.support():
        weight = law.prob(symbols)
        row = f.table[f.input_index(symbols)]
        for code, cnt in zip(*np.unique(row, return_counts=True)):
            pairs.append((f.output_label(int(code)), symbols))
            masses.append(weight * Fraction(int(cnt), f.n_coins))
    return FiniteDistribution(pairs, masses)


def verify_kl_bound(f: CompressiveMap, inputs: ProductDistribution | None = None) -> LemmaReport:
    """Report for the KL-vs-mutual-information bound, with the worst term as witness."""
    if inputs is not None and not inputs.is_uniform():
        lhs, rhs = _kl_sensitivity_general(f, inputs)
        return LemmaReport(LEMMA_KL_BOUND, lhs, rhs, None, None, _map_params(f))
    full, cond, n_full, n_cond = _uniform_counts(f)
    t, s = f.arity, f.alphabet_size
    lhs = 0.0
    worst = (-1.0, None, None)
    for j in range(t):
        for x in range(s):
            term = _count_kl_bits(cond[j, x], n_cond, full, n_full)
            if term > worst[0]:
                worst = (term, j, x)
            lhs += term
    lhs /= t * s
    rhs = map_input_mutual_information(f) / t
    return LemmaReport(LEMMA_KL_BOUND, lhs, rhs, worst[1], worst[2], _map_params(f))


def verify_pinsker_sensitivity(f: CompressiveMap) -> LemmaReport:
    """Report comparing the average noise sensitivity against sqrt(2 ln 2 * m/t)."""
    if f.alphabet_size != 2:
        raise ValueError("the noise-sensitivity bound needs a binary alphabet")
    _, cond, _, n_cond = _uniform_counts(f)
    terms = [_count_distance(cond[j, 0], n_cond, cond[j, 1], n_cond) for j in range(f.arity)]
    lhs = sum(terms, Fraction(0)) / f.arity
    worst_j = max(range(f.arity), key=lambda j: terms[j])
    rhs = pinsker_threshold(f.output_bits, f.arity)
    return LemmaReport(LEMMA_PINSKER, float(lhs), rhs, worst_j, None, _map_params(f))


def verify_vajda_sensitivity(f: CompressiveMap, inputs: ProductDistribution | None = None) -> LemmaReport:
    """Report for the conditioned-distance bound over a general alphabet.

    The left side averages d(output | coord != x, output | coord = x); the
    right side combines the divergence ceiling with the 1/|alphabet| cost of
    resampling one coordinate.
    """
    if f.alphabet_size < 2:
        raise ValueError("alphabet needs at least two symbols")
    _require_uniform(f, inputs)
    full, cond, n_full, n_cond = _uniform_counts(f)
    t, s = f.arity, f.alphabet_size
    n_ne = n_full - n_cond
    lhs = Fraction(0)
    worst: tuple[Fraction, int | None, int | None] = (Fraction(-1), None, None)
    for j in range(t):
        for x in range(s):
            ne_counts = full - cond[j, x]
            term = _count_distance(ne_counts, n_ne, cond[j, x], n_cond)
            if term > worst[0]:
                worst = (term, j, x)
            lhs += term
    lhs /= t * s
    rhs = vajda_threshold(map_input_mutual_information(f), t, s)
    return LemmaReport(LEMMA_VAJDA, float(lhs), rhs, worst[1], worst[2], _map_params(f))


def pinsker_chain(f: CompressiveMap) -> dict[str, float]:
    """Every intermediate quantity of the noise-sensitivity derivation.

    Returns the measured sensitivity, twice the average distance to the
    unconditioned output, the bound on that average via the square root of
    the average divergence, and the closed-form ceiling.  Each value is at
    most the next one (up to the float tolerance).
    """
    if f.alphabet_size != 2:
        raise ValueError("the chain is defined for binary alphabets")
    full, cond, n_full, n_cond = _uniform_counts(f)
    t, s = f.arity, f.alphabet_size
    avg_dist = Fraction(0)
    avg_kl = 0.0
    for j in range(t):
        for x in range(s):
            avg_dist += _count_distance(full, n_full, cond[j, x], n_cond)
            avg_kl += _count_kl_bits(cond[j, x], n_cond, full, n_full)
    avg_dist /= t * s
    avg_kl /= t * s
    return {
        "sensitivity": float(avg_noise_sensitivity(f)),
        "two_avg_distance": float(2 * avg_dist),
        "two_pinsker_of_avg_kl": 2.0 * math.sqrt(math.log(2) / 2.0 * avg_kl),
        "ceiling": pinsker_threshold(f.output_bits, f.arity),
    }


def conditioned_output_distribution(
    f: CompressiveMap, j: int, x: int, exclude: bool = False, exact: bool = True
) -> FiniteDistribution:
    """Output law with coordinate j pinned to x, or avoiding x when exclude is set."""
    full, cond, n_full, n_cond = _uniform_counts(f)
    if exclude:
        counts, denom = full - cond[j, x], n_full - n_cond
    else:
        counts, denom = cond[j, x], n_cond
    nz = np.nonzero(counts)[0]
    labels = [f.output_label(int(c)) for c in nz]
    return FiniteDistribution.from_counts(labels, [int(counts[c]) for c in nz], denom, exact)


def _map_params(f: CompressiveMap) -> dict[str, Any]:
    return {
        "t": f.arity,
        "m": f.output_bits,
        "r": f.coin_bits,
        "sigma": f.alphabet_size,
    }


__all__ = [
    "LEMMA_KL_BOUND",
    "LEMMA_PINSKER",
    "LEMMA_VAJDA",
    "SLACK_TOL",
    "LemmaReport",
    "avg_noise_sensitivity",
    "conditioned_output_distribution",
    "joint_output_input_distribution",
    "kl_sensitivity",
    "map_input_mutual_information",
    "pinsker_chain",
    "pinsker_threshold",
    "vajda_threshold",
    "verify_kl_bound",
    "verify_pinsker_sensitivity",
    "verify_vajda_sensitivity",
]
