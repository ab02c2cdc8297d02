"""Exact reference routes that only the tests call.

The library computes each quantity of the sensitivity lemma one way, from
count tables.  This module is the independent second way the tests compare
against: distribution algebra (products, push-forwards, mixtures, entropy,
KL divergence, mutual information), output laws of compressive maps under
any input law, fixture maps, the enumerated block laws, and a
fixed-threshold oracle; also the readers (JSON distributions, input
symbols) that only the tests need.  Probability arithmetic is exact
Fractions; entropy functionals return float bits.  Its name differs from
the benchmark's ``reference`` module, so the two suites can run in one
process.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from typing import Any

import numpy as np

from compresslab.budget import check_enumeration
from compresslab.compression import CompressiveMap, SetEncodedCompression, canonical_set, enumerate_law
from compresslab.compression import _conditioned_pools
from compresslab.distributions import FiniteDistribution, Outcome
from compresslab.reduction import Number, Oracle, SDQuery
from compresslab.sensitivity import (
    LEMMA_KL_BOUND,
    LEMMA_PINSKER,
    _batch_counts,
    coordinate_terms,
    pinsker_threshold,
    verify_kl_bound,
)
from compresslab.tournament import Edge

# -- distribution algebra ----------------------------------------------------


def distribution_from_json(obj: dict[str, Any]) -> FiniteDistribution:
    """Inverse of :meth:`FiniteDistribution.to_json`: list outcomes become
    tuples, and each mass is a [num, den] pair."""

    def outcome(w: Any) -> Outcome:
        return tuple(map(outcome, w)) if isinstance(w, list) else w

    mass = [Fraction(int(num), int(den)) for num, den in obj["mass"]]
    return FiniteDistribution([outcome(w) for w in obj["outcomes"]], mass)


def mixture(components: Sequence[tuple[Fraction, FiniteDistribution]]) -> FiniteDistribution:
    """Convex combination of distributions; weights must sum to 1."""
    if not components:
        raise ValueError("empty mixture")
    acc: dict[Outcome, Fraction] = {}
    for weight, dist in components:
        for w, m in dist.items():
            acc[w] = acc.get(w, Fraction(0)) + weight * m
    return FiniteDistribution(tuple(acc.keys()), tuple(acc.values()))


def kl_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Kullback-Leibler divergence sum(P log2(P/Q)) in bits.

    Follows the conventions 0*log(0/q) = 0 and p*log(p/0) = +inf, so the
    result is +inf exactly when supp P is not contained in supp Q.  Infinity
    is an ordinary return value, never an exception.
    """
    total = 0.0
    for w in p.support():
        pw = p.prob(w)
        qw = q.prob(w)
        if qw == 0:
            return math.inf
        total += float(pw) * math.log2(float(pw) / float(qw))
    return total


def entropy(p: FiniteDistribution) -> float:
    """Shannon entropy in bits; between 0 and log2 of the support size."""
    total = 0.0
    for w in p.support():
        pw = float(p.prob(w))
        total -= pw * math.log2(pw)
    return total


def mutual_information(joint: FiniteDistribution) -> float:
    """Mutual information of a joint distribution over (x, y) pairs, in bits.

    Computed as H(X) minus the conditional entropy H(X|Y), where H(X|Y) is
    the Y-average of the entropies of the conditional slices.
    """
    x_marg: dict[Outcome, Fraction] = {}
    y_marg: dict[Outcome, Fraction] = {}
    by_y: dict[Outcome, dict[Outcome, Fraction]] = {}
    for w in joint.support():
        if not isinstance(w, tuple) or len(w) != 2:
            raise ValueError(f"joint outcome {w!r} is not a pair")
        x, y = w
        m = joint.prob(w)
        x_marg[x] = x_marg.get(x, 0) + m
        y_marg[y] = y_marg.get(y, 0) + m
        by_y.setdefault(y, {})[x] = m
    h_x = -sum(float(m) * math.log2(float(m)) for m in x_marg.values())
    h_x_given_y = 0.0
    for y, slice_ in by_y.items():
        py = float(y_marg[y])
        h_slice = 0.0
        for m in slice_.values():
            cond = float(m) / py
            h_slice -= cond * math.log2(cond)
        h_x_given_y += py * h_slice
    info = h_x - h_x_given_y
    return max(info, 0.0)


def push_forward(
    p: FiniteDistribution,
    mapping: Callable[..., Outcome] | Mapping[Outcome, Outcome],
    coin_bits: int = 0,
) -> FiniteDistribution:
    """Exact output distribution of a (possibly randomized) mapping.

    A randomized mapping takes (outcome, coin) with the coin ranging over
    range(2**coin_bits); its internal randomness is a sequence of fair coin
    flips, enumerated exhaustively.  The mapping must be defined on every
    support point.
    """
    if isinstance(mapping, Mapping):
        table = mapping

        def apply(w: Outcome, _c: int) -> Outcome:
            try:
                return table[w]
            except KeyError:
                raise ValueError(f"mapping undefined on support point {w!r}") from None

    elif coin_bits > 0:
        apply = mapping  # type: ignore[assignment]
    else:

        def apply(w: Outcome, _c: int) -> Outcome:
            return mapping(w)  # type: ignore[operator]

    n_coins = 2**coin_bits
    check_enumeration(len(p.support()) * n_coins, "push_forward enumeration")
    coin_weight = Fraction(1, n_coins)
    acc: dict[Outcome, Fraction] = {}
    for w in p.support():
        pw = p.prob(w)
        for c in range(n_coins):
            out = apply(w, c)
            acc[out] = acc.get(out, Fraction(0)) + pw * coin_weight
    return FiniteDistribution(tuple(acc.keys()), tuple(acc.values()))


class ProductDistribution:
    """Product of independent factors over one common alphabet.

    The joint distribution over tuples is only materialized on demand and is
    budget-guarded.  Conditioning a coordinate replaces its factor: pinning
    to a value gives a point mass, excluding a value gives the uniform
    distribution on the rest of the alphabet.
    """

    __slots__ = ("_factors", "_alphabet")

    def __init__(self, factors: Sequence[FiniteDistribution], alphabet: Sequence[Outcome]):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate alphabet symbols")
        if not factors:
            raise ValueError("empty factor list")
        universe = set(alphabet)
        for k, f in enumerate(factors):
            if not set(f.support()) <= universe:
                raise ValueError(f"factor {k} has support outside the alphabet")
        self._factors = tuple(factors)
        self._alphabet = alphabet

    @classmethod
    def uniform(cls, alphabet: Sequence[Outcome], arity: int) -> "ProductDistribution":
        base = FiniteDistribution.uniform(alphabet)
        return cls((base,) * arity, alphabet)

    @property
    def factors(self) -> tuple[FiniteDistribution, ...]:
        return self._factors

    @property
    def alphabet(self) -> tuple[Outcome, ...]:
        return self._alphabet

    @property
    def arity(self) -> int:
        return len(self._factors)

    def is_uniform(self) -> bool:
        """True when every factor is uniform over the full alphabet."""
        full = FiniteDistribution.uniform(self._alphabet)
        return all(f == full for f in self._factors)

    def condition(
        self,
        j: int,
        equal_to: Outcome | None = None,
        not_equal_to: Outcome | None = None,
    ) -> "ProductDistribution":
        """Replace factor j by a point mass (equal_to) or by the uniform
        distribution on the alphabet minus one symbol (not_equal_to)."""
        if (equal_to is None) == (not_equal_to is None):
            raise ValueError("give exactly one of equal_to / not_equal_to")
        if not 0 <= j < self.arity:
            raise ValueError(f"coordinate {j} out of range for arity {self.arity}")
        if equal_to is not None:
            if equal_to not in self._alphabet:
                raise ValueError(f"{equal_to!r} not in the alphabet")
            new = FiniteDistribution.point(equal_to)
        else:
            rest = tuple(a for a in self._alphabet if a != not_equal_to)
            if not_equal_to not in self._alphabet:
                raise ValueError(f"{not_equal_to!r} not in the alphabet")
            if not rest:
                raise ValueError("empty conditional support")
            new = FiniteDistribution.uniform(rest)
        factors = self._factors[:j] + (new,) + self._factors[j + 1 :]
        return ProductDistribution(factors, self._alphabet)

    def joint(self) -> FiniteDistribution:
        """Joint distribution over coordinate tuples, exhaustively enumerated."""
        supports = [f.support() for f in self._factors]
        rows = 1
        for s in supports:
            rows *= len(s)
        check_enumeration(rows, "product joint enumeration")
        outcomes: list[tuple[Outcome, ...]] = []
        masses: list[Fraction] = []

        def rec(prefix: tuple[Outcome, ...], weight: Fraction, k: int) -> None:
            if k == len(self._factors):
                outcomes.append(prefix)
                masses.append(weight)
                return
            for a in supports[k]:
                rec(prefix + (a,), weight * self._factors[k].prob(a), k + 1)

        rec((), Fraction(1), 0)
        return FiniteDistribution(outcomes, masses)


# -- compressive maps: fixtures and output laws under any input law ----------


def input_symbols(f: CompressiveMap, index: int) -> tuple[int, ...]:
    """The symbol tuple of input row ``index``: the inverse of ``f.input_index``."""
    out = []
    for _ in range(f.arity):
        out.append(index % f.alphabet_size)
        index //= f.alphabet_size
    return tuple(reversed(out))


def dictator(arity: int, coordinate: int = 0) -> CompressiveMap:
    """Binary map that copies one input coordinate to a single output bit."""
    idx = np.arange(2**arity)
    shift = arity - 1 - coordinate
    table = ((idx >> shift) & 1).reshape(-1, 1).astype(np.int64)
    return CompressiveMap(arity, 1, 0, table)


def xor(arity: int) -> CompressiveMap:
    """Binary map that outputs the parity of its input bits."""
    idx = np.arange(2**arity)
    bits = (idx[:, None] >> np.arange(arity)[None, :]) & 1
    table = (bits.sum(axis=1) % 2).reshape(-1, 1).astype(np.int64)
    return CompressiveMap(arity, 1, 0, table)


def symbol_identity(alphabet_size: int) -> CompressiveMap:
    """Arity-1 map that outputs the binary code of its input symbol."""
    m = max(1, (alphabet_size - 1).bit_length())
    table = np.arange(alphabet_size, dtype=np.int64).reshape(-1, 1)
    return CompressiveMap(1, m, 0, table, alphabet_size)


def output_distribution(
    f: CompressiveMap, inputs: ProductDistribution | FiniteDistribution | None = None
) -> FiniteDistribution:
    """Distribution of the map's output under the given input law.

    The default input law is the uniform distribution on Sigma^t.  A
    ProductDistribution must match the map's alphabet and arity; a
    FiniteDistribution must be over coordinate tuples (this covers
    mixtures that are not products).  Uniform inputs give their masses
    from the output counts; any other law is summed input by input.
    """
    if inputs is None:
        inputs = ProductDistribution.uniform(tuple(range(f.alphabet_size)), f.arity)
    if isinstance(inputs, ProductDistribution):
        if inputs.arity != f.arity:
            raise ValueError("input arity mismatch")
        if set(inputs.alphabet) != set(range(f.alphabet_size)):
            raise ValueError("input alphabet mismatch")
        if inputs.is_uniform():
            counts = f.output_counts()
            codes = np.nonzero(counts)[0]
            labels = [f.output_label(int(c)) for c in codes]
            denom = f.n_inputs * f.n_coins
            return FiniteDistribution.from_counts(labels, counts[codes].tolist(), denom)
        joint = inputs.joint()
    else:
        joint = inputs
    acc: dict[int, Fraction] = {}
    for symbols in joint.support():
        weight = joint.prob(symbols)
        row = f.table[f.input_index(symbols)]
        for code, cnt in zip(*np.unique(row, return_counts=True)):
            acc[int(code)] = acc.get(int(code), Fraction(0)) + weight * Fraction(int(cnt), f.n_coins)
    codes = sorted(acc)
    labels = [f.output_label(c) for c in codes]
    return FiniteDistribution(labels, [acc[c] for c in codes])


def joint_output_input_distribution(f: CompressiveMap) -> FiniteDistribution:
    """Exact joint law of (output label, input tuple), for :func:`mutual_information`."""
    pairs = []
    counts = []
    for idx in range(f.n_inputs):
        symbols = input_symbols(f, idx)
        row = f.table[idx]
        for code, cnt in zip(*np.unique(row, return_counts=True)):
            pairs.append((f.output_label(int(code)), symbols))
            counts.append(int(cnt))
    return FiniteDistribution.from_counts(pairs, counts, f.n_inputs * f.n_coins)


# -- block laws, every pick enumerated ---------------------------------------


def block_conditioned_distributions(
    a: SetEncodedCompression, blocks: Sequence[Edge], v: int
) -> tuple[FiniteDistribution, FiniteDistribution]:
    """Output laws of A on one uniform pick per block, without / with v.

    The input set takes one uniformly chosen element from every block.  The
    first law conditions v's block to avoid v, the second pins it to v.
    Every pick is enumerated: the reference for
    :class:`compresslab.compression.BlockCompression`.
    """
    blocks = [canonical_set(b) for b in blocks]
    if len({len(b) for b in blocks}) != 1:
        raise ValueError("blocks must have equal sizes")
    if len(blocks[0]) < 2:
        raise ValueError("blocks need at least two elements")
    all_elems = [w for b in blocks for w in b]
    if len(set(all_elems)) != len(all_elems):
        raise ValueError("blocks must be disjoint")
    if len(blocks) > a.arity:
        raise ValueError("more blocks than the compression arity")
    without, pinned = _conditioned_pools(blocks, v)
    return enumerate_law(a, without), enumerate_law(a, pinned)


# -- sensitivity functionals over the public term tables ---------------------


def _term_mean(terms: list[list[Any]]) -> Any:
    """Mean of a term table by a running sum in (j, x) order, as the verifiers take it."""
    flat = [term for row in terms for term in row]
    total = flat[0]
    for term in flat[1:]:
        total += term
    return total / len(flat)


def avg_noise_sensitivity(f: CompressiveMap) -> Fraction:
    """Average over coordinates of d(output | coord=0, output | coord=1).

    Defined for binary alphabets; the exact average is returned as a
    rational.
    """
    return _term_mean(coordinate_terms(f, LEMMA_PINSKER))


def kl_sensitivity(f: CompressiveMap) -> tuple[float, float]:
    """(average KL(out | j=x, out), I(output : input) / t) in bits: the sides of ``verify_kl_bound``."""
    rep = verify_kl_bound(f)
    return rep.lhs, rep.rhs


def pinsker_chain(f: CompressiveMap) -> dict[str, float]:
    """Every intermediate quantity of the noise-sensitivity derivation.

    Returns the measured sensitivity, twice the average distance to the
    unconditioned output, the bound on that average via the square root of
    the average divergence, and the closed-form ceiling.  Each value is at
    most the next one (up to the float tolerance).  Both term tables come
    from one count pass.

    On a binary alphabet the unconditioned output is the midpoint of the two
    conditioned ones, so its distance to either is exactly half their
    distance: the first two values are equal rationals.
    """
    if f.alphabet_size != 2:
        raise ValueError("the chain is defined for binary alphabets")
    counts = _batch_counts([f])
    sensitivity = float(_term_mean(coordinate_terms(f, LEMMA_PINSKER, counts)))
    avg_kl = _term_mean(coordinate_terms(f, LEMMA_KL_BOUND, counts))
    return {
        "sensitivity": sensitivity,
        "two_avg_distance": sensitivity,
        "two_pinsker_of_avg_kl": 2.0 * math.sqrt(math.log(2) / 2.0 * avg_kl),
        "ceiling": pinsker_threshold(f.output_bits, f.arity),
    }


# -- oracles -----------------------------------------------------------------


def threshold_oracle(theta: Number) -> Oracle:
    """Oracle answering true at distance >= theta; valid for theta in (delta, Delta]."""

    def oracle(query: SDQuery) -> bool:
        return query.distance >= theta

    return oracle
