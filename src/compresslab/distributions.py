"""Exact finite probability distributions and their statistical functionals.

A :class:`FiniteDistribution` is an ordered list of distinct outcomes with a
probability mass per outcome.  Masses are either `fractions.Fraction` (exact
mode, the default) or `float` (fast mode).  All probability arithmetic, for
example statistical distance, push-forwards and mixtures, stays in the mass
arithmetic, so exact inputs give exact answers.  Entropy-like functionals
(entropy, KL divergence, mutual information) involve logarithms and always
return floats measured in bits; transcendental bounds are compared with a
1e-9 tolerance elsewhere in the package.

Two-distribution functionals implicitly union the outcome universes, with
missing outcomes carrying mass zero.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Mapping, Sequence
from fractions import Fraction
from typing import Any

from .budget import check_enumeration

Outcome = Hashable
Mass = Fraction | float

#: KL divergence of a pair with a support violation.
INFINITE_KL = math.inf


def _is_exact(value: Mass) -> bool:
    return isinstance(value, (Fraction, int))


class FiniteDistribution:
    """Probability mass over a finite, duplicate-free outcome list.

    Masses must be nonnegative and sum to exactly 1 in exact mode, or to 1
    within 1e-12 in float mode.  Instances are immutable and safe to share.
    """

    __slots__ = ("_outcomes", "_mass", "_prob", "_exact", "_hash")

    def __init__(self, outcomes: Sequence[Outcome], mass: Sequence[Mass]):
        outcomes = tuple(outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("duplicate outcomes")
        if len(outcomes) != len(mass):
            raise ValueError("outcomes and mass differ in length")
        if not outcomes:
            raise ValueError("empty support")
        exact = all(_is_exact(m) for m in mass)
        if exact:
            mass = tuple(Fraction(m) for m in mass)
            if any(m < 0 for m in mass):
                raise ValueError("negative mass")
            if sum(mass) != 1:
                raise ValueError(f"mass sums to {sum(mass)}, not 1")
        else:
            mass = tuple(float(m) for m in mass)
            if any(m < -1e-12 for m in mass):
                raise ValueError("negative mass")
            if abs(sum(mass) - 1.0) > 1e-12:
                raise ValueError(f"mass sums to {sum(mass)!r}, not 1 within 1e-12")
        self._outcomes = outcomes
        self._mass = mass
        self._prob = dict(zip(outcomes, mass))
        self._exact = exact
        self._hash: int | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def uniform(cls, ground_set: Sequence[Outcome], exact: bool = True) -> "FiniteDistribution":
        """Uniform distribution over a non-empty, duplicate-free ground set."""
        ground_set = tuple(ground_set)
        if not ground_set:
            raise ValueError("empty support")
        n = len(ground_set)
        m: Mass = Fraction(1, n) if exact else 1.0 / n
        return cls(ground_set, (m,) * n)

    @classmethod
    def point(cls, outcome: Outcome, exact: bool = True) -> "FiniteDistribution":
        """Point mass on a single outcome."""
        return cls((outcome,), (Fraction(1) if exact else 1.0,))

    @classmethod
    def from_counts(
        cls,
        outcomes: Sequence[Outcome],
        counts: Sequence[int],
        denominator: int,
        exact: bool = True,
    ) -> "FiniteDistribution":
        """Distribution with mass count/denominator per outcome.

        The counts must sum to the denominator; this is how exhaustive
        enumeration results become distributions without rounding.
        """
        if exact:
            mass = [Fraction(int(c), denominator) for c in counts]
        else:
            mass = [int(c) / denominator for c in counts]
        return cls(outcomes, mass)

    # -- basic access ------------------------------------------------------

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return self._outcomes

    @property
    def mass(self) -> tuple[Mass, ...]:
        return self._mass

    @property
    def exact(self) -> bool:
        return self._exact

    def prob(self, outcome: Outcome) -> Mass:
        """Mass of an outcome, zero for outcomes outside the list."""
        return self._prob.get(outcome, Fraction(0) if self._exact else 0.0)

    def support(self) -> tuple[Outcome, ...]:
        """Exactly the outcomes carrying positive mass, in listed order."""
        return tuple(w for w, m in zip(self._outcomes, self._mass) if m > 0)

    def items(self):
        return zip(self._outcomes, self._mass)

    def as_dict(self) -> dict[Outcome, Mass]:
        """Support outcomes mapped to their masses (zero-mass entries dropped)."""
        return {w: m for w, m in self.items() if m > 0}

    def to_float(self) -> "FiniteDistribution":
        if not self._exact:
            return self
        return FiniteDistribution(self._outcomes, tuple(float(m) for m in self._mass))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.as_dict().items()))
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(f"{w!r}: {m}" for w, m in self.items())
        return f"FiniteDistribution({{{pairs}}})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """JSON object with outcomes plus [num, den] pairs (exact) or floats."""
        if self._exact:
            mass = [[m.numerator, m.denominator] for m in self._mass]
        else:
            mass = list(self._mass)
        return {"outcomes": [_jsonify_outcome(w) for w in self._outcomes], "mass": mass}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "FiniteDistribution":
        outcomes = [_unjsonify_outcome(w) for w in obj["outcomes"]]
        raw = obj["mass"]
        mass: list[Mass]
        if raw and isinstance(raw[0], (list, tuple)):
            mass = [Fraction(int(num), int(den)) for num, den in raw]
        else:
            mass = [float(m) for m in raw]
        return cls(outcomes, mass)


def _jsonify_outcome(w: Outcome) -> Any:
    if isinstance(w, tuple):
        return [_jsonify_outcome(v) for v in w]
    return w


def _unjsonify_outcome(w: Any) -> Outcome:
    if isinstance(w, list):
        return tuple(_unjsonify_outcome(v) for v in w)
    return w


def mixture(components: Sequence[tuple[Mass, FiniteDistribution]]) -> FiniteDistribution:
    """Convex combination of distributions; weights must sum to 1."""
    if not components:
        raise ValueError("empty mixture")
    exact = all(_is_exact(w) and d.exact for w, d in components)
    acc: dict[Outcome, Mass] = {}
    for weight, dist in components:
        for w, m in dist.items():
            acc[w] = acc.get(w, Fraction(0) if exact else 0.0) + weight * m
    return FiniteDistribution(tuple(acc.keys()), tuple(acc.values()))


# -- statistical functionals ------------------------------------------------


def _universe(p: FiniteDistribution, q: FiniteDistribution) -> tuple[Outcome, ...]:
    seen = dict.fromkeys(p.outcomes)
    seen.update(dict.fromkeys(q.outcomes))
    return tuple(seen)


def statistical_distance(p: FiniteDistribution, q: FiniteDistribution) -> Mass:
    """Total variation distance, computed as half the 1-norm of the mass gap.

    Symmetric, zero exactly for equal distributions, one exactly for disjoint
    supports.  Exact when both inputs are exact.
    """
    exact = p.exact and q.exact
    total: Mass = Fraction(0) if exact else 0.0
    for w in _universe(p, q):
        total += abs(p.prob(w) - q.prob(w))
    return total / 2


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
            return INFINITE_KL
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
    x_marg: dict[Outcome, Mass] = {}
    y_marg: dict[Outcome, Mass] = {}
    by_y: dict[Outcome, dict[Outcome, Mass]] = {}
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
    coin_weight: Mass = Fraction(1, n_coins) if p.exact else 1.0 / n_coins
    acc: dict[Outcome, Mass] = {}
    for w in p.support():
        pw = p.prob(w)
        for c in range(n_coins):
            out = apply(w, c)
            acc[out] = acc.get(out, Fraction(0) if p.exact else 0.0) + pw * coin_weight
    return FiniteDistribution(tuple(acc.keys()), tuple(acc.values()))


# -- independent products ----------------------------------------------------


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
    def uniform(cls, alphabet: Sequence[Outcome], arity: int, exact: bool = True) -> "ProductDistribution":
        base = FiniteDistribution.uniform(alphabet, exact=exact)
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

    @property
    def exact(self) -> bool:
        return all(f.exact for f in self._factors)

    def is_uniform(self) -> bool:
        """True when every factor is uniform over the full alphabet."""
        full = FiniteDistribution.uniform(self._alphabet)
        return all(f.to_float() == full.to_float() if not f.exact else f == full for f in self._factors)

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
        exact = self.exact
        if equal_to is not None:
            if equal_to not in self._alphabet:
                raise ValueError(f"{equal_to!r} not in the alphabet")
            new = FiniteDistribution.point(equal_to, exact=exact)
        else:
            rest = tuple(a for a in self._alphabet if a != not_equal_to)
            if not_equal_to not in self._alphabet:
                raise ValueError(f"{not_equal_to!r} not in the alphabet")
            if not rest:
                raise ValueError("empty conditional support")
            new = FiniteDistribution.uniform(rest, exact=exact)
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
        masses: list[Mass] = []
        exact = self.exact

        def rec(prefix: tuple[Outcome, ...], weight: Mass, k: int) -> None:
            if k == len(self._factors):
                outcomes.append(prefix)
                masses.append(weight)
                return
            for a in supports[k]:
                rec(prefix + (a,), weight * self._factors[k].prob(a), k + 1)

        rec((), Fraction(1) if exact else 1.0, 0)
        return FiniteDistribution(outcomes, masses)

    def __repr__(self) -> str:
        return f"ProductDistribution(arity={self.arity}, alphabet={self._alphabet!r})"
