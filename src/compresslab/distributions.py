"""Exact finite probability distributions and their statistical distance.

A :class:`FiniteDistribution` is an ordered list of distinct outcomes with a
probability mass per outcome.  Masses are `fractions.Fraction` values; there
is no float mode, so a statistical distance is an exact rational that the
reduction can compare against its promise gap without a tolerance.  The
distance unions the two outcome universes, with missing outcomes carrying
mass zero.  Entropies and divergences of compressive maps are computed from
count tables, not from distributions (see :mod:`compresslab.sensitivity`).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from fractions import Fraction
from numbers import Rational
from typing import Any

Outcome = Hashable


class FiniteDistribution:
    """Probability mass over a finite, duplicate-free outcome list.

    Masses must be exact rationals (Fractions, or Python or numpy integers),
    nonnegative, and sum to exactly 1; they are stored as Fractions.
    Instances are immutable and safe to share.
    """

    __slots__ = ("_outcomes", "_mass", "_prob", "_hash")

    def __init__(self, outcomes: Sequence[Outcome], mass: Sequence[Rational]):
        outcomes = tuple(outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("duplicate outcomes")
        if len(outcomes) != len(mass):
            raise ValueError("outcomes and mass differ in length")
        if not outcomes:
            raise ValueError("empty support")
        if not all(isinstance(m, Rational) for m in mass):
            raise TypeError("masses must be Fractions or integers")
        # Fraction(m) would keep a numpy integer as the numerator
        mass = tuple(m if type(m) is Fraction else Fraction(int(m.numerator), int(m.denominator)) for m in mass)
        if any(m < 0 for m in mass):
            raise ValueError("negative mass")
        if sum(mass) != 1:
            raise ValueError(f"mass sums to {sum(mass)}, not 1")
        self._outcomes = outcomes
        self._mass = mass
        self._prob = dict(zip(outcomes, mass))
        self._hash: int | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def uniform(cls, ground_set: Sequence[Outcome]) -> "FiniteDistribution":
        """Uniform distribution over a non-empty, duplicate-free ground set."""
        ground_set = tuple(ground_set)
        if not ground_set:
            raise ValueError("empty support")
        n = len(ground_set)
        return cls(ground_set, (Fraction(1, n),) * n)

    @classmethod
    def point(cls, outcome: Outcome) -> "FiniteDistribution":
        """Point mass on a single outcome."""
        return cls((outcome,), (Fraction(1),))

    @classmethod
    def from_counts(cls, outcomes: Sequence[Outcome], counts: Sequence[int], denominator: int) -> "FiniteDistribution":
        """Distribution with mass count/denominator per outcome.

        The counts must sum to the denominator; this is how exhaustive
        enumeration results become distributions without rounding.
        """
        return cls(outcomes, [Fraction(int(c), denominator) for c in counts])

    # -- basic access ------------------------------------------------------

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return self._outcomes

    @property
    def mass(self) -> tuple[Fraction, ...]:
        return self._mass

    def prob(self, outcome: Outcome) -> Fraction:
        """Mass of an outcome, zero for outcomes outside the list."""
        return self._prob.get(outcome, Fraction(0))

    def support(self) -> tuple[Outcome, ...]:
        """Exactly the outcomes carrying positive mass, in listed order."""
        return tuple(w for w, m in zip(self._outcomes, self._mass) if m > 0)

    def items(self):
        return zip(self._outcomes, self._mass)

    def as_dict(self) -> dict[Outcome, Fraction]:
        """Support outcomes mapped to their masses (zero-mass entries dropped)."""
        return {w: m for w, m in self.items() if m > 0}

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
        """JSON object with outcomes (tuples as lists) plus [num, den] pairs."""
        mass = [[m.numerator, m.denominator] for m in self._mass]
        return {"outcomes": [_jsonify_outcome(w) for w in self._outcomes], "mass": mass}


def _jsonify_outcome(w: Outcome) -> Any:
    if isinstance(w, tuple):
        return [_jsonify_outcome(v) for v in w]
    return w


# -- statistical distance ----------------------------------------------------


def _universe(p: FiniteDistribution, q: FiniteDistribution) -> tuple[Outcome, ...]:
    seen = dict.fromkeys(p.outcomes)
    seen.update(dict.fromkeys(q.outcomes))
    return tuple(seen)


def statistical_distance(p: FiniteDistribution, q: FiniteDistribution) -> Fraction:
    """Total variation distance, computed as half the 1-norm of the mass gap.

    Symmetric, zero exactly for equal distributions, one exactly for disjoint
    supports, and always an exact Fraction.  A law against itself, as the
    memoised laws of a hit-count selector and its no-instance queries often
    are, is zero without a sum.
    """
    total = Fraction(0)
    if p is q:
        return total
    for w in _universe(p, q):
        total += abs(p.prob(w) - q.prob(w))
    return total / 2
