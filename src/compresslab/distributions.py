"""Exact finite probability distributions and their statistical distance.

A :class:`FiniteDistribution` is an ordered list of distinct outcomes with a
probability mass per outcome.  Masses are either `fractions.Fraction` (exact
mode, the default) or `float` (fast mode).  Statistical distance stays in
the mass arithmetic, so exact inputs give exact answers; it unions the two
outcome universes, with missing outcomes carrying mass zero.  Entropies and
divergences of compressive maps are computed from count tables, not from
distributions (see :mod:`compresslab.sensitivity`).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from fractions import Fraction
from typing import Any

Outcome = Hashable
Mass = Fraction | float


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
    def from_json(cls, obj: dict[str, Any]) -> "FiniteDistribution":
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


# -- statistical distance ----------------------------------------------------


def _universe(p: FiniteDistribution, q: FiniteDistribution) -> tuple[Outcome, ...]:
    seen = dict.fromkeys(p.outcomes)
    seen.update(dict.fromkeys(q.outcomes))
    return tuple(seen)


def statistical_distance(p: FiniteDistribution, q: FiniteDistribution) -> Mass:
    """Total variation distance, computed as half the 1-norm of the mass gap.

    Symmetric, zero exactly for equal distributions, one exactly for disjoint
    supports.  Exact when both inputs are exact.  A law against itself, as
    the memoised laws of a hit-count selector and its no-instance queries
    often are, is zero without a sum.
    """
    exact = p.exact and q.exact
    total: Mass = Fraction(0) if exact else 0.0
    if p is q:
        return total
    for w in _universe(p, q):
        total += abs(p.prob(w) - q.prob(w))
    return total / 2
