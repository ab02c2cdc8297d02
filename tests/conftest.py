"""Shared random-instance generators for the test suite."""

from fractions import Fraction

import numpy as np

from compresslab import FiniteDistribution


def random_exact_distribution(rng: np.random.Generator, max_outcomes: int = 6) -> FiniteDistribution:
    """Random rational distribution over string outcomes 'w0', 'w1', ..."""
    k = int(rng.integers(1, max_outcomes + 1))
    weights = rng.integers(0, 10, size=k)
    weights[int(rng.integers(0, k))] += 1  # at least one positive entry
    total = int(weights.sum())
    outcomes = [f"w{i}" for i in range(k)]
    return FiniteDistribution(outcomes, [Fraction(int(w), total) for w in weights])
