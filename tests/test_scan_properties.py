"""Property tests: the first-element-major greedy scan against per-edge greedies.

Every drawn tournament runs the greedy at three scan chunk sizes (one edge
per piece, seven, and the default) and must give the members and trace of
the per-edge reference greedy in ``test_batched_scan``.  Vertex counts run
from the edge size up, so a step with exactly k or k + 1 remaining vertices
(one edge, or one edge per first position) comes up as well as larger ones.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from compresslab import (
    ToyLanguage,
    greedy_dominating_set,
    ideal_or_compression,
    noisy_or_compression,
    pinsker_threshold,
    random_tournament,
    selector_from_compression,
)
from compresslab import tournament as tournament_module
from test_batched_scan import reference_compression, reference_greedy, reference_random

# edges per greedy step kept small enough for the per-edge reference
MAX_EDGES = 2000


def _greedy_at_every_chunk(tournament):
    saved = tournament_module.SCAN_CHUNK
    try:
        results = []
        for chunk in (1, 7, saved):
            tournament_module.SCAN_CHUNK = chunk
            dom = greedy_dominating_set(tournament)
            results.append((dom.elements, dom.trace))
        return results
    finally:
        tournament_module.SCAN_CHUNK = saved


@st.composite
def random_cases(draw):
    k = draw(st.integers(1, 6))
    most = max(n for n in range(k, 41) if math.comb(n, k) <= MAX_EDGES)
    return k, draw(st.integers(k, most)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(random_cases())
@example((1, 1, 0))
@example((3, 3, 5))
@example((3, 4, 5))
@example((6, 6, 1))
@example((6, 7, 2))
def test_random_scan_matches_per_edge_greedy(case):
    k, num_vertices, seed = case
    expected = reference_greedy(reference_random(num_vertices, k, seed))
    for got in _greedy_at_every_chunk(random_tournament(num_vertices, k, seed)):
        assert got == expected


@st.composite
def hit_count_cases(draw):
    n = draw(st.integers(3, 5))
    t = draw(st.integers(1, 4))
    language = ToyLanguage.random(n, seed=draw(st.integers(0, 10**6)))
    # no-instances plus t - 1 yes-instances: every edge holds a no-instance,
    # so every selection is defined, and some are not the least element
    pool = np.concatenate([language.no_instances(), language.yes_instances()[: t - 1]])
    most = max(n for n in range(len(pool) + 1) if math.comb(n, t) <= MAX_EDGES)
    size = draw(st.integers(min(t, most), most))
    assume(size > 0)
    noisy = draw(st.booleans())
    return language, t, pool[:size], noisy


@settings(max_examples=60, deadline=None)
@given(hit_count_cases())
def test_hit_count_scan_matches_per_edge_greedy(case):
    language, t, vertices, noisy = case
    if noisy:
        a = noisy_or_compression(language, t, Fraction(1, 8), Fraction(1, 8), coin_bits=3)
    else:
        a = ideal_or_compression(language, t)
    delta = pinsker_threshold(1, t)
    expected = reference_greedy(reference_compression(a, vertices, t, delta, language.n))
    for got in _greedy_at_every_chunk(selector_from_compression(a, vertices, t, delta, language.n)):
        assert got == expected
