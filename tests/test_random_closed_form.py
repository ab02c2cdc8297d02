"""Property tests: the random tournament's closed-form greedy counts.

A random tournament counts each greedy candidate without the generic edge
scan: for k >= 3 from per-gap prefix tables, for k = 2 from the parity of
each pair, and for k = 1 as every vertex.  Here those counts must equal,
exactly, the counts of the generic edge scan over a per-edge tournament with
the same keys, whose selector is Horner's rule in Python integers.  Keys are
drawn from the edge cases of the arithmetic (0, 1, around the modulus
2**61 - 1, the top of the key range), from small pools that repeat keys
(tied leads) and from the whole key range; the remaining sets are random
ascending subsets, and every case runs at three scan chunk sizes.  The
closed-form domination check must likewise equal the per-pair definition,
for members of every size and vertices in any order.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compresslab import HypergraphTournament
from compresslab import tournament as tournament_module
from compresslab.tournament import _RandomTournament

M = 2**61 - 1
P = 1099511628211
EDGE_CASE_KEYS = (0, 1, M - 1, M, M + 1, 2**62 - 1)
# edges per case kept small enough for the per-edge scan
MAX_EDGES = 3000


def per_edge(keys, k):
    """The random tournament on these keys, asked edge by edge."""

    def selector(e):
        h = 0
        for v in e:
            h = (h * P + keys[v]) % M
        return e[h % len(e)]

    return HypergraphTournament(range(len(keys)), k, selector, max(1, (len(keys) - 1).bit_length()))


@st.composite
def cases(draw):
    k = draw(st.integers(1, 6))
    num_vertices = draw(st.integers(k, 30))
    key = st.one_of(st.sampled_from(EDGE_CASE_KEYS), st.integers(0, 2**62 - 1))
    # a pool of one key ties every lead; a pool as large as the vertex set
    # rarely repeats one
    pool = draw(st.lists(key, min_size=1, max_size=num_vertices))
    keys = draw(st.lists(st.sampled_from(pool), min_size=num_vertices, max_size=num_vertices))
    most = max(n for n in range(k, num_vertices + 1) if math.comb(n, k) <= MAX_EDGES)
    size = draw(st.integers(k, most))
    remaining = sorted(draw(st.lists(st.integers(0, num_vertices - 1), min_size=size, max_size=size, unique=True)))
    return keys, k, np.array(remaining, dtype=np.intp)


@settings(max_examples=150, deadline=None)
@given(cases())
@example(([0] * 5, 3, np.arange(5)))
@example(([2**62 - 1] * 6, 4, np.arange(6)))
@example((list(EDGE_CASE_KEYS) * 3, 3, np.arange(18)))
@example((list(EDGE_CASE_KEYS) * 2, 6, np.arange(2, 12)))
# the edge (0, 1, 2) sums to exactly M before its reduction, h = 0: vertex 0's
# lead wraps at the boundary G = U of its gap
@example(([1, 0, M - P * P % M, 5], 3, np.arange(4)))
# likewise for the pair (0, 1) at k = 2, which selects its first vertex
@example(([1, M - P, M, 2**62 - 1], 2, np.arange(4)))
# candidate counts at the ends of the pieces of 2 * chunk // k candidates:
# C(105, 2) = 5,460 is 2 whole pieces at the default chunk and 1,365 at chunk 7;
# C(7, 2) = 21 is 5 pieces of 4 and one more; C(8, 4) = 70 is 35 pieces of 2
# at k = 5 and C(6, 4) = 15 is 7 and one more (at chunk 1 every piece is one)
@example(([pow(3, i, 2**62) for i in range(105)], 3, np.arange(105)))
@example(([pow(3, i, 2**62) for i in range(9)], 3, np.arange(1, 8)))
@example(([pow(5, i, 2**62) for i in range(8)], 5, np.arange(8)))
@example((list(EDGE_CASE_KEYS), 5, np.arange(6)))
def test_closed_form_counts_equal_the_edge_scan(case):
    keys, k, remaining = case
    expected = per_edge(keys, k).candidate_counts(remaining).tolist()
    tournament = _RandomTournament(keys, k)
    saved = tournament_module.SCAN_CHUNK
    try:
        for chunk in (1, 7, saved):
            tournament_module.SCAN_CHUNK = chunk
            assert tournament.candidate_counts(remaining).tolist() == expected
    finally:
        tournament_module.SCAN_CHUNK = saved


def test_lead_table_holds_each_key_times_each_power():
    keys = list(EDGE_CASE_KEYS) + np.random.default_rng(3).integers(0, 2**62, size=40).tolist()
    want = np.array([[key * pow(P, j, M) % M for key in keys] for j in range(7)], dtype=np.uint64)
    leads = _RandomTournament(keys, 7)._leads
    assert leads.dtype == np.uint64 and np.array_equal(leads, want)


@st.composite
def domination_cases(draw):
    """Keys, k = 1..5, member index rows of k-2, k-1 and k elements, and
    the vertex indices to check, in any order and with repeats."""
    k = draw(st.integers(1, 5))
    num_vertices = draw(st.integers(k, 24))
    key = st.one_of(st.sampled_from(EDGE_CASE_KEYS), st.integers(0, 2**62 - 1))
    pool = draw(st.lists(key, min_size=1, max_size=num_vertices))
    keys = draw(st.lists(st.sampled_from(pool), min_size=num_vertices, max_size=num_vertices))
    vertex = st.integers(0, num_vertices - 1)
    sizes = st.sampled_from([size for size in (k - 2, k - 1, k - 1, k) if 0 <= size <= num_vertices])
    members = draw(
        st.lists(sizes.flatmap(lambda size: st.sets(vertex, min_size=size, max_size=size)), min_size=1, max_size=4)
    )
    vs = draw(st.lists(vertex, max_size=3 * num_vertices))
    return keys, k, [sorted(g) for g in members], vs


@settings(max_examples=200, deadline=None)
@given(domination_cases())
# vertex 0 in the gap before the member (1, 2): its edge (0, 1, 2) sums to
# exactly M before its reduction, h = 0
@example(([1, 0, M - P * P % M, 5], 3, [[1, 2]], [0, 3, 0]))
@example(([2**62 - 1] * 5, 1, [[], [3]], [4, 3, 0]))
def test_closed_form_domination_equals_the_per_pair_definition(case):
    # a member dominates its own elements and, with k-1 of them, each v whose
    # edge member + (v,) selects v by Horner's rule in Python integers
    keys, k, members, vs = case
    selector = per_edge(keys, k)._selector

    def dominates(g, v):
        return v in g or (len(g) == k - 1 and selector(tuple(sorted(g + [v]))) == v)

    tournament = _RandomTournament(keys, k)
    rows = [np.array(g, dtype=np.intp) for g in members]
    at = np.array(vs, dtype=np.intp)
    for g, row in zip(members, rows):
        assert tournament.dominated([row], at).tolist() == [dominates(g, v) for v in vs]
    assert tournament.dominated(rows, at).tolist() == [any(dominates(g, v) for g in members) for v in vs]
