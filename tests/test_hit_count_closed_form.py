"""Property tests: hit-count tournaments against per-edge references.

A hit-count tournament is built here directly from a random hit vector and a
random qualify table Q[b, H] (an element of hit bit b in an edge of H hits
qualifies when Q[b, H]), with no compression behind it.  On vertices of one
hit bit b whose Q[b, k*b] holds it is the first-vertex tournament, in closed
form; otherwise it is the plain tournament, whose general scan gives, for
random tables, selections that are not the least element of their edge.
Unless a case patches them, some edges have no selection at all.  Its greedy
members and trace, domination masks, verification and raised errors must
equal those of the per-edge selector of the same table, asked edge by edge
through the references of ``test_batched_scan``; so must its best member
(``best_member``, closed-form or counted) against the per-edge counts.  The last
tests check which of the two tournaments :func:`selector_from_compression`
builds for OR compressions and their block compressions.
"""

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compresslab import (
    BlockCompression,
    DominatingSet,
    HypergraphTournament,
    InvariantError,
    SelectorUndefinedError,
    ToyLanguage,
    greedy_dominating_set,
    ideal_or_compression,
    partition_blocks,
    random_tournament,
    selector_from_compression,
    statistical_distance,
    verify_domination,
)
from compresslab import tournament as tournament_module
from compresslab.tournament import _FirstVertexTournament
from reference_routes import block_conditioned_distributions
from test_batched_scan import reference_greedy

# vertex ids have this many bits; edges per greedy step stay small enough
# for the per-edge reference
VERTEX_BITS = 5
MAX_EDGES = 1500


class Case:
    """A random table and hit vector, the hit-count tournament built from
    them and the per-edge tournament of the same selector."""

    def __init__(self, k, ids, hit_member, table):
        self.k, self.table, self.hit_member = k, table, hit_member

        def selector(e):
            hits = sum(int(hit_member[v]) for v in e)
            for v in e:
                if table[int(hit_member[v]), hits]:
                    return v
            raise SelectorUndefinedError(f"no element of {e!r} qualifies")

        # one hit bit b whose Q[b, k*b] holds: every edge selects its first vertex
        bits = hit_member[ids]
        first = len(ids) >= k and (bits.all() or not bits.any()) and table[int(bits[0]), k * int(bits[0])]
        self.tournament = (_FirstVertexTournament if first else HypergraphTournament)(ids, k, selector, VERTEX_BITS)
        self.reference = HypergraphTournament(ids, k, selector, VERTEX_BITS)


@st.composite
def cases(draw, total=None):
    k = draw(st.sampled_from([3, 2, 4, 5, 1]))
    most = max(n for n in range(k, 2**VERTEX_BITS + 1) if math.comb(n, k) <= MAX_EDGES)
    size = draw(st.integers(k, most))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.sort(rng.choice(2**VERTEX_BITS, size=size, replace=False))
    # rates 0 and 1 give vertices of one bit, the closed form
    hit_member = rng.random(2**VERTEX_BITS) < draw(st.sampled_from([0.0, 1.0, 0.5, 0.3, 0.7]))
    # each bit qualifies at its own rate, so that often the first vertex's
    # bit does not qualify and the other bit's first vertex is selected
    rates = [[draw(st.sampled_from([0.1, 0.5, 0.9]))] for _ in range(2)]
    table = rng.random((2, k + 1)) < rates
    if total if total is not None else draw(st.booleans()):
        # every edge selects: a lone bit qualifies, and where one bit does
        # not, the other does
        table[0, 0] = table[1, k] = True
        flip = rng.random(k + 1) < 0.5
        table[0, ~table[1] & flip] = True
        table[1, ~table[0]] = True
    return Case(k, ids, hit_member, table)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except SelectorUndefinedError as exc:
        return type(exc), str(exc)


def _reference_dominated(case, g, vs):
    """Per pair: v is in g, or g has k - 1 elements and the edge g + (v,) selects v."""
    g = tuple(g.tolist())
    out = []
    for v in vs.tolist():
        if v in g:
            out.append(True)
        else:
            out.append(len(g) == case.k - 1 and case.reference._selector(tuple(sorted(g + (v,)))) == v)
    return out


def _reference_counts(case, remaining):
    """Per candidate, in lexicographic order: the edges inside `remaining`,
    asked in lexicographic order, that select the one vertex outside it."""
    counts = {}
    for e in combinations(remaining.tolist(), case.k):
        v = case.reference._selector(e)
        g = tuple(w for w in e if w != v)
        counts[g] = counts.get(g, 0) + 1
    return [counts.get(g, 0) for g in combinations(remaining.tolist(), case.k - 1)]


# sparse ids, 3i + 1, so that an id read as a position into the ids, or the
# other way round, names another vertex or none
SPARSE = 3 * np.arange(10) + 1


@settings(max_examples=120, deadline=None)
@given(cases())
@example(Case(1, np.array([3, 9]), np.arange(32) % 2 == 1, np.array([[True, False], [False, True]])))
@example(Case(1, np.array([3, 9]), np.arange(32) % 2 == 1, np.array([[True, False], [False, False]])))
@example(Case(3, np.arange(8), np.arange(32) % 3 == 0, np.array([[False] * 4, [True] * 4])))
# sparse ids: k > |V| pads one member, and first-vertex k = 1 dominates with
# its empty member
@example(Case(5, SPARSE[:3], np.arange(32) % 2 == 1, np.ones((2, 6), dtype=bool)))
@example(Case(1, SPARSE[:6], np.zeros(32, dtype=bool), np.ones((2, 2), dtype=bool)))
@example(Case(3, SPARSE, np.arange(32) % 2 == 1, np.array([[True, False, True, False], [False, True, False, True]])))
def test_exhaustive_greedy_matches_per_edge_greedy(case):
    # at three chunk sizes: one candidate per chunk, seven, and the default
    expected = outcome(reference_greedy, case.reference)
    saved = tournament_module.SCAN_CHUNK
    try:
        for chunk in (1, 7, saved):
            tournament_module.SCAN_CHUNK = chunk
            got = outcome(greedy_dominating_set, case.tournament)
            if isinstance(got, DominatingSet):
                got = got.elements, got.trace
                assert verify_domination(case.tournament, greedy_dominating_set(case.tournament)) == (True, [])
            assert got == expected
    finally:
        tournament_module.SCAN_CHUNK = saved


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
@example(Case(3, SPARSE[:8], np.zeros(32, dtype=bool), np.ones((2, 4), dtype=bool)), 1)
@example(Case(3, SPARSE, np.arange(32) % 2 == 1, np.array([[True, False, True, False], [False, True, False, True]])), 2)
def test_best_member_is_the_first_per_edge_argmax(case, seed):
    # on an ascending subset of at least k vertices, every tournament's
    # counts equal the per-edge counts, and its member, in closed form or
    # counted, is the lexicographically first candidate of largest count, or
    # the same error
    rng = np.random.default_rng(seed)
    ids = case.tournament.ids
    remaining = np.sort(rng.choice(ids, size=int(rng.integers(case.k, len(ids) + 1)), replace=False))
    expected = outcome(_reference_counts, case, remaining)
    assert outcome(lambda: case.tournament.candidate_counts(remaining).tolist()) == expected

    def first_argmax():
        counts = _reference_counts(case, remaining)
        return list(list(combinations(remaining.tolist(), case.k - 1))[int(np.argmax(counts))])

    assert outcome(lambda: case.tournament.best_member(remaining).tolist()) == outcome(first_argmax)


def test_padded_member_fills_with_the_least_dominated_ids():
    # the random tournament's selector moved onto the ids 3i + 1: the first
    # member leaves one vertex, and the last member pads it with the least
    # id already dominated
    r = random_tournament(4, 3, 2)
    tournament = HypergraphTournament(
        SPARSE[:4], 3, lambda e: 3 * r._selector(tuple((v - 1) // 3 for v in e)) + 1, VERTEX_BITS
    )
    dom = greedy_dominating_set(tournament)
    assert (dom.elements, dom.trace) == reference_greedy(tournament) == (((1, 4), (1, 7)), (4, 1, 0))
    assert verify_domination(tournament, dom) == (True, [])


class _WeakMember(_FirstVertexTournament):
    """A first-vertex tournament whose best member is its first k-1
    remaining vertices, which dominate only themselves."""

    def best_member(self, remaining):
        return remaining[: self.edge_size - 1]


def test_hook_member_below_the_fraction_raises():
    # 2 of 12 vertices, where a 1/3 fraction needs 4
    tournament = _WeakMember(np.arange(12), 3, lambda e: e[0], VERTEX_BITS)
    with pytest.raises(InvariantError, match="1/k fraction"):
        greedy_dominating_set(tournament)


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
@example(Case(3, SPARSE[:8], np.zeros(32, dtype=bool), np.ones((2, 4), dtype=bool)), 1)
@example(Case(1, SPARSE[:6], np.zeros(32, dtype=bool), np.ones((2, 2), dtype=bool)), 1)
@example(Case(3, SPARSE, np.arange(32) % 2 == 1, np.array([[True, False, True, False], [False, True, False, True]])), 2)
def test_dominated_matches_per_pair_definition(case, seed):
    rng = np.random.default_rng(seed)
    ids = case.tournament.ids
    vs = ids[rng.random(len(ids)) < 0.7]  # ascending, as the greedy and verification pass them
    for size in (case.k - 1, case.k - 1, max(0, case.k - 2), case.k):
        g = np.sort(rng.choice(ids, size=min(size, len(ids)), replace=False))
        got = outcome(lambda: case.tournament.dominated([g], vs).tolist())
        assert got == outcome(_reference_dominated, case, g, vs)


def test_closed_form_domination_needs_strictly_ascending_vertices():
    case = Case(3, np.arange(12), np.zeros(32, dtype=bool), np.ones((2, 4), dtype=bool))
    assert isinstance(case.tournament, _FirstVertexTournament)
    g = np.array([8, 9])
    assert case.tournament.dominated([g], np.array([4, 9, 11])).tolist() == [True, True, False]
    for vs in ([9, 4], [4, 4, 9]):
        with pytest.raises(ValueError, match="strictly ascending"):
            case.tournament.dominated([g], np.array(vs))


def _reference_verification(case, members):
    """Undominated ids, asking the per-edge selector about every pair of a
    vertex and a (k-1)-member without it, vertex by vertex and then member
    by member, so an edge without a selection raises at the first such
    pair."""
    undominated = []
    for v in case.tournament.ids.tolist():
        dominated = False
        for g in members:
            if v in g:
                dominated = True
            elif len(g) == case.k - 1:
                dominated |= case.reference._selector(tuple(sorted(g + (v,)))) == v
        if not dominated:
            undominated.append(v)
    return not undominated, undominated


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_verification_matches_per_pair_definition(case, seed):
    # members of several sizes, in any order; each vertex is dominated when
    # some member dominates it, and an edge without a selection raises
    # whatever members before it dominate its vertex
    rng = np.random.default_rng(seed)
    ids = case.tournament.ids
    members = tuple(
        tuple(rng.choice(ids, size=min(s, len(ids)), replace=False).tolist())
        for s in rng.integers(max(0, case.k - 2), case.k + 1, size=4)
    )
    dom = DominatingSet(case.k, VERTEX_BITS, members, (len(ids),))
    assert outcome(verify_domination, case.tournament, dom) == outcome(_reference_verification, case, members)


def test_closed_form_members_dominate_up_to_the_latest_first_vertex():
    # every edge selects its first vertex: a vertex is dominated by any
    # member whose first vertex comes after it, here by (8, 9) alone for 4-7
    case = Case(3, np.arange(12), np.zeros(32, dtype=bool), np.ones((2, 4), dtype=bool))
    members = ((8, 9), (2, 3))
    dom = DominatingSet(3, VERTEX_BITS, members, (12,))
    assert verify_domination(case.tournament, dom) == _reference_verification(case, members) == (False, [10, 11])


# -- the decision point: selector_from_compression ------------------------------


def _count_distances(monkeypatch):
    """The pairs of laws whose statistical distance the selector computes."""
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return statistical_distance(p, q)

    monkeypatch.setattr(tournament_module, "statistical_distance", counting)
    return calls


def _compression(language, t, block_size):
    """Ideal OR of arity t, or its block compression, and the edge size."""
    a = ideal_or_compression(language, t)
    return (a, t) if block_size is None else (BlockCompression(a, block_size), t * block_size)


@pytest.mark.parametrize("block_size", [None, 2, 3])
def test_one_verdict_selects_every_first_vertex_on_no_instances(monkeypatch, block_size):
    language = ToyLanguage.random(6, seed=1)
    a, k = _compression(language, 2, block_size)
    calls = _count_distances(monkeypatch)
    tournament = selector_from_compression(a, language.no_instances(), k, 0.5, language.n)
    assert type(tournament) is _FirstVertexTournament
    assert len(calls) == 1
    dom = greedy_dominating_set(tournament)
    assert verify_domination(tournament, dom) == (True, [])
    assert len(calls) == 1  # the closed form asks no other distance


@pytest.mark.parametrize("block_size", [None, 2, 3])
def test_vertices_of_both_hit_bits_take_the_plain_tournament(monkeypatch, block_size):
    language = ToyLanguage.random(6, seed=1)
    a, k = _compression(language, 2, block_size)
    vertices = np.r_[language.no_instances(), language.yes_instances()[:1]]
    calls = _count_distances(monkeypatch)
    tournament = selector_from_compression(a, vertices, k, 0.5, language.n)
    assert type(tournament) is HypergraphTournament
    assert calls == []


@pytest.mark.parametrize("block_size", [None, 2, 3])
def test_failed_verdict_raises_at_the_first_edge(monkeypatch, block_size):
    language = ToyLanguage.random(6, seed=1)
    a, k = _compression(language, 2, block_size)
    no = language.no_instances()
    calls = _count_distances(monkeypatch)
    tournament = selector_from_compression(a, no, k, -0.5, language.n)
    assert type(tournament) is HypergraphTournament
    assert len(calls) == 1
    first = tuple(no[:k].tolist())
    with pytest.raises(SelectorUndefinedError, match=re.escape(f"no element of {first!r} is insensitive")):
        greedy_dominating_set(tournament)


def _per_edge_block_tournament(a, vertices, block_size, k, delta, vertex_bits):
    """The block selector asked edge by edge, every pick law enumerated."""

    def selector(e):
        blocks = partition_blocks(e, block_size)
        for v in e:
            if statistical_distance(*block_conditioned_distributions(a, blocks, v)) <= delta:
                return v
        raise SelectorUndefinedError(f"no element of {e!r} qualifies")

    return HypergraphTournament(vertices, k, selector, vertex_bits)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t, block_size", [(2, 2), (2, 3), (3, 2)])
def test_block_greedy_matches_per_edge_block_selector(t, block_size, seed):
    # ten no-instances keep the per-edge scan small: C(10, 6) edges at most
    language = ToyLanguage.random(5, seed=seed)
    a = ideal_or_compression(language, t)
    k, vertices = t * block_size, language.no_instances()[:10]
    fast = selector_from_compression(BlockCompression(a, block_size), vertices, k, 0.5, language.n)
    slow = _per_edge_block_tournament(a, vertices, block_size, k, 0.5, language.n)
    assert type(fast) is _FirstVertexTournament
    got, expected = greedy_dominating_set(fast), greedy_dominating_set(slow)
    assert (got.elements, got.trace) == (expected.elements, expected.trace)
    assert verify_domination(slow, got) == (True, [])
    # the closed-form domination of members the greedy never picks
    rng = np.random.default_rng(seed)
    vs = fast.ids
    for _ in range(20):
        g = np.sort(rng.choice(vs, size=k - 1, replace=False))
        assert fast.dominated([g], vs).tolist() == slow.dominated([g], vs).tolist()
