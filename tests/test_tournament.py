"""Tournament selectors, greedy dominating sets, and the block variant."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from compresslab import (
    BlockCompression,
    DominatingSet,
    HypergraphTournament,
    SelectorUndefinedError,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    greedy_dominating_set,
    ideal_or_compression,
    noisy_or_compression,
    partition_blocks,
    random_tournament,
    selector_from_compression,
    statistical_distance,
    verify_domination,
)
from compresslab.tournament import (
    _lex_rows,
    _unrank,
)
from reference_routes import block_conditioned_distributions

F = Fraction


def _single_yes(n):
    return ToyLanguage(n, {2**n - 1})


def _select(s, e):
    """Selected id of an edge of ids, asked through the bit-string boundary."""
    return int(s.select([format(v, f"0{s.vertex_bits}b") for v in e]), 2)


# -- selectors -----------------------------------------------------------------


def test_selector_all_no_edge_picks_minimum():
    lang = _single_yes(3)
    a = ideal_or_compression(lang, 3)
    s = selector_from_compression(a, lang.no_instances(), 3, delta=0.5, vertex_bits=lang.n)
    assert s.select(("010", "000", "001")) == "000"


def test_selector_skips_planted_yes_instance():
    lang = _single_yes(3)
    a = ideal_or_compression(lang, 3)
    s = selector_from_compression(a, range(8), 3, delta=0.5, vertex_bits=lang.n)
    # an edge with exactly one yes-instance: its removal/insertion laws are
    # at distance one, so it can never be selected
    for edge in [(0b111, 0b000, 0b001), (0b010, 0b111, 0b011)]:
        rest = tuple(w for w in edge if w != 0b111)
        left = a.subset_output_distribution(rest)
        right = a.subset_output_distribution(rest, forced=(0b111,))
        assert statistical_distance(left, right) == 1
        assert _select(s, edge) != 0b111


def test_selector_singleton_edge():
    lang = _single_yes(2)
    a = ideal_or_compression(lang, 1)
    s = selector_from_compression(a, lang.no_instances(), 1, delta=0.5, vertex_bits=lang.n)
    assert s.select(("01",)) == "01"


def test_selector_undefined():
    lang = ToyLanguage(2, {0b10, 0b11})
    a = ideal_or_compression(lang, 2)
    s = selector_from_compression(a, (0b00, 0b01, 0b10, 0b11), 2, delta=0.3, vertex_bits=lang.n)
    with pytest.raises(SelectorUndefinedError):
        s.select(("10", "11"))  # two yes-instances, both sensitive


def test_selector_edge_size_validation():
    s = random_tournament(8, 3, seed=0)
    with pytest.raises(ValueError, match="expected 3"):
        s.select(("000", "001"))


def test_select_names_a_string_that_is_no_vertex():
    s = random_tournament(6, 3, seed=0)
    with pytest.raises(ValueError, match="'111' is not a vertex"):
        s.select(["000", "001", "111"])
    lang = ToyLanguage(2, {0b10, 0b11})
    t = selector_from_compression(ideal_or_compression(lang, 2), (0b00, 0b01), 2, delta=0.3, vertex_bits=2)
    with pytest.raises(ValueError, match="'10' is not a vertex"):
        t.select(("11", "10"))


def test_selection_is_order_invariant():
    s = random_tournament(10, 3, seed=4)
    v = s.select(("0001", "0100", "0011"))
    assert v == s.select(("0100", "0011", "0001"))


# -- greedy dominating sets ------------------------------------------------------


def test_greedy_single_vertex():
    s = random_tournament(1, 2, seed=0)
    dom = greedy_dominating_set(s)
    assert dom.elements == ((0b0,),)
    assert dom.size <= 2 * math.log2(2)


def test_greedy_ordinary_tournaments():
    for seed in range(10):
        s = random_tournament(8, 2, seed=seed)
        dom = greedy_dominating_set(s)
        assert dom.size <= 2 * math.log2(8)
        ok, undominated = verify_domination(s, dom)
        assert ok, undominated
        # brute-force domination check, independent of the helper
        for v in s.ids.tolist():
            assert any(v in g or (len(g) == 1 and _select(s, g + (v,)) == v) for g in dom.elements)


def test_greedy_trace_and_size_bounds():
    rng = np.random.default_rng(41)
    for _ in range(15):
        t = int(rng.integers(2, 5))
        n_v = int(rng.integers(max(t, 4), 33))
        s = random_tournament(n_v, t, seed=int(rng.integers(0, 2**31)))
        dom = greedy_dominating_set(s)
        assert dom.trace[0] == n_v
        for k, undominated in enumerate(dom.trace):
            assert undominated <= (1 - 1 / t) ** k * n_v + 1e-9
        assert dom.size <= t * math.log2(max(n_v, 2)) + 1e-9
        assert verify_domination(s, dom)[0]


def test_greedy_ideal_or_tournament():
    lang = _single_yes(3)
    a = ideal_or_compression(lang, 3)
    s = selector_from_compression(a, lang.no_instances(), 3, delta=0.5, vertex_bits=lang.n)
    dom = greedy_dominating_set(s)
    # the minimum-selection rule lets the lexicographically largest pair
    # dominate every vertex at once
    assert dom.size == 1
    assert verify_domination(s, dom)[0]


def _dominated_by(s, g, v):
    if v in g:
        return True
    if len(g) != s.edge_size - 1:
        return False
    return _select(s, g + (v,)) == v


def test_verify_domination_reports_missing():
    s = random_tournament(8, 2, seed=3)
    dom = greedy_dominating_set(s)
    empty = DominatingSet(2, dom.vertex_bits, (), (len(s.ids),))
    ok, undominated = verify_domination(s, empty)
    assert not ok and set(undominated) == set(s.ids.tolist())
    # drop one member: whatever only it dominated must resurface
    assert dom.size > 1
    clipped = DominatingSet(2, dom.vertex_bits, dom.elements[:-1], dom.trace)
    expected = [
        v for v in s.ids.tolist() if not any(_dominated_by(s, g, v) for g in clipped.elements)
    ]
    ok, undominated = verify_domination(s, clipped)
    assert undominated == expected
    assert ok == (not expected)
    assert not ok  # the greedy set has no redundant members


def test_domination_matrix_matches_its_definition():
    # members enter as ascending id rows; every entry must equal the
    # per-pair definition, for members holding vertices outside the checked
    # rows, short members, members not in sorted order, checked subsets and
    # repeated rows, both in closed form and edge by edge through the same
    # selector.  Verification refuses a member holding an id that is no vertex
    s = random_tournament(16, 4, seed=2)
    plain = HypergraphTournament(s.ids, s.edge_size, s._selector, s.vertex_bits)
    dom = greedy_dominating_set(s)
    vs = s.ids.tolist()
    members = dom.elements + (vs[5:6], (vs[1], vs[2], vs[3]), (vs[12], vs[7], vs[10]))
    extended = DominatingSet(4, dom.vertex_bits, members, dom.trace)
    ascending = [np.array(sorted(g)) for g in members]
    for tournament in (s, plain):
        for rows in (vs, vs[::3], vs[4:9] + vs[4:6]):
            want = [[_dominated_by(s, g, v) for g in members] for v in rows]
            got = [tournament.dominated([g], np.array(rows)) for g in ascending]
            assert np.column_stack(got).tolist() == want
            assert tournament.dominated(ascending, np.array(rows)).tolist() == [any(w) for w in want]
        ok, undominated = verify_domination(tournament, extended)
        assert undominated == [v for v in vs if not any(_dominated_by(s, g, v) for g in members)]
        assert ok == (not undominated)
    for member, foreign in (((vs[0], 16), 16), ((-1, vs[9]), -1)):
        outside = DominatingSet(4, dom.vertex_bits, dom.elements + (member,), dom.trace)
        for tournament in (s, plain):
            with pytest.raises(ValueError, match=f"^{foreign} is not a vertex"):
                verify_domination(tournament, outside)


def test_random_tournament_without_edges_builds_no_lead_table():
    # k > |V|: the greedy pads one member and verification asks no edge, so
    # the k x |V| leads (35 MB at these sizes, built eagerly) are never made
    tracemalloc.start()
    try:
        tournament = random_tournament(4, 10**5, 1)
        dominating = greedy_dominating_set(tournament)
        verdict = verify_domination(tournament, dominating)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dominating.size == 1 and verdict == (True, [])
    assert peak < 5 * 2**20


def test_lex_rows_list_every_subset_with_its_per_first_lengths():
    for size in range(1, 11):
        for m in range(1, size + 1):
            rows, lengths = _lex_rows(size, m)
            expected = list(combinations(range(size), m))
            assert rows.tolist() == [list(row) for row in expected]
            assert lengths.tolist() == [sum(row[0] == c for row in expected) for c in range(size - m + 1)]


def test_lex_rows_near_the_full_set():
    # the size subsets of size - 1 elements: row i leaves out size - 1 - i, so
    # all but the last begin at 0 (the tails of the k = |V| = 2000 greedy step)
    for size in (2000, 1999):
        rows, lengths = _lex_rows(size, size - 1)
        expected = np.tile(np.arange(size - 1), (size, 1))
        expected += np.arange(size - 1) >= np.arange(size - 1, -1, -1)[:, None]
        assert np.array_equal(rows, expected)
        assert lengths.tolist() == [size - 1, 1]


def test_unrank_inverts_the_lexicographic_order():
    for size in range(10):
        for m in range(size + 1):
            for index, subset in enumerate(combinations(range(size), m)):
                assert _unrank(size, m, index) == list(subset)


def test_unrank_past_int64():
    # C(1000, 500) has 300 digits: the last 500-subset, and every 999-subset,
    # the i-th of which leaves out 999 - i
    assert _unrank(1000, 500, math.comb(1000, 500) - 1) == list(range(500, 1000))
    for i in range(1000):
        assert _unrank(1000, 999, i) == [x for x in range(1000) if x != 999 - i]


def test_dominating_set_json_round_trip():
    s = random_tournament(12, 3, seed=9)
    dom = greedy_dominating_set(s)
    obj = dom.to_json()
    assert set(obj) == {"t", "n", "elements", "trace"}
    assert DominatingSet.from_json(obj) == dom


# -- block variant ----------------------------------------------------------------


def test_partition_blocks():
    blocks = partition_blocks((0b11, 0b00, 0b01, 0b10), 2)
    assert blocks == ((0b00, 0b01), (0b10, 0b11))
    with pytest.raises(ValueError, match="split"):
        partition_blocks((0b00, 0b01, 0b10), 2)


def test_block_distributions_micro():
    lang = _single_yes(3)
    a = ideal_or_compression(lang, 2)
    blocks = ((0b000, 0b001), (0b010, 0b011))
    left, right = block_conditioned_distributions(a, blocks, 0b001)
    # oracle: enumerate the block choices by hand; everything is a no-set
    assert left.as_dict() == {"0": 1}
    assert right.as_dict() == {"0": 1}
    # plant the yes-instance in a block
    blocks_yes = ((0b000, 0b111), (0b010, 0b011))
    left, right = block_conditioned_distributions(a, blocks_yes, 0b111)
    assert left.as_dict() == {"0": 1}
    assert right.as_dict() == {"1": 1}
    assert statistical_distance(left, right) == 1


def test_block_selector_examples():
    lang = _single_yes(3)
    a = ideal_or_compression(lang, 2)
    s = selector_from_compression(BlockCompression(a, 2), range(8), 4, delta=0.5, vertex_bits=3)
    all_no = (0b000, 0b001, 0b010, 0b011)  # blocks (000, 001) and (010, 011)
    assert _select(s, all_no) == 0b000
    with_yes = (0b000, 0b010, 0b011, 0b111)  # blocks (000, 010) and (011, 111)
    assert _select(s, with_yes) != 0b111
    # degenerate: one block, two no-instances, arity-one compression
    a1 = ideal_or_compression(lang, 1)
    s1 = selector_from_compression(BlockCompression(a1, 2), range(8), 2, delta=0.5, vertex_bits=3)
    assert _select(s1, (0b000, 0b001)) == 0b000


def test_block_selector_disjointness_validation():
    lang = _single_yes(3)
    a = ideal_or_compression(lang, 2)
    with pytest.raises(ValueError, match="disjoint"):
        block_conditioned_distributions(a, ((0b000, 0b001), (0b001, 0b010)), 0b000)


def test_block_tournament_dominates():
    lang = _single_yes(3)
    a = ideal_or_compression(lang, 2)
    s = selector_from_compression(BlockCompression(a, 2), lang.no_instances(), 4, delta=0.5, vertex_bits=3)
    assert s.edge_size == 4
    dom = greedy_dominating_set(s)
    assert verify_domination(s, dom)[0]


def _parity_language(n):
    return ToyLanguage(n, [v for v in range(2**n) if bin(v).count("1") % 2])


def _hit_count_bases(lang, arity):
    return {
        "ideal-or": ideal_or_compression(lang, arity),
        "parity": SymmetricCompression(lang, SymmetricFunction.parity(arity)),
    }


@pytest.mark.parametrize("block_size", [2, 3])
@pytest.mark.parametrize("kind", ["ideal-or", "parity"])
def test_hit_count_pick_laws_equal_enumerated_block_laws(kind, block_size):
    # every (size, hits) profile of one to three blocks that the n=4 ids
    # realise, with v a hit and a miss of each block where it can be: the
    # closed form against the enumerated reference, exactly
    lang = _parity_language(4)
    a = _hit_count_bases(lang, 3)[kind]
    yes, no = lang.yes_instances().tolist(), lang.no_instances().tolist()
    shapes, profiles, expected = set(), set(), set()
    for j in range(1, a.arity + 1):
        for hits in combinations_with_replacement(range(block_size + 1), j):
            if sum(hits) > len(yes) or j * block_size - sum(hits) > len(no):
                continue
            y, m = iter(yes), iter(no)
            blocks = [tuple(next(y) for _ in range(h)) + tuple(next(m) for _ in range(block_size - h)) for h in hits]
            for i, block in enumerate(blocks):
                for v in {block[0], block[-1]}:
                    without = blocks[:i] + [tuple(w for w in block if w != v)] + blocks[i + 1 :]
                    pinned = blocks[:i] + [(v,)] + blocks[i + 1 :]
                    keys = a.law_key(without), a.law_key(pinned)
                    assert tuple(map(a.law, keys)) == block_conditioned_distributions(a, blocks, v)
                    profiles.update(keys)
                    shapes.update((len(p), a.hits(p)) for p in without + pinned)
                    # the same profiles from the hit counts alone, pools
                    # without a hit left out
                    whole = [(block_size, h) for h in hits[:i] + hits[i + 1 :]]
                    b = int(lang.is_yes(v))
                    for pools in (whole + [(block_size - 1, hits[i] - b)], whole + [(1, b)]):
                        expected.add(tuple(sorted(pool for pool in pools if pool[1])))
    assert profiles == expected
    assert shapes >= {(1, 0), (1, 1), (block_size, 0), (block_size, block_size)}


@pytest.mark.parametrize("block_size", [2, 3])
@pytest.mark.parametrize("kind", ["ideal-or", "parity"])
def test_block_compression_laws_equal_enumerated_block_laws(kind, block_size):
    # the wrapper's keys and memoised laws on every edge of two blocks
    # among the first eight ids, against the reference on the same blocks
    lang = _parity_language(4)
    a = _hit_count_bases(lang, 2)[kind]
    b = BlockCompression(a, block_size)
    assert b.arity == 2 * block_size
    for e in combinations(range(8), 2 * block_size):
        blocks = partition_blocks(e, block_size)
        for i, v in enumerate(e):
            laws = tuple(map(b.law, b.conditioned_keys(e[:i] + e[i + 1 :], v)))
            assert laws == block_conditioned_distributions(a, blocks, v)


def test_noisy_selector_distances_are_zero_on_no_edges():
    lang = ToyLanguage(4, {0b1111})
    a = noisy_or_compression(lang, 3, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
    s = selector_from_compression(a, lang.no_instances(), 3, delta=0.3, vertex_bits=lang.n)
    for e in combinations(lang.no_instances()[:6].tolist(), 3):
        assert _select(s, e) == min(e)
