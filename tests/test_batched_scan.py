"""Tournament selections and greedy runs against per-edge references.

Random tournaments count the greedy's candidates in closed form, and
first-vertex tournaments give its member in closed form; both check
domination in closed form, and other tournaments ask their per-edge
selector edge by edge.  Here every tournament's selections are compared with an
independent per-edge reference selector, and every greedy run with a
per-edge greedy kept in this file: one selector call per edge, a dict of
candidate counts, a rescan per step.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from compresslab import (
    DominatingSet,
    HypergraphTournament,
    InvariantError,
    SelectorUndefinedError,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    greedy_dominating_set,
    ideal_or_compression,
    noisy_or_compression,
    pinsker_threshold,
    random_tournament,
    selector_from_compression,
    statistical_distance,
    subset_pools,
    transform_to_relaxed_or,
    verify_domination,
)
from compresslab import tournament as tournament_module

F = Fraction


# -- per-edge references -----------------------------------------------------------


def reference_random(num_vertices, edge_size, seed):
    """The random tournament's selector as plain Python integer arithmetic."""
    width = max(1, (num_vertices - 1).bit_length())
    raw = np.random.default_rng(seed).integers(0, 2**62, size=num_vertices, dtype=np.int64)
    keys = dict(zip(range(num_vertices), map(int, raw)))

    def selector(e):
        h = 0
        for v in e:
            h = (h * 1099511628211 + keys[v]) % (2**61 - 1)
        return e[h % len(e)]

    return HypergraphTournament(range(num_vertices), edge_size, selector, width)


def keyed_random(keys, edge_size):
    """Random tournament on len(keys) vertices with the given keys, in vertex order."""
    return tournament_module._RandomTournament(keys, edge_size)


def reference_compression(a, vertices, edge_size, delta, vertex_bits):
    """Least element whose conditioned laws are within delta, edge by edge."""

    def selector(e):
        for v in e:
            rest = tuple(w for w in e if w != v)
            left, right = a.law(a.law_key(subset_pools(rest))), a.law(a.law_key(subset_pools(rest, (v,))))
            if statistical_distance(left, right) <= delta:
                return v
        raise SelectorUndefinedError(f"no element of {e!r} qualifies")

    return HypergraphTournament(vertices, edge_size, selector, vertex_bits)


def reference_greedy(tournament):
    """Exhaustive greedy with one selector call per edge and a rescan per step."""
    select = tournament._selector
    vertices, k = tuple(tournament.ids.tolist()), tournament.edge_size
    remaining, elements, trace = vertices, [], [len(vertices)]

    def dominates(g, v):
        return v in g or (len(g) == k - 1 and select(tuple(sorted(g + (v,)))) == v)

    while remaining:
        if len(remaining) < k:
            fill = tuple(v for v in vertices if v not in remaining)
            elements.append(tuple(sorted(remaining + fill[: max(0, k - 1 - len(remaining))])))
            trace.append(0)
            break
        counts = {}
        for e in combinations(remaining, k):
            i = e.index(select(e))
            g = e[:i] + e[i + 1 :]
            counts[g] = counts.get(g, 0) + 1
        g = min(counts, key=lambda g: (-counts[g], g))
        elements.append(g)
        remaining = tuple(v for v in remaining if not dominates(g, v))
        trace.append(len(remaining))
    return tuple(elements), tuple(trace)


def _ideal(n, seed, t):
    lang = ToyLanguage.random(n, seed=seed)
    return lang, ideal_or_compression(lang, t), pinsker_threshold(1, t)


def _noisy(n, seed, t):
    lang = ToyLanguage.random(n, seed=seed)
    return lang, noisy_or_compression(lang, t, F(1, 8), F(1, 8), coin_bits=3), pinsker_threshold(1, t)


def _transformed(bits, seed):
    base = SymmetricCompression(ToyLanguage.random(5, seed=seed), SymmetricFunction.from_bits(bits))
    a = transform_to_relaxed_or(base)
    return a.hit_language, a, 0.5


# each case: (language, compression, delta); the tournament runs on the
# no-instances plus t-1 yes-instances, so every edge holds a no-instance
# (the selection is defined) and some selections are not the least element
HIT_COUNT_CASES = {
    "ideal-or-n5-t3": lambda: _ideal(5, 3, 3),
    "ideal-or-n6-t4": lambda: _ideal(6, 8, 4),
    "noisy-or-n5-t3": lambda: _noisy(5, 1, 3),
    "noisy-or-n4-t4": lambda: _noisy(4, 6, 4),
    "transformed-0111": lambda: _transformed("0111", 2),
    "transformed-0011": lambda: _transformed("0011", 5),
    "transformed-01010": lambda: _transformed("01010", 7),
}


def _hit_count_vertices(language, t):
    return np.concatenate([language.no_instances(), language.yes_instances()[: t - 1]])


def _all_rows(tournament):
    return np.array(list(combinations(range(len(tournament.ids)), tournament.edge_size)))


def select_positions(tournament, rows):
    """Selected position within each row of vertex indices, edge by edge."""
    return np.array([tournament._position(tuple(e)) for e in tournament.ids[rows].tolist()], dtype=np.intp)


def _rows_match_edges(tournament, reference):
    rows = _all_rows(tournament)
    positions = select_positions(tournament, rows)
    vertices = tournament.vertices
    for row, pos in zip(rows.tolist(), positions.tolist()):
        e = tuple(vertices[i] for i in row)
        assert e[pos] == tournament.select(e) == reference.select(e)
    return positions


# -- per-edge selections ------------------------------------------------------------


@pytest.mark.parametrize("k,num_vertices", [(2, 40), (3, 40), (4, 24), (5, 18)])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_rows_match_per_edge_selector(k, num_vertices, seed):
    tournament = random_tournament(num_vertices, k, seed)
    positions = _rows_match_edges(tournament, reference_random(num_vertices, k, seed))
    assert set(positions.tolist()) == set(range(k))


@pytest.mark.parametrize("case", sorted(HIT_COUNT_CASES))
def test_hit_count_rows_match_per_edge_selector(case):
    language, a, delta = HIT_COUNT_CASES[case]()
    vertices = _hit_count_vertices(language, a.arity)
    tournament = selector_from_compression(a, vertices, a.arity, delta, language.n)
    positions = _rows_match_edges(tournament, reference_compression(a, vertices, a.arity, delta, language.n))
    assert positions.any()  # some selection is not the least element


def mix_positions(keys):
    """Horner's rule mod 2**61 - 1 column by column over (E, k) int64 keys,
    exact in uint64, then position h mod k: the reference for the random
    tournament's selection, whose closed forms sum per-vertex leads
    instead."""
    keys = keys.astype(np.uint64)
    m = np.uint64(2**61 - 1)
    h = np.zeros(len(keys), dtype=np.uint64)
    for key in keys.T:
        high = (h >> 32) * 435
        h = (
            (((h << 40) & m) | (h >> 21))
            + (h & 0xFFFFFFFF) * 435
            + ((high << 32) & m)
            + (high >> 29)
            + key
        ) % m
    return (h % np.uint64(keys.shape[1])).astype(np.intp)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_random_rows_match_column_by_column_mix(k):
    # seeded keys with the largest ones swapped in: at and above the
    # modulus, one below it, and the top of the key range
    rng = np.random.default_rng(900 + k)
    keys = rng.integers(0, 2**62, size=40, dtype=np.int64)
    keys[rng.choice(40, size=6, replace=False)] = [2**61 - 1, 2**61, 2**61 + 1, 2**61 - 2, 2**62 - 1, 0]
    tournament = keyed_random(keys.tolist(), k)
    rows = np.sort(np.array([rng.choice(40, size=k, replace=False) for _ in range(3000)]), axis=1)
    positions = select_positions(tournament, rows)
    assert positions.tolist() == mix_positions(keys[rows]).tolist()
    assert set(positions.tolist()) == set(range(k))


def test_random_hash_is_exact_at_extreme_keys():
    top = 2**62 - 1
    for keys in ([top] * 4, [0] * 4, [2**61 - 1] * 4, [2**61 - 2] * 4, [2**61] * 4, [top, 0, top, 1]):
        h = 0
        for key in keys:
            h = (h * 1099511628211 + key) % (2**61 - 1)
        assert select_positions(keyed_random(keys, 4), np.array([[0, 1, 2, 3]])).tolist() == [h % 4]


# -- greedy against the per-edge greedy ------------------------------------------------


def _criterion_4_family():
    rng = np.random.default_rng(404)
    for i in range(100):
        t = int(rng.integers(2, 5))
        n_v = int(rng.integers(8, 65))
        yield n_v, t, i


def _same_greedy(tournament, reference):
    dom = greedy_dominating_set(tournament)
    assert (dom.elements, dom.trace) == reference_greedy(reference)
    assert verify_domination(tournament, dom) == (True, [])
    return dom


def test_greedy_matches_per_edge_greedy_on_criterion_4_family():
    for n_v, t, seed in _criterion_4_family():
        _same_greedy(random_tournament(n_v, t, seed), reference_random(n_v, t, seed))


@pytest.mark.parametrize("num_vertices,k", [(60, 4), (128, 3)])
def test_greedy_matches_per_edge_greedy_at_benchmark_sizes(num_vertices, k):
    _same_greedy(random_tournament(num_vertices, k, 5), reference_random(num_vertices, k, 5))


@pytest.mark.parametrize("case", sorted(HIT_COUNT_CASES))
def test_hit_count_greedy_matches_per_edge_greedy(case):
    language, a, delta = HIT_COUNT_CASES[case]()
    vertices = _hit_count_vertices(language, a.arity)
    _same_greedy(
        selector_from_compression(a, vertices, a.arity, delta, language.n),
        reference_compression(a, vertices, a.arity, delta, language.n),
    )


def test_small_and_degenerate_sizes():
    for k in (1, 2, 5, 6):
        for n_v in (1, 3, 7, 15):
            _same_greedy(random_tournament(n_v, k, 3 * n_v + k), reference_random(n_v, k, 3 * n_v + k))


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_scan_chunk_changes_nothing(monkeypatch, chunk):
    cases = [random_tournament(n_v, k, n_v + k) for n_v, k in ((1, 2), (9, 1), (30, 2), (24, 3), (20, 4))]
    language, a, delta = HIT_COUNT_CASES["noisy-or-n5-t3"]()
    cases.append(selector_from_compression(a, _hit_count_vertices(language, 3), 3, delta, language.n))
    expected = [greedy_dominating_set(s) for s in cases]
    monkeypatch.setattr(tournament_module, "SCAN_CHUNK", chunk)
    assert [greedy_dominating_set(s) for s in cases] == expected


# -- guardrails ---------------------------------------------------------------------


def test_selector_outside_the_edge_raises():
    bad = HypergraphTournament([0b00, 0b01, 0b10], 2, lambda e: 0b11, 2)
    with pytest.raises(InvariantError, match="outside the edge"):
        bad.select(("00", "01"))
    with pytest.raises(InvariantError, match="outside the edge"):
        greedy_dominating_set(bad)


def test_selector_undefined_names_the_first_failing_edge():
    # ideal OR at threshold 0.1 over a vertex set with four yes-instances:
    # the four edges made only of yes-instances have no qualifying element
    # (each element moves the law by 1/4)
    language, a, _ = _ideal(4, 2, 3)
    delta = 0.1
    vertices = np.concatenate([language.no_instances(), language.yes_instances()[:4]])
    reference = reference_compression(a, vertices, 3, delta, language.n)
    first = None
    for e in combinations(reference.vertices, 3):
        try:
            reference.select(e)
        except SelectorUndefinedError:
            first = e
            break
    assert first is not None
    tournament = selector_from_compression(a, vertices, 3, delta, language.n)
    with pytest.raises(SelectorUndefinedError) as scan:
        greedy_dominating_set(tournament)
    assert repr(tuple(int(v, 2) for v in first)) in str(scan.value)
    with pytest.raises(SelectorUndefinedError) as single:
        tournament.select(first)
    assert str(single.value) == str(scan.value)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("lead", [0, 1, 4, 9])
def test_first_failing_edge_at_any_first_position(monkeypatch, chunk, lead):
    # ideal OR at threshold 0.1: an edge of yes-instances only has no
    # qualifying element.  The `lead` no-instances below the least
    # yes-instance put the first failing edge at first position `lead`,
    # after the edges of every earlier first position; no-instances among
    # the yes-instances put it inside its slice.  The scan chunk size, which
    # only the random tournament's closed form reads, must change nothing
    language = ToyLanguage(5, {16, 18, 19, 23, 27})
    a = ideal_or_compression(language, 3)
    no = language.no_instances()
    vertices = np.concatenate([no[:lead], no[16:20], language.yes_instances()])
    reference = reference_compression(a, vertices, 3, 0.1, language.n)
    first = None
    for e in combinations(reference.vertices, 3):
        try:
            reference.select(e)
        except SelectorUndefinedError:
            first = e
            break
    assert first is not None and reference.vertices.index(first[0]) == lead
    if chunk is not None:
        monkeypatch.setattr(tournament_module, "SCAN_CHUNK", chunk)
    tournament = selector_from_compression(a, vertices, 3, 0.1, language.n)
    with pytest.raises(SelectorUndefinedError) as scan:
        greedy_dominating_set(tournament)
    with pytest.raises(SelectorUndefinedError) as single:
        tournament.select(first)
    assert repr(tuple(int(v, 2) for v in first)) in str(scan.value)
    assert str(scan.value) == str(single.value)


def test_rows_name_unknown_vertices():
    s = random_tournament(8, 3, seed=0)
    foreign = DominatingSet(3, 3, ((0b000, 0b1111),), (8, 0))
    with pytest.raises(ValueError, match="not a vertex"):
        verify_domination(s, foreign)
