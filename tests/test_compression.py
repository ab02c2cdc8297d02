"""Compressive maps, toy languages, subset laws, OR compressions."""

import base64
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compresslab import (
    BudgetExceededError,
    CompressiveMap,
    FiniteDistribution,
    SetEncodedCompression,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    bit_encode_subsets,
    canonical_set,
    enumerate_law,
    ideal_or_compression,
    noisy_or_compression,
    statistical_distance,
    subset_pools,
    transform_to_relaxed_or,
)
from compresslab import compression as compression_module
from compresslab.fcompression import VIEW_ORDER
from reference_routes import ProductDistribution, dictator, input_symbols, mixture, output_distribution, xor

F = Fraction


# -- compressive maps -----------------------------------------------------------


def test_output_distribution_constant():
    f = CompressiveMap.constant(3, value=0)
    assert output_distribution(f) == FiniteDistribution(["0"], [F(1)])


def test_output_distribution_dictator():
    f = dictator(4, coordinate=0)
    # oracle: walk all 16 inputs by hand
    ones = sum(1 for idx in range(16) if input_symbols(f, idx)[0] == 1)
    assert ones == 8
    assert output_distribution(f) == FiniteDistribution.uniform(["0", "1"])


def test_output_distribution_conditioned_xor():
    f = xor(4)
    x = ProductDistribution.uniform((0, 1), 4).condition(0, equal_to=0)
    # oracle: enumerate the 8 remaining inputs
    counts = {0: 0, 1: 0}
    for idx in range(16):
        symbols = input_symbols(f, idx)
        if symbols[0] == 0:
            counts[sum(symbols) % 2] += 1
    assert counts == {0: 4, 1: 4}
    assert output_distribution(f, x) == FiniteDistribution.uniform(["0", "1"])


def test_output_distribution_of_mixture():
    f = CompressiveMap.random(3, 2, 0, seed=5)
    xa = ProductDistribution.uniform((0, 1), 3).condition(1, equal_to=0)
    xb = ProductDistribution.uniform((0, 1), 3).condition(1, equal_to=1)
    mixed = mixture([(F(1, 3), xa.joint()), (F(2, 3), xb.joint())])
    expected = mixture(
        [(F(1, 3), output_distribution(f, xa)), (F(2, 3), output_distribution(f, xb))]
    )
    assert output_distribution(f, mixed) == expected


def test_conditional_average_reconstructs_output():
    f = CompressiveMap.random(4, 2, 1, seed=11)
    x = ProductDistribution.uniform((0, 1), 4)
    for j in range(4):
        parts = [(F(1, 2), output_distribution(f, x.condition(j, equal_to=b))) for b in (0, 1)]
        assert mixture(parts) == output_distribution(f, x)


def _row_reference_conditioned_counts(f: CompressiveMap) -> np.ndarray:
    """Per-row reference: add each row's code counts at every (j, symbol) it has."""
    m_codes = 2**f.output_bits
    ref = np.zeros((f.arity, f.alphabet_size, m_codes), dtype=np.int64)
    coords = np.arange(f.arity)
    for idx in range(f.n_inputs):
        row = np.bincount(f.table[idx], minlength=m_codes)
        ref[coords, list(input_symbols(f, idx))] += row
    return ref


def test_conditioned_counts_match_row_reference():
    for t, s, r, m in itertools.product((1, 2, 3, 6), (2, 3, 4), (0, 1, 2), range(5)):
        f = CompressiveMap.random(t, m, r, seed=1000 * t + 100 * s + 10 * r + m, alphabet_size=s)
        cond = f.conditioned_output_counts()
        assert cond.shape == (t, s, 2**m)
        assert np.array_equal(cond, _row_reference_conditioned_counts(f)), (t, s, r, m)
        assert (cond.sum(axis=2) == s ** (t - 1) * 2**r).all()


# (t, m, r, sigma) of the benchmark's lemma-corpus item classes
LEMMA_CORPUS_SHAPES = (
    (16, 1, 0, 2), (16, 2, 0, 2), (16, 3, 0, 2), (14, 3, 2, 2), (14, 4, 1, 2), (12, 2, 1, 2), (10, 4, 2, 2),
    (11, 2, 2, 2), (13, 1, 2, 2), (10, 3, 0, 3), (8, 4, 0, 4), (8, 2, 0, 4), (10, 2, 0, 3),
)


@pytest.mark.parametrize("t, m, r, s", LEMMA_CORPUS_SHAPES)
def test_conditioned_counts_at_lemma_corpus_shapes(t, m, r, s):
    f = CompressiveMap.random(t, m, r, seed=[t, m, r, s], alphabet_size=s)
    assert np.array_equal(f.conditioned_output_counts(), _row_reference_conditioned_counts(f))


def test_conditioned_counts_across_code_chunks_and_leading_coordinates():
    # up to 16 codes a deterministic map is folded from one-hot chunks of 8
    # codes; more codes, or coins, count leading coordinates one at a time
    # (all of them when the codes outnumber the table's entries)
    for t, m, r, s in itertools.product((1, 2, 3, 4), range(9), (0, 1, 2), (2, 3, 5)):
        if s**t * 2**r > 2**10:
            continue
        f = CompressiveMap.random(t, m, r, seed=[t, m, r, s, 1], alphabet_size=s)
        cond = f.conditioned_output_counts()
        assert cond.dtype == np.int64 and cond.shape == (t, s, 2**m)
        assert np.array_equal(cond, _row_reference_conditioned_counts(f)), (t, m, r, s)
        # a table held in column-major order counts alike
        g = CompressiveMap(t, m, r, np.asfortranarray(f.table), alphabet_size=s)
        assert np.array_equal(g.conditioned_output_counts(), cond), (t, m, r, s)


@pytest.mark.parametrize("block_cells", [1, 7, 2**5])
def test_conditioned_counts_across_bincount_blocks(monkeypatch, block_cells):
    # a map with coins, or with more than 16 codes, counts its (code, input)
    # pairs one block of inputs at a time; small blocks give many blocks per
    # map, most of them ending in a partial block
    monkeypatch.setattr(compression_module, "BLOCK_CELLS", block_cells)
    for t, m, r, s in itertools.product((1, 3, 5), (1, 3, 6), (0, 1, 3), (2, 3)):
        f = CompressiveMap.random(t, m, r, seed=[t, m, r, s, 2], alphabet_size=s)
        assert np.array_equal(f.conditioned_output_counts(), _row_reference_conditioned_counts(f)), (t, m, r, s)


def _digit_reference_conditioned_counts(f: CompressiveMap) -> np.ndarray:
    """Digit-array reference: each coordinate's symbols, counted with every code."""
    m_codes = 2**f.output_bits
    ref = np.zeros((f.arity, f.alphabet_size, m_codes), dtype=np.int64)
    idx = np.arange(f.n_inputs)
    for j in range(f.arity):
        digit = idx // f.alphabet_size ** (f.arity - 1 - j) % f.alphabet_size
        np.add.at(ref[j], (np.broadcast_to(digit[:, None], f.table.shape), f.table), 1)
    return ref


@pytest.mark.parametrize(
    "t, r, s", [(8, 0, 2), (7, 1, 2), (4, 4, 2), (9, 8, 2), (8, 9, 2), (17, 0, 2), (5, 0, 3), (1, 8, 5)]
)
def test_conditioned_counts_at_narrow_dtype_edges(t, r, s):
    # up to 3 rows moved off code 0: counts of 255/256 and 65535/65536 rows,
    # where the fold's narrow dtypes step from uint8 to uint16 and from
    # uint16 to uint32 (the 2**17-row maps, whose single counts reach 65536)
    n_rows = s**t * 2**r
    reference = _row_reference_conditioned_counts if s**t <= 2**10 else _digit_reference_conditioned_counts
    for m in (1, 2, 5):
        for moved in (0, 1, 3):
            codes = np.zeros(n_rows, dtype=np.int64)
            codes[np.random.default_rng([t, r, s, m, moved]).choice(n_rows, moved, replace=False)] = 2**m - 1
            f = CompressiveMap(t, m, r, codes.reshape(s**t, 2**r), alphabet_size=s)
            cond = f.conditioned_output_counts()
            assert cond[0, :, 0].sum() == n_rows - moved
            assert np.array_equal(cond, reference(f)), (m, moved)


def test_digit_reference_matches_row_reference():
    for t, m, r, s in [(3, 2, 1, 3), (5, 3, 0, 2), (2, 4, 3, 5), (6, 1, 2, 2)]:
        f = CompressiveMap.random(t, m, r, seed=[t, m, r, s, 2], alphabet_size=s)
        assert np.array_equal(_digit_reference_conditioned_counts(f), _row_reference_conditioned_counts(f))


@pytest.mark.parametrize("t, m, r", [(10, 8, 0), (14, 3, 0), (14, 4, 0), (12, 4, 2), (12, 2, 2), (6, 12, 1)])
def test_conditioned_counts_working_set_stays_near_the_table(t, m, r):
    # beyond the result, the fold holds at most about two table-sized arrays
    # (the keyed rows and their bincount, or a one-hot chunk and its first
    # fold), or two rows of 2**m counts when the codes outnumber the table's
    # entries; 4 KiB covers the interpreter's own small objects
    import tracemalloc

    f = CompressiveMap.random(t, m, r, seed=[t, m, r])
    tracemalloc.start()
    try:
        cond = f.conditioned_output_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - cond.nbytes <= 2 * max(f.table.nbytes, 8 * 2**m) + 4096, (peak, cond.nbytes, f.table.nbytes)


def test_random_map_deterministic_in_seed():
    a = CompressiveMap.random(4, 2, 1, seed=123)
    b = CompressiveMap.random(4, 2, 1, seed=123)
    c = CompressiveMap.random(4, 2, 1, seed=124)
    assert np.array_equal(a.table, b.table)
    assert not np.array_equal(a.table, c.table)


@st.composite
def _map_shapes(draw):
    """(t, r, s) of tables up to 2**17 cells: several draw blocks, odd cell counts at s = 3."""
    s = draw(st.integers(2, 4))
    r = draw(st.integers(0, 3))
    t = draw(st.integers(1, next(t for t in itertools.count(1) if s ** (t + 1) * 2**r > 2**17)))
    return t, r, s


_SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    st.builds(np.random.SeedSequence, st.integers(0, 2**64 - 1)),
)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 32), shape=_map_shapes(), seed=_SEEDS)
@example(m=32, shape=(10, 0, 3), seed=1)
@example(m=1, shape=(1, 0, 3), seed=[7, 8])
@example(m=31, shape=(16, 1, 2), seed=np.random.SeedSequence(5))
def test_random_map_is_the_generator_integers_stream(m, shape, seed):
    # the raw-word draw returns, cell for cell, what Generator.integers does;
    # 2**m codes need a budget past 2**24 for m > 24
    t, r, s = shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COMPLAB_BUDGET", str(2**32))
        f = CompressiveMap.random(t, m, r, seed, alphabet_size=s)
    want = np.random.default_rng(seed).integers(0, 2**m, size=(s**t, 2**r), dtype=np.int64)
    assert f.table.dtype == np.int64
    assert np.array_equal(f.table, want)


def test_output_bits_are_bounded_and_budgeted(monkeypatch):
    for m in (33, 64):
        with pytest.raises(ValueError, match="at most 32 output bits"):
            CompressiveMap.random(1, m, 0, seed=0)
        with pytest.raises(ValueError, match="at most 32 output bits"):
            CompressiveMap(1, m, 0, np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(BudgetExceededError, match="output codes"):
        CompressiveMap.random(1, 25, 0, seed=0)
    with pytest.raises(BudgetExceededError, match="output codes"):
        CompressiveMap(1, 25, 0, np.zeros((2, 1), dtype=np.int64))
    monkeypatch.setenv("COMPLAB_BUDGET", str(2**25))
    assert CompressiveMap.random(1, 25, 0, seed=0).output_bits == 25


@pytest.mark.parametrize("m", [1, 3, 32])
@pytest.mark.parametrize("bad", [-1, 2**32, np.iinfo(np.int64).min])
def test_table_codes_outside_the_output_range_raise(monkeypatch, m, bad):
    # codes 0 and 2**m - 1 are accepted; a negative code and any code from
    # 2**m on are rejected, in row- and column-major tables alike
    monkeypatch.setenv("COMPLAB_BUDGET", str(2**32))
    table = np.array([[0, 2**m - 1], [1, 0], [0, 0], [2**m - 1, 1]], dtype=np.int64)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        CompressiveMap(2, m, 1, layout(table.copy()))
    for code in {bad, 2**m}:
        table[1, 1] = code
        for layout in (np.ascontiguousarray, np.asfortranarray):
            with pytest.raises(ValueError, match="outside the output code range"):
                CompressiveMap(2, m, 1, layout(table.copy()))


def test_random_map_regression_fixture():
    f = CompressiveMap.random(2, 1, 0, seed=42)
    assert f.table.ravel().tolist() == [0, 1, 1, 0]


def test_zero_output_bits():
    f = CompressiveMap.random(3, 0, 0, seed=1)
    assert output_distribution(f) == FiniteDistribution([""], [F(1)])


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        CompressiveMap.random(30, 1, 0, seed=0)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("COMPLAB_BUDGET", "8")
    with pytest.raises(BudgetExceededError):
        CompressiveMap.random(4, 1, 0, seed=0)
    monkeypatch.setenv("COMPLAB_BUDGET", "1048576")
    CompressiveMap.random(4, 1, 0, seed=0)


def test_epsilon_and_indexing():
    f = CompressiveMap.random(4, 2, 0, seed=3)
    for idx in (0, 5, 15):
        assert f.input_index(input_symbols(f, idx)) == idx


def test_map_serialization_round_trip():
    for t, m, r, s in [(3, 2, 1, 2), (2, 3, 0, 3), (3, 0, 1, 2)]:
        f = CompressiveMap.random(t, m, r, seed=7, alphabet_size=s)
        g = CompressiveMap.from_json(f.to_json())
        assert np.array_equal(f.table, g.table)
        assert (g.arity, g.output_bits, g.coin_bits, g.alphabet_size) == (t, m, r, s)


# Base64 tables written by the earlier bit-loop serializer: m=3 codes straddle
# byte boundaries, sigma=3 tables carry "alphabet_size", m=0 tables are empty.
PINNED_TABLES = [
    ((3, 3, 1, 2, 5), "uGcq4TjI", [5, 6, 0, 6, 3, 4, 5, 2, 7, 0, 2, 3, 4, 3, 1, 0]),
    ((2, 2, 1, 3, 6), "adlybaA=", [1, 2, 2, 1, 3, 1, 2, 1, 1, 3, 0, 2, 1, 2, 3, 1, 2, 2]),
    ((3, 0, 1, 2, 7), "", [0] * 16),
    ((4, 1, 0, 2, 8), "k8g=", [1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0]),
    ((2, 5, 0, 3, 9), "bvyRzrig", [13, 27, 30, 9, 3, 19, 21, 24, 20]),
]


def test_map_serialization_format_is_pinned():
    for (t, m, r, s, seed), packed, codes in PINNED_TABLES:
        f = CompressiveMap.random(t, m, r, seed=seed, alphabet_size=s)
        assert f.table.ravel().tolist() == codes
        obj = f.to_json()
        assert obj["table"] == packed
        assert obj.get("alphabet_size", 2) == s and ("alphabet_size" in obj) == (s != 2)
        g = CompressiveMap.from_json({"t": t, "m": m, "r": r, "alphabet_size": s, "table": packed})
        assert g.table.ravel().tolist() == codes


def _bit_loop_table(f: CompressiveMap) -> str:
    """Reference packing: every code as m bits, MSB first, eight bits per byte."""
    bits = [(int(code) >> k) & 1 for code in f.table.ravel() for k in range(f.output_bits - 1, -1, -1)]
    bits += [0] * (-len(bits) % 8)
    packed = bytes(int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8))
    return base64.b64encode(packed).decode("ascii")


def test_map_serialization_matches_bit_loop_reference():
    for t, m, r, s in itertools.product((1, 3, 5), range(6), (0, 2), (2, 3)):
        f = CompressiveMap.random(t, m, r, seed=31 * t + 7 * m + r + s, alphabet_size=s)
        packed = f.to_json()["table"]
        assert packed == _bit_loop_table(f), (t, m, r, s)
        g = CompressiveMap.from_json({"t": t, "m": m, "r": r, "alphabet_size": s, "table": packed})
        assert np.array_equal(g.table, f.table)


def test_map_deserialization_rejects_short_table():
    obj = CompressiveMap.random(3, 3, 1, seed=5).to_json()
    obj["table"] = "uGcq"
    with pytest.raises(ValueError, match="bits"):
        CompressiveMap.from_json(obj)


# -- toy languages ---------------------------------------------------------------


def test_language_partition():
    lang = ToyLanguage(3, {0b111, 0b010})
    assert set(lang.yes_instances().tolist()) | set(lang.no_instances().tolist()) == set(range(2**3))
    assert not set(lang.yes_instances().tolist()) & set(lang.no_instances().tolist())
    assert lang.complement().yes_instances().tolist() == lang.no_instances().tolist()


def test_language_validation():
    with pytest.raises(ValueError):
        ToyLanguage(3, {0b1000})
    with pytest.raises(ValueError):
        ToyLanguage(3, {-1})
    with pytest.raises(ValueError):  # bit strings are not ids
        ToyLanguage(2, {"01"})
    with pytest.raises(ValueError):
        ToyLanguage(2, {"0x"})
    with pytest.raises(ValueError):
        ToyLanguage(3, {0b111}).is_yes(0b1000)
    with pytest.raises(ValueError):
        ToyLanguage(3, {0b111}).is_yes(-1)
    for ids in ([0b111, 0b1000], [-1, 0b111], [0b1000]):
        with pytest.raises(ValueError, match="is not an 3-bit id"):
            ToyLanguage(3, {0b111}).count_yes(ids)


def test_count_yes_on_numpy_ids_and_duplicates():
    lang = ToyLanguage(4, {0b0001, 0b0110, 0b1111})
    for xs, members in (
        (np.array([1, 6, 6, 2, 1]), 2),
        (np.array([1, 6, 6, 2, 1], dtype=np.uint8), 2),
        ([np.int64(15), 15, 1, np.int32(1)], 2),
        (iter((6, 6, 0, 6)), 1),
    ):
        assert lang.count_yes(xs) == members
    assert lang.count_yes(()) == lang.count_yes(np.empty(0, dtype=np.int64)) == 0
    # the first id out of range in the distinct ids' order is named, as
    # is_yes names it; ids at the top of the uint64 range are out of range
    # too, not read from the end of the membership vector
    wrapping = ([1, 2**64 - 1], np.array([2**64 - 1], dtype=np.uint64))
    for xs in (np.array([1, 16, 16]), [-3, -3], np.array([2, -1]), *wrapping):
        bad = next(v for v in set(xs) if not 0 <= v < 16)
        with pytest.raises(ValueError, match=f"^{bad} is not an 4-bit id$"):
            lang.count_yes(xs)


def test_language_serialization():
    lang = ToyLanguage(5, {0b11111, 0b00001, 0b10000})
    assert ToyLanguage.from_json(lang.to_json()) == lang
    assert lang.to_json()["yes"] == ["01", "10", "1f"]


def test_language_random_seeded():
    assert ToyLanguage.random(4, seed=9) == ToyLanguage.random(4, seed=9)


# A language as a set of '0'/'1' strings: the reference for the id tables.
# Strings are listed in lexicographic order, and each maps to its id only
# through int(x, 2).


@st.composite
def string_languages(draw):
    n = draw(st.integers(1, 8))
    bits = st.text("01", min_size=n, max_size=n)
    return n, draw(st.sets(bits)), draw(st.lists(bits, max_size=8))


@settings(max_examples=100, deadline=None)
@given(string_languages())
def test_language_ids_match_a_bit_string_reference(case):
    n, yes, xs = case
    lang = ToyLanguage(n, [int(x, 2) for x in yes])
    universe = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    assert [lang.is_yes(int(x, 2)) for x in universe] == [x in yes for x in universe]
    assert lang.count_yes(int(x, 2) for x in xs) == len(set(xs) & yes)
    assert lang.no_instances().tolist() == [int(x, 2) for x in universe if x not in yes]
    assert lang.yes_instances().tolist() == [int(x, 2) for x in universe if x in yes]
    width = (n + 3) // 4
    assert lang.to_json() == {"n": n, "yes": sorted(format(int(x, 2), f"0{width}x") for x in yes)}
    assert ToyLanguage.from_json(lang.to_json()) == lang


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_random_language_draws_the_string_members(n, seed):
    picks = np.random.default_rng(seed).random(2**n) < 0.5
    yes = {format(i, f"0{n}b") for i in range(2**n) if picks[i]}
    assert ToyLanguage.random(n, seed) == ToyLanguage(n, [int(x, 2) for x in yes])


@pytest.mark.parametrize(
    "chunk,n,seed,density",
    [
        (1, 1, 3, 0.5),
        (1, 8, 11, 0.5),
        (7, 9, 5, 0.1),
        (1000, 12, 6, 0.3),
        (2**16, 17, 2, 0.5),
        (2**16, 18, 4, 0.9),
    ],
)
def test_random_language_in_chunks_matches_one_draw(monkeypatch, chunk, n, seed, density):
    # the chunked draw continues one stream: the members of one draw of all 2^n
    one_draw = np.random.default_rng(seed).random(2**n) < density
    monkeypatch.setattr(compression_module, "RANDOM_DRAW_CHUNK", chunk)
    assert np.array_equal(ToyLanguage.random(n, seed, density).member, one_draw)


# -- OR compressions ------------------------------------------------------------


def test_ideal_or_examples():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    assert a.evaluate((0b000, 0b001)) == 0
    assert a.evaluate((0b000, 0b111)) == 1
    assert a.evaluate(()) == 0


def test_set_order_invariance():
    lang = ToyLanguage(3, {0b101})
    a = ideal_or_compression(lang, 3)
    assert a.evaluate((0b001, 0b101, 0b010)) == a.evaluate((0b101, 0b010, 0b001))
    d1 = a.subset_output_distribution((0b001, 0b010, 0b100))
    d2 = a.subset_output_distribution((0b100, 0b001, 0b010))
    assert d1 == d2


def test_noisy_or_zero_noise_matches_ideal():
    lang = ToyLanguage(3, {0b110})
    ideal = ideal_or_compression(lang, 3)
    noisy = noisy_or_compression(lang, 3, 0, 0, coin_bits=2)
    from itertools import combinations

    for size in range(4):
        for x in combinations(range(2**lang.n), size):
            for coin in range(4):
                assert noisy.evaluate(x, coin) == ideal.evaluate(x)


def test_noisy_or_flip_distributions():
    lang = ToyLanguage(3, {0b111})
    a = noisy_or_compression(lang, 3, e_s=F(1, 4), e_c=F(1, 4), coin_bits=2)
    # all-no input: enumerate the 4 coin strings, one of them flips
    flips = [a.evaluate((0b000, 0b001), coin) for coin in range(4)]
    assert sorted(flips) == [0, 0, 0, 1]
    # one-yes input: one coin flips the 1 down
    hits = [a.evaluate((0b000, 0b111), coin) for coin in range(4)]
    assert sorted(hits) == [0, 1, 1, 1]


def test_noisy_or_requires_dyadic_noise():
    lang = ToyLanguage(2, {0b11})
    with pytest.raises(ValueError, match="dyadic"):
        noisy_or_compression(lang, 2, e_s=F(1, 3), e_c=0, coin_bits=2)


def _subset_law_configurations(lang, arity, rng, trials):
    """(ground, forced) pairs with ground plus forced inside the arity: grounds
    with and without yes-instances, forced yes, forced no, nothing forced, and
    forced elements that also sit in the ground set."""
    universe = range(2**lang.n)
    yes = [v for v in universe if lang.is_yes(v)]
    no = [v for v in universe if not lang.is_yes(v)]
    for trial in range(trials):
        size = int(rng.integers(0, arity + 1))
        picks = [universe[i] for i in rng.choice(len(universe), size=size, replace=False)]
        if yes and trial % 2 and yes[trial % len(yes)] not in picks:
            picks = picks[: max(0, size - 1)] + [yes[trial % len(yes)]]
        kind = trial % 4
        if kind == 0 or not picks:
            yield tuple(picks), ()
        elif kind == 1:
            # forced element already in the ground set
            yield tuple(picks), (picks[-1],)
        else:
            pool = yes if kind == 2 else no
            outside = [v for v in pool if v not in picks]
            if not outside:
                yield tuple(picks), ()
                continue
            ground = tuple(picks[: arity - 1])
            yield ground, (outside[trial % len(outside)],)


def test_or_closed_form_matches_enumeration():
    # dual route: the hit-count closed form must agree with brute-force
    # enumeration of subsets and coins on every configuration, on a fresh
    # compression and again from its memo
    rng = np.random.default_rng(21)
    for trial in range(30):
        lang = ToyLanguage.random(3, seed=trial)
        for a in (
            noisy_or_compression(lang, 4, e_s=F(1, 8), e_c=F(1, 4), coin_bits=3),
            ideal_or_compression(lang, 4),
        ):
            for ground, forced in _subset_law_configurations(lang, 4, rng, 8):
                slow = enumerate_law(a, subset_pools(ground, forced))
                assert a.subset_output_distribution(ground, forced) == slow
                assert a.subset_output_distribution(ground, forced) == slow
                assert all(type(m) is F for m in slow.mass)


def test_transformed_or_closed_form_matches_enumeration():
    # the non-constant symmetric functions for t=2..5 cover all four views and,
    # from t=3 on, every pivot up to t/2 (at t=2 every function steps up at 0
    # in some view)
    rng = np.random.default_rng(5)
    seen = set()
    for t in range(2, 6):
        for bits in itertools.product((0, 1), repeat=t + 1):
            f = SymmetricFunction(bits)
            if f.is_constant:
                continue
            members = rng.choice(16, size=8, replace=False)
            lang = ToyLanguage(4, {int(i) for i in members})
            a = transform_to_relaxed_or(SymmetricCompression(lang, f))
            seen.add((t, a.view.view, a.view.pivot))
            for ground, forced in _subset_law_configurations(a.hit_language, a.arity, rng, 8):
                slow = enumerate_law(a, subset_pools(ground, forced))
                assert a.subset_output_distribution(ground, forced) == slow
    assert {view for _, view, _ in seen} == set(VIEW_ORDER)
    for t in range(3, 6):
        assert {pivot for tt, _, pivot in seen if tt == t} == set(range(t // 2 + 1))


def test_law_keys_summarise_hit_counts():
    lang = ToyLanguage(3, {0b111, 0b110})
    a = noisy_or_compression(lang, 4, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
    # the key keeps only the pools that hold a hit: (2, 1) per ground hit,
    # (1, 1) per forced hit
    assert a.law_key(subset_pools((0b000, 0b111, 0b110), (0b001,))) == ((2, 1), (2, 1))
    assert a.law_key(subset_pools((0b000, 0b111), (0b111,))) == ((1, 1),)
    e = (0b000, 0b001, 0b110, 0b111)
    assert [a.conditioned_keys(tuple(w for w in e if w != v), v) for v in e] == [
        (a.law_key(subset_pools(tuple(w for w in e if w != v))), a.law_key(subset_pools(tuple(w for w in e if w != v), (v,))))
        for v in e
    ]
    # v inside g is forced out of the ground set, as subset_pools forces it
    assert a.conditioned_keys((0b000, 0b111, 0b110), 0b111) == (
        a.law_key(subset_pools((0b000, 0b111, 0b110))),
        ((1, 1), (2, 1)),
    )
    with pytest.raises(ValueError, match="exceed the arity"):
        a.law_key(subset_pools((0b000, 0b001, 0b010, 0b011), (0b100,)))
    with pytest.raises(ValueError, match="exceed the arity"):
        a.conditioned_keys((0b000, 0b001, 0b010, 0b011), 0b100)
    g = (0b000, 0b001, 0b010, 0b110)
    assert a.conditioned_keys(g, 0b110) == (a.law_key(subset_pools(g)), a.law_key(subset_pools(g, (0b110,))))
    assert a.conditioned_keys(g, 0b110) == (((2, 1),), ((1, 1),))


def test_or_closed_form_handles_forced_overlap():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    ground = (0b000, 0b001, 0b010)
    fast = a.subset_output_distribution(ground, forced=(0b001,))
    slow = enumerate_law(a, subset_pools(ground, forced=(0b001,)))
    assert fast == slow


def test_error_bound_contract():
    lang = ToyLanguage(2, {0b11})
    with pytest.raises(ValueError, match="below 1"):
        noisy_or_compression(lang, 2, e_s=F(1, 2), e_c=F(1, 2), coin_bits=1)


def test_negative_bit_counts_rejected():
    lang = ToyLanguage(2, {0b11})
    with pytest.raises(ValueError, match="nonnegative"):
        noisy_or_compression(lang, 2, e_s=0, e_c=0, coin_bits=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        SetEncodedCompression(2, output_bits=-1)


def test_arity_enforced():
    lang = ToyLanguage(2, {0b11})
    a = ideal_or_compression(lang, 2)
    with pytest.raises(ValueError, match="arity"):
        a.evaluate((0b00, 0b01, 0b10))


# -- bit encoding of subsets ------------------------------------------------------


def test_bit_encoding_matches_subset_laws():
    lang = ToyLanguage(3, {0b011})
    a = noisy_or_compression(lang, 3, e_s=F(1, 4), e_c=0, coin_bits=2)
    e = canonical_set((0b000, 0b011, 0b110))
    f = bit_encode_subsets(a, e)
    x = ProductDistribution.uniform((0, 1), 3)
    for j, v in enumerate(e):
        via_bits_out = output_distribution(f, x.condition(j, equal_to=0))
        via_bits_in = output_distribution(f, x.condition(j, equal_to=1))
        rest = tuple(w for w in e if w != v)
        assert via_bits_out == a.subset_output_distribution(rest)
        assert via_bits_in == a.subset_output_distribution(rest, forced=(v,))
        # and the distances agree on both routes
        assert statistical_distance(via_bits_out, via_bits_in) == statistical_distance(
            a.subset_output_distribution(rest), a.subset_output_distribution(rest, forced=(v,))
        )


def test_canonical_set():
    assert canonical_set((0b10, 0b01, 0b10)) == (0b01, 0b10)
    assert all(type(v) is int for v in canonical_set(np.array([0b10, 0b01])))
    with pytest.raises(TypeError):  # bit strings are not ids
        canonical_set(("10", "01"))
