"""Compressive maps, toy languages, subset distributions, OR compressions."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from compresslab import (
    BudgetExceededError,
    CompressiveMap,
    FiniteDistribution,
    ProductDistribution,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    bit_encode_subsets,
    canonical_set,
    enumerate_subset_law,
    ideal_or_compression,
    mixture,
    noisy_or_compression,
    random_compressive_map,
    statistical_distance,
    subset_distribution,
    transform_to_relaxed_or,
    uniform,
)
from compresslab.fcompression import VIEW_ORDER

F = Fraction


# -- compressive maps -----------------------------------------------------------


def test_output_distribution_constant():
    f = CompressiveMap.constant(3, value=0)
    assert f.output_distribution() == FiniteDistribution(["0"], [F(1)])


def test_output_distribution_dictator():
    f = CompressiveMap.dictator(4, coordinate=0)
    # oracle: walk all 16 inputs by hand
    ones = sum(1 for idx in range(16) if f.input_symbols(idx)[0] == 1)
    assert ones == 8
    assert f.output_distribution() == uniform(["0", "1"])


def test_output_distribution_conditioned_xor():
    f = CompressiveMap.xor(4)
    x = ProductDistribution.uniform((0, 1), 4).condition(0, equal_to=0)
    # oracle: enumerate the 8 remaining inputs
    counts = {0: 0, 1: 0}
    for idx in range(16):
        symbols = f.input_symbols(idx)
        if symbols[0] == 0:
            counts[sum(symbols) % 2] += 1
    assert counts == {0: 4, 1: 4}
    assert f.output_distribution(x) == uniform(["0", "1"])


def test_output_distribution_of_mixture():
    f = CompressiveMap.random(3, 2, 0, seed=5)
    xa = ProductDistribution.uniform((0, 1), 3).condition(1, equal_to=0)
    xb = ProductDistribution.uniform((0, 1), 3).condition(1, equal_to=1)
    mixed = mixture([(F(1, 3), xa.joint()), (F(2, 3), xb.joint())])
    expected = mixture(
        [(F(1, 3), f.output_distribution(xa)), (F(2, 3), f.output_distribution(xb))]
    )
    assert f.output_distribution(mixed) == expected


def test_conditional_average_reconstructs_output():
    f = CompressiveMap.random(4, 2, 1, seed=11)
    x = ProductDistribution.uniform((0, 1), 4)
    for j in range(4):
        parts = [(F(1, 2), f.output_distribution(x.condition(j, equal_to=b))) for b in (0, 1)]
        assert mixture(parts) == f.output_distribution(x)


def test_random_map_deterministic_in_seed():
    a = CompressiveMap.random(4, 2, 1, seed=123)
    b = CompressiveMap.random(4, 2, 1, seed=123)
    c = CompressiveMap.random(4, 2, 1, seed=124)
    assert np.array_equal(a.table, b.table)
    assert not np.array_equal(a.table, c.table)


def test_random_map_regression_fixture():
    f = CompressiveMap.random(2, 1, 0, seed=42)
    assert f.table.ravel().tolist() == [0, 1, 1, 0]


def test_zero_output_bits():
    f = CompressiveMap.random(3, 0, 0, seed=1)
    assert f.output_distribution() == FiniteDistribution([""], [F(1)])


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        random_compressive_map(30, 1, 0, seed=0)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("COMPLAB_BUDGET", "8")
    with pytest.raises(BudgetExceededError):
        CompressiveMap.random(4, 1, 0, seed=0)
    monkeypatch.setenv("COMPLAB_BUDGET", "1048576")
    CompressiveMap.random(4, 1, 0, seed=0)


def test_epsilon_and_indexing():
    f = CompressiveMap.random(4, 2, 0, seed=3)
    assert f.epsilon == F(1, 2)
    for idx in (0, 5, 15):
        assert f.input_index(f.input_symbols(idx)) == idx


def test_map_serialization_round_trip():
    for t, m, r, s in [(3, 2, 1, 2), (2, 3, 0, 3), (3, 0, 1, 2)]:
        f = CompressiveMap.random(t, m, r, seed=7, alphabet_size=s)
        g = CompressiveMap.from_json(f.to_json())
        assert np.array_equal(f.table, g.table)
        assert (g.arity, g.output_bits, g.coin_bits, g.alphabet_size) == (t, m, r, s)


# -- toy languages ---------------------------------------------------------------


def test_language_partition():
    lang = ToyLanguage(3, {"111", "010"})
    assert set(lang.yes_instances()) | set(lang.no_instances()) == set(lang.universe())
    assert not set(lang.yes_instances()) & set(lang.no_instances())
    assert lang.complement().yes_set == frozenset(lang.no_instances())


def test_language_validation():
    with pytest.raises(ValueError):
        ToyLanguage(3, {"01"})
    with pytest.raises(ValueError):
        ToyLanguage(2, {"0x"})
    with pytest.raises(ValueError):
        ToyLanguage(3, {"111"}).is_yes("0101")


def test_language_serialization():
    lang = ToyLanguage(5, {"11111", "00001", "10000"})
    assert ToyLanguage.from_json(lang.to_json()) == lang
    assert lang.to_json()["yes"] == ["01", "10", "1f"]


def test_language_random_seeded():
    assert ToyLanguage.random(4, seed=9) == ToyLanguage.random(4, seed=9)


# -- subset distributions -----------------------------------------------------


def test_subset_distribution_plain():
    d = subset_distribution(("00", "01"))
    assert set(d.outcomes) == {(), ("00",), ("01",), ("00", "01")}
    assert all(m == F(1, 4) for m in d.mass)


def test_subset_distribution_with():
    d = subset_distribution(("00", "01"), "with", "01")
    assert set(d.outcomes) == {("01",), ("00", "01")}
    assert all(m == F(1, 2) for m in d.mass)


def test_subset_distribution_without():
    d = subset_distribution(("00", "01", "10"), "without", "10")
    assert len(d.outcomes) == 4
    assert all("10" not in out for out in d.outcomes)
    assert all(m == F(1, 4) for m in d.mass)


def test_subset_distribution_requires_member():
    with pytest.raises(ValueError):
        subset_distribution(("00", "01"), "with", "11")


# -- OR compressions ------------------------------------------------------------


def test_ideal_or_examples():
    lang = ToyLanguage(3, {"111"})
    a = ideal_or_compression(lang, 3)
    assert a.evaluate(("000", "001")) == 0
    assert a.evaluate(("000", "111")) == 1
    assert a.evaluate(()) == 0


def test_set_order_invariance():
    lang = ToyLanguage(3, {"101"})
    a = ideal_or_compression(lang, 3)
    assert a.evaluate(("001", "101", "010")) == a.evaluate(("101", "010", "001"))
    d1 = a.subset_output_distribution(("001", "010", "100"))
    d2 = a.subset_output_distribution(("100", "001", "010"))
    assert d1 == d2


def test_noisy_or_zero_noise_matches_ideal():
    lang = ToyLanguage(3, {"110"})
    ideal = ideal_or_compression(lang, 3)
    noisy = noisy_or_compression(lang, 3, 0, 0, coin_bits=2)
    from itertools import combinations

    for size in range(4):
        for x in combinations(lang.universe(), size):
            for coin in range(4):
                assert noisy.evaluate(x, coin) == ideal.evaluate(x)


def test_noisy_or_flip_distributions():
    lang = ToyLanguage(3, {"111"})
    a = noisy_or_compression(lang, 3, e_s=F(1, 4), e_c=F(1, 4), coin_bits=2)
    # all-no input: enumerate the 4 coin strings, one of them flips
    flips = [a.evaluate(("000", "001"), coin) for coin in range(4)]
    assert sorted(flips) == [0, 0, 0, 1]
    # one-yes input: one coin flips the 1 down
    hits = [a.evaluate(("000", "111"), coin) for coin in range(4)]
    assert sorted(hits) == [0, 1, 1, 1]


def test_noisy_or_requires_dyadic_noise():
    lang = ToyLanguage(2, {"11"})
    with pytest.raises(ValueError, match="dyadic"):
        noisy_or_compression(lang, 2, e_s=F(1, 3), e_c=0, coin_bits=2)


def _subset_law_configurations(lang, arity, rng, trials):
    """(ground, forced) pairs with ground plus forced inside the arity: grounds
    with and without yes-instances, forced yes, forced no, nothing forced, and
    forced elements that also sit in the ground set."""
    strings = lang.universe()
    yes = [v for v in strings if lang.is_yes(v)]
    no = [v for v in strings if not lang.is_yes(v)]
    for trial in range(trials):
        size = int(rng.integers(0, arity + 1))
        picks = [strings[i] for i in rng.choice(len(strings), size=size, replace=False)]
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
    # enumeration of subsets and coins on every configuration, in both
    # arithmetics, on a fresh compression and again from its memo
    rng = np.random.default_rng(21)
    for trial in range(30):
        lang = ToyLanguage.random(3, seed=trial)
        for a in (
            noisy_or_compression(lang, 4, e_s=F(1, 8), e_c=F(1, 4), coin_bits=3),
            ideal_or_compression(lang, 4),
        ):
            for ground, forced in _subset_law_configurations(lang, 4, rng, 8):
                for exact in (True, False):
                    slow = enumerate_subset_law(a, ground, forced, exact)
                    assert a.subset_output_distribution(ground, forced, exact) == slow
                    assert a.subset_output_distribution(ground, forced, exact) == slow
                    assert slow.exact == exact


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
            lang = ToyLanguage(4, {format(int(i), "04b") for i in members})
            a = transform_to_relaxed_or(SymmetricCompression(lang, f))
            seen.add((t, a.view.view, a.view.pivot))
            source = a.source_language
            for ground, forced in _subset_law_configurations(source, a.arity, rng, 8):
                for exact in (True, False):
                    slow = enumerate_subset_law(a, ground, forced, exact)
                    assert a.subset_output_distribution(ground, forced, exact) == slow
    assert {view for _, view, _ in seen} == set(VIEW_ORDER)
    for t in range(3, 6):
        assert {pivot for tt, _, pivot in seen if tt == t} == set(range(t // 2 + 1))


def test_law_keys_summarise_hit_counts():
    lang = ToyLanguage(3, {"111", "110"})
    a = noisy_or_compression(lang, 4, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
    assert a.law_key(("000", "111", "110"), ("001",)) == (2, 0)
    assert a.law_key(("000", "111"), ("111",)) == (0, 1)
    e = ("000", "001", "110", "111")
    assert list(a.conditioned_law_keys(e)) == [
        (a.law_key(tuple(w for w in e if w != v)), a.law_key(tuple(w for w in e if w != v), (v,)))
        for v in e
    ]
    with pytest.raises(ValueError, match="exceed the arity"):
        a.law_key(("000", "001", "010", "011"), ("100",))


def test_or_closed_form_handles_forced_overlap():
    lang = ToyLanguage(3, {"111"})
    a = ideal_or_compression(lang, 3)
    ground = ("000", "001", "010")
    fast = a.subset_output_distribution(ground, forced=("001",))
    slow = enumerate_subset_law(a, ground, forced=("001",))
    assert fast == slow


def test_error_bound_contract():
    lang = ToyLanguage(2, {"11"})
    with pytest.raises(ValueError, match="below 1"):
        noisy_or_compression(lang, 2, e_s=F(1, 2), e_c=F(1, 2), coin_bits=1)


def test_arity_enforced():
    lang = ToyLanguage(2, {"11"})
    a = ideal_or_compression(lang, 2)
    with pytest.raises(ValueError, match="arity"):
        a.evaluate(("00", "01", "10"))


# -- bit encoding of subsets ------------------------------------------------------


def test_bit_encoding_matches_subset_laws():
    lang = ToyLanguage(3, {"011"})
    a = noisy_or_compression(lang, 3, e_s=F(1, 4), e_c=0, coin_bits=2)
    e = canonical_set(("000", "011", "110"))
    f = bit_encode_subsets(a, e)
    x = ProductDistribution.uniform((0, 1), 3)
    for j, v in enumerate(e):
        via_bits_out = f.output_distribution(x.condition(j, equal_to=0))
        via_bits_in = f.output_distribution(x.condition(j, equal_to=1))
        rest = tuple(w for w in e if w != v)
        assert via_bits_out == a.subset_output_distribution(rest)
        assert via_bits_in == a.subset_output_distribution(rest, forced=(v,))
        # and the distances agree on both routes
        assert statistical_distance(via_bits_out, via_bits_in) == statistical_distance(
            a.subset_output_distribution(rest), a.subset_output_distribution(rest, forced=(v,))
        )


def test_canonical_set():
    assert canonical_set(("10", "01", "10")) == ("01", "10")
