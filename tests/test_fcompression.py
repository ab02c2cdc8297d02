"""Pivot views of symmetric compressions and the relaxed-OR transform."""

from itertools import combinations, product

import pytest

from compresslab import (
    HitCountCompression,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    TransformedOrCompression,
    audit_language,
    enumerate_law,
    find_pivot_view,
    noisy_or_compression,
    subset_pools,
    transform_to_relaxed_or,
)

SF = SymmetricFunction


def _language_for(view, n, t):
    """Toy language with enough source yes-instances for any pivot."""
    universe = range(2**n)
    split = min(max(t + 1, 2 ** (n - 1)), 2**n - 2)
    if view.complement_source:
        return ToyLanguage(n, universe[split:])
    return ToyLanguage(n, universe[:split])


def _all_nonconstant(t):
    for values in product((0, 1), repeat=t + 1):
        if len(set(values)) == 2:
            yield SF(values)


# -- symmetric functions ----------------------------------------------------------


def test_value_validation():
    with pytest.raises(ValueError):
        SF((0,))
    with pytest.raises(ValueError):
        SF((0, 2))
    assert SF.from_bits("0101").values == (0, 1, 0, 1)


def test_builtin_families():
    assert SF.or_function(3).values == (0, 1, 1, 1)
    assert SF.and_function(3).values == (0, 0, 0, 1)
    assert SF.majority(4).values == (0, 0, 0, 1, 1)
    assert SF.parity(3).values == (0, 1, 0, 1)
    assert SF.and_function(3).is_constant is False
    assert SF((1, 1, 1)).is_constant


# -- pivot views ---------------------------------------------------------------------


def test_pivot_view_examples():
    v = find_pivot_view(SF.or_function(4))
    assert (v.view, v.pivot) == ("f", 0)
    for t in (2, 3, 4, 5):
        v = find_pivot_view(SF.and_function(t))
        assert (v.view, v.pivot) == ("1-f(t-i)", 0)
        assert v.complement_source
    v = find_pivot_view(SF.majority(4))
    assert (v.view, v.pivot) == ("f", 2)
    v = find_pivot_view(SF.parity(5))
    assert (v.view, v.pivot) == ("f", 0)


def test_pivot_view_constant_rejected():
    with pytest.raises(ValueError, match="constant"):
        find_pivot_view(SF((1, 1, 1, 1)))


def test_pivot_views_exhaustive():
    # every non-constant value vector up to t = 6 admits a valid view
    for t in range(1, 7):
        for f in _all_nonconstant(t):
            view = find_pivot_view(f)
            assert view.pivot <= t // 2
            assert view.transformed.values[view.pivot] == 0
            assert view.transformed.values[view.pivot + 1] == 1


# -- symmetric compressions as hit-count compressions -----------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetric_law_matches_enumeration(seed):
    lang = ToyLanguage.random(3, seed=seed)
    yes, no = lang.yes_instances().tolist(), lang.no_instances().tolist()
    for t in range(1, 5):
        for values in product((0, 1), repeat=t + 1):
            a = SymmetricCompression(lang, SF(values))
            assert isinstance(a, HitCountCompression) and (a.arity, a.output_bits, a.n_coins) == (t, 1, 1)
            # ground and forced sets of every hit / non-hit make-up up to size t
            for gy, gn, fy, fn in product(range(t + 1), repeat=4):
                if gy + gn + fy + fn > t or gy + fy > len(yes) or gn + fn > len(no):
                    continue
                ground = yes[:gy] + no[:gn]
                forced = yes[gy : gy + fy] + no[gn : gn + fn]
                pools = subset_pools(ground, forced)
                key = a.law_key(pools)
                assert key == ((1, 1),) * fy + ((2, 1),) * gy
                assert a.law(key) == enumerate_law(a, pools), (values, key)


# -- transformation -------------------------------------------------------------------


def test_or_transform_is_identity():
    lang = ToyLanguage(3, {0b110, 0b111})
    base = SymmetricCompression(lang, SF.or_function(3))
    out = transform_to_relaxed_or(base)
    assert out.arity == 3
    for size in range(4):
        for x in combinations(range(2**lang.n), size):
            expected = 1 if any(lang.is_yes(w) for w in x) else 0
            assert out.evaluate(x) == expected


def test_and_transform_decides_complement():
    lang = ToyLanguage(3, {0b000, 0b011, 0b101, 0b110})
    base = SymmetricCompression(lang, SF.and_function(3))
    out = transform_to_relaxed_or(base)
    assert out.view.view == "1-f(t-i)"
    assert out.hit_language == lang.complement()
    report = audit_language(out.hit_language, out, Delta=1, delta=0.5)
    assert report.agreement == 1.0


def test_majority_transform_promise_cases():
    t = 4
    f = SF.majority(t)
    view = find_pivot_view(f)
    assert view.pivot == 2
    lang = _language_for(view, 3, t)
    base = SymmetricCompression(lang, f)
    out = transform_to_relaxed_or(base)
    assert out.arity == t - view.pivot == 2
    src = out.hit_language
    for size in range(out.arity + 1):
        for x in combinations(range(2**lang.n), size):
            hits = sum(1 for w in x if src.is_yes(w))
            if hits > 1:
                continue
            assert out.evaluate(x) == hits


def test_injected_instances_disjoint_and_sourced():
    f = SF((0, 0, 1, 1, 1))  # flat at count zero in all four views
    view = find_pivot_view(f)
    assert view.pivot == 1
    lang = _language_for(view, 3, 4)
    out = transform_to_relaxed_or(SymmetricCompression(lang, f))
    for size in range(out.arity + 1):
        for x in combinations(range(2**lang.n), size):
            pad = out.injected_for(x)
            assert len(pad) == view.pivot
            assert not set(pad) & set(x)
            assert all(out.hit_language.is_yes(w) for w in pad)


def test_pool_too_small():
    f = SF((0, 0, 1, 1))  # pivot 1, needs t = 3 source yes-instances
    lang = ToyLanguage(3, {0b111, 0b000})  # only 2 yes
    with pytest.raises(ValueError, match="trivial or pool too small"):
        transform_to_relaxed_or(SymmetricCompression(lang, f))


def test_pool_validation():
    lang = ToyLanguage(3, {0b111, 0b110, 0b101, 0b100, 0b011})
    base = SymmetricCompression(lang, SF((0, 0, 1, 1)))
    with pytest.raises(ValueError, match="yes-instance"):
        TransformedOrCompression(base, find_pivot_view(base.f), (0b000, 0b111, 0b110))
    with pytest.raises(ValueError, match="distinct"):
        TransformedOrCompression(base, find_pivot_view(base.f), (0b111, 0b111, 0b110))


def test_arity_never_below_half():
    for t in range(1, 7):
        for f in _all_nonconstant(t):
            view = find_pivot_view(f)
            assert t - view.pivot >= t / 2


def test_transformed_evaluator_is_set_invariant():
    f = SF((0, 0, 1, 1))
    view = find_pivot_view(f)
    lang = _language_for(view, 3, 3)
    out = transform_to_relaxed_or(SymmetricCompression(lang, f))
    assert out.evaluate((0b000, 0b010)) == out.evaluate((0b010, 0b000))


# -- evaluation input checks ---------------------------------------------------------


def _majority3():
    return SymmetricCompression(ToyLanguage(3, [1, 2]), SF.majority(3))


HIT_COUNT_EVALUATORS = {
    "or": lambda: noisy_or_compression(ToyLanguage(3, [1, 2]), 3, 0.25, 0.25, coin_bits=2),
    "symmetric": _majority3,
    "transformed-or": lambda: transform_to_relaxed_or(SymmetricCompression(ToyLanguage(3, [1, 2]), SF.from_bits("0111"))),
}


@pytest.mark.parametrize("name", sorted(HIT_COUNT_EVALUATORS))
def test_hit_count_evaluate_checks_its_input(name):
    # one check for every hit-count compression: a set past the arity and a
    # coin outside the coin strings both raise, with the same messages
    a = HIT_COUNT_EVALUATORS[name]()
    fits = tuple(range(a.arity))
    for coin in range(a.n_coins):
        assert a.evaluate(fits, coin) in (0, 1)
    with pytest.raises(ValueError, match=f"set of size {a.arity + 1} exceeds arity {a.arity}"):
        a.evaluate(range(a.arity + 1))
    for coin in (-1, a.n_coins, 9):
        with pytest.raises(ValueError, match=f"coin {coin} outside {a.n_coins} coin strings"):
            a.evaluate(fits, coin)
