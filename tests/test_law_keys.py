"""Law-keyed selectors and audits against plain enumeration without memos.

The selector built by `selector_from_compression` and the audit's shared
queries look laws up by law key.  Here every tournament is built again with a
plain selector (reference enumeration plus statistical distance, no memo) and
with the default law keys of a compression seen through evaluate only, and
every audit is recomputed query by query, input by input, also under
deliberately wrong oracles; members, traces and reports must match exactly.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from compresslab import (
    AuditReport,
    BlockCompression,
    HypergraphTournament,
    PromiseGap,
    SDQuery,
    SelectorUndefinedError,
    SetEncodedCompression,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    audit_language,
    enumerate_law,
    exact_sd_oracle,
    greedy_dominating_set,
    ideal_or_compression,
    noisy_or_compression,
    pinsker_threshold,
    selector_from_compression,
    statistical_distance,
    subset_pools,
    transform_to_relaxed_or,
)
from compresslab.compression import one_class
from reference_routes import threshold_oracle

F = Fraction


class Opaque(SetEncodedCompression):
    """A compression seen through evaluate only, so it gets the default law keys."""

    def __init__(self, inner):
        super().__init__(inner.arity, inner.output_bits, inner.coin_bits, inner.e_s, inner.e_c)
        self.inner = inner

    def evaluate(self, x, coin=0):
        return self.inner.evaluate(x, coin)


def plain_tournament(a, vertices, k, delta, vertex_bits):
    def selector(e):
        for v in e:
            rest = tuple(w for w in e if w != v)
            left = enumerate_law(a, subset_pools(rest))
            right = enumerate_law(a, subset_pools(rest, (v,)))
            if statistical_distance(left, right) <= delta:
                return v
        raise SelectorUndefinedError(f"no element of {e!r} qualifies at {delta}")

    return HypergraphTournament(vertices, k, selector, vertex_bits)


def plain_audit(language, a, t, Delta, delta, oracle=exact_sd_oracle):
    no_instances = language.no_instances()
    assert len(no_instances) > t, "the reference covers DOMSET advice only"
    gap = PromiseGap(Delta, delta)
    dom = greedy_dominating_set(plain_tournament(a, no_instances, t, delta, language.n))
    tags = {"yes": 0, "no": 0, "gap": 0}
    mismatches = []
    for v in range(2**language.n):
        verdict = False
        if not any(v in g for g in dom.elements):
            batch = [
                SDQuery(enumerate_law(a, subset_pools(g)), enumerate_law(a, subset_pools(g, (v,))), gap)
                for g in dom.elements
            ]
            for q in batch:
                tags[q.promise_tag.lower()] += 1
            verdict = all(oracle(q) for q in batch)
        if verdict != language.is_yes(v):
            mismatches.append(v)
    total = 2**language.n
    return AuditReport(
        n=language.n,
        t=t,
        mode="base",
        agreement=(total - len(mismatches)) / total,
        advice_size=dom.size,
        advice_mode="DOMSET",
        query_tags=tags,
        Delta=float(Delta),
        delta=float(delta),
        mismatches=tuple(mismatches),
    )


def _ideal(seed):
    lang = ToyLanguage.random(5, seed=seed)
    t = 4
    return lang, ideal_or_compression(lang, t), t, 1, pinsker_threshold(1, t)


def _noisy(seed):
    lang = ToyLanguage.random(4, seed=seed)
    t = 3
    a = noisy_or_compression(lang, t, F(1, 8), F(1, 8), coin_bits=3)
    return lang, a, t, 1 - (a.e_s + a.e_c), pinsker_threshold(1, t)


def _transformed(bits, seed):
    base = SymmetricCompression(ToyLanguage.random(5, seed=seed), SymmetricFunction.from_bits(bits))
    a = transform_to_relaxed_or(base)
    return a.hit_language, a, a.arity, 1, 0.5


# pivot-0 and pivot-1 views of OR-, AND- and parity-like functions
CASES = {
    "ideal-or-s3": lambda: _ideal(3),
    "ideal-or-s8": lambda: _ideal(8),
    "noisy-or-s1": lambda: _noisy(1),
    "noisy-or-s6": lambda: _noisy(6),
    "transformed-0111": lambda: _transformed("0111", 2),
    "transformed-00001": lambda: _transformed("00001", 4),
    "transformed-0011": lambda: _transformed("0011", 5),
    "transformed-01010": lambda: _transformed("01010", 7),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_law_key_selector_matches_plain_selector(case):
    language, a, t, _, delta = CASES[case]()
    # the no-instances plus t-1 yes-instances: every edge still holds a
    # no-instance, so both selectors are defined, and edges with yes-instances
    # make selections other than the least element
    no_instances = language.no_instances()
    vertices = np.concatenate([no_instances, language.yes_instances()[: t - 1]])
    tournament = selector_from_compression(a, vertices, t, delta, language.n)
    keyed = greedy_dominating_set(tournament)
    plain = greedy_dominating_set(plain_tournament(a, vertices, t, delta, language.n))
    generic = greedy_dominating_set(selector_from_compression(Opaque(a), vertices, t, delta, language.n))
    assert keyed.elements == plain.elements == generic.elements
    assert keyed.trace == plain.trace == generic.trace
    assert any(tournament.select(e) != min(e) for e in combinations(tournament.vertices, t))


@pytest.mark.parametrize("case", sorted(CASES))
def test_law_key_audit_matches_plain_audit(case):
    language, a, t, Delta, delta = CASES[case]()
    report = audit_language(language, a, edge_size=t, Delta=Delta, delta=delta)
    assert report == plain_audit(language, a, t, Delta, delta)
    assert report.agreement == 1.0
    # default law keys put every input in a class of its own
    assert audit_language(language, Opaque(a), edge_size=t, Delta=Delta, delta=delta) == report


def test_full_v_audit_with_default_keys_equals_hit_count_keys():
    # at most t no-instances: the advice lists them, and every other input is
    # accepted on an empty batch, grouped by hit bit or each in its own class
    language = ToyLanguage(3, range(5))
    a = ideal_or_compression(language, 4)
    report = audit_language(language, a)
    assert report.advice_mode == "FULL_V" and report.agreement == 1.0
    assert audit_language(language, Opaque(a)) == report


@pytest.mark.parametrize("case", sorted(CASES))
def test_forced_class_determines_the_forced_law_key(case):
    language, a, t, _, _ = CASES[case]()
    universe = range(2**language.n)
    classes = a.forced_class().tolist()
    for g in combinations(universe[: t + 1], t - 1):
        keys = {}
        for v in universe:
            if v not in g:
                keys.setdefault(classes[v], set()).add(a.law_key(subset_pools(g, (v,))))
        assert all(len(found) == 1 for found in keys.values())


def _pool_compressions():
    lang = ToyLanguage.random(4, seed=3)
    return {
        "ideal-or": ideal_or_compression(lang, 3),
        "noisy-or": noisy_or_compression(lang, 3, F(1, 8), F(1, 4), coin_bits=3),
        "symmetric": SymmetricCompression(lang, SymmetricFunction.from_bits("0110")),
        "transformed": transform_to_relaxed_or(SymmetricCompression(lang, SymmetricFunction.from_bits("00101"))),
    }


@pytest.mark.parametrize("kind", ["ideal-or", "noisy-or", "symmetric", "transformed"])
def test_pool_law_keys_match_enumerated_laws(kind):
    # disjoint pools of ids, some with None, up to the arity: the keyed law
    # against every pick and coin enumerated
    a = _pool_compressions()[kind]
    hit = a.hit_language.member
    rng = np.random.default_rng(11)
    with_hit = without_hit = 0
    for _ in range(40):
        ids = rng.permutation(hit.size).tolist()
        pools = []
        for _ in range(rng.integers(0, a.arity + 1)):
            pool = [ids.pop() for _ in range(rng.integers(0, 4))]
            if not pool or rng.random() < 0.5:
                pool.append(None)
            pools.append(tuple(pool))
            if any(hit[w] for w in pool if w is not None):
                with_hit += 1
            else:
                without_hit += 1
        assert a.law(a.law_key(pools)) == enumerate_law(a, pools), pools
    assert with_hit and without_hit


@pytest.mark.parametrize("default_keys", [False, True])
def test_block_compression_laws_live_in_the_base_memo(default_keys):
    a = ideal_or_compression(ToyLanguage(4, {0b0001, 0b0110, 0b0111}), 3)
    a = Opaque(a) if default_keys else a
    b = BlockCompression(a, 2)
    for g, v in (((0, 1, 6), 7), ((2, 3, 4), 5), ((0, 1, 6, 7, 8), 9)):
        for k in b.conditioned_keys(g, v):
            assert b.law(k) is a.law(k)


@pytest.mark.parametrize("default_keys", [False, True])
def test_block_compression_reads_its_base_classes(default_keys):
    a = ideal_or_compression(ToyLanguage(4, {0b0001, 0b0110, 0b0111}), 3)
    a = Opaque(a) if default_keys else a
    assert BlockCompression(a, 2).forced_class() is a.forced_class()


def test_block_keys_of_one_class_members_read_the_classes_alone():
    # the conditioned_keys contract for blocks over a hit-count base: for g of
    # one class, the keys depend only on |g|, g's class and v's class
    b = BlockCompression(ideal_or_compression(ToyLanguage.random(4, seed=3), 2), 2)
    classes = b.forced_class()
    keys = {}
    for g in combinations(range(16), 3):
        if one_class(classes, g):
            for v in sorted(set(range(16)) - set(g)):
                keys.setdefault((bool(classes[g[0]]), bool(classes[v])), set()).add(b.conditioned_keys(g, v))
    assert len(keys) == 4 and all(len(found) == 1 for found in keys.values())


# wrong on purpose: the first accepts every no-instance outside the advice,
# the second rejects every one-yes distance of 1 - (e_s + e_c)
WRONG_ORACLES = {
    "always-true": lambda Delta: (lambda q: True),
    "above-Delta": lambda Delta: threshold_oracle(Delta + Fraction(1, 16)),
}


@pytest.mark.parametrize("oracle", sorted(WRONG_ORACLES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_grouped_audit_matches_per_input_loop_under_wrong_oracles(case, oracle):
    language, a, t, Delta, delta = CASES[case]()
    wrong = WRONG_ORACLES[oracle](Delta)
    report = audit_language(language, a, edge_size=t, Delta=Delta, delta=delta, oracle=wrong)
    reference = plain_audit(language, a, t, Delta, delta, oracle=wrong)
    assert report.mismatches, "a wrong oracle must cost agreement"
    assert (report.agreement, report.query_tags, report.mismatches) == (
        reference.agreement,
        reference.query_tags,
        reference.mismatches,
    )


@pytest.mark.parametrize(
    "language, t, block_size, delta",
    [
        (ToyLanguage(3, {0b111}), 2, 2, 0.5),
        (ToyLanguage.random(5, seed=7), 3, 2, 0.3),
        (ToyLanguage(5, [v for v in range(32) if bin(v).count("1") % 2]), 2, 3, 0.5),
    ],
    ids=["single-yes-n3", "random-n5-t3", "parity-n5-sigma3"],
)
def test_block_audit_with_profile_keys_equals_pool_keys(language, t, block_size, delta):
    # hit-count laws keyed by the (size, hits) profile of the pools with a
    # hit and computed in closed form, against pools as keys and every pick
    # enumerated
    a = ideal_or_compression(language, t)
    report = audit_language(language, a, block_size=block_size, delta=delta)
    assert report == audit_language(language, Opaque(a), block_size=block_size, delta=delta)
    assert report.mode == "tlogt" and report.agreement == 1.0
