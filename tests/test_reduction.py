"""Promise gaps, SD queries, advice construction, decisions, and exhaustive audits."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from compresslab import (
    Advice,
    BlockCompression,
    FiniteDistribution,
    PromiseGap,
    SDQuery,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    audit_language,
    build_advice,
    decide,
    exact_sd_oracle,
    ideal_or_compression,
    noisy_or_compression,
    selector_from_compression,
    statistical_distance,
    transform_to_relaxed_or,
)
from compresslab import compression as compression_module
from compresslab import reduction
from compresslab.compression import one_class
from compresslab.reduction import promise_gap, queries_for
from reference_routes import threshold_oracle

F = Fraction


def _bern(p):
    return FiniteDistribution(["0", "1"], [1 - F(p), F(p)])


# -- promise gaps, SD queries and the oracle ----------------------------------


def test_promise_gap_must_be_non_empty():
    # the one place that checks the gap: delta >= Delta, Delta > 1, delta < 0
    # and NaN bounds all leave it empty, whether given or filled in
    a = ideal_or_compression(ToyLanguage(3, {0b111}), 4)
    nan = float("nan")
    for Delta, delta in ((0.5, 0.5), (0.5, 0.6), (1.5, 0.1), (1, -0.1), (nan, 0.1), (1, nan), (nan, nan)):
        with pytest.raises(ValueError, match="empty promise gap"):
            PromiseGap(Delta, delta)
        with pytest.raises(ValueError, match="empty promise gap"):
            promise_gap(a, 4, Delta, delta)
    # the defaults at t = 1: the ceiling sqrt(2 ln 2) is above Delta = 1
    with pytest.raises(ValueError, match="empty promise gap"):
        promise_gap(a, 1)
    gap = promise_gap(a, 4)
    assert gap == PromiseGap(1, math.sqrt(2 * math.log(2) / 4))
    assert promise_gap(a, 4, Delta=F(3, 4), delta=0) == PromiseGap(F(3, 4), 0)


def test_query_promise_tags():
    gap = PromiseGap(1, F(1, 2))
    q = SDQuery(FiniteDistribution.point("0"), FiniteDistribution.point("1"), gap)
    assert q.distance == 1 and q.promise_tag == "YES"
    q = SDQuery(FiniteDistribution.point("0"), FiniteDistribution.point("0"), gap)
    assert q.promise_tag == "NO"
    q = SDQuery(_bern(F(1, 8)), _bern(F(7, 8)), gap)
    assert q.distance == F(3, 4) and q.promise_tag == "GAP"


def test_exact_oracle_thresholds():
    zero, one = FiniteDistribution.point("0"), FiniteDistribution.point("1")
    assert exact_sd_oracle(SDQuery(zero, one, PromiseGap(1, 0.5)))
    assert not exact_sd_oracle(SDQuery(zero, zero, PromiseGap(1, 0.5)))
    # distance exactly at the midpoint: ties go up
    q = SDQuery(_bern(F(1, 4)), _bern(F(3, 4)), PromiseGap(1, 0))
    assert q.distance == F(1, 2) == q.gap.midpoint
    assert exact_sd_oracle(q)


def test_exact_oracle_at_a_float_midpoint():
    # Fraction + float bounds give a float midpoint, held once per gap as
    # the exact Fraction of that float; distances at exactly that value
    # (affirmed: ties go up), just below and above it, and near it, each get
    # the verdict of the comparison with the float
    point = FiniteDistribution.point("0")
    for Delta, delta in ((F(3, 4), 0.25), (1, 0.1), (F(2, 3), 0.2943)):
        mid = (Delta + delta) / 2
        assert isinstance(mid, float)
        gap = PromiseGap(Delta, delta)
        assert gap.midpoint == F(mid) and gap.midpoint is gap.midpoint
        for d in (F(mid), F(mid) - F(1, 2**80), F(mid) + F(1, 2**80), F(mid).limit_denominator(100)):
            q = SDQuery(_bern(d), point, gap)
            assert q.distance == d
            assert exact_sd_oracle(q) == (d >= mid) == (d >= F(mid))


# -- advice ---------------------------------------------------------------------


def test_advice_full_v_when_few_no_instances():
    lang = ToyLanguage(3, {0b000, 0b001, 0b010, 0b011, 0b100})
    a = ideal_or_compression(lang, 4)
    advice = build_advice(lang, a)
    assert advice.mode == "FULL_V" and advice.dominating is None
    assert advice.vertices == tuple(lang.no_instances().tolist())
    assert advice.size == 3
    assert advice.rejected == set(advice.vertices) and advice.elements == ()


def test_advice_domset_single_yes():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    advice = build_advice(lang, a)
    assert advice.mode == "DOMSET" and advice.vertices == ()
    assert advice.size == advice.dominating.size == len(advice.elements) <= 3 * 2 * 3


def test_advice_empty_language():
    lang = ToyLanguage(3, set())
    a = ideal_or_compression(lang, 4)
    advice = build_advice(lang, a)
    assert advice.mode == "DOMSET"
    report = audit_language(lang, a)
    assert report.agreement == 1.0
    assert (report.advice_mode, report.advice_size) == (advice.mode, advice.size)


def test_advice_mode_is_read_from_its_contents():
    # no stored mode: DOMSET exactly when a dominating set is present, so
    # no DOMSET advice without one can be built
    assert [f.name for f in dataclasses.fields(Advice)] == ["n", "gap", "compression", "vertices", "dominating"]
    gap = PromiseGap(1, 0.5)
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    empty = Advice(3, gap, a)
    assert (empty.mode, empty.size, empty.elements, empty.rejected) == ("FULL_V", 0, (), frozenset())
    listed = Advice(3, gap, a, vertices=(1, 4))
    assert (listed.mode, listed.size, listed.rejected) == ("FULL_V", 2, {1, 4})
    built = build_advice(lang, a, gap=gap)
    assert built.gap is gap and built.compression is a
    assert "compression" not in repr(built) and "query_memo" not in repr(built)
    dominating = Advice(3, gap, a, dominating=built.dominating)
    assert dominating == built and dominating.mode == "DOMSET"
    assert dominating.rejected == {v for g in built.elements for v in g}


# -- decisions --------------------------------------------------------------------


def test_decide_single_yes_language():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    advice = build_advice(lang, a)
    assert decide(0b111, advice)[0]
    assert not decide(0b000, advice)[0]
    # every query for the yes-instance is at full distance
    for q in queries_for(0b111, advice):
        assert q.distance == 1


def test_decide_rejects_member_without_oracle_calls():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    advice = build_advice(lang, a)
    inside = advice.elements[0][0]
    calls = []

    def counting_oracle(q):
        calls.append(q)
        return True

    assert decide(inside, advice, oracle=counting_oracle) == (False, [])
    assert calls == []


def test_decide_full_v_mode():
    lang = ToyLanguage(2, {0b00, 0b01, 0b10})
    a = ideal_or_compression(lang, 4)
    advice = build_advice(lang, a)
    assert advice.mode == "FULL_V"
    assert decide(0b11, advice) == (False, [])
    assert decide(0b00, advice) == (True, [])


def test_full_v_advice_cannot_carry_an_empty_promise_gap():
    # FULL_V advice asks no query, so no query could catch an empty gap;
    # the gap is checked when it is built, before any advice exists
    lang = ToyLanguage(2, {0b11})
    a = ideal_or_compression(lang, 4)
    assert build_advice(lang, a).mode == "FULL_V"
    for Delta, delta in ((0.3, 0.5), (1, 1.5), (1, -0.5)):
        with pytest.raises(ValueError, match="empty promise gap"):
            build_advice(lang, a, gap=promise_gap(a, 4, Delta, delta))


def test_decide_length_mismatch():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    advice = build_advice(lang, a)
    with pytest.raises(ValueError, match="length"):
        decide(0b1000, advice)


def test_query_batch_is_oracle_independent():
    lang = ToyLanguage(3, {0b101})
    a = ideal_or_compression(lang, 4)
    advice = build_advice(lang, a)
    for v in range(2**lang.n):
        if any(v in g for g in advice.elements):
            continue
        first = queries_for(v, advice)
        second = queries_for(v, advice)
        assert first == second
        assert decide(v, advice, oracle=lambda q: True)[1] == first
        assert decide(v, advice, oracle=lambda q: False)[1] == first
        assert queries_for(v, advice) == first


def test_one_class_shares_its_query_objects_across_decisions():
    # the advice holds one query memo: two no-instances of one hit class
    # outside the advice ask equal queries, and get the same objects, so
    # each distinct distance is measured once per advice
    language, a, k, gap = HIT_COUNT_ADVICE["ideal-or-n6-t2"]()
    advice = build_advice(language, a, k, gap)
    outside = [v for v in language.no_instances().tolist() if v not in advice.rejected]
    first, second = (decide(v, advice)[1] for v in outside[:2])
    assert first and len(first) == len(second)
    assert all(p is q for p, q in zip(first, second))


# -- correctness invariants ---------------------------------------------------------


def test_yes_sensitivity_over_built_advice():
    rng = np.random.default_rng(51)
    for n in (3, 4):
        for _ in range(5):
            lang = ToyLanguage.random(n, seed=int(rng.integers(0, 2**31)))
            if not len(lang.yes_instances()) or len(lang.no_instances()) <= 4:
                continue
            a = noisy_or_compression(lang, 4, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
            advice = build_advice(lang, a)
            floor = 1 - (a.e_s + a.e_c)
            for g in advice.elements:
                for v in lang.yes_instances():
                    d = statistical_distance(
                        a.subset_output_distribution(g),
                        a.subset_output_distribution(g, forced=(v,)),
                    )
                    assert d >= floor


def test_domination_soundness_over_built_advice():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 3)
    delta = 0.5
    advice = build_advice(lang, a, gap=PromiseGap(1, delta))
    for v in lang.no_instances():
        if any(v in g for g in advice.elements):
            continue
        distances = [q.distance for q in queries_for(v, advice)]
        assert any(d <= delta for d in distances)
    # block advice: whenever g + (v,) selects v, the query for (g, v) is on the NO side
    parity = ToyLanguage(5, [v for v in range(32) if bin(v).count("1") % 2])
    for lang, t, block_size, delta in (
        (ToyLanguage(3, {0b111}), 2, 2, 0.5),
        (ToyLanguage.random(5, seed=7), 3, 2, 0.3),
        (parity, 2, 3, 0.5),
    ):
        b = BlockCompression(ideal_or_compression(lang, t), block_size)
        advice = build_advice(lang, b, t * block_size, PromiseGap(1, delta))
        assert advice.mode == "DOMSET"
        tournament = selector_from_compression(b, lang.no_instances(), t * block_size, delta, lang.n)
        selected = 0
        for v in lang.no_instances().tolist():
            if v in advice.rejected:
                continue
            for g, q in zip(advice.elements, queries_for(v, advice)):
                edge = [format(w, f"0{lang.n}b") for w in g + (v,)]
                if tournament.select(edge) == edge[-1]:
                    selected += 1
                    assert q.promise_tag == "NO", (g, v)
        assert selected


def test_oracle_policy_independence():
    lang = ToyLanguage(3, {0b011, 0b111})
    a = ideal_or_compression(lang, 4)
    advice = build_advice(lang, a, gap=PromiseGap(1, 0.5))
    baseline = {v: decide(v, advice)[0] for v in range(2**lang.n)}
    for theta in (0.50001, 0.6, 0.75, 0.9, 1.0):
        oracle = threshold_oracle(theta)
        for v in range(2**lang.n):
            assert decide(v, advice, oracle=oracle)[0] == baseline[v]


# -- audits -----------------------------------------------------------------------


def test_audit_examples():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 4)
    report = audit_language(lang, a)
    assert report.agreement == 1.0
    assert report.query_tags["gap"] == 0
    assert report.mismatches == ()


def test_audit_noisy_within_budget():
    lang = ToyLanguage.random(5, seed=77, density=0.3)
    a = noisy_or_compression(lang, 16, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
    report = audit_language(lang, a)
    assert report.agreement == 1.0


@pytest.mark.parametrize(
    "make",
    [
        lambda lang: (ideal_or_compression(lang, 4), {}),
        lambda lang: (noisy_or_compression(lang, 4, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3), {}),
        lambda lang: (ideal_or_compression(lang, 2), {"block_size": 2, "delta": 0.5}),
    ],
    ids=["ideal-or", "noisy-or", "block"],
)
def test_audit_builds_one_batch_per_hit_class(monkeypatch, make):
    lang = ToyLanguage.random(5, seed=11)
    a, options = make(lang)
    batches = []

    def counting(v, *args, **kwargs):
        batches.append(v)
        return queries_for(v, *args, **kwargs)

    monkeypatch.setattr(reduction, "queries_for", counting)
    report = audit_language(lang, a, **options)
    assert report.advice_mode == "DOMSET" and report.agreement == 1.0
    assert sorted(lang.is_yes(v) for v in batches) == [False, True]
    assert sum(report.query_tags.values()) > 2 * report.advice_size


def _or_advice(n, seed, t, noise=None):
    lang = ToyLanguage.random(n, seed=seed)
    if noise is None:
        return lang, ideal_or_compression(lang, t), t, None
    return lang, noisy_or_compression(lang, t, e_s=noise, e_c=noise, coin_bits=3), t, None


def _transformed_advice(bits, seed):
    a = transform_to_relaxed_or(SymmetricCompression(ToyLanguage.random(6, seed=seed), SymmetricFunction.from_bits(bits)))
    return a.hit_language, a, a.arity, PromiseGap(1, 0.5)


def _block_advice(n, seed, t, block_size):
    lang = ToyLanguage.random(n, seed=seed)
    return lang, BlockCompression(ideal_or_compression(lang, t), block_size), t * block_size, PromiseGap(1, 0.5)


# (language, compression, edge size k, gap or None); the noisy-or audits at
# n = 10 and 11 and the ideal-or audit at n = 12 are the golden shapes whose
# greedy once sampled
HIT_COUNT_ADVICE = {
    "ideal-or-n6-t2": lambda: _or_advice(6, 1, 2),
    "ideal-or-n12-t4": lambda: _or_advice(12, 3, 4),
    "noisy-or-n10-t16": lambda: _or_advice(10, 1, 16, F(1, 8)),
    "noisy-or-n11-t16": lambda: _or_advice(11, 3, 16, F(1, 8)),
    "transformed-0111": lambda: _transformed_advice("0111", 2),
    "transformed-0011": lambda: _transformed_advice("0011", 5),
    "block-n7-t2-sigma2": lambda: _block_advice(7, 1, 2, 2),
    "block-n10-t3-sigma2": lambda: _block_advice(10, 4, 3, 2),
    "block-n9-t2-sigma3": lambda: _block_advice(9, 2, 2, 3),
}


@pytest.mark.parametrize("name", sorted(HIT_COUNT_ADVICE))
def test_hit_count_advice_has_one_member(name):
    # the first-vertex tournament on more than k no-instances: its greedy
    # takes the last k-1 of them, which dominate the rest, at any size
    language, a, k, gap = HIT_COUNT_ADVICE[name]()
    no = language.no_instances()
    assert len(no) > k
    advice = build_advice(language, a, k, gap)
    assert advice.mode == "DOMSET" and advice.size == 1
    assert advice.elements == (tuple(no[len(no) - (k - 1) :].tolist()),)
    assert advice.dominating.trace == (len(no), 0)


def test_audit_formats_no_vertex_string(monkeypatch):
    # the advice, the decisions and the comparison with the membership
    # table all work on ids; an agreeing audit writes no n-bit string
    n = 5
    lang = ToyLanguage.random(n, seed=3)
    a = ideal_or_compression(lang, 3)
    formatted = []

    def counting_format(value, spec=""):
        if spec == f"0{n}b":
            formatted.append(value)
        return format(value, spec)

    monkeypatch.setattr(compression_module, "format", counting_format, raising=False)
    report = audit_language(lang, a)
    assert report.agreement == 1.0 and report.advice_mode == "DOMSET"
    assert formatted == []


AUDIT_LANGUAGES = {
    "random": lambda n: ToyLanguage.random(n, seed=5),
    "empty": lambda n: ToyLanguage(n, ()),
    "full": lambda n: ToyLanguage(n, range(2**n)),
    "single-yes": lambda n: ToyLanguage(n, {2**n - 1}),
}


def _ideal_audit(language):
    a = ideal_or_compression(language, 4)
    return language, a, 4, promise_gap(a, 4)


def _noisy_audit(language):
    a = noisy_or_compression(language, 3, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
    return language, a, 3, promise_gap(a, 3)


def _transformed_audit(language):
    # the OR-like 0111 has a pivot-0 view, which needs no pool of yes-instances
    a = transform_to_relaxed_or(SymmetricCompression(language, SymmetricFunction.from_bits("0111")))
    return a.hit_language, a, a.arity, PromiseGap(1, F(1, 2))


def _block_audit(language):
    # blocks of 2 over a hit-count base: edges of 4 ids, two blocks each
    return language, BlockCompression(ideal_or_compression(language, 2), 2), 4, PromiseGap(1, F(1, 2))


AUDIT_COMPRESSIONS = {
    "ideal-or": _ideal_audit,
    "noisy-or": _noisy_audit,
    "transformed-or": _transformed_audit,
    "block": _block_audit,
}


def _audit_by_input(language, b, k, gap, answer):
    """audit_language's report on b, and the advice, mode, size, tags and
    mismatches of a per-input decide loop; a block audit wraps its base
    compression itself."""
    a, block_size = (b.base, b.block_size) if isinstance(b, BlockCompression) else (b, None)
    t = k if block_size is None else k // block_size
    report = audit_language(
        language, a, edge_size=t, Delta=gap.Delta, delta=gap.delta, block_size=block_size, oracle=answer
    )
    advice = build_advice(language, b, k, gap)
    tags = {"yes": 0, "no": 0, "gap": 0}
    mismatches = []
    for v in range(2**language.n):
        verdict, batch = decide(v, advice, answer)
        for q in batch:
            tags[q.promise_tag.lower()] += 1
        if verdict != language.is_yes(v):
            mismatches.append(v)
    return report, advice, tags, tuple(mismatches)


@pytest.mark.parametrize("oracle", ["exact", "always-true"])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("language_name", sorted(AUDIT_LANGUAGES))
@pytest.mark.parametrize("compression_name", sorted(AUDIT_COMPRESSIONS))
def test_grouped_audit_equals_a_per_input_decision_loop(compression_name, language_name, n, oracle):
    # n = 2 leaves at most t no-instances (FULL_V advice) for the t = 4 audits;
    # an oracle that affirms every query misjudges each accepted no-instance
    language, a, t, gap = AUDIT_COMPRESSIONS[compression_name](AUDIT_LANGUAGES[language_name](n))
    answer = exact_sd_oracle if oracle == "exact" else (lambda q: True)
    report, advice, tags, mismatches = _audit_by_input(language, a, t, gap, answer)
    assert (report.advice_mode, report.advice_size) == (advice.mode, advice.size)
    assert report.query_tags == tags
    assert report.mismatches == mismatches
    assert report.agreement == 1 - len(mismatches) / 2**n
    if oracle == "exact":
        assert not mismatches


def test_audit_with_a_member_of_both_classes_decides_each_input():
    # the audited language is not the compression's hit language, so the
    # advice holds a member of both hit bits; in blocks, where v falls among
    # its ids then sets the keys, and grouping inputs by hit bit would
    # report agreement 0.5 with 4 mismatches
    language = ToyLanguage.random(3, seed=0)
    b = BlockCompression(ideal_or_compression(ToyLanguage.random(3, seed=18), 2), 2)
    report, advice, tags, mismatches = _audit_by_input(language, b, 4, PromiseGap(1, 0.5), exact_sd_oracle)
    assert not all(one_class(b.forced_class(), g) for g in advice.elements)
    assert (report.advice_mode, report.advice_size, report.query_tags) == (advice.mode, advice.size, tags)
    assert report.mismatches == mismatches == (0b010, 0b011)
    assert report.agreement == 0.75


def test_audit_rejects_empty_promise_gap():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 4)
    with pytest.raises(ValueError, match="empty promise gap"):
        audit_language(lang, a, Delta=0.5, delta=0.6)


def test_audit_all_yes_language():
    lang = ToyLanguage(3, range(8))
    a = ideal_or_compression(lang, 4)
    report = audit_language(lang, a)
    assert report.advice_mode == "FULL_V" and report.advice_size == 0
    assert report.agreement == 1.0


# -- block variant ------------------------------------------------------------------


def test_block_advice_requires_deterministic_compression():
    lang = ToyLanguage(3, {0b111})
    noisy = noisy_or_compression(lang, 2, e_s=F(1, 4), e_c=0, coin_bits=2)
    with pytest.raises(ValueError, match="deterministic"):
        build_advice(lang, BlockCompression(noisy, 2), 4, PromiseGap(F(3, 4), 0.5))


def test_block_compression_needs_blocks_of_two():
    # checked when the compression is built, not only when a selector
    # partitions an edge: a language with no edge to partition is rejected too
    a = ideal_or_compression(ToyLanguage(2, range(4)), 2)
    for block_size in (1, 0):
        with pytest.raises(ValueError, match="blocks need at least two elements"):
            BlockCompression(a, block_size)


def test_block_decide_micro():
    lang = ToyLanguage(3, {0b111})
    a = BlockCompression(ideal_or_compression(lang, 2), 2)
    advice = build_advice(lang, a, 4, PromiseGap(1, 0.5))
    assert advice.mode == "DOMSET"
    assert decide(0b111, advice)[0]
    for v in lang.no_instances():
        assert not decide(v, advice)[0]
    # members reject without oracle calls
    inside = advice.elements[0][0]
    calls = []
    assert decide(inside, advice, oracle=lambda q: calls.append(q) or True) == (False, [])
    assert calls == []


def test_block_audit_micro():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 2)
    report = audit_language(lang, a, block_size=2, delta=0.5)
    assert report.agreement == 1.0
    assert report.Delta == 1.0  # 1 - (e_s + e_c) for an exact compression
    report2 = audit_language(lang, a, block_size=2, delta=0.5)
    assert report.query_tags == report2.query_tags


def test_block_audit_needs_explicit_delta():
    lang = ToyLanguage(3, {0b111})
    a = ideal_or_compression(lang, 2)
    with pytest.raises(ValueError, match="delta"):
        audit_language(lang, a, block_size=2)


def test_block_queries_oracle_independent():
    lang = ToyLanguage(3, {0b111})
    a = BlockCompression(ideal_or_compression(lang, 2), 2)
    advice = build_advice(lang, a, 4, PromiseGap(1, 0.5))
    v = 0b111
    assert queries_for(v, advice) == queries_for(v, advice)


def test_block_batch_carries_the_callers_Delta():
    lang = ToyLanguage(3, {0b111})
    a = BlockCompression(ideal_or_compression(lang, 2), 2)
    advice = build_advice(lang, a, 4, PromiseGap(0.6, 0.5))
    outside = [v for v in range(2**lang.n) if v not in advice.rejected]
    assert outside
    for v in outside:
        _, batch = decide(v, advice)
        assert batch and all(q.gap is advice.gap and q.gap.Delta == 0.6 for q in batch)
        assert all(q.gap.Delta == 0.6 for q in queries_for(v, advice))


@pytest.mark.parametrize("name", ["ideal-or-n6-t2", "noisy-or-n10-t16", "transformed-0111", "block-n7-t2-sigma2"])
def test_every_query_carries_the_advice_gap(monkeypatch, name):
    # no decision is asked at a gap its advice was not built at: from decide
    # on advice built directly, and from the audit on the advice it builds
    language, b, k, gap = HIT_COUNT_ADVICE[name]()
    gap = promise_gap(b, k) if gap is None else gap
    advice = build_advice(language, b, k, gap)
    assert advice.gap is gap and advice.mode == "DOMSET"
    batches = [decide(v, advice)[1] for v in range(2**language.n)]
    assert any(batches)
    assert all(q.gap is gap for batch in batches for q in batch)
    seen = []

    def recording(v, advice):
        batch = queries_for(v, advice)
        seen.append((advice.gap, batch))
        return batch

    monkeypatch.setattr(reduction, "queries_for", recording)
    # a block audit wraps its base compression itself
    a, block_size = (b.base, b.block_size) if isinstance(b, BlockCompression) else (b, None)
    t = k if block_size is None else k // block_size
    report = audit_language(language, a, edge_size=t, Delta=gap.Delta, delta=gap.delta, block_size=block_size)
    assert report.agreement == 1.0 and (report.Delta, report.delta) == (float(gap.Delta), float(gap.delta))
    assert any(batch for _, batch in seen)
    assert all(advice_gap == gap and q.gap is advice_gap for advice_gap, batch in seen for q in batch)
