"""Law-keyed selectors and audits against plain enumeration without memos.

The selector built by `selector_from_compression` and the audit's shared
queries look laws up by law key.  Here every tournament is built again with a
plain selector (reference enumeration plus statistical distance, no memo) and
with the default law keys of a compression seen through evaluate only, and
every audit is recomputed query by query; members, traces and reports must
match exactly.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from compresslab import (
    AuditReport,
    HypergraphTournament,
    SDQuery,
    SelectorUndefinedError,
    SetEncodedCompression,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    audit_language,
    enumerate_subset_law,
    exact_sd_oracle,
    greedy_dominating_set,
    ideal_or_compression,
    noisy_or_compression,
    pinsker_threshold,
    selector_from_compression,
    statistical_distance,
    transform_to_relaxed_or,
)

F = Fraction


class Opaque(SetEncodedCompression):
    """A compression seen through evaluate only, so it gets the default law keys."""

    def __init__(self, inner):
        super().__init__(inner.arity, inner.output_bits, inner.coin_bits, inner.e_s, inner.e_c)
        self.inner = inner

    def evaluate(self, x, coin=0):
        return self.inner.evaluate(x, coin)


def plain_tournament(a, vertices, k, delta):
    def selector(e):
        for v in e:
            rest = tuple(w for w in e if w != v)
            left = enumerate_subset_law(a, rest)
            right = enumerate_subset_law(a, rest, (v,))
            if statistical_distance(left, right) <= delta:
                return v
        raise SelectorUndefinedError(f"no element of {e!r} qualifies at {delta}")

    return HypergraphTournament(vertices, k, selector)


def plain_audit(language, a, t, Delta, delta):
    no_instances = language.no_instances()
    assert len(no_instances) > t, "the reference covers DOMSET advice only"
    dom = greedy_dominating_set(plain_tournament(a, no_instances, t, float(delta)))
    tags = {"yes": 0, "no": 0, "gap": 0}
    mismatches = []
    for v in language.universe():
        verdict = False
        if not any(v in g for g in dom.elements):
            batch = [
                SDQuery(enumerate_subset_law(a, g), enumerate_subset_law(a, g, (v,)), Delta, delta)
                for g in dom.elements
            ]
            for q in batch:
                tags[q.promise_tag.lower()] += 1
            verdict = all(exact_sd_oracle(q) for q in batch)
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
    return a.source_language, a, a.arity, 1, 0.5


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
    vertices = no_instances + language.yes_instances()[: t - 1]
    tournament = selector_from_compression(a, vertices, t, delta)
    keyed = greedy_dominating_set(tournament)
    plain = greedy_dominating_set(plain_tournament(a, vertices, t, delta))
    generic = greedy_dominating_set(selector_from_compression(Opaque(a), vertices, t, delta))
    assert keyed.elements == plain.elements == generic.elements
    assert keyed.trace == plain.trace == generic.trace
    assert any(tournament.select(e) != min(e) for e in combinations(tournament.vertices, t))


@pytest.mark.parametrize("case", sorted(CASES))
def test_law_key_audit_matches_plain_audit(case):
    language, a, t, Delta, delta = CASES[case]()
    report = audit_language(language, a, edge_size=t, Delta=Delta, delta=delta)
    assert report == plain_audit(language, a, t, Delta, delta)
    assert report.agreement == 1.0
