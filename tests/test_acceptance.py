"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; the inequality checks use 1e-9 slack for
quantities whose right side involves a logarithm, and exact rational
comparison everywhere else.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from compresslab import (
    CompressiveMap,
    SymmetricCompression,
    SymmetricFunction,
    ToyLanguage,
    audit_language,
    build_advice,
    find_pivot_view,
    greedy_dominating_set,
    ideal_or_compression,
    noisy_or_compression,
    random_tournament,
    selector_from_compression,
    statistical_distance,
    transform_to_relaxed_or,
    verify_domination,
    verify_pinsker_sensitivity,
    verify_vajda_sensitivity,
)
from conftest import random_exact_distribution
from reference_routes import avg_noise_sensitivity, dictator, kl_divergence, kl_sensitivity, push_forward, xor

F = Fraction
TOL = 1e-9


class _Criterion:
    def __init__(self, number, name, limit_seconds):
        self.number = number
        self.name = name
        self.limit = limit_seconds
        self.start = time.monotonic()

    def finish(self, ok, detail=""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.name}]: {status} "
              f"({elapsed:.1f}s / limit {self.limit}s) {detail}")
        assert ok, f"criterion {self.number} ({self.name}): {detail}"
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_criterion_1_noise_sensitivity_bound():
    crit = _Criterion(1, "noise-sensitivity ceiling", 60)
    rng = np.random.default_rng(101)
    seen = set()
    min_slack = math.inf
    for i in range(1000):
        t = int(rng.integers(4, 13))
        m = int(rng.integers(1, 5))
        r = int(rng.choice([0, 2]))
        seen.add((t, m, r))
        f = CompressiveMap.random(t, m, r, np.random.SeedSequence([101, i]))
        rep = verify_pinsker_sensitivity(f)
        min_slack = min(min_slack, rep.slack)
    grid_covered = (
        {t for t, _, _ in seen} == set(range(4, 13))
        and {m for _, m, _ in seen} == {1, 2, 3, 4}
        and {r for _, _, r in seen} == {0, 2}
    )
    spot = verify_pinsker_sensitivity(dictator(4))
    spot_ok = spot.lhs == 0.25 and abs(spot.rhs - 0.5887050112577373) < 1e-12
    xor_ok = avg_noise_sensitivity(xor(4)) == 0
    crit.finish(
        min_slack >= -TOL and grid_covered and spot_ok and xor_ok,
        f"1000 maps, min slack {min_slack:.6f}",
    )


def test_criterion_2_kl_vs_information_bound():
    crit = _Criterion(2, "divergence vs information", 30)
    worst = -math.inf
    count = 0
    # exhaustive tiny tables: every deterministic two-coordinate map with
    # two output bits (256 tables) and every three-coordinate single-bit
    # map (256 tables)
    for codes in product(range(4), repeat=4):
        f = CompressiveMap(2, 2, 0, np.array(codes, dtype=np.int64).reshape(4, 1))
        lhs, rhs = kl_sensitivity(f)
        worst = max(worst, lhs - rhs)
        count += 1
    for codes_int in range(256):
        codes = [(codes_int >> k) & 1 for k in range(8)]
        f = CompressiveMap(3, 1, 0, np.array(codes, dtype=np.int64).reshape(8, 1))
        lhs, rhs = kl_sensitivity(f)
        worst = max(worst, lhs - rhs)
        count += 1
    rng = np.random.default_rng(202)
    for i in range(500):
        t = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        r = int(rng.integers(0, 2))
        sigma = int(rng.choice([2, 2, 3]))
        f = CompressiveMap.random(t, m, r, np.random.SeedSequence([202, i]), alphabet_size=sigma)
        lhs, rhs = kl_sensitivity(f)
        worst = max(worst, lhs - rhs)
        count += 1
    lhs_id, rhs_id = kl_sensitivity(dictator(1))
    identity_ok = abs(lhs_id - 1.0) < TOL and abs(rhs_id - 1.0) < TOL
    crit.finish(worst <= TOL and identity_ok, f"{count} maps, worst lhs-rhs {worst:.3e}")


def test_criterion_3_conditioned_distance_bound():
    crit = _Criterion(3, "conditioned-distance ceiling", 60)
    rng = np.random.default_rng(303)
    min_slack = math.inf
    for i in range(200):
        sigma = int(rng.integers(3, 5))
        t = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        f = CompressiveMap.random(t, m, 0, np.random.SeedSequence([303, i]), alphabet_size=sigma)
        rep = verify_vajda_sensitivity(f)
        min_slack = min(min_slack, rep.slack)
    envelope_ok = True
    for sigma in (3, 4):
        zero_info = CompressiveMap(2, 1, 0, np.zeros((sigma**2, 1), dtype=np.int64), sigma)
        rep = verify_vajda_sensitivity(zero_info)
        expected = 1 - math.exp(-1) + 1 / sigma
        envelope_ok &= rep.lhs == 0.0 and abs(rep.rhs - expected) < 1e-12
        envelope_ok &= abs((1 - math.exp(-1)) - 0.6321205588285577) < 1e-12
    crit.finish(min_slack >= -TOL and envelope_ok, f"200 maps, min slack {min_slack:.6f}")


def _domset_invariants_hold(tournament):
    dom = greedy_dominating_set(tournament)
    n_v = len(tournament.ids)
    t = tournament.edge_size
    ok = verify_domination(tournament, dom)[0]
    ok &= dom.size <= t * math.log2(max(n_v, 2)) + TOL
    ok &= all(c <= (1 - 1 / t) ** k * n_v + TOL for k, c in enumerate(dom.trace))
    return ok


def test_criterion_4_dominating_sets():
    crit = _Criterion(4, "dominating sets", 60)
    rng = np.random.default_rng(404)
    ok = True
    for i in range(100):
        t = int(rng.integers(2, 5))
        n_v = int(rng.integers(8, 65))
        ok &= _domset_invariants_hold(random_tournament(n_v, t, seed=i))
    for n in (3, 4, 5, 6):
        languages = [ToyLanguage(n, {2**n - 1}), ToyLanguage.random(n, seed=40 + n)]
        for lang in languages:
            vertices = lang.no_instances()
            if len(vertices) <= 4:
                continue
            a = ideal_or_compression(lang, 4)
            s = selector_from_compression(a, vertices, 4, delta=0.5, vertex_bits=n)
            ok &= _domset_invariants_hold(s)
    crit.finish(ok, "100 random tournaments + language-derived tournaments, n <= 6")


def test_criterion_5_end_to_end_audit():
    crit = _Criterion(5, "end-to-end audits", 300)
    failures = []
    all_n3 = [
        ToyLanguage(3, {i for i in range(8) if (mask >> i) & 1})
        for mask in range(256)
    ]
    for lang in all_n3:
        rep = audit_language(lang, ideal_or_compression(lang, 4))
        if rep.agreement != 1.0:
            failures.append(("ideal", 3, lang.yes_instances().tolist()))
    rng = np.random.default_rng(505)
    random_langs = []
    for _ in range(50):
        n = int(rng.integers(4, 7))
        random_langs.append(ToyLanguage.random(n, seed=int(rng.integers(0, 2**31))))
    for lang in random_langs:
        rep = audit_language(lang, ideal_or_compression(lang, 4))
        if rep.agreement != 1.0:
            failures.append(("ideal", lang.n, lang.yes_instances().tolist()))
    # noisy variant: the error budget stays below the sensitivity margin
    margin = 1 - math.sqrt(2 * math.log(2) / 16)
    assert abs(margin - 0.7056474943711314) < 1e-12
    assert 0.25 < margin
    for lang in all_n3 + random_langs:
        noisy = noisy_or_compression(lang, 16, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
        rep = audit_language(lang, noisy)
        if rep.agreement != 1.0:
            failures.append(("noisy", lang.n, lang.yes_instances().tolist()))
    crit.finish(not failures, f"{256 + 50} languages x ideal and noisy; failures: {failures[:3]}")


def test_criterion_6_one_yes_sensitivity():
    crit = _Criterion(6, "one-yes query distances", 60)
    violations = 0
    checked = 0
    corpora = []
    for mask in range(256):
        corpora.append(
            (ToyLanguage(3, {i for i in range(8) if (mask >> i) & 1}), "ideal", 4)
        )
    rng = np.random.default_rng(606)
    for _ in range(20):
        n = int(rng.integers(4, 6))
        lang = ToyLanguage.random(n, seed=int(rng.integers(0, 2**31)))
        corpora.append((lang, "ideal", 4))
        corpora.append((lang, "noisy", 16))
    for lang, kind, t in corpora:
        if kind == "ideal":
            a = ideal_or_compression(lang, t)
        else:
            a = noisy_or_compression(lang, t, e_s=F(1, 8), e_c=F(1, 8), coin_bits=3)
        advice = build_advice(lang, a)
        floor = 1 - (a.e_s + a.e_c)
        for g in advice.elements:
            for v in lang.yes_instances():
                d = statistical_distance(
                    a.subset_output_distribution(g),
                    a.subset_output_distribution(g, forced=(v,)),
                )
                checked += 1
                if d < floor:
                    violations += 1
    crit.finish(violations == 0, f"{checked} (advice member, yes-instance) pairs checked")


def test_criterion_7_block_variant_micro():
    crit = _Criterion(7, "block-variant audit", 60)
    ok = True
    details = []
    for yes in ({0b111}, {0b101}, {0b111, 0b000}):
        lang = ToyLanguage(3, yes)
        if len(lang.no_instances()) <= 4:
            continue
        a = ideal_or_compression(lang, 2)
        rep = audit_language(lang, a, block_size=2, delta=0.5)
        ok &= rep.agreement == 1.0
        details.append((sorted(yes), rep.agreement, rep.advice_mode))
    crit.finish(ok, f"t=2 blocks of 2, n=3: {details}")


def test_criterion_8_symmetric_transforms():
    crit = _Criterion(8, "symmetric-function transforms", 120)
    checked = 0
    ok = True
    for t in range(1, 6):
        for values in product((0, 1), repeat=t + 1):
            if len(set(values)) < 2:
                continue
            f = SymmetricFunction(values)
            view = find_pivot_view(f)
            ok &= view.pivot <= t // 2
            lang = _pool_language(3, t, view.complement_source)
            transformed = transform_to_relaxed_or(SymmetricCompression(lang, f))
            rep = audit_language(transformed.hit_language, transformed, Delta=1, delta=0.5)
            ok &= rep.agreement == 1.0
            checked += 1
    for t in range(2, 6):
        view = find_pivot_view(SymmetricFunction.and_function(t))
        ok &= view.view == "1-f(t-i)" and view.pivot == 0
    crit.finish(ok, f"{checked} non-constant value vectors, t <= 5")


def _pool_language(n, t, complement_source):
    universe = range(2**n)
    split = min(max(t + 1, 2 ** (n - 1)), 2**n - 2)
    yes = universe[split:] if complement_source else universe[:split]
    return ToyLanguage(n, yes)


def test_criterion_9_distribution_suite():
    crit = _Criterion(9, "distribution metric suite", 30)
    rng = np.random.default_rng(909)
    ln2 = math.log(2)
    ok = True
    for _ in range(10000):
        p, q, r = (random_exact_distribution(rng) for _ in range(3))
        dpq = statistical_distance(p, q)
        # triangle inequality, exact: zero tolerance
        ok &= statistical_distance(p, r) <= dpq + statistical_distance(q, r)
        # data processing under a random two-valued map, zero tolerance
        table = {w: f"z{int(rng.integers(0, 2))}" for w in set(p.outcomes) | set(q.outcomes)}
        ok &= statistical_distance(push_forward(p, table), push_forward(q, table)) <= dpq
        # distance-divergence bounds (float comparisons, 1e-9)
        kl_nats = kl_divergence(p, q) * ln2
        d = float(dpq)
        ok &= 2 * d * d <= kl_nats + TOL
        vajda = 1.0 if math.isinf(kl_nats) else 1.0 - math.exp(-1.0 - kl_nats)
        ok &= d <= vajda + TOL
        # exact identities, zero tolerance
        ok &= statistical_distance(p, p) == 0
        ok &= (dpq == 0) == (p == q)
        if not ok:
            break
    crit.finish(ok, "10000 pairs: triangle, data processing, divergence bounds")
