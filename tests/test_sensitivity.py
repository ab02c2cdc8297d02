"""Sensitivity functionals and the three certified inequalities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from compresslab import (
    CompressiveMap,
    FiniteDistribution,
    map_input_mutual_information,
    pinsker_threshold,
    statistical_distance,
    vajda_threshold,
    verify_kl_bound,
    verify_pinsker_sensitivity,
    verify_vajda_sensitivity,
)
from compresslab import sensitivity as sensitivity_module
from compresslab.compression import BLOCK_CELLS
from compresslab.sensitivity import (
    LEMMA_KL_BOUND,
    LEMMA_PINSKER,
    LEMMA_VAJDA,
    SLACK_TOL,
    coordinate_terms,
)
from reference_routes import (
    ProductDistribution,
    avg_noise_sensitivity,
    dictator,
    joint_output_input_distribution,
    kl_divergence,
    kl_sensitivity,
    mutual_information,
    output_distribution,
    pinsker_chain,
    symbol_identity,
    xor,
)

F = Fraction


def _brute_force_sensitivity(f: CompressiveMap) -> Fraction:
    """Independent route: conditioned output laws via full product machinery."""
    x = ProductDistribution.uniform(tuple(range(f.alphabet_size)), f.arity)
    total = F(0)
    for j in range(f.arity):
        p0 = output_distribution(f, x.condition(j, equal_to=0))
        p1 = output_distribution(f, x.condition(j, equal_to=1))
        total += statistical_distance(p0, p1)
    return total / f.arity


def _conditioned_output(f: CompressiveMap, j: int, **condition) -> FiniteDistribution:
    """Output law with coordinate j conditioned, via the product-distribution route."""
    x = ProductDistribution.uniform(tuple(range(f.alphabet_size)), f.arity)
    return output_distribution(f, x.condition(j, **condition))


def _vajda_term(f: CompressiveMap, j: int, x: int) -> Fraction:
    return statistical_distance(_conditioned_output(f, j, not_equal_to=x), _conditioned_output(f, j, equal_to=x))


def test_sensitivity_examples():
    assert avg_noise_sensitivity(CompressiveMap.constant(4)) == 0
    assert avg_noise_sensitivity(dictator(4)) == F(1, 4)
    assert avg_noise_sensitivity(xor(4)) == 0


def test_sensitivity_matches_brute_force():
    for seed in range(10):
        f = CompressiveMap.random(4, 2, 1, seed=seed)
        assert avg_noise_sensitivity(f) == _brute_force_sensitivity(f)


def test_sensitivity_needs_binary_alphabet():
    f = CompressiveMap.random(2, 1, 0, seed=0, alphabet_size=3)
    with pytest.raises(ValueError, match="binary"):
        avg_noise_sensitivity(f)
    with pytest.raises(ValueError, match="binary"):
        verify_pinsker_sensitivity(f)


@pytest.mark.parametrize("sigma", [2, 3])
@pytest.mark.parametrize("r", [0, 1])
def test_coordinate_terms_match_product_route(sigma, r):
    for t in range(1, 5):
        for k in range(2):
            f = CompressiveMap.random(t, 2, r, seed=[t, k], alphabet_size=sigma)
            full = output_distribution(f)
            kl = coordinate_terms(f, LEMMA_KL_BOUND)
            vajda = coordinate_terms(f, LEMMA_VAJDA)
            assert [len(row) for row in kl] == [len(row) for row in vajda] == [sigma] * t
            for j in range(t):
                for x in range(sigma):
                    pinned = _conditioned_output(f, j, equal_to=x)
                    assert kl[j][x] == pytest.approx(kl_divergence(pinned, full), abs=1e-12)
                    assert vajda[j][x] == _vajda_term(f, j, x)
            if sigma == 2:
                pinsker = coordinate_terms(f, LEMMA_PINSKER)
                assert pinsker == [
                    [statistical_distance(_conditioned_output(f, j, equal_to=0), _conditioned_output(f, j, equal_to=1))]
                    for j in range(t)
                ]
            else:
                with pytest.raises(ValueError, match="binary"):
                    coordinate_terms(f, LEMMA_PINSKER)


def test_pinsker_chain_distance_step_matches_product_route():
    # twice the average distance to the unconditioned output, recomputed
    for seed in range(6):
        f = CompressiveMap.random(3, 2, seed % 2, seed=seed)
        full = output_distribution(f)
        avg = sum(
            (statistical_distance(full, _conditioned_output(f, j, equal_to=x)) for j in range(3) for x in (0, 1)),
            F(0),
        ) / 6
        assert pinsker_chain(f)["two_avg_distance"] == float(2 * avg)


def _first_max(terms: list[Fraction]) -> int:
    best = 0
    for k, term in enumerate(terms):
        if term > terms[best]:
            best = k
    return best


def _tie_heavy_maps() -> list[CompressiveMap]:
    # every term tied (constant, xor), or one coordinate carrying all the
    # weight with both of its symbols tied (dictator, symbol identity)
    maps = [CompressiveMap.constant(4), CompressiveMap.constant(3, value=2, output_bits=2, coin_bits=1)]
    maps += [dictator(4, c) for c in range(4)] + [xor(t) for t in (1, 3, 4)]
    return maps + [symbol_identity(s) for s in (2, 3, 5)]


@pytest.mark.parametrize("lemma", ["pinsker", "vajda"])
def test_distance_reports_match_statistical_distance_reference(lemma):
    # lhs and witness of the report against the product route's exact
    # distances, averaged as Fractions; the witness is the first largest term
    seeded = [
        CompressiveMap.random(t, m, r, seed=[t, m, r, s], alphabet_size=s)
        for t, m, r, s in [(1, 1, 0, 2), (3, 2, 1, 2), (4, 1, 2, 2), (2, 2, 0, 3), (3, 2, 1, 4), (2, 1, 1, 5)]
    ]
    for f in seeded + _tie_heavy_maps():
        if lemma == "pinsker":
            if f.alphabet_size != 2:
                continue
            terms = [
                statistical_distance(_conditioned_output(f, j, equal_to=0), _conditioned_output(f, j, equal_to=1))
                for j in range(f.arity)
            ]
            rep, cols = verify_pinsker_sensitivity(f), 1
        else:
            terms = [_vajda_term(f, j, x) for j in range(f.arity) for x in range(f.alphabet_size)]
            rep, cols = verify_vajda_sensitivity(f), f.alphabet_size
        j, x = divmod(_first_max(terms), cols)
        assert rep.lhs == float(sum(terms, F(0)) / len(terms)), f.table.tolist()
        assert (rep.witness_j, rep.witness_x) == (j, x if cols > 1 else None), f.table.tolist()


# -- noise-sensitivity ceiling ---------------------------------------------------


def test_pinsker_threshold_spot_value():
    assert pinsker_threshold(2, 8) == pytest.approx(0.5887050112577373, abs=1e-12)
    assert pinsker_threshold(1, 4) == pytest.approx(math.sqrt(2 * math.log(2) * 0.25))


def test_pinsker_report_dictator():
    rep = verify_pinsker_sensitivity(dictator(4))
    assert rep.lhs == 0.25
    assert rep.rhs == pytest.approx(0.5887050112577373)
    assert rep.witness_j == 0 and rep.witness_x is None
    assert rep.holds()


def test_pinsker_constant_slack_is_rhs():
    rep = verify_pinsker_sensitivity(CompressiveMap.constant(6, output_bits=2))
    assert rep.lhs == 0.0
    assert rep.slack == rep.rhs


def test_pinsker_random_corpus():
    rng = np.random.default_rng(31)
    for _ in range(60):
        t = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        r = int(rng.integers(0, 3))
        f = CompressiveMap.random(t, m, r, seed=int(rng.integers(0, 2**31)))
        assert verify_pinsker_sensitivity(f).holds()


def test_pinsker_proof_chain_is_monotone():
    rng = np.random.default_rng(32)
    for _ in range(40):
        f = CompressiveMap.random(int(rng.integers(2, 7)), int(rng.integers(1, 3)), int(rng.integers(0, 2)), seed=int(rng.integers(0, 2**31)))
        chain = pinsker_chain(f)
        assert chain["sensitivity"] <= chain["two_avg_distance"] + SLACK_TOL
        assert chain["two_avg_distance"] <= chain["two_pinsker_of_avg_kl"] + SLACK_TOL
        assert chain["two_pinsker_of_avg_kl"] <= chain["ceiling"] + SLACK_TOL


def test_padding_output_bits_only_raises_ceiling():
    f = CompressiveMap.random(4, 1, 1, seed=5)
    padded = CompressiveMap(4, 2, 1, f.table)  # same codes, one unused bit
    assert avg_noise_sensitivity(padded) == avg_noise_sensitivity(f)
    assert verify_pinsker_sensitivity(padded).rhs > verify_pinsker_sensitivity(f).rhs


# -- KL bound ----------------------------------------------------------------


def test_kl_examples():
    lhs, rhs = kl_sensitivity(CompressiveMap.constant(3))
    assert (lhs, rhs) == (0.0, 0.0)
    lhs, rhs = kl_sensitivity(dictator(1))
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
    lhs, rhs = kl_sensitivity(dictator(2))
    assert rhs == pytest.approx(0.5)
    assert lhs <= rhs + SLACK_TOL


def test_kl_matches_distribution_route():
    # oracle: both sides recomputed with the generic distribution operations
    for seed in range(8):
        f = CompressiveMap.random(3, 2, 1, seed=seed)
        x = ProductDistribution.uniform((0, 1), 3)
        full = output_distribution(f, x)
        expected = 0.0
        for j in range(3):
            for b in (0, 1):
                expected += kl_divergence(output_distribution(f, x.condition(j, equal_to=b)), full)
        expected /= 6
        lhs, rhs = kl_sensitivity(f)
        assert lhs == pytest.approx(expected, abs=1e-9)
        assert rhs == pytest.approx(mutual_information(joint_output_input_distribution(f)) / 3, abs=1e-9)


def test_kl_exhaustive_tiny_tables():
    # every deterministic map {0,1}^2 -> {0,1}
    for code in range(16):
        table = np.array([[code >> 3 & 1], [code >> 2 & 1], [code >> 1 & 1], [code & 1]])
        f = CompressiveMap(2, 1, 0, table)
        lhs, rhs = kl_sensitivity(f)
        assert lhs <= rhs + SLACK_TOL


def test_kl_report_witness_attains_max():
    f = CompressiveMap.random(3, 2, 0, seed=17)
    rep = verify_kl_bound(f)
    x = ProductDistribution.uniform((0, 1), 3)
    full = output_distribution(f, x)
    witness_term = kl_divergence(
        output_distribution(f, x.condition(rep.witness_j, equal_to=rep.witness_x)), full
    )
    for j in range(3):
        for b in (0, 1):
            term = kl_divergence(output_distribution(f, x.condition(j, equal_to=b)), full)
            assert term <= witness_term + 1e-9


# -- mutual information ---------------------------------------------------------


def test_information_bounded_by_output_bits():
    rng = np.random.default_rng(33)
    for _ in range(40):
        m = int(rng.integers(0, 4))
        f = CompressiveMap.random(int(rng.integers(1, 6)), m, int(rng.integers(0, 3)), seed=int(rng.integers(0, 2**31)))
        assert map_input_mutual_information(f) <= m + SLACK_TOL


def test_information_dual_route():
    for sigma, r in [(2, 2), (2, 0), (3, 2), (3, 0), (4, 1), (4, 0)]:
        for seed in range(8):
            f = CompressiveMap.random(3, 2, r, seed=seed, alphabet_size=sigma)
            fast = map_input_mutual_information(f)
            slow = mutual_information(joint_output_input_distribution(f))
            assert fast == pytest.approx(slow, abs=1e-9)


def _per_entry_mutual_information(f: CompressiveMap) -> float:
    """Reference: -p log2 p evaluated at every (input, code) entry."""
    counts = np.bincount(f.table.ravel(), minlength=2**f.output_bits)
    n_full = f.n_inputs * f.n_coins
    h_out = 0.0
    for c in counts[counts > 0]:
        h_out -= int(c) / n_full * math.log2(int(c) / n_full)
    if f.coin_bits == 0:
        return h_out
    row_counts = np.zeros((f.n_inputs, 2**f.output_bits), dtype=np.int64)
    np.add.at(row_counts, (np.arange(f.n_inputs)[:, None], f.table), 1)
    p = row_counts / f.n_coins
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return max(h_out - float(terms.sum(axis=1).mean()), 0.0)


def test_information_equals_per_entry_reference():
    rng = np.random.default_rng(44)
    for _ in range(60):
        t, m, r, s = (int(v) for v in rng.integers((1, 0, 0, 2), (8, 5, 5, 5)))
        if s**t * 2**r > 2**14:
            continue
        f = CompressiveMap.random(t, m, r, seed=int(rng.integers(0, 2**31)), alphabet_size=s)
        assert map_input_mutual_information(f) == _per_entry_mutual_information(f), (t, m, r, s)


@pytest.mark.parametrize("t, m, r, s", [(12, 6, 3, 2), (9, 10, 4, 2), (7, 5, 3, 3), (8, 3, 5, 3), (6, 10, 3, 3)])
def test_blocked_information_equals_per_entry_reference(t, m, r, s):
    # the coin entropies are summed in blocks of rows; with r >= 3 a row's
    # float sum depends on how its cells are grouped, so == checks that each
    # row is summed as the (inputs x codes) table would sum it
    f = CompressiveMap.random(t, m, r, seed=[t, m, r, s], alphabet_size=s)
    rows = max(1, BLOCK_CELLS // max(2**m, 2**r))
    assert f.n_inputs > rows
    assert s == 2 or f.n_inputs % rows, "the alphabet-3 maps end in a partial block"
    assert map_input_mutual_information(f) == _per_entry_mutual_information(f)


@pytest.mark.parametrize("block_cells", [1, 7, 2**6])
def test_information_at_small_blocks_equals_per_entry_reference(monkeypatch, block_cells):
    monkeypatch.setattr(sensitivity_module, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(45)
    for _ in range(30):
        t, m, r, s = (int(v) for v in rng.integers((1, 0, 1, 2), (7, 6, 5, 4)))
        if s**t * 2**r > 2**12:
            continue
        f = CompressiveMap.random(t, m, r, seed=int(rng.integers(0, 2**31)), alphabet_size=s)
        assert map_input_mutual_information(f) == _per_entry_mutual_information(f), (t, m, r, s)


def _keyed_rows(monkeypatch) -> list[np.ndarray]:
    """The table of each :func:`_row_entropies` call, recorded as the calls pass."""
    seen: list[np.ndarray] = []
    row_entropies = sensitivity_module._row_entropies

    def counted(table, m_codes):
        seen.append(table)
        return row_entropies(table, m_codes)

    monkeypatch.setattr(sensitivity_module, "_row_entropies", counted)
    return seen


@pytest.mark.parametrize("t, m, r, s", [(9, 1, 3, 2), (10, 1, 3, 2), (13, 1, 3, 2), (7, 1, 3, 3), (12, 2, 2, 2)])
def test_keyed_information_equals_per_entry_reference(monkeypatch, t, m, r, s):
    # fewer coin-code tuples than rows: one representative row per tuple; at
    # r = 3 a row's float sum depends on how its cells are grouped, so ==
    # checks that each representative row is summed as the table's row is
    seen = _keyed_rows(monkeypatch)
    f = CompressiveMap.random(t, m, r, seed=[t, m, r, s, 3], alphabet_size=s)
    keys = (2**m) ** (2**r)
    assert keys < f.n_inputs
    assert map_input_mutual_information(f) == _per_entry_mutual_information(f)
    assert [len(table) for table in seen] == [keys]


@pytest.mark.parametrize("t, keyed", [(12, False), (13, True)])
def test_keyed_information_at_the_boundary(monkeypatch, t, keyed):
    # m = 3, r = 2: 8**4 = 4096 coin-code tuples, as many as the rows at t = 12
    seen = _keyed_rows(monkeypatch)
    f = CompressiveMap.random(t, 3, 2, seed=[t, 3, 2])
    assert map_input_mutual_information(f) == _per_entry_mutual_information(f)
    [table] = seen
    assert len(table) == 4096 and (table is not f.table) == keyed


@pytest.mark.parametrize("block_cells", [1, 7, 2**6])
def test_keyed_information_at_small_blocks(monkeypatch, block_cells):
    # the keys are computed one block of BLOCK_CELLS rows at a time
    monkeypatch.setattr(sensitivity_module, "BLOCK_CELLS", block_cells)
    for t, m, r, s in [(9, 1, 3, 2), (13, 3, 2, 2), (6, 1, 2, 3), (8, 2, 1, 2)]:
        f = CompressiveMap.random(t, m, r, seed=[t, m, r, s, block_cells], alphabet_size=s)
        assert (2**m) ** (2**r) < f.n_inputs
        assert map_input_mutual_information(f) == _per_entry_mutual_information(f), (t, m, r, s)


def test_verifiers_read_the_output_entropy_from_their_counts(monkeypatch):
    calls = []
    count = CompressiveMap.output_counts

    def counted(self):
        calls.append(self)
        return count(self)

    monkeypatch.setattr(CompressiveMap, "output_counts", counted)
    maps = [
        CompressiveMap.random(5, 2, 1, seed=1),
        CompressiveMap.random(4, 3, 0, seed=2),
        CompressiveMap.random(3, 2, 2, seed=3, alphabet_size=3),
    ]
    for f in maps:
        for verifier in (verify_kl_bound, verify_vajda_sensitivity, kl_sensitivity):
            verifier(f)
    assert calls == []
    # called alone, the information still counts the outputs itself
    for f in maps:
        assert map_input_mutual_information(f) == _per_entry_mutual_information(f)
    assert calls == maps


def _numpy_scalar_kl_bits(cp: np.ndarray, np_total: int, cq: np.ndarray, nq_total: int) -> float:
    """Reference: the KL term as a loop over numpy scalars at the nonzero codes."""
    total = 0.0
    for z in np.nonzero(cp)[0]:
        p = int(cp[z]) / np_total
        q = int(cq[z]) / nq_total
        if q == 0.0:
            return math.inf
        total += p * math.log2(p / q)
    return total


def test_kl_terms_equal_numpy_scalar_reference():
    rng = np.random.default_rng(46)
    for i in range(50):
        s = 2 + i % 3
        t, m, r = (int(v) for v in rng.integers((1, 0, 0), (7, 6, 3)))
        if s**t * 2**r > 2**12:
            t = 3
        f = CompressiveMap.random(t, m, r, seed=int(rng.integers(0, 2**31)), alphabet_size=s)
        cond = f.conditioned_output_counts()
        full = cond[0].sum(axis=0)
        n_full = f.n_inputs * f.n_coins
        expect = [[_numpy_scalar_kl_bits(cond[j, x], n_full // s, full, n_full) for x in range(s)] for j in range(t)]
        assert coordinate_terms(f, LEMMA_KL_BOUND) == expect, (t, m, r, s)


def test_verifiers_build_the_conditioned_table_once(monkeypatch):
    # every count pass, of one map or a batch, goes through the batch entry point
    calls = []
    build = CompressiveMap.batch_conditioned_counts

    def counted(maps):
        calls.extend(maps)
        return build(maps)

    monkeypatch.setattr(CompressiveMap, "batch_conditioned_counts", staticmethod(counted))
    cases = [
        (verify_pinsker_sensitivity, CompressiveMap.random(5, 2, 1, seed=1)),
        (verify_kl_bound, CompressiveMap.random(4, 2, 0, seed=2)),
        (verify_kl_bound, CompressiveMap.random(3, 2, 2, seed=3, alphabet_size=3)),
        (verify_vajda_sensitivity, CompressiveMap.random(4, 1, 1, seed=4)),
        (verify_vajda_sensitivity, CompressiveMap.random(3, 2, 0, seed=5, alphabet_size=4)),
    ]
    binary = CompressiveMap.random(4, 2, 1, seed=6)
    cases += [(pinsker_chain, binary), (avg_noise_sensitivity, binary), (kl_sensitivity, binary)]
    for verifier, f in cases:
        calls.clear()
        verifier(f)
        assert calls == [f], verifier.__name__


# -- conditioned-distance ceiling ----------------------------------------------


def test_vajda_constant_map():
    for sigma in (2, 3, 4):
        f = CompressiveMap.constant(3) if sigma == 2 else CompressiveMap.random(3, 1, 0, seed=0, alphabet_size=sigma)
        if sigma != 2:
            f = CompressiveMap(3, 1, 0, np.zeros((sigma**3, 1), dtype=np.int64), sigma)
        rep = verify_vajda_sensitivity(f)
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(1 - math.exp(-1) + 1 / sigma, abs=1e-12)


def test_vajda_identity_sigma4():
    f = symbol_identity(4)
    rep = verify_vajda_sensitivity(f)
    assert rep.lhs == 1.0  # disjoint supports for every conditioned pair
    assert rep.rhs == pytest.approx(vajda_threshold(2.0, 1, 4))
    assert rep.holds()


def test_vajda_random_corpus():
    rng = np.random.default_rng(34)
    for _ in range(40):
        sigma = int(rng.integers(3, 5))
        t = int(rng.integers(2, 5))
        f = CompressiveMap.random(t, int(rng.integers(1, 4)), 0, seed=int(rng.integers(0, 2**31)), alphabet_size=sigma)
        rep = verify_vajda_sensitivity(f)
        assert rep.holds()
        # witness attains the largest conditioned distance
        attained = _vajda_term(f, rep.witness_j, rep.witness_x)
        for j in range(t):
            for x in range(sigma):
                assert _vajda_term(f, j, x) <= attained


def test_report_json_shape():
    rep = verify_pinsker_sensitivity(dictator(4))
    obj = rep.to_json()
    assert set(obj) == {"lemma", "lhs", "rhs", "slack", "witness", "params"}
    assert obj["witness"] == {"j": 0, "x": None}
    assert obj["params"]["t"] == 4
