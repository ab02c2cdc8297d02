"""Distribution arithmetic: constructors, functionals, and their identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from compresslab import FiniteDistribution, statistical_distance
from conftest import random_exact_distribution
from reference_routes import (
    ProductDistribution,
    distribution_from_json,
    entropy,
    kl_divergence,
    mixture,
    mutual_information,
    push_forward,
)

F = Fraction


# -- construction ------------------------------------------------------------


def test_uniform_masses():
    d = FiniteDistribution.uniform(["0", "1"])
    assert d.prob("0") == F(1, 2) and d.prob("1") == F(1, 2)
    assert FiniteDistribution.uniform(["a"]).prob("a") == 1
    four = FiniteDistribution.uniform(["00", "01", "10", "11"])
    assert all(four.prob(w) == F(1, 4) for w in four.outcomes)


def test_uniform_empty_ground_set():
    with pytest.raises(ValueError, match="empty support"):
        FiniteDistribution.uniform([])


def test_duplicate_outcomes_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        FiniteDistribution(["a", "a"], [F(1, 2), F(1, 2)])


def test_mass_validation():
    with pytest.raises(ValueError, match="sums to"):
        FiniteDistribution(["a", "b"], [F(1, 2), F(1, 3)])
    with pytest.raises(ValueError, match="negative"):
        FiniteDistribution(["a", "b"], [F(3, 2), F(-1, 2)])
    # masses are exact: a float is refused, even one that sums to 1
    with pytest.raises(TypeError):
        FiniteDistribution(["a", "b"], [0.5, 0.5])
    # numpy integers are exact too, and become Fractions over Python ints
    d = FiniteDistribution(["a", "b"], [np.int64(0), np.int64(1)])
    assert all(type(m) is F and type(m.numerator) is int for m in d.mass)
    assert statistical_distance(d, FiniteDistribution.point("b")) == 0


def test_support_drops_zero_mass():
    d = FiniteDistribution(["a", "b", "c"], [F(1, 2), F(0), F(1, 2)])
    assert d.support() == ("a", "c")
    assert d == FiniteDistribution(["a", "c"], [F(1, 2), F(1, 2)])


def test_serialization_round_trip():
    d = FiniteDistribution(["a", ("x", "y")], [F(1, 3), F(2, 3)])
    assert distribution_from_json(d.to_json()) == d


# -- statistical distance ------------------------------------------------------


def test_distance_identical_and_disjoint():
    p = random_exact_distribution(np.random.default_rng(0))
    assert statistical_distance(p, p) == 0
    assert statistical_distance(FiniteDistribution.point("0"), FiniteDistribution.point("1")) == 1


def test_distance_of_a_law_to_itself_equals_the_sum_over_a_copy():
    # the same object skips the sum; an equal copy takes it, with the same
    # value and type
    rng = np.random.default_rng(3)
    for p in (random_exact_distribution(rng), random_exact_distribution(rng)):
        copy = FiniteDistribution(p.outcomes, p.mass)
        for d in (statistical_distance(p, p), statistical_distance(p, copy)):
            assert d == 0 and type(d) is F


def test_distance_bernoulli_pair():
    p = FiniteDistribution(["0", "1"], [F(1, 4), F(3, 4)])
    q = FiniteDistribution(["0", "1"], [F(3, 4), F(1, 4)])
    # direct summation over both outcomes: (|1/4-3/4| + |3/4-1/4|) / 2
    expected = (abs(F(1, 4) - F(3, 4)) + abs(F(3, 4) - F(1, 4))) / 2
    assert statistical_distance(p, q) == expected == F(1, 2)


def test_distance_unions_universes():
    p = FiniteDistribution.uniform(["a", "b"])
    q = FiniteDistribution.uniform(["b", "c"])
    assert statistical_distance(p, q) == F(1, 2)


def test_distance_is_a_metric_exact():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p, q, r = (random_exact_distribution(rng) for _ in range(3))
        dpq = statistical_distance(p, q)
        assert type(dpq) is F
        assert 0 <= dpq <= 1
        assert dpq == statistical_distance(q, p)
        # exact: zero tolerance
        assert statistical_distance(p, r) <= dpq + statistical_distance(q, r)
        assert (dpq == 0) == (p == q)


def test_distance_one_iff_disjoint_supports():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p, q = random_exact_distribution(rng), random_exact_distribution(rng)
        disjoint = not set(p.support()) & set(q.support())
        assert (statistical_distance(p, q) == 1) == disjoint


# -- KL divergence ----------------------------------------------------------


def test_kl_examples():
    p = random_exact_distribution(np.random.default_rng(1))
    assert kl_divergence(p, p) == 0.0
    # 1 * log2(1 / (1/2)) = 1 bit
    zero, fair = FiniteDistribution.point("0"), FiniteDistribution.uniform(["0", "1"])
    assert kl_divergence(zero, fair) == pytest.approx(1.0)
    assert kl_divergence(fair, zero) == math.inf


def test_kl_nonnegative_and_infinite_off_support():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p, q = random_exact_distribution(rng), random_exact_distribution(rng)
        v = kl_divergence(p, q)
        assert v >= -1e-12
        if not set(p.support()) <= set(q.support()):
            assert v == math.inf


# -- entropy and mutual information --------------------------------------------


def test_entropy_examples():
    assert entropy(FiniteDistribution.point("x")) == 0.0
    assert entropy(FiniteDistribution.uniform(list("abcdefgh"))) == pytest.approx(3.0)
    b = FiniteDistribution(["0", "1"], [F(1, 4), F(3, 4)])
    expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert entropy(b) == pytest.approx(expected)
    assert expected == pytest.approx(0.8113, abs=5e-5)


def test_entropy_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = random_exact_distribution(rng)
        h = entropy(p)
        assert -1e-12 <= h <= math.log2(len(p.support())) + 1e-9


def test_mutual_information_independent_product():
    x = FiniteDistribution(["0", "1"], [F(1, 3), F(2, 3)])
    y = FiniteDistribution(["a", "b"], [F(1, 4), F(3, 4)])
    joint = FiniteDistribution(
        [(wx, wy) for wx in x.outcomes for wy in y.outcomes],
        [x.prob(wx) * y.prob(wy) for wx in x.outcomes for wy in y.outcomes],
    )
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_diagonal():
    joint = FiniteDistribution.uniform([(w, w) for w in "abcd"])
    assert mutual_information(joint) == pytest.approx(2.0)


def test_mutual_information_correlated_pair():
    joint = FiniteDistribution(
        [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")],
        [F(3, 8), F(1, 8), F(1, 8), F(3, 8)],
    )
    # H(X) + H(Y) - H(X,Y) with uniform marginals
    h_joint = -sum(float(m) * math.log2(float(m)) for m in joint.mass)
    assert mutual_information(joint) == pytest.approx(2.0 - h_joint)
    assert mutual_information(joint) == pytest.approx(0.1887, abs=5e-5)


def _random_joint(rng, shape=(3, 3)):
    weights = rng.integers(0, 8, size=shape)
    weights.flat[int(rng.integers(0, weights.size))] += 1
    total = int(weights.sum())
    outcomes, masses = [], []
    for i in range(shape[0]):
        for j in range(shape[1]):
            if weights[i, j]:
                outcomes.append((f"x{i}", f"y{j}"))
                masses.append(F(int(weights[i, j]), total))
    return FiniteDistribution(outcomes, masses)


def test_mutual_information_support_bound():
    rng = np.random.default_rng(4)
    for _ in range(200):
        joint = _random_joint(rng)
        xs = {w[0] for w in joint.support()}
        assert mutual_information(joint) <= math.log2(len(xs)) + 1e-9


def _mi_of(pairs):
    return mutual_information(FiniteDistribution(list(pairs.keys()), list(pairs.values())))


def test_mutual_information_chain_rule():
    # I(X:Y|Z) = I(X:YZ) - I(X:Z) for random triple joints
    rng = np.random.default_rng(5)
    for _ in range(100):
        weights = rng.integers(0, 6, size=(2, 3, 2))
        weights[0, 0, 0] += 1
        total = int(weights.sum())
        triples = {
            (i, j, k): F(int(weights[i, j, k]), total)
            for i in range(2)
            for j in range(3)
            for k in range(2)
            if weights[i, j, k]
        }
        i_x_yz = _mi_of({(x, (y, z)): m for (x, y, z), m in triples.items()})
        i_x_z = _mi_of(_collapse(triples, lambda x, y, z: (x, z)))
        # conditional mutual information, computed from the definition
        cond = 0.0
        for z in {k for (_, _, k) in triples}:
            slice_mass = sum(m for (x, y, kk), m in triples.items() if kk == z)
            sliced = {
                (x, y): m / slice_mass for (x, y, kk), m in triples.items() if kk == z
            }
            cond += float(slice_mass) * _mi_of(sliced)
        assert cond == pytest.approx(i_x_yz - i_x_z, abs=1e-9)


def _collapse(triples, key):
    out = {}
    for (x, y, z), m in triples.items():
        k = key(x, y, z)
        out[k] = out.get(k, F(0)) + m
    return out


def test_conditioning_on_independent_side_information():
    # X = (Y, Z) with Y, Z independent: I(X:Y) <= I(X:Y|Z)
    rng = np.random.default_rng(6)
    for _ in range(50):
        py = rng.integers(1, 5, size=2)
        pz = rng.integers(1, 5, size=2)
        ty, tz = int(py.sum()), int(pz.sum())
        triples = {}
        for y in range(2):
            for z in range(2):
                triples[((y, z), y, z)] = F(int(py[y]) * int(pz[z]), ty * tz)
        i_x_y = _mi_of(_collapse(triples, lambda x, y, z: (x, y)))
        i_x_yz = _mi_of({(x, (y, z)): m for (x, y, z), m in triples.items()})
        i_x_z = _mi_of(_collapse(triples, lambda x, y, z: (x, z)))
        cond = i_x_yz - i_x_z
        assert i_x_y <= cond + 1e-9


# -- push-forward ----------------------------------------------------------


def test_push_forward_identity_and_point():
    p = random_exact_distribution(np.random.default_rng(10))
    assert push_forward(p, lambda w: w) == p
    reversed_point = push_forward(FiniteDistribution.point("abc"), lambda w: w[::-1])
    assert reversed_point == FiniteDistribution.point("cba")


def test_push_forward_xor():
    p = FiniteDistribution.uniform([(0, 0), (0, 1), (1, 0), (1, 1)])
    out = push_forward(p, lambda w: w[0] ^ w[1])
    # enumerating the four inputs: two map to 0, two map to 1
    assert out == FiniteDistribution([0, 1], [F(1, 2), F(1, 2)])


def test_push_forward_undefined_point():
    p = FiniteDistribution.uniform(["a", "b"])
    with pytest.raises(ValueError, match="undefined"):
        push_forward(p, {"a": 1})


def test_push_forward_randomized():
    # identity with one coin that flips the single bit half the time
    p = FiniteDistribution.point("1")
    out = push_forward(p, lambda w, c: w if c == 0 else ("0" if w == "1" else "1"), coin_bits=1)
    assert out == FiniteDistribution.uniform(["0", "1"])


def test_data_processing_exact():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p, q = random_exact_distribution(rng), random_exact_distribution(rng)
        outs = [f"z{i}" for i in range(3)]
        table = {w: outs[int(rng.integers(0, 3))] for w in set(p.outcomes) | set(q.outcomes)}
        d_before = statistical_distance(p, q)
        d_after = statistical_distance(push_forward(p, table), push_forward(q, table))
        assert d_after <= d_before  # exact, zero tolerance


# -- distance-divergence inequalities -----------------------------------------


def test_pinsker_inequality_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(300):
        p, q = random_exact_distribution(rng), random_exact_distribution(rng)
        d = float(statistical_distance(p, q))
        kl_nats = kl_divergence(p, q) * math.log(2)
        assert 2 * d * d <= kl_nats + 1e-9


def test_vajda_style_inequality_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p, q = random_exact_distribution(rng), random_exact_distribution(rng)
        d = float(statistical_distance(p, q))
        kl_nats = kl_divergence(p, q) * math.log(2)
        bound = 1.0 - math.exp(-1.0 - kl_nats) if kl_nats != math.inf else 1.0
        assert d <= bound + 1e-9


# -- products ------------------------------------------------------------------


def test_condition_pin_and_exclude():
    x = ProductDistribution.uniform(["0", "1"], 4)
    pinned = x.condition(1, equal_to="1")
    assert pinned.factors[1] == FiniteDistribution.point("1")
    abc = ProductDistribution.uniform(["a", "b", "c"], 2)
    off = abc.condition(0, not_equal_to="a")
    assert off.factors[0] == FiniteDistribution.uniform(["b", "c"])


def test_condition_errors():
    x = ProductDistribution.uniform(["0"], 2)  # single-symbol alphabet
    with pytest.raises(ValueError, match="empty conditional support"):
        x.condition(0, not_equal_to="0")
    y = ProductDistribution.uniform(["0", "1"], 2)
    with pytest.raises(ValueError):
        y.condition(5, equal_to="0")
    with pytest.raises(ValueError):
        y.condition(0)


def test_joint_total_mass_and_marginals():
    rng = np.random.default_rng(14)
    factors = []
    for _ in range(3):
        w = rng.integers(1, 5, size=2)
        factors.append(FiniteDistribution(["0", "1"], [F(int(w[0]), int(w.sum())), F(int(w[1]), int(w.sum()))]))
    x = ProductDistribution(factors, ["0", "1"])
    joint = x.joint()
    assert sum(joint.mass) == 1
    for j in range(3):
        marg = push_forward(joint, lambda w, j=j: w[j])
        assert marg == x.factors[j]


def test_conditional_mixture_reconstructs_joint():
    x = ProductDistribution.uniform(["0", "1"], 3)
    parts = []
    for sym in ("0", "1"):
        parts.append((F(1, 2), x.condition(1, equal_to=sym).joint()))
    assert mixture(parts) == x.joint()


def test_is_uniform():
    assert ProductDistribution.uniform(["0", "1"], 3).is_uniform()
    skew = FiniteDistribution(["0", "1"], [F(1, 3), F(2, 3)])
    assert not ProductDistribution([skew, skew], ["0", "1"]).is_uniform()
