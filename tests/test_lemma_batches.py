"""Batches of lemma maps: one count pass, and every result each map gets alone.

A batch of B maps of one shape is folded once (its first stages stacked
along the code axis), its distance numerators carry a leading batch axis,
and on the keyed coin-entropy route it shares one set of representative
rows.  None of that may change a count or a float bit: the batched counts
equal each map's own :meth:`CompressiveMap.conditioned_output_counts`, and
the batched reports equal the single-map verifiers' with ``==``.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compresslab import CompressiveMap, verify_kl_bound, verify_pinsker_sensitivity, verify_vajda_sensitivity
from compresslab import cli
from compresslab.sensitivity import LEMMA_KL_BOUND, LEMMA_PINSKER, LEMMA_VAJDA, verify_batch

SINGLE = {
    LEMMA_PINSKER: verify_pinsker_sensitivity,
    LEMMA_KL_BOUND: verify_kl_bound,
    LEMMA_VAJDA: verify_vajda_sensitivity,
}


def routes(f: CompressiveMap) -> tuple[str, int, str]:
    """(first stage, leading coordinates, coin-entropy route) of f's shape,
    by the rules the kernels choose by."""
    n, coins, m_codes, s = f.n_inputs, f.n_coins, 2**f.output_bits, f.alphabet_size
    if coins == 1 and m_codes <= 16:
        stage, lead = "one-hot", 0
    else:
        stage, lead = "keyed", 0
        while lead < f.arity and m_codes * s ** (f.arity - lead) > n * coins:
            lead += 1
    if f.coin_bits == 0:
        entropy = "none"
    else:
        entropy = "direct" if f.output_bits * coins >= (n - 1).bit_length() else "keyed"
    return stage, lead, entropy


def batch_of(t: int, m: int, r: int, s: int, size: int, seed: int) -> list[CompressiveMap]:
    return [CompressiveMap.random(t, m, r, seed=[seed, b], alphabet_size=s) for b in range(size)]


def assert_batch_equals_singles(maps: list[CompressiveMap]) -> None:
    counts = CompressiveMap.batch_conditioned_counts(maps)
    f = maps[0]
    assert counts.shape == (len(maps), f.arity, f.alphabet_size, 2**f.output_bits)
    for g, batched in zip(maps, counts):
        assert batched.dtype == np.int64 and np.array_equal(batched, g.conditioned_output_counts())
    lemmas = [LEMMA_KL_BOUND, LEMMA_VAJDA] + ([LEMMA_PINSKER] if f.alphabet_size == 2 else [])
    for lemma in lemmas:
        assert verify_batch(maps, lemma) == [SINGLE[lemma](g) for g in maps], lemma


# every route of the kernels: (t, m, r, s) -> (first stage, lead, coin-entropy route)
ROUTE_CASES = {
    (6, 2, 0, 2): ("one-hot", 0, "none"),
    (4, 4, 0, 3): ("one-hot", 0, "none"),
    (3, 3, 0, 4): ("one-hot", 0, "none"),
    (8, 5, 0, 2): ("keyed", 5, "none"),
    (5, 6, 0, 2): ("keyed", 5, "none"),
    (3, 5, 0, 3): ("keyed", 3, "none"),
    (7, 1, 2, 2): ("keyed", 0, "keyed"),
    (9, 1, 3, 2): ("keyed", 0, "keyed"),
    (5, 1, 2, 3): ("keyed", 0, "keyed"),
    (4, 1, 1, 4): ("keyed", 0, "keyed"),
    (6, 3, 2, 2): ("keyed", 1, "direct"),
    (4, 4, 1, 3): ("keyed", 2, "direct"),
    (3, 2, 2, 4): ("keyed", 0, "direct"),
}


@pytest.mark.parametrize("shape", sorted(ROUTE_CASES))
@pytest.mark.parametrize("size", [1, 2, 5, 8])
def test_batched_routes_equal_single_maps(shape, size):
    maps = batch_of(*shape, size, seed=sum(shape) * 10 + size)
    assert routes(maps[0]) == ROUTE_CASES[shape]
    assert_batch_equals_singles(maps)


@st.composite
def batches(draw):
    s = draw(st.integers(2, 4))
    t = draw(st.integers(1, 8))
    r = draw(st.integers(0, 3))
    while s**t * 2**r > 2**11:
        t -= 1
    m = draw(st.integers(0, 6))
    return batch_of(t, m, r, s, draw(st.integers(1, 8)), draw(st.integers(0, 2**31)))


@settings(max_examples=60, deadline=None)
@given(batches())
def test_batched_counts_and_reports_equal_single_maps(maps):
    assert_batch_equals_singles(maps)


def test_a_batch_needs_one_shape():
    maps = [CompressiveMap.random(3, 2, 0, seed=1), CompressiveMap.random(3, 1, 0, seed=2)]
    with pytest.raises(ValueError, match="one arity"):
        verify_batch(maps, LEMMA_KL_BOUND)


def run_cli(argv: list[str]) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize(
    "argv, sizes",
    [
        # 2**11 * 4 cells: eight maps per batch of 2**16 cells
        ("kl --t 11 --m 2 --r 2 --trials 19 --seed 4", [8, 8, 3]),
        ("vajda --t 7 --m 2 --r 1 --sigma 3 --trials 3 --seed 4", [3]),
        # exactly the cap, and above it: one map per batch
        ("pinsker --t 14 --m 3 --r 2 --trials 2 --seed 4", [1, 1]),
        ("kl --t 17 --m 1 --r 0 --trials 2 --seed 4", [1, 1]),
        # 4-cell tables but 2 * 2 * 2**17 conditioned counts: the counts set the size
        ("kl --t 2 --m 17 --r 0 --trials 3 --seed 4", [1, 1, 1]),
        ("vajda --t 3 --m 12 --r 0 --trials 5 --seed 4", [2, 2, 1]),
    ],
)
def test_cli_verifies_consecutive_trials_in_batches_under_the_cap(monkeypatch, argv, sizes):
    seen = []
    build = CompressiveMap.batch_conditioned_counts

    def counted(maps):
        seen.append(len(maps))
        return build(maps)

    monkeypatch.setattr(CompressiveMap, "batch_conditioned_counts", staticmethod(counted))
    lemma, *rest = argv.split()
    lines = run_cli(["verify-lemma", lemma, *rest])
    assert seen == sizes
    # each line is the report its trial's map gets alone
    args = dict(zip(rest[::2], map(int, rest[1::2])))
    single = SINGLE[{"pinsker": LEMMA_PINSKER, "kl": LEMMA_KL_BOUND, "vajda": LEMMA_VAJDA}[lemma]]
    for trial, line in enumerate(lines[:-1]):
        seed = np.random.SeedSequence([args["--seed"], trial])
        f = CompressiveMap.random(args["--t"], args["--m"], args["--r"], seed, args.get("--sigma", 2))
        want = single(f).to_json()
        want["params"].update({"seed": args["--seed"], "trial": trial})
        assert line == json.loads(json.dumps(want))
    assert lines[-1]["instances"] == args["--trials"] == len(lines) - 1


def test_cli_checks_the_shape_before_the_first_batch(capsys):
    # the batch size is read from the shape's budget check, so even zero trials of a shape over the budget fail
    assert cli.main(["verify-lemma", "kl", "--t", "40", "--trials", "0"]) == cli.EXIT_BUDGET
    assert json.loads(capsys.readouterr().err)["kind"] == "budget"
