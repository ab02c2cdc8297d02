"""Byte-identity of `verify-lemma` output against recorded NDJSON.

Each file under tests/golden/verify_lemma/ is the stdout of one command line
below, recorded from the earlier implementation that built the conditioned
count tables from a per-coordinate digit array.  The reports carry floats
(KL sums, entropies, float-converted exact distances), so any change to the
order of a float sum shows up here as a byte difference.  A difference is a
regression to explain, not a file to re-record.
"""

from pathlib import Path

import pytest

from compresslab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify_lemma"

CASES = {
    # the three README examples
    "pinsker_t8_m2": "pinsker --t 8 --m 2 --trials 100 --seed 7",
    "kl_t3_m2_r1": "kl --t 3 --m 2 --r 1 --trials 50",
    "vajda_t3_m2_sigma4": "vajda --t 3 --m 2 --sigma 4 --trials 50",
    # larger alphabets, coins, and the one-coordinate map
    "kl_t4_m2_r1_sigma3": "kl --t 4 --m 2 --r 1 --sigma 3 --trials 5 --seed 11",
    "kl_t3_m3_sigma4": "kl --t 3 --m 3 --sigma 4 --trials 5 --seed 12",
    "kl_t1_m2_r1_sigma3": "kl --t 1 --m 2 --r 1 --sigma 3 --trials 3 --seed 15",
    "kl_t9_m3_r3": "kl --t 9 --m 3 --r 3 --trials 3 --seed 17",
    "vajda_t4_m2_r1_sigma3": "vajda --t 4 --m 2 --r 1 --sigma 3 --trials 5 --seed 13",
    "vajda_t3_m1_r2_sigma4": "vajda --t 3 --m 1 --r 2 --sigma 4 --trials 5 --seed 14",
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.ndjson")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_lemma_matches_golden_bytes(capsys, name):
    code = main(["verify-lemma", *CASES[name].split()])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{name}.ndjson").read_bytes()
