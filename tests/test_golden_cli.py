"""Byte-identity of CLI output against recorded NDJSON.

Each file under tests/golden/verify_lemma/ is the stdout of one command line
below, recorded from the earlier implementation that built the conditioned
count tables from a per-coordinate digit array, and of two multi-trial
runs, recorded from the earlier implementation that verified one map per
count pass.  The reports carry floats
(KL sums, entropies, float-converted exact distances), so any change to the
order of a float sum shows up here as a byte difference.

The files under tests/golden/examples/ are the stdout of the README's
`tournament`, `reduce` and `fcomp` examples, recorded from the earlier
implementation that built one query batch per audited input, and of larger
random, parity and majority languages, recorded from the earlier
implementation that passed vertices around as '0'/'1' strings, and of
random tournaments at and past the benchmark's sizes, recorded from the
earlier implementation that counted every greedy step by an edge scan, and
of larger block (tlogt) audits, recorded from the earlier implementation
that kept a separate selector, advice builder and query batch for blocks,
and of runs whose advice lists every no-instance (FULL_V), recorded from
the earlier implementation that decided and grouped FULL_V inputs on a
path of their own, and of an n=16 ideal-or audit and the benchmark's
noisy-or audit shape (17 members, from sampled and exhaustive greedy
steps), recorded from the earlier implementation that grouped audited
inputs by sorting a key per input and checked domination with set
membership tests, and of random tournaments with k near |V|, recorded from
the earlier implementation that listed and unranked greedy candidates
through a table of binomials capped at 2**62, and of single noisy-or
decisions on DOMSET advice (a YES query, a NO query, and a GAP query that
the float midpoint decides), recorded from the earlier implementation that
passed Delta and delta to every query as two separate numbers.

The final line of each file embeds the configuration.  Its `config` object
was re-recorded once, when the options that no command read were dropped
(`verify-lemma --arithmetic`, `reduce --arithmetic`, `fcomp --seed`).
Five example files were re-recorded once more, when the greedy stopped
sampling first-vertex tournaments and took the exact step's one member:
the noisy-or audits at n=10 and n=11, the ideal-or audits at n=12 and
n=16, and the n=10 tournament, whose greedy had sampled.  Their advice
went from 17, 23, 6 and 10 members, and the tournament's from 2, to one,
with the query tags that follow from it; their agreement stayed 1.0.
Every other byte is as first recorded.

A difference is a regression to explain, not a file to re-record.
"""

import argparse
from pathlib import Path

import pytest

from compresslab.cli import _make_parser, main

GOLDEN = Path(__file__).parent / "golden" / "verify_lemma"
EXAMPLES_GOLDEN = Path(__file__).parent / "golden" / "examples"

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
    # the benchmark's two multi-trial shapes with the most trials per run
    "pinsker_t10_m4_r2": "pinsker --t 10 --m 4 --r 2 --trials 7 --seed 5",
    "kl_t11_m2_r2": "kl --t 11 --m 2 --r 2 --trials 5 --seed 5",
}


# the README's tournament, reduce and fcomp lines, one file each
EXAMPLES = {
    "tournament_random_v32_t3_seed5": "tournament --random --num-vertices 32 --t 3 --seed 5",
    "tournament_single_yes_n4_ideal_or_t3": (
        "tournament --language builtin:single-yes --n 4 --compression ideal-or --t 3"
    ),
    "reduce_single_yes_ideal_or_t4_audit": (
        "reduce --language builtin:single-yes --compression ideal-or --t 4 --audit"
    ),
    "reduce_random_n5_seed4_noisy_or_t16_audit": (
        "reduce --language builtin:random --n 5 --seed 4 --compression noisy-or:1/8,1/8 --t 16 --audit"
    ),
    "reduce_single_yes_ideal_or_t2_tlogt_audit": (
        "reduce --language builtin:single-yes --compression ideal-or"
        " --t 2 --mode tlogt --sigma 2 --delta 0.5 --audit"
    ),
    "reduce_single_yes_ideal_or_t4_input111": (
        "reduce --language builtin:single-yes --compression ideal-or --t 4 --input 111"
    ),
    "fcomp_and_t4_audit": "fcomp --f builtin:and --t 4 --audit",
    "fcomp_00101_audit": "fcomp --f 00101 --audit",
    # sizes and builtin languages that the README lines do not reach
    "reduce_random_n12_seed3_ideal_or_t4_audit": (
        "reduce --language builtin:random --n 12 --seed 3 --t 4 --audit"
    ),
    "reduce_random_n11_seed3_noisy_or_t16_audit": (
        "reduce --language builtin:random --n 11 --seed 3 --compression noisy-or:1/8,1/8 --t 16 --audit"
    ),
    "tournament_random_n10_seed2_ideal_or_t3": "tournament --language builtin:random --n 10 --t 3 --seed 2",
    "reduce_parity_n6_ideal_or_t4_audit": "reduce --language builtin:parity --n 6 --t 4 --audit",
    "tournament_majority_n7_ideal_or_t3": "tournament --language builtin:majority --n 7 --t 3",
    # block audits past the README's n=3: block size 3, three blocks, and
    # 2^7 inputs
    "reduce_parity_n5_ideal_or_t2_tlogt_sigma3_audit": (
        "reduce --language builtin:parity --n 5 --t 2 --mode tlogt --sigma 3 --delta 0.5 --audit"
    ),
    "reduce_random_n5_seed7_ideal_or_t3_tlogt_sigma2_audit": (
        "reduce --language builtin:random --n 5 --seed 7 --t 3 --mode tlogt --sigma 2 --delta 0.3 --audit"
    ),
    "reduce_random_n7_seed1_ideal_or_t2_tlogt_sigma2_audit": (
        "reduce --language builtin:random --n 7 --seed 1 --t 2 --mode tlogt --sigma 2 --delta 0.5 --audit"
    ),
    # random tournaments at the benchmark's sizes and beyond, in closed form
    # for k >= 3: members and traces of every greedy step
    "tournament_random_v60_t4_seed1": "tournament --random --num-vertices 60 --t 4 --seed 1",
    "tournament_random_v128_t3_seed1": "tournament --random --num-vertices 128 --t 3 --seed 1",
    "tournament_random_v400_t3_seed1": "tournament --random --num-vertices 400 --t 3 --seed 1",
    "tournament_random_v30_t6_seed1": "tournament --random --num-vertices 30 --t 6 --seed 1",
    # k near |V|, where C(|R|, j) passes int64 for j near |R| / 2
    "tournament_random_v22_t12_seed1": "tournament --random --num-vertices 22 --t 12 --seed 1",
    "tournament_random_v40_t37_seed1": "tournament --random --num-vertices 40 --t 37 --seed 1",
    "tournament_random_v200_t200_seed1": "tournament --random --num-vertices 200 --t 200 --seed 1",
    # FULL_V advice (at most t no-instances): base and block audits, one decision
    "reduce_single_yes_n2_ideal_or_t4_audit": "reduce --language builtin:single-yes --n 2 --t 4 --audit",
    "reduce_single_yes_n2_ideal_or_t4_input10": "reduce --language builtin:single-yes --n 2 --t 4 --input 10",
    "reduce_majority_n2_ideal_or_t2_tlogt_sigma2_audit": (
        "reduce --language builtin:majority --n 2 --t 2 --mode tlogt --sigma 2 --delta 0.5 --audit"
    ),
    "reduce_full_n3_ideal_or_t2_tlogt_sigma2_audit": (
        "reduce --language builtin:full --n 3 --t 2 --mode tlogt --sigma 2 --delta 0.5 --audit"
    ),
    # a 2^16-input audit, and the benchmark's noisy-or audit shape; both
    # sampled greedy steps before first-vertex steps became exact
    "reduce_random_n16_seed1_ideal_or_t4_audit": "reduce --language builtin:random --n 16 --seed 1 --t 4 --audit",
    "reduce_random_n10_seed1_noisy_or_t16_audit": (
        "reduce --language builtin:random --n 10 --seed 1 --compression noisy-or:1/8,1/8 --t 16 --audit"
    ),
    # single decisions on DOMSET advice (one member): accepted at distance
    # 0.75, rejected at distance 0, and a query in the gap of Delta 0.8 and
    # delta 0.5 that the float midpoint 0.65 accepts
    "reduce_random_n6_seed1_noisy_or_t16_input000010": (
        "reduce --language builtin:random --n 6 --seed 1 --compression noisy-or:1/8,1/8 --t 16 --input 000010"
    ),
    "reduce_random_n6_seed1_noisy_or_t16_input000000": (
        "reduce --language builtin:random --n 6 --seed 1 --compression noisy-or:1/8,1/8 --t 16 --input 000000"
    ),
    "reduce_random_n6_seed1_noisy_or_t16_Delta0p8_delta0p5_input000010": (
        "reduce --language builtin:random --n 6 --seed 1 --compression noisy-or:1/8,1/8 --t 16"
        " --Delta 0.8 --delta 0.5 --input 000010"
    ),
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.ndjson")) == sorted(CASES)
    assert sorted(p.stem for p in EXAMPLES_GOLDEN.glob("*.ndjson")) == sorted(EXAMPLES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_lemma_matches_golden_bytes(capsys, name):
    code = main(["verify-lemma", *CASES[name].split()])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{name}.ndjson").read_bytes()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_matches_golden_bytes(capsys, name):
    code = main(EXAMPLES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("ascii") == (EXAMPLES_GOLDEN / f"{name}.ndjson").read_bytes()


class _ReadRecorder(argparse.Namespace):
    """Parsed arguments that record which of them a command reads."""

    __slots__ = ("reads",)  # a slot, so vars() and the report config never see it

    def __init__(self):
        super().__init__()
        self.reads = set()

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "__dict__"):
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def test_golden_cases_read_every_parsed_option(capsys):
    # an option that is parsed but never read is a knob without an effect;
    # between them the golden cases reach every option of every subcommand
    parser = _make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    reads = {name: set() for name in commands}
    argvs = [["verify-lemma", *case.split()] for case in CASES.values()]
    argvs += [case.split() for case in EXAMPLES.values()]
    for argv in argvs:
        args = parser.parse_args(argv, namespace=_ReadRecorder())
        args.reads.clear()  # parsing itself looks attributes up
        assert args.func(args) == 0, argv
        capsys.readouterr()
        reads[argv[0]] |= args.reads
    unread = {}
    for name, sub in commands.items():
        parsed = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        if parsed - reads[name]:
            unread[name] = sorted(parsed - reads[name])
    assert not unread


@pytest.mark.parametrize(
    "first, second",
    [
        ("tournament --random --num-vertices 20", "tournament"),
        ("reduce --audit", "reduce --input 111"),
        ("verify-lemma kl --sigma 3", "verify-lemma pinsker"),
    ],
)
def test_shared_parser_leaks_no_state(first, second):
    # main reuses one parser per process: a parse must not change what the
    # next one returns, so each Namespace equals a fresh parser's
    shared = _make_parser()
    assert _make_parser() is shared
    for argv in (first.split(), second.split()):
        assert shared.parse_args(argv) == _make_parser.__wrapped__().parse_args(argv)


def test_golden_cases_in_reverse_order_give_the_same_bytes(capsys):
    runs = [(GOLDEN / f"{name}.ndjson", ["verify-lemma", *CASES[name].split()]) for name in sorted(CASES)]
    runs += [(EXAMPLES_GOLDEN / f"{name}.ndjson", EXAMPLES[name].split()) for name in sorted(EXAMPLES)]
    for path, argv in reversed(runs):
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("ascii") == path.read_bytes(), argv
