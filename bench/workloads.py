"""Seeded inputs for the benchmark workloads.

Every item is one `compresslab` command line, typed as the README shows.  A
workload is a fixed cyclic list of rounds; each round holds one item of each
item class, in a fixed interleaved order, so a slow spell of the machine hits
every class alike and every run attempts whole rounds of the same mix.  The
seed changes the inputs (map seeds, tournament seeds, language members, order
of the symmetric functions) but never the class mix or the instance sizes,
so item costs do not depend on the seed.

Regenerate and list the inputs of one workload without measuring anything:

    python3 bench/workloads.py --workload tournament-audit --seed 1
"""

from __future__ import annotations

import argparse
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# The benchmark's input files live here, under the checkout root.
RUNS_DIR = ".bench_runs"


@dataclass(frozen=True)
class Item:
    """One CLI invocation plus what the output checks need to know about it."""

    cls: str
    argv: tuple[str, ...]
    expect: dict[str, Any] = field(compare=False)


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


# ---------------------------------------------------------------------------
# lemma-corpus
# ---------------------------------------------------------------------------

# (lemma, t, m, r, sigma, trials): fewer trials per invocation at larger t,
# so every item costs 5-15 ms.
LEMMA_CLASSES = (
    ("pinsker", 16, 1, 0, 2, 1),
    ("kl", 16, 2, 0, 2, 1),
    ("vajda", 16, 3, 0, 2, 1),
    ("pinsker", 14, 3, 2, 2, 2),
    ("kl", 14, 4, 1, 2, 1),
    ("vajda", 12, 2, 1, 2, 4),
    ("pinsker", 10, 4, 2, 2, 7),
    ("kl", 11, 2, 2, 2, 5),
    ("vajda", 13, 1, 2, 2, 2),
    ("kl", 10, 3, 0, 3, 1),
    ("vajda", 8, 4, 0, 4, 1),
    ("kl", 8, 2, 0, 4, 1),
    ("vajda", 10, 2, 0, 3, 1),
)
LEMMA_ROUNDS = 160


def lemma_rounds(seed: int, workdir: Path) -> list[list[Item]]:
    seeds = iter(_seeds(seed, 1, LEMMA_ROUNDS * len(LEMMA_CLASSES)))
    rounds = []
    for _ in range(LEMMA_ROUNDS):
        row = []
        for lemma, t, m, r, sigma, trials in LEMMA_CLASSES:
            s = next(seeds)
            argv = ["verify-lemma", lemma, "--t", str(t), "--m", str(m), "--r", str(r)]
            if sigma != 2:
                argv += ["--sigma", str(sigma)]
            argv += ["--trials", str(trials), "--seed", str(s)]
            expect = {"lemma": lemma, "t": t, "m": m, "r": r, "sigma": sigma, "trials": trials, "seed": s}
            row.append(Item(f"{lemma}-t{t}-m{m}-r{r}-s{sigma}", tuple(argv), expect))
        rounds.append(row)
    return rounds


# ---------------------------------------------------------------------------
# random tournaments
# ---------------------------------------------------------------------------

# Item sizes cycle through a spread of costs instead of sitting in one tier.
# The machine this was tuned on switches between speed states about 1.4x
# apart for tens of seconds at a time; over items of one cost, the median
# then jumps between the states, while over a spread of costs it moves
# smoothly with the share of time spent in each.  The cycle order keeps
# every prefix of a cycle near the cycle's mean cost, so a run that stops
# inside a cycle is not biased.

# One round per entry: (k=4, |V|) and (k=3, |V|), 136k-488k and 143k-341k
# edges in the first greedy step, about 0.2-0.7 s each.
DOMSET_CYCLE = (((4, 52), (3, 112)), ((4, 44), (3, 96)), ((4, 60), (3, 128)), ((4, 48), (3, 104)), ((4, 56), (3, 120)))
DOMSET_ROUNDS = 40


def domset_rounds(seed: int, workdir: Path) -> list[list[Item]]:
    seeds = iter(_seeds(seed, 2, DOMSET_ROUNDS * 2))
    rounds = []
    for r in range(DOMSET_ROUNDS):
        row = []
        for k, nv in DOMSET_CYCLE[r % len(DOMSET_CYCLE)]:
            s = next(seeds)
            argv = ("tournament", "--random", "--num-vertices", str(nv), "--t", str(k), "--seed", str(s))
            row.append(Item(f"k{k}-v{nv}", argv, {"k": k, "num_vertices": nv, "seed": s}))
        rounds.append(row)
    return rounds


# ---------------------------------------------------------------------------
# OR audits
# ---------------------------------------------------------------------------

# One round per entry: an ideal-or audit at t=4 on an n=6 language with the
# given member count (30-38 no-instances: 27k-74k edges, about 0.2-0.5 s)
# and a noisy-or:1/8,1/8 audit at t=16 on a half-full language of the given
# length (n=9 about 0.2 s, n=10 about 0.6 s, mostly exact-distance queries).
# The member counts are fixed, so tournament sizes do not depend on the seed.
AUDIT_OR_CYCLE = ((30, 10), (34, 9), (26, 10), (32, 9), (28, 10))
AUDIT_OR_ROUNDS = 40


def random_language(n: int, members: int, rng: np.random.Generator) -> list[int]:
    """Sorted members of a seeded language with exactly `members` of the 2**n strings."""
    return sorted(int(i) for i in rng.choice(2**n, size=members, replace=False))


def write_language(path: Path, n: int, members: list[int]) -> None:
    """Language file in the CLI's format: hex-encoded members, ceil(n/4) digits."""
    width = (n + 3) // 4
    path.write_text(json.dumps({"n": n, "yes": [format(v, f"0{width}x") for v in members]}), encoding="ascii")


def audit_or_rounds(seed: int, workdir: Path) -> list[list[Item]]:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    rounds = []
    for r in range(AUDIT_OR_ROUNDS):
        ideal_members, noisy_n = AUDIT_OR_CYCLE[r % len(AUDIT_OR_CYCLE)]
        row = []
        for cls, n, t, comp, count in (
            (f"ideal-or-n6-y{ideal_members}", 6, 4, "ideal-or", ideal_members),
            (f"noisy-or-n{noisy_n}", noisy_n, 16, "noisy-or:1/8,1/8", 2 ** (noisy_n - 1)),
        ):
            members = random_language(n, count, rng)
            path = workdir / f"{r:03d}-{cls}.json"
            write_language(path, n, members)
            argv = ("reduce", "--language", path.as_posix(), "--compression", comp, "--t", str(t), "--audit")
            expect = {"n": n, "t": t, "yes": len(members), "no": 2**n - len(members)}
            row.append(Item(cls, argv, expect))
        rounds.append(row)
    return rounds


# ---------------------------------------------------------------------------
# symmetric-function audits
# ---------------------------------------------------------------------------

VIEW_NAMES = ("f", "1-f", "f(t-i)", "1-f(t-i)")


def pivot_view(values: tuple[int, ...]) -> tuple[str, int]:
    """(view name, pivot) chosen by the paper's four symmetries.

    A view steps up at i when its values read 0 at count i and 1 at i+1.
    A step at count 0 in any view wins first, in the order identity,
    complement, reversal, complemented reversal; otherwise the first view in
    that order with a step at some i <= t/2 wins, at its smallest such i.
    """
    t = len(values) - 1
    comp = tuple(1 - v for v in values)
    views = (values, comp, values[::-1], comp[::-1])
    for name, g in zip(VIEW_NAMES, views):
        if g[0] == 0 and g[1] == 1:
            return name, 0
    for name, g in zip(VIEW_NAMES, views):
        for i in range(1, t // 2 + 1):
            if g[i] == 0 and g[i + 1] == 1:
                return name, i
    raise ValueError(f"constant value vector {values} has no pivot")


def source_yes_count(n: int, t: int) -> int:
    """Yes-instances of the source language that `fcomp --audit` builds.

    The CLI audits a fixed language whose pivot-view source side holds the
    first min(max(t+1, 2**(n-1)), 2**n - 2) strings of length n.
    """
    return min(max(t + 1, 2 ** (n - 1)), 2**n - 2)


# class -> (t, n), one item of each per round: 0.25-0.35 s at t=4, n=5 and
# 0.44-0.49 s at t=3, n=6, depending on the vector.  Only value vectors
# whose pivot is 0 are used, so every audited tournament has edge size t;
# vectors with a higher pivot audit edges of size t-1 or less and cost an
# order of magnitude less.
SYMMETRIC_CLASSES = {"t4-n5": (4, 5), "t3-n6": (3, 6)}
SYMMETRIC_ROUNDS = 40


def pivot_zero_functions(t: int) -> list[str]:
    out = []
    for bits in itertools.product((0, 1), repeat=t + 1):
        if len(set(bits)) == 2 and pivot_view(bits)[1] == 0:
            out.append("".join(map(str, bits)))
    return out


def symmetric_rounds(seed: int, workdir: Path) -> list[list[Item]]:
    rng = np.random.default_rng([seed, 4])
    orders = {}
    for cls, (t, _) in SYMMETRIC_CLASSES.items():
        funcs = pivot_zero_functions(t)
        orders[cls] = [funcs[i] for i in rng.permutation(len(funcs))]
    used = {cls: 0 for cls in SYMMETRIC_CLASSES}
    rounds = []
    for _ in range(SYMMETRIC_ROUNDS):
        row = []
        for cls, (t, n) in SYMMETRIC_CLASSES.items():
            values = orders[cls][used[cls] % len(orders[cls])]
            used[cls] += 1
            argv = ("fcomp", "--f", values, "--t", str(t), "--n", str(n), "--audit")
            yes = source_yes_count(n, t)
            expect = {"values": values, "t": t, "n": n, "yes": yes, "no": 2**n - yes}
            row.append(Item(cls, argv, expect))
        rounds.append(row)
    return rounds


# ---------------------------------------------------------------------------
# tournament-audit: the three tournament item kinds in one workload
# ---------------------------------------------------------------------------


def tournament_audit_rounds(seed: int, workdir: Path) -> list[list[Item]]:
    """Rounds of [random k=4, ideal-or, fcomp t=4, random k=3, noisy-or, fcomp t=3].

    One workload instead of three: on a machine whose speed moves by tens of
    percent over tens of seconds, the runs the benchmark can afford are only
    long enough to average that out with two workloads.  The per-class
    quartiles in every run's details still separate the three kinds.
    """
    parts = (domset_rounds(seed, workdir), audit_or_rounds(seed, workdir), symmetric_rounds(seed, workdir))
    return [[item for pair in zip(*(part[r] for part in parts)) for item in pair] for r in range(len(parts[0]))]


# name -> round maker; BENCHMARK.json and the README say why each was chosen
WORKLOADS: dict[str, Callable[[int, Path], list[list[Item]]]] = {
    "lemma-corpus": lemma_rounds,
    "tournament-audit": tournament_audit_rounds,
}


# Small items run once during set-up: they load what the first call of
# each subcommand loads, at a fraction of an item's cost, so set-up time
# stays set-up and not one more item.
WARMUP: dict[str, tuple[tuple[str, ...], ...]] = {
    "lemma-corpus": (("verify-lemma", "kl", "--t", "6", "--m", "2", "--r", "1", "--trials", "2"),),
    "tournament-audit": (
        ("tournament", "--random", "--num-vertices", "16", "--t", "3"),
        ("reduce", "--language", "builtin:random", "--n", "5", "--compression", "noisy-or:1/8,1/8", "--t", "4", "--audit"),
        ("fcomp", "--f", "0110", "--t", "3", "--n", "5", "--audit"),
    ),
}


def input_dir(root: Path, workload: str, seed: int) -> Path:
    return root / RUNS_DIR / f"inputs-{workload}-s{seed}"


def make_rounds(workload: str, seed: int, root: Path) -> list[list[Item]]:
    return WORKLOADS[workload](seed, input_dir(root, workload, seed))


def main() -> None:
    parser = argparse.ArgumentParser(description="write a workload's inputs and list its items")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for k, row in enumerate(make_rounds(args.workload, args.seed, Path())):
        for item in row:
            print(f"round {k:3d}  {item.cls:24s}  compresslab {' '.join(item.argv)}")


if __name__ == "__main__":
    main()
