#!/usr/bin/env python3
"""Reference figures: the ROADMAP baselines measured through this harness.

Run from the root of a checkout:

    python3 bench/reference.py

Each configuration runs three times untraced (median wall time, next to the
median of the machine-speed reference loop taken before each run) and once
traced, for the work counts.  Prints one line per configuration.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

import run
from tracing import Tracer
from workloads import RUNS_DIR, random_language, write_language

REPEATS = 3


def language_file(n: int, seed: int) -> str:
    path = Path(RUNS_DIR) / "reference" / f"half-n{n}-s{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_language(path, n, random_language(n, 2 ** (n - 1), np.random.default_rng([seed, n])))
    return path.as_posix()


def configs() -> list[tuple[str, list[str]]]:
    audit = ["--compression", "ideal-or", "--t", "4", "--audit"]
    return [
        ("ideal-or audit t=4 n=6", ["reduce", "--language", language_file(6, 1), *audit]),
        ("ideal-or audit t=4 n=7", ["reduce", "--language", language_file(7, 1), *audit]),
        ("noisy-or audit t=16 n=10", ["reduce", "--language", language_file(10, 1), "--compression",
                                      "noisy-or:1/8,1/8", "--t", "16", "--audit"]),
        ("greedy |V|=64 k=4", ["tournament", "--random", "--num-vertices", "64", "--t", "4", "--seed", "1"]),
        ("greedy |V|=128 k=3", ["tournament", "--random", "--num-vertices", "128", "--t", "3", "--seed", "1"]),
        ("fcomp audit t=4 n=6", ["fcomp", "--f", "01010", "--t", "4", "--n", "6", "--audit"]),
    ]


def main() -> None:
    cli_main = run.import_program()
    header = ("configuration", "median_s", "ref_ms", "selector_calls", "edges_scanned",
              "subset_laws", "sd_calls", "queries", "greedy_steps")
    print("  ".join(header))
    for label, argv in configs():
        seconds, ref = [], []
        for _ in range(REPEATS):
            ref.append(run.reference_loop())
            rc, dt, _ = run.run_item(cli_main, argv)
            if rc != 0:
                raise SystemExit(f"{label}: {rc}")
            seconds.append(dt)
        tracer = Tracer()
        run.run_item(cli_main, argv, tracer)
        m = tracer.metrics(report_bytes=0, overhead_pct=0.0)
        counts = [m[k] for k in ("tournament.selector_calls", "tournament.edges_scanned",
                                 "compression.subset_law_calls", "distributions.sd_calls",
                                 "reduction.queries", "tournament.greedy_steps")]
        print(f"{label}  {statistics.median(seconds):.3f}  {statistics.median(ref):.3f}  "
              + "  ".join(str(int(c)) for c in counts))


if __name__ == "__main__":
    main()
