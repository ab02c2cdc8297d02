#!/usr/bin/env python3
"""compresslab benchmark: workloads of in-process CLI invocations.

Run from the root of a checkout (the program is imported from ./src):

    python3 bench/run.py --workload lemma-corpus --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --seed 1 --seconds 50          # every workload, one process each

One item is one `compresslab.cli.main(argv)` call whose NDJSON output is
captured in memory and checked (see checks.py).  A run repeats whole rounds
of its workload (workloads.py) until --seconds have passed.  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run (tracing.py), whose untraced and
traced rounds alternate over the same items so that the tracing overhead is
measured on identical work.  The run's details, with the machine-speed
reference loop, go to the line before the result and to .bench_runs/,
where a traced run also writes its spans.
"""

from __future__ import annotations

import os

# one thread everywhere: items are single-threaded, and so is numpy here
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import compresslab from ./src of the checkout, or exit without a result."""
    package = ROOT / "src" / "compresslab"
    if "compresslab.cli" in sys.modules:
        return sys.modules["compresslab.cli"].main
    if not (package / "cli.py").is_file():
        sys.exit(f"bench: {package} not found; run from the root of a compresslab checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import compresslab.cli

    if Path(compresslab.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: compresslab was imported from {compresslab.cli.__file__}, not from {package}")
    return compresslab.cli.main


def run_item(main, argv, tracer=None):
    """One CLI invocation: (exit code or exception text, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = tracer.run_item(main, list(argv)) if tracer else main(list(argv))
        except Exception:  # an item that crashes is a failed operation, not a crashed run
            rc = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
    if rc != 0 and isinstance(rc, int):
        rc = f"exit code {rc}: {err.getvalue().strip()[:300]}"
    return rc, dt, out.getvalue()


def reference_loop() -> float:
    """Milliseconds for a fixed pure-Python loop: a machine-speed reference."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    return (time.perf_counter() - t0) * 1000.0


def setup(workload: str, seed: int):
    """Imports, input generation and small warm-up items; returns (main, rounds)."""
    main = import_program()
    import checks  # noqa: F401  (part of the import cost of every run)
    import workloads

    # relative input paths: the reports echo them, and must not depend on where the checkout is
    rounds = workloads.make_rounds(workload, seed, Path())
    for argv in workloads.WARMUP[workload]:
        run_item(main, argv)
    return main, rounds


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only set up, from spawn to exit."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: Popen.wait polls in steps of up to 50 ms when given one
        code = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
        ).wait()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            sys.exit(f"bench: set-up probe exited with code {code}")
    return samples


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    main, rounds = setup(workload, seed)
    from checks import check_item
    from tracing import PER_LAYER, Tracer

    setup_samples = measure_setup(workload, seed)
    tracer = Tracer() if trace else None
    item_ms: list[float] = []
    by_class: dict[str, list[float]] = {}
    round_ms = {False: 0.0, True: 0.0}
    ref_ms: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    problems: list[str] = []
    report_bytes = 0
    t_end = time.perf_counter() + seconds
    r = 0
    while True:
        # a traced run repeats each round, untraced then traced
        traced = trace and r % 2 == 1
        row = rounds[(r // 2 if trace else r) % len(rounds)]
        spent = 0.0
        for item in row:
            ref_ms.append(reference_loop())
            rc, dt, stdout = run_item(main, item.argv, tracer if traced else None)
            attempted += 1
            spent += dt
            if not traced:
                item_ms.append(dt * 1000.0)
                by_class.setdefault(item.cls, []).append(dt * 1000.0)
            if rc != 0:
                failed += 1
                failures.append(f"{item.cls} {' '.join(item.argv)}: {rc}")
                continue
            found = check_item(item, stdout)
            problems += [f"{item.cls} {' '.join(item.argv)}: {p}" for p in found]
            if traced:
                report_bytes += len(stdout.encode())
        round_ms[traced] += spent * 1000.0
        r += 1
        if time.perf_counter() >= t_end and (not trace or r % 2 == 0):
            break

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "problems": problems[:20],
        "setup_samples_s": setup_samples,
        "reference_loop_ms": quartiles(ref_ms),
        "classes_ms": {cls: quartiles(v) for cls, v in sorted(by_class.items())},
    }
    if trace:
        overhead = (round_ms[True] / round_ms[False] - 1.0) * 100.0
        metrics = tracer.metrics(report_bytes, overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        detail["untraced_vs_traced_ms"] = [round_ms[False], round_ms[True]]
        trace_path = ROOT / ".bench_runs" / f"trace-{workload}-s{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.dump()))
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            # items over their summed time: a mean averages over the machine's
            # fast and slow spells, where a median of rounds jumps between them
            "items_per_s": len(item_ms) * 1000.0 / sum(item_ms),
            "item_ms_p50": statistics.median(item_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail_path = ROOT / ".bench_runs" / f"run-{workload}-s{seed}-trace{int(trace)}.json"
    detail_path.parent.mkdir(parents=True, exist_ok=True)
    detail_path.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    return {"detail": detail, "result": result}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after the other; prints a table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.4f} {m['unit']}")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; every workload when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_program()
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
