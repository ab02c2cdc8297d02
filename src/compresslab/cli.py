"""Command-line entry point.

Four subcommands cover the laboratory: verify-lemma runs seeded corpora of
compressive maps through the inequality verifiers, tournament builds and
checks dominating sets, reduce runs the oracle reduction (single decisions
or exhaustive audits), and fcomp analyzes symmetric compressions and audits
their relaxed-OR transforms.

Reports are newline-delimited JSON with sorted keys and no timestamps, so
identical configurations produce byte-identical output.  The last line of
every report embeds the configuration.  Exit codes: 0 all checks passed,
1 invariant violation, 2 usage error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .budget import BudgetExceededError, check_enumeration
from .compression import (
    CompressiveMap,
    ToyLanguage,
    bits_label,
    ideal_or_compression,
    noisy_or_compression,
    parse_bits,
)
from .fcompression import SymmetricCompression, SymmetricFunction, find_pivot_view, transform_to_relaxed_or
from .reduction import audit_language, build_advice, decide, promise_gap
from .sensitivity import (
    LEMMA_KL_BOUND,
    LEMMA_PINSKER,
    LEMMA_VAJDA,
    pinsker_threshold,
    verify_batch,
)
from .tournament import (
    InvariantError,
    greedy_dominating_set,
    random_tournament,
    selector_from_compression,
    verify_domination,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: Cells per batch of verify-lemma trials: consecutive trials whose maps'
#: working sets (:meth:`CompressiveMap.working_cells`, the larger of a
#: map's table and its conditioned counts) together hold at most this many
#: share one count pass (:func:`verify_batch`), and a map with more runs alone.
BATCH_CELLS = 2**16


class _Report:
    """Collects JSON lines and writes them to a file or stdout."""

    def __init__(self, out: str):
        self.out = out
        self.lines: list[str] = []

    def emit(self, obj: dict[str, Any]) -> None:
        self.lines.append(json.dumps(obj, sort_keys=True))

    def flush(self) -> None:
        text = "\n".join(self.lines) + "\n"
        if self.out == "-":
            sys.stdout.write(text)
        else:
            with open(self.out, "w", encoding="ascii") as fh:
                fh.write(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _build_language(source: str, n: int, seed: int) -> ToyLanguage:
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name == "single-yes":
            return ToyLanguage(n, [2**n - 1])
        if name == "empty":
            return ToyLanguage(n, [])
        if name == "random":
            return ToyLanguage.random(n, seed)
        members = {  # by the number of ones of each id
            "full": lambda ones: ones >= 0,
            "parity": lambda ones: ones % 2 == 1,
            "majority": lambda ones: ones * 2 > n,
        }
        if name not in members:
            raise ValueError(f"unknown builtin language {name!r}")
        check_enumeration(2**n, "toy-language universe")
        ids = np.arange(2**n)
        ones = sum((ids >> b) & 1 for b in range(n))
        return ToyLanguage(n, ids[members[name](ones)])
    with open(source, encoding="ascii") as fh:
        return ToyLanguage.from_json(json.load(fh))


def _build_compression(source: str, language: ToyLanguage, t: int):
    if source == "ideal-or":
        return ideal_or_compression(language, t)
    if source.startswith("noisy-or:"):
        es_text, ec_text = source.split(":", 1)[1].split(",")
        e_s, e_c = _parse_fraction(es_text), _parse_fraction(ec_text)
        coin_bits = max(1, (e_s.denominator - 1).bit_length(), (e_c.denominator - 1).bit_length())
        for p in (e_s, e_c):
            if p.denominator & (p.denominator - 1):
                raise ValueError(f"error probability {p} is not dyadic")
        return noisy_or_compression(language, t, e_s, e_c, coin_bits)
    with open(source, encoding="ascii") as fh:
        obj = json.load(fh)
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind != "or":
        raise ValueError(f"unsupported compression kind {kind!r}")
    try:
        e_s = Fraction(*obj.get("es", [0, 1]))
        e_c = Fraction(*obj.get("ec", [0, 1]))
        coin_bits = operator.index(obj.get("coin_bits", 0))  # rejects 1.5 rather than truncate it
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed compression: {exc}") from None
    return noisy_or_compression(language, t, e_s, e_c, coin_bits)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify_lemma(args: argparse.Namespace) -> int:
    lemma = {"pinsker": LEMMA_PINSKER, "kl": LEMMA_KL_BOUND, "vajda": LEMMA_VAJDA}[args.lemma]
    sigma = args.sigma
    if args.lemma == "pinsker" and sigma != 2:
        raise ValueError("the noise-sensitivity bound is for binary alphabets; drop --sigma")
    report = _Report(args.out)
    failures = 0
    per_batch = max(1, BATCH_CELLS // CompressiveMap.working_cells(args.t, args.m, args.r, sigma))
    for lo in range(0, args.trials, per_batch):
        trials = range(lo, min(lo + per_batch, args.trials))
        # the maps die with their batch, so a map above the cap is never held with another
        seeds = [np.random.SeedSequence([args.seed, trial]) for trial in trials]
        reports = verify_batch([CompressiveMap.random(args.t, args.m, args.r, seed, sigma) for seed in seeds], lemma)
        for trial, rep in zip(trials, reports):
            line = rep.to_json()
            line["params"].update({"seed": args.seed, "trial": trial})
            report.emit(line)
            if not rep.holds():
                failures += 1
    report.emit({"config": _config(args), "instances": args.trials, "failures": failures})
    report.flush()
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def _cmd_tournament(args: argparse.Namespace) -> int:
    if args.random:
        tournament = random_tournament(args.num_vertices, args.t, args.seed)
    else:
        language = _build_language(args.language, args.n, args.seed)
        compression = _build_compression(args.compression, language, args.t)
        # a selector threshold with no promise gap around it: any number but nan
        delta = pinsker_threshold(compression.output_bits, args.t) if args.delta is None else args.delta
        if math.isnan(delta):
            raise ValueError("the selector threshold --delta must be a number, got nan")
        vertices = language.no_instances()
        if len(vertices) < args.t:
            raise ValueError(
                f"only {len(vertices)} no-instances but edges need {args.t}; "
                "no tournament to build"
            )
        tournament = selector_from_compression(compression, vertices, args.t, delta, language.n)
    dom = greedy_dominating_set(tournament)
    ok, undominated = verify_domination(tournament, dom)
    report = _Report(args.out)
    line = dom.to_json()
    line["dominates"] = ok
    line["undominated"] = [bits_label(v, dom.vertex_bits) for v in undominated]
    line["config"] = _config(args)
    report.emit(line)
    report.flush()
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_reduce(args: argparse.Namespace) -> int:
    language = _build_language(args.language, args.n, args.seed)
    compression = _build_compression(args.compression, language, args.t)
    report = _Report(args.out)
    if args.audit:
        audit = audit_language(
            language,
            compression,
            edge_size=args.t,
            Delta=args.Delta,
            delta=args.delta,
            block_size=args.sigma if args.mode == "tlogt" else None,
        )
        line = audit.to_json()
        line["config"] = _config(args)
        report.emit(line)
        report.flush()
        return EXIT_OK if audit.agreement == 1.0 else EXIT_VIOLATION
    if args.input is None:
        raise ValueError("reduce needs --audit or --input BITS")
    if args.mode != "base":
        raise ValueError("single decisions are supported in base mode only")
    v = parse_bits(args.input, language.n)
    gap = promise_gap(compression, args.t, args.Delta, args.delta)
    advice = build_advice(language, compression, args.t, gap)
    verdict, batch = decide(v, advice)
    report.emit(
        {
            "input": args.input,
            "accept": verdict,
            "member": language.is_yes(v),
            "advice_size": advice.size,
            "advice_mode": advice.mode,
            "queries": [
                {
                    "left": q.left.to_json(),
                    "right": q.right.to_json(),
                    "distance": float(q.distance),
                    "tag": q.promise_tag,
                }
                for q in batch
            ],
            "config": _config(args),
        }
    )
    report.flush()
    return EXIT_OK if verdict == language.is_yes(v) else EXIT_VIOLATION


def _cmd_fcomp(args: argparse.Namespace) -> int:
    if args.f.startswith("builtin:"):
        name = args.f.split(":", 1)[1]
        maker = {
            "or": SymmetricFunction.or_function,
            "and": SymmetricFunction.and_function,
            "majority": SymmetricFunction.majority,
            "parity": SymmetricFunction.parity,
        }.get(name)
        if maker is None:
            raise ValueError(f"unknown builtin function {name!r}")
        f = maker(args.t)
    else:
        f = SymmetricFunction.from_bits(args.f)
    view = find_pivot_view(f)
    line: dict[str, Any] = {
        "view": view.view,
        "i": view.pivot,
        "t_prime": f.t - view.pivot,
        "audit_agreement": None,
    }
    exit_code = EXIT_OK
    if args.audit:
        language = _pool_friendly_language(args.n, f.t, view.complement_source)
        base = SymmetricCompression(language, f)
        transformed = transform_to_relaxed_or(base)
        audit = audit_language(transformed.hit_language, transformed, delta=args.delta)
        line["audit_agreement"] = audit.agreement
        line["audit"] = audit.to_json()
        if audit.agreement != 1.0:
            exit_code = EXIT_VIOLATION
    report = _Report(args.out)
    line["config"] = _config(args)
    report.emit(line)
    report.flush()
    return exit_code


def _pool_friendly_language(n: int, t: int, complement_source: bool) -> ToyLanguage:
    """Language whose pivot-view source side has enough yes-instances to pool."""
    source_yes = min(max(t + 1, 2 ** (n - 1)), 2**n - 2)
    return ToyLanguage(n, np.arange(source_yes, 2**n) if complement_source else np.arange(source_yes))


def _config(args: argparse.Namespace) -> dict[str, Any]:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    for key, value in cfg.items():
        if isinstance(value, Fraction):
            cfg[key] = [value.numerator, value.denominator]
    return cfg


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves the parser as it is and every default is immutable, so
    each :func:`main` call reuses it and still gets a fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="compresslab",
        description="exact verifiers for compression sensitivity bounds and reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemma", help="run an inequality verifier over seeded random maps")
    p.add_argument("lemma", choices=["pinsker", "kl", "vajda"])
    p.add_argument("--t", type=_at_least(1), default=4, help="input arity")
    p.add_argument("--m", type=_at_least(1), default=1, help="output bits")
    p.add_argument("--r", type=_at_least(0), default=0, help="coin bits")
    p.add_argument("--sigma", type=int, default=2, help="alphabet size (kl/vajda)")
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("tournament", help="build and verify a greedy dominating set")
    p.add_argument("--random", action="store_true", help="seeded arbitrary selector")
    p.add_argument("--num-vertices", type=_at_least(1), default=16)
    p.add_argument("--language", default="builtin:single-yes")
    p.add_argument("--compression", default="ideal-or")
    p.add_argument("--n", type=_at_least(1), default=3, help="input length for language-backed runs")
    p.add_argument("--t", type=_at_least(1), default=3, help="edge size")
    p.add_argument("--delta", type=float, default=None, help="selector threshold")
    p.add_argument("--seed", type=int, default=0, help="seed of the random tournament's keys or of builtin:random")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_tournament)

    p = sub.add_parser("reduce", help="oracle reduction: single decision or full audit")
    p.add_argument("--language", default="builtin:single-yes")
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--compression", default="ideal-or")
    p.add_argument("--t", type=_at_least(1), default=4)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--Delta", type=float, default=None)
    p.add_argument("--mode", choices=["base", "tlogt"], default="base")
    p.add_argument("--sigma", type=int, default=2, help="block size in tlogt mode")
    p.add_argument("--audit", action="store_true", help="decide every input of length n")
    p.add_argument("--input", default=None, help="single input to decide")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("fcomp", help="pivot view of a symmetric compression, with audit")
    p.add_argument("--f", required=True, help="value bitstring or builtin:or|and|majority|parity")
    p.add_argument("--t", type=_at_least(1), default=4, help="arity for builtin functions")
    p.add_argument("--n", type=_at_least(1), default=3, help="toy-language input length for the audit")
    p.add_argument("--audit", action="store_true")
    p.add_argument("--delta", type=float, default=0.5, help="audit threshold")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_fcomp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(json.dumps({"error": str(exc), "kind": "budget"}), file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print(json.dumps({"error": str(exc), "kind": "invariant"}), file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
