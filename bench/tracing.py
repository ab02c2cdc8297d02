"""Traced-run instrumentation, installed from the benchmark's side only.

The tracer wraps the public functions of each compresslab module (and the
selector handed to every HypergraphTournament) for the duration of one
item, then puts the originals back.  Every wrapped call adds its count,
inclusive time and self time (inclusive minus wrapped children) to its
layer.  Calls at layer boundaries that happen a few times per item also
record a span (id, parent span, item, name, start, end), kept in memory and
written out when the run ends.  Calls that happen thousands of times per
item (selector, subset laws, statistical distance, transformed evaluation)
only add to the counts, so the span list stays small.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# (module, attribute path, layer call name, records a span)
TIMED = (
    ("compresslab.compression", "CompressiveMap.random", "compression.map", True),
    ("compresslab.compression", "CompressiveMap.conditioned_output_counts", "compression.cond_counts", True),
    ("compresslab.compression", "SetEncodedCompression.subset_output_distribution", "compression.subset_law", False),
    ("compresslab.compression", "OrCompression.subset_output_distribution", "compression.subset_law", False),
    ("compresslab.distributions", "statistical_distance", "distributions.sd", False),
    ("compresslab.sensitivity", "verify_pinsker_sensitivity", "sensitivity.pinsker", True),
    ("compresslab.sensitivity", "verify_kl_bound", "sensitivity.kl", True),
    ("compresslab.sensitivity", "verify_vajda_sensitivity", "sensitivity.vajda", True),
    ("compresslab.sensitivity", "map_input_mutual_information", "sensitivity.mutual_info", True),
    ("compresslab.tournament", "greedy_dominating_set", "tournament.greedy", True),
    ("compresslab.tournament", "verify_domination", "tournament.verify", True),
    ("compresslab.reduction", "build_advice", "reduction.advice", True),
    ("compresslab.reduction", "audit_language", "reduction.audit", True),
    ("compresslab.fcompression", "TransformedOrCompression.evaluate", "fcompression.evaluate", False),
)

# Greedy member searches; selector calls made inside them are scanned edges.
SCANS = (
    ("compresslab.tournament", "_best_member_exhaustive"),
    ("compresslab.tournament", "_best_member_sampled"),
)

# (metric, unit, better): every per-layer metric the traced run reports.
PER_LAYER = (
    ("cli.self_ms", "ms", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("compression.map_ms", "ms", "lower"),
    ("compression.cond_counts_ms", "ms", "lower"),
    ("compression.subset_law_calls", "count", "lower"),
    ("compression.subset_law_ms", "ms", "lower"),
    ("compression.evaluate_calls", "count", "lower"),
    ("distributions.sd_calls", "count", "lower"),
    ("distributions.sd_ms", "ms", "lower"),
    ("distributions.laws_built", "count", "lower"),
    ("sensitivity.pinsker_ms", "ms", "lower"),
    ("sensitivity.kl_ms", "ms", "lower"),
    ("sensitivity.vajda_ms", "ms", "lower"),
    ("sensitivity.mutual_info_ms", "ms", "lower"),
    ("tournament.selector_calls", "count", "lower"),
    ("tournament.selector_ms", "ms", "lower"),
    ("tournament.greedy_ms", "ms", "lower"),
    ("tournament.greedy_self_ms", "ms", "lower"),
    ("tournament.greedy_steps", "count", "lower"),
    ("tournament.edges_scanned", "count", "lower"),
    ("tournament.verify_ms", "ms", "lower"),
    ("tournament.nonleast_share", "ratio", "higher"),
    ("reduction.advice_ms", "ms", "lower"),
    ("reduction.decide_ms", "ms", "lower"),
    ("reduction.queries", "count", "lower"),
    ("reduction.queries_per_input_max", "count", "lower"),
    ("reduction.queries_bound_share", "ratio", "lower"),
    ("fcompression.evaluate_calls", "count", "lower"),
    ("fcompression.evaluate_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _resolve(module: str, path: str) -> tuple[Any, str] | None:
    owner: Any = sys.modules.get(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Per-layer counts, times and spans for the items of one traced run."""

    def __init__(self) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.missing: list[str] = []
        self.items = 0
        self._stack: list[list[Any]] = []  # frames: [child seconds, span id]
        self._patches: list[tuple[Any, str, Any]] = []
        self._item_id = 0
        self._next_span = 0
        self._scan_depth = 0
        self._item_qmax = 0
        self._item_vertices: tuple[int, int] | None = None
        self._bound_share = 0.0

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn: Callable, span: bool, after: Callable | None = None) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = tracer._next_span
                tracer._next_span += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                stack[-1][0] += d
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                if span:
                    tracer.spans.append((frame[1], parent, tracer._item_id, name, t0, t0 + d))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _wrap_selector(self, selector: Callable) -> Callable:
        timed = self._timed("tournament.selector", selector, span=False)
        counts = self.counts

        def wrapped(e):
            v = timed(e)
            counts["selections"] += 1
            if v != min(e):
                counts["nonleast"] += 1
            if self._scan_depth:
                counts["edges_scanned"] += 1
            return v

        return wrapped

    # -- installation ---------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        """Patch a class attribute in place, or a function in every module that imported it."""
        found = _resolve(module, path)
        if found is None:
            if path not in self.missing:
                self.missing.append(path)
            return
        owner, attr = found
        if "." in path:
            self._patch(owner, attr, make)
            return
        original = vars(owner)[attr]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "compresslab" and vars(mod).get(attr) is original:
                self._patch(mod, attr, make)

    def install(self) -> None:
        for module, path, name, span in TIMED:
            after = self._after_greedy if name == "tournament.greedy" else None
            self._patch_everywhere(module, path, lambda fn, n=name, s=span, a=after: self._timed(n, fn, s, a))
        for module, path in SCANS:
            self._patch_everywhere(module, path, self._scan_marker)
        self._patch_everywhere("compresslab.reduction", "queries_for", self._count_queries)
        self._patch_everywhere("compresslab.tournament", "selector_from_compression", self._note_vertices)
        self._patch_everywhere("compresslab.compression", "SetEncodedCompression.output_counts", self._count_evaluations)
        self._patch_everywhere("compresslab.distributions", "FiniteDistribution.__init__", self._count_laws)
        self._patch_everywhere("compresslab.tournament", "HypergraphTournament.__init__", self._selector_hook)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- count-only hooks -------------------------------------------------------

    def _after_greedy(self, result: Any, args: tuple) -> None:
        self.counts["greedy_steps"] += len(result.elements)

    def _scan_marker(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._scan_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._scan_depth -= 1

        return wrapper

    def _count_queries(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            batch = fn(*args, **kwargs)
            self.counts["queries"] += len(batch)
            self._item_qmax = max(self._item_qmax, len(batch))
            return batch

        return wrapper

    def _note_vertices(self, fn: Callable) -> Callable:
        def wrapper(a, vertices, edge_size, *args, **kwargs):
            self._item_vertices = (len(vertices), edge_size)
            return fn(a, vertices, edge_size, *args, **kwargs)

        return wrapper

    def _count_evaluations(self, fn: Callable) -> Callable:
        def wrapper(obj, *args, **kwargs):
            self.counts["evaluations"] += obj.n_coins
            return fn(obj, *args, **kwargs)

        return wrapper

    def _count_laws(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts["laws"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _selector_hook(self, init: Callable) -> Callable:
        def wrapper(obj, *args, **kwargs):
            if "selector" in kwargs:
                kwargs["selector"] = self._wrap_selector(kwargs["selector"])
            else:
                args = args[:2] + (self._wrap_selector(args[2]),) + args[3:]
            return init(obj, *args, **kwargs)

        return wrapper

    # -- items ------------------------------------------------------------------

    def run_item(self, main: Callable, argv: list[str]) -> Any:
        """Call the CLI's main under the tracer; returns its result."""
        self._item_id += 1
        self._item_qmax = 0
        self._item_vertices = None
        self._stack[:] = [[0.0, None]]
        traced_main = self._timed("cli.main", main, span=True)
        self.install()
        try:
            return traced_main(argv)
        finally:
            self.uninstall()
            self.items += 1
            if self._item_vertices and self._item_qmax:
                nv, t = self._item_vertices
                self._bound_share = max(self._bound_share, self._item_qmax / (t * math.log2(nv)))
            self.counts["queries_per_input_max"] = max(self.counts["queries_per_input_max"], self._item_qmax)

    # -- results ------------------------------------------------------------------

    def metrics(self, report_bytes: int, overhead_pct: float) -> dict[str, float]:
        n = max(self.items, 1)
        st = self.stats

        def ms(name: str, which: int = 1) -> float:
            return st[name][which] * 1000.0 / n if name in st else 0.0

        def calls(name: str) -> float:
            return st[name][0] / n if name in st else 0.0

        c = self.counts
        greedy_self = (st["tournament.greedy"][2] * 1000.0 / n) if "tournament.greedy" in st else 0.0
        return {
            "cli.self_ms": ms("cli.main", 2),
            "cli.report_bytes": report_bytes / n,
            "compression.map_ms": ms("compression.map"),
            "compression.cond_counts_ms": ms("compression.cond_counts"),
            "compression.subset_law_calls": calls("compression.subset_law"),
            "compression.subset_law_ms": ms("compression.subset_law", 2),
            "compression.evaluate_calls": c["evaluations"] / n,
            "distributions.sd_calls": calls("distributions.sd"),
            "distributions.sd_ms": ms("distributions.sd"),
            "distributions.laws_built": c["laws"] / n,
            "sensitivity.pinsker_ms": ms("sensitivity.pinsker", 2),
            "sensitivity.kl_ms": ms("sensitivity.kl", 2),
            "sensitivity.vajda_ms": ms("sensitivity.vajda", 2),
            "sensitivity.mutual_info_ms": ms("sensitivity.mutual_info", 2),
            "tournament.selector_calls": calls("tournament.selector"),
            "tournament.selector_ms": ms("tournament.selector"),
            "tournament.greedy_ms": ms("tournament.greedy"),
            "tournament.greedy_self_ms": greedy_self,
            "tournament.greedy_steps": c["greedy_steps"] / n,
            "tournament.edges_scanned": c["edges_scanned"] / n,
            "tournament.verify_ms": ms("tournament.verify"),
            "tournament.nonleast_share": c["nonleast"] / c["selections"] if c["selections"] else 0.0,
            "reduction.advice_ms": ms("reduction.advice"),
            "reduction.decide_ms": ms("reduction.audit") - ms("reduction.advice"),
            "reduction.queries": c["queries"] / n,
            "reduction.queries_per_input_max": c["queries_per_input_max"],
            "reduction.queries_bound_share": self._bound_share,
            "fcompression.evaluate_calls": calls("fcompression.evaluate"),
            "fcompression.evaluate_ms": ms("fcompression.evaluate"),
            "trace.overhead_pct": overhead_pct,
        }

    def dump(self) -> dict[str, Any]:
        """Spans (times in ms from the first span) and raw per-call-site totals."""
        origin = self.spans[0][4] if self.spans else 0.0
        return {
            "span_fields": ["id", "parent", "item", "name", "start_ms", "end_ms"],
            "spans": [
                [sid, parent, item, name, round((s - origin) * 1000, 4), round((e - origin) * 1000, 4)]
                for sid, parent, item, name, s, e in self.spans
            ],
            "calls": {k: {"calls": v[0], "incl_ms": v[1] * 1000, "self_ms": v[2] * 1000} for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "items": self.items,
            "unwrapped": self.missing,
        }
