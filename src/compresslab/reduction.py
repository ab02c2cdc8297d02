"""End-to-end reduction from a toy language to statistical-distance queries.

The advice for one input length is a dominating set of the tournament on
the no-instances (or the no-instance list itself when it is small).  To
decide an input v, the algorithm rejects when v lies inside an advice
member and otherwise asks, for every member g, whether the output laws of
the compression on a random subset of g with and without v are far apart.
One-yes sets keep the laws at distance at least 1 - (e_s + e_c), while a
dominating member of a no-instance keeps them within the selector
threshold, so the conjunction of oracle answers decides membership exactly.

Queries are non-adaptive: the query list is a pure function of the input
and the advice, and the verdict is the conjunction of the answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Literal

from .compression import SetEncodedCompression, ToyLanguage, canonical_set
from .distributions import FiniteDistribution, statistical_distance
from .sensitivity import pinsker_threshold
from .tournament import (
    DominatingSet,
    InvariantError,
    block_conditioned_distributions,
    block_tournament,
    greedy_dominating_set,
    partition_blocks,
    selector_from_compression,
)

Number = Fraction | float
Oracle = Callable[["SDQuery"], bool]


@dataclass(frozen=True)
class SDQuery:
    """One statistical-distance promise query.

    The promise gap requires 0 <= delta < Delta <= 1.  The tag classifies
    the pair: YES at distance >= Delta, NO at distance <= delta, GAP in
    between (no promise, the oracle may answer either way).
    """

    left: FiniteDistribution
    right: FiniteDistribution
    Delta: Number
    delta: Number

    def __post_init__(self):
        if not (0 <= self.delta < self.Delta <= 1):
            raise ValueError(
                f"empty promise gap: need 0 <= delta < Delta <= 1, got "
                f"delta={self.delta}, Delta={self.Delta}"
            )

    @cached_property
    def distance(self) -> Number:
        return statistical_distance(self.left, self.right)

    @property
    def promise_tag(self) -> str:
        if self.distance >= self.Delta:
            return "YES"
        if self.distance <= self.delta:
            return "NO"
        return "GAP"


def exact_sd_oracle(query: SDQuery) -> bool:
    """Thresholds the exact distance at the midpoint of the promise gap.

    Answers true on every YES-side query and false on every NO-side query,
    which is all the reduction's correctness uses; ties go up.
    """
    return query.distance >= (query.Delta + query.delta) / 2


def threshold_oracle(theta: Number) -> Oracle:
    """Oracle answering true at distance >= theta; valid for theta in (delta, Delta]."""

    def oracle(query: SDQuery) -> bool:
        return query.distance >= theta

    return oracle


# ---------------------------------------------------------------------------
# advice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Advice:
    """Per-input-length advice: a dominating set or the full no-instance list.

    FULL_V mode lists every no-instance (used when there are at most
    edge_size of them); DOMSET mode carries the greedy dominating set of the
    tournament on the no-instances.
    """

    n: int
    mode: Literal["DOMSET", "FULL_V"]
    edge_size: int
    vertices: tuple[str, ...] = ()
    dominating: DominatingSet | None = None
    block_size: int = field(default=0)

    @property
    def elements(self) -> tuple[tuple[str, ...], ...]:
        if self.mode == "FULL_V":
            return ()
        if self.dominating is None:
            raise InvariantError("DOMSET advice without a dominating set")
        return self.dominating.elements

    @property
    def size(self) -> int:
        return len(self.vertices) if self.mode == "FULL_V" else len(self.elements)


def build_advice(
    language: ToyLanguage,
    a: SetEncodedCompression,
    edge_size: int | None = None,
    delta: float | None = None,
) -> Advice:
    """Advice for the base reduction: dominate the no-instances.

    With at most edge_size no-instances the list itself is the advice.
    Otherwise the tournament selector runs at threshold delta (default:
    the noise-sensitivity ceiling sqrt(2 ln 2 * m/t)) and the greedy
    dominating set becomes the advice.
    """
    t = a.arity if edge_size is None else edge_size
    if delta is None:
        delta = pinsker_threshold(a.output_bits, t)
    no_instances = language.no_instances()
    if len(no_instances) <= t:
        return Advice(language.n, "FULL_V", t, vertices=no_instances)
    tournament = selector_from_compression(a, no_instances, t, delta)
    dom = greedy_dominating_set(tournament)
    if dom.size > t * 2 * language.n:
        raise InvariantError("advice grew past the polynomial guardrail")
    return Advice(language.n, "DOMSET", t, dominating=dom)


def build_block_advice(
    language: ToyLanguage,
    a: SetEncodedCompression,
    num_blocks: int,
    block_size: int,
    delta: float,
) -> Advice:
    """Advice for the block variant: edges are block_size * num_blocks subsets."""
    if a.coin_bits != 0 or a.e_s != 0 or a.e_c != 0:
        raise ValueError("the block reduction needs a deterministic, exact compression")
    edge_size = num_blocks * block_size
    no_instances = language.no_instances()
    if len(no_instances) <= edge_size:
        return Advice(language.n, "FULL_V", edge_size, vertices=no_instances, block_size=block_size)
    tournament = block_tournament(a, no_instances, num_blocks, block_size, delta)
    dom = greedy_dominating_set(tournament)
    if dom.size > num_blocks * block_size * language.n:
        raise InvariantError("advice grew past the guardrail")
    return Advice(language.n, "DOMSET", edge_size, dominating=dom, block_size=block_size)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


def queries_for(
    v: str,
    advice: Advice,
    a: SetEncodedCompression,
    Delta: Number,
    delta: Number,
    exact: bool = True,
    shared: dict[tuple, SDQuery] | None = None,
) -> list[SDQuery]:
    """The base-mode query batch for one input: one query per advice member.

    Pure in (v, advice); oracle answers never influence it.  Members
    containing v produce no queries (the decision rejects beforehand).
    Equal queries are one object: within the batch, and across every call
    that passes the same ``shared`` dict, so each distinct distance is
    computed once.
    """
    shared = {} if shared is None else shared
    queries = []
    for g in advice.elements:
        left = a.subset_output_distribution(g, exact=exact)
        right = a.subset_output_distribution(g, forced=(v,), exact=exact)
        key = (left, right, Delta, delta)
        q = shared.get(key)
        if q is None:
            q = shared[key] = SDQuery(left, right, Delta, delta)
        queries.append(q)
    return queries


def block_queries_for(
    v: str,
    advice: Advice,
    a: SetEncodedCompression,
    delta: Number,
    exact: bool = True,
) -> list[SDQuery]:
    """Block-mode query batch: condition v out of / into its block per member."""
    queries = []
    for g in advice.elements:
        blocks = partition_blocks(canonical_set(g + (v,)), advice.block_size)
        left, right = block_conditioned_distributions(a, blocks, v, exact=exact)
        queries.append(SDQuery(left, right, 1, delta))
    return queries


def _checked_input(v: str, advice: Advice) -> str:
    if len(v) != advice.n:
        raise ValueError(f"input length {len(v)} does not match advice length {advice.n}")
    return v


def decide(
    v: str,
    advice: Advice,
    a: SetEncodedCompression,
    Delta: Number | None = None,
    delta: Number | None = None,
    oracle: Oracle = exact_sd_oracle,
    exact: bool = True,
) -> bool:
    """Accept/reject one input using the advice and the distance oracle.

    FULL_V advice rejects exactly the listed no-instances.  DOMSET advice
    rejects when v lies inside a member (no oracle calls) and otherwise
    accepts exactly when the oracle affirms every query in the batch.
    """
    v = _checked_input(v, advice)
    if advice.mode == "FULL_V":
        return v not in advice.vertices
    if any(v in g for g in advice.elements):
        return False
    if Delta is None:
        Delta = 1 - (a.e_s + a.e_c)
    if delta is None:
        delta = pinsker_threshold(a.output_bits, advice.edge_size)
    return all(oracle(q) for q in queries_for(v, advice, a, Delta, delta, exact=exact))


def decide_tlogt(
    v: str,
    advice: Advice,
    a: SetEncodedCompression,
    delta: Number,
    oracle: Oracle = exact_sd_oracle,
    exact: bool = True,
) -> bool:
    """Block-variant decision; the compression must be deterministic and exact."""
    v = _checked_input(v, advice)
    if advice.mode == "FULL_V":
        return v not in advice.vertices
    if any(v in g for g in advice.elements):
        return False
    return all(oracle(q) for q in block_queries_for(v, advice, a, delta, exact=exact))


# ---------------------------------------------------------------------------
# exhaustive audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Exhaustive comparison of the reduction against the membership table."""

    n: int
    t: int
    mode: str
    agreement: float
    advice_size: int
    advice_mode: str
    query_tags: dict[str, int]
    Delta: float
    delta: float
    mismatches: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "t": self.t,
            "mode": self.mode,
            "agreement": self.agreement,
            "advice_size": self.advice_size,
            "advice_mode": self.advice_mode,
            "query_tags": dict(self.query_tags),
            "Delta": self.Delta,
            "delta": self.delta,
            "mismatches": list(self.mismatches),
        }


def audit_language(
    language: ToyLanguage,
    a: SetEncodedCompression,
    edge_size: int | None = None,
    Delta: Number | None = None,
    delta: Number | None = None,
    mode: Literal["base", "tlogt"] = "base",
    block_size: int | None = None,
    oracle: Oracle = exact_sd_oracle,
    exact: bool = True,
) -> AuditReport:
    """Build advice once, decide every string of the input length, tally tags.

    Raises "empty promise gap" before any decision when delta >= Delta.
    Agreement below 1.0 on a compression within its error budget indicates
    a bug, not noise; every quantity here is exact.
    """
    if mode == "base":
        t = a.arity if edge_size is None else edge_size
        if Delta is None:
            Delta = 1 - (a.e_s + a.e_c)
        if delta is None:
            delta = pinsker_threshold(a.output_bits, t)
    else:
        if block_size is None:
            raise ValueError("block mode needs a block size")
        t = a.arity if edge_size is None else edge_size
        Delta = 1 if Delta is None else Delta
        if delta is None:
            raise ValueError("block mode needs an explicit delta below 1")
    if not (0 <= delta < Delta <= 1):
        raise ValueError(f"empty promise gap: delta={delta} must be below Delta={Delta}")

    if mode == "base":
        advice = build_advice(language, a, t, float(delta))
    else:
        advice = build_block_advice(language, a, t, block_size, float(delta))

    tags = {"yes": 0, "no": 0, "gap": 0}
    matches = 0
    mismatches = []
    shared: dict[tuple, SDQuery] = {}
    for v in language.universe():
        if advice.mode == "DOMSET" and not any(v in g for g in advice.elements):
            if mode == "base":
                batch = queries_for(v, advice, a, Delta, delta, exact=exact, shared=shared)
            else:
                batch = block_queries_for(v, advice, a, delta, exact=exact)
            for q in batch:
                tags[q.promise_tag.lower()] += 1
            verdict = all(oracle(q) for q in batch)
        elif advice.mode == "DOMSET":
            verdict = False
        else:
            verdict = v not in advice.vertices
        if verdict == language.is_yes(v):
            matches += 1
        else:
            mismatches.append(v)
    total = 2**language.n
    return AuditReport(
        n=language.n,
        t=t,
        mode=mode,
        agreement=matches / total,
        advice_size=advice.size,
        advice_mode=advice.mode,
        query_tags=tags,
        Delta=float(Delta),
        delta=float(delta),
        mismatches=tuple(mismatches),
    )
