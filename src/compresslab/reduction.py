"""End-to-end reduction from a toy language to statistical-distance queries.

One promise gap (Delta, delta) of the statistical-distance problem serves
the whole reduction (:class:`PromiseGap`, defaults from :func:`promise_gap`).
The advice for one input length is built under it (:func:`build_advice`):
a dominating set of the tournament on the no-instances, whose selector runs
at delta, or the no-instance list itself when it is small.  The advice
carries its gap and its compression, so :func:`decide` reads everything it
asks from the advice alone, at the delta the advice was built at.  To
decide an input v, the algorithm rejects when the list holds v or an advice
member contains it, and otherwise asks, for every member g, whether the
output laws of the compression on a random subset of g with and without v
are far apart.
One-yes sets keep the laws at distance at least 1 - (e_s + e_c), while a
dominating member of a no-instance keeps them within the selector
threshold, so the conjunction of oracle answers decides membership exactly.
The query for member g and input v compares the pair of laws the selector
compared for v in the edge g + (v,) (``conditioned_keys``), so a dominated
no-instance lands on the NO side.  The block (t log t) variant is the same
procedure on a :class:`BlockCompression`.  An exhaustive audit decides one
input per class of the compression (:func:`audit_language`).

Queries are non-adaptive: the query list is a pure function of the input
and the advice, and the verdict is the conjunction of the answers.  Every
law in a query is exact (rational masses from the compression's counts), so
distances and promise tags are exact too; there is no float mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Literal

import numpy as np

from .compression import BlockCompression, SetEncodedCompression, ToyLanguage, bits_label, one_class
from .distributions import FiniteDistribution, statistical_distance
from .sensitivity import pinsker_threshold
from .tournament import DominatingSet, InvariantError, greedy_dominating_set, selector_from_compression

Number = Fraction | float
Oracle = Callable[["SDQuery"], bool]


@dataclass(frozen=True)
class PromiseGap:
    """The promise of the statistical-distance problem.

    Pairs at distance >= Delta are YES instances, pairs at distance <= delta
    NO instances.  The gap must be non-empty, 0 <= delta < Delta <= 1, and
    is checked here, once, when it is built (NaN bounds fail the check).
    """

    Delta: Number
    delta: Number

    def __post_init__(self):
        if not (0 <= self.delta < self.Delta <= 1):
            raise ValueError(
                f"empty promise gap: need 0 <= delta < Delta <= 1, got delta={self.delta}, Delta={self.Delta}"
            )

    @cached_property
    def midpoint(self) -> Fraction:
        """(Delta + delta) / 2 as an exact Fraction; a float midpoint, from
        a float bound, is converted exactly, so comparisons with it are the
        float's."""
        return Fraction((self.Delta + self.delta) / 2)


@dataclass(frozen=True)
class SDQuery:
    """One statistical-distance query under a promise gap.

    The tag classifies the pair: YES at distance >= Delta, NO at distance
    <= delta, GAP in between (no promise, the oracle may answer either way).
    """

    left: FiniteDistribution
    right: FiniteDistribution
    gap: PromiseGap

    @cached_property
    def distance(self) -> Fraction:
        return statistical_distance(self.left, self.right)

    @cached_property
    def promise_tag(self) -> str:
        if self.distance >= self.gap.Delta:
            return "YES"
        if self.distance <= self.gap.delta:
            return "NO"
        return "GAP"


def exact_sd_oracle(query: SDQuery) -> bool:
    """Thresholds the exact distance at the midpoint of the promise gap.

    Answers true on every YES-side query and false on every NO-side query,
    which is all the reduction's correctness uses; ties go up.
    """
    return query.distance >= query.gap.midpoint


# ---------------------------------------------------------------------------
# advice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Advice:
    """Per-input-length advice, with the promise gap and the compression it
    was built at.

    FULL_V advice lists every no-instance (used when there are at most
    edge-size many); DOMSET advice carries the greedy dominating set of the
    tournament of ``compression`` on the no-instances, whose selector ran at
    ``gap.delta``.  Instances are n-bit vertex ids.
    """

    n: int
    gap: PromiseGap
    compression: SetEncodedCompression = field(repr=False)
    vertices: tuple[int, ...] = ()
    dominating: DominatingSet | None = None

    @property
    def mode(self) -> Literal["DOMSET", "FULL_V"]:
        return "FULL_V" if self.dominating is None else "DOMSET"

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return () if self.dominating is None else self.dominating.elements

    @property
    def size(self) -> int:
        return len(self.vertices) if self.dominating is None else self.dominating.size

    @cached_property
    def rejected(self) -> frozenset[int]:
        """The inputs rejected without queries: the listed no-instances of
        FULL_V advice, the ids inside some member of DOMSET advice."""
        return frozenset(self.vertices).union(*self.elements)

    @cached_property
    def query_memo(self) -> dict[tuple[FiniteDistribution, FiniteDistribution], SDQuery]:
        """The queries asked under this advice, keyed by their pair of laws,
        so that equal queries are one object (:func:`queries_for`)."""
        return {}


def promise_gap(
    a: SetEncodedCompression,
    edge_size: int,
    Delta: Number | None = None,
    delta: Number | None = None,
) -> PromiseGap:
    """The reduction's promise gap, filling in the defaults.

    Delta defaults to 1 - (e_s + e_c), the distance every one-yes set keeps;
    delta to the noise-sensitivity ceiling sqrt(2 ln 2 * m/t) at which the
    selector runs.
    """
    return PromiseGap(
        1 - (a.e_s + a.e_c) if Delta is None else Delta,
        pinsker_threshold(a.output_bits, edge_size) if delta is None else delta,
    )


def build_advice(
    language: ToyLanguage,
    a: SetEncodedCompression,
    edge_size: int | None = None,
    gap: PromiseGap | None = None,
) -> Advice:
    """Advice for the base reduction: dominate the no-instances.

    With at most edge_size no-instances the list itself is the advice.
    Otherwise the tournament selector runs at exactly ``gap.delta`` (the
    gap defaults as in :func:`promise_gap`) and the greedy dominating set
    becomes the advice.  Either way the advice carries the gap and ``a``.
    """
    t = a.arity if edge_size is None else edge_size
    gap = promise_gap(a, t) if gap is None else gap
    no_instances = language.no_instances()
    if len(no_instances) <= t:
        return Advice(language.n, gap, a, vertices=tuple(no_instances.tolist()))
    tournament = selector_from_compression(a, no_instances, t, gap.delta, language.n)
    dom = greedy_dominating_set(tournament)
    if dom.size > t * 2 * language.n:
        raise InvariantError("advice grew past the polynomial guardrail")
    return Advice(language.n, gap, a, dominating=dom)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


def queries_for(v: int, advice: Advice) -> list[SDQuery]:
    """The query batch for one input: one query per advice member g, on the
    laws of :meth:`SetEncodedCompression.conditioned_keys` (g, v) of the
    advice's compression, the pair the selector compared for v in the edge
    g + (v,), under the advice's gap.

    Pure in (v, advice); oracle answers never influence it.  Members
    containing v produce no queries (the decision rejects beforehand).
    Equal queries are one object, across every call on the same advice
    (:attr:`Advice.query_memo`), so each distinct distance is computed once.
    The laws themselves are memoised by the compression.
    """
    a, gap, memo = advice.compression, advice.gap, advice.query_memo
    queries = []
    for g in advice.elements:
        left, right = map(a.law, a.conditioned_keys(g, v))
        q = memo.get((left, right))
        if q is None:
            q = memo[left, right] = SDQuery(left, right, gap)
        queries.append(q)
    return queries


def decide(v: int, advice: Advice, oracle: Oracle = exact_sd_oracle) -> tuple[bool, list[SDQuery]]:
    """The decision procedure: the verdict on one input and its query batch.

    v is rejected with an empty batch, calling no oracle, when it is in
    :attr:`Advice.rejected`.  Otherwise v is accepted exactly when the oracle
    affirms every query of its batch (:func:`queries_for`); FULL_V advice
    has no members, so its batch is empty and every other input is accepted.
    """
    if not 0 <= v < 2**advice.n:
        raise ValueError(f"input {v} is not an id of the advice length {advice.n}")
    if v in advice.rejected:
        return False, []
    batch = queries_for(v, advice)
    return all(oracle(q) for q in batch), batch


# ---------------------------------------------------------------------------
# exhaustive audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Exhaustive comparison of the reduction against the membership table.

    Mismatches are the misjudged inputs' ids, written as n-bit strings in JSON.
    """

    n: int
    t: int
    mode: str
    agreement: float
    advice_size: int
    advice_mode: str
    query_tags: dict[str, int]
    Delta: float
    delta: float
    mismatches: tuple[int, ...] = ()

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
            "mismatches": [bits_label(v, self.n) for v in self.mismatches],
        }


def audit_language(
    language: ToyLanguage,
    a: SetEncodedCompression,
    edge_size: int | None = None,
    Delta: Number | None = None,
    delta: Number | None = None,
    block_size: int | None = None,
    oracle: Oracle = exact_sd_oracle,
) -> AuditReport:
    """Build advice once, decide every input of the length, tally tags.

    When every advice member falls in one input class
    (:meth:`SetEncodedCompression.forced_class`, :func:`one_class`), inputs
    are grouped into classes that provably share their verdict and query
    batch: the inputs the advice rejects outright (:attr:`Advice.rejected`),
    and the others by class.  Hit bits make three classes, held as one int8
    label per input and found by masks, with no sort and no array of ids.
    Each class is decided once, by :func:`decide` on its least input, and
    its batch's tags are counted once per input, so a hit-count audit, base
    or block, costs two query batches, and its verdicts, gathered by label,
    meet the membership vector in one array comparison.  Without classes,
    or with a member of both classes, each input is decided on its own.
    This treats the oracle as a function of the query, as the advice's
    query memo already does: an oracle whose answer depends on anything
    else gets one answer per class, not per input.

    A block size selects block ("tlogt") mode: the same audit on
    ``BlockCompression(a, block_size)``, with edges of edge_size blocks and
    the classes of a.  The promise gap defaults as in
    :func:`promise_gap`, but block mode needs an explicit delta.  An empty
    gap raises "empty promise gap" before the advice is built.
    Agreement below 1.0 on a compression within its error budget indicates
    a bug, not noise: every law, distance and tag here is an exact rational
    (only the reported agreement, Delta and delta are converted to floats).
    """
    t = a.arity if edge_size is None else edge_size
    if block_size is not None and delta is None:
        raise ValueError("block mode needs an explicit delta below 1")
    gap = promise_gap(a, t, Delta, delta)
    if block_size is not None:
        a = BlockCompression(a, block_size)
    advice = build_advice(language, a, t if block_size is None else t * block_size, gap)

    tags = {"yes": 0, "no": 0, "gap": 0}

    def verdict(v: int, size: int) -> bool:
        accept, batch = decide(v, advice, oracle)
        for q in batch:
            tags[q.promise_tag.lower()] += size
        return accept

    total = language.member.size
    classes = a.forced_class()
    if classes is None or not all(one_class(classes, g) for g in advice.elements):
        predicted = np.array([verdict(v, 1) for v in range(total)], dtype=bool)
    else:
        # label 0: rejected outright; 1 + c: the other inputs of class c
        label = classes.view(np.int8) + np.int8(1)
        label[list(advice.rejected)] = 0
        verdicts = np.zeros(3, dtype=bool)
        for c in range(3):
            mask = label == c
            size = int(np.count_nonzero(mask))
            if size:
                verdicts[c] = verdict(int(mask.argmax()), size)
        predicted = verdicts[label]
    mismatches = np.flatnonzero(predicted != language.member)
    return AuditReport(
        n=language.n,
        t=t,
        mode="base" if block_size is None else "tlogt",
        agreement=(total - len(mismatches)) / total,
        advice_size=advice.size,
        advice_mode=advice.mode,
        query_tags=tags,
        Delta=float(gap.Delta),
        delta=float(gap.delta),
        mismatches=tuple(mismatches.tolist()),
    )
