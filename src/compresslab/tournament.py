"""Hypergraph tournaments and their greedy dominating sets.

A hypergraph tournament on a vertex set V assigns to every k-subset (edge)
one of its elements, the selected vertex.  The selector used by the
reduction machinery picks, for an edge e, the least element v whose removal
from / insertion into a random subset of e barely moves the compression's
output distribution.  Greedy construction then yields a dominating set of
(k-1)-subsets of size at most k*log2|V|: every vertex either sits inside
some member or is selected when appended to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from .budget import check_enumeration
from .compression import SetEncodedCompression, canonical_set
from .distributions import FiniteDistribution, statistical_distance

Edge = tuple[str, ...]


class InvariantError(RuntimeError):
    """A guaranteed property of the construction failed to hold.

    Raised unconditionally, also under ``python -O``; the command line maps
    it to exit code 1.
    """


class SelectorUndefinedError(InvariantError):
    """No element of a queried edge qualifies under the distance threshold.

    On edges of no-instances this signals a threshold below the guaranteed
    sensitivity ceiling, a vertex that is not actually a no-instance, or a
    compression violating its declared error bounds.
    """


class DominatingSearchError(RuntimeError):
    """The sampled search for a greedy step ran out of attempts."""


class HypergraphTournament:
    """Complete k-uniform hypergraph with one selected vertex per edge."""

    def __init__(self, vertices: Sequence[str], edge_size: int, selector: Callable[[Edge], str]):
        self.vertices = canonical_set(vertices)
        if edge_size < 1:
            raise ValueError("edge size must be at least 1")
        self.edge_size = edge_size
        self._selector = selector

    def select(self, e: Sequence[str]) -> str:
        """Selected vertex of an edge; the edge is canonicalized first."""
        e = canonical_set(e)
        if len(e) != self.edge_size:
            raise ValueError(f"edge has {len(e)} distinct vertices, expected {self.edge_size}")
        return self._select_canonical(e)

    def _select_canonical(self, e: Edge) -> str:
        # fast path for callers that already hold a sorted duplicate-free edge
        v = self._selector(e)
        if v not in e:
            raise InvariantError(f"selector returned {v!r} outside the edge")
        return v


def selector_from_compression(
    a: SetEncodedCompression, vertices: Sequence[str], edge_size: int, delta: float
) -> HypergraphTournament:
    """Tournament whose selector picks the least distance-insensitive element.

    For an edge e, element v qualifies when the output distributions on a
    uniform subset of e conditioned to avoid v versus to contain v are within
    delta in statistical distance; the lexicographically least qualifying
    element is selected.  The caller asserts that the vertices are
    no-instances and that delta is at least the sensitivity ceiling, which
    together guarantee a qualifying element exists.
    """
    if edge_size > a.arity:
        raise ValueError("edge size exceeds the compression arity")
    # edges recur heavily during greedy scans, so the verdict is memoised
    # per pair of law keys and laws and distances are built only on a miss;
    # hit-count keys are few, but default keys name the edge itself, so for
    # generic compressions this memo grows by about k entries per edge scanned
    qualifies: dict[tuple[Hashable, Hashable], bool] = {}

    def selector(e: Edge) -> str:
        for v, keys in zip(e, a.conditioned_law_keys(e)):
            ok = qualifies.get(keys)
            if ok is None:
                left, right = keys
                ok = qualifies[keys] = statistical_distance(a.law(left), a.law(right)) <= delta
            if ok:
                return v
        raise SelectorUndefinedError(
            f"no element of {e!r} is insensitive at threshold {delta}; the vertex set "
            "may contain a yes-instance, the threshold may be too small, or the "
            "compression may violate its error bounds"
        )

    return HypergraphTournament(vertices, edge_size, selector)


def random_tournament(num_vertices: int, edge_size: int, seed: int) -> HypergraphTournament:
    """Seeded arbitrary tournament on fixed-width bit-string vertices.

    Each vertex gets a seeded random key; the selector mixes the keys of a
    (canonically sorted) edge with fixed integer arithmetic and picks the
    indexed element.  Stable across platforms and runs.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    width = max(1, (num_vertices - 1).bit_length())
    vertices = [format(i, f"0{width}b") for i in range(num_vertices)]
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**62, size=num_vertices, dtype=np.int64)
    keys = {v: int(k) for v, k in zip(vertices, raw)}
    mod = 2**61 - 1

    def selector(e: Edge) -> str:
        h = 0
        for v in e:
            h = (h * 1099511628211 + keys[v]) % mod
        return e[h % len(e)]

    return HypergraphTournament(vertices, edge_size, selector)


# ---------------------------------------------------------------------------
# dominating sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominatingSet:
    """Greedy dominating set with its per-step undominated-count trace.

    trace[k] is the number of still-undominated vertices after k members
    were added; trace[0] is |V|.  The construction keeps
    trace[k] <= (1 - 1/edge_size)**k * |V| and stops within
    edge_size * log2|V| members.
    """

    edge_size: int
    vertex_bits: int
    elements: tuple[Edge, ...]
    trace: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict[str, Any]:
        width = (self.vertex_bits + 3) // 4
        return {
            "t": self.edge_size,
            "n": self.vertex_bits,
            "elements": [[format(int(v, 2), f"0{width}x") for v in g] for g in self.elements],
            "trace": list(self.trace),
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "DominatingSet":
        n = int(obj["n"])
        elements = tuple(
            tuple(format(int(h, 16), f"0{n}b") for h in g) for g in obj["elements"]
        )
        return cls(int(obj["t"]), n, elements, tuple(int(c) for c in obj["trace"]))


def _dominates(tournament: HypergraphTournament, g: Edge, v: str) -> bool:
    if v in g:
        return True
    if len(g) != tournament.edge_size - 1:
        return False
    return tournament.select(g + (v,)) == v


def _best_member_exhaustive(tournament: HypergraphTournament, remaining: Edge) -> Edge:
    # One pass over all edges inside the remaining set: the edge e with
    # selected vertex v certifies that e minus v dominates v.  Every edge
    # charges exactly one candidate, so max count + (k-1) is the best
    # domination total, with lexicographic tie-break.
    k = tournament.edge_size
    check_enumeration(math.comb(len(remaining), k), "greedy edge scan")
    counts: dict[Edge, int] = {}
    select = tournament._selector
    for e in combinations(remaining, k):
        v = select(e)
        try:
            i = e.index(v)
        except ValueError:
            raise InvariantError(f"selector returned {v!r} outside the edge") from None
        g = e[:i] + e[i + 1 :]
        counts[g] = counts.get(g, 0) + 1
    best_g = min(counts, key=lambda g: (-counts[g], g))
    need = -(-len(remaining) // k)  # ceil(|R| / k)
    if counts[best_g] + (k - 1) < need:
        raise InvariantError(
            "no candidate dominates a 1/k fraction; the selector is not a tournament"
        )
    return best_g


def _best_member_sampled(
    tournament: HypergraphTournament,
    remaining: Edge,
    rng: np.random.Generator,
    cap_factor: int,
) -> Edge:
    k = tournament.edge_size
    need = -(-len(remaining) // k)
    cap = cap_factor * k * len(remaining)
    best_fraction = 0.0
    for _ in range(cap):
        picks = rng.choice(len(remaining), size=k - 1, replace=False)
        g = tuple(sorted(remaining[i] for i in picks))
        dominated = sum(1 for v in remaining if _dominates(tournament, g, v))
        if dominated >= need:
            return g
        best_fraction = max(best_fraction, dominated / len(remaining))
    raise DominatingSearchError(
        f"no sampled member reached a 1/{k} domination fraction within {cap} samples; "
        f"best fraction found was {best_fraction:.4f}"
    )


def greedy_dominating_set(
    tournament: HypergraphTournament,
    exhaustive_limit: int = 10**6,
    sample_cap_factor: int = 10,
    seed: int = 0,
) -> DominatingSet:
    """Greedy dominating set of at most edge_size * log2|V| members.

    Each step adds a (k-1)-subset of the undominated vertices that dominates
    at least a 1/k fraction of them; such a member always exists by
    averaging over edges.  The search is exhaustive while the candidate
    count stays below exhaustive_limit (ties broken toward more dominated
    vertices, then lexicographically) and sampled beyond that.  Fewer than k
    undominated vertices are finished off with one padded member containing
    them all.
    """
    vertices = tournament.vertices
    if not vertices:
        raise ValueError("empty vertex set")
    k = tournament.edge_size
    rng = np.random.default_rng(seed)
    remaining = vertices
    elements: list[Edge] = []
    trace = [len(vertices)]
    while remaining:
        if len(remaining) < k:
            fill = tuple(v for v in vertices if v not in remaining)
            g = tuple(sorted(remaining + fill[: max(0, k - 1 - len(remaining))]))
            elements.append(g)
            remaining = ()
            trace.append(0)
            break
        if math.comb(len(remaining), k - 1) <= exhaustive_limit:
            g = _best_member_exhaustive(tournament, remaining)
        else:
            g = _best_member_sampled(tournament, remaining, rng, sample_cap_factor)
        elements.append(g)
        remaining = tuple(v for v in remaining if not _dominates(tournament, g, v))
        trace.append(len(remaining))
    bound = k * math.log2(max(len(vertices), 2))
    if len(elements) > bound + 1e-9:
        raise InvariantError(f"{len(elements)} members exceed {bound}")
    return DominatingSet(k, len(vertices[0]), tuple(elements), tuple(trace))


def verify_domination(
    tournament: HypergraphTournament,
    dominating: DominatingSet,
    vertices: Sequence[str] | None = None,
) -> tuple[bool, list[str]]:
    """Exhaustively check domination; returns (all dominated, undominated list)."""
    if vertices is None:
        vertices = tournament.vertices
    undominated = [
        v for v in vertices if not any(_dominates(tournament, g, v) for g in dominating.elements)
    ]
    return not undominated, undominated


# ---------------------------------------------------------------------------
# block tournaments (large-alphabet variant)
# ---------------------------------------------------------------------------


def partition_blocks(e: Sequence[str], block_size: int) -> tuple[Edge, ...]:
    """Canonical partition of a sorted edge into consecutive equal blocks."""
    e = canonical_set(e)
    if block_size < 2:
        raise ValueError("blocks need at least two elements")
    if len(e) % block_size:
        raise ValueError(f"edge of size {len(e)} does not split into blocks of {block_size}")
    return tuple(e[i : i + block_size] for i in range(0, len(e), block_size))


def block_conditioned_distributions(
    a: SetEncodedCompression, blocks: Sequence[Edge], v: str, exact: bool = True
) -> tuple[FiniteDistribution, FiniteDistribution]:
    """Output laws of A on one uniform pick per block, without / with v.

    The input set takes one uniformly chosen element from every block.  The
    first law conditions v's block to avoid v, the second pins it to v.
    """
    blocks = [canonical_set(b) for b in blocks]
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ValueError("blocks must have equal sizes")
    if min(sizes) < 2:
        raise ValueError("blocks need at least two elements")
    all_elems = [w for b in blocks for w in b]
    if len(set(all_elems)) != len(all_elems):
        raise ValueError("blocks must be disjoint")
    if len(blocks) > a.arity:
        raise ValueError("more blocks than the compression arity")
    holder = [j for j, b in enumerate(blocks) if v in b]
    if not holder:
        raise ValueError(f"{v!r} is not in any block")
    j = holder[0]

    def law(choices_j: Edge) -> FiniteDistribution:
        rows = 1
        for idx, b in enumerate(blocks):
            rows *= len(choices_j) if idx == j else len(b)
        check_enumeration(rows * a.n_coins, "block output enumeration")
        acc = [0] * (2**a.output_bits)

        def rec(prefix: tuple[str, ...], idx: int) -> None:
            if idx == len(blocks):
                for code, cnt in enumerate(a.output_counts(prefix)):
                    acc[code] += cnt
                return
            pool = choices_j if idx == j else blocks[idx]
            for w in pool:
                rec(prefix + (w,), idx + 1)

        rec((), 0)
        return a.counts_to_distribution(acc, rows * a.n_coins, exact)

    without_v = tuple(w for w in blocks[j] if w != v)
    return law(without_v), law((v,))


def block_selector(a: SetEncodedCompression, blocks: Sequence[Edge], delta: float) -> str:
    """Least element whose without/with conditioned laws are within delta."""
    blocks = [canonical_set(b) for b in blocks]
    for v in sorted(w for b in blocks for w in b):
        left, right = block_conditioned_distributions(a, blocks, v)
        if statistical_distance(left, right) <= delta:
            return v
    raise SelectorUndefinedError(
        f"no block element qualifies at threshold {delta} on blocks {blocks!r}"
    )


def block_tournament(
    a: SetEncodedCompression,
    vertices: Sequence[str],
    num_blocks: int,
    block_size: int,
    delta: float,
) -> HypergraphTournament:
    """Tournament on (block_size * num_blocks)-subsets via the block selector."""
    if num_blocks > a.arity:
        raise ValueError("more blocks than the compression arity")

    def selector(e: Edge) -> str:
        return block_selector(a, partition_blocks(e, block_size), delta)

    return HypergraphTournament(vertices, num_blocks * block_size, selector)
