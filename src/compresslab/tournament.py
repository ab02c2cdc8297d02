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
from typing import Any, Callable, Hashable, Iterator, Sequence

import numpy as np

from .budget import check_enumeration
from .compression import HitCountCompression, SetEncodedCompression, canonical_set
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
    """Complete k-uniform hypergraph with one selected vertex per edge.

    Batches of edges are numpy rows of vertex indices: positions in the
    canonical (sorted) vertex tuple, increasing along each row, so index
    order is lexicographic order and a row is a canonical edge.
    """

    def __init__(self, vertices: Sequence[str], edge_size: int, selector: Callable[[Edge], str]):
        self.vertices = canonical_set(vertices)
        if edge_size < 1:
            raise ValueError("edge size must be at least 1")
        self.edge_size = edge_size
        self._selector = selector
        self._index = {v: i for i, v in enumerate(self.vertices)}

    def select(self, e: Sequence[str]) -> str:
        """Selected vertex of an edge; the edge is canonicalized first."""
        e = canonical_set(e)
        if len(e) != self.edge_size:
            raise ValueError(f"edge has {len(e)} distinct vertices, expected {self.edge_size}")
        return e[_position(e, self._selector(e))]

    def select_rows(self, rows: np.ndarray) -> np.ndarray:
        """Selected position within each row of an (E, k) batch of index rows.

        The default calls the per-edge selector once per row; tournaments
        with a vectorised selector override it.
        """
        vertices = self.vertices
        out = np.empty(len(rows), dtype=np.intp)
        for j, row in enumerate(rows.tolist()):
            e = tuple(vertices[i] for i in row)
            out[j] = _position(e, self._selector(e))
        return out

    def indices(self, vs: Sequence[str]) -> np.ndarray:
        """Vertex indices of vs, in the order given."""
        try:
            return np.array([self._index[v] for v in vs], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a vertex of the tournament") from None


def _position(e: Edge, v: str) -> int:
    try:
        return e.index(v)
    except ValueError:
        raise InvariantError(f"selector returned {v!r} outside the edge") from None


class _VectorisedTournament(HypergraphTournament):
    """Tournament whose selector is one function of per-vertex values.

    ``positions(values, edge)`` maps an (E, k) array of per-vertex values to
    the position selected in each row; ``edge(i)`` names row i for error
    messages.  ``value(v)`` gives the value of any vertex string.  Batches
    gather the values by vertex index; the per-edge selector handed to the
    constructor is the same function on one row.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        edge_size: int,
        value: Callable[[str], int],
        positions: Callable[[np.ndarray, Callable[[int], Edge]], np.ndarray],
    ):
        self._value = value
        self._positions = positions
        super().__init__(vertices, edge_size, self._select_edge)
        self._values = np.array([value(v) for v in self.vertices], dtype=np.int64)

    def _select_edge(self, e: Edge) -> str:
        values = np.array([[self._value(v) for v in e]], dtype=np.int64)
        return e[int(self._positions(values, lambda i: e)[0])]

    def select_rows(self, rows: np.ndarray) -> np.ndarray:
        vertices = self.vertices
        return self._positions(self._values[rows], lambda i: tuple(vertices[j] for j in rows[i]))


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

    Hit-count compressions select whole batches at once from each vertex's
    hit bit; other compressions are asked edge by edge.
    """
    if edge_size > a.arity:
        raise ValueError("edge size exceeds the compression arity")
    # edges recur heavily during greedy scans, so the verdict is memoised
    # per pair of law keys and laws and distances are built only on a miss;
    # hit-count keys are few, but default keys name the edge itself, so for
    # generic compressions this memo grows by about k entries per edge scanned
    qualifies: dict[tuple[Hashable, Hashable], bool] = {}

    def verdict(keys: tuple[Hashable, Hashable]) -> bool:
        ok = qualifies.get(keys)
        if ok is None:
            left, right = keys
            ok = qualifies[keys] = statistical_distance(a.law(left), a.law(right)) <= delta
        return ok

    def undefined(e: Edge) -> SelectorUndefinedError:
        return SelectorUndefinedError(
            f"no element of {e!r} is insensitive at threshold {delta}; the vertex set "
            "may contain a yes-instance, the threshold may be too small, or the "
            "compression may violate its error bounds"
        )

    if isinstance(a, HitCountCompression):
        is_yes = a.hit_language.is_yes

        def positions(hits: np.ndarray, edge: Callable[[int], Edge]) -> np.ndarray:
            # an element with hit bit `own` in an edge of h hits leaves a
            # ground set of h - own hits and brings `own` when forced, so its
            # law keys are ((h - own, 0), (h - own, own)); coded as
            # 2 * (h - own) + own, verdicts are looked up per code present
            codes = 2 * (hits.sum(axis=1, keepdims=True) - hits) + hits
            table = np.zeros(2 * edge_size + 2, dtype=bool)
            for c in np.flatnonzero(np.bincount(codes.ravel(), minlength=table.size)).tolist():
                rest, own = divmod(c, 2)
                table[c] = verdict(((rest, 0), (rest, own)))
            ok = table[codes]
            found = ok.any(axis=1)
            if not found.all():
                raise undefined(edge(int(np.argmin(found))))
            return ok.argmax(axis=1)

        return _VectorisedTournament(vertices, edge_size, lambda v: int(is_yes(v)), positions)

    def selector(e: Edge) -> str:
        for v, keys in zip(e, a.conditioned_law_keys(e)):
            if verdict(keys):
                return v
        raise undefined(e)

    return HypergraphTournament(vertices, edge_size, selector)


def _mix_positions(keys: np.ndarray, edge: Callable[[int], Edge] | None = None) -> np.ndarray:
    """Random-tournament selection: h <- (h * P + key) mod M along each row,
    then position h mod k, with M = 2**61 - 1 and P = 1099511628211.

    Exact in uint64: M is a Mersenne prime and P = 2**40 + 435, so
    h * 2**40 mod M is a 61-bit rotation of h, and h * 435 is split at
    bit 32 so that no product overflows.
    """
    keys = keys.astype(np.uint64)
    m = np.uint64(2**61 - 1)
    h = np.zeros(len(keys), dtype=np.uint64)
    for key in keys.T:
        high = (h >> 32) * 435  # below 2**38; its bits from 29 up wrap around
        h = (
            (((h << 40) & m) | (h >> 21))
            + (h & 0xFFFFFFFF) * 435
            + ((high << 32) & m)
            + (high >> 29)
            + key
        ) % m
    return (h % np.uint64(keys.shape[1])).astype(np.intp)


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
    return _VectorisedTournament(vertices, edge_size, keys.__getitem__, _mix_positions)


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


# Edges per batch of the exhaustive greedy scan, in whole prefixes of k-1
# vertices (at least one prefix per batch).  It bounds the scan's working
# memory (a few arrays of this many rows of k indices) on top of the
# candidate counts, while keeping the per-batch overhead small.
SCAN_CHUNK = 4096

# Most edges the greedy search scans exhaustively in one step; past it the
# step samples.  Fixed at the default enumeration budget and deliberately not
# read from COMPLAB_BUDGET: a larger budget leaves the exhaustive range as it
# is, and a smaller one still stops an exhaustive scan with a budget error.
EXHAUSTIVE_EDGE_LIMIT = 2**24


def _selected(tournament: HypergraphTournament, rows: np.ndarray) -> np.ndarray:
    """select_rows, with every position checked to lie inside its row."""
    positions = tournament.select_rows(rows)
    if len(rows) and (positions.min() < 0 or positions.max() >= rows.shape[1]):
        raise InvariantError("selector returned a position outside the edge")
    return positions


def _domination(
    tournament: HypergraphTournament, members: Sequence[Edge], vs: Sequence[str]
) -> np.ndarray:
    """dom[j, i]: member i dominates vs[j], from one batch of selections.

    A member dominates its own elements and, when it has k-1 elements, every
    v whose edge member + (v,) selects v.
    """
    k = tournament.edge_size
    v_idx = tournament.indices(vs)
    # inside[x, i]: vertex x is an element of member i, filled from the
    # members' elements; the rows of vs are then looked up by vertex index
    inside = np.zeros((len(tournament.vertices), len(members)), dtype=bool)
    for i, g in enumerate(members):
        inside[[x for x in map(tournament._index.get, g) if x is not None], i] = True
    dom = inside[v_idx]
    full = np.array([len(g) == k - 1 for g in members], dtype=bool)
    g_idx = np.zeros((len(members), k - 1), dtype=np.intp)
    for i in np.flatnonzero(full):
        g_idx[i] = tournament.indices(members[i])
    vj, gi = np.nonzero(~dom & full)
    if vj.size:
        g_rows, v_col = g_idx[gi], v_idx[vj]
        rows = np.sort(np.column_stack([g_rows, v_col]), axis=1)
        slot = (g_rows < v_col[:, None]).sum(axis=1)  # v's position in its sorted edge
        dom[vj, gi] = _selected(tournament, rows) == slot
    return dom


def _prefix_batches(size: int, k: int) -> Iterator[list[tuple[int, ...]]]:
    """The (k-1)-subsets of range(size) in lexicographic order, as prefixes
    of edges, in lists holding at most SCAN_CHUNK edges (at least one prefix)."""
    batch: list[tuple[int, ...]] = []
    rows = 0
    for prefix in combinations(range(size), k - 1):
        edges = size - 1 - prefix[-1] if prefix else size
        if batch and rows + edges > SCAN_CHUNK:
            yield batch
            batch, rows = [], 0
        batch.append(prefix)
        rows += edges
    if batch:
        yield batch


def _best_member_exhaustive(tournament: HypergraphTournament, remaining: Edge) -> Edge:
    # One pass over all edges inside the remaining set: the edge e with
    # selected vertex v certifies that e minus v dominates v.  Every edge
    # charges exactly one candidate, so max count + (k-1) is the best
    # domination total, with lexicographic tie-break.  Edges are k-subsets
    # of positions in `remaining`, scanned in lexicographic order: batches
    # of prefixes p_0 < ... < p_{k-2}, each followed by every last position.
    # A candidate c_0 < ... < c_{k-2} is counted under its colex rank
    # sum_j C(c_j, j + 1), which numbers the C(|R|, k-1) candidates densely.
    k = tournament.edge_size
    size = len(remaining)
    check_enumeration(math.comb(size, k), "greedy edge scan")
    index = tournament.indices(remaining)
    binom = np.array([[math.comb(c, j) for c in range(size)] for j in range(k + 1)], dtype=np.int64)
    counts = np.zeros(math.comb(size, k - 1), dtype=np.int32)
    cols = np.arange(k - 1)
    for batch in _prefix_batches(size, k):
        prefix = np.array(batch, dtype=np.intp).reshape(len(batch), k - 1)
        start = prefix[:, -1] + 1 if k > 1 else np.zeros(1, dtype=np.intp)
        lasts = size - start
        owner = np.repeat(np.arange(len(prefix)), lasts)
        last = np.arange(len(owner)) + np.repeat(start - (np.cumsum(lasts) - lasts), lasts)
        picked = _selected(tournament, index[np.column_stack([prefix[owner], last])])
        # by_pick[i, j]: colex rank of what prefix i keeps when column j of
        # its edge is selected, before the last position's term: prefix
        # columns before j keep their place, those after it move one place
        # down; for j < k-1 the last position stays, as candidate column k-2
        kept = binom[cols + 1, prefix]
        moved = binom[cols, prefix]
        by_pick = np.zeros((len(prefix), k), dtype=np.int64)
        by_pick[:, 1:] = np.cumsum(kept, axis=1)
        by_pick[:, :-1] += np.cumsum(moved[:, ::-1], axis=1)[:, ::-1] - moved
        ranks = by_pick[owner, picked] + np.where(picked < k - 1, binom[k - 1, last], 0)
        found, times = np.unique(ranks, return_counts=True)
        counts[found] += times.astype(np.int32)
    best = int(counts.max())
    need = -(-size // k)  # ceil(|R| / k)
    if best + (k - 1) < need:
        raise InvariantError(
            "no candidate dominates a 1/k fraction; the selector is not a tournament"
        )
    # unrank the candidates of maximal count (c_j: the largest c with
    # C(c, j + 1) <= the rank left) and keep the lexicographically least
    left = np.flatnonzero(counts == best)
    ties = np.empty((len(left), k - 1), dtype=np.intp)
    for j in range(k - 2, -1, -1):
        ties[:, j] = np.searchsorted(binom[j + 1], left, side="right") - 1
        left = left - binom[j + 1, ties[:, j]]
    least = np.lexsort(ties.T[::-1])[0] if len(ties) > 1 else 0
    return tuple(remaining[i] for i in ties[least])


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
        dominated = int(_domination(tournament, [g], remaining).sum())
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
    count stays below exhaustive_limit and the edge count below
    EXHAUSTIVE_EDGE_LIMIT (ties broken toward more dominated vertices, then
    lexicographically) and sampled beyond that.  Fewer than k
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
        if (
            math.comb(len(remaining), k - 1) <= exhaustive_limit
            and math.comb(len(remaining), k) <= EXHAUSTIVE_EDGE_LIMIT
        ):
            g = _best_member_exhaustive(tournament, remaining)
        else:
            g = _best_member_sampled(tournament, remaining, rng, sample_cap_factor)
        elements.append(g)
        dominated = _domination(tournament, [g], remaining)[:, 0]
        remaining = tuple(v for v, hit in zip(remaining, dominated) if not hit)
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
    """Exhaustively check domination; returns (all dominated, undominated list).

    Checks the given vertices of the tournament (default: all of them).
    """
    if vertices is None:
        vertices = tournament.vertices
    dominated = _domination(tournament, dominating.elements, vertices).any(axis=1)
    undominated = [v for v, hit in zip(vertices, dominated) if not hit]
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
    a: SetEncodedCompression, blocks: Sequence[Edge], v: str
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
        return a.counts_to_distribution(acc, rows * a.n_coins)

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
