"""Hypergraph tournaments and their greedy dominating sets.

A hypergraph tournament on a vertex set V assigns to every k-subset (edge)
one of its elements, the selected vertex.  The selector used by the
reduction machinery picks, for an edge e, the least element v whose removal
from / insertion into a random subset of e barely moves the compression's
output distribution.  Greedy construction then yields a dominating set of
(k-1)-subsets of size at most k*log2|V|: every vertex either sits inside
some member or is selected when appended to one.

A greedy step takes the tournament's best member
(:meth:`HypergraphTournament.best_member`), by default by counting, for
every candidate member g (a (k-1)-subset of the undominated set R), the
vertices v of R that g + (v,) selects; nothing is sampled, and a step past
the enumeration budget raises.  For a general tournament the counts come
from one scan of every edge inside R in lexicographic order, one per-edge
selector call each.  Each edge charges one candidate: itself without its
selected vertex.

The random tournament mixes an edge by Horner's rule modulo M = 2**61 - 1,
h = sum_i key_i * P**(k-1-i) mod M, and selects position h mod k.  Its
counts need no edge scan.  For k >= 3, with g's leads summed to G and v's
lead L in the gap of g where v falls, h = (G + L) mod M, and whether v is
selected depends on G only through G mod k and the number of v whose lead
wraps past M.  Per-gap prefix tables of the remaining vertices count the
selected v of a gap in two lookups.  The candidates are walked by
lexicographic index, each read as a first position and a tail, in pieces
(index ranges) of about 2 * SCAN_CHUNK (candidate, gap) pairs.  For k = 2
the parity of each pair's h decides it, a block of pairs at a time, and for
k = 1 every v is selected (:meth:`_RandomTournament.candidate_counts`).
The domination check reads each v's h from the same sums, one G per gap of
the member (:meth:`_RandomTournament.dominated`).

A compression with input classes (:meth:`SetEncodedCompression.forced_class`:
the hit bit, for hit-count compressions and their block compressions) keys
the laws of an element of an edge inside one class by that class and the
edge size alone.  So the selector tournament on vertices of one class needs
no edge scan: one verdict says whether every edge selects its first vertex
(:func:`selector_from_compression`).  A candidate then charges the vertices
of R before its first vertex, so the last k-1 vertices of R, the exhaustive
step's choice, dominate all of R.  The greedy takes them as its one member
at any size, with no count (:meth:`_FirstVertexTournament.best_member`).  A
member dominates the vertices before its first one
(:meth:`_FirstVertexTournament.dominated`).  Vertex sets of both classes,
which no reduction builds, take the general scan, and a failed verdict
raises at the first edge.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from .budget import check_enumeration
from .compression import Edge, SetEncodedCompression, bits_label, canonical_set, id_array, one_class, parse_bits
from .distributions import statistical_distance


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


class HypergraphTournament:
    """Complete k-uniform hypergraph with one selected vertex per edge.

    Vertices are vertex_bits-bit ids (see :class:`ToyLanguage`), held as
    one ascending int64 array ``ids``: the array passed in, when it already
    is one.  The per-edge selector takes a canonical edge, an ascending
    tuple of ids, and returns the selected id; it is the definition that
    every closed form is checked against.  The greedy and verification pass
    vertex sets and members as ascending id arrays.  By default a greedy
    step's best member is the first candidate of largest count
    (:meth:`best_member`), and the counts and the domination check ask the
    per-edge selector edge by edge (:meth:`candidate_counts`,
    :meth:`dominated`); tournaments with a closed form override them.

    Bit strings appear only in :attr:`vertices` and :meth:`select`, the form
    in which reports name vertices.
    """

    def __init__(self, ids: Iterable[int], edge_size: int, selector: Callable[[Edge], int], vertex_bits: int):
        ids = id_array(ids)
        if (ids[1:] <= ids[:-1]).any():  # not already distinct and ascending
            ids = np.sort(ids)
            ids = ids[np.r_[True, ids[1:] != ids[:-1]]]
        self.ids = ids
        if edge_size < 1:
            raise ValueError("edge size must be at least 1")
        self.edge_size = edge_size
        self._selector = selector
        self.vertex_bits = vertex_bits

    @property
    def vertices(self) -> tuple[str, ...]:
        """The vertices as vertex_bits-bit strings, ascending."""
        return tuple(bits_label(v, self.vertex_bits) for v in self.ids.tolist())

    def select(self, e: Sequence[str]) -> str:
        """Selected vertex of an edge of vertex_bits-bit strings; the edge is
        canonicalized first."""
        text = {parse_bits(v, self.vertex_bits): v for v in e}
        ids = canonical_set(text)
        if len(ids) != self.edge_size:
            raise ValueError(f"edge has {len(ids)} distinct vertices, expected {self.edge_size}")
        outside = [v for v in ids if (i := bisect_left(self.ids, v)) == len(self.ids) or self.ids[i] != v]
        if outside:
            raise ValueError(f"{text[outside[0]]!r} is not a vertex of the tournament")
        return bits_label(ids[self._position(ids)], self.vertex_bits)

    def candidate_counts(self, remaining: np.ndarray) -> np.ndarray:
        """counts[i]: the vertices v of `remaining` outside candidate i whose
        edge candidate + (v,) selects v.

        Candidate i is the i-th (k-1)-subset of `remaining` (ascending ids)
        in lexicographic order.  By default every edge inside `remaining` is
        asked in lexicographic order, so an edge without a selection raises
        through the per-edge selector at the lexicographically first such
        edge.  The edge e with selected vertex v certifies that e minus v
        dominates v, so every edge charges exactly one candidate, e without
        v.
        """
        k = self.edge_size
        ids = remaining.tolist()
        index = {g: i for i, g in enumerate(combinations(ids, k - 1))}
        counts = [0] * len(index)
        for e in combinations(ids, k):
            p = self._position(e)
            counts[index[e[:p] + e[p + 1 :]]] += 1
        return np.array(counts)

    def best_member(self, remaining: np.ndarray) -> np.ndarray:
        """The member a greedy step adds, as ascending ids: the
        lexicographically least (k-1)-subset of `remaining` of largest
        count, every candidate counted within the budget
        (:func:`_best_member_exhaustive`)."""
        return _best_member_exhaustive(self, remaining)

    def dominated(self, members: Sequence[np.ndarray], vs: np.ndarray) -> np.ndarray:
        """dom[j]: some member dominates vertex vs[j]; vs may come in any
        order and repeat.

        Members are ascending id arrays.  A member dominates its own
        elements and, when it has k-1 elements, every v whose edge
        member + (v,) selects v.  Every pair of a vertex and a (k-1)-member
        without it is asked, vertex by vertex and then member by member, so
        an edge without a selection raises through the per-edge selector at
        the first such pair.
        """
        k = self.edge_size
        rows = [tuple(g.tolist()) for g in members]
        dom = []
        for v in vs.tolist():
            hit = False
            for g in rows:
                p = bisect_left(g, v)  # v's slot in the edge g + (v,)
                if p < len(g) and g[p] == v:
                    hit = True
                elif len(g) == k - 1 and self._position(g[:p] + (v,) + g[p:]) == p:
                    hit = True
            dom.append(hit)
        return np.array(dom, dtype=bool)

    def _position(self, e: Edge) -> int:
        """Position of the per-edge selector's choice in the canonical edge e."""
        v = self._selector(e)
        try:
            return e.index(v)
        except ValueError:
            raise InvariantError(f"selector returned {v!r} outside the edge") from None


class _FirstVertexTournament(HypergraphTournament):
    """Tournament in which every edge selects its first vertex.

    The greedy's best member and domination follow in closed form; the
    per-edge selector is kept as the definition (see
    :func:`selector_from_compression`).
    """

    def best_member(self, remaining: np.ndarray) -> np.ndarray:
        """The last k-1 vertices of `remaining`, none for k = 1: g + (v,)
        selects v exactly when v precedes g's first vertex, so a candidate
        counts the vertices before its first, and the one candidate beginning
        last counts every other vertex."""
        return remaining[len(remaining) - (self.edge_size - 1) :]

    def dominated(self, members: Sequence[np.ndarray], vs: np.ndarray) -> np.ndarray:
        """Membership, and for each (k-1)-member the v before its first
        vertex (every v, for k = 1).

        Unlike the other tournaments, vs must be strictly ascending, as the
        greedy and verification pass it (ValueError otherwise): the v before
        the last first vertex are then a prefix, and each member's elements
        are found in vs by one search.
        """
        if (vs[1:] <= vs[:-1]).any():
            raise ValueError("vs must be strictly ascending")
        dom = np.zeros(len(vs), dtype=bool)
        ends = [np.searchsorted(vs, g[0]) if len(g) else len(vs) for g in members if len(g) == self.edge_size - 1]
        if ends:
            dom[: max(ends)] = True
        if len(vs):
            elements = np.concatenate([np.empty(0, dtype=np.int64), *members])
            at = np.minimum(np.searchsorted(vs, elements), len(vs) - 1)
            dom[at[vs[at] == elements]] = True
        return dom


def selector_from_compression(
    a: SetEncodedCompression, vertices: Iterable[int], edge_size: int, delta: float, vertex_bits: int
) -> HypergraphTournament:
    """Tournament whose selector picks the least distance-insensitive element.

    For an edge e, element v qualifies when the two laws of
    ``a.conditioned_keys(e minus v, v)`` are within delta in statistical
    distance: by default the output laws on a uniform subset of e
    conditioned to avoid v versus to contain v.  The least qualifying
    element is selected.  The caller asserts that the vertices are
    no-instances and that delta is at least the sensitivity ceiling, which
    together guarantee a qualifying element exists.

    When the compression has input classes (:meth:`SetEncodedCompression.forced_class`)
    and every vertex falls in one, every element of every edge has the keys
    of the first edge's first vertex, so one verdict decides the tournament:
    if it qualifies, every edge selects its first vertex
    (:class:`_FirstVertexTournament`).  Other tournaments are asked edge by
    edge, and one whose verdict fails raises at its first edge.
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

    def selector(e: Edge) -> int:
        for i, v in enumerate(e):
            if verdict(a.conditioned_keys(e[:i] + e[i + 1 :], v)):
                return v
        raise SelectorUndefinedError(
            f"no element of {e!r} is insensitive at threshold {delta}; the vertex set "
            "may contain a yes-instance, the threshold may be too small, or the "
            "compression may violate its error bounds"
        )

    tournament = HypergraphTournament(vertices, edge_size, selector, vertex_bits)
    ids, classes = tournament.ids, a.forced_class()
    if classes is not None and len(ids) >= edge_size and one_class(classes, ids):
        first = tuple(ids[:edge_size].tolist())
        if verdict(a.conditioned_keys(first[1:], first[0])):
            return _FirstVertexTournament(ids, edge_size, selector, vertex_bits)
    return tournament


# the random tournament's mix: Horner's rule modulo the Mersenne prime M
_M = 2**61 - 1
_P = 2**40 + 435  # 1099511628211


def _add_mod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x <- (x + y) mod M for uint64 x, y below M, by one conditional
    subtraction, in place; y is overwritten."""
    x += y
    np.minimum(x, np.subtract(x, np.uint64(_M), out=y), out=x)  # x - M wraps past x when x < M
    return x


class _RandomTournament(HypergraphTournament):
    """Tournament selecting position h mod k of an edge, where h mixes the
    vertex keys of the (canonically sorted) edge by Horner's rule mod M;
    vertex v has key keys[v].  The per-edge selector is kept as the
    definition.  Expanded, h = sum_i key_(e_i) * P**(k-1-i) mod M, a sum of
    one lead ``_leads[j, v] = key_v * P**j mod M`` per position, from which
    :meth:`candidate_counts` and :meth:`dominated` select in closed form."""

    def __init__(self, keys: Sequence[int], edge_size: int):
        keys = self._keys = [int(key) for key in keys]

        def selector(e: Edge) -> int:
            h = 0
            for v in e:
                h = (h * _P + keys[v]) % _M
            return e[h % len(e)]

        width = max(1, (len(keys) - 1).bit_length())
        super().__init__(range(len(keys)), edge_size, selector, width)

    @functools.cached_property
    def _leads(self) -> np.ndarray:
        """k x |V| leads, built at first use, which a greedy step reaches
        only past its budget checks: none when k > |V| leaves no edge.

        Row 0 is the keys (below 2**64) mod M, and row j + 1 is row j times
        P mod M, exact in uint64: with P = 2**40 + 435, x * 2**40 mod M
        rotates x's 61 bits, and x * 435 is split at bit 32 into two
        products that stay far below 2**64."""
        leads = np.empty((self.edge_size, len(self._keys)), dtype=np.uint64)
        m = np.uint64(_M)
        np.remainder(np.array(self._keys, dtype=np.uint64), m, out=leads[0])
        for j in range(1, self.edge_size):
            x = leads[j - 1]
            high = (x >> np.uint64(32)) * np.uint64(435)
            row = ((x << np.uint64(40)) & m) | (x >> np.uint64(21))
            row += (x & np.uint64(0xFFFFFFFF)) * np.uint64(435)
            row += ((high << np.uint64(32)) & m) + (high >> np.uint64(29))
            np.remainder(row, m, out=leads[j])
        return leads

    def dominated(self, members: Sequence[np.ndarray], vs: np.ndarray) -> np.ndarray:
        """Membership, and for each (k-1)-member g the v it selects, in
        closed form; vs may come in any order and repeat.

        v in gap p = searchsorted(g, v) sits at position p of the edge, whose
        Horner value is h = (G_p(g) + _leads[k-1-p, v]) mod M, with G_p(g)
        as in :meth:`candidate_counts`; v is selected when h mod k = p.
        """
        k = self.edge_size
        dom = np.zeros(len(vs), dtype=bool)
        for g in members:
            gap = np.searchsorted(g, vs)
            dom |= np.append(g, -1)[gap] == vs  # v is an element of g
            if len(g) != k - 1:
                continue
            # G_0 has every element after the gap; each later gap moves one
            # element before it, from exponent k-2-i to k-1-i, so only these
            # two diagonals of g's leads are read
            upper = self._leads[np.arange(k - 1, 0, -1), g].tolist()
            lower = self._leads[np.arange(k - 2, -1, -1), g].tolist()
            sums = [sum(lower)]
            for i in range(k - 1):
                sums.append(sums[-1] + upper[i] - lower[i])
            h = np.array([x % _M for x in sums], dtype=np.uint64)[gap]
            _add_mod(h, self._leads[k - 1 - gap, vs])
            dom |= (h % np.uint64(k)).view(np.int64) == gap
        return dom

    def candidate_counts(self, remaining: np.ndarray) -> np.ndarray:
        """For k >= 3, two table lookups per candidate and gap.  For k = 2,
        whose tables would take |R|**2 entries per gap and residue, the
        parity of each pair (:meth:`_pair_counts`); for k = 1 the empty
        candidate selects every v.

        A vertex v in gap p of candidate g (g[p-1] < v < g[p]) sits at
        position p of the edge, whose Horner value is h = (G + L) mod M:
        G = G_p(g) sums g's leads at their edge exponents, k-1-i before the
        gap and k-2-i after it, and L = L_p[v] is v's lead at exponent
        k-1-p.  With the room U = M - L, h is G + L when G < U and G + L - M
        otherwise, so v is selected (h mod k = p) when G = p - L mod k if
        G < U, and G = p - L + M mod k otherwise.  With the rooms of each
        gap ranked, E[p, q, a, b] counts the v among the first a positions
        that gap p can hold whose room ranks at b or above with p - L = q
        mod k, or below b with p - L + M = q mod k.  g's count in gap p is
        then E[p, q, hi, u] - E[p, q, lo, u] for q = G mod k, the gap's
        positions lo .. hi-1 and u, the number of rooms at most G.
        """
        k, size = self.edge_size, len(remaining)
        if k == 1:
            return np.array([size])
        if k == 2:
            return self._pair_counts(remaining)
        # v in gap p has p elements of g before it and k-1-p after it, so it
        # is one of the `width` positions p .. p + width - 1
        m, width, gaps = k - 1, size - k + 1, np.arange(k)[:, None]
        span = width + 1
        lead = self._leads[:, remaining]  # lead[j, a]: position a's lead at exponent j
        own = lead[k - 1 - gaps, gaps + np.arange(width)]  # own[p, a - p]: a's lead as v in gap p
        room = np.uint64(_M) - own
        rank = room.argsort(axis=1, kind="stable").argsort(axis=1)
        # E, as its increments along a: one row per v
        unwrapped = np.arange(span) <= rank[:, :, None]
        residue = (gaps - own.view(np.int64)) % k
        table = np.zeros((k, k, span, span), dtype=np.min_scalar_type(width))
        table[gaps, residue, np.arange(1, span)] = unwrapped
        table[gaps, (residue + _M) % k, np.arange(1, span)] += ~unwrapped
        table.cumsum(axis=2, dtype=table.dtype, out=table)
        table = table.ravel()

        # u: the rooms below the bucket of G's top bits, then a branchless
        # binary search over the next `window` rooms, more than the fullest
        # bucket holds; rooms past G's bucket, and a pad of M, exceed G.
        # ranked and start are flat, one row per gap.
        shift = np.uint64(_M.bit_length() - width.bit_length() - 2)
        buckets = 1 << (width.bit_length() + 2)
        bucket_row = gaps * buckets
        held = np.bincount(((room >> shift).view(np.int64) + bucket_row).ravel(), minlength=k * buckets)
        window = 1 << int(held.max()).bit_length()
        ranked = np.full((k, width + window), _M, dtype=np.uint64)
        ranked[:, :width] = room
        ranked[:, :width].sort(axis=1)
        ranked = ranked.ravel()
        held = held.reshape(k, buckets)
        start = (held.cumsum(axis=1) - held + gaps * (width + window)).ravel()
        # flat index of E[p, q, a - p, u] is (p * k + q) * span**2 + (a - p) * span
        # + u; base holds its terms in p, less the row offset in `ranked`
        base = gaps * (k * span * span - span - width - window)

        # A candidate is a first position c and a tail, an (m-1)-subset of
        # the positions after c: the last tails of range(1, size), as many as
        # begin after c, which are never more than the candidates.  G_p is
        # c's lead, at exponent k-2 in gap 0 and k-1 after it, plus the
        # tail's leads: tail element j (g[j + 1]) at exponent k-2-j before
        # the gap and k-3-j after it.
        tails, per_first = _lex_rows(size - 1, m - 1)
        tails += 1
        first_lead, first_row = lead[k - 2 :], np.minimum(np.arange(k), 1)  # gap p reads row first_row[p]
        # Tail element j lies before gap p when j + 1 < p: row p = i + 1 of
        # tail_sum sums the elements j >= i, after the gap, and then gains
        # those before it, j < i.  Gap 0, like gap 1, has none before it.
        tail_sum = np.zeros((k, len(tails)), dtype=np.uint64)
        for i in range(m - 2, -1, -1):
            tail_sum[i + 1] = tail_sum[i + 2]
            _add_mod(tail_sum[i + 1], lead[k - 3 - i, tails[:, i]])
        ahead = np.zeros(len(tails), dtype=np.uint64)
        for j in range(m - 1):
            _add_mod(ahead, lead[k - 2 - j, tails[:, j]])
            _add_mod(tail_sum[j + 2], ahead.copy())
        tail_sum[0] = tail_sum[1]
        # The candidates beginning at c end at lexicographic index ends[c],
        # so candidate i begins at the first c with ends[c] > i and takes
        # tail i - ends[c] + len(tails).  A piece is a range of indices.
        ends = per_first[::-1].cumsum()[::-1].cumsum()
        total, piece = int(ends[-1]), max(1, 2 * SCAN_CHUNK // k)
        counts = []
        for first in range(0, total, piece):
            i = np.arange(first, min(first + piece, total))
            firsts = ends.searchsorted(i, side="right")
            at = i - ends[firsts] + len(tails)
            sums = _add_mod(first_lead.take(firsts, axis=1).take(first_row, axis=0), tail_sum.take(at, axis=1))
            u = start.take((sums >> shift).view(np.int64) + bucket_row)
            step = window >> 1
            while step:
                u += step * (ranked[step - 1 :].take(u) <= sums)
                step >>= 1
            index = sums - sums // np.uint64(k) * np.uint64(k)  # G mod k; numpy's % is slower
            index = index.view(np.int64) * (span * span)
            index += base
            index += u
            # gap p holds the positions after bounds[p] and before bounds[p + 1],
            # with bounds = (-1, g, size), here times span
            bounds = np.empty((k + 1, len(at)), dtype=np.intp)
            bounds[0], bounds[1], bounds[2:k], bounds[k] = -1, firsts, tails.take(at, axis=0).T, size
            bounds *= span
            lo = index + bounds[:-1]
            lo += span
            counts.append((table.take(index + bounds[1:]) - table.take(lo)).sum(axis=0, dtype=np.int32))
        return np.concatenate(counts)

    def _pair_counts(self, remaining: np.ndarray) -> np.ndarray:
        """The k = 2 counts: the edge of positions a < b has Horner value
        h = (lead_1[a] + lead_0[b]) mod M and selects b, charging a, when h
        is odd, and selects a, charging b, when h is even.  The positions a
        come in blocks of about 16 * SCAN_CHUNK pairs with the positions
        after the block's first."""
        size = len(remaining)
        first, second = self._leads[1, remaining], self._leads[0, remaining]
        counts = np.zeros(size, dtype=np.int32)
        block = max(1, 16 * SCAN_CHUNK // size)
        for lo in range(0, size - 1, block):
            a = np.arange(lo, min(lo + block, size - 1))
            later = np.arange(lo + 1, size) > a[:, None]  # the pairs a < b
            # the sum is below 2M, so h is the sum or, from M on, the sum less
            # the odd M, of the other parity
            h = first[a, None] + second[lo + 1 :]
            odd = ((h & np.uint64(1)) == 1) != (h >= np.uint64(_M))
            odd &= later
            counts[a] += np.count_nonzero(odd, axis=1)
            counts[lo + 1 :] += np.count_nonzero(later > odd, axis=0)  # later and even
        return counts


def random_tournament(num_vertices: int, edge_size: int, seed: int) -> HypergraphTournament:
    """Seeded arbitrary tournament on the ids 0 .. num_vertices - 1, at the
    smallest width that holds them all.

    Each vertex gets a seeded random key; the selector mixes the keys of a
    (canonically sorted) edge with fixed integer arithmetic and picks the
    indexed element.  Stable across platforms and runs.  The vertex count
    is budgeted before any key is drawn.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    check_enumeration(num_vertices, "random-tournament vertices")
    rng = np.random.default_rng(seed)
    return _RandomTournament(rng.integers(0, 2**62, size=num_vertices, dtype=np.int64).tolist(), edge_size)


# ---------------------------------------------------------------------------
# dominating sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominatingSet:
    """Greedy dominating set with its per-step undominated-count trace.

    trace[k] is the number of still-undominated vertices after k members
    were added; trace[0] is |V|.  The construction keeps
    trace[k] <= (1 - 1/edge_size)**k * |V| and stops within
    edge_size * log2|V| members.  Members are ascending tuples of vertex
    ids; the JSON form writes each id as ceil(vertex_bits / 4) hex digits.
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
            "elements": [[format(v, f"0{width}x") for v in g] for g in self.elements],
            "trace": list(self.trace),
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "DominatingSet":
        elements = tuple(tuple(int(h, 16) for h in g) for g in obj["elements"])
        return cls(int(obj["t"]), int(obj["n"]), elements, tuple(int(c) for c in obj["trace"]))


# Half the (candidate, gap) pairs per piece of the random tournament's
# closed-form counts, and a sixteenth of the pairs per block of its k = 2
# counts.  A piece is a range of max(1, 2 * SCAN_CHUNK // k) lexicographic
# candidate indices, k gaps each.  The pieces bound the working memory (a few
# arrays of about twice this many entries, or 16 times as many pairs) on top
# of the per-step tables and the candidate counts, while keeping the
# per-piece overhead small.
SCAN_CHUNK = 4096


def _unrank(size: int, m: int, index: int) -> list[int]:
    """The m-subset of range(size) at lexicographic index `index`, ascending:
    with j elements left, C(size - 1 - x, j - 1) subsets take x next, and
    such groups are skipped, in uncapped Python ints."""
    row, x = [], 0
    for j in range(m, 0, -1):
        while index >= (group := math.comb(size - 1 - x, j - 1)):
            index -= group
            x += 1
        row.append(x)
        x += 1
    return row


def _lex_rows(size: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, lengths): all m-subsets of range(size), m >= 1, in
    lexicographic order as rows of the smallest unsigned dtype that holds
    size, and lengths[c], the rows beginning at c, for c <= size - m.

    Level j holds the j-subsets of range(m - j, size), the last j elements
    of every m-subset: those beginning at c are c followed by the last rows
    of level j - 1, as many as begin after c, so its lengths are the reverse
    cumsum of level j - 1's.  A level keeps only its first column and, past
    level 1, a pointer to each row's rest in the level before; the rows are
    gathered one column at a time along the pointers.  No level is longer
    than the last, so the work is O(m * rows).
    """
    dtype = np.min_scalar_type(size)
    levels = [(np.arange(m - 1, size, dtype=dtype), None)]  # (firsts, pointers)
    lengths = np.ones(size - m + 1, dtype=np.int64)
    for j in range(2, m + 1):
        lengths = lengths[::-1].cumsum()[::-1]
        ends = lengths.cumsum()
        firsts = np.arange(m - j, size - j + 1, dtype=dtype).repeat(lengths)
        levels.append((firsts, np.arange(ends[-1]) + (len(levels[-1][0]) - ends).repeat(lengths)))
    rows = np.empty((len(levels[-1][0]), m), dtype=dtype)
    at = np.arange(len(rows))
    for column, (firsts, pointers) in enumerate(reversed(levels)):
        rows[:, column] = firsts[at]
        if pointers is not None:
            at = pointers[at]
    return rows, lengths


def _best_member_exhaustive(tournament: HypergraphTournament, remaining: np.ndarray) -> np.ndarray:
    # Candidates, the (k-1)-subsets of `remaining`, are counted under their
    # lexicographic index, so the first maximum is also the lexicographically
    # least.  The closed forms make k lookups per candidate, and the generic
    # scan holds every candidate.
    k, size = tournament.edge_size, len(remaining)
    check_enumeration(math.comb(size, k), "greedy edge scan")
    check_enumeration(k * math.comb(size, k - 1), "greedy candidate lookups")
    counts = tournament.candidate_counts(remaining)
    return remaining[_unrank(size, k - 1, int(np.argmax(counts)))]


def greedy_dominating_set(tournament: HypergraphTournament) -> DominatingSet:
    """Greedy dominating set of at most edge_size * log2|V| members.

    Each step adds a (k-1)-subset of the undominated vertices that dominates
    at least a 1/k fraction of them; such a member always exists by
    averaging over edges, and a member below the fraction raises
    InvariantError.  The tournament gives the member
    (:meth:`HypergraphTournament.best_member`): the first-vertex tournaments
    of every reduction in closed form, at any size, with no count; the
    others count every candidate and take the lexicographically least of
    the largest count, and a step whose edges or candidate lookups exceed
    the enumeration budget raises BudgetExceededError.  Fewer than k
    undominated vertices are finished off with one padded member containing
    them all.
    """
    ids = tournament.ids
    if not len(ids):
        raise ValueError("empty vertex set")
    k = tournament.edge_size
    remaining = ids
    elements: list[Edge] = []
    trace = [len(ids)]
    bound = k * math.log2(max(len(ids), 2))
    # every step removes a 1/k fraction of R or raises, so the bound only backs up that check
    while len(remaining) and len(elements) <= bound + 1e-9:
        if len(remaining) < k:
            fill = np.setdiff1d(ids, remaining, assume_unique=True)[: k - 1 - len(remaining)]
            elements.append(tuple(np.sort(np.r_[remaining, fill]).tolist()))
            trace.append(0)
            break
        g = tournament.best_member(remaining)
        dom = tournament.dominated([g], remaining)
        if np.count_nonzero(dom) < -(-len(remaining) // k):
            raise InvariantError("no candidate dominates a 1/k fraction; the selector is not a tournament")
        elements.append(tuple(g.tolist()))
        remaining = remaining[~dom]
        trace.append(len(remaining))
    if len(elements) > bound + 1e-9:
        raise InvariantError(f"{len(elements)} members exceed {bound}")
    return DominatingSet(k, tournament.vertex_bits, tuple(elements), tuple(trace))


def verify_domination(tournament: HypergraphTournament, dominating: DominatingSet) -> tuple[bool, list[int]]:
    """Exhaustively check domination; returns (all dominated, undominated ids)."""
    ids = tournament.ids
    members = [id_array(g) for g in dominating.elements]
    elements = np.concatenate([np.empty(0, dtype=np.int64), *members])
    outside = elements[ids.take(np.searchsorted(ids, elements), mode="clip") != elements] if len(ids) else elements
    if outside.size:
        raise ValueError(f"{outside[0]} is not a vertex of the tournament")
    dominated = tournament.dominated([np.sort(g) for g in members], ids)
    undominated = ids[~dominated].tolist()
    return not undominated, undominated
