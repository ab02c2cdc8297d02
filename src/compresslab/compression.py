"""Finite, fully enumerable compressive maps and set-encoded compressions.

A :class:`CompressiveMap` is an explicit truth table for a randomized map
from alphabet tuples of length t to m-bit output strings, with r internal
coin bits.  A :class:`SetEncodedCompression` evaluates sets of up to t
instances of {0,1}^n, given as n-bit integer ids (see :class:`ToyLanguage`),
to an m-bit output and carries declared soundness and completeness error
bounds; OR-style instances over a toy language are the canonical examples.

Everything here is exact: output distributions are integer counts over a
power-of-two denominator, so the resulting masses are exact rationals.  A
map's output law under uniform inputs is read from its counts
(:meth:`CompressiveMap.output_counts`,
:meth:`CompressiveMap.conditioned_output_counts`); a batch of maps of one
shape gets its conditioned counts from one fold
(:meth:`CompressiveMap.batch_conditioned_counts`), each map's the same as
it gets alone.
Every law of a set-encoded compression is that of one uniform pick from
each of several disjoint pools of ids (None picks nothing): a uniform subset
is pools (w, None) plus (v,) per forced v (:func:`subset_pools`), and each
block of the block variant (:class:`BlockCompression`) is one pool.  Laws
are memoised per compression under hashable law keys; compressions that only
count hits in a language share one closed form, everything else enumerates
(:func:`enumerate_law`).  The inputs a compression cannot tell apart, its
classes, are one vector (:meth:`SetEncodedCompression.forced_class`).
"""

from __future__ import annotations

import base64
import itertools
import math
import operator
from collections.abc import Collection, Hashable, Iterable, Sequence
from fractions import Fraction
from typing import Any

import numpy as np

from .budget import check_enumeration
from .distributions import FiniteDistribution

BitString = str
Edge = tuple[int, ...]

#: Cells per block of the blocked bincounts (conditioned counts here, coin
#: entropies in sensitivity): a block's int64 or float64 temporaries stay at
#: 64 KiB, so every block reuses the same few pages.
BLOCK_CELLS = 2**13

#: Widest output code of a :class:`CompressiveMap`: one 32-bit generator
#: word per cell (:meth:`CompressiveMap.random`).
MAX_OUTPUT_BITS = 32


def bits_label(code: int, width: int) -> BitString:
    """m-bit string for an output code; the empty string when width is 0."""
    return format(code, f"0{width}b") if width else ""


# ---------------------------------------------------------------------------
# Compressive maps on alphabet tuples
# ---------------------------------------------------------------------------


class CompressiveMap:
    """Total truth table for a randomized map Sigma^t x coins -> {0,1}^m.

    The alphabet is range(alphabet_size); inputs are tuples of symbols and
    outputs are integer codes below 2**output_bits.  The table has one row
    per input index (mixed-radix, first coordinate most significant) and one
    column per coin string.  Deterministic maps have coin_bits = 0.
    """

    __slots__ = ("arity", "output_bits", "coin_bits", "alphabet_size", "table")

    def __init__(
        self,
        arity: int,
        output_bits: int,
        coin_bits: int,
        table: np.ndarray,
        alphabet_size: int = 2,
    ):
        n_inputs, n_coins = self._check_shape(arity, output_bits, coin_bits, alphabet_size)
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (n_inputs, n_coins):
            raise ValueError(f"table shape {table.shape} != {(n_inputs, n_coins)}")
        if table.size and table.view(np.uint64).max() >= 2**output_bits:  # negative codes read as >= 2**63
            raise ValueError("table entry outside the output code range")
        self.arity = arity
        self.output_bits = output_bits
        self.coin_bits = coin_bits
        self.alphabet_size = alphabet_size
        self.table = table
        self.table.setflags(write=False)

    @staticmethod
    def _check_shape(arity: int, output_bits: int, coin_bits: int, alphabet_size: int) -> tuple[int, int]:
        """(inputs, coins) of a table of this shape, after the shape and budget checks.

        Output codes are at most 32 bits wide, and the 2**output_bits codes
        are budgeted like table rows: every count vector is that long.
        """
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if output_bits < 0 or coin_bits < 0:
            raise ValueError("bit counts must be nonnegative")
        if output_bits > MAX_OUTPUT_BITS:
            raise ValueError(f"at most {MAX_OUTPUT_BITS} output bits, got {output_bits}")
        if alphabet_size < 2:
            raise ValueError("alphabet needs at least two symbols")
        n_inputs = alphabet_size**arity
        n_coins = 2**coin_bits
        check_enumeration(n_inputs * n_coins, "compressive-map table")
        check_enumeration(2**output_bits, "output codes")
        return n_inputs, n_coins

    @staticmethod
    def working_cells(arity: int, output_bits: int, coin_bits: int, alphabet_size: int = 2) -> int:
        """Cells one map of this shape adds to a batch's working set, after
        the shape and budget checks: the larger of its table (s**t * 2**r
        cells) and its conditioned counts (t * s * 2**m int64 cells, which
        :meth:`batch_conditioned_counts` returns and the verifiers' distance
        temporaries match)."""
        n_inputs, n_coins = CompressiveMap._check_shape(arity, output_bits, coin_bits, alphabet_size)
        return max(n_inputs * n_coins, arity * alphabet_size * 2**output_bits)

    # -- constructors -------------------------------------------------------

    @classmethod
    def random(
        cls,
        arity: int,
        output_bits: int,
        coin_bits: int,
        seed: int | Sequence[int] | np.random.SeedSequence,
        alphabet_size: int = 2,
    ) -> "CompressiveMap":
        """Uniformly random truth table, a deterministic function of the seed.

        The table is, cell for cell in row-major order, what
        ``np.random.default_rng(seed).integers(0, 2**output_bits,
        size=(n_inputs, n_coins), dtype=np.int64)`` returns.  The golden
        files and ``bench/checks.py``, which redraws every table that way,
        rely on that identity.  For a power-of-two range of 1 to 32 bits,
        that call keeps the top m bits of one 32-bit word per cell
        (Lemire's method never rejects there), and PCG64 hands out the low
        half of each raw 64-bit word first.  So the table is filled from
        raw words, one block of 2 * BLOCK_CELLS cells at a time, read as
        little-endian halves whatever the host's byte order and shifted
        into the table's own slice.
        """
        n_inputs, n_coins = cls._check_shape(arity, output_bits, coin_bits, alphabet_size)
        if output_bits == 0:
            return cls(arity, 0, coin_bits, np.zeros((n_inputs, n_coins), dtype=np.int64), alphabet_size)
        table = np.empty((n_inputs, n_coins), dtype=np.int64)
        cells = table.reshape(-1)
        raw = np.random.default_rng(seed).bit_generator.random_raw
        step = 2 * BLOCK_CELLS
        for lo in range(0, cells.size, step):
            hi = min(lo + step, cells.size)
            halves = raw((hi - lo + 1) // 2).astype("<u8", copy=False).view("<u4")
            np.right_shift(halves[: hi - lo], 32 - output_bits, out=cells[lo:hi])
        return cls(arity, output_bits, coin_bits, table, alphabet_size)

    @classmethod
    def constant(cls, arity: int, value: int = 0, output_bits: int = 1, coin_bits: int = 0) -> "CompressiveMap":
        n = 2**arity
        table = np.full((n, 2**coin_bits), value, dtype=np.int64)
        return cls(arity, output_bits, coin_bits, table)

    # -- indexing -----------------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.alphabet_size**self.arity

    @property
    def n_coins(self) -> int:
        return 2**self.coin_bits

    def input_index(self, symbols: Sequence[int]) -> int:
        if len(symbols) != self.arity:
            raise ValueError(f"expected {self.arity} symbols, got {len(symbols)}")
        idx = 0
        for a in symbols:
            if not 0 <= a < self.alphabet_size:
                raise ValueError(f"symbol {a} outside the alphabet")
            idx = idx * self.alphabet_size + a
        return idx

    def evaluate(self, symbols: Sequence[int], coin: int = 0) -> int:
        return int(self.table[self.input_index(symbols), coin])

    def output_label(self, code: int) -> BitString:
        return bits_label(code, self.output_bits)

    # -- distributions --------------------------------------------------------

    def output_counts(self) -> np.ndarray:
        """Output-code counts over all (input, coin) rows of the table."""
        return np.bincount(self.table.ravel(), minlength=2**self.output_bits)

    def conditioned_output_counts(self) -> np.ndarray:
        """Counts of outputs with one coordinate pinned to each symbol.

        Returns an int64 array of shape (arity, alphabet_size, 2**output_bits);
        entry [j, x, z] counts the (input, coin) rows with symbol x at
        coordinate j and output code z.  Each (j, x) slice sums to
        alphabet_size**(arity-1) * 2**coin_bits.  The one-map case of
        :meth:`batch_conditioned_counts`.
        """
        return CompressiveMap.batch_conditioned_counts([self])[0]

    @staticmethod
    def batch_conditioned_counts(maps: Sequence["CompressiveMap"]) -> np.ndarray:
        """:meth:`conditioned_output_counts` of a batch of B maps of one
        shape, from one fold: an int64 array of shape (B, arity,
        alphabet_size, 2**output_bits) whose [b] is map b's counts.

        The counts come from one fold of a code-major table, cur[c, i]: the
        coins with stacked code c = b * 2**m + z on input i, that is map b's
        coins with output z (mixed radix, first coordinate most
        significant).  Viewed as (codes, s, rest), cur's sums over rest
        count coordinate j by symbol, and its sum over the s slices is the
        next table, with coordinate j folded out, first coordinate first.
        After j folds an entry is at most s**j * 2**r; cur is kept in the
        narrowest unsigned dtype that holds that.  Each map's first stage
        is built on its own and written into its rows of cur, so the fold's
        numpy calls are shared by the batch and its counts are each map's
        own.

        The working set stays within about twice the batch's table bytes
        plus its counts (:meth:`working_cells` cells per map).
        Deterministic maps with at most 16 codes build cur by a one-hot
        comparison, 8 stacked codes per map (the tables' bytes) at a time,
        and the fold reads about 2**m * s**t entries per map twice.  Any
        other batch first counts its leading coordinates one at a time, by
        a bincount of each symbol's block of table rows (the last symbol is
        the code total minus the others), until the other coordinates have
        no more (code, input) pairs than a table has entries.  A map's rows
        of cur for those are built one block of inputs at a time, each by
        one keyed bincount over about BLOCK_CELLS keys and cells (at least
        the s**lead * 2**r keys of one input), so its int64 temporaries
        stay small however large the table is.  Maps with many codes thus
        cost about what per-coordinate bincounts cost.
        """
        f = maps[0]
        if len(maps) > 1:
            shape = (f.arity, f.output_bits, f.coin_bits, f.alphabet_size)
            if any((g.arity, g.output_bits, g.coin_bits, g.alphabet_size) != shape for g in maps[1:]):
                raise ValueError("a batch of maps needs one arity, output width, coin width and alphabet")
        t, s, m_codes = f.arity, f.alphabet_size, 2**f.output_bits
        n, coins = f.n_inputs, f.n_coins
        codes = len(maps) * m_codes
        out = np.empty((t, s, codes), dtype=np.int64)
        if coins == 1 and m_codes <= 16:
            lead, step = 0, 8 * len(maps)  # the batch's table bytes per chunk
            chunks: Iterable[np.ndarray] = (
                _one_hot(maps, m_codes, lo, min(lo + step, codes)) for lo in range(0, codes, step)
            )
        else:
            lead = 0
            while lead < t and m_codes * s ** (t - lead) > n * coins:
                lead += 1
            rest = s ** (t - lead)
            width = max(1, BLOCK_CELLS // max(m_codes, s**lead * coins))
            first = None
            for b, g in enumerate(maps):
                rows = g.table.reshape(-1, rest, coins)
                for lo in range(0, rest, width):
                    block = rows[:, lo : lo + width]
                    w = block.shape[1]
                    keyed = block * w
                    keyed += np.arange(w)[:, None]  # code * w + (input mod rest) - lo
                    counts = np.bincount(keyed.ravel(), minlength=m_codes * w).reshape(m_codes, w)
                    del keyed
                    if first is None:  # after the keys are freed: one block peaks as one bincount does
                        first = np.empty((codes, rest), dtype=np.min_scalar_type(s**lead * coins))
                    first[b * m_codes : (b + 1) * m_codes, lo : lo + w] = counts
            chunks = [first]
            del first, counts
        wide = np.min_scalar_type(n * coins // s)  # holds any one count
        total = np.empty(codes, dtype=np.int64)
        z = 0
        for cur in chunks:
            mc = len(cur)
            for j in range(lead, t):
                g = cur.reshape(mc, s, -1)
                np.add.reduce(g.transpose(1, 0, 2), axis=2, dtype=wide, out=out[j, :, z : z + mc])
                cur = np.add.reduce(g, axis=1, dtype=np.min_scalar_type(s ** (j + 1) * coins))
            total[z : z + mc] = cur.reshape(mc)
            z += mc
        del chunks, cur  # the leading coordinates need only the totals
        for b, g in enumerate(maps):
            zs = slice(b * m_codes, (b + 1) * m_codes)
            for j in range(lead):
                blocks = g.table.reshape(s**j, s, -1)
                for x in range(s - 1):
                    out[j, x, zs] = np.bincount(blocks[:, x, :].ravel(), minlength=m_codes)
                np.add.reduce(out[j, : s - 1, zs], axis=0, out=out[j, s - 1, zs])
                np.subtract(total[zs], out[j, s - 1, zs], out=out[j, s - 1, zs])
        return out.reshape(t, s, len(maps), m_codes).transpose(2, 0, 1, 3)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """Row-major bit packing of the table, base64 encoded.

        Each code is written as m bits, most significant first, and the bit
        stream is packed big-endian into bytes with zero padding at the end.
        """
        shifts = np.arange(self.output_bits - 1, -1, -1)
        bits = ((self.table.reshape(-1, 1) >> shifts) & 1).astype(np.uint8)
        obj: dict[str, Any] = {
            "t": self.arity,
            "m": self.output_bits,
            "r": self.coin_bits,
            "table": base64.b64encode(np.packbits(bits, bitorder="big").tobytes()).decode("ascii"),
        }
        if self.alphabet_size != 2:
            obj["alphabet_size"] = self.alphabet_size
        return obj

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "CompressiveMap":
        t, m, r = int(obj["t"]), int(obj["m"]), int(obj["r"])
        s = int(obj.get("alphabet_size", 2))
        raw = np.frombuffer(base64.b64decode(obj["table"]), dtype=np.uint8)
        n_rows = (s**t) * (2**r)
        if raw.size * 8 < n_rows * m:
            raise ValueError(f"table holds {raw.size * 8} bits, {n_rows * m} needed")
        bits = np.unpackbits(raw, count=n_rows * m, bitorder="big").reshape(n_rows, m)
        codes = bits.astype(np.int64) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
        return cls(t, m, r, codes.reshape(s**t, 2**r), s)


def _one_hot(maps: Sequence[CompressiveMap], m_codes: int, lo: int, hi: int) -> np.ndarray:
    """Stacked codes lo..hi-1 of deterministic maps as a (hi - lo, inputs)
    uint8 table: entry [c - lo, i] is 1 when map c // m_codes has output
    c % m_codes on input i."""
    first, last = lo // m_codes, (hi - 1) // m_codes
    if first == last:  # the chunk lies within one map
        z = lo - first * m_codes
        return (maps[first].table[:, 0] == np.arange(z, z + hi - lo)[:, None]).view(np.uint8)
    pieces = [
        maps[b].table[:, 0] == np.arange(max(lo - b * m_codes, 0), min(hi - b * m_codes, m_codes))[:, None]
        for b in range(first, last + 1)
    ]
    return np.concatenate(pieces).view(np.uint8)


# ---------------------------------------------------------------------------
# Toy languages
# ---------------------------------------------------------------------------


# Uniform draws per call when ToyLanguage.random builds a membership vector:
# its memory beyond the vector stays bounded at any length.
RANDOM_DRAW_CHUNK = 2**16


class ToyLanguage:
    """Explicit membership table for a language at one input length.

    An instance x in {0,1}^n is its vertex id, the integer with binary
    digits x, so ids sort as the strings do.  The table is one read-only
    boolean vector ``member`` indexed by id.  Bit strings appear only in
    language files (:meth:`to_json`, :meth:`from_json`: one hex number each).
    """

    __slots__ = ("n", "member")

    def __init__(self, n: int, yes: Iterable[int]):
        if n < 1:
            raise ValueError("input length must be at least 1")
        check_enumeration(2**n, "toy-language universe")
        ids = id_array(yes)
        outside = ids[(ids < 0) | (ids >= 2**n)]
        if outside.size:
            raise ValueError(f"{outside[0]} is not an {n}-bit id")
        member = np.zeros(2**n, dtype=bool)
        member[ids] = True
        member.setflags(write=False)
        self.n = n
        self.member = member

    @classmethod
    def random(cls, n: int, seed: int, density: float = 0.5) -> "ToyLanguage":
        """Each id a member when its uniform draw, in id order, is below
        density; the draws continue one stream, RANDOM_DRAW_CHUNK at a time."""
        language = cls(n, ())
        rng = np.random.default_rng(seed)
        member = np.empty(2**n, dtype=bool)
        for lo in range(0, member.size, RANDOM_DRAW_CHUNK):
            part = member[lo : lo + RANDOM_DRAW_CHUNK]
            np.less(rng.random(part.size), density, out=part)
        member.setflags(write=False)
        language.member = member
        return language

    def is_yes(self, v: int) -> bool:
        if not 0 <= v < self.member.size:
            raise ValueError(f"{v} is not an {self.n}-bit id")
        return bool(self.member[v])

    def count_yes(self, xs: Iterable[int]) -> int:
        """Number of members among the distinct ids of xs."""
        return sum(self.is_yes(v) for v in set(xs))

    def yes_instances(self) -> np.ndarray:
        """The members' ids, ascending."""
        return np.flatnonzero(self.member)

    def no_instances(self) -> np.ndarray:
        """The non-members' ids, ascending."""
        return np.flatnonzero(~self.member)

    def complement(self) -> "ToyLanguage":
        return ToyLanguage(self.n, self.no_instances())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ToyLanguage):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.member, other.member)

    def __repr__(self) -> str:
        return f"ToyLanguage(n={self.n}, yes={self.yes_instances().tolist()})"

    # hex serialization: each member becomes ceil(n/4) hex digits

    def to_json(self) -> dict[str, Any]:
        width = (self.n + 3) // 4
        return {"n": self.n, "yes": [format(v, f"0{width}x") for v in self.yes_instances().tolist()]}

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "ToyLanguage":
        if not isinstance(obj, dict) or "n" not in obj or "yes" not in obj:
            raise ValueError('a language needs an "n" and a "yes" entry')
        if not isinstance(obj["yes"], list):
            raise ValueError('a language\'s "yes" entry must be a list of hex ids')
        try:
            n = operator.index(obj["n"])  # rejects 3.9 and "3" rather than read them as 3
            # int(h, 16) alone would also read "0x7", " 5", "+3" and "0_5": what
            # is left of the joined entries without their hex digits is refused
            if "".join(obj["yes"]).encode("ascii").translate(None, b"0123456789abcdefABCDEF") or not all(obj["yes"]):
                raise ValueError('"yes" entries must be strings of hex digits')
            yes = [int(h, 16) for h in obj["yes"]]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed language: {exc}") from None
        return cls(n, yes)


# ---------------------------------------------------------------------------
# Subset distributions
# ---------------------------------------------------------------------------


def canonical_set(x: Iterable[int]) -> tuple[int, ...]:
    """Sorted, duplicate-free tuple of vertex ids (see :class:`ToyLanguage`)
    as Python ints; the canonical form of a set of instances throughout the
    package.  Anything but an integer, a bit string included, is a TypeError."""
    return tuple(sorted(set(map(operator.index, x))))


def id_array(ids: Iterable[int]) -> np.ndarray:
    """ids as an int64 array; anything but integers, bit strings included, is a ValueError."""
    arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def parse_bits(text: str, width: int) -> int:
    """The id of a width-character '0'/'1' string; a ValueError for any
    other text.  The inverse of :func:`bits_label`."""
    if len(text) != width or not set(text) <= {"0", "1"}:
        raise ValueError(f"{text!r} is not a {width}-bit string")
    return int(text, 2)


# ---------------------------------------------------------------------------
# Set-encoded compressions
# ---------------------------------------------------------------------------


class SetEncodedCompression:
    """Evaluator on sets of n-bit instances with declared error bounds.

    Subclasses implement :meth:`evaluate`; inputs are sets of vertex ids
    (any iterable of ints, canonicalized by :func:`canonical_set`), every
    size from 0 to the arity must be accepted, and the output is an integer
    code below 2**output_bits.  The declared soundness/completeness error
    bounds e_s and e_c must satisfy e_s + e_c < 1, which is what the
    sensitivity of one-yes inputs rests on.

    Output laws of picks from pools are looked up by :meth:`law_key` and
    memoised on the instance, so evaluate must be a fixed function of (set, coin).
    """

    def __init__(
        self,
        arity: int,
        output_bits: int = 1,
        coin_bits: int = 0,
        e_s: Fraction | float = 0,
        e_c: Fraction | float = 0,
    ):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if output_bits < 0 or coin_bits < 0:
            raise ValueError("bit counts must be nonnegative")
        e_s, e_c = Fraction(e_s), Fraction(e_c)
        if not (0 <= e_s <= 1 and 0 <= e_c <= 1):
            raise ValueError("error bounds must lie in [0, 1]")
        if e_s + e_c >= 1:
            raise ValueError("e_s + e_c must be below 1")
        self.arity = arity
        self.output_bits = output_bits
        self.coin_bits = coin_bits
        self.e_s = e_s
        self.e_c = e_c
        self._laws: dict[Hashable, FiniteDistribution] = {}

    @property
    def n_coins(self) -> int:
        return 2**self.coin_bits

    def evaluate(self, x: Collection[int], coin: int = 0) -> int:
        raise NotImplementedError

    def output_label(self, code: int) -> BitString:
        return bits_label(code, self.output_bits)

    def output_counts(self, x: Collection[int]) -> list[int]:
        """Output-code counts over all coin strings for one input set."""
        counts = [0] * (2**self.output_bits)
        canon = canonical_set(x)
        for coin in range(self.n_coins):
            counts[self.evaluate(canon, coin)] += 1
        return counts

    def counts_to_distribution(self, counts: Sequence[int], denom: int) -> FiniteDistribution:
        """Exact output law from per-code counts over a common denominator."""
        codes = [c for c, cnt in enumerate(counts) if cnt]
        labels = [self.output_label(c) for c in codes]
        return FiniteDistribution.from_counts(labels, [counts[c] for c in codes], denom)

    # -- laws of picks from pools ----------------------------------------------

    def law_key(self, pools: Sequence[Sequence[int | None]]) -> Hashable:
        """Hashable summary of the law on one uniform pick from each of
        several disjoint pools of ids, where None picks nothing; equal keys
        imply equal laws.  The default key is the pools as tuples.
        """
        return tuple(map(tuple, pools))

    def forced_class(self) -> np.ndarray | None:
        """The class of every input id, as :meth:`conditioned_keys` reads it:
        a boolean vector indexed by id, or None for one class per input (the
        default)."""
        return None

    def conditioned_keys(self, g: Sequence[int], v: int) -> tuple[Hashable, Hashable]:
        """The law keys that the selector compares for v in the edge g + (v,),
        and the query for v against member g; by default the subset pools
        of g without and with v forced in.

        For a g whose ids all share one class (:meth:`forced_class`, v not
        in g), the keys depend only on |g|, that class and v's class: hit-count
        keys meet this for every g, block keys over a hit-count base for g of
        one class, since every block then holds ids of g's class besides v.
        """
        return self.law_key(subset_pools(g)), self.law_key(subset_pools(g, (v,)))

    def law(self, key: Hashable) -> FiniteDistribution:
        """Law of a key, memoised per key.

        The memo lives as long as the compression.  Hit-count keys of subset
        laws keep it below (arity + 1)**2 entries; default keys add one
        entry per distinct pools asked for, about 2k per edge of size k
        that a selector scans.
        """
        law = self._laws.get(key)
        if law is None:
            law = self._laws[key] = self._compute_law(key)
        return law

    def _compute_law(self, key: Hashable) -> FiniteDistribution:
        return enumerate_law(self, key)

    def subset_output_distribution(self, ground: Sequence[int], forced: Sequence[int] = ()) -> FiniteDistribution:
        """Distribution of the output on U ∪ forced, U a uniform subset of ground.

        Forced elements are removed from the ground set first, so forcing an
        element of the ground set in or out behaves like conditioning the
        uniform subset distribution.  Looked up by law key; a miss
        enumerates subsets and coins unless a subclass has a closed form.
        """
        return self.law(self.law_key(subset_pools(ground, forced)))


def one_class(classes: np.ndarray, ids: Sequence[int]) -> bool:
    """Whether all of ids fall in one class of a :meth:`forced_class` vector."""
    inside = np.count_nonzero(classes[id_array(ids)])
    return inside == 0 or inside == len(ids)


def subset_pools(ground: Sequence[int], forced: Sequence[int] = ()) -> tuple[tuple[int | None, ...], ...]:
    """The pools of a uniform subset of ground plus forced elements: (w, None)
    for each canonical ground element w not forced, then (v,) for each
    canonical forced element v."""
    forced = canonical_set(forced)
    return tuple((w, None) for w in canonical_set(ground) if w not in forced) + tuple((v,) for v in forced)


def enumerate_law(a: SetEncodedCompression, pools: Sequence[Sequence[int | None]]) -> FiniteDistribution:
    """Reference law: every pick (one per pool, None picking nothing) and
    every coin enumerated.

    No memo and no closed form; tests compare every faster route with it.
    """
    rows = math.prod(len(p) for p in pools)
    check_enumeration(rows * a.n_coins, "pick output enumeration")
    acc = [0] * (2**a.output_bits)
    for picks in itertools.product(*pools):
        for code, cnt in enumerate(a.output_counts([w for w in picks if w is not None])):
            acc[code] += cnt
    return a.counts_to_distribution(acc, rows * a.n_coins)


class HitCountCompression(SetEncodedCompression):
    """Compression whose output law depends only on the number of hits.

    A hit is an input element that lies in ``hit_language``; subclasses give
    :meth:`hit_counts`, the output-code counts over all coin strings for an
    input with h hits.  One uniform pick per pool then has a closed-form law
    keyed by the sorted (size, hits) profile of the pools that hold a hit
    (:meth:`law_key`): a pool without a hit scales every count and the
    denominator alike.  A uniform subset of a ground set with k hits plus
    forced elements with h_f hits is h_f pools (1, 1) and k pools (2, 1).
    """

    def __init__(self, hit_language: ToyLanguage, arity: int, **kwargs: Any):
        super().__init__(arity, **kwargs)
        self.hit_language = hit_language

    def hits(self, x: Iterable[int]) -> int:
        """Number of distinct hit-language members in x."""
        return self.hit_language.count_yes(x)

    def hit_counts(self, h: int) -> list[int]:
        raise NotImplementedError

    def law_key(self, pools: Sequence[Sequence[int | None]]) -> tuple[tuple[int, int], ...]:
        """The sorted (size, hits) profile of the pools that hold a hit."""
        if len(pools) > self.arity:
            raise ValueError("pools exceed the arity")
        is_yes, profile = self.hit_language.is_yes, []
        for p in pools:
            if hits := sum(is_yes(w) for w in p if w is not None):
                profile.append((len(p), hits))
        return tuple(sorted(profile))

    def conditioned_keys(self, g: Sequence[int], v: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Keys of g's subset pools without and with v forced in, from one hit count."""
        ground = set(g)
        inside = v in ground
        if len(ground) + (not inside) > self.arity:
            raise ValueError("pools exceed the arity")
        h, hit = self.hits(ground), int(self.hit_language.is_yes(v))
        return ((2, 1),) * h, ((1, 1),) * hit + ((2, 1),) * (h - hit if inside else h)

    def _checked_input(self, x: Collection[int], coin: int) -> tuple[int, ...]:
        """The canonical set of an :meth:`evaluate` input, after checking
        its size against the arity and the coin against the coin strings."""
        x = canonical_set(x)
        if len(x) > self.arity:
            raise ValueError(f"set of size {len(x)} exceeds arity {self.arity}")
        if not 0 <= coin < self.n_coins:
            raise ValueError(f"coin {coin} outside {self.n_coins} coin strings")
        return x

    def forced_class(self) -> np.ndarray:
        """The hit bits: a forced pool (v,) adds (1, 1) to the key or nothing."""
        return self.hit_language.member

    def _compute_law(self, profile: tuple[tuple[int, int], ...]) -> FiniteDistribution:
        """hit_counts(h) weighted by x**h's coefficient in prod (misses + hits * x)."""
        ways = [1]
        for size, hits in profile:
            ways = [(size - hits) * w + hits * w_less for w, w_less in zip(ways + [0], [0] + ways)]
        counts = [self.hit_counts(h) for h in range(len(ways))]
        acc = [sum(w * c[code] for w, c in zip(ways, counts)) for code in range(2**self.output_bits)]
        return self.counts_to_distribution(acc, math.prod(size for size, _ in profile) * self.n_coins)


class OrCompression(HitCountCompression):
    """OR of language membership over the input set, with optional noise.

    The noiseless output bit is 1 exactly when the set intersects the
    language.  With coin_bits > 0, the bit is flipped with probability e_s
    on sets that miss the language and with probability e_c on sets that hit
    it; both probabilities must be dyadic at the coin budget so that coin
    enumeration stays exact.
    """

    def __init__(
        self,
        language: ToyLanguage,
        arity: int,
        e_s: Fraction | float = 0,
        e_c: Fraction | float = 0,
        coin_bits: int = 0,
    ):
        super().__init__(language, arity, output_bits=1, coin_bits=coin_bits, e_s=e_s, e_c=e_c)
        n_coins = 2**coin_bits
        for name, p in (("e_s", self.e_s), ("e_c", self.e_c)):
            if (p * n_coins).denominator != 1:
                raise ValueError(f"{name}={p} is not dyadic with {coin_bits} coin bits")
        self._flip_no = int(self.e_s * n_coins)
        self._flip_yes = int(self.e_c * n_coins)

    def evaluate(self, x: Collection[int], coin: int = 0) -> int:
        x = self._checked_input(x, coin)
        ideal = 1 if self.hits(x) else 0
        flip_below = self._flip_yes if ideal else self._flip_no
        return ideal ^ (1 if coin < flip_below else 0)

    def hit_counts(self, h: int) -> list[int]:
        ideal = 1 if h else 0
        flips = self._flip_yes if ideal else self._flip_no
        counts = [flips, flips]
        counts[ideal] = self.n_coins - flips
        return counts


def ideal_or_compression(language: ToyLanguage, arity: int) -> OrCompression:
    """Noiseless OR compression: output 1 exactly when the set hits the language."""
    return OrCompression(language, arity)


def noisy_or_compression(
    language: ToyLanguage,
    arity: int,
    e_s: Fraction | float,
    e_c: Fraction | float,
    coin_bits: int,
) -> OrCompression:
    return OrCompression(language, arity, e_s=e_s, e_c=e_c, coin_bits=coin_bits)


def bit_encode_subsets(a: SetEncodedCompression, e: Sequence[int]) -> CompressiveMap:
    """Binary compressive map b -> A({elements of e picked by the bits of b}).

    Element i of the canonically sorted edge is included exactly when bit i
    of the input is 1, so pinning coordinate i to 0/1 reproduces the
    conditioned subset distributions of A on the edge.
    """
    e = canonical_set(e)
    t = len(e)
    if t > a.arity:
        raise ValueError("edge larger than the compression arity")
    check_enumeration(2**t * a.n_coins, "subset bit-encoding")
    table = np.empty((2**t, a.n_coins), dtype=np.int64)
    for idx in range(2**t):
        subset = tuple(e[j] for j in range(t) if (idx >> (t - 1 - j)) & 1)
        for coin in range(a.n_coins):
            table[idx, coin] = a.evaluate(subset, coin)
    return CompressiveMap(t, a.output_bits, a.coin_bits, table)


def partition_blocks(e: Sequence[int], block_size: int) -> tuple[Edge, ...]:
    """Canonical partition of a sorted edge into consecutive equal blocks."""
    e = canonical_set(e)
    if block_size < 2:
        raise ValueError("blocks need at least two elements")
    if len(e) % block_size:
        raise ValueError(f"edge of size {len(e)} does not split into blocks of {block_size}")
    return tuple(e[i : i + block_size] for i in range(0, len(e), block_size))


def _conditioned_pools(blocks: Sequence[Edge], v: int) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """The blocks with v's block conditioned to avoid v, and pinned to v."""
    holder = [j for j, b in enumerate(blocks) if v in b]
    if not holder:
        raise ValueError(f"{v!r} is not in any block")
    j = holder[0]
    before, after = tuple(blocks[:j]), tuple(blocks[j + 1 :])
    return before + (tuple(w for w in blocks[j] if w != v),) + after, before + ((v,),) + after


class BlockCompression(SetEncodedCompression):
    """Block variant of a deterministic, exact compression a, for the base
    selector and reduction: g + (v,) splits into blocks of consecutive ids,
    and a sees one pick per block, v's block without v against pinned to v.
    The blocks are a's pools: a keys them, and its memo holds their laws.
    No set is evaluated and no subset law asked for."""

    def __init__(self, a: SetEncodedCompression, block_size: int):
        if a.coin_bits != 0 or a.e_s != 0 or a.e_c != 0:
            raise ValueError("the block reduction needs a deterministic, exact compression")
        if block_size < 2:
            raise ValueError("blocks need at least two elements")
        super().__init__(a.arity * block_size, output_bits=a.output_bits)
        self.base = a
        self.block_size = block_size

    def conditioned_keys(self, g: Sequence[int], v: int) -> tuple[Hashable, Hashable]:
        without, pinned = _conditioned_pools(partition_blocks((*g, v), self.block_size), v)
        return self.base.law_key(without), self.base.law_key(pinned)

    def law(self, key: Hashable) -> FiniteDistribution:
        return self.base.law(key)

    def forced_class(self) -> np.ndarray | None:
        """The base's classes (see :meth:`SetEncodedCompression.conditioned_keys`)."""
        return self.base.forced_class()
