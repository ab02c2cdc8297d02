"""Finite, fully enumerable compressive maps and set-encoded compressions.

A :class:`CompressiveMap` is an explicit truth table for a randomized map
from alphabet tuples of length t to m-bit output strings, with r internal
coin bits.  A :class:`SetEncodedCompression` evaluates subsets of n-bit
strings (up to t of them) to an m-bit output and carries declared soundness
and completeness error bounds; OR-style instances over a toy language are
the canonical examples.

Everything here is exact: output distributions are integer counts over a
power-of-two denominator, so the resulting masses are exact rationals.
Subset laws are memoised per compression under hashable law keys;
compressions that only count hits in a language (OR and transformed-OR
compressions) share one closed form, everything else enumerates.
"""

from __future__ import annotations

import base64
import math
from collections.abc import Collection, Hashable, Iterable, Sequence
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .budget import check_enumeration
from .distributions import FiniteDistribution, ProductDistribution

BitString = str


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

    __slots__ = ("arity", "output_bits", "coin_bits", "alphabet_size", "table", "_digits")

    def __init__(
        self,
        arity: int,
        output_bits: int,
        coin_bits: int,
        table: np.ndarray,
        alphabet_size: int = 2,
    ):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if output_bits < 0 or coin_bits < 0:
            raise ValueError("bit counts must be nonnegative")
        if alphabet_size < 2:
            raise ValueError("alphabet needs at least two symbols")
        n_inputs = alphabet_size**arity
        n_coins = 2**coin_bits
        check_enumeration(n_inputs * n_coins, "compressive-map table")
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (n_inputs, n_coins):
            raise ValueError(f"table shape {table.shape} != {(n_inputs, n_coins)}")
        if table.size and (table.min() < 0 or table.max() >= 2**output_bits):
            raise ValueError("table entry outside the output code range")
        self.arity = arity
        self.output_bits = output_bits
        self.coin_bits = coin_bits
        self.alphabet_size = alphabet_size
        self.table = table
        self.table.setflags(write=False)
        self._digits: np.ndarray | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def random(
        cls,
        arity: int,
        output_bits: int,
        coin_bits: int,
        seed: int | np.random.SeedSequence,
        alphabet_size: int = 2,
    ) -> "CompressiveMap":
        """Uniformly random truth table, a deterministic function of the seed."""
        n_inputs = alphabet_size**arity
        n_coins = 2**coin_bits
        check_enumeration(n_inputs * n_coins, "compressive-map table")
        rng = np.random.default_rng(seed)
        if output_bits == 0:
            table = np.zeros((n_inputs, n_coins), dtype=np.int64)
        else:
            table = rng.integers(0, 2**output_bits, size=(n_inputs, n_coins), dtype=np.int64)
        return cls(arity, output_bits, coin_bits, table, alphabet_size)

    @classmethod
    def constant(cls, arity: int, value: int = 0, output_bits: int = 1, coin_bits: int = 0) -> "CompressiveMap":
        n = 2**arity
        table = np.full((n, 2**coin_bits), value, dtype=np.int64)
        return cls(arity, output_bits, coin_bits, table)

    @classmethod
    def dictator(cls, arity: int, coordinate: int = 0) -> "CompressiveMap":
        """Binary map that copies one input coordinate to a single output bit."""
        idx = np.arange(2**arity)
        shift = arity - 1 - coordinate
        table = ((idx >> shift) & 1).reshape(-1, 1).astype(np.int64)
        return cls(arity, 1, 0, table)

    @classmethod
    def xor(cls, arity: int) -> "CompressiveMap":
        idx = np.arange(2**arity)
        bits = (idx[:, None] >> np.arange(arity)[None, :]) & 1
        table = (bits.sum(axis=1) % 2).reshape(-1, 1).astype(np.int64)
        return cls(arity, 1, 0, table)

    @classmethod
    def symbol_identity(cls, alphabet_size: int) -> "CompressiveMap":
        """Arity-1 map that outputs the binary code of its input symbol."""
        m = max(1, (alphabet_size - 1).bit_length())
        table = np.arange(alphabet_size, dtype=np.int64).reshape(-1, 1)
        return cls(1, m, 0, table, alphabet_size)

    # -- indexing -----------------------------------------------------------

    @property
    def epsilon(self) -> Fraction:
        """Output length per input coordinate, m/t."""
        return Fraction(self.output_bits, self.arity)

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

    def input_symbols(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.arity):
            out.append(index % self.alphabet_size)
            index //= self.alphabet_size
        return tuple(reversed(out))

    def coordinate_digits(self) -> np.ndarray:
        """Array of shape (arity, n_inputs) with the symbol at each coordinate."""
        if self._digits is None:
            idx = np.arange(self.n_inputs)
            digits = np.empty((self.arity, self.n_inputs), dtype=np.int64)
            for j in range(self.arity):
                power = self.alphabet_size ** (self.arity - 1 - j)
                digits[j] = (idx // power) % self.alphabet_size
            self._digits = digits
        return self._digits

    def evaluate(self, symbols: Sequence[int], coin: int = 0) -> int:
        return int(self.table[self.input_index(symbols), coin])

    def output_label(self, code: int) -> BitString:
        return bits_label(code, self.output_bits)

    # -- distributions --------------------------------------------------------

    def output_counts(self) -> np.ndarray:
        """Output-code counts over all (input, coin) rows of the table."""
        return np.bincount(self.table.ravel(), minlength=2**self.output_bits)

    def output_distribution(
        self, inputs: ProductDistribution | FiniteDistribution | None = None, exact: bool = True
    ) -> FiniteDistribution:
        """Exact distribution of the map's output under the given input law.

        The default input law is the uniform distribution on Sigma^t.  A
        ProductDistribution must match the map's alphabet and arity; a
        FiniteDistribution must be over coordinate tuples (this covers
        mixtures that are not products).
        """
        if inputs is None:
            inputs = ProductDistribution.uniform(tuple(range(self.alphabet_size)), self.arity)
        if isinstance(inputs, ProductDistribution):
            if inputs.arity != self.arity:
                raise ValueError("input arity mismatch")
            if set(inputs.alphabet) != set(range(self.alphabet_size)):
                raise ValueError("input alphabet mismatch")
            if inputs.is_uniform():
                counts = self.output_counts()
                return self._counts_to_distribution(counts, self.n_inputs * self.n_coins, exact)
            joint = inputs.joint()
        else:
            joint = inputs
        acc: dict[int, Fraction] = {}
        for symbols in joint.support():
            weight = joint.prob(symbols)
            row = self.table[self.input_index(symbols)]
            for code, cnt in zip(*np.unique(row, return_counts=True)):
                acc[int(code)] = acc.get(int(code), Fraction(0)) + weight * Fraction(int(cnt), self.n_coins)
        codes = sorted(acc)
        labels = [self.output_label(c) for c in codes]
        masses = [acc[c] if exact else float(acc[c]) for c in codes]
        return FiniteDistribution(labels, masses)

    def conditioned_output_counts(self) -> np.ndarray:
        """Counts of outputs with one coordinate pinned to each symbol.

        Returns an int array of shape (arity, alphabet_size, 2**output_bits);
        entry [j, x, z] counts the (input, coin) rows with symbol x at
        coordinate j and output code z.  Each (j, x) slice sums to
        alphabet_size**(arity-1) * 2**coin_bits.
        """
        t, s, m_codes = self.arity, self.alphabet_size, 2**self.output_bits
        digits = self.coordinate_digits()
        out = np.empty((t, s, m_codes), dtype=np.int64)
        flat_table = self.table
        for j in range(t):
            keyed = digits[j][:, None] * m_codes + flat_table
            counts = np.bincount(keyed.ravel(), minlength=s * m_codes)
            out[j] = counts.reshape(s, m_codes)
        return out

    def _counts_to_distribution(self, counts: np.ndarray, denom: int, exact: bool = True) -> FiniteDistribution:
        codes = np.nonzero(counts)[0]
        labels = [self.output_label(int(c)) for c in codes]
        return FiniteDistribution.from_counts(labels, [int(counts[c]) for c in codes], denom, exact)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """Row-major bit packing of the table, base64 encoded."""
        bits: list[int] = []
        for row in self.table:
            for code in row:
                for k in range(self.output_bits - 1, -1, -1):
                    bits.append((int(code) >> k) & 1)
        packed = bytearray()
        for start in range(0, len(bits), 8):
            byte = 0
            for b in bits[start : start + 8]:
                byte = (byte << 1) | b
            byte <<= max(0, 8 - len(bits[start : start + 8]))
            packed.append(byte)
        obj: dict[str, Any] = {
            "t": self.arity,
            "m": self.output_bits,
            "r": self.coin_bits,
            "table": base64.b64encode(bytes(packed)).decode("ascii"),
        }
        if self.alphabet_size != 2:
            obj["alphabet_size"] = self.alphabet_size
        return obj

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "CompressiveMap":
        t, m, r = int(obj["t"]), int(obj["m"]), int(obj["r"])
        s = int(obj.get("alphabet_size", 2))
        raw = base64.b64decode(obj["table"])
        n_rows = (s**t) * (2**r)
        codes = []
        bitpos = 0
        for _ in range(n_rows):
            code = 0
            for _ in range(m):
                byte = raw[bitpos // 8]
                code = (code << 1) | ((byte >> (7 - bitpos % 8)) & 1)
                bitpos += 1
            codes.append(code)
        table = np.array(codes, dtype=np.int64).reshape(s**t, 2**r)
        return cls(t, m, r, table, s)


def random_compressive_map(
    arity: int,
    output_bits: int,
    coin_bits: int,
    seed: int | np.random.SeedSequence,
    alphabet_size: int = 2,
) -> CompressiveMap:
    return CompressiveMap.random(arity, output_bits, coin_bits, seed, alphabet_size)


def output_distribution(
    f: CompressiveMap, inputs: ProductDistribution | FiniteDistribution | None = None
) -> FiniteDistribution:
    return f.output_distribution(inputs)


# ---------------------------------------------------------------------------
# Toy languages
# ---------------------------------------------------------------------------


class ToyLanguage:
    """Explicit membership table for a language at one input length.

    Strings are n-character '0'/'1' strings; the yes-set and no-set
    partition all 2**n of them.
    """

    __slots__ = ("n", "_yes")

    def __init__(self, n: int, yes: Iterable[str]):
        if n < 1:
            raise ValueError("input length must be at least 1")
        check_enumeration(2**n, "toy-language universe")
        yes = frozenset(yes)
        for v in yes:
            if len(v) != n or set(v) - {"0", "1"}:
                raise ValueError(f"{v!r} is not an {n}-bit string")
        self.n = n
        self._yes = yes

    @classmethod
    def random(cls, n: int, seed: int, density: float = 0.5) -> "ToyLanguage":
        rng = np.random.default_rng(seed)
        picks = rng.random(2**n) < density
        yes = {format(i, f"0{n}b") for i in range(2**n) if picks[i]}
        return cls(n, yes)

    def is_yes(self, v: str) -> bool:
        if len(v) != self.n:
            raise ValueError(f"{v!r} has length {len(v)}, expected {self.n}")
        return v in self._yes

    def count_yes(self, xs: Iterable[str]) -> int:
        """Number of members among the distinct strings of xs."""
        xs = set(xs)
        if not set(map(len, xs)) <= {self.n}:
            v = min(v for v in xs if len(v) != self.n)
            raise ValueError(f"{v!r} has length {len(v)}, expected {self.n}")
        return len(self._yes.intersection(xs))

    @property
    def yes_set(self) -> frozenset[str]:
        return self._yes

    def universe(self) -> tuple[str, ...]:
        return tuple(format(i, f"0{self.n}b") for i in range(2**self.n))

    def yes_instances(self) -> tuple[str, ...]:
        return tuple(v for v in self.universe() if v in self._yes)

    def no_instances(self) -> tuple[str, ...]:
        return tuple(v for v in self.universe() if v not in self._yes)

    def complement(self) -> "ToyLanguage":
        return ToyLanguage(self.n, set(self.universe()) - self._yes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ToyLanguage):
            return NotImplemented
        return self.n == other.n and self._yes == other._yes

    def __hash__(self):
        return hash((self.n, self._yes))

    def __repr__(self) -> str:
        return f"ToyLanguage(n={self.n}, yes={sorted(self._yes)})"

    # hex serialization: each string becomes ceil(n/4) hex digits

    def _hex_width(self) -> int:
        return (self.n + 3) // 4

    def to_json(self) -> dict[str, Any]:
        width = self._hex_width()
        return {"n": self.n, "yes": sorted(format(int(v, 2), f"0{width}x") for v in self._yes)}

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "ToyLanguage":
        if not isinstance(obj, dict) or "n" not in obj or "yes" not in obj:
            raise ValueError('a language needs an "n" and a "yes" entry')
        try:
            n = int(obj["n"])
            yes = {format(int(h, 16), f"0{n}b") for h in obj["yes"]}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed language: {exc}") from None
        return cls(n, yes)


# ---------------------------------------------------------------------------
# Subset distributions
# ---------------------------------------------------------------------------


def canonical_set(x: Iterable[str]) -> tuple[str, ...]:
    """Lexicographically sorted, duplicate-free tuple; the canonical form of
    a set of equal-length strings throughout the package."""
    return tuple(sorted(set(x)))


def subset_distribution(
    e: Sequence[str], mode: str = "uniform", v: str | None = None, exact: bool = True
) -> FiniteDistribution:
    """Distribution over subsets of a ground set, as canonical sorted tuples.

    Modes: "uniform" samples a subset of e uniformly; "without" additionally
    forces v out of every sample; "with" forces v into every sample.  In the
    conditioned modes v must be an element of e and each of the 2**(|e|-1)
    eligible subsets is equally likely.
    """
    e = canonical_set(e)
    if mode == "uniform":
        ground, forced = e, ()
    elif mode in ("without", "with"):
        if v is None or v not in e:
            raise ValueError(f"conditioned mode needs v inside the ground set, got {v!r}")
        ground = tuple(w for w in e if w != v)
        forced = (v,) if mode == "with" else ()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    check_enumeration(2 ** len(ground), "subset enumeration")
    outcomes = []
    for bits in range(2 ** len(ground)):
        subset = tuple(w for k, w in enumerate(ground) if (bits >> k) & 1)
        outcomes.append(canonical_set(subset + forced))
    n = len(outcomes)
    mass = [Fraction(1, n)] * n if exact else [1.0 / n] * n
    return FiniteDistribution(outcomes, mass)


# ---------------------------------------------------------------------------
# Set-encoded compressions
# ---------------------------------------------------------------------------


class SetEncodedCompression:
    """Evaluator on subsets of n-bit strings with declared error bounds.

    Subclasses implement :meth:`evaluate`; inputs are sets (any iterable,
    canonicalized by sorting), every size from 0 to the arity must be
    accepted, and the output is an integer code below 2**output_bits.  The
    declared soundness/completeness error bounds e_s and e_c must satisfy
    e_s + e_c < 1, which is what the sensitivity of one-yes inputs rests on.

    Subset output laws are looked up by :meth:`law_key` and memoised on the
    instance, so evaluate must be a fixed function of (set, coin).
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
        self._laws: dict[tuple[Hashable, bool], FiniteDistribution] = {}

    @property
    def n_coins(self) -> int:
        return 2**self.coin_bits

    def evaluate(self, x: Collection[str], coin: int = 0) -> int:
        raise NotImplementedError

    def output_label(self, code: int) -> BitString:
        return bits_label(code, self.output_bits)

    def output_counts(self, x: Collection[str]) -> list[int]:
        """Output-code counts over all coin strings for one input set."""
        counts = [0] * (2**self.output_bits)
        canon = canonical_set(x)
        for coin in range(self.n_coins):
            counts[self.evaluate(canon, coin)] += 1
        return counts

    def counts_to_distribution(self, counts: Sequence[int], denom: int, exact: bool = True) -> FiniteDistribution:
        """Output law from per-code counts over a common denominator."""
        codes = [c for c, cnt in enumerate(counts) if cnt]
        labels = [self.output_label(c) for c in codes]
        return FiniteDistribution.from_counts(labels, [counts[c] for c in codes], denom, exact)

    # -- subset laws ---------------------------------------------------------

    def law_key(self, ground: Sequence[str], forced: Sequence[str] = ()) -> Hashable:
        """Hashable summary of a subset-law query; equal keys imply equal laws.

        The default key is the canonical (ground minus forced, forced) pair.
        """
        return _split_ground(ground, forced)

    def conditioned_law_keys(self, e: Sequence[str]) -> Iterable[tuple[Hashable, Hashable]]:
        """For each element v of the canonical edge e, the law keys of e minus v
        without and with v forced in, in edge order."""
        for v in e:
            rest = tuple(w for w in e if w != v)
            yield self.law_key(rest), self.law_key(rest, (v,))

    def law(self, key: Hashable, exact: bool = True) -> FiniteDistribution:
        """Subset law of a law key, memoised per (key, exact) on the instance.

        The memo lives as long as the compression.  Hit-count keys keep it
        below (arity + 1)**2 entries per arithmetic; default keys add one
        entry per distinct (ground, forced) pair asked for, about 2k per
        edge of size k that a selector scans.
        """
        memo_key = (key, exact)
        law = self._laws.get(memo_key)
        if law is None:
            law = self._laws[memo_key] = self._compute_law(key, exact)
        return law

    def _compute_law(self, key: Hashable, exact: bool) -> FiniteDistribution:
        ground, forced = key
        return enumerate_subset_law(self, ground, forced, exact)

    def subset_output_distribution(
        self, ground: Sequence[str], forced: Sequence[str] = (), exact: bool = True
    ) -> FiniteDistribution:
        """Distribution of the output on U ∪ forced, U a uniform subset of ground.

        Forced elements are removed from the ground set first, so forcing an
        element of the ground set in or out behaves like conditioning the
        uniform subset distribution.  Looked up by law key; a miss
        enumerates subsets and coins unless a subclass has a closed form.
        """
        return self.law(self.law_key(ground, forced), exact)


def _split_ground(ground: Sequence[str], forced: Sequence[str] = ()) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Canonical (ground minus forced, forced) pair of a subset-law query."""
    forced = canonical_set(forced)
    return tuple(w for w in canonical_set(ground) if w not in forced), forced


def enumerate_subset_law(
    a: SetEncodedCompression, ground: Sequence[str], forced: Sequence[str] = (), exact: bool = True
) -> FiniteDistribution:
    """Reference subset law: exhaustive over the subsets of ground and all coins.

    No memo and no closed form; tests compare every faster route with it.
    """
    ground, forced = _split_ground(ground, forced)
    check_enumeration(2 ** len(ground) * a.n_coins, "subset output enumeration")
    acc = [0] * (2**a.output_bits)
    for bits in range(2 ** len(ground)):
        subset = tuple(w for k, w in enumerate(ground) if (bits >> k) & 1)
        for code, cnt in enumerate(a.output_counts(subset + forced)):
            acc[code] += cnt
    return a.counts_to_distribution(acc, 2 ** len(ground) * a.n_coins, exact)


class HitCountCompression(SetEncodedCompression):
    """Compression whose output law depends only on the number of hits.

    A hit is an input element that lies in ``hit_language``; subclasses give
    :meth:`hit_counts`, the output-code counts over all coin strings for an
    input with h hits.  A uniform subset of a ground set with k hits, plus
    forced elements with h_f hits, then has the closed-form law
    sum_j C(k, j) * hit_counts(h_f + j) / (2**k * n_coins), so the law key
    is the pair (ground hits, forced hits).
    """

    def __init__(self, hit_language: ToyLanguage, arity: int, **kwargs: Any):
        super().__init__(arity, **kwargs)
        self.hit_language = hit_language

    def hits(self, x: Iterable[str]) -> int:
        """Number of distinct hit-language members in x."""
        return self.hit_language.count_yes(x)

    def hit_counts(self, h: int) -> list[int]:
        raise NotImplementedError

    def law_key(self, ground: Sequence[str], forced: Sequence[str] = ()) -> tuple[int, int]:
        forced = set(forced)
        ground = set(ground) - forced
        if len(ground) + len(forced) > self.arity:
            raise ValueError("ground plus forced elements exceed the arity")
        return self.hits(ground), self.hits(forced)

    def conditioned_law_keys(self, e: Sequence[str]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        # one membership lookup per element: element i leaves the other
        # elements' hits in the ground set and brings its own hit when forced
        if len(e) > self.arity:
            raise ValueError("ground plus forced elements exceed the arity")
        is_yes = self.hit_language.is_yes
        own = [1 if is_yes(v) else 0 for v in e]
        total = sum(own)
        return [((total - h, 0), (total - h, h)) for h in own]

    def _compute_law(self, key: tuple[int, int], exact: bool) -> FiniteDistribution:
        k, forced_hits = key
        acc = [0] * (2**self.output_bits)
        for j in range(k + 1):
            ways = math.comb(k, j)
            for code, cnt in enumerate(self.hit_counts(forced_hits + j)):
                acc[code] += ways * cnt
        return self.counts_to_distribution(acc, 2**k * self.n_coins, exact)


class CallableSetCompression(SetEncodedCompression):
    """Set compression backed by a plain function, mainly for tests."""

    def __init__(self, fn: Callable[[tuple[str, ...], int], int], arity: int, **kwargs: Any):
        super().__init__(arity, **kwargs)
        self._fn = fn

    def evaluate(self, x: Collection[str], coin: int = 0) -> int:
        return self._fn(canonical_set(x), coin)


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
        self.language = language
        self._flip_no = int(self.e_s * n_coins)
        self._flip_yes = int(self.e_c * n_coins)

    def evaluate(self, x: Collection[str], coin: int = 0) -> int:
        x = canonical_set(x)
        if len(x) > self.arity:
            raise ValueError(f"set of size {len(x)} exceeds arity {self.arity}")
        if not 0 <= coin < self.n_coins:
            raise ValueError(f"coin {coin} outside {self.n_coins} coin strings")
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


def bit_encode_subsets(a: SetEncodedCompression, e: Sequence[str]) -> CompressiveMap:
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
