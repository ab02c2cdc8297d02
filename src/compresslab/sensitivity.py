"""Noise-sensitivity functionals of compressive maps and their certified bounds.

Inputs are uniform throughout: every functional here is a statement about
a map fed uniformly random symbols.  Three inequalities are verified, each
as a report with a left side measured by exhaustive enumeration and a right
side from a closed form:

* average noise sensitivity of a binary-alphabet map is at most
  sqrt(2 ln 2 * m/t),
* the coordinate-average KL divergence between conditioned and
  unconditioned outputs is at most I(output : input) / t,
* the average distance between the two ways of conditioning one coordinate
  (pinned to a symbol versus avoiding it) is at most
  1 - exp(-1 - I/t in nats) + 1/|alphabet|.

Every left side, and every functional built from one, is the mean of one
term table: a lemma's term per coordinate j and symbol x, read from the
map's conditioned output counts, which are built once per call.  All
distance terms of one map share the denominator 2 * n1 * n2 of its two
conditioned count totals, so the table holds their int64 numerators; the
mean is one exact rational, and the witness is the first largest
numerator.  KL terms are float bits.  :func:`coordinate_terms` hands the
table out as Fractions and floats.  Probabilities and statistical distances
are exact rationals; logarithms are evaluated in floats, so certified
slacks carry a 1e-9 tolerance.

:func:`verify_batch` verifies a batch of B maps of one shape from one count
pass (:meth:`CompressiveMap.batch_conditioned_counts`), and the three
single-map verifiers are its B = 1 case.  The distance numerators of the
batch are one int64 array with a leading batch axis; KL terms, means,
witnesses and right sides are each map's own, so a map's report does not
depend on the batch it is verified in, to the bit.

The information I(output : input) on the KL and conditioned-distance right
sides comes from the same count pass: H(output) from its full output
counts, and H(output | input) as the input-average of each table row's coin
entropy.  Those are summed one block of rows at a time, about BLOCK_CELLS
(row, code) cells each, so no (inputs x codes) table is built.  numpy sums
each row of a block along its codes in the same grouping whatever the
block's height, so the float result is the full table's, to the bit.  A
row's coin entropy depends only on its tuple of coin codes, so a map with
fewer such tuples, (2**m)**(2**r), than rows sums one representative row
per tuple and gathers each row's entropy by its tuple's key: the same
values, averaged over the same full-length array of rows.  A batch of such
maps sums the representative rows once and gathers each map's rows on
their own.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any

import numpy as np

from .compression import BLOCK_CELLS, CompressiveMap

LEMMA_KL_BOUND = "KL_BOUND"
LEMMA_PINSKER = "PINSKER_SENS"
LEMMA_VAJDA = "VAJDA_SENS"

#: Tolerance for comparisons whose right side involves a logarithm.
SLACK_TOL = 1e-9

LOG2_E = math.log2(math.e)

#: The one count pass of a batch of B maps of one shape (:func:`_batch_counts`):
#: full output counts (B, 2**m), conditioned counts (B, t, s, 2**m), and their
#: two denominators.
Counts = tuple[np.ndarray, np.ndarray, int, int]


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one inequality check.

    The witness is the coordinate/symbol pair attaining the largest single
    term of the averaged left side (symbol None when the left side averages
    over coordinates only).  slack = rhs - lhs must be >= -1e-9 on every
    valid instance; these are theorems.
    """

    lemma: str
    lhs: float
    rhs: float
    witness_j: int | None
    witness_x: int | None
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL

    def to_json(self) -> dict[str, Any]:
        return {
            "lemma": self.lemma,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "witness": {"j": self.witness_j, "x": self.witness_x},
            "params": dict(self.params),
        }


def pinsker_threshold(output_bits: int, arity: int) -> float:
    """sqrt(2 ln 2 * m/t), the noise-sensitivity ceiling of an (m, t) map."""
    return math.sqrt(2 * math.log(2) * output_bits / arity)


def vajda_threshold(info_bits: float, arity: int, alphabet_size: int) -> float:
    """1 - 2**(-log2(e) - I/t) + 1/|alphabet|; the conditioned-distance ceiling."""
    return 1.0 - 2.0 ** (-LOG2_E - info_bits / arity) + 1.0 / alphabet_size


# ---------------------------------------------------------------------------
# count-vector helpers (exact distances, float divergences)
# ---------------------------------------------------------------------------


def _count_kl_bits(cp: Sequence[int], np_total: int, cq: Sequence[int], nq_total: int) -> float:
    total = 0.0
    for a, b in zip(cp, cq):
        if a:
            p = a / np_total
            q = b / nq_total
            if q == 0.0:
                return math.inf
            total += p * math.log2(p / q)
    return total


def _count_entropy_bits(counts: Sequence[int], total: int) -> float:
    out = 0.0
    for c in counts:
        if c:
            p = c / total
            out -= p * math.log2(p)
    return out


@lru_cache(maxsize=None)
def _coin_terms(n_coins: int) -> np.ndarray:
    """-p log2 p at p = c / n_coins for every coin count c = 0..n_coins (0 at c = 0)."""
    p = np.arange(n_coins + 1) / n_coins
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    terms.setflags(write=False)
    return terms


def _row_entropies(table: np.ndarray, m_codes: int) -> np.ndarray:
    """Each table row's coin entropy in bits: -p log2 p summed over its (row, code) cells.

    The rows are taken in blocks of about BLOCK_CELLS cells and keys (one
    row when a row alone has more): each block's cells come from one keyed
    bincount and one gather from :func:`_coin_terms`, and each row is summed
    along its codes, as one (rows x codes) table would be.  numpy sums each
    row of a block the same way whatever the block's height, so the row
    entropies do not depend on the blocking.
    """
    n, n_coins = table.shape
    terms = _coin_terms(n_coins)
    rows = max(1, BLOCK_CELLS // max(m_codes, n_coins))
    offsets = np.arange(rows)[:, None] * m_codes
    h_rows = np.empty(n)
    for lo in range(0, n, rows):
        block = table[lo : lo + rows]
        keyed = (block + offsets[: len(block)]).ravel()
        cells = np.bincount(keyed, minlength=len(block) * m_codes).reshape(len(block), m_codes)
        h_rows[lo : lo + len(block)] = terms[cells].sum(axis=1)
    return h_rows


def _coin_entropy_bits(maps: Sequence[CompressiveMap]) -> list[float]:
    """H(output | input) in bits of each map of a batch of one shape: the
    input-average of each table row's coin entropy.

    A row's entropy depends only on its tuple of coin codes, its key
    sum_c table[:, c] * (2**m)**c.  When there are fewer keys than rows,
    :func:`_row_entropies` runs once per batch over one representative row
    per key, and each row's entropy is gathered by its key, the keys
    computed one block of BLOCK_CELLS rows at a time so no key array over
    all rows is held.  Otherwise it runs over each map's own rows.  Either
    way each row's entropy is the same float sum, and each map's mean is
    taken over the same full-length array of its row entropies, so the
    result does not depend on the route or the batch, to the bit.
    """
    f = maps[0]
    m, n_coins, n = f.output_bits, f.n_coins, f.n_inputs
    m_codes = 2**m
    if m * n_coins >= (n - 1).bit_length():  # (2**m)**n_coins >= n, without the power
        return [float(_row_entropies(g.table, m_codes).mean()) for g in maps]
    shifts = m * np.arange(n_coins)
    h_keys = _row_entropies((np.arange(2 ** (m * n_coins))[:, None] >> shifts) & (m_codes - 1), m_codes)
    h_rows = np.empty(n)
    entropies = []
    for g in maps:
        for lo in range(0, n, BLOCK_CELLS):
            block = g.table[lo : lo + BLOCK_CELLS]
            key = block[:, 0].copy()
            for c in range(1, n_coins):
                key += block[:, c] << shifts[c]
            np.take(h_keys, key, out=h_rows[lo : lo + len(block)])
        entropies.append(float(h_rows.mean()))
    return entropies


def _batch_counts(maps: Sequence[CompressiveMap]) -> Counts:
    """(full counts, conditioned counts, full denom, conditioned denom) of a
    batch of maps of one shape, from one count pass."""
    cond = CompressiveMap.batch_conditioned_counts(maps)
    full = cond[:, 0].sum(axis=1)
    n_full = maps[0].n_inputs * maps[0].n_coins
    return full, cond, n_full, n_full // maps[0].alphabet_size


def _term_table(
    maps: Sequence[CompressiveMap], lemma: str, counts: Counts | None = None
) -> tuple[Sequence[np.ndarray], int | None]:
    """The lemma's (t, s) terms of each map of a batch, indexed by map, with
    their common denominator.

    The distance terms share the denominator 2 * n1 * n2, so they come as
    one (B, t, s) int64 array of numerators, sum_z |c1[z] * n2 - c2[z] * n1|;
    int64 is safe because counts and denominators are bounded by the row
    budget.  KL terms are float bits, each summed over z in code order, one
    (t, s) array per map, with denominator None.
    """
    f = maps[0]
    if lemma == LEMMA_PINSKER and f.alphabet_size != 2:
        raise ValueError("the noise-sensitivity terms need a binary alphabet")
    full, cond, n_full, n_cond = _batch_counts(maps) if counts is None else counts
    if lemma == LEMMA_PINSKER:
        # d(out | j=0, out | j=1), one column
        return np.abs(cond[:, :, 0] * n_cond - cond[:, :, 1] * n_cond).sum(axis=2, keepdims=True), 2 * n_cond * n_cond
    if lemma == LEMMA_VAJDA:
        # d(out | j!=x, out | j=x)
        n_ne = n_full - n_cond
        return np.abs((full[:, None, None] - cond) * n_cond - cond * n_ne).sum(axis=3), 2 * n_ne * n_cond
    if lemma == LEMMA_KL_BOUND:
        # one count list at a time besides the map's full counts, read once per map
        tables = [
            np.array([[_count_kl_bits(c_jx.tolist(), n_cond, full_b, n_full) for c_jx in c_j] for c_j in c])
            for c, full_b in zip(cond, full.tolist())
        ]
        return tables, None
    raise ValueError(f"unknown lemma {lemma!r}")


def _mean(table: np.ndarray, denom: int | None) -> Any:
    """Mean of a term table: an exact rational over a common denominator,
    else a running float sum in (j, x) order."""
    if denom is not None:
        return Fraction(sum(table.ravel().tolist()), denom * table.size)
    total = 0.0
    for term in table.ravel().tolist():
        total += term
    return total / table.size


def coordinate_terms(f: CompressiveMap, lemma: str, counts: Counts | None = None) -> list[list[Any]]:
    """The (t, s) terms, in row-major (j, x) order, whose mean is the lemma's left side.

    PINSKER_SENS has one column, d(out | j=0, out | j=1) on binary alphabets;
    KL_BOUND has KL(out | j=x, out) in float bits; VAJDA_SENS has
    d(out | j!=x, out | j=x).  Distances are exact Fractions.  ``counts`` is
    the ``_batch_counts([f])`` tuple, so one caller can read several lemmas
    from one count pass.
    """
    table, denom = _term_table([f], lemma, counts)
    if denom is None:
        return table[0].tolist()
    return [[Fraction(v, denom) for v in row] for row in table[0].tolist()]


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def _information(maps: Sequence[CompressiveMap], full: np.ndarray) -> list[float]:
    """I(output : input) in bits of each map of a batch, from its row of full
    output counts: H(output) minus the input-average of the per-row coin
    entropies (:func:`_coin_entropy_bits`); zero coin bits make the
    conditional term vanish."""
    n_full = maps[0].n_inputs * maps[0].n_coins
    h_out = [_count_entropy_bits(counts, n_full) for counts in full.tolist()]
    if maps[0].coin_bits == 0:
        return h_out
    return [max(h - h_coin, 0.0) for h, h_coin in zip(h_out, _coin_entropy_bits(maps))]


def map_input_mutual_information(f: CompressiveMap) -> float:
    """I(output : input) in bits.

    Computed as H(output) minus the input-average of the per-row coin
    entropies; zero coin bits make the conditional term vanish.  H(output)
    reads one bincount of the table.  The coin entropies are summed in
    blocks of rows (:func:`_coin_entropy_bits`), so no (inputs x codes)
    table is built, and each row's float sum is grouped as that table's
    would be.
    """
    return _information([f], f.output_counts()[None])[0]


def verify_batch(maps: Sequence[CompressiveMap], lemma: str) -> list[LemmaReport]:
    """One report per map of a nonempty batch of maps of one shape, from one
    count pass; the three single-map verifiers are its B = 1 case.

    The batch shares its conditioned counts (one fold), its distance
    numerators (one int64 array with a leading batch axis) and, on the
    keyed coin-entropy route, its representative rows.  KL terms, means and
    witnesses are each map's own, so every report equals the one its map
    gets alone, to the bit.  Each witness is the first largest term.
    """
    f = maps[0]
    if lemma == LEMMA_PINSKER:
        counts = None
        rhs = [pinsker_threshold(f.output_bits, f.arity)] * len(maps)
    elif lemma == LEMMA_KL_BOUND or lemma == LEMMA_VAJDA:
        counts = _batch_counts(maps)
        info = _information(maps, counts[0])
        if lemma == LEMMA_KL_BOUND:
            rhs = [i / f.arity for i in info]
        else:
            rhs = [vajda_threshold(i, f.arity, f.alphabet_size) for i in info]
    else:
        raise ValueError(f"unknown lemma {lemma!r}")
    tables, denom = _term_table(maps, lemma, counts)
    reports = []
    for g, terms, bound in zip(maps, tables, rhs):
        width = terms.shape[1]
        j, x = divmod(int(terms.argmax()), width)
        witness_x = x if width > 1 else None
        reports.append(LemmaReport(lemma, float(_mean(terms, denom)), bound, j, witness_x, _map_params(g)))
    return reports


def verify_kl_bound(f: CompressiveMap) -> LemmaReport:
    """Report for the KL-vs-mutual-information bound, with the worst term as witness."""
    return verify_batch([f], LEMMA_KL_BOUND)[0]


def verify_pinsker_sensitivity(f: CompressiveMap) -> LemmaReport:
    """Report comparing the average noise sensitivity against sqrt(2 ln 2 * m/t)."""
    return verify_batch([f], LEMMA_PINSKER)[0]


def verify_vajda_sensitivity(f: CompressiveMap) -> LemmaReport:
    """Report for the conditioned-distance bound over a general alphabet.

    The left side averages d(output | coord != x, output | coord = x); the
    right side combines the divergence ceiling with the 1/|alphabet| cost of
    resampling one coordinate.
    """
    return verify_batch([f], LEMMA_VAJDA)[0]


def _map_params(f: CompressiveMap) -> dict[str, Any]:
    return {
        "t": f.arity,
        "m": f.output_bits,
        "r": f.coin_bits,
        "sigma": f.alphabet_size,
    }


__all__ = [
    "LEMMA_KL_BOUND",
    "LEMMA_PINSKER",
    "LEMMA_VAJDA",
    "SLACK_TOL",
    "LemmaReport",
    "coordinate_terms",
    "map_input_mutual_information",
    "pinsker_threshold",
    "vajda_threshold",
    "verify_batch",
    "verify_kl_bound",
    "verify_pinsker_sensitivity",
    "verify_vajda_sensitivity",
]
