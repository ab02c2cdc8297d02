"""Symmetric-function compressions and their conversion to relaxed ORs.

A symmetric compression answers membership of f(|x ∩ L|) for a Boolean
function f on {0, ..., t}.  Any non-constant f admits one of four views
(itself, its complement, its reversal, the complemented reversal) with a
pivot index i <= t/2 where the transformed values step from 0 to 1.  Fixing
i known yes-instances of the view's source language into every input then
yields a relaxed OR compression of arity t - i: all-no inputs land on the
0 at the pivot and one-yes inputs on the 1 right after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .compression import HitCountCompression, ToyLanguage, canonical_set

VIEW_IDENTITY = "f"
VIEW_COMPLEMENT = "1-f"
VIEW_REVERSED = "f(t-i)"
VIEW_REVERSED_COMPLEMENT = "1-f(t-i)"

#: Deterministic preference order among the four views.
VIEW_ORDER = (VIEW_IDENTITY, VIEW_COMPLEMENT, VIEW_REVERSED, VIEW_REVERSED_COMPLEMENT)


@dataclass(frozen=True)
class SymmetricFunction:
    """Boolean function of the yes-count, as the value tuple f(0), ..., f(t)."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("need values for counts 0 through t with t >= 1")
        if set(self.values) - {0, 1}:
            raise ValueError("values must be bits")

    @property
    def t(self) -> int:
        return len(self.values) - 1

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) == 1

    def complement(self) -> "SymmetricFunction":
        return SymmetricFunction(tuple(1 - v for v in self.values))

    def reversed_counts(self) -> "SymmetricFunction":
        return SymmetricFunction(self.values[::-1])

    @classmethod
    def from_bits(cls, bits: str) -> "SymmetricFunction":
        return cls(tuple(int(b) for b in bits))

    @classmethod
    def or_function(cls, t: int) -> "SymmetricFunction":
        return cls(tuple(1 if i > 0 else 0 for i in range(t + 1)))

    @classmethod
    def and_function(cls, t: int) -> "SymmetricFunction":
        return cls(tuple(1 if i == t else 0 for i in range(t + 1)))

    @classmethod
    def majority(cls, t: int) -> "SymmetricFunction":
        return cls(tuple(1 if i > t / 2 else 0 for i in range(t + 1)))

    @classmethod
    def parity(cls, t: int) -> "SymmetricFunction":
        return cls(tuple(i % 2 for i in range(t + 1)))


@dataclass(frozen=True)
class PivotView:
    """A view of a symmetric function with a low step-up pivot.

    The transformed values satisfy transformed[pivot] = 0 and
    transformed[pivot + 1] = 1 with pivot <= t/2.  complement_source means
    the view reads yes-counts against the complemented language;
    complement_target means the view flips the output bit.
    """

    view: str
    pivot: int
    complement_source: bool
    complement_target: bool
    transformed: SymmetricFunction

    def __post_init__(self):
        v = self.transformed.values
        if not (v[self.pivot] == 0 and v[self.pivot + 1] == 1):
            raise ValueError("pivot does not step from 0 to 1")
        if self.pivot > self.transformed.t // 2:
            raise ValueError("pivot above t/2")


def find_pivot_view(f: SymmetricFunction) -> PivotView:
    """Preferred view with a pivot at most t/2.

    Views stepping from 0 to 1 right at count zero win first (in the fixed
    view order), so OR-like functions and their duals stay injection-free;
    otherwise the first view in order with any low step-up wins, smallest
    pivot within the view.  Every non-constant function has such a view: an
    adjacent value change exists somewhere, and the four symmetries move it
    to a low step-up.
    """
    if f.is_constant:
        raise ValueError("constant function has no pivot")
    candidates = (
        (VIEW_IDENTITY, f, False, False),
        (VIEW_COMPLEMENT, f.complement(), False, True),
        (VIEW_REVERSED, f.reversed_counts(), True, False),
        (VIEW_REVERSED_COMPLEMENT, f.reversed_counts().complement(), True, True),
    )
    for name, g, comp_src, comp_tgt in candidates:
        if g.values[0] == 0 and g.values[1] == 1:
            return PivotView(name, 0, comp_src, comp_tgt, g)
    for name, g, comp_src, comp_tgt in candidates:
        for i in range(1, f.t // 2 + 1):
            if g.values[i] == 0 and g.values[i + 1] == 1:
                return PivotView(name, i, comp_src, comp_tgt, g)
    raise AssertionError("non-constant values admit no pivot view; unreachable")


class SymmetricCompression(HitCountCompression):
    """Exact symmetric compression over a toy language.

    The single output bit answers f applied to the number of yes-instances
    in the input set; inputs may have any size up to t.
    """

    def __init__(self, language: ToyLanguage, f: SymmetricFunction):
        super().__init__(language, f.t, output_bits=1)
        self.f = f

    def evaluate(self, x: Collection[int], coin: int = 0) -> int:
        return self.f.values[self.hits(self._checked_input(x, coin))]

    def hit_counts(self, h: int) -> list[int]:
        counts = [0, 0]
        counts[self.f.values[h]] = 1
        return counts


class TransformedOrCompression(HitCountCompression):
    """Relaxed OR compression obtained from a symmetric compression.

    Evaluation injects pivot-many pool instances (yes-instances of the
    source language, chosen disjoint from the input) and reads the view's
    transformed values at the resulting yes-count.  All-no inputs hit the
    pivot 0, one-yes inputs the following 1; sets with more source
    yes-instances follow whatever the transformed values say, which the
    relaxed contract leaves free.  Since the injected instances are source
    yes-instances outside the input, an input with h source hits always
    reads the transformed value at h + pivot, which is the hit-count law.

    The pool must consist of distinct yes-instances of the source language.
    A positive pivot needs at least t of them so that every input of size
    up to t - pivot leaves enough disjoint instances to inject; up to 2t are
    kept.  Too small a pool means the source language is too lopsided to
    transform ("trivial").
    """

    def __init__(
        self,
        base: SymmetricCompression,
        view: PivotView,
        pool: Sequence[int],
    ):
        source = base.hit_language.complement() if view.complement_source else base.hit_language
        super().__init__(source, base.arity - view.pivot, output_bits=1, coin_bits=0, e_s=0, e_c=0)
        t = base.arity
        canon = canonical_set(pool)
        if len(canon) != len(tuple(pool)):
            raise ValueError("pool instances must be distinct")
        for w in canon:
            if not source.is_yes(w):
                raise ValueError(f"pool instance {w!r} is not a yes-instance of the source language")
        if view.pivot > 0 and len(canon) < t:
            raise ValueError(
                f"language trivial or pool too small: pivot {view.pivot} needs at least "
                f"{t} source yes-instances, got {len(canon)}"
            )
        self.view = view
        self.pool = canon[: 2 * t]

    def injected_for(self, x: Collection[int]) -> tuple[int, ...]:
        """The pool instances fixed into this input: disjoint from it, sorted."""
        taken = set(canonical_set(x))
        picked = [w for w in self.pool if w not in taken][: self.view.pivot]
        if len(picked) < self.view.pivot:
            raise RuntimeError("pool exhausted; the pool size check was bypassed")
        return tuple(picked)

    def evaluate(self, x: Collection[int], coin: int = 0) -> int:
        x = self._checked_input(x, coin)
        return self.view.transformed.values[self.hits(x + self.injected_for(x))]

    def hit_counts(self, h: int) -> list[int]:
        counts = [0, 0]
        counts[self.view.transformed.values[h + self.view.pivot]] = 1
        return counts


def transform_to_relaxed_or(
    a: SymmetricCompression, yes_pool: Sequence[int] | None = None
) -> TransformedOrCompression:
    """Turn a non-constant symmetric compression into a relaxed OR.

    Without a pool, the first 2t yes-instances of the pivot view's source
    language are used; the pool checks are the constructor's.
    """
    view = find_pivot_view(a.f)
    if yes_pool is None:
        source = a.hit_language.complement() if view.complement_source else a.hit_language
        yes_pool = source.yes_instances()[: 2 * a.arity]
    return TransformedOrCompression(a, view, yes_pool)
