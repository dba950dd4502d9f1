"""Permutation value type and constructions.

Permutations are finite sequences in one-line notation: position i (1-based)
holds value ``values[i-1]``, and the values form a bijection onto {1..n}.
The empty permutation (n = 0) is written ``EMPTY`` and acts as the neutral
element of the direct sum.

This module owns the increasing oscillations W_n / M_n: one closed form
gives their values (``oscillation``), one O(n) pass recognizes them
(``oscillation_id``), and one table, ``SHAPE_MEMBERS``, maps each shape of
the paper's recursion to the oscillation it realizes.  ``Shape.length``,
``realize_shape``, ``classify_oscillation`` and ``is_increasing_oscillation``
are derived from those three; ``interleave`` and ``iterated_interleave_21``
are the paper's constructions of the same permutations.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .errors import (
    EmptyOperand,
    IndexOutOfRange,
    InvalidShape,
    NotAPermutation,
    OperandTooShort,
)

__all__ = [
    "Permutation",
    "EMPTY",
    "parse_permutation",
    "contains",
    "direct_sum",
    "skew_sum",
    "interleave",
    "iterated_sum",
    "iterated_interleave_21",
    "Shape",
    "SINGLE21",
    "PLAIN",
    "LEFT_CAPPED",
    "RIGHT_CAPPED",
    "BOTH_CAPPED",
    "SHAPE_KINDS",
    "SHAPE_MEMBERS",
    "realize_shape",
    "OscillationId",
    "oscillation",
    "oscillation_id",
    "classify_oscillation",
    "is_increasing_oscillation",
    "SumDecomposition",
    "sum_decompose",
    "is_sum_indecomposable",
    "family_sum",
    "inverse",
    "reverse",
    "complement",
    "is_identity",
    "is_reverse_identity",
]

class Permutation:
    """An immutable permutation in one-line notation."""

    __slots__ = ("values", "_hash")

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        n = len(vals)
        if n and (min(vals) < 1 or max(vals) > n or len(set(vals)) != n):
            raise NotAPermutation(
                f"values {vals!r} are not a bijection onto 1..{n}"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_hash", hash(vals))

    @classmethod
    def _wrap(cls, vals: tuple[int, ...]) -> "Permutation":
        """Wrap an already-validated value tuple without re-checking."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_hash", hash(vals))
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Permutation is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, position: int) -> int:
        """Value at 1-based position."""
        if not 1 <= position <= len(self.values):
            raise IndexOutOfRange(
                f"position {position} outside 1..{len(self.values)}"
            )
        return self.values[position - 1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Permutation):
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return " ".join(map(str, self.values))

    def __repr__(self) -> str:
        return f"Permutation({list(self.values)!r})"


EMPTY = Permutation(())


_BARE_DIGITS = re.compile(r"^\d+$")


def parse_permutation(text: str) -> Permutation:
    """Parse comma- or space-separated values; bare digits allowed for n <= 9."""
    stripped = text.strip()
    if stripped == "":
        return EMPTY
    if _BARE_DIGITS.match(stripped):
        if len(stripped) <= 9 and "0" not in stripped:
            return Permutation(int(ch) for ch in stripped)
        if len(stripped) <= 9:
            raise NotAPermutation(f"bare digit string {text!r} contains 0")
        raise NotAPermutation(
            f"bare digit form only allowed for length <= 9: {text!r}"
        )
    parts = [p for p in re.split(r"[,\s]+", stripped) if p]
    try:
        vals = [int(p) for p in parts]
    except ValueError as exc:
        raise NotAPermutation(f"cannot parse {text!r} as a permutation") from exc
    return Permutation(vals)


# ---------------------------------------------------------------------------
# Containment
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _neighbor_bounds(s: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each index i of the pattern: the earlier index with the tightest
    smaller value, and the earlier index with the tightest larger value
    (-1 when absent)."""
    k = len(s)
    lo_idx = [-1] * k
    hi_idx = [-1] * k
    for i in range(k):
        lo = hi = -1
        si = s[i]
        for j in range(i):
            sj = s[j]
            if sj < si and (lo < 0 or sj > s[lo]):
                lo = j
            elif sj > si and (hi < 0 or sj < s[hi]):
                hi = j
        lo_idx[i] = lo
        hi_idx[i] = hi
    return tuple(lo_idx), tuple(hi_idx)


def contains(sigma: Permutation, pi: Permutation) -> bool:
    """True iff some subsequence of pi is order-isomorphic to sigma."""
    s = sigma.values
    p = pi.values
    k = len(s)
    n = len(p)
    if k > n:
        return False
    if k == n:
        return s == p
    if k <= 1:
        return True
    lo_idx, hi_idx = _neighbor_bounds(s)
    placed = [0] * k
    start = [0] * k  # per pattern index: the first position left to try
    i = 0
    while i >= 0:
        li, hi = lo_idx[i], hi_idx[i]
        lo_val = placed[li] if li >= 0 else 0
        hi_val = placed[hi] if hi >= 0 else n + 1
        for pos in range(start[i], n - k + i + 1):
            v = p[pos]
            if lo_val < v < hi_val:
                placed[i] = v
                start[i] = pos + 1
                i += 1
                if i == k:
                    return True
                start[i] = pos + 1
                break
        else:
            i -= 1
    return False


# ---------------------------------------------------------------------------
# Sums and interleaves
# ---------------------------------------------------------------------------


def direct_sum(a: Permutation, b: Permutation) -> Permutation:
    """a with b appended above and to the right of it."""
    m = len(a.values)
    return Permutation._wrap(a.values + tuple(v + m for v in b.values))


def skew_sum(a: Permutation, b: Permutation) -> Permutation:
    """a lifted above b, followed by b."""
    m = len(b.values)
    return Permutation._wrap(tuple(v + m for v in a.values) + b.values)


def _swap_values(vals: tuple[int, ...], x: int, y: int) -> tuple[int, ...]:
    return tuple(y if v == x else x if v == y else v for v in vals)


def interleave(a: Permutation, b: Permutation) -> Permutation:
    """Direct sum with the largest point of a and smallest point of b exchanged."""
    if not a.values or not b.values:
        raise EmptyOperand("interleave requires nonempty operands")
    m = len(a.values)
    return Permutation._wrap(_swap_values(direct_sum(a, b).values, m, m + 1))


def _iterated_sum_values(vals: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Values of the direct sum of r copies of the pattern with values vals."""
    block = len(vals)
    return tuple([v + shift for shift in range(0, r * block, block) for v in vals])


def _family_values(vals: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Values of the direct-sum family of r copies of the pattern with
    values vals: S_r, 1 + S_r, S_r + 1 and 1 + S_r + 1."""
    stack = _iterated_sum_values(vals, r)
    left = (1, *map((1).__add__, stack))
    return stack, left, stack + (len(stack) + 1,), left + (len(stack) + 2,)


def iterated_sum(alpha: Permutation, r: int) -> Permutation:
    """Direct sum of r copies of alpha."""
    if r < 1:
        raise OperandTooShort(f"iterated_sum needs r >= 1, got {r}")
    return Permutation._wrap(_iterated_sum_values(alpha.values, r))


def iterated_interleave_21(k: int) -> Permutation:
    """Left-to-right interleave of k copies of 21 (length 2k)."""
    if k < 1:
        raise OperandTooShort(f"iterated_interleave_21 needs k >= 1, got {k}")
    vals: list[int] = []
    for i in range(1, k + 1):
        vals.append(2 * i + 1 if i < k else 2 * k)
        vals.append(2 * i - 2 if i > 1 else 1)
    return Permutation._wrap(tuple(vals))


# ---------------------------------------------------------------------------
# Increasing oscillations and the shapes of their members
# ---------------------------------------------------------------------------

SINGLE21 = "Single21"
PLAIN = "Plain"
LEFT_CAPPED = "LeftCapped"
RIGHT_CAPPED = "RightCapped"
BOTH_CAPPED = "BothCapped"

SHAPE_KINDS = (SINGLE21, PLAIN, LEFT_CAPPED, RIGHT_CAPPED, BOTH_CAPPED)

# The oscillation each shape realizes: its kind and the extra length e of
# the k-block member kind_{2k + e}.  Single21 has k = 1 and is W_2.
SHAPE_MEMBERS = {
    SINGLE21: ("W", 0),
    PLAIN: ("W", 0),
    LEFT_CAPPED: ("M", 1),
    RIGHT_CAPPED: ("W", 1),
    BOTH_CAPPED: ("M", 2),
}

# The inverse past length 2: the chain shape of kind_n by (kind, n % 2).
_CHAIN_OF = {
    (kind, extra % 2): shape_kind
    for shape_kind, (kind, extra) in SHAPE_MEMBERS.items()
    if shape_kind != SINGLE21
}


def _store_int(obj, field: str, what: str) -> int:
    """Store the integer parameter obj.field back as a plain int (numpy
    integers pass) and return it; InvalidShape for a bool or a value that
    is no integer."""
    value = getattr(obj, field)
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise InvalidShape(f"{what} must be an integer, got {value!r}") from None
    object.__setattr__(obj, field, n)
    return n


@dataclass(frozen=True)
class Shape:
    """A shape kind together with its 21-block count k.

    k always counts 21-blocks.  Plain shapes need k >= 2 (a single block is
    the Single21 shape); capped shapes need k >= 1; Single21 has k = 1.
    """

    kind: str
    k: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SHAPE_KINDS:
            raise InvalidShape(f"unknown shape kind {self.kind!r}")
        _store_int(self, "k", "block count")
        if self.kind == SINGLE21:
            if self.k != 1:
                raise InvalidShape("Single21 has fixed k = 1")
        elif self.kind == PLAIN:
            if self.k < 2:
                raise InvalidShape("Plain requires k >= 2")
        elif self.k < 1:
            raise InvalidShape(f"{self.kind} requires k >= 1")

    @property
    def length(self) -> int:
        """Length of the realized permutation."""
        return 2 * self.k + SHAPE_MEMBERS[self.kind][1]

    @property
    def member(self) -> OscillationId:
        """The oscillation this shape realizes."""
        return OscillationId(SHAPE_MEMBERS[self.kind][0], self.length)


@dataclass(frozen=True)
class OscillationId:
    """Identifies the oscillation W_n (leading descent) or M_n (leading ascent)."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("W", "M"):
            raise InvalidShape(f"oscillation kind must be W or M, got {self.kind!r}")
        n = _store_int(self, "n", "oscillation length")
        if n < 1:
            raise InvalidShape(f"oscillation length must be >= 1, got {n}")


_ONE = Permutation._wrap((1,))


def _oscillation_values(kind: str, n: int) -> tuple[int, ...]:
    """The values of kind_n (n >= 1).

    Past length 1, W_n = 3 1 5 2 7 4 ... and M_n = 2 4 1 6 3 8 ... are two
    interleaved progressions: value i + 3 at every other position i (the
    even ones in W_n, the odd ones in M_n) and i - 1 at the others.  Two
    ends differ: the first position of the i - 1 progression holds 1 in
    W_n and 2 in M_n, and the last of the i + 3 progression holds the one
    value left over, n - 1 at position n - 1 or n at position n - 2.
    """
    if n == 1:
        return (1,)
    up = 0 if kind == "W" else 1  # parity of the positions holding i + 3
    want = [i + 3 if i % 2 == up else i - 1 for i in range(n)]
    want[1 - up] = 1 + up
    last = n - 1 - (n - 1 - up) % 2
    want[last] = n - 1 if last == n - 1 else n
    return tuple(want)


def oscillation(id: OscillationId) -> Permutation:
    """Realize W_n / M_n (W_1 = M_1 = 1; W_2 = M_2 = 21)."""
    return Permutation._wrap(_oscillation_values(id.kind, id.n))


def oscillation_id(p: Permutation) -> Optional[OscillationId]:
    """Which oscillation p is (W for |p| <= 2), or None when p is none: one
    comparison with the values of the kind p's first two values select,
    made only when they are that kind's first two."""
    v = p.values
    n = len(v)
    if n <= 2:
        return OscillationId("W", n) if n and v[0] == n else None
    # W_n starts 3 1; M_3 starts 2 3 and every longer M_n 2 4.
    if v[0] == 3 and v[1] == 1:
        kind = "W"
    elif v[0] == 2 and v[1] == min(n, 4):
        kind = "M"
    else:
        return None
    return OscillationId(kind, n) if _oscillation_values(kind, n) == v else None


def _shape_of(id: OscillationId) -> Optional[Shape]:
    """The Shape realizing W_n / M_n (None for n = 1), by one lookup."""
    if id.n <= 2:
        return Shape(SINGLE21) if id.n == 2 else None
    kind = _CHAIN_OF[id.kind, id.n % 2]
    return Shape(kind, (id.n - SHAPE_MEMBERS[kind][1]) // 2)


def realize_shape(s: Shape) -> Permutation:
    """The permutation of the given shape: the oscillation it realizes."""
    return oscillation(s.member)


def classify_oscillation(pi: Permutation) -> Optional[Shape]:
    """The unique Shape realizing pi, or None.  1 (= W_1) realizes no Shape,
    so it gives None too; is_increasing_oscillation accepts it."""
    id = oscillation_id(pi)
    return None if id is None else _shape_of(id)


def is_increasing_oscillation(pi: Permutation) -> bool:
    """True iff pi is 1 or realizes one of the five shapes."""
    return oscillation_id(pi) is not None


# ---------------------------------------------------------------------------
# Sum decomposition
# ---------------------------------------------------------------------------


class SumDecomposition:
    """Maximal decomposition into sum-indecomposable components.

    ``cuts`` are the end positions (1-based) of the components.  A prefix
    or suffix is built when first asked for and kept while the kept ones
    hold at most as many points as the decomposed permutation, so an entry
    stays O(|pi|) however many are asked for.  Entries are shared through
    the store, so they are immutable.
    """

    __slots__ = ("values", "cuts", "components", "_parts", "_room")

    def __init__(self, vals: tuple[int, ...]):
        cuts = []
        comps = []
        running_max = start = 0
        for i, v in enumerate(vals, start=1):
            if v > running_max:
                running_max = v
            if running_max == i:
                cuts.append(i)
                comps.append(
                    _ONE
                    if i - start == 1
                    else Permutation._wrap(tuple([x - start for x in vals[start:i]]))
                )
                start = i
        set_ = object.__setattr__
        set_(self, "values", vals)
        set_(self, "cuts", tuple(cuts))
        set_(self, "components", tuple(comps))
        set_(self, "_parts", {})  # suffix i at i, prefix i at ~i
        set_(self, "_room", len(vals))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SumDecomposition is immutable")

    def _cut(self, i: int, name: str) -> int:
        if not 0 <= i <= len(self.cuts):
            raise IndexOutOfRange(f"{name} index {i} outside 0..{len(self.cuts)}")
        return self.cuts[i - 1] if i else 0

    def _keep(self, key: int, part: Permutation) -> Permutation:
        if len(part.values) <= self._room:
            object.__setattr__(self, "_room", self._room - len(part.values))
            self._parts[key] = part
        return part

    def prefix(self, i: int) -> Permutation:
        """Direct sum of the first i components (i = 0 gives the empty one)."""
        part = self._parts.get(~i)
        if part is None:
            cut = self._cut(i, "prefix")
            part = self._keep(~i, Permutation._wrap(self.values[:cut]))
        return part

    def suffix(self, i: int) -> Permutation:
        """Direct sum of the components after the first i."""
        part = self._parts.get(i)
        if part is None:
            cut = self._cut(i, "suffix")
            tail = self.values[cut:]
            part = self._keep(i, Permutation._wrap(tuple([v - cut for v in tail])))
        return part


# Bound of the decomposition store, in entries.
_DECOMPOSITIONS = 1 << 12


@lru_cache(maxsize=_DECOMPOSITIONS)
def _decomposition(vals: tuple[int, ...]) -> SumDecomposition:
    return SumDecomposition(vals)


def sum_decompose(pi: Permutation) -> SumDecomposition:
    """pi's decomposition, from the one bounded store keyed by values that
    the dispatcher and the component recursions read."""
    return _decomposition(pi.values)


def is_sum_indecomposable(pi: Permutation) -> bool:
    """True iff pi is nonempty and has exactly one sum component: the
    first prefix of length i that holds the values 1..i is pi itself."""
    running_max = i = 0
    for v in pi.values:
        i += 1
        if v > running_max:
            running_max = v
        if running_max == i:
            return i == len(pi.values)
    return False


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def family_sum(alpha: Permutation) -> set[Permutation]:
    """{alpha, 1+alpha, alpha+1, 1+alpha+1} under direct sum."""
    if not alpha.values:
        raise EmptyOperand("family_sum requires a nonempty permutation")
    return set(map(Permutation._wrap, _family_values(alpha.values, 1)))


# ---------------------------------------------------------------------------
# Symmetries and structural predicates
# ---------------------------------------------------------------------------


def inverse(pi: Permutation) -> Permutation:
    vals = pi.values
    out = [0] * len(vals)
    for pos, v in enumerate(vals, start=1):
        out[v - 1] = pos
    return Permutation._wrap(tuple(out))


def reverse(pi: Permutation) -> Permutation:
    return Permutation._wrap(pi.values[::-1])


def complement(pi: Permutation) -> Permutation:
    n = len(pi.values)
    return Permutation._wrap(tuple(n + 1 - v for v in pi.values))


def is_identity(pi: Permutation) -> bool:
    return all(v == i for i, v in enumerate(pi.values, start=1))


def is_reverse_identity(pi: Permutation) -> bool:
    n = len(pi.values)
    return all(v == n + 1 - i for i, v in enumerate(pi.values, start=1))
