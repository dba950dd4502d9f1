"""The containment poset: downsets, intervals, and the exact Möbius oracle.

``mobius_naive`` evaluates the defining recurrence

    mu(sigma, pi) = - sum of mu(sigma, lam) over sigma <= lam < pi,

with mu(sigma, sigma) = 1 and mu(sigma, pi) = 0 when sigma is not contained
in pi.  It enumerates the full downset of pi once and solves for a whole
column mu(. , pi) in one pass, so repeated queries against the same upper
bound are cheap.

The enumeration keys each member as a str with one code point per value
and builds the downset one length at a time: a level's keys are joined
into one string, and deleting a value x from all of them at once is one
C-level str.translate (drop x, renormalize the values above it) and one
split.  A str holds any code point, so the keys put no limit on the length
of pi; the one size bound is on members (``MAX_DOWNSET_MEMBERS``), checked
while the build enumerates.

The order is kept as packed bits, one bit for each pair of members (m^2 / 8
bytes for m members), and the solves unpack it one bounded band of levels
at a time (``_BAND_BYTES``), so no m x m array outlives a build or a solve.

Contexts live in one store keyed by the upper bound's values
(``_downset_ctx``): an LRU bounded in bytes (``_CONTEXT_BYTES``), where each
context counts its packed order, its members with their index, its column
and the table the general engine attaches to it.  The oracle's values live
only there: the engine's value cache does not copy them.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from operator import add, or_
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import _INT64_GUARD, Overflow, TooLarge
from .perms import Permutation

__all__ = [
    "MAX_DOWNSET_MEMBERS",
    "downset",
    "IntervalTable",
    "interval",
    "mobius_naive",
    "mobius_naive_column",
]

# Every pi of length <= 12 has at most 2^12 patterns (the empty one and pi
# included), so each is within the bound; the largest order is 2 MiB of bits.
MAX_DOWNSET_MEMBERS = 1 << 12

# The column and row solves unpack the order one band of consecutive levels
# at a time: as many levels as keep the band's unpacked bits under this
# bound at 9 bytes a bit (the unpacked byte and the int64 copy the matmul
# makes of it).  A context of up to 342 members (every pi of length <= 8)
# is one band.  Small bands also keep the int64 copy in cache: on a 2-core
# Xeon, W_15's column solves in about 6 ms under this bound, 13 ms under
# 16 MiB.
_BAND_BYTES = 1 << 20

# _BIT[k][x] is bit k of the byte x (little bit order) as int8: one lookup
# reads a bit column.
_BIT = tuple(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    .T.copy()
    .view(np.int8)
)

# sys.getsizeof of a tuple of k items is sys.getsizeof(()) + k * _ITEM_BYTES.
_ITEM_BYTES = sys.getsizeof((0,)) - sys.getsizeof(())
# An int past the small ints, which Python shares.
_INT_BYTES = sys.getsizeof(1 << 20)
# An int64 array but for its data.
_ARRAY_BYTES = sys.getsizeof(np.zeros(0, dtype=np.int64))
# A member but for its values: the Permutation, its hash and its values
# tuple's header.
_MEMBER_BYTES = (
    sys.getsizeof(Permutation._wrap(())) + sys.getsizeof(hash((1, 2))) + sys.getsizeof(())
)


class DownsetContext:
    """Downset of a fixed upper bound with containment structure solved once.

    members are ascending by (length, values).  The order is kept packed:
    ``bits`` is m x ceil(m / 8) uint8 in little bit order, and bit i of row
    j is 1 exactly when member i is contained in member j.  ``above`` reads
    one bit column, ``rows`` unpacks the rows of a few members, and the
    column and row solves unpack one band of levels at a time.  The build
    enumerates members as code-point strings, top-down one length at a time
    with one str.translate per value deleted from the whole level, for an
    upper bound of any length; containment is then closed bottom-up as
    bitmasks, which are the rows of ``bits``, and each key is decoded to a
    Permutation once.

    ``table`` is the general engine's slot: it holds the contributing-set
    table of pi that the engine builds, so the table lives and goes with
    this context (None until then).  The table tells its own size
    (``table.nbytes``), which ``nbytes()`` counts.
    """

    __slots__ = (
        "pi", "members", "index", "bits", "groups", "_column", "table", "_nbytes"
    )

    def __init__(self, pi: Permutation):
        n = len(pi.values)
        top = "".join(map(chr, pi.values))
        # pi, its n - b distinct one-point deletions (b: the adjacent
        # positions holding adjacent values) and one member per shorter
        # length: refused on that count before the n^2 translate tables.
        if 2 * n - _bonds(pi.values) > MAX_DOWNSET_MEMBERS:
            raise _too_large(n)
        # drop[x] deletes x and maps y > x to y - 1; slices of one tuple
        # share its ints.  pairs[x - 1] is x - 1 and x side by side, both ways.
        base = tuple(range(n + 1))
        drop = [base[:x] + (None,) + base[x:n] for x in range(n + 1)]
        chars = "".join(map(chr, base))
        pairs = list(zip(map(add, chars, chars[1:]), map(add, chars[1:], chars)))
        # Top-down: each level's sorted keys with its child lists, from
        # length n down to 1.
        levels: list[tuple[list[str], list[list[str]]]] = []
        level = [top]
        found = 1  # the members at the level being expanded and above
        for length in range(n, 0, -1):
            # each of the length - 1 shorter levels holds a member
            expanded = _expand_level(
                level, drop, pairs, MAX_DOWNSET_MEMBERS - found - (length - 1)
            )
            if expanded is None:
                raise _too_large(n)
            parts, below = expanded
            levels.append((level, parts))
            # At equal length, code-point order is value order.
            level = sorted(below)
            found += len(level)

        # Bottom-up: reach[key] is the set of members contained in the
        # member key, as a bitmask over member positions; its insertion
        # order is the member order.
        reach = {"": 1}
        get = reach.__getitem__
        groups: list[tuple[int, int, int]] = [(0, 0, 1)]
        while levels:
            level, parts = levels.pop()
            start = len(reach)
            # one lazy map per child list, nested at most n < 2^12 deep
            cur = map((1).__lshift__, range(start, start + len(level)))
            for part in parts:
                cur = map(or_, cur, map(get, part))
            reach.update(zip(level, cur))
            groups.append((len(level[0]), start, len(reach)))
        values = tuple(map(tuple, map(map, repeat(ord), reach)))
        members = tuple(map(Permutation._wrap, values))

        m = len(members)
        nbytes = (m + 7) // 8
        bits = np.frombuffer(
            b"".join(r.to_bytes(nbytes, "little") for r in reach.values()),
            dtype=np.uint8,
        ).reshape(m, nbytes)

        self.pi = pi
        self.members = members
        self.index = dict(zip(values, range(m)))
        self.bits = bits
        self.groups = groups
        self._column = None
        self.table = None
        # What the context holds, for the context store.  The packed order
        # is a view of a flat array over one bytes object, and the column
        # is counted from the build, as nearly every context is solved.
        # The index's positions past 256 are ints of their own, and so are
        # the members' values past 256.
        self._nbytes = (
            sys.getsizeof(self)
            + sum(map(sys.getsizeof, (bits, bits.base, bits.base.base)))
            + _ARRAY_BYTES
            + 8 * m
            + sys.getsizeof(groups)
            + len(groups) * sys.getsizeof((0, 0, 0))
            + sys.getsizeof(members)
            + sys.getsizeof(self.index)
            + m * _MEMBER_BYTES
            + _ITEM_BYTES * sum(map(len, values))
            + _INT_BYTES * max(0, m - 257)
        )
        if n > 256:
            self._nbytes += _INT_BYTES * sum(
                (end - start) * max(0, length - 256) for length, start, end in groups
            )

    def nbytes(self) -> int:
        """The bytes this context holds, by sys.getsizeof: its packed
        order, its members with their index, its column and its table."""
        table = self.table
        return self._nbytes if table is None else self._nbytes + table.nbytes

    def above(self, sidx: int) -> np.ndarray:
        """One bit column as int8 0/1: entry j is 1 exactly when member
        sidx is contained in member j."""
        return _BIT[sidx & 7].take(self.bits[:, sidx >> 3])

    def rows(self, block) -> np.ndarray:
        """The rows of the members in block, unpacked as int8 0/1: entry
        (k, i) is 1 exactly when member i is contained in member block[k]."""
        m = len(self.members)
        bits = np.unpackbits(self.bits[block], axis=1, count=m, bitorder="little")
        return bits.view(np.int8)

    def _block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """The order's rows r0:r1 and columns c0:c1, unpacked as uint8 0/1."""
        b0 = c0 >> 3
        bits = np.unpackbits(
            self.bits[r0:r1, b0 : (c1 + 7) >> 3],
            axis=1,
            count=c1 - 8 * b0,
            bitorder="little",
        )
        return bits[:, c0 - 8 * b0 :]

    def column(self) -> np.ndarray:
        """mu(member, pi) for every member, solved top-down by length; the
        members of a level read the rows of the longer ones."""
        if self._column is None:
            m = len(self.members)
            mu = np.zeros(m, dtype=np.int64)
            mu[m - 1] = 1
            levels = [(s, e, e, m - e) for _, s, e in reversed(self.groups[:-1])]
            for band in _bands(levels, down=True):
                # columns lo:hi of the rows from the lowest level's end up
                lo, hi, r0 = band[-1][0], band[0][1], band[-1][2]
                block = self._block(r0, m, lo, hi)
                for a, b, e in band:
                    mu[a:b] = -(mu[e:] @ block[e - r0 :, a - lo : b - lo])
            if m and int(np.abs(mu).max()) >= _INT64_GUARD:
                raise Overflow("Möbius column exceeds the 64-bit guard")
            self._column = mu
        return self._column

    def row(self, sigma: Permutation) -> np.ndarray:
        """mu(sigma, member) for every member, solved bottom-up by length;
        the members of a level read the columns from sigma's up to the
        level, since mu(sigma, .) is 0 below sigma's index."""
        m = len(self.members)
        mu = np.zeros(m, dtype=np.int64)
        sidx = self.index.get(sigma.values)
        if sidx is None:
            return mu
        mu[sidx] = 1
        above = self.above(sidx)
        slen = len(sigma.values)
        levels = [(s, e, s, s - sidx) for length, s, e in self.groups if length > slen]
        for band in _bands(levels, down=False):
            # rows lo:hi, columns from sigma's up to the highest level's start
            lo, hi, c1 = band[0][0], band[-1][1], band[-1][2]
            block = self._block(lo, hi, sidx, c1)
            for a, b, s in band:
                part = -(block[a - lo : b - lo, : s - sidx] @ mu[sidx:s])
                mu[a:b] = part * above[a:b]
        if int(np.abs(mu).max()) >= _INT64_GUARD:
            raise Overflow("Möbius row exceeds the 64-bit guard")
        return mu


def _bands(
    levels: list[tuple[int, int, int, int]], down: bool
) -> Iterator[list[tuple[int, int, int]]]:
    """Group the levels of a solve into bands, each unpacked as one block.

    levels lists (start, end, edge, side) in solve order (top-down when
    down); a level's members are solved from a block of side rows or
    columns on the other axis, which only grows along the order.  A band
    is a list of parts (a, b, edge) of adjacent members in solve order,
    whose span times its last side is at most _BAND_BYTES // 9 bits.  A
    level too wide for that alone is cut into parts, which are solved
    independently.
    """
    room = _BAND_BYTES // 9
    band: list[tuple[int, int, int]] = []
    span = 0
    for start, end, edge, side in levels:
        parts = [(start, end)]
        if (end - start) * side > room:
            width = max(1, room // side)
            parts = [(a, min(a + width, end)) for a in range(start, end, width)]
            if down:
                parts.reverse()
        for a, b in parts:
            if band and (span + b - a) * side > room:
                yield band
                band, span = [], 0
            band.append((a, b, edge))
            span += b - a
    if band:
        yield band


def _too_large(n: int) -> TooLarge:
    return TooLarge(f"upper bound of length {n} has over {MAX_DOWNSET_MEMBERS} patterns")


def _bonds(values: Sequence[int]) -> int:
    """The adjacent positions that hold adjacent values."""
    return sum(a - c in (1, -1) for a, c in zip(values, values[1:]))


def _expand_level(
    keys: list[str],
    drop: list[tuple[int | None, ...]],
    pairs: list[tuple[str, str]],
    room: int,
) -> tuple[list[list[str]], set[str]] | None:
    """The one-point deletions of a level's keys (all of length L), or
    None as soon as they are known to number over ``room``.

    Returns, for each value x deleted, the child of every key in the order
    of ``keys``, and the set of all children.  Every key holds x once, so
    one str.translate (``drop[x]``) and one split over the keys joined by
    "\\0" make all of them; no value is 0, so the separator passes
    through.  A value x that sits next to x - 1 in every key is skipped:
    deleting either gives the same child.
    """
    first = keys[0]
    length = len(first)
    # The first key alone has L - b distinct children (b, its bonds, is
    # counted only when L itself is over room).
    if length > room and length - _bonds(list(map(ord, first))) > room:
        return None
    joined = "\0".join(keys)
    rest = length + 1  # where the keys after the first start
    parts: list[list[str]] = []
    below: set[str] = set()
    for x, (up, down) in zip(range(1, length + 1), pairs):
        if (up in first or down in first) and (
            joined.count(up, rest) + joined.count(down, rest) == len(keys) - 1
        ):
            continue
        part = joined.translate(drop[x]).split("\0")
        parts.append(part)
        below.update(part)
        if len(below) > room:
            return None
    return parts, below


# The context store's budget, in bytes.  A pass over every upper bound of
# length <= 6 keeps 4.5 MB of contexts with their columns; a context at the
# member bound holds about 3 MB with its column, and more with a table.
_CONTEXT_BYTES = 64 << 20


class _CacheInfo(NamedTuple):
    """The context store's counts, named as functools' cache_info names
    them, and the bytes it counts."""

    hits: int
    misses: int
    currsize: int
    bytes: int


class _ContextStore:
    """Downset contexts keyed by their upper bound's values: an LRU bounded
    in bytes (_CONTEXT_BYTES), each context counted by its nbytes().

    A context gains its table after the lookup that returned it, so the
    context returned last is counted again, once it holds a table, at the
    next lookup of another upper bound (and at info()).  The least
    recently used are evicted while the count is over budget; the context
    returned last is never evicted, so one larger than the budget is kept
    until the next.
    """

    __slots__ = ("entries", "costs", "nbytes", "current", "hits", "misses")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.entries: OrderedDict[tuple[int, ...], DownsetContext] = OrderedDict()
        self.costs: dict[tuple[int, ...], int] = {}
        self.nbytes = 0
        self.current: DownsetContext | None = None
        self.hits = self.misses = 0

    def info(self) -> _CacheInfo:
        current = self.current
        if current is not None and current.table is not None:
            self._count(current)
        return _CacheInfo(self.hits, self.misses, len(self.entries), self.nbytes)

    def get(self, pi: Permutation) -> DownsetContext:
        key = pi.values
        current = self.current
        if current is not None:
            if current.pi.values == key:
                self.hits += 1
                return current
            if current.table is not None:
                self._count(current)
        entries = self.entries
        ctx = entries.get(key)
        if ctx is None:
            # A refused build counts as a miss, as in functools' lru_cache.
            self.misses += 1
            ctx = DownsetContext(pi)
            entries[key] = ctx
            self._count(ctx)
        else:
            self.hits += 1
            entries.move_to_end(key)
        self.current = ctx
        return ctx

    def _count(self, ctx: DownsetContext) -> None:
        """Count ctx, the most recently used, again, then evict the least
        recently used while over budget."""
        key = ctx.pi.values
        costs = self.costs
        cost = ctx.nbytes()
        self.nbytes += cost - costs.get(key, 0)
        costs[key] = cost
        entries = self.entries
        while self.nbytes > _CONTEXT_BYTES and len(entries) > 1:
            old, _ = entries.popitem(last=False)
            self.nbytes -= costs.pop(old)


_contexts = _ContextStore()


def _downset_ctx(pi: Permutation) -> DownsetContext:
    """pi's downset context, from the one context store (built on a miss).
    ``cache_info()`` and ``cache_clear()`` read and empty the store, as they
    do an lru_cache."""
    return _contexts.get(pi)


_downset_ctx.cache_info = _contexts.info
_downset_ctx.cache_clear = _contexts.clear


def downset(pi: Permutation) -> dict[int, tuple[Permutation, ...]]:
    """All permutations contained in pi (including the empty one and pi),
    grouped by length."""
    ctx = _downset_ctx(pi)
    return {
        length: ctx.members[start:end]
        for length, start, end in ctx.groups
    }


@dataclass(frozen=True)
class IntervalTable:
    """The interval [lower, upper] with mu(lower, member) for every member."""

    lower: Permutation
    upper: Permutation
    members: dict[int, tuple[Permutation, ...]]
    mu: dict[Permutation, int]

    @property
    def is_empty(self) -> bool:
        return not self.mu

    def rows(self) -> list[tuple[int, Permutation, int]]:
        """(length, member, mu) triples ascending by (length, values)."""
        return [
            (length, member, self.mu[member])
            for length in sorted(self.members)
            for member in self.members[length]
        ]


def interval(sigma: Permutation, pi: Permutation) -> IntervalTable:
    """The closed interval [sigma, pi]; empty table when sigma is not
    contained in pi."""
    ctx = _downset_ctx(pi)
    sidx = ctx.index.get(sigma.values)
    if sidx is None:
        return IntervalTable(sigma, pi, {}, {})
    above = ctx.above(sidx).tolist()
    row = ctx.row(sigma).tolist()
    members: dict[int, tuple[Permutation, ...]] = {}
    mu: dict[Permutation, int] = {}
    for length, start, end in ctx.groups:
        if length < len(sigma.values):
            continue
        picked = [i for i in range(start, end) if above[i]]
        if picked:
            members[length] = tuple(ctx.members[i] for i in picked)
            mu.update((ctx.members[i], row[i]) for i in picked)
    return IntervalTable(sigma, pi, members, mu)


def mobius_naive(sigma: Permutation, pi: Permutation) -> int:
    """Exact Möbius value of the interval [sigma, pi] by the defining sum."""
    ctx = _downset_ctx(pi)
    sidx = ctx.index.get(sigma.values)
    return 0 if sidx is None else ctx.column().item(sidx)


def mobius_naive_column(pi: Permutation) -> dict[Permutation, int]:
    """mu(sigma, pi) for every sigma contained in pi, in one solve."""
    ctx = _downset_ctx(pi)
    return dict(zip(ctx.members, ctx.column().tolist()))
