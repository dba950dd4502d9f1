"""The containment poset: downsets, intervals, and the exact Möbius oracle.

``mobius_naive`` evaluates the defining recurrence

    mu(sigma, pi) = - sum of mu(sigma, lam) over sigma <= lam < pi,

with mu(sigma, sigma) = 1 and mu(sigma, pi) = 0 when sigma is not contained
in pi.  It enumerates the full downset of pi once and solves for a whole
column mu(. , pi) in one pass, so repeated queries against the same upper
bound are cheap.

The enumeration keys each member as a str with one code point per value:
deleting a point is one slice and one C-level str.translate that
renormalizes the values above it.  A str holds any code point, so the
keys put no limit on the length of pi; the one size bound is on members
(``MAX_DOWNSET_MEMBERS``), checked while the build enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Overflow, TooLarge
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
# included), so each is within the bound; the largest leq matrix is 16 MiB.
MAX_DOWNSET_MEMBERS = 1 << 12

_INT64_GUARD = 1 << 62


class DownsetContext:
    """Downset of a fixed upper bound with containment structure solved once.

    members are ascending by (length, values); ``leq[j, i]`` is 1 exactly
    when member i is contained in member j.  The build enumerates members
    as code-point strings, one str.translate per point deletion, for an
    upper bound of any length; each key is decoded to a Permutation once.
    """

    __slots__ = ("pi", "members", "index", "leq", "groups", "_column")

    def __init__(self, pi: Permutation):
        # Each member's point-deletion children are computed once; a child
        # is kept as the key its level (a dict) already holds.
        n = len(pi.values)
        # pi, its n - b distinct one-point deletions (b: the adjacent
        # positions holding adjacent values) and one member per shorter
        # length: refused on that count before the n^2 translate tables.
        v = pi.values
        bonds = sum(abs(a - c) == 1 for a, c in zip(v, v[1:]))
        if 2 * n - bonds > MAX_DOWNSET_MEMBERS:
            raise _too_large(n)
        # drop[v] maps x to x - (x > v); slices of one tuple share its ints.
        base = tuple(range(n + 1))
        drop = [base[: v + 1] + base[v:n] for v in range(n + 1)]
        top = "".join(map(chr, pi.values))
        by_len: list[dict[str, str]] = [{} for _ in range(n + 1)]
        by_len[n][top] = top
        children: dict[str, list[str]] = {"": []}
        found = 1  # the members longer than the level being filled
        for length in range(n, 0, -1):
            below = by_len[length - 1]
            for key in by_len[length]:
                children[key] = _delete_each_point(key, drop, below)
                # each of the length - 1 shorter levels holds a member
                if found + len(below) + length - 1 > MAX_DOWNSET_MEMBERS:
                    raise _too_large(n)
            found += len(below)

        # At equal length, code-point order is value order.
        keys: list[str] = []
        groups: list[tuple[int, int, int]] = []
        for length in range(n + 1):
            start = len(keys)
            keys.extend(sorted(by_len[length]))
            groups.append((length, start, len(keys)))
        members = tuple(Permutation._wrap(tuple(map(ord, key))) for key in keys)

        m = len(keys)
        key_index = {key: i for i, key in enumerate(keys)}
        # reach[j]: the members contained in member j, as a bitmask
        reach = [0] * m
        for j, key in enumerate(keys):
            mask = 1 << j
            for c in children[key]:
                mask |= reach[key_index[c]]
            reach[j] = mask
        del by_len, children, keys, key_index  # freed before the m x m matrix

        nbytes = (m + 7) // 8
        packed = np.frombuffer(
            b"".join(r.to_bytes(nbytes, "little") for r in reach), dtype=np.uint8
        ).reshape(m, nbytes)
        leq = np.unpackbits(packed, axis=1, bitorder="little")[:, :m].astype(np.int8)

        self.pi = pi
        self.members = members
        self.index = {p.values: i for i, p in enumerate(members)}
        self.leq = leq
        self.groups = groups
        self._column = None

    def column(self) -> np.ndarray:
        """mu(member, pi) for every member, solved top-down by length."""
        if self._column is None:
            m = len(self.members)
            mu = np.zeros(m, dtype=np.int64)
            mu[m - 1] = 1
            for _, start, end in reversed(self.groups[:-1]):
                mu[start:end] = -(mu[end:] @ self.leq[end:, start:end])
            if m and int(np.abs(mu).max()) >= _INT64_GUARD:
                raise Overflow("Möbius column exceeds the 64-bit guard")
            self._column = mu
        return self._column

    def row(self, sigma: Permutation) -> np.ndarray:
        """mu(sigma, member) for every member, solved bottom-up by length."""
        m = len(self.members)
        mu = np.zeros(m, dtype=np.int64)
        sidx = self.index.get(sigma.values)
        if sidx is None:
            return mu
        mu[sidx] = 1
        above = self.leq[:, sidx]
        for length, start, end in self.groups:
            if length <= len(sigma.values):
                continue
            block = -(self.leq[start:end, :start] @ mu[:start])
            mu[start:end] = block * above[start:end]
        if int(np.abs(mu).max()) >= _INT64_GUARD:
            raise Overflow("Möbius row exceeds the 64-bit guard")
        return mu


def _too_large(n: int) -> TooLarge:
    return TooLarge(f"upper bound of length {n} has over {MAX_DOWNSET_MEMBERS} patterns")


def _delete_each_point(
    key: str, drop: list[tuple[int, ...]], below: dict[str, str]
) -> list[str]:
    """The children of one member key, one per deleted point, each as the
    key ``below`` (the next level down) holds.  ``drop[v]`` is the
    str.translate table that renormalizes once value v is gone."""
    kids = []
    for i, v in enumerate(key):
        child = (key[:i] + key[i + 1 :]).translate(drop[ord(v)])
        kids.append(below.setdefault(child, child))
    return kids


@lru_cache(maxsize=64)
def _downset_ctx(pi: Permutation) -> DownsetContext:
    return DownsetContext(pi)


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
    above = ctx.leq[:, sidx].tolist()
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
    return 0 if sidx is None else int(ctx.column()[sidx])


def mobius_naive_column(pi: Permutation) -> dict[Permutation, int]:
    """mu(sigma, pi) for every sigma contained in pi, in one solve."""
    ctx = _downset_ctx(pi)
    col = ctx.column()
    return {p: int(col[i]) for i, p in enumerate(ctx.members)}
