"""The containment poset: downsets, intervals, and the exact Möbius oracle.

``mobius_naive`` evaluates the defining recurrence

    mu(sigma, pi) = - sum of mu(sigma, lam) over sigma <= lam < pi,

with mu(sigma, sigma) = 1 and mu(sigma, pi) = 0 when sigma is not contained
in pi.  It enumerates the full downset of pi once and solves for a whole
column mu(. , pi) in one pass, so repeated queries against the same upper
bound are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Overflow, TooLarge
from .perms import Permutation, _delete_value_at

__all__ = [
    "DEFAULT_DOWNSET_CAP",
    "downset",
    "IntervalTable",
    "interval",
    "mobius_naive",
    "mobius_naive_column",
]

DEFAULT_DOWNSET_CAP = 12

_INT64_GUARD = 1 << 62


class DownsetContext:
    """Downset of a fixed upper bound with containment structure solved once.

    members are ascending by (length, values); ``leq[j, i]`` is 1 exactly
    when member i is contained in member j.
    """

    __slots__ = ("pi", "members", "index", "leq", "groups", "_column")

    def __init__(self, pi: Permutation):
        # Each member's point-deletion children, computed once per member;
        # a child is kept as the tuple its level (a dict) already holds.
        n = len(pi.values)
        by_len: list[dict] = [{} for _ in range(n + 1)]
        by_len[n][pi.values] = pi.values
        children: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): []}
        for length in range(n, 0, -1):
            below = by_len[length - 1]
            for vals in by_len[length]:
                kids = []
                for i in range(length):
                    c = _delete_value_at(vals, i)
                    kids.append(below.setdefault(c, c))
                children[vals] = kids

        members: list[Permutation] = []
        groups: list[tuple[int, int, int]] = []
        for length in range(n + 1):
            start = len(members)
            members.extend(Permutation._wrap(v) for v in sorted(by_len[length]))
            groups.append((length, start, len(members)))

        m = len(members)
        index = {p.values: i for i, p in enumerate(members)}
        # reach[j]: the members contained in member j, as a bitmask
        reach = [0] * m
        for j, p in enumerate(members):
            mask = 1 << j
            for c in children[p.values]:
                mask |= reach[index[c]]
            reach[j] = mask
        del by_len, children  # freed before the m x m matrix is built

        nbytes = (m + 7) // 8
        packed = np.frombuffer(
            b"".join(r.to_bytes(nbytes, "little") for r in reach), dtype=np.uint8
        ).reshape(m, nbytes)
        leq = np.unpackbits(packed, axis=1, bitorder="little")[:, :m].astype(np.int8)

        self.pi = pi
        self.members = tuple(members)
        self.index = index
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


@lru_cache(maxsize=64)
def _downset_ctx(pi: Permutation) -> DownsetContext:
    return DownsetContext(pi)


def _capped_ctx(pi: Permutation, cap: int) -> DownsetContext:
    """The cached downset context of pi; the one check of the downset cap
    on every path that enumerates a downset."""
    if len(pi.values) > cap:
        raise TooLarge(
            f"upper bound of length {len(pi.values)} exceeds the downset cap {cap}"
        )
    return _downset_ctx(pi)


def downset(
    pi: Permutation, cap: int = DEFAULT_DOWNSET_CAP
) -> dict[int, tuple[Permutation, ...]]:
    """All permutations contained in pi (including the empty one and pi),
    grouped by length."""
    ctx = _capped_ctx(pi, cap)
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


def interval(
    sigma: Permutation, pi: Permutation, cap: int = DEFAULT_DOWNSET_CAP
) -> IntervalTable:
    """The closed interval [sigma, pi]; empty table when sigma is not
    contained in pi."""
    ctx = _capped_ctx(pi, cap)
    sidx = ctx.index.get(sigma.values)
    if sidx is None:
        return IntervalTable(sigma, pi, {}, {})
    above = ctx.leq[:, sidx]
    row = ctx.row(sigma)
    members: dict[int, tuple[Permutation, ...]] = {}
    mu: dict[Permutation, int] = {}
    for length, start, end in ctx.groups:
        if length < len(sigma.values):
            continue
        picked = tuple(
            ctx.members[i] for i in range(start, end) if above[i]
        )
        if picked:
            members[length] = picked
            for i in range(start, end):
                if above[i]:
                    mu[ctx.members[i]] = int(row[i])
    return IntervalTable(sigma, pi, members, mu)


def mobius_naive(
    sigma: Permutation, pi: Permutation, cap: int = DEFAULT_DOWNSET_CAP
) -> int:
    """Exact Möbius value of the interval [sigma, pi] by the defining sum."""
    ctx = _capped_ctx(pi, cap)
    sidx = ctx.index.get(sigma.values)
    return 0 if sidx is None else int(ctx.column()[sidx])


def mobius_naive_column(
    pi: Permutation, cap: int = DEFAULT_DOWNSET_CAP
) -> dict[Permutation, int]:
    """mu(sigma, pi) for every sigma contained in pi, in one solve."""
    ctx = _capped_ctx(pi, cap)
    col = ctx.column()
    return {p: int(col[i]) for i, p in enumerate(ctx.members)}
