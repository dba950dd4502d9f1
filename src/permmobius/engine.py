"""General Möbius computation and the engine dispatcher.

``MobiusEngine.mobius`` routes each query.  Decomposable upper bounds are
reduced by the component recursions (the methods ``mobius_prop1`` /
``mobius_prop2`` / ``mobius_cor3``).  Indecomposable upper bounds use the
weighted contributing-set recursion (the method ``mobius_theorem``):
mu(sigma, pi) is minus the sum of mu(sigma, alpha) times a {-1, 0, +1}
weight over the sum-indecomposable alpha strictly below pi, where the
weight of alpha depends on which of the direct-sum family members built
from alpha still embed in pi.  One helper, ``_rank_and_weight``, computes
that rank and weight for the candidate lists (against the downset index)
and for ``min_r_general`` / ``weight_general`` (against the matcher).
Increasing-oscillation upper bounds are routed to the inequality-only
fast path.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import EmptyOperand, PreconditionViolation
from .oscillation_fast import mobius_oscillation, oscillation_id
from .perms import (
    OscillationId,
    Permutation,
    _iterated_sum_values,
    contains,
    is_identity,
    is_reverse_identity,
    is_sum_indecomposable,
    sum_decompose,
)
from .poset import DEFAULT_DOWNSET_CAP, _capped_ctx, mobius_naive

__all__ = [
    "MobiusCache",
    "WeightedContribution",
    "MobiusEngine",
    "min_r_general",
    "weight_general",
    "mobius",
    "default_engine",
]

ENGINE_NAMES = ("auto", "naive", "general", "oscillation")

_DEFAULT_CACHE_BYTES = 256 * 1024 * 1024
_ENTRY_OVERHEAD = 48


_Key = tuple[tuple[int, ...], tuple[int, ...]]


class MobiusCache:
    """LRU value cache keyed by (lower values, upper values), bounded in
    bytes: an entry costs one byte per point plus a fixed overhead."""

    def __init__(self, max_bytes: Optional[int] = None):
        self.max_bytes = _DEFAULT_CACHE_BYTES if max_bytes is None else max_bytes
        self._entries: OrderedDict[_Key, int] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        return self._bytes

    @staticmethod
    def _cost(key: _Key) -> int:
        return len(key[0]) + len(key[1]) + _ENTRY_OVERHEAD

    def get(self, key: _Key) -> Optional[int]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: _Key, value: int) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        self._bytes += self._cost(key)
        while self._bytes > self.max_bytes and self._entries:
            old_key, _ = self._entries.popitem(last=False)
            self._bytes -= self._cost(old_key)

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


@dataclass(frozen=True)
class WeightedContribution:
    """A sum-indecomposable candidate with its minimal copy count and weight."""

    alpha: Permutation
    r: int
    weight: int


# ---------------------------------------------------------------------------
# Rank and weight on the general path
# ---------------------------------------------------------------------------


def _rank_and_weight(
    a: tuple[int, ...], n: int, has: Callable[[tuple[int, ...]], bool]
) -> tuple[int, int]:
    """Minimal copy count r and weight of alpha (values a) below an upper
    bound of length n, as min_r_general and weight_general define them.
    has(vals) tells whether vals lies in the upper bound; it is asked only
    for len(vals) < n, so a family member counts only when strictly below."""
    if not a:
        raise EmptyOperand("alpha must be nonempty")

    def below(vals: tuple[int, ...]) -> bool:
        return len(vals) < n and has(vals)

    # The capped stack outgrows the upper bound, so the loop ends.
    for r in itertools.count(1):
        stack = _iterated_sum_values(a, r)
        left = (1,) + tuple(v + 1 for v in stack)
        if not below(left + (len(stack) + 2,)):
            break
    weight = (
        below(stack)
        - below(left)
        - below(stack + (len(stack) + 1,))
        + below(_iterated_sum_values(a, r + 1))
    )
    return r, weight


def _contained_in(pi: Permutation) -> Callable[[tuple[int, ...]], bool]:
    return lambda vals: contains(Permutation._wrap(vals), pi)


def min_r_general(alpha: Permutation, pi: Permutation) -> int:
    """Smallest r >= 1 such that 1 + (r copies of alpha) + 1 (direct sums)
    is not strictly below pi.  Strictness matters when pi itself has that
    capped-stack form: the capped stack then falls outside the half-open
    interval the recursion sums over."""
    return _rank_and_weight(alpha.values, len(pi.values), _contained_in(pi))[0]


def weight_general(sigma: Permutation, alpha: Permutation, pi: Permutation) -> int:
    """Weight of alpha toward mu(sigma, pi): with r minimal as above and
    S the direct sum of r copies of alpha, counts which of S, 1+S, S+1
    and the (r+1)-copy stack are strictly below pi (inclusion-exclusion
    over the direct-sum family built from alpha)."""
    return _rank_and_weight(alpha.values, len(pi.values), _contained_in(pi))[1]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class MobiusEngine:
    """Dispatcher over the naive oracle, the component recursions, the
    contributing-set recursion, and the oscillation fast path."""

    def __init__(
        self,
        cache: Optional[MobiusCache] = None,
        downset_cap: int = DEFAULT_DOWNSET_CAP,
    ):
        self.cache = cache if cache is not None else MobiusCache()
        self.downset_cap = downset_cap
        self.stats = {"naive_fallbacks": 0, "theorem_calls": 0}
        # Candidate lists (alpha index, alpha, r, weight) per upper bound.
        self._candidates: OrderedDict[
            tuple[int, ...], list[tuple[int, Permutation, int, int]]
        ] = OrderedDict()
        self._candidates_max = 4096

    # -- candidate enumeration -------------------------------------------

    def _candidate_list(self, pi: Permutation):
        """Sum-indecomposable members strictly below pi with nonzero weight;
        sigma-independent, so cached per upper bound."""
        cached = self._candidates.get(pi.values)
        if cached is not None:
            self._candidates.move_to_end(pi.values)
            return cached
        ctx = _capped_ctx(pi, self.downset_cap)
        n = len(pi.values)
        has = ctx.index.__contains__
        out: list[tuple[int, Permutation, int, int]] = []
        for idx, member in enumerate(ctx.members):
            a = member.values
            if not a or len(a) >= n or not is_sum_indecomposable(member):
                continue
            r, w = _rank_and_weight(a, n, has)
            if w:
                out.append((idx, member, r, w))
        self._candidates[pi.values] = out
        if len(self._candidates) > self._candidates_max:
            self._candidates.popitem(last=False)
        return out

    def _contributions(
        self, sigma: Permutation, pi: Permutation
    ) -> Iterator[tuple[Permutation, int, int]]:
        """(alpha, r, weight) for each candidate of pi that lies above sigma."""
        ctx = _capped_ctx(pi, self.downset_cap)
        sidx = ctx.index.get(sigma.values)
        if sidx is None:
            return
        for idx, alpha, r, w in self._candidate_list(pi):
            if (ctx.reach[idx] >> sidx) & 1:
                yield alpha, r, w

    def contributing_set(
        self, sigma: Permutation, pi: Permutation
    ) -> list[WeightedContribution]:
        """All sum-indecomposable alpha in [sigma, pi) with nonzero weight."""
        return [
            WeightedContribution(alpha, r, w)
            for alpha, r, w in self._contributions(sigma, pi)
        ]

    # -- component recursions ---------------------------------------------

    @staticmethod
    def _leading_count(components, head: Permutation) -> int:
        count = 0
        for comp in components:
            if comp == head:
                count += 1
            else:
                break
        return count

    def mobius_prop1(self, sigma: Permutation, pi: Permutation) -> int:
        """Decomposable pi whose first component is 1: reduce by stripping
        the leading singleton run against sigma's leading singleton run."""
        if not sigma.values:
            raise PreconditionViolation("lower bound must be nonempty")
        dec_pi = sum_decompose(pi)
        one = Permutation._wrap((1,))
        if len(dec_pi.components) < 2 or dec_pi.components[0] != one:
            raise PreconditionViolation(
                "upper bound must be decomposable with first component 1"
            )
        dec_sigma = sum_decompose(sigma)
        k = self._leading_count(dec_pi.components, one)
        l = self._leading_count(dec_sigma.components, one)
        pi_tail = dec_pi.suffix(k)
        if k - 1 > l:
            return 0
        if k - 1 == l:
            return -self.mobius(dec_sigma.suffix(k - 1), pi_tail)
        return self.mobius(dec_sigma.suffix(k), pi_tail) - self.mobius(
            dec_sigma.suffix(k - 1), pi_tail
        )

    def mobius_prop2(self, sigma: Permutation, pi: Permutation) -> int:
        """Decomposable pi whose first component differs from 1: double sum
        over splits of sigma and strips of pi's leading repeated component."""
        dec_pi = sum_decompose(pi)
        one = (1,)
        if len(dec_pi.components) < 2 or dec_pi.components[0].values == one:
            raise PreconditionViolation(
                "upper bound must be decomposable with first component != 1"
            )
        head = dec_pi.components[0]
        k = self._leading_count(dec_pi.components, head)
        dec_sigma = sum_decompose(sigma)
        m = len(dec_sigma.components)
        total = 0
        for i in range(1, m + 1):
            left = self.mobius(dec_sigma.prefix(i), head)
            if left == 0:
                continue
            right_sigma = dec_sigma.suffix(i)
            for j in range(1, k + 1):
                total += left * self.mobius(right_sigma, dec_pi.suffix(j))
        return total

    def mobius_cor3(self, sigma: Permutation, pi: Permutation) -> int:
        """Sum-indecomposable sigma against a decomposable pi with repeated
        non-singleton head: nonzero only for head-power upper bounds."""
        if not is_sum_indecomposable(sigma):
            raise PreconditionViolation("lower bound must be sum-indecomposable")
        dec_pi = sum_decompose(pi)
        comps = dec_pi.components
        one = (1,)
        if len(comps) < 2 or comps[0].values == one:
            raise PreconditionViolation(
                "upper bound must be decomposable with first component != 1"
            )
        head = comps[0]
        if all(c == head for c in comps):
            return self.mobius(sigma, head)
        if comps[-1].values == one and all(c == head for c in comps[:-1]):
            return -self.mobius(sigma, head)
        return 0

    # -- contributing-set recursion ----------------------------------------

    def mobius_theorem(self, sigma: Permutation, pi: Permutation) -> int:
        """mu via the weighted contributing set, recursing through the
        dispatcher; mu(sigma, alpha) collapses to +1 / -1 for the two
        shortest candidate lengths without recursion."""
        if not is_sum_indecomposable(sigma):
            raise PreconditionViolation("lower bound must be sum-indecomposable")
        if len(pi.values) <= 3:
            raise PreconditionViolation("upper bound must have length > 3")
        if is_identity(pi) or is_reverse_identity(pi):
            raise PreconditionViolation(
                "identity / reverse-identity upper bounds are handled directly"
            )
        if sigma == pi:
            return 1
        self.stats["theorem_calls"] += 1
        slen = len(sigma.values)
        total = 0
        for alpha, _r, w in self._contributions(sigma, pi):
            alen = len(alpha.values)
            if alen == slen:
                mu_sa = 1
            elif alen == slen + 1:
                mu_sa = -1
            else:
                mu_sa = self.mobius(sigma, alpha)
            total += mu_sa * w
        return -total

    # -- dispatcher ---------------------------------------------------------

    def mobius(self, sigma: Permutation, pi: Permutation, engine: str = "auto") -> int:
        if engine not in ENGINE_NAMES:
            raise PreconditionViolation(f"unknown engine {engine!r}")
        if engine == "naive":
            return mobius_naive(sigma, pi, cap=self.downset_cap)
        if sigma == pi:
            return 1
        slen = len(sigma.values)
        plen = len(pi.values)
        if slen > plen:
            return 0
        if slen == 0:
            return -1 if plen == 1 else 0
        # Only auto values are cached: an explicit engine must compute (or
        # refuse) on its own, never answer with another route's value.
        use_cache = engine == "auto"
        if use_cache:
            key = (sigma.values, pi.values)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        if not contains(sigma, pi):
            return 0
        if plen - slen == 1:
            return -1
        if is_identity(pi) or is_reverse_identity(pi):
            # Containment inside a chain with a length gap >= 2.
            return 0
        value = self._route(sigma, pi, engine)
        if use_cache:
            self.cache.put(key, value)
        return value

    def _route(self, sigma: Permutation, pi: Permutation, engine: str) -> int:
        if engine == "oscillation":
            return mobius_oscillation(sigma, pi)
        dec_pi = sum_decompose(pi)
        if len(dec_pi.components) > 1:
            if dec_pi.components[0].values == (1,):
                return self.mobius_prop1(sigma, pi)
            if is_sum_indecomposable(sigma):
                return self.mobius_cor3(sigma, pi)
            return self.mobius_prop2(sigma, pi)
        if not is_sum_indecomposable(sigma):
            self.stats["naive_fallbacks"] += 1
            return mobius_naive(sigma, pi, cap=self.downset_cap)
        if len(pi.values) <= 3:
            return mobius_naive(sigma, pi, cap=self.downset_cap)
        if engine == "auto":
            pi_id = _oscillation_route(sigma, pi)
            if pi_id is not None:
                return mobius_oscillation(sigma, pi_id)
        return self.mobius_theorem(sigma, pi)


def _oscillation_route(sigma: Permutation, pi: Permutation) -> Optional[OscillationId]:
    """The route rule of the oscillation fast path: pi's OscillationId when
    pi is W_n / M_n with n >= 2 and sigma is 1 or an oscillation, else None."""
    pi_id = oscillation_id(pi)
    if pi_id is None or pi_id.n < 2 or oscillation_id(sigma) is None:
        return None
    return pi_id


_default_engine: Optional[MobiusEngine] = None


def default_engine() -> MobiusEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = MobiusEngine()
    return _default_engine


def mobius(sigma: Permutation, pi: Permutation, engine: str = "auto") -> int:
    return default_engine().mobius(sigma, pi, engine=engine)

