"""General Möbius computation and the engine dispatcher.

``MobiusEngine.mobius(sigma, pi, engine)`` routes each query by one rule
(``_query_route``), and every route and sub-query of that query runs on
the engine it names.  Each value is kept once, in the store that owns it:
the value cache keeps, under its engine, the values that a component
recursion, the theorem or the fast path computed, and an oracle value
stays in its upper bound's downset context (``poset._downset_ctx``), which
holds the whole column.

Decomposable upper bounds are reduced by the component recursions (the
methods ``mobius_prop1`` / ``mobius_prop2`` / ``mobius_cor3``), whose sums
of products vanish unless sigma embeds in pi, so when every component of
pi has a downset context they decide containment themselves.  On an
indecomposable upper bound, ``auto`` takes the
inequality-only fast path for an increasing oscillation (every shorter
one is contained) and otherwise reads the oracle's column of pi's
downset context, whose index answers whether sigma is contained.  Past
that, one complement rule covers the skew half: complement keeps mu and
turns skew sums into direct sums, so a skew-decomposable pi (and, under
``general``, a sum-decomposable sigma; under ``auto``, a pair whose
complement is an oscillation route) is answered as mu(sigma^c, pi^c).
The containment matcher is asked about every other pair, and on every
query of ``--engine oscillation``.  The route rule and the recursions read pi's
components and cuts from one bounded store keyed by values
(``perms.sum_decompose``), whose entry for pi also keeps what the route rule
and the recursions ask of pi: its longest component, how many components
in a row equal its first and, when pi is sum-indecomposable, its
oscillation id.

The ``general`` engine answers a sum-indecomposable sigma below a sum- and
skew-indecomposable pi by the paper's weighted contributing-set recursion
(the method ``mobius_theorem``): mu(sigma, pi) is minus the sum of
mu(sigma, alpha) times a {-1, 0, +1} weight over the sum-indecomposable
alpha strictly below pi, where the weight of alpha depends on which of
the direct-sum family members built from alpha still embed in pi.  Every
alpha the recursion reaches lies in pi's downset, so it is solved inside
pi's one downset context (``_Table``), with no value cache and no other
route.  The table is built by one gather over the context's order bits,
unpacked a block of rows at a time, and kept in the context's ``table``
slot, so it is counted against the context store's byte budget and
evicted with its context.  One
walker, ``_family``, looks up a candidate's capped-tower family, and one
helper, ``_ranks_and_weights``, turns the family's bits into ranks and
weights, for the table (bits from the context's order) and for
``min_r_general`` / ``weight_general`` (bits from the matcher).
"""

from __future__ import annotations

import itertools
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from .errors import EmptyOperand, PreconditionViolation
from .oscillation_fast import mobius_oscillation
from .perms import (
    OscillationId,
    Permutation,
    SumDecomposition,
    _family_values,
    _iterated_sum_values,
    complement,
    contains,
    is_identity,
    is_reverse_identity,
    is_sum_indecomposable,
    oscillation_id,
    sum_decompose,
)
from . import poset
from .poset import _INT_BYTES, _ITEM_BYTES, DownsetContext, _downset_ctx, mobius_naive

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

# The value cache's budget, in bytes.
_CACHE_BYTES = 256 * 1024 * 1024
# An entry's bytes but for its points: its three tuples (the key holds three
# items; the engine name is shared) and about 100 bytes for the dict slot,
# the order link and the value, as tracemalloc reads them at |pi| = 12 and 40.
_ENTRY_BYTES = 3 * sys.getsizeof(()) + 3 * _ITEM_BYTES + 100
# A table's (row, weight) pair.
_PAIR_BYTES = sys.getsizeof((0, 0))


_Key = tuple[tuple[int, ...], tuple[int, ...], str]
_K = TypeVar("_K")


class MobiusCache:
    """LRU value cache keyed by (lower values, upper values, engine name),
    bounded in bytes (_CACHE_BYTES): an entry costs the sys.getsizeof of its
    key tuple and its two value tuples plus a fixed overhead.  It keeps the
    values of the component recursions, the theorem and the fast path; an
    oracle value is read from its context's column instead."""

    def __init__(self):
        self._entries: OrderedDict[_Key, int] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _cost(key: _Key) -> int:
        return _ENTRY_BYTES + _ITEM_BYTES * (len(key[0]) + len(key[1]))

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
        while self._bytes > _CACHE_BYTES and self._entries:
            old_key, _ = self._entries.popitem(last=False)
            self._bytes -= self._cost(old_key)


@dataclass(frozen=True)
class WeightedContribution:
    """A sum-indecomposable candidate with its minimal copy count and weight."""

    alpha: Permutation
    r: int
    weight: int


# ---------------------------------------------------------------------------
# Rank and weight on the general path
# ---------------------------------------------------------------------------


def _family(
    values: tuple[int, ...], look: Callable[[tuple[int, ...], _K], _K], absent: _K
) -> list[tuple[_K, ...]]:
    """The capped-tower family of the pattern with these values, each
    member looked up once: entry r - 1 holds look(member, absent) of S_r,
    1 + S_r, S_r + 1 and 1 + S_r + 1 (perms._family_values), for r = 1,
    2, ... up to the first r whose capped stack looks up as absent, then
    one entry more that holds S_(r+1) and three absent."""
    fam = []
    absents = (absent,) * 4
    for r in itertools.count(1):
        fam.append(tuple(map(look, _family_values(values, r), absents)))
        if fam[-1][3] == absent:
            break
    fam.append((look(_iterated_sum_values(values, r + 1), absent), *absents[1:]))
    return fam


def _ranks_and_weights(below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal copy count r and weight w of candidates below an upper bound.

    below[..., j, k] is 1 when member k of the candidate's family for
    j + 1 copies (as _family orders it) lies strictly below the upper
    bound; each family goes on one entry past its r.  The capped stacks are
    nested, so the ones below come first: r is 1 plus their count, the
    least r >= 1 whose capped stack 1 + S_r + 1 is not below.  The weight
    counts, by inclusion-exclusion, which of S_r, 1 + S_r, S_r + 1 and
    S_(r+1) are below, as the sum of each entry's terms times a one-hot
    pick of j = r - 1."""
    ranks = 1 + below[..., 3].sum(axis=-1)
    pick = np.arange(below.shape[-2] - 1) == ranks[..., None] - 1
    stack, left, right = below[..., :-1, 0], below[..., :-1, 1], below[..., :-1, 2]
    terms = stack - left - right + below[..., 1:, 0]
    return ranks, (pick * terms).sum(axis=-1)


def _rank_and_weight_in(alpha: Permutation, pi: Permutation) -> tuple[int, int]:
    """_ranks_and_weights of alpha below pi, decided by the matcher."""
    a = alpha.values
    if not a:
        raise EmptyOperand("alpha must be nonempty")
    n = len(pi.values)

    def below(vals: tuple[int, ...], _absent: int) -> int:
        return int(len(vals) < n and contains(Permutation._wrap(vals), pi))

    r, w = _ranks_and_weights(np.array(_family(a, below, 0), dtype=np.int8))
    return int(r), int(w)


def min_r_general(alpha: Permutation, pi: Permutation) -> int:
    """Smallest r >= 1 such that 1 + (r copies of alpha) + 1 (direct sums)
    is not strictly below pi.  Strictness matters when pi itself has that
    capped-stack form: the capped stack then falls outside the half-open
    interval the recursion sums over."""
    return _rank_and_weight_in(alpha, pi)[0]


def weight_general(sigma: Permutation, alpha: Permutation, pi: Permutation) -> int:
    """Weight of alpha toward mu(sigma, pi): with r minimal as above and
    S the direct sum of r copies of alpha, counts which of S, 1+S, S+1
    and the (r+1)-copy stack are strictly below pi (inclusion-exclusion
    over the direct-sum family built from alpha)."""
    return _rank_and_weight_in(alpha, pi)[1]


# ---------------------------------------------------------------------------
# The contributing-set table of one upper bound
# ---------------------------------------------------------------------------


# The table build gathers a block of rows at a time, as many as keep the
# block's family bits under this bound were every candidate below every row.
# A gathered bit costs about ten bytes of temporaries (its member index and
# the bit), so a block stays under about 10 MiB however large the context.
_GATHER_BITS = 1 << 20


class _Table:
    """The contributing-set recursion over one upper bound's downset context,
    kept in that context's table slot (the context is not held here, so
    evicting it from the lru frees both).

    Rows are the sum-indecomposable members and the upper bound itself (the
    top); the row of member a lists (b, r, w) for each sum-indecomposable
    member b strictly below a with nonzero weight w toward a.  The build
    looks up each candidate b's family once, as member indices (a member
    outside the downset takes the top's, which is strictly below no
    member), and gathers the strict order bits of each (a, b) pair with b
    below a, a block of rows at a time, for one _ranks_and_weights.  The
    top's row is kept as it is; a solve reads all rows by column, (a, w)
    for each row a that lists b, so that it pushes each known mu(sigma, b)
    up to the rows above b and touches only the entries above sigma.
    """

    __slots__ = ("top", "top_row", "_base", "_rowmask", "_columns", "nbytes")

    def __init__(self, ctx: DownsetContext):
        members = ctx.members
        self.top = top = len(members) - 1
        # mu(sigma, a) of a row a below the top and at least two longer
        # than a sigma below it, where a closed form gives it: 0 for a chain
        # k...1 (sigma is a shorter chain), 1 for 231 and 312 (sigma is 1).
        closed = {tuple(range(k, 0, -1)): 0 for k in range(1, len(ctx.pi.values))}
        closed[(2, 3, 1)] = closed[(3, 1, 2)] = 1
        self._base = base = {}
        for vals, v in closed.items():
            a = ctx.index.get(vals, top)
            if a != top:
                base[a] = v
        rowmask = np.array([is_sum_indecomposable(p) for p in members], dtype=np.int8)
        rowmask[top] = 1
        self._rowmask = rowmask
        cands = np.flatnonzero(rowmask[:top])
        fams = [_family(members[b].values, ctx.index.get, top) for b in cands.tolist()]
        width = max(map(len, fams), default=2)
        pad = [(top,) * 4] * width
        fam = np.array([f + pad[len(f) :] for f in fams], dtype=np.intp)
        fam = fam.reshape(-1, width, 4)
        # a base row's sum is never read
        rows = np.array([a for a in np.flatnonzero(rowmask).tolist() if a not in base])
        step = max(1, _GATHER_BITS // (4 * width * max(len(cands), 1)))
        self._columns = columns = {}
        big = 0  # the pairs whose row is an int of its own (past 256)
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            strict = ctx.rows(block)
            strict[np.arange(len(block)), block] = 0
            ia, ib = np.nonzero(strict[:, cands])
            ranks, weights = _ranks_and_weights(strict[ia[:, None, None], fam[ib]])
            keep = np.flatnonzero(weights)
            a_s, b_s = block[ia[keep]], cands[ib[keep]]
            for a, b, w in zip(a_s.tolist(), b_s.tolist(), weights[keep].tolist()):
                columns.setdefault(b, []).append((a, w))
            big += int(np.count_nonzero(a_s > 256))
        # The top is the last row, so the last block holds its pairs.
        mine = a_s == top
        self.top_row = (
            b_s[mine].tolist(),
            tuple(ranks[keep[mine]].tolist()),
            tuple(weights[keep[mine]].tolist()),
        )
        # What the table holds, by sys.getsizeof, for the context store's
        # budget: a (row, weight) tuple per pair, the column lists that hold
        # them, the row mask, the closed forms and the top's row.
        pairs = sum(map(len, columns.values()))
        self.nbytes = (
            pairs * _PAIR_BYTES
            + big * _INT_BYTES
            + sys.getsizeof(columns)
            + sum(map(sys.getsizeof, columns.values()))
            + sys.getsizeof(rowmask)
            + sys.getsizeof(base)
            + sum(map(sys.getsizeof, self.top_row))
        )

    def solve(self, ctx: DownsetContext, sidx: int) -> list[int]:
        """mu(sigma, a) for sigma = member sidx of ctx (below the top) and
        every row a above it; every other entry is 0.  Rows are visited
        shortest first: sigma is 1, a row one longer is -1, a base row takes
        its closed form and any other row minus the sum its shorter rows
        have pushed into it."""
        m = len(ctx.members)
        groups = ctx.groups
        slen = len(ctx.members[sidx].values)
        cut = groups[slen + 2][1] if slen + 2 < len(groups) else m
        base, columns = self._base, self._columns
        mu = [0] * m
        # The rows that contain sigma, ascending.
        above = (ctx.above(sidx) & self._rowmask).tobytes()
        for b in itertools.compress(range(m), above):
            if b < cut:
                v = 1 if b == sidx else -1
            else:
                v = base.get(b)
                if v is None:
                    v = -mu[b]
            mu[b] = v
            if v:
                for a, w in columns.get(b, ()):
                    mu[a] += v * w
        return mu


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class MobiusEngine:
    """Dispatcher over the naive oracle, the component recursions, the
    contributing-set recursion, and the oscillation fast path."""

    def __init__(self):
        self.cache = MobiusCache()
        self.stats = {"theorem_calls": 0}

    # -- contributing-set table ---------------------------------------------

    def _candidate_list(self, ctx: DownsetContext) -> list[int]:
        """Build the table of ctx's upper bound into ctx's table slot and
        return the candidates of the upper bound's own row."""
        ctx.table = table = _Table(ctx)
        return table.top_row[0]

    def _table(self, pi: Permutation) -> tuple[DownsetContext, _Table]:
        """pi's downset context and pi's table, built on a miss."""
        ctx = _downset_ctx(pi)
        if ctx.table is None:
            self._candidate_list(ctx)
        return ctx, ctx.table

    def contributing_set(
        self, sigma: Permutation, pi: Permutation
    ) -> list[WeightedContribution]:
        """All sum-indecomposable alpha in [sigma, pi) with nonzero weight:
        pi's own row, filtered by sigma <= alpha."""
        ctx, table = self._table(pi)
        sidx = ctx.index.get(sigma.values)
        if sidx is None:
            return []
        above = ctx.above(sidx)
        return [
            WeightedContribution(ctx.members[b], r, w)
            for b, r, w in zip(*table.top_row)
            if above[b]
        ]

    def theorem_terms(
        self, sigma: Permutation, pi: Permutation
    ) -> list[tuple[WeightedContribution, int]]:
        """contributing_set(sigma, pi), each entry with mu(sigma, alpha)
        from the theorem's own solve."""
        terms = self.contributing_set(sigma, pi)
        if not terms:
            return []
        ctx, table = self._table(pi)
        index = ctx.index
        mu = table.solve(ctx, index[sigma.values])
        return [(wc, mu[index[wc.alpha.values]]) for wc in terms]

    # -- component recursions ---------------------------------------------

    def mobius_prop1(
        self, sigma: Permutation, pi: Permutation, engine: str = "auto"
    ) -> int:
        """Decomposable pi whose first component is 1: reduce by stripping
        the leading singleton run against sigma's leading singleton run."""
        if not sigma.values:
            raise PreconditionViolation("lower bound must be nonempty")
        dec_pi = sum_decompose(pi)
        if len(dec_pi.cuts) < 2 or dec_pi.cuts[0] != 1:
            raise PreconditionViolation(
                "upper bound must be decomposable with first component 1"
            )
        dec_sigma = sum_decompose(sigma)
        k = dec_pi.lead
        l = dec_sigma.lead if dec_sigma.cuts[0] == 1 else 0
        pi_tail = dec_pi.suffix(k)
        if k - 1 > l:
            return 0
        if k - 1 == l:
            return -self.mobius(dec_sigma.suffix(k - 1), pi_tail, engine)
        return self.mobius(dec_sigma.suffix(k), pi_tail, engine) - self.mobius(
            dec_sigma.suffix(k - 1), pi_tail, engine
        )

    def mobius_prop2(
        self, sigma: Permutation, pi: Permutation, engine: str = "auto"
    ) -> int:
        """Decomposable pi whose first component differs from 1: double sum
        over splits of sigma and strips of pi's leading repeated component."""
        dec_pi = sum_decompose(pi)
        if len(dec_pi.cuts) < 2 or dec_pi.cuts[0] == 1:
            raise PreconditionViolation(
                "upper bound must be decomposable with first component != 1"
            )
        head = dec_pi.components[0]
        k = dec_pi.lead
        dec_sigma = sum_decompose(sigma)
        hlen, slen, plen = len(head.values), len(sigma.values), len(pi.values)
        total = 0
        # A pattern longer than its upper bound has mu 0: the sigma prefixes
        # only grow, and the pi suffixes only shrink.
        for i, cut in enumerate(dec_sigma.cuts, start=1):
            if cut > hlen:
                break
            left = self.mobius(dec_sigma.prefix(i), head, engine)
            if left == 0:
                continue
            right_sigma = dec_sigma.suffix(i)
            for j in range(1, k + 1):
                if slen - cut > plen - dec_pi.cuts[j - 1]:
                    break
                total += left * self.mobius(right_sigma, dec_pi.suffix(j), engine)
        return total

    def mobius_cor3(
        self, sigma: Permutation, pi: Permutation, engine: str = "auto"
    ) -> int:
        """Sum-indecomposable sigma against a decomposable pi with repeated
        non-singleton head: nonzero only for head-power upper bounds."""
        if len(sum_decompose(sigma).cuts) != 1:
            raise PreconditionViolation("lower bound must be sum-indecomposable")
        dec_pi = sum_decompose(pi)
        if len(dec_pi.cuts) < 2 or dec_pi.cuts[0] == 1:
            raise PreconditionViolation(
                "upper bound must be decomposable with first component != 1"
            )
        comps = dec_pi.components
        rest = len(comps) - dec_pi.lead  # the components past the head's run
        if rest == 0:
            return self.mobius(sigma, comps[0], engine)
        if rest == 1 and comps[-1].values == (1,):
            return -self.mobius(sigma, comps[0], engine)
        return 0

    # -- contributing-set recursion ----------------------------------------

    def mobius_theorem(self, sigma: Permutation, pi: Permutation) -> int:
        """mu via the weighted contributing set, solved inside pi's one
        downset context: every alpha the recursion reaches is a member."""
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
        ctx, table = self._table(pi)
        sidx = ctx.index.get(sigma.values)
        return 0 if sidx is None else table.solve(ctx, sidx)[table.top]

    # -- dispatcher ---------------------------------------------------------

    def mobius(self, sigma: Permutation, pi: Permutation, engine: str = "auto") -> int:
        """mu(sigma, pi) on the named engine: every route and every
        sub-query of this query runs on it, and its values are cached under
        its own name."""
        if engine not in ENGINE_NAMES:
            raise PreconditionViolation(f"unknown engine {engine!r}")
        key = (sigma.values, pi.values, engine)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        route, target = _query_route(sigma, pi, engine)
        if route == "direct":
            return target
        if route == "naive":
            # The oracle's value stays in pi's context, which holds the column.
            return mobius_naive(sigma, pi)
        value = self._route(sigma, pi, engine, route, target)
        self.cache.put(key, value)
        return value

    def _route(
        self, sigma: Permutation, pi: Permutation, engine: str, route: str, target
    ) -> int:
        if route == "oscillation":
            return mobius_oscillation(sigma, target)
        if route == "complement":
            return self.mobius(complement(sigma), target, engine)
        if route == "prop1":
            return self.mobius_prop1(sigma, pi, engine)
        if route == "cor3":
            return self.mobius_cor3(sigma, pi, engine)
        if route == "prop2":
            return self.mobius_prop2(sigma, pi, engine)
        return self.mobius_theorem(sigma, pi)


def _direct_value(sigma: Permutation, pi: Permutation) -> Optional[int]:
    """mu(sigma, pi) by the matcher, once the value checks have passed: 0
    when sigma is not contained, -1 for a covering pair, and 0 for an
    identity pi (the chain rule, a length gap >= 2), else None.  Only
    --engine oscillation reaches the chain rule: on auto and general an
    identity pi is sum-decomposable and takes prop1."""
    if not contains(sigma, pi):
        return 0
    plen = len(pi.values)
    if plen - len(sigma.values) == 1:
        return -1
    if is_identity(pi):
        return 0
    return None


def _query_route(
    sigma: Permutation, pi: Permutation, engine: str
) -> tuple[str, object]:
    """The route rule: the route MobiusEngine.mobius(sigma, pi, engine)
    takes when its value cache does not answer, with the route's target:
    the value on the "direct" route, the upper bound as mobius_oscillation
    takes it on the "oscillation" route, and pi's complement on the
    "complement" route.

    After the checks on the values alone, every engine but naive and
    oscillation lets the route that answers the pair decide containment too.
    A sum-decomposable pi whose components all have contexts takes a
    component recursion (prop1, cor3 or prop2), whose sums of products
    vanish unless sigma embeds in pi; a longer component could be asked
    about a part of a sigma that is not contained, and would need its own
    context, so such a pi asks the matcher first.  On a sum-indecomposable
    pi, auto takes the fast path when the pair is an oscillation route
    (every shorter oscillation is contained, and the fast path answers
    covering pairs), and otherwise the oracle when pi's context cannot be
    refused (2^|pi| patterns at most): the context's index answers every
    sigma.  Past that, auto and general take the complement rule: complement
    keeps mu and swaps sum and skew sums, so a skew-decomposable pi (and,
    under general, a sum-decomposable sigma; under auto, a pair whose
    complement is an oscillation route, such as 1 below the reverse of W_n)
    is answered as mu(sigma^c, pi^c) on the same engine.  pi^c is then
    sum-decomposable, or an oscillation route, or both pi^c and sigma^c are
    sum-indecomposable, so the rule is not taken twice.  Every other query,
    and every query under --engine oscillation, asks the matcher first
    (_direct_value)."""
    if engine == "naive":
        return "naive", None
    if sigma.values == pi.values:
        return "direct", 1
    slen = len(sigma.values)
    plen = len(pi.values)
    if slen >= plen:
        return "direct", 0
    if slen == 0:
        return "direct", -1 if plen == 1 else 0
    dec = sum_decompose(pi)
    if engine != "oscillation":
        if len(dec.cuts) > 1:
            if _has_context(dec):
                return _component_route(sigma, dec)
        else:
            if engine == "auto":
                pi_id = _oscillation_route(sigma, dec)
                if pi_id is not None:
                    return "oscillation", pi_id
                if _has_context(dec):
                    return "naive", None
            pi_c = complement(pi)
            dec_c = sum_decompose(pi_c)
            if (
                len(dec_c.cuts) > 1
                or (engine == "general" and len(sum_decompose(sigma).cuts) > 1)
                or (
                    engine == "auto"
                    and _oscillation_route(complement(sigma), dec_c) is not None
                )
            ):
                return "complement", pi_c
    value = _direct_value(sigma, pi)
    if value is not None:
        return "direct", value
    if engine == "oscillation":
        return "oscillation", pi
    if len(dec.cuts) > 1:
        return _component_route(sigma, dec)
    # The theorem would build pi's context and a table on top of it; auto's
    # oracle reads the same context's column.
    return ("naive", None) if engine == "auto" else ("theorem", None)


def _has_context(dec: SumDecomposition) -> bool:
    """Whether no component of the decomposed permutation can have its
    downset context refused: a component of length k has at most 2^k
    patterns, and that is within poset.MAX_DOWNSET_MEMBERS for the longest
    (read on each call, as the bound may change)."""
    return 1 << dec.longest <= poset.MAX_DOWNSET_MEMBERS


def _component_route(sigma: Permutation, dec: SumDecomposition) -> tuple[str, None]:
    """The component recursion for a sum-decomposable pi (dec is pi's
    decomposition)."""
    if dec.cuts[0] == 1:
        return "prop1", None
    if len(sum_decompose(sigma).cuts) == 1:
        return "cor3", None
    return "prop2", None


def _oscillation_route(
    sigma: Permutation, dec: SumDecomposition
) -> Optional[OscillationId]:
    """The route rule of the oscillation fast path: pi's OscillationId when
    pi (dec is its decomposition, which keeps the id) is W_n / M_n with
    n >= 2 and sigma is 1 or an oscillation, else None."""
    pi_id = dec.oscillation
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

