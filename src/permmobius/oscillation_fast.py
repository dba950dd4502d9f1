"""Inequality-only Möbius evaluation for increasing-oscillation upper bounds.

Containment of shaped permutations inside an increasing oscillation is
governed by point-count inequalities alone.  Every shape with k 21-blocks
consumes q points per direct-sum copy (q = 3 for a bare 21 taken as a
direct-sum block, 2k+2 for uncapped/singly-capped chains, 2k+4 for a
doubly-capped chain), adjusted by a small per-(shape, upper-bound-class)
offset b, and each attached cap costs 2 more.  A copy budget of 2n points
is available, where n is the class parameter of the upper bound.

All minimum/maximum block counts, minimal copy counts and weights below are
closed-form consequences of those inequalities; no pattern matching is
performed on this path.  The oscillations themselves, their recognizer
(``oscillation_id``) and the table of the oscillation each shape's member
realizes (``SHAPE_MEMBERS``) belong to ``perms``; the chain table and the
own-shape table below are built from it.

mu(sigma, W_n / M_n) is filled, for every oscillation sigma, by one O(n log n)
divisor scan (``_divisor_scan``): a chain member with copy cost q has a
nonzero weight only when q divides t or t - 2, where t = 2n - b, so each
value costs one pass over the even divisors of two numbers.  Each sigma
keeps its values as one row of two lists indexed by n, mu(sigma, W_n) and
mu(sigma, M_n), which the scan extends in place.  A row keeps the plan
of its scan, built once when the row is made: the chain table and, for
each parity of n and kind, every offset, least copy cost and own-shape
flag the scan reads.  A query past a row's end is then the divisor scan
alone, and a query that a row answers runs no recognizer.  The principal
series mu(1, W_n) = mu(1, M_n) is the sigma = 1 instance of the same scan:
its row holds the one list ``_principal`` names (both kinds), and is made
again when that name is bound to another list.  A query for sigma = 1 runs
no recognizer either.

The scan has two forms with equal values.  An extension by fewer than
``_BLOCK_MIN`` (512) lengths takes the per-length form, which walks a
shared table of even-divisor lists one length at a time.  A longer one
takes the block form, which fills the lengths [L, 2L - 1) at once: the
terms of proper divisors q < v read only lengths below L and come from
int64 numpy slice sums, and the terms q = v are a fixed linear recurrence
in the shift z back by one length, solved by numpy prefix sums.  The sum
S = W + M and difference D = W - M of the two kinds satisfy
(1 - z)(1 + z)^3 S = -(far_W + far_M) and (1 - z)^2 (1 + z)^2 D =
-(far_W - far_M), each factor undone by one prefix sum; for sigma = 1,
x[n] + 2x[n-1] - 2x[n-3] - x[n-4] = -far[n].  A block stays on int64
only where its solution is provably exact, and is solved again on Python
ints otherwise.  Up to 301 lengths the two forms are within 1.5 ms of
each other; from 512 on the block form is 2.5-10 times faster (2-core Xeon),
and it builds no divisor table.  Values reaching ``_INT64_GUARD`` raise
Overflow on either form, before they are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional, Union

import numpy as np

from .errors import (
    _INT64_GUARD,
    InvalidShape,
    NotAnOscillation,
    NotContained,
    Overflow,
    PreconditionViolation,
    RangeError,
)
from .perms import (
    BOTH_CAPPED,
    LEFT_CAPPED,
    PLAIN,
    RIGHT_CAPPED,
    SHAPE_KINDS,
    SHAPE_MEMBERS,
    SINGLE21,
    OscillationId,
    Permutation,
    Shape,
    _shape_of,
    _store_int,
    oscillation,
    oscillation_id,
)

__all__ = [
    "PiClass",
    "pi_class_of",
    "min_points",
    "fits_in_pi",
    "raw_min_k",
    "max_k",
    "mobius_oscillation",
    "trace_oscillation",
    "principal_mu_series",
    "clear_oscillation_memo",
]

W_EVEN = "W_even"
W_ODD = "W_odd"
M_EVEN = "M_even"
M_ODD = "M_odd"

_PI_KINDS = (W_EVEN, W_ODD, M_EVEN, M_ODD)

_SENTINEL_K = 1 << 30


@dataclass(frozen=True)
class PiClass:
    """Parity class of an oscillation upper bound with its table parameter n
    (length 2n for the even kinds, 2n-1 for the odd kinds)."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _PI_KINDS:
            raise InvalidShape(f"unknown upper-bound class {self.kind!r}")
        n = _store_int(self, "n", "class parameter")
        if n < 1:
            raise InvalidShape(f"class parameter must be >= 1, got {n}")

    @property
    def length(self) -> int:
        return 2 * self.n if self.kind.endswith("even") else 2 * self.n - 1

    @property
    def budget(self) -> int:
        """Total points available for embeddings: always 2n."""
        return 2 * self.n

    @property
    def oscillation_id(self) -> OscillationId:
        return OscillationId(self.kind[0], self.length)


def _upper_class(kind: str, n: int) -> str:
    """The class of the upper bound kind_n."""
    if kind == "W":
        return W_EVEN if n % 2 == 0 else W_ODD
    return M_EVEN if n % 2 == 0 else M_ODD


def pi_class_of(id: OscillationId) -> PiClass:
    """The parity class of W_n / M_n."""
    return PiClass(_upper_class(id.kind, id.n), (id.n + 1) // 2)


# Chain shapes (every shape but the bare 21): the extra cost c of the copy
# cost q = 2k + c of the k-block member, and that member's oscillation kind
# and length offset from perms.SHAPE_MEMBERS (the member is kind_{q + offset}).
_CHAINS = {
    shape_kind: (cost, kind, extra - cost)
    for shape_kind, cost in ((PLAIN, 2), (LEFT_CAPPED, 2), (RIGHT_CAPPED, 2), (BOTH_CAPPED, 4))
    for kind, extra in [SHAPE_MEMBERS[shape_kind]]
}

# The chain shape of an upper bound of each class; its top member is the
# upper bound itself and is excluded from every sum.
_OWN_CHAIN = {
    _upper_class(kind, extra): shape_kind
    for shape_kind, (kind, extra) in SHAPE_MEMBERS.items()
    if shape_kind != SINGLE21
}


# Per-copy point cost of a shape as a direct-sum block.
def _copy_cost(kind: str, k: int) -> int:
    if kind == SINGLE21:
        return 3
    return 2 * k + _CHAINS[kind][0]


# Offset b of the containment inequality  q*r + b + 2*caps <= 2n,
# indexed by (shape kind, upper-bound class).  Omitted pairs have b = 0.
_B_OFFSET = {
    (SINGLE21, W_EVEN): -1,
    (SINGLE21, M_EVEN): -1,
    (PLAIN, W_EVEN): -2,
    (LEFT_CAPPED, W_ODD): 2,
    (RIGHT_CAPPED, M_ODD): 2,
    (BOTH_CAPPED, M_EVEN): -2,
}


def _offset(shape_kind: str, pi: PiClass) -> int:
    return _B_OFFSET.get((shape_kind, pi.kind), 0)


def min_points(shape: Shape, r: int, pi: PiClass) -> int:
    """Minimum number of points of the upper bound consumed by r uncapped
    direct-sum copies of the shape."""
    if r < 1:
        raise PreconditionViolation(f"copy count must be >= 1, got {r}")
    return _copy_cost(shape.kind, shape.k) * r + _offset(shape.kind, pi)


def fits_in_pi(
    shape: Shape,
    r: int,
    pi: PiClass,
    caps: tuple[bool, bool] = (False, False),
) -> bool:
    """Whether r copies of the shape, with the given leading/trailing caps
    attached, embed in the upper bound: min_points + 2*caps <= 2n."""
    return min_points(shape, r, pi) + 2 * sum(caps) <= pi.budget


# Smallest block count k for which a lower bound of the given parity class
# (parameter n) is contained in the shape's realization, per shape kind.
# _SENTINEL_K marks the always-false row (no k works).
def _raw_min_k_table(shape_kind: str, cls: str, n: int) -> int:
    if shape_kind == SINGLE21:
        return n if cls == W_EVEN else _SENTINEL_K
    if shape_kind == PLAIN:
        return n + 1 if cls == M_EVEN else n
    if shape_kind == LEFT_CAPPED:
        return n - 1 if cls == M_ODD else n
    if shape_kind == RIGHT_CAPPED:
        return n - 1 if cls == W_ODD else n
    if shape_kind == BOTH_CAPPED:
        return n if cls == W_EVEN else n - 1
    raise InvalidShape(f"unknown shape kind {shape_kind!r}")


def raw_min_k(
    sigma: Permutation, shape_kind: str, pi_length: Optional[int] = None
) -> int:
    """Table minimum of the block count k for sigma to embed in the shape;
    the always-false row returns a sentinel (pi_length when supplied) that
    empties any k-range it bounds."""
    if len(sigma.values) <= 1:
        raise PreconditionViolation("raw_min_k requires |sigma| > 1")
    cls = pi_class_of(_require_id(sigma))
    k = _raw_min_k_table(shape_kind, cls.kind, cls.n)
    if k >= _SENTINEL_K and pi_length is not None:
        return pi_length
    return k


def _lower_class(id: OscillationId) -> Optional[PiClass]:
    """The class of a lower bound (None for sigma = 1)."""
    return None if id.n == 1 else pi_class_of(id)


def _class_min_k(shape_kind: str, cls: Optional[PiClass]) -> int:
    """Smallest block count whose term can be nonzero in the shape sum, for
    a lower bound of class cls (None for sigma = 1)."""
    structural = 2 if shape_kind == PLAIN else 1
    if cls is None:
        return structural
    return max(_raw_min_k_table(shape_kind, cls.kind, cls.n), structural)


def max_k(shape_kind: str, pi: PiClass) -> int:
    """Largest block count embeddable at r = 1, reduced by one when the
    shape coincides with the upper bound's own shape (excluding the upper
    bound itself from the candidate list); never negative."""
    room = pi.budget - _offset(shape_kind, pi)
    if shape_kind == SINGLE21:
        k = 1 if _copy_cost(SINGLE21, 1) <= room else 0
    else:
        k = (room - _copy_cost(shape_kind, 0)) // 2
    own = _shape_of(pi.oscillation_id)
    if own is not None and own.kind == shape_kind:
        k -= 1
    return max(k, 0)


def _rank_and_weight(shape_kind: str, k: int, pi: PiClass) -> tuple[int, int]:
    """Minimal copy count r of the shape's k-block member (the least r >= 1
    whose doubly-capped family member no longer fits: q*r > 2n - b - 4) and
    its reported weight at that r: +1 when even the uncapped r copies no
    longer fit, -1 when r copies fit but r+1 do not, 0 otherwise."""
    q = _copy_cost(shape_kind, k)
    t = pi.budget - _offset(shape_kind, pi)
    r = max(1, (t - 4) // q + 1)
    if q * r > t:
        return r, 1
    if q * (r + 1) > t:
        return r, -1
    return r, 0


def _require_id(p: Union[OscillationId, Permutation]) -> OscillationId:
    """p's OscillationId; NotAnOscillation when p is no oscillation."""
    if isinstance(p, OscillationId):
        return p
    if not isinstance(p, Permutation):
        raise NotAnOscillation(f"cannot interpret {p!r} as an oscillation")
    id = oscillation_id(p)
    if id is None:
        raise NotAnOscillation(f"{p} is not an increasing oscillation")
    return id


class _Row(dict):
    """One lower bound's values by kind, row["W"][n] = mu(sigma, W_n) and
    row["M"][n] = mu(sigma, M_n), with the plan of the divisor scan that
    extends the two lists in place.  For sigma = 1 one list serves as both
    kinds, and the scan fills it as W.

    The plan is built once, from sigma's class cls (None for sigma = 1):
    - kinds: the kinds the scan fills ("WM", or "W" for sigma = 1);
    - chains: _chains(row, cls);
    - by_parity[n % 2]: one _kind_plan per filled kind;
    - settled: the length from which the block form sums every near term.
    It holds the row's lists themselves, so a list that is replaced rather
    than extended must be re-pointed here too.  It holds no divisor table:
    the shared one is replaced as it grows.
    """

    __slots__ = ("kinds", "chains", "by_parity", "settled")

    def __init__(self, w: list[int], m: list[int], cls: Optional[PiClass]) -> None:
        super().__init__(W=w, M=m)
        self.kinds = "W" if w is m else "WM"
        self.chains = _chains(self, cls)
        w21 = w[2] if _class_min_k(SINGLE21, cls) <= 1 else 0
        self.by_parity = tuple(
            tuple(
                self._kind_plan(kind, _upper_class(kind, parity), w21)
                for kind in self.kinds
            )
            for parity in (0, 1)
        )
        # Every near term is summed from this length on: the chain term of
        # copy cost v = t - shift (shift 0 or 2, t = n + n % 2 - b) once
        # v >= q_min.
        self.settled = max(
            q_min + b + 2 - parity
            for parity in (0, 1)
            for _, _, _, chains in self.by_parity[parity]
            for _, _, q_min, b, _ in chains
        )

    def _kind_plan(self, kind: str, pi_kind: str, w21: int) -> tuple:
        """(kind, its list, the bare-21 term by budget mod 3, and per chain
        shape (member list, length offset, least summed copy cost q_min,
        offset b, whether it is the upper bound's own shape)) for the upper
        bounds kind_n of class pi_kind; w21 = mu(sigma, 21) when the bare 21
        is summed, else 0."""
        # The bare 21 (q = 3) weighs +1 when 3 divides t - 4, where
        # t = budget - b, and -1 when 3 divides t - 5.
        b21 = _B_OFFSET.get((SINGLE21, pi_kind), 0)
        bare21 = tuple((w21, -w21, 0)[(budget - b21 - 4) % 3] for budget in range(3))
        chains = tuple(
            (
                member,
                offset,
                q_min,
                _B_OFFSET.get((shape_kind, pi_kind), 0),
                shape_kind == _OWN_CHAIN[pi_kind],
            )
            for shape_kind, member, offset, q_min in self.chains
        )
        return kind, self[kind], bare21, chains


# Each oscillation lower bound sigma's row, keyed by sigma's values, made
# with its scan plan when sigma is first queried at a length the scan
# fills.  Slots below |sigma| + 2 are placeholders for the scan and never
# answer a query; from there on a row answers, and extends itself, with no
# recognizer.  The row of sigma = 1 holds the principal series, which
# queries read through _principal.
_lower_rows: dict[tuple[int, ...], _Row] = {}


def clear_oscillation_memo() -> None:
    """Drop every lower bound's row and release the even-divisor table (it
    is rebuilt on the next scan); the principal series is kept."""
    global _divisors
    _lower_rows.clear()
    _divisors = []


def _sigma_leq_osc(sigma: OscillationId, id: OscillationId) -> bool:
    """Containment of one oscillation in another: every strictly shorter
    oscillation embeds; equal length requires equality (W_1 = M_1 and
    W_2 = M_2)."""
    if sigma.n != id.n:
        return sigma.n < id.n
    return sigma.n <= 2 or sigma.kind == id.kind


def _fill_memo(row: _Row, up_to: int) -> _Row:
    """row, extended in place for both kinds up to length up_to by one
    divisor scan with its kept plan.

    On Overflow both lists are cut back to their common prefix, every value
    of which passed the guard, so the row stays of equal lengths.
    """
    try:
        _divisor_scan(row, up_to)
    except Overflow:
        exact = min(map(len, row.values()))
        for values in row.values():
            del values[exact:]
        raise
    return row


# An extension of at least this many lengths takes the block form of the
# divisor scan, a shorter one the per-length form.  Measured on a 2-core
# Xeon, per-length against block form, from the first missing length:
# sigma = 1 to 128 / 301 / 512 / 4,096 takes 0.5 / 1.4 / 2.5 / 22 ms
# against 0.6 / 0.8 / 0.9 / 2.2 ms, and sigma = M_8 to the same lengths
# 0.9 / 2.5 / 4.9 / 46 ms against 0.8 / 1.2 / 1.7 / 6.4 ms.  The forms are
# within 1.5 ms of each other up to 301 lengths, so one-length memo fills
# and a cold mu(1, W_301) keep the per-length form; from 512 on the block
# form is 2.5-10 times faster.  A short extension far past the divisor table
# takes the block form too: one length after a fill to 400,000 takes 0.56 s
# and 117 MB on the per-length form, which builds the table to 400,006
# lists, and 0.02 s with no new table on the block form.
_BLOCK_MIN = 512

_OVERFLOW = "oscillation Möbius value exceeds the 64-bit guard"


def _divisor_scan(row: _Row, up_to: int) -> None:
    """Extend row[kind] = [mu(sigma, kind_0), mu(sigma, kind_1), ...] in
    place for each kind the row fills up to length up_to, by its plan.

    For a chain shape the copy cost q = 2k + c is even, and so is t = 2n - b.
    With r the least copy count with q*r > t - 4, a member's signed weight
    is +1 when q*r lies in (t - 2, t] and -1 when it lies in (t - 4, t - 2];
    as q >= 4, that is: +1 when q divides t, -1 when q divides t - 2.  The
    summed members are those with q >= 2 * _class_min_k(kind, cls) + c, except the
    upper bound's own member (q = t in its own shape).  The bare 21 has
    q = 3 and is resolved by (t - 4) mod 3.

    The scan has two forms with equal values.  An extension of fewer than
    _BLOCK_MIN lengths takes the per-length form (_scan_lengths), which
    walks the even-divisor lists of t and t - 2 for one length at a time,
    as long as the shared table of those lists need at most double to
    reach them.  Any other extension takes the block form (_scan_block)
    past a per-length head of the first few lengths, where not every near
    term is summed yet: it splits the terms into far ones (q < v, so
    q <= v / 2, reading only lengths below the block) and near ones
    (q = v), so that a block of lengths [L, 2L - 1) takes all its far terms
    by numpy slice sums and solves the near terms, a fixed linear
    recurrence (_NEAR_OWN, _NEAR_CROSS), by numpy prefix sums.
    """
    filled = row[row.kinds[0]]
    if up_to + 1 - len(filled) < _BLOCK_MIN and up_to + 4 < 2 * max(
        len(_divisors), _BLOCK_MIN
    ):
        _scan_lengths(row, up_to)
        return
    _scan_lengths(row, min(row.settled, up_to + 1) - 1)
    while len(filled) <= up_to:
        _scan_block(row, up_to)


def _chains(values: dict[str, list[int]], cls: Optional[PiClass]) -> list:
    """(shape kind, member values, length offset, least summed copy cost)
    for every chain shape, for a lower bound of class cls."""
    return [
        (shape_kind, values[kind], offset, 2 * _class_min_k(shape_kind, cls) + extra)
        for shape_kind, (extra, kind, offset) in _CHAINS.items()
    ]


def _scan_lengths(row: _Row, up_to: int) -> None:
    """The per-length form of _divisor_scan: every term of one length from
    the even-divisor lists of t and t - 2 (_divisors_to).  A summed t is
    even and at least 4, so it is the last entry of its own list."""
    start = len(row[row.kinds[0]])
    if start > up_to:
        return
    divs = _divisors_to(up_to + 4)
    for n in range(start, up_to + 1):
        budget = n + n % 2
        for _, out, bare21, chains in row.by_parity[n % 2]:
            total = bare21[budget % 3]
            for member, offset, q_min, b, own in chains:
                t = budget - b
                if t < q_min:
                    continue
                for q in divs[t][:-1] if own else divs[t]:
                    if q >= q_min:
                        total += member[q + offset]
                if t - 2 >= q_min:
                    for q in divs[t - 2]:
                        if q >= q_min:
                            total -= member[q + offset]
            if abs(total) >= _INT64_GUARD:
                raise Overflow(_OVERFLOW)
            out.append(-total)


# The near terms (q = v) of the block form, as the coefficients of
# z^0 .. z^4, where z is a shift back by one length.  From the settled
# length on, for every lower bound and both parities,
#     _NEAR_OWN(z) W + _NEAR_CROSS(z) M = -far_W,
# and the same with W and M swapped.  Their sum S = W + M and difference
# D = W - M each take one product of (1 - z) and (1 + z) factors:
#     (1 - z)(1 + z)^3 S = -(far_W + far_M)     (_NEAR_SUM, as counts)
#     (1 - z)^2 (1 + z)^2 D = -(far_W - far_M)  (_NEAR_DIFF)
# For sigma = 1, W = M = x and x[n] + 2 x[n-1] - 2 x[n-3] - x[n-4] = -far[n].
_NEAR_OWN = (1, 1, -1, -1, 0)
_NEAR_CROSS = (0, 1, 1, -1, -1)
_NEAR_SUM = (1, 3)
_NEAR_DIFF = (2, 2)

# The block form keeps its near solve on int64 only while every value of
# the block and the four before it stays below this magnitude; see _exact.
_INT64_EXACT = 1 << 58


def _scan_block(row: _Row, up_to: int) -> None:
    """The block form of _divisor_scan: the lengths [lo, hi), where lo is
    the first missing length and hi = min(2 lo - 1, up_to + 1).

    The far terms come from _far_terms.  The near terms are then solved
    for the whole block by prefix sums (_solve_near): on int64 when the
    solution is provably exact (_exact), otherwise again on Python ints.
    Each kind's values are stored up to the first that reaches the guard,
    which raises Overflow.  For sigma = 1 that is what the per-length form
    stores; _fill_memo cuts sigma's two lists back to their common prefix.
    """
    kinds = row.kinds
    lo = len(row[kinds[0]])
    hi = min(2 * lo - 1, up_to + 1)
    fars = _far_terms(row, lo, hi)
    heads = [x for kind in kinds for x in row[kind][lo - 4 : lo]]
    on_int64 = fars[kinds[0]].dtype == np.int64 and max(map(abs, heads)) < _INT64_EXACT
    solved = _solve_near(row, kinds, lo, fars) if on_int64 else None
    if solved is None or not _exact(solved, kinds, fars):
        fars = {kind: far.astype(object) for kind, far in fars.items()}
        solved = _solve_near(row, kinds, lo, fars)
    for kind in kinds:
        block = solved[kind][4:]
        stored = _first_past_guard(block)
        row[kind].extend(block[:stored].tolist())
        if stored < len(block):
            raise Overflow(_OVERFLOW)


def _far_terms(row: _Row, lo: int, hi: int) -> dict[str, np.ndarray]:
    """far[kind][n - lo] for the lengths lo <= n < hi: every term but the
    near ones, as one array per kind.

    A far term has v <= t <= n + 3 and q <= v / 2, so its member's length
    q + offset <= (n + 1) / 2 lies below lo: all of them come from the
    stored values, as int64 slice sums (_divisor_sums).  Those sums are
    bounded before they are taken: one far value adds at most
    2 tau(v) <= 4 (isqrt(v) + 1) values per chain and the bare 21, each no
    larger than the largest stored one, and when that bound reaches the
    guard the sums are taken over Python ints instead.
    """
    v_lo, v_hi = lo - 4, hi + 2  # every t - 2 and t of the block (|b| <= 2)
    root = isqrt(v_hi)
    lists = {id(member): member for _, member, _, _ in row.chains}
    arrays = {key: np.array(member[:lo], dtype=np.int64) for key, member in lists.items()}
    peak = max(int(np.abs(array).max()) for array in arrays.values())
    dtype = np.int64
    if peak * (4 * (root + 1) * len(row.chains) + 1) >= _INT64_GUARD:
        dtype = object
        arrays = {key: array.astype(object) for key, array in arrays.items()}
    sums = {}
    for _, member, offset, q_min in row.chains:
        key = (id(member), offset, q_min)
        if key not in sums:
            sums[key] = _divisor_sums(arrays[id(member)], offset, q_min, v_lo, v_hi, root)
    fars = {kind: np.zeros(hi - lo, dtype=dtype) for kind in row.kinds}
    for parity, entries in enumerate(row.by_parity):
        first = lo + (parity - lo) % 2
        for kind, _, bare21, chains in entries:
            part = fars[kind][first - lo :: 2]
            count = len(part)
            for member, offset, q_min, b, _ in chains:
                f = sums[(id(member), offset, q_min)]
                t = first + parity - b - v_lo
                part += f[t : t + 2 * count : 2]
                part -= f[t - 2 : t - 2 + 2 * count : 2]
            if any(bare21):
                budgets = np.arange(first, hi, 2) + parity
                part += np.array(bare21, dtype=dtype)[budgets % 3]
    return fars


def _solve_near(values, kinds, lo, fars) -> dict[str, np.ndarray]:
    """W and M on the lengths [lo - 4, hi) from the near system, given the
    far terms of [lo, hi) and the stored values below lo, in the far
    terms' dtype.  With one kind (sigma = 1) W and M are one list, x."""
    if len(kinds) == 1:
        x = _undo(-fars[kinds[0]], values[kinds[0]][lo - 4 : lo], *_NEAR_SUM)
        return {"W": x, "M": x}
    w, m = values["W"][lo - 4 : lo], values["M"][lo - 4 : lo]
    s = _undo(-(fars["W"] + fars["M"]), [a + b for a, b in zip(w, m)], *_NEAR_SUM)
    d = _undo(fars["M"] - fars["W"], [a - b for a, b in zip(w, m)], *_NEAR_DIFF)
    s += d
    s //= 2  # W = (S + D) / 2, an exact division
    np.subtract(s, d, out=d)  # M = W - D
    return {"W": s, "M": d}


def _undo(rhs, head, minus, plus) -> np.ndarray:
    """x[lo - 4 : hi] with (1 - z)^minus (1 + z)^plus x = rhs on [lo, hi),
    given head = x[lo - 4 : lo] (minus + plus = 4).

    The four head values with zeros before them give the left side on
    [lo - 4, lo); from those and rhs each factor is undone, from zero
    history, by one prefix sum in place: a plain one for (1 - z), an
    alternating-sign one for (1 + z).
    """
    start = list(head)
    for sign in (1,) * minus + (-1,) * plus:
        start = start[:1] + [a - sign * b for a, b in zip(start[1:], start)]
    x = np.empty(len(rhs) + 4, dtype=rhs.dtype)
    x[:4] = start
    x[4:] = rhs
    x[1::2] *= -1
    for _ in range(plus):
        np.cumsum(x, out=x)
    x[1::2] *= -1
    for _ in range(minus):
        np.cumsum(x, out=x)
    return x


def _exact(solved, kinds, fars) -> bool:
    """Whether an int64 near solve is exact.

    The prefix sums are exact modulo 2^64 and the halving of S + D modulo
    2^63.  When every value is below _INT64_EXACT = 2^58 in magnitude, each
    residual of the near system is eight such values plus a far sum below
    the guard 2^62, below 2^63, so a zero int64 residual is zero exactly;
    the system with the stored head has one solution, so it is this one.
    """
    for kind in kinds:
        x = solved[kind]
        if not (x.max() < _INT64_EXACT and x.min() > -_INT64_EXACT):
            return False
    for kind in kinds:
        other = "M" if kind == "W" else "W"
        residual = np.convolve(solved[kind], _NEAR_OWN, "valid")
        residual += np.convolve(solved[other], _NEAR_CROSS, "valid")
        residual += fars[kind]
        if residual.any():
            return False
    return True


def _first_past_guard(x: np.ndarray) -> int:
    """The index of the first value of x at or past the guard, or len(x)."""
    if x.max() < _INT64_GUARD and x.min() > -_INT64_GUARD:
        return len(x)
    return int(np.flatnonzero(np.abs(x) >= _INT64_GUARD)[0])


def _divisor_sums(member, offset, q_min, v_lo, v_hi, root):
    """f[v - v_lo] = sum of member[q + offset] over the even divisors q of v
    with q_min <= q < v, for v_lo <= v <= v_hi (root = isqrt(v_hi)).

    Each divisor pair q * d = v (d >= 2) is taken once: one slice of f per
    q <= root, and one per cofactor d < v_hi / root for the q > root.
    """
    f = np.zeros(v_hi - v_lo + 1, dtype=member.dtype)
    for q in range(q_min, root + 1, 2):
        first = max(2 * q, -(-v_lo // q) * q)
        f[first - v_lo :: q] += member[q + offset]
    q_big = max(q_min, root + 1 + (root + 1) % 2)
    for d in range(2, v_hi // q_big + 1):
        q_first = max(q_big, -(-v_lo // d))
        q_first += q_first % 2
        q_last = v_hi // d
        q_last -= q_last % 2
        if q_first <= q_last:
            f[d * q_first - v_lo : d * q_last - v_lo + 1 : 2 * d] += member[
                q_first + offset : q_last + offset + 1 : 2
            ]
    return f


def mobius_oscillation(
    sigma: Permutation, pi: Union[OscillationId, Permutation]
) -> int:
    """mu(sigma, pi) for an increasing-oscillation upper bound, computed
    purely from the containment inequalities."""
    id = _require_id(pi)
    if len(sigma) == 1:
        return _principal_value(id.n)  # 1 is contained in every oscillation
    row = _lower_rows.get(sigma.values)
    if row is not None and id.n >= len(sigma) + 2:
        # Only oscillation lower bounds have a row, and each is contained
        # in every longer oscillation, so the row answers unchecked.
        values = row[id.kind]
        if id.n >= len(values):
            _fill_memo(row, id.n)
        return values[id.n]
    sigma_id = oscillation_id(sigma)
    if sigma_id is None:
        raise NotAnOscillation(
            f"{sigma} is not a sum-indecomposable increasing oscillation"
        )
    if not _sigma_leq_osc(sigma_id, id):
        raise NotContained(f"{sigma} is not contained in the upper bound")
    gap = id.n - sigma_id.n
    if gap < 2:
        return -1 if gap else 1
    # A summed member of sigma's own length contains sigma (it passes the
    # block-count threshold), so it is sigma and its value is 1.
    head = [0] * len(sigma) + [1, -1]
    row = _Row(head, list(head), pi_class_of(sigma_id))
    _lower_rows[sigma.values] = row
    return _fill_memo(row, id.n)[id.kind][id.n]


def trace_oscillation(
    sigma: Permutation, pi: Union[OscillationId, Permutation]
) -> list[str]:
    """Human-readable evaluation tables: the per-shape block-count ranges,
    then one line per candidate member with its r, reported weight and
    Möbius value."""
    pic = pi_class_of(_require_id(pi))
    sigma_id = _require_id(sigma)
    cls = _lower_class(sigma_id)
    lines: list[str] = []
    rows: list[str] = []
    for shape_kind in SHAPE_KINDS:
        lo = _class_min_k(shape_kind, cls)
        hi = max_k(shape_kind, pi=pic)
        # The bare-21 range is printed from 1: when sigma is neither 1 nor
        # 21 its lone term is annihilated by mu(sigma, 21) = 0, so the
        # printed range is harmless.
        shown = 1 if shape_kind == SINGLE21 else lo
        lines.append(f"shape={shape_kind} min_k={shown} max_k={hi}")
        emitted = False
        for k in range(lo, hi + 1):
            member = Shape(shape_kind, k).member
            if not _sigma_leq_osc(sigma_id, member):
                continue
            r, w = _rank_and_weight(shape_kind, k, pic)
            mu = mobius_oscillation(sigma, member)
            rows.append(f"alpha={oscillation(member)} r={r} weight={w} mu={mu}")
            emitted = True
        if not emitted:
            if shape_kind == SINGLE21:
                rows.append("alpha=2 1 no possibilities")
            else:
                rows.append(f"shape={shape_kind} no possibilities")
    return lines + rows


# ---------------------------------------------------------------------------
# Principal series: mu(1, W_n) = mu(1, M_n) at scale
# ---------------------------------------------------------------------------

_principal: list[int] = [0, 1, -1, 1]


def _even_divisor_lists(limit: int) -> list[tuple[int, ...]]:
    """divs[v]: the even divisors q >= 4 of v, ascending, for v <= limit.
    The table is kept, so each list is an exact-size tuple and every odd v
    shares the empty one."""
    half: list[list[int]] = [[] for _ in range(limit // 2 + 1)]
    for q in range(4, limit + 1, 2):
        for v in range(q // 2, limit // 2 + 1, q // 2):
            half[v].append(q)
    divs: list[tuple[int, ...]] = [()] * (limit + 1)
    divs[::2] = map(tuple, half)
    return divs


# The even-divisor lists shared by every scan.  The list of v does not
# depend on the table's limit, so the table only grows, at least doubling
# each time, and a run of ascending queries rebuilds it O(log n) times.
_divisors: list[tuple[int, ...]] = []


def _divisors_to(limit: int) -> list[tuple[int, ...]]:
    """The shared even-divisor table, grown to cover v <= limit."""
    global _divisors
    if len(_divisors) <= limit:
        _divisors = _even_divisor_lists(max(limit, 2 * len(_divisors)))
    return _divisors


def _extend_principal(n_max: int) -> None:
    """Fill the principal series up to length n_max by the divisor scan;
    mu(1, W_n) = mu(1, M_n), so one array serves as both kinds.

    The series' row is kept in _lower_rows under sigma = 1, and is made
    again whenever _principal names another list than the one it holds.
    """
    mu = _principal
    if n_max < len(mu):
        return
    row = _lower_rows.get((1,))
    if row is None or row["W"] is not mu:
        row = _lower_rows[(1,)] = _Row(mu, mu, None)
    _divisor_scan(row, n_max)


def _principal_value(length: int) -> int:
    if length >= len(_principal):
        _extend_principal(length)
    return _principal[length]


def principal_mu_series(n_max: int) -> list[int]:
    """mu(1, W_n) (equal to mu(1, M_n)) for n = 0..n_max; index 0 is unused.

    The fill is iterative and shares the module-level series, so ascending
    and out-of-order callers observe identical values.
    """
    if n_max < 1:
        raise RangeError(f"series length must be >= 1, got {n_max}")
    _extend_principal(n_max)
    return list(_principal[: n_max + 1])
