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
performed on this path.

mu(sigma, W_n / M_n) is filled, for every oscillation sigma, by one O(n log n)
divisor scan (``_divisor_scan``): a chain member with copy cost q has a
nonzero weight only when q divides t or t - 2, where t = 2n - b, so each
value costs one pass over the even divisors of two numbers.  The principal
series mu(1, W_n) = mu(1, M_n) is the sigma = 1 instance of the same scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
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
    SINGLE21,
    OscillationId,
    Permutation,
    Shape,
    classify_oscillation,
    realize_shape,
)

__all__ = [
    "PiClass",
    "pi_class_of",
    "shape_of_pi",
    "min_points",
    "fits_in_pi",
    "raw_min_k",
    "min_k",
    "max_k",
    "min_r_osc",
    "weight_osc",
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

_INT64_GUARD = 1 << 62


@dataclass(frozen=True)
class PiClass:
    """Parity class of an oscillation upper bound with its table parameter n
    (length 2n for the even kinds, 2n-1 for the odd kinds)."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _PI_KINDS:
            raise InvalidShape(f"unknown upper-bound class {self.kind!r}")
        if self.n < 1:
            raise InvalidShape(f"class parameter must be >= 1, got {self.n}")

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


def pi_class_of(id: OscillationId) -> PiClass:
    """The parity class of W_n / M_n."""
    if id.n % 2 == 0:
        kind = W_EVEN if id.kind == "W" else M_EVEN
        return PiClass(kind, id.n // 2)
    kind = W_ODD if id.kind == "W" else M_ODD
    return PiClass(kind, (id.n + 1) // 2)


# Chain shapes (every shape but the bare 21): the extra cost c of the copy
# cost q = 2k + c of the k-block member, and that member's oscillation kind
# and length offset (the member is kind_{q + offset}).
_CHAINS = {
    PLAIN: (2, "W", -2),
    LEFT_CAPPED: (2, "M", -1),
    RIGHT_CAPPED: (2, "W", -1),
    BOTH_CAPPED: (4, "M", -2),
}

# The chain shape of an upper bound of each class; its top member is the
# upper bound itself and is excluded from every sum.
_OWN_CHAIN = {W_EVEN: PLAIN, W_ODD: RIGHT_CAPPED, M_EVEN: BOTH_CAPPED, M_ODD: LEFT_CAPPED}


def shape_of_pi(pi: PiClass) -> Optional[Shape]:
    """The Shape realizing the upper bound (None for length 1)."""
    if pi.length == 1:
        return None
    if pi.length == 2:
        return Shape(SINGLE21)
    kind = _OWN_CHAIN[pi.kind]
    return Shape(kind, pi.n if kind == PLAIN else pi.n - 1)


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


def _structural_min_k(shape_kind: str) -> int:
    return 2 if shape_kind == PLAIN else 1


def min_k(sigma: Permutation, shape_kind: str) -> int:
    """Lower end of the block-count range for the shape.

    For a chain shape this is the smallest block count whose term can be
    nonzero (``_engine_min_k``).  For the bare-21 shape the range is
    reported from 1: when sigma is neither 1 nor 21 the lone term is
    annihilated by mu(sigma, 21) = 0, so the printed range is harmless.
    """
    if shape_kind not in SHAPE_KINDS:
        raise InvalidShape(f"unknown shape kind {shape_kind!r}")
    if shape_kind == SINGLE21:
        return 1
    return _engine_min_k(sigma, shape_kind)


def _lower_class(id: OscillationId) -> Optional[PiClass]:
    """The class of a lower bound (None for sigma = 1)."""
    return None if id.n == 1 else pi_class_of(id)


def _class_min_k(shape_kind: str, cls: Optional[PiClass]) -> int:
    """_engine_min_k for a lower bound of class cls (None for sigma = 1)."""
    structural = _structural_min_k(shape_kind)
    if cls is None:
        return structural
    return max(_raw_min_k_table(shape_kind, cls.kind, cls.n), structural)


def _engine_min_k(sigma: Permutation, shape_kind: str) -> int:
    """Smallest block count whose term can be nonzero in the shape sum."""
    return _class_min_k(shape_kind, _lower_class(_require_id(sigma)))


def max_k(shape_kind: str, pi: PiClass) -> int:
    """Largest block count embeddable at r = 1, reduced by one when the
    shape coincides with the upper bound's own shape (excluding the upper
    bound itself from the candidate list); never negative."""
    b = _offset(shape_kind, pi)
    budget = pi.budget
    if shape_kind == SINGLE21:
        k = 1 if 3 + b <= budget else 0
    elif shape_kind == BOTH_CAPPED:
        k = (budget - b - 4) // 2
    else:
        k = (budget - b - 2) // 2
    pi_shape = shape_of_pi(pi)
    if pi_shape is not None and pi_shape.kind == shape_kind:
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


def min_r_osc(shape_kind: str, k: int, pi: PiClass) -> int:
    """Smallest copy count r whose doubly-capped family member no longer
    fits, solved in closed form."""
    return _rank_and_weight(shape_kind, k, pi)[0]


def weight_osc(sigma: Permutation, shape_kind: str, k: int, pi: PiClass) -> int:
    """Reported weight of the shape's k-block member, at r = min_r_osc."""
    if not (min_k(sigma, shape_kind) <= k <= max_k(shape_kind, pi)):
        raise PreconditionViolation(
            f"block count {k} outside [{min_k(sigma, shape_kind)}, "
            f"{max_k(shape_kind, pi)}] for {shape_kind}"
        )
    return _rank_and_weight(shape_kind, k, pi)[1]


# Oscillation realized by a shape's k-block member.
def _shape_member_id(shape_kind: str, k: int) -> OscillationId:
    if shape_kind == SINGLE21:
        return OscillationId("W", 2)
    extra, kind, offset = _CHAINS[shape_kind]
    return OscillationId(kind, 2 * k + extra + offset)


def oscillation_id(p: Permutation) -> Optional[OscillationId]:
    """Which oscillation p is (W for |p| <= 2), or None when p is none."""
    if len(p.values) == 1:
        return OscillationId("W", 1)
    shape = classify_oscillation(p)
    return None if shape is None else _shape_member_id(shape.kind, shape.k)


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


_memo: dict[tuple[tuple[int, ...], str, int], int] = {}


def clear_oscillation_memo() -> None:
    """Drop the memo and release the even-divisor table (it is rebuilt on
    the next scan); the principal series is kept."""
    global _divisors
    _memo.clear()
    _divisors = []


def _sigma_leq_osc(sigma: OscillationId, id: OscillationId) -> bool:
    """Containment of one oscillation in another: every strictly shorter
    oscillation embeds; equal length requires equality (W_1 = M_1 and
    W_2 = M_2)."""
    if sigma.n != id.n:
        return sigma.n < id.n
    return sigma.n <= 2 or sigma.kind == id.kind


def _fill_memo(sigma: Permutation, cls: PiClass, up_to: int) -> None:
    """Populate the memo for both kinds at every missing length up to up_to,
    shortest first, by one divisor scan; cls is sigma's class.

    The memo holds, for each sigma, both kinds at every length from
    |sigma| + 2 up to some length, so only the lengths above the longest
    one present are computed.
    """
    skey = sigma.values
    slen = len(sigma.values)
    done = up_to
    while done > slen + 1 and (skey, "M", done) not in _memo:
        done -= 1
    if done == up_to:
        return
    # A summed member of sigma's own length contains sigma (it passes the
    # block-count threshold), so it is sigma and its value is 1.
    values = {
        kind: [0] * slen
        + [1, -1]
        + [_memo[(skey, kind, n)] for n in range(slen + 2, done + 1)]
        for kind in "WM"
    }
    _divisor_scan(values, "WM", up_to, cls, _divisors_to(up_to + 4))
    for n in range(done + 1, up_to + 1):
        for kind in "WM":
            _memo[(skey, kind, n)] = values[kind][n]


def _divisor_scan(
    values: dict[str, list[int]],
    kinds: str,
    up_to: int,
    cls: Optional[PiClass],
    divs: list[tuple[int, ...]],
) -> None:
    """Extend values[kind] = [mu(sigma, kind_0), mu(sigma, kind_1), ...] for
    each of the given kinds up to length up_to, where sigma is the lower
    bound of class cls (None for sigma = 1) and divs holds the even-divisor
    lists of every v <= up_to + 4 (_divisors_to).

    For a chain shape the copy cost q = 2k + c is even, and so is t = 2n - b.
    With r the least copy count with q*r > t - 4, a member's signed weight
    is +1 when q*r lies in (t - 2, t] and -1 when it lies in (t - 4, t - 2];
    as q >= 4, that is: +1 when q divides t, -1 when q divides t - 2.  The
    summed members are those with q >= 2 * _engine_min_k + c, except the
    upper bound's own member (q = t in its own shape).  The bare 21 has
    q = 3 and is resolved by (t - 4) mod 3.
    """
    with_21 = _class_min_k(SINGLE21, cls) <= 1
    chains = [
        (shape_kind, values[kind], offset, 2 * _class_min_k(shape_kind, cls) + extra)
        for shape_kind, (extra, kind, offset) in _CHAINS.items()
    ]
    single21 = values["W"]
    for n in range(len(values[kinds[0]]), up_to + 1):
        even = n % 2 == 0
        budget = n if even else n + 1
        for kind in kinds:
            if kind == "W":
                pi_kind = W_EVEN if even else W_ODD
            else:
                pi_kind = M_EVEN if even else M_ODD
            own_shape = _OWN_CHAIN[pi_kind]
            total = 0
            if with_21:
                s = (budget - _B_OFFSET.get((SINGLE21, pi_kind), 0) - 4) % 3
                if s == 0:
                    total += single21[2]
                elif s == 1:
                    total -= single21[2]
            for shape_kind, member, offset, q_min in chains:
                t = budget - _B_OFFSET.get((shape_kind, pi_kind), 0)
                for val, sign in ((t, 1), (t - 2, -1)):
                    if val < q_min:
                        continue
                    for q in divs[val]:
                        if q >= q_min and (q != t or shape_kind != own_shape):
                            total += sign * member[q + offset]
            if abs(total) >= _INT64_GUARD:
                raise Overflow("oscillation Möbius value exceeds the 64-bit guard")
            values[kind].append(-total)


def mobius_oscillation(
    sigma: Permutation, pi: Union[OscillationId, Permutation]
) -> int:
    """mu(sigma, pi) for an increasing-oscillation upper bound, computed
    purely from the containment inequalities."""
    id = _require_id(pi)
    # Only oscillation lower bounds enter the memo, so a hit is valid.
    value = _memo.get((sigma.values, id.kind, id.n))
    if value is not None:
        return value
    sigma_id = oscillation_id(sigma)
    if sigma_id is None:
        raise NotAnOscillation(
            f"{sigma} is not a sum-indecomposable increasing oscillation"
        )
    if not _sigma_leq_osc(sigma_id, id):
        raise NotContained(f"{sigma} is not contained in the upper bound")
    if sigma_id.n == 1:
        return _principal_value(id.n)
    gap = id.n - sigma_id.n
    if gap < 2:
        return -1 if gap else 1
    _fill_memo(sigma, pi_class_of(sigma_id), id.n)
    return _memo[(sigma.values, id.kind, id.n)]


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
        # As in min_k, the bare-21 range is printed from 1.
        shown = 1 if shape_kind == SINGLE21 else lo
        lines.append(f"shape={shape_kind} min_k={shown} max_k={hi}")
        emitted = False
        for k in range(lo, hi + 1):
            member = _shape_member_id(shape_kind, k)
            if not _sigma_leq_osc(sigma_id, member):
                continue
            r, w = _rank_and_weight(shape_kind, k, pic)
            mu = mobius_oscillation(sigma, member)
            alpha = realize_shape(Shape(shape_kind, k))
            rows.append(f"alpha={alpha} r={r} weight={w} mu={mu}")
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
    mu(1, W_n) = mu(1, M_n), so one array serves as both kinds."""
    mu = _principal
    if n_max < len(mu):
        return
    _divisor_scan({"W": mu, "M": mu}, "W", n_max, None, _divisors_to(n_max + 4))


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
