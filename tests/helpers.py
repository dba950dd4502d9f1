"""Independent reference implementations used to validate the package.

Everything here works on plain value tuples and deliberately avoids the
package's own containment matcher, downset enumeration, and Möbius engines,
so that agreement between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations


def standardize_ref(vals: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel arbitrary distinct numbers to 1..n preserving order pattern."""
    order = sorted(vals)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return tuple(rank[v] for v in vals)


def contains_ref(sigma: tuple[int, ...], pi: tuple[int, ...]) -> bool:
    """Pattern containment by exhaustive subsequence search."""
    k, n = len(sigma), len(pi)
    if k > n:
        return False
    if k == 0:
        return True
    for pos in combinations(range(n), k):
        if standardize_ref(tuple(pi[i] for i in pos)) == sigma:
            return True
    return False


@lru_cache(maxsize=4096)
def downset_ref(pi: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All patterns of pi (including the empty tuple and pi itself)."""
    out = {pi, ()}
    frontier = {pi}
    while frontier:
        nxt = set()
        for vals in frontier:
            for i in range(len(vals)):
                child = standardize_ref(vals[:i] + vals[i + 1 :])
                if child not in out:
                    out.add(child)
                    nxt.add(child)
        frontier = nxt
    return frozenset(out)


def mobius_ref(sigma: tuple[int, ...], pi: tuple[int, ...]) -> int:
    """The defining recurrence, evaluated literally over the interval.

    mu(sigma, sigma) = 1; mu(sigma, pi) = 0 when sigma is not a pattern of
    pi; otherwise mu(sigma, pi) = -sum of mu(sigma, lam) over all lam in
    the half-open interval [sigma, pi).
    """
    if sigma == pi:
        return 1
    if not contains_ref(sigma, pi):
        return 0
    members = sorted(
        (v for v in downset_ref(pi) if len(v) >= len(sigma) and contains_ref(sigma, v)),
        key=lambda v: (len(v), v),
    )
    mu: dict[tuple[int, ...], int] = {}
    for lam in members:
        if lam == sigma:
            mu[lam] = 1
            continue
        acc = 0
        for nu in members:
            if len(nu) < len(lam) and contains_ref(nu, lam):
                acc += mu[nu]
            elif len(nu) == len(lam) and nu == lam:
                break
        mu[lam] = -acc
    return mu.get(pi, 0)


def all_perm_tuples(n: int):
    """Every permutation of length n as a value tuple."""
    return permutations(range(1, n + 1))


def inverse_ref(vals: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(vals)
    for pos, v in enumerate(vals):
        inv[v - 1] = pos + 1
    return tuple(inv)


def sum_components_ref(vals: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split at every prefix that is a complete initial value block."""
    comps = []
    start = 0
    seen_max = 0
    for i, v in enumerate(vals):
        seen_max = max(seen_max, v)
        if seen_max == i + 1:
            comps.append(standardize_ref(vals[start : i + 1]))
            start = i + 1
    return comps


def is_simple(vals: tuple[int, ...]) -> bool:
    """True iff no contiguous run of positions, other than a single point
    and the whole permutation, holds a contiguous run of values."""
    n = len(vals)
    for start in range(n):
        lo = hi = vals[start]
        for end in range(start + 1, n):
            lo, hi = min(lo, vals[end]), max(hi, vals[end])
            width = end - start + 1
            if width < n and hi - lo + 1 == width:
                return False
    return True


def oscillating_sequence_prefix(m: int) -> tuple[int, ...]:
    """Pattern of the first m terms of the sequence 4, 1, 6, 3, 8, 5, ...,
    the paper's definition of the increasing oscillations."""
    seq = []
    for pos in range(1, m + 1):
        i = (pos + 1) // 2
        seq.append(2 * i + 2 if pos % 2 == 1 else 2 * i - 1)
    return standardize_ref(tuple(seq))


# ---------------------------------------------------------------------------
# Oscillation recursion, one term per block count
# ---------------------------------------------------------------------------

# Offset b of the containment inequality q*r + b + 2*caps <= 2n, per
# (shape, upper-bound class); omitted pairs have b = 0.
_OSC_OFFSET = {
    ("Single21", "W_even"): -1,
    ("Single21", "M_even"): -1,
    ("Plain", "W_even"): -2,
    ("LeftCapped", "W_odd"): 2,
    ("RightCapped", "M_odd"): 2,
    ("BothCapped", "M_even"): -2,
}

# Shape of each upper-bound class (of length > 2); its largest fitting
# member is the upper bound itself.
_OSC_OWN = {
    "W_even": "Plain",
    "W_odd": "RightCapped",
    "M_even": "BothCapped",
    "M_odd": "LeftCapped",
}

_OSC_SHAPES = ("Single21", "Plain", "LeftCapped", "RightCapped", "BothCapped")


def _osc_class(kind: str, length: int) -> tuple[str, int]:
    if length % 2 == 0:
        return f"{kind}_even", length // 2
    return f"{kind}_odd", (length + 1) // 2


def _osc_copy_cost(shape: str, k: int) -> int:
    if shape == "Single21":
        return 3
    return 2 * k + (4 if shape == "BothCapped" else 2)


def _osc_member(shape: str, k: int) -> tuple[str, int]:
    """(kind, length) of the oscillation realized by the k-block member."""
    if shape == "Single21":
        return "W", 2
    if shape == "Plain":
        return "W", 2 * k
    if shape == "LeftCapped":
        return "M", 2 * k + 1
    if shape == "RightCapped":
        return "W", 2 * k + 1
    return "M", 2 * k + 2


def _osc_max_k(shape: str, cls: str, n: int) -> int:
    """Largest block count that fits at r = 1, without the upper bound's
    own member."""
    t = 2 * n - _OSC_OFFSET.get((shape, cls), 0)
    if shape == "Single21":
        k = 1 if 3 <= t else 0
    else:
        k = (t - _osc_copy_cost(shape, 0)) // 2
    if shape == _OSC_OWN[cls]:
        k -= 1
    return max(k, 0)


def _osc_weight_signed(shape: str, k: int, cls: str, n: int) -> int:
    """Signed weight of the k-block member in mu(sigma, upper bound)."""
    q = _osc_copy_cost(shape, k)
    t = 2 * n - _OSC_OFFSET.get((shape, cls), 0)
    r = max(1, (t - 4) // q + 1)
    if q * r > t:
        return 0
    if q * r > t - 2:
        return 1
    if q * (r + 1) > t:
        return -1
    return 0


def shape_ref(shape: str, k: int) -> tuple[int, ...]:
    """The k-block member of a shape, by the paper's constructions: the
    left-to-right interleave of k copies of 21, with 1 interleaved on the
    left, on the right or on both sides for the capped shapes."""
    from permmobius import Permutation, interleave, iterated_interleave_21

    if shape == "Single21":
        return (2, 1)
    one = Permutation((1,))
    chain = iterated_interleave_21(k)
    if shape in ("LeftCapped", "BothCapped"):
        chain = interleave(one, chain)
    if shape in ("RightCapped", "BothCapped"):
        chain = interleave(chain, one)
    return chain.values


def oscillation_ref(vals: tuple[int, ...]):
    """((shape, k), (kind, length)) when vals is an increasing oscillation,
    with shape None for 1 = W_1; None otherwise.

    The candidate shapes of vals' length are realized by shape_ref and
    compared by values, so this shares no code with the package's closed
    form, its recognizer or its shape table.
    """
    n = len(vals)
    if vals == (1,):
        return None, ("W", 1)
    if n == 2:
        candidates = [("Single21", 1)]
    elif n % 2 == 0 and n >= 4:
        candidates = [("Plain", n // 2), ("BothCapped", (n - 2) // 2)]
    elif n >= 3:
        candidates = [("LeftCapped", (n - 1) // 2), ("RightCapped", (n - 1) // 2)]
    else:
        candidates = []
    for shape, k in candidates:
        if shape_ref(shape, k) == vals:
            return (shape, k), _osc_member(shape, k)
    return None


def osc_min_k_ref(sigma: tuple[int, ...], shape: str) -> int:
    """Smallest block count whose realized shape contains sigma, found by
    exhaustive subsequence search (a large sentinel when none does)."""
    if shape == "Single21":
        return 1 if contains_ref(sigma, (2, 1)) else 1 << 30
    k = 2 if shape == "Plain" else 1
    while 2 * k <= len(sigma) + 2:
        if contains_ref(sigma, shape_ref(shape, k)):
            return k
        k += 1
    return 1 << 30


def mobius_osc_ref(sigma: tuple[int, ...], up_to: int) -> dict[tuple[str, int], int]:
    """mu(sigma, W_n) and mu(sigma, M_n), keyed (kind, n), for an increasing
    oscillation sigma of length >= 2 and |sigma| <= n <= up_to.

    Every value is minus the sum, over each shape and every block count k
    between sigma's minimal block count and the largest one that fits, of
    the member's signed weight times its own (shorter) value: O(n^2) terms
    per sigma.
    """
    from permmobius import OscillationId, oscillation

    slen = len(sigma)
    lows = {shape: osc_min_k_ref(sigma, shape) for shape in _OSC_SHAPES}
    mu: dict[tuple[str, int], int] = {}
    for kind in "WM":
        mu[kind, slen] = 1 if oscillation(OscillationId(kind, slen)).values == sigma else 0
        mu[kind, slen + 1] = -1
    for length in range(slen + 2, up_to + 1):
        for kind in "WM":
            cls, n = _osc_class(kind, length)
            total = 0
            for shape in _OSC_SHAPES:
                for k in range(lows[shape], _osc_max_k(shape, cls, n) + 1):
                    w = _osc_weight_signed(shape, k, cls, n)
                    if w:
                        total += w * mu[_osc_member(shape, k)]
            mu[kind, length] = -total
    return mu
