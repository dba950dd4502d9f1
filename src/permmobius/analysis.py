"""Principal-series computation at scale and conjecture verification.

The principal series mu(1, W_n) = mu(1, M_n) is filled by the oscillation
fast path.  On top of it sit the checks: the sign pattern (negative at even
lengths, positive at odd lengths from 4 on), the 2^n bound, the primality
biconditionals for M(2n)/M(2n+1), and the banding of normalized values by
length mod 12.

``jelinek_check`` and ``banding_report`` take mu by length, the list that
``principal_mu_series`` returns (index n holds mu(1, W_n)), and run as numpy
operations over the lengths of their window.  The primality of n + 1 that
the biconditionals read comes from one segmented sieve over the window;
``is_prime`` is the single-value test (and the tests' reference).
``jelinek_window`` and ``banding_window`` validate a window and give the
lengths it reads, so a caller can fill exactly those.  ``SeriesRecord`` and
``principal_series`` serve the per-length ``series`` output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RangeError
from .oscillation_fast import principal_mu_series

__all__ = [
    "SeriesRecord",
    "principal_series",
    "Violation",
    "jelinek_window",
    "jelinek_check",
    "BandReport",
    "BandingReport",
    "banding_window",
    "banding_report",
    "loglog_export",
    "is_prime",
    "BAND_LABELS",
    "NOMINAL_CONSTANTS",
]


@dataclass(frozen=True)
class SeriesRecord:
    """One length n of the principal series: mu_W = mu(1, W_n), which equals
    mu(1, M_n).

    ``ratio`` is the normalized value: |mu| / m^2 at even lengths 2m and
    |mu| / (m^2 + m) at odd lengths 2m + 1.
    """

    n: int
    mu_W: int

    @property
    def ratio(self) -> float:
        return _normalized_ratio(self.n, abs(self.mu_W))


def _normalized_ratio(n, m_abs):
    """|mu| / m^2 at even lengths n = 2m, |mu| / (m^2 + m) at odd lengths
    n = 2m + 1; on ints, or elementwise on equal-length arrays of lengths and
    |mu| values as ``_abs_window`` gives them."""
    m = n // 2
    return m_abs / (m * m + n % 2 * m)


def principal_series(n_max: int) -> list[SeriesRecord]:
    """Records for n = 4..n_max."""
    if n_max < 4:
        raise RangeError(f"series needs n_max >= 4, got {n_max}")
    mu = principal_mu_series(n_max)
    return [SeriesRecord(n, mu[n]) for n in range(4, n_max + 1)]


# float64 holds every integer below 2^53, so below it numpy's int64 -> float64
# conversion is exact and its division rounds as Python's int / int does.
_FLOAT_EXACT = 1 << 53


def _abs_window(mu: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """|mu(1, W_n)| for the lengths n = lo..hi of the series mu by length.

    The array is int64 when every |mu| and hi^2 are below 2^53 (scan output
    up to length 9.4e7), so sums, products and ratios of these values and the
    lengths are exact; otherwise it holds Python ints.  RangeError names the
    first length of the window that mu does not reach.
    """
    if len(mu) <= hi:
        raise RangeError(
            f"series does not cover length {max(lo, len(mu))} "
            f"of the window {lo}..{hi}"
        )
    window = mu[lo : hi + 1]
    if hi * hi < _FLOAT_EXACT:
        try:
            values = np.array(window, dtype=np.int64)
        except OverflowError:  # a value past int64
            pass
        else:
            # bounded before np.abs, which leaves -2^63 negative
            if -_FLOAT_EXACT < values.min() and values.max() < _FLOAT_EXACT:
                return np.abs(values)
    return np.array([abs(v) for v in window], dtype=object)


@dataclass(frozen=True)
class Violation:
    """A single failed check, JSON-friendly."""

    n: int
    rule: str
    expected: object
    actual: object


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, k): the first k primes are a deterministic Miller-Rabin witness
# set for every n below bound (each bound is the least strong pseudoprime
# to those k bases).  Past the last bound all 12 primes to 37 are used,
# which is deterministic below 3.18e23.
_MR_BOUNDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.18e23, with the smallest witness
    set for n's size."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for bound, k in _MR_BOUNDS if n < bound), len(_MR_WITNESSES))
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_in(lo: int, hi: int) -> np.ndarray:
    """Primality of lo..hi (0 <= lo <= hi) as a bool array indexed from lo.

    One segmented sieve: the primes up to isqrt(hi) come from a small sieve,
    and each strikes its multiples from max(p^2, the first one >= lo) across
    the window, so memory is proportional to hi - lo + 1 and to sqrt(hi).
    """
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    flags = np.ones(hi - lo + 1, dtype=bool)
    flags[: max(0, 2 - lo)] = False
    for p in np.flatnonzero(base).tolist():
        flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return flags


# ---------------------------------------------------------------------------
# Jelínek biconditionals
# ---------------------------------------------------------------------------


def jelinek_window(n_lo: int, n_hi: int) -> tuple[int, int]:
    """The lengths 2 n_lo .. 2 n_hi + 1 that the biconditionals over the
    half-lengths n_lo..n_hi read; RangeError for an invalid window."""
    if n_lo <= 50:
        raise RangeError(f"the biconditionals are asserted for n > 50, got {n_lo}")
    if n_hi < n_lo:
        raise RangeError(f"empty range {n_lo}..{n_hi}")
    return 2 * n_lo, 2 * n_hi + 1


_JELINEK_RULES = ("M(2n)=n^2", "M(2n)=n^2-1", "M(2n+1)=n^2+n", "M(2n+1)=n^2+n-1")


def jelinek_check(n_lo: int, n_hi: int, mu: Sequence[int]) -> list[Violation]:
    """Check, for every half-length n in [n_lo, n_hi], the biconditionals
    tying M(2n) to n^2 / n^2 - 1 and M(2n+1) to n^2 + n / n^2 + n - 1
    against primality of n+1 and n mod 6 in {0, 4}.  The odd-length targets
    are the odd-length instances of M = (len^2 - k)/4 for k in {1, 5}, the
    small-k family the even-length targets belong to with k in {0, 4}.

    mu is the series by length (index n holds mu(1, W_n)); violations come
    in order of n, and of the rules above within one n."""
    m_abs = _abs_window(mu, *jelinek_window(n_lo, n_hi))
    n = np.arange(n_lo, n_hi + 1, dtype=m_abs.dtype)
    residue = n % 6
    prime = _primes_in(n_lo + 1, n_hi + 1)
    cond0 = prime & (residue == 0)
    cond4 = prime & (residue == 4)
    even, odd = m_abs[0::2], m_abs[1::2]
    sq = n * n
    # One (observed, target, condition) triple per rule, in _JELINEK_RULES order.
    arms = (
        (even, sq, cond0),
        (even, sq - 1, cond4),
        (odd, sq + n, cond0),
        (odd, sq + n - 1, cond4),
    )
    fails = np.column_stack(
        [(observed == target) != cond for observed, target, cond in arms]
    )
    violations: list[Violation] = []
    for i, k in zip(*np.nonzero(fails)):
        observed, target, cond = (int(column[i]) for column in arms[k])
        expected = target if cond else f"!= {target}"
        violations.append(Violation(n_lo + int(i), _JELINEK_RULES[k], expected, observed))
    return violations


# ---------------------------------------------------------------------------
# Banding
# ---------------------------------------------------------------------------

# Conjectured band of each length residue mod 12: normalized values cluster
# into [a,b] for residues 10/11, [c,d] for 2/3/6/7, [e,f] for 4/5 and [g,1]
# for 8/9/0/1, with 0 < a < b < c < d < e < f < g < 1.
BAND_LABELS = {
    10: "ab",
    11: "ab",
    2: "cd",
    3: "cd",
    6: "cd",
    7: "cd",
    4: "ef",
    5: "ef",
    8: "g1",
    9: "g1",
    0: "g1",
    1: "g1",
}

NOMINAL_CONSTANTS = {
    "a": 0.615,
    "b": 0.680,
    "c": 0.692,
    "d": 0.760,
    "e": 0.821,
    "f": 0.896,
    "g": 0.923,
}


@dataclass(frozen=True)
class BandReport:
    residue: int
    band: str
    count: int
    ratio_min: float
    ratio_max: float


@dataclass(frozen=True)
class BandingReport:
    n_lo: int
    n_hi: int
    bands: tuple[BandReport, ...]
    constants: dict[str, float]
    ordering_ok: bool
    disjoint_ok: bool
    violations: tuple[Violation, ...]
    deviations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def banding_window(n_lo: int, n_hi: int) -> tuple[int, int]:
    """The lengths n_lo..n_hi that banding reads; RangeError for an invalid
    window."""
    if n_lo < 4 or n_hi <= n_lo:
        raise RangeError(f"invalid banding window {n_lo}..{n_hi}")
    return n_lo, n_hi


def banding_report(n_lo: int, n_hi: int, mu: Sequence[int]) -> BandingReport:
    """Observed normalized-ratio ranges per length residue mod 12, the
    estimated band constants a..g, and ordering/disjointness checks over the
    lengths n_lo..n_hi of the series mu by length.

    Deviations of the estimated constants from the nominal values beyond
    0.05 are reported separately and are not counted as violations.
    """
    m_abs = _abs_window(mu, *banding_window(n_lo, n_hi))
    ratios = _normalized_ratio(np.arange(n_lo, n_hi + 1, dtype=m_abs.dtype), m_abs)
    excess = [
        Violation(n_lo + i, "ratio<=1", "<= 1", float(ratios[i]))
        for i in np.flatnonzero(ratios > 1.0).tolist()
    ]

    def residue_band(residue: int) -> BandReport:
        vals = ratios[(residue - n_lo) % 12 :: 12]
        if not len(vals):
            return BandReport(residue, BAND_LABELS[residue], 0, math.nan, math.nan)
        return BandReport(
            residue, BAND_LABELS[residue], len(vals), float(vals.min()), float(vals.max())
        )

    bands = tuple(residue_band(residue) for residue in range(12))

    def band_range(label: str) -> tuple[float, float]:
        """min and max over the residues of one band; nan when it is empty."""
        spans = [band for band in bands if band.band == label and band.count]
        if not spans:
            return math.nan, math.nan
        return min(band.ratio_min for band in spans), max(band.ratio_max for band in spans)

    a, b = band_range("ab")
    c, d = band_range("cd")
    e, f = band_range("ef")
    g, g1_max = band_range("g1")
    constants = {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "g": g}

    ordered = ["a", "b", "c", "d", "e", "f", "g"]
    values = [constants[name] for name in ordered]
    ordering_ok = all(values[i] < values[i + 1] for i in range(len(values) - 1))
    disjoint_ok = (
        constants["b"] < constants["c"]
        and constants["d"] < constants["e"]
        and constants["f"] < constants["g"]
        and (math.isnan(g1_max) or g1_max <= 1.0)
    )

    violations: list[Violation] = list(excess)
    if not ordering_ok:
        violations.append(
            Violation(0, "band-ordering", "a<b<c<d<e<f<g", constants)
        )
    if not disjoint_ok:
        violations.append(
            Violation(0, "band-disjointness", "b<c, d<e, f<g, max<=1", constants)
        )

    deviations: list[Violation] = []
    for name in ordered:
        nominal = NOMINAL_CONSTANTS[name]
        observed = constants[name]
        if math.isnan(observed) or abs(observed - nominal) > 0.05:
            deviations.append(
                Violation(0, f"constant-{name}", nominal, observed)
            )
    return BandingReport(
        n_lo,
        n_hi,
        bands,
        constants,
        ordering_ok,
        disjoint_ok,
        tuple(violations),
        tuple(deviations),
    )


# ---------------------------------------------------------------------------
# Plot export
# ---------------------------------------------------------------------------


def loglog_export(
    series: Sequence[SeriesRecord], n_lo: int, n_hi: int
) -> tuple[list[tuple[float, float]], int]:
    """(ln n, ln |mu|) rows over the window; zero values are skipped and
    counted."""
    if n_hi < n_lo:
        raise RangeError(f"empty range {n_lo}..{n_hi}")
    rows: list[tuple[float, float]] = []
    skipped = 0
    for rec in series:
        if rec.n < n_lo or rec.n > n_hi:
            continue
        m_abs = abs(rec.mu_W)
        if m_abs == 0:
            skipped += 1
            continue
        rows.append((math.log(rec.n), math.log(m_abs)))
    return rows, skipped
