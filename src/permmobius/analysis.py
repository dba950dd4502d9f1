"""Principal-series computation at scale and conjecture verification.

The principal series mu(1, W_n) = mu(1, M_n) is filled by the oscillation
fast path.  On top of it sit the checks: the sign pattern (negative at even
lengths, positive at odd lengths from 4 on), the 2^n bound, the primality
biconditionals for M(2n)/M(2n+1), and the banding of normalized values by
length mod 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import RangeError
from .oscillation_fast import principal_mu_series

__all__ = [
    "SeriesRecord",
    "principal_series",
    "Violation",
    "jelinek_check",
    "BandReport",
    "BandingReport",
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
        m = self.n // 2
        return abs(self.mu_W) / (m * m if self.n % 2 == 0 else m * m + m)


def principal_series(n_max: int) -> list[SeriesRecord]:
    """Records for n = 4..n_max."""
    if n_max < 4:
        raise RangeError(f"series needs n_max >= 4, got {n_max}")
    mu = principal_mu_series(n_max)
    return [SeriesRecord(n, mu[n]) for n in range(4, n_max + 1)]


def _require_lengths(present: dict, lo: int, hi: int) -> None:
    """Raise RangeError naming the first length of lo..hi not in present."""
    for n in range(lo, hi + 1):
        if n not in present:
            raise RangeError(
                f"series does not cover length {n} of the window {lo}..{hi}"
            )


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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-scale inputs."""
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
    for a in _MR_WITNESSES:
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


# ---------------------------------------------------------------------------
# Jelínek biconditionals
# ---------------------------------------------------------------------------


def jelinek_check(
    n_lo: int, n_hi: int, series: Sequence[SeriesRecord]
) -> list[Violation]:
    """Check, for every half-length n in [n_lo, n_hi], the biconditionals
    tying M(2n) to n^2 / n^2 - 1 and M(2n+1) to n^2 + n / n^2 + n - 1
    against primality of n+1 and n mod 6 in {0, 4}.  The odd-length targets
    are the odd-length instances of M = (len^2 - k)/4 for k in {1, 5}, the
    small-k family the even-length targets belong to with k in {0, 4}."""
    if n_lo <= 50:
        raise RangeError(f"the biconditionals are asserted for n > 50, got {n_lo}")
    if n_hi < n_lo:
        raise RangeError(f"empty range {n_lo}..{n_hi}")
    m_abs = {rec.n: abs(rec.mu_W) for rec in series}
    _require_lengths(m_abs, 2 * n_lo, 2 * n_hi + 1)
    violations: list[Violation] = []
    for n in range(n_lo, n_hi + 1):
        prime = is_prime(n + 1)
        cond0 = prime and n % 6 == 0
        cond4 = prime and n % 6 == 4
        even_val = m_abs[2 * n]
        odd_val = m_abs[2 * n + 1]
        sq = n * n
        for rule, observed, target, cond in (
            ("M(2n)=n^2", even_val, sq, cond0),
            ("M(2n)=n^2-1", even_val, sq - 1, cond4),
            ("M(2n+1)=n^2+n", odd_val, sq + n, cond0),
            ("M(2n+1)=n^2+n-1", odd_val, sq + n - 1, cond4),
        ):
            holds = observed == target
            if holds != cond:
                expected = target if cond else f"!= {target}"
                violations.append(Violation(n, rule, expected, observed))
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


def banding_report(
    n_lo: int, n_hi: int, series: Sequence[SeriesRecord]
) -> BandingReport:
    """Observed normalized-ratio ranges per length residue mod 12, the
    estimated band constants a..g, and ordering/disjointness checks.

    Deviations of the estimated constants from the nominal values beyond
    0.05 are reported separately and are not counted as violations.
    """
    if n_lo < 4 or n_hi <= n_lo:
        raise RangeError(f"invalid banding window {n_lo}..{n_hi}")
    ratios = {rec.n: rec.ratio for rec in series if n_lo <= rec.n <= n_hi}
    _require_lengths(ratios, n_lo, n_hi)
    per_residue: dict[int, list[float]] = {r: [] for r in range(12)}
    excess: list[Violation] = []
    for n in range(n_lo, n_hi + 1):
        ratio = ratios[n]
        per_residue[n % 12].append(ratio)
        if ratio > 1.0:
            excess.append(Violation(n, "ratio<=1", "<= 1", ratio))

    bands = tuple(
        BandReport(
            residue,
            BAND_LABELS[residue],
            len(vals),
            min(vals) if vals else math.nan,
            max(vals) if vals else math.nan,
        )
        for residue, vals in sorted(per_residue.items())
    )

    def band_values(label: str) -> list[float]:
        out: list[float] = []
        for residue, vals in per_residue.items():
            if BAND_LABELS[residue] == label:
                out.extend(vals)
        return out

    ab = band_values("ab")
    cd = band_values("cd")
    ef = band_values("ef")
    g1 = band_values("g1")
    constants = {
        "a": min(ab) if ab else math.nan,
        "b": max(ab) if ab else math.nan,
        "c": min(cd) if cd else math.nan,
        "d": max(cd) if cd else math.nan,
        "e": min(ef) if ef else math.nan,
        "f": max(ef) if ef else math.nan,
        "g": min(g1) if g1 else math.nan,
    }

    ordered = ["a", "b", "c", "d", "e", "f", "g"]
    values = [constants[name] for name in ordered]
    ordering_ok = all(values[i] < values[i + 1] for i in range(len(values) - 1))
    disjoint_ok = (
        constants["b"] < constants["c"]
        and constants["d"] < constants["e"]
        and constants["f"] < constants["g"]
        and (not g1 or max(g1) <= 1.0)
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
