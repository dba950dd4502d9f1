"""Principal series, primality biconditionals, banding, and plot export."""

from __future__ import annotations

import math

import numpy as np
import pytest

from permmobius import (
    OscillationId,
    RangeError,
    SeriesRecord,
    Violation,
    banding_report,
    is_prime,
    jelinek_check,
    loglog_export,
    mobius_naive,
    oscillation,
    parse_permutation,
    principal_series,
)
from permmobius.analysis import (
    BAND_LABELS,
    NOMINAL_CONSTANTS,
    _abs_window,
    _normalized_ratio,
    _primes_in,
)

P = parse_permutation


# ------------------------------------------------------------------ series


def test_series_record_fields_at_the_start():
    series = principal_series(12)
    assert [rec.n for rec in series] == list(range(4, 13))
    assert series[0] == SeriesRecord(n=4, mu_W=-3)
    assert series[1] == SeriesRecord(n=5, mu_W=6)
    assert (series[0].ratio, series[1].ratio) == (0.75, 1.0)
    assert [rec.mu_W for rec in series] == [-3, 6, -9, 11, -15, 19, -21, 23, -36]


def test_series_matches_the_oracle_on_small_lengths():
    one = P("1")
    for rec in principal_series(9):
        assert rec.mu_W == mobius_naive(one, oscillation(OscillationId("W", rec.n)))
        assert rec.mu_W == mobius_naive(one, oscillation(OscillationId("M", rec.n)))


def test_series_parity_ratios_and_orientation_agreement():
    # orientation agreement (W_n against M_n) is checked against the oracle
    # in test_series_matches_the_oracle_on_small_lengths
    for rec in principal_series(1001):
        if rec.n % 2 == 0:
            m = rec.n // 2
            assert rec.ratio == pytest.approx(abs(rec.mu_W) / (m * m))
        else:
            m = (rec.n - 1) // 2
            assert rec.ratio == pytest.approx(abs(rec.mu_W) / (m * m + m))


def test_series_rejects_too_small_windows():
    with pytest.raises(RangeError):
        principal_series(3)


def test_array_ratios_equal_the_record_ratios_exactly(mu_20001):
    n = np.arange(4, 20002)
    m_abs = _abs_window(mu_20001, 4, 20001)
    assert m_abs.dtype == np.int64
    ratios = _normalized_ratio(n, m_abs).tolist()
    assert ratios == [SeriesRecord(k, mu_20001[k]).ratio for k in range(4, 20002)]


@pytest.mark.parametrize("value", [2**53 - 1, -(2**53 - 1)])
def test_windows_below_float_exactness_are_int64(value):
    m_abs = _abs_window([0, 1, -1, 1, value, 7], 4, 5)
    assert m_abs.dtype == np.int64
    assert m_abs.tolist() == [abs(value), 7]


@pytest.mark.parametrize(
    "value", [2**63, -(2**63), 2**70, -(2**53), 2**53, 2**63 - 1]
)
def test_windows_past_float_exactness_hold_exact_ints(value):
    mu = [0, 1, -1, 1, value, 7]
    m_abs = _abs_window(mu, 4, 5)
    assert m_abs.dtype == object
    assert m_abs.tolist() == [abs(value), 7]
    assert all(type(v) is int for v in m_abs.tolist())


# ---------------------------------------------------------------- primality


def test_is_prime_on_known_values():
    primes = {2, 3, 5, 7, 11, 13, 37, 97, 101, 7919, 2147483647}
    for n in primes:
        assert is_prime(n), n
    composites = {0, 1, 4, 6, 9, 15, 91, 561, 1105, 7917, 2147483649}
    for n in composites:
        assert not is_prime(n), n


def _sieve(lo, hi):
    """Primality of lo..hi by striking multiples of every p <= sqrt(hi)."""
    flags = [n >= 2 for n in range(lo, hi + 1)]
    for p in range(2, math.isqrt(hi) + 1):
        for q in range(max(p * p, -(-lo // p) * p), hi + 1, p):
            flags[q - lo] = False
    return flags


def test_is_prime_matches_a_sieve_around_the_witness_set_boundaries():
    for lo, hi in [
        (0, 10**5),
        (1_373_653 - 10**4, 1_373_653 + 10**4),
        (25_326_001 - 10**4, 25_326_001 + 10**4),
    ]:
        assert [is_prime(n) for n in range(lo, hi + 1)] == _sieve(lo, hi)


@pytest.mark.parametrize(
    "n",
    [2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383],
)
def test_is_prime_rejects_the_strong_pseudoprimes_at_each_boundary(n):
    # each n is a strong pseudoprime to every base of the next smaller
    # witness set, so only the set chosen from n's size rejects it
    assert not is_prime(n)


def test_is_prime_matches_a_sieve_up_to_a_thousand():
    limit = 1000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            for q in range(p * p, limit + 1, p):
                sieve[q] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n], n


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0, 10**4),
        (1_373_653 - 10**4, 1_373_653 + 10**4),
        (25_326_001 - 10**4, 25_326_001 + 10**4),
        # single-point windows: prime, composite, and below 2
        (2, 2),
        (97, 97),
        (7919, 7919),
        (91, 91),
        (1_373_653, 1_373_653),
        (25_326_001, 25_326_001),
        (0, 0),
        (1, 1),
    ],
)
def test_window_sieve_matches_is_prime(lo, hi):
    flags = _primes_in(lo, hi)
    assert flags.dtype == bool
    assert flags.tolist() == [is_prime(n) for n in range(lo, hi + 1)]


# --------------------------------------------------------------- primality
# biconditionals


def test_jelinek_has_no_violations_in_the_midrange(mu_1001):
    assert jelinek_check(51, 500, mu_1001) == []


def test_jelinek_window_validation(mu_1001):
    with pytest.raises(RangeError):
        jelinek_check(50, 100, mu_1001)
    with pytest.raises(RangeError):
        jelinek_check(200, 100, mu_1001)
    # coverage requires every length 2*n_lo..2*n_hi + 1, the ends included
    with pytest.raises(RangeError):
        jelinek_check(51, 600, mu_1001)
    holed = mu_1001[:300]
    with pytest.raises(RangeError, match="length 300 "):
        jelinek_check(51, 500, holed)


def test_jelinek_flags_a_doctored_series(mu_1001):
    # n = 96 activates the prime/0-mod-6 arm: 97 is prime and 96 % 6 == 0,
    # so the even value at length 192 must equal 96^2 exactly
    assert is_prime(97) and 96 % 6 == 0
    doctored = list(mu_1001)
    doctored[192] = -(96 * 96 - 7)
    violations = jelinek_check(51, 500, doctored)
    assert len(violations) == 1
    v = violations[0]
    assert (v.n, v.rule, v.expected, v.actual) == (
        96,
        "M(2n)=n^2",
        9216,
        9209,
    )


@pytest.mark.parametrize("value", [2**63, -(2**63), 2**70])
def test_jelinek_reports_values_past_int64_exactly(mu_1001, value):
    doctored = list(mu_1001)
    doctored[192] = value
    violations = jelinek_check(51, 500, doctored)
    assert violations == [Violation(96, "M(2n)=n^2", 9216, abs(value))]
    assert type(violations[0].actual) is int


def _jelinek_by_loop(n_lo, n_hi, mu):
    """The per-half-length loop that the array check replaced."""
    violations = []
    for n in range(n_lo, n_hi + 1):
        prime = is_prime(n + 1)
        cond0 = prime and n % 6 == 0
        cond4 = prime and n % 6 == 4
        even_val, odd_val, sq = abs(mu[2 * n]), abs(mu[2 * n + 1]), n * n
        for rule, observed, target, cond in (
            ("M(2n)=n^2", even_val, sq, cond0),
            ("M(2n)=n^2-1", even_val, sq - 1, cond4),
            ("M(2n+1)=n^2+n", odd_val, sq + n, cond0),
            ("M(2n+1)=n^2+n-1", odd_val, sq + n - 1, cond4),
        ):
            if (observed == target) != cond:
                expected = target if cond else f"!= {target}"
                violations.append(Violation(n, rule, expected, observed))
    return violations


@pytest.mark.parametrize("big", [None, 2**70])
def test_jelinek_matches_the_per_length_loop_on_doctored_series(mu_1001, big):
    # every fourth half-length gets the target of one of the four arms, so
    # each arm both holds where it should not and fails where it should
    doctored = list(mu_1001)
    for n in range(51, 501, 4):
        arm = n // 4 % 4
        target = (n * n, n * n - 1, n * n + n, n * n + n - 1)[arm]
        doctored[2 * n + arm // 2] = target
    if big is not None:
        doctored[401] = big
    violations = jelinek_check(51, 500, doctored)
    assert len(violations) > 50
    assert violations == _jelinek_by_loop(51, 500, doctored)
    assert violations[0].n == 51 and violations[-1].n >= 490


# ----------------------------------------------------------------- banding


def test_banding_report_in_the_calibration_window(mu_20001):
    rep = banding_report(1000, 4000, mu_20001)
    assert rep.ordering_ok and rep.disjoint_ok and rep.ok
    assert rep.violations == ()
    assert rep.deviations == ()
    assert len(rep.bands) == 12
    assert [band.residue for band in rep.bands] == list(range(12))
    for band in rep.bands:
        assert band.band == BAND_LABELS[band.residue]
        assert band.count >= 250
        assert 0.0 < band.ratio_min <= band.ratio_max <= 1.0
    expected = {
        "a": 0.6271,
        "b": 0.6678,
        "c": 0.6997,
        "d": 0.7510,
        "e": 0.8294,
        "f": 0.8898,
        "g": 0.9328,
    }
    for name, value in expected.items():
        assert rep.constants[name] == pytest.approx(value, abs=1e-3)
        assert abs(rep.constants[name] - NOMINAL_CONSTANTS[name]) <= 0.05


def test_banding_window_validation(mu_1001):
    with pytest.raises(RangeError):
        banding_report(3, 100, mu_1001)
    with pytest.raises(RangeError):
        banding_report(100, 100, mu_1001)
    with pytest.raises(RangeError):
        banding_report(5000, 6000, mu_1001)
    with pytest.raises(RangeError, match="length 1002 "):
        banding_report(900, 2000, mu_1001)


def _assert_bands_match_the_records(rep, mu):
    """Counts, minima, maxima and excess ratios against SeriesRecord.ratio."""
    ratios = {n: SeriesRecord(n, mu[n]).ratio for n in range(rep.n_lo, rep.n_hi + 1)}
    for band in rep.bands:
        vals = [r for n, r in ratios.items() if n % 12 == band.residue]
        assert band.count == len(vals)
        if vals:
            assert (band.ratio_min, band.ratio_max) == (min(vals), max(vals))
        else:
            assert math.isnan(band.ratio_min) and math.isnan(band.ratio_max)
    excess = [Violation(n, "ratio<=1", "<= 1", r) for n, r in ratios.items() if r > 1.0]
    assert list(rep.violations[: len(excess)]) == excess


@pytest.mark.parametrize("window", [(4, 5), (4, 15), (10, 30), (1823, 20001)])
def test_banding_matches_the_per_length_ratios(mu_20001, window):
    _assert_bands_match_the_records(banding_report(*window, mu_20001), mu_20001)


# 2**70 + 135_795 over 475^2 rounds differently when |mu| is made a float
# before the division
@pytest.mark.parametrize("value", [2**63, -(2**63), 2**70, 2**70 + 135_795])
def test_banding_reports_values_past_int64_exactly(mu_1001, value):
    doctored = list(mu_1001)
    doctored[950] = value
    rep = banding_report(900, 1000, doctored)
    ratio = abs(value) / (475 * 475)
    assert rep.violations[0] == Violation(950, "ratio<=1", "<= 1", ratio)
    assert type(rep.violations[0].actual) is float
    assert rep.bands[950 % 12].ratio_max == ratio
    assert rep.constants["d"] == ratio and not rep.ordering_ok
    _assert_bands_match_the_records(rep, doctored)


# ------------------------------------------------------------------- plots


def test_loglog_export_rows_are_log_pairs():
    series = principal_series(8)
    rows, skipped = loglog_export(series, 4, 8)
    assert skipped == 0
    expected = [(4, 3), (5, 6), (6, 9), (7, 11), (8, 15)]
    assert len(rows) == len(expected)
    for (x, y), (n, m_abs) in zip(rows, expected):
        assert x == pytest.approx(math.log(n))
        assert y == pytest.approx(math.log(m_abs))


def test_loglog_export_counts_skipped_zero_entries():
    series = [
        SeriesRecord(n=4, mu_W=-3),
        SeriesRecord(n=5, mu_W=0),
        SeriesRecord(n=6, mu_W=-9),
    ]
    rows, skipped = loglog_export(series, 4, 6)
    assert skipped == 1
    assert [round(x, 4) for x, _ in rows] == [
        round(math.log(4), 4),
        round(math.log(6), 4),
    ]
    with pytest.raises(RangeError):
        loglog_export(series, 6, 4)
