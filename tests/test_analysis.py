"""Principal series, primality biconditionals, banding, and plot export."""

from __future__ import annotations

import dataclasses
import math

import pytest

from permmobius import (
    OscillationId,
    RangeError,
    SeriesRecord,
    banding_report,
    is_prime,
    jelinek_check,
    loglog_export,
    mobius_naive,
    oscillation,
    parse_permutation,
    principal_series,
)
from permmobius.analysis import BAND_LABELS, NOMINAL_CONSTANTS

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


def test_series_parity_ratios_and_orientation_agreement(series_1001):
    # orientation agreement (W_n against M_n) is checked against the oracle
    # in test_series_matches_the_oracle_on_small_lengths
    for rec in series_1001:
        if rec.n % 2 == 0:
            m = rec.n // 2
            assert rec.ratio == pytest.approx(abs(rec.mu_W) / (m * m))
        else:
            m = (rec.n - 1) // 2
            assert rec.ratio == pytest.approx(abs(rec.mu_W) / (m * m + m))


def test_series_rejects_too_small_windows():
    with pytest.raises(RangeError):
        principal_series(3)


# ---------------------------------------------------------------- primality


def test_is_prime_on_known_values():
    primes = {2, 3, 5, 7, 11, 13, 37, 97, 101, 7919, 2147483647}
    for n in primes:
        assert is_prime(n), n
    composites = {0, 1, 4, 6, 9, 15, 91, 561, 1105, 7917, 2147483649}
    for n in composites:
        assert not is_prime(n), n


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


# --------------------------------------------------------------- primality
# biconditionals


def test_jelinek_has_no_violations_in_the_midrange(series_1001):
    assert jelinek_check(51, 500, series_1001) == []


def test_jelinek_window_validation(series_1001):
    with pytest.raises(RangeError):
        jelinek_check(50, 100, series_1001)
    with pytest.raises(RangeError):
        jelinek_check(200, 100, series_1001)
    # coverage requires every length 2*n_lo..2*n_hi + 1, the ends included
    with pytest.raises(RangeError):
        jelinek_check(51, 600, series_1001)
    holed = [rec for rec in series_1001 if rec.n != 300]
    with pytest.raises(RangeError, match="length 300 "):
        jelinek_check(51, 500, holed)


def test_jelinek_flags_a_doctored_series(series_1001):
    # n = 96 activates the prime/0-mod-6 arm: 97 is prime and 96 % 6 == 0,
    # so the even value at length 192 must equal 96^2 exactly
    assert is_prime(97) and 96 % 6 == 0
    doctored = [
        dataclasses.replace(rec, mu_W=-(96 * 96 - 7))
        if rec.n == 192
        else rec
        for rec in series_1001
    ]
    violations = jelinek_check(51, 500, doctored)
    assert len(violations) == 1
    v = violations[0]
    assert (v.n, v.rule, v.expected, v.actual) == (
        96,
        "M(2n)=n^2",
        9216,
        9209,
    )


# ----------------------------------------------------------------- banding


def test_banding_report_in_the_calibration_window(series_20001):
    rep = banding_report(1000, 4000, series_20001)
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


def test_banding_window_validation(series_1001):
    with pytest.raises(RangeError):
        banding_report(3, 100, series_1001)
    with pytest.raises(RangeError):
        banding_report(100, 100, series_1001)
    with pytest.raises(RangeError):
        banding_report(5000, 6000, series_1001)
    with pytest.raises(RangeError, match="length 1002 "):
        banding_report(900, 2000, series_1001)


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
