"""Release gates: ten end-to-end checks, one test per criterion.

Each test is self-contained, pins its tolerances inline, and asserts its
runtime budget where one applies.  Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from functools import lru_cache

from permmobius import (
    MobiusEngine,
    OscillationId,
    Permutation,
    Shape,
    contains,
    direct_sum,
    downset,
    fits_in_pi,
    inverse,
    is_sum_indecomposable,
    iterated_sum,
    mobius_naive_column,
    mobius_oscillation,
    oscillation,
    parse_permutation,
    pi_class_of,
    principal_series,
    raw_min_k,
    realize_shape,
    sum_decompose,
    weight_general,
)
from permmobius.analysis import banding_report, jelinek_check
from permmobius.perms import SHAPE_KINDS

P = parse_permutation
ONE = P("1")


def _all_perms(n: int):
    for vals in itertools.permutations(range(1, n + 1)):
        yield Permutation(vals)


def _is_monotone(pi: Permutation) -> bool:
    vals = pi.values
    return vals == tuple(sorted(vals)) or vals == tuple(sorted(vals, reverse=True))


@lru_cache(maxsize=None)
def _indec(vals: tuple[int, ...]) -> bool:
    return is_sum_indecomposable(Permutation(vals))


def _capped(perm: Permutation, left: bool, right: bool) -> Permutation:
    vals = perm.values
    if left:
        vals = (1,) + tuple(v + 1 for v in vals)
    if right:
        vals = vals + (len(vals) + 1,)
    return Permutation(vals)


# ---------------------------------------------------------------------------
# 1. Worked-example reproduction: full trace, exact rows, final value -6.
# ---------------------------------------------------------------------------


def test_criterion_01_worked_example_trace():
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "permmobius",
            "mobius",
            "3142",
            "315274968",
            "--engine",
            "oscillation",
            "--trace",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "shape=Single21 min_k=1 max_k=1",
        "shape=Plain min_k=2 max_k=4",
        "shape=LeftCapped min_k=2 max_k=3",
        "shape=RightCapped min_k=2 max_k=3",
        "shape=BothCapped min_k=2 max_k=3",
        "alpha=2 1 no possibilities",
        "alpha=3 1 4 2 r=2 weight=1 mu=1",
        "alpha=3 1 5 2 6 4 r=1 weight=-1 mu=3",
        "alpha=3 1 5 2 7 4 8 6 r=1 weight=-1 mu=6",
        "alpha=2 4 1 5 3 r=1 weight=-1 mu=-1",
        "alpha=2 4 1 6 3 7 5 r=1 weight=-1 mu=-3",
        "alpha=3 1 5 2 4 r=2 weight=1 mu=-1",
        "alpha=3 1 5 2 7 4 6 r=1 weight=-1 mu=-3",
        "alpha=2 4 1 6 3 5 r=1 weight=-1 mu=1",
        "alpha=2 4 1 6 3 8 5 7 r=1 weight=-1 mu=3",
        "-6",
    ]
    assert elapsed < 1.0, f"trace took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Known value on all three engines.
# ---------------------------------------------------------------------------


def test_criterion_02_known_value_on_all_engines():
    sigma, pi = P("1"), P("24153")
    # fresh engine per flag so the memo cannot shortcut the routing
    for flag in ("naive", "general", "oscillation"):
        assert MobiusEngine().mobius(sigma, pi, engine=flag) == 6, flag


# ---------------------------------------------------------------------------
# 3. Oracle equivalence of the general theorem, lengths 4..8.
# ---------------------------------------------------------------------------


def test_criterion_03_general_theorem_matches_oracle_to_length_8():
    t0 = time.monotonic()
    engine = MobiusEngine()
    pairs = mismatches = 0
    for n in range(4, 9):
        for pi in _all_perms(n):
            if _is_monotone(pi):
                continue
            for sigma, expected in mobius_naive_column(pi).items():
                if not sigma.values or not _indec(sigma.values):
                    continue
                pairs += 1
                if engine.mobius_theorem(sigma, pi) != expected:
                    mismatches += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert pairs > 1_000_000
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. Oracle equivalence of the decomposable-upper-bound routing, |pi| <= 8.
# ---------------------------------------------------------------------------


def test_criterion_04_decomposable_routing_matches_oracle_to_length_8():
    engine = MobiusEngine()
    pairs = mismatches = 0
    for n in range(2, 9):
        for pi in _all_perms(n):
            if len(sum_decompose(pi).components) < 2:
                continue
            route = engine.mobius_prop1 if pi.values[0] == 1 else engine.mobius_prop2
            for sigma, expected in mobius_naive_column(pi).items():
                pairs += 1
                if sigma.values:
                    actual = route(sigma, pi)
                else:
                    actual = engine.mobius(sigma, pi)
                if actual != expected:
                    mismatches += 1
    assert mismatches == 0
    assert pairs > 500_000


# ---------------------------------------------------------------------------
# 5. Oracle equivalence of the oscillation fast path, |pi| <= 10.
# ---------------------------------------------------------------------------


def test_criterion_05_oscillation_fast_path_matches_oracle_to_length_10():
    pairs = mismatches = 0
    seen = set()
    for kind in "WM":
        for n in range(1, 11):
            pi = oscillation(OscillationId(kind, n))
            if pi in seen:
                continue
            seen.add(pi)
            for sigma, expected in mobius_naive_column(pi).items():
                if not sigma.values or not _indec(sigma.values):
                    continue
                pairs += 1
                if mobius_oscillation(sigma, pi) != expected:
                    mismatches += 1
    assert mismatches == 0
    assert pairs > 100


# ---------------------------------------------------------------------------
# 6. Inequality tables vs the containment matcher: the full shape grid and
#    the per-shape minimum block counts.
# ---------------------------------------------------------------------------


def test_criterion_06_inequality_tables_match_the_matcher():
    shapes = [Shape("Single21", 1)]
    for kind in ("Plain", "LeftCapped", "RightCapped", "BothCapped"):
        lo = 2 if kind == "Plain" else 1
        shapes.extend(Shape(kind, k) for k in range(lo, 11))
    classes = [OscillationId(kind, n) for kind in "WM" for n in range(4, 25)]
    cap_patterns = ((False, False), (True, False), (False, True), (True, True))

    combos = disagreements = 0
    for osc_id in classes:
        pc = pi_class_of(osc_id)
        pi = oscillation(osc_id)
        for shape in shapes:
            alpha = realize_shape(shape)
            for r in range(1, 7):
                stack = iterated_sum(alpha, r)
                for caps in cap_patterns:
                    combos += 1
                    expected = contains(_capped(stack, *caps), pi)
                    if fits_in_pi(shape, r, pc, caps) != expected:
                        disagreements += 1
    assert combos == 40320
    assert disagreements == 0

    # minimum block counts against the matcher-derived minimum
    cells = bad = 0
    seen = set()
    for kind in "WM":
        for n in range(4, 13):
            sigma = oscillation(OscillationId(kind, n))
            if sigma in seen:
                continue
            seen.add(sigma)
            for shape_kind in SHAPE_KINDS:
                lo = 2 if shape_kind == "Plain" else 1
                hi = 1 if shape_kind == "Single21" else 10
                matcher_min = None
                for k in range(lo, hi + 1):
                    if contains(sigma, realize_shape(Shape(shape_kind, k))):
                        matcher_min = k
                        break
                effective = max(raw_min_k(sigma, shape_kind, 50), lo)
                cells += 1
                if matcher_min is None:
                    bad += effective <= hi
                else:
                    bad += effective != matcher_min
    assert cells == 90
    assert bad == 0


# ---------------------------------------------------------------------------
# 7. Desk-scale series with the sign pattern, length 20000.
# ---------------------------------------------------------------------------


def test_criterion_07_series_to_20000_with_clean_signs():
    t0 = time.monotonic()
    series = principal_series(20000)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"series took {elapsed:.1f}s"
    assert len(series) == 19997
    sign_violations = [
        rec.n
        for rec in series
        if (rec.mu_W >= 0 if rec.n % 2 == 0 else rec.mu_W <= 0)
    ]
    assert sign_violations == []
    assert all(abs(rec.mu_W) < (1 << 62) for rec in series)


# ---------------------------------------------------------------------------
# 8. Primality biconditionals over half-lengths 51..10000.
# ---------------------------------------------------------------------------


def test_criterion_08_half_length_biconditionals_to_10000(mu_20001):
    assert jelinek_check(51, 10000, mu_20001) == []


# ---------------------------------------------------------------------------
# 9. Banding of normalized ratios over lengths 1000..20000.
# ---------------------------------------------------------------------------


def test_criterion_09_banding_to_20000(mu_20001):
    report = banding_report(1000, 20000, mu_20001)
    assert report.ordering_ok
    assert report.disjoint_ok
    assert report.violations == ()
    nominal = {
        "a": 0.615,
        "b": 0.680,
        "c": 0.692,
        "d": 0.760,
        "e": 0.821,
        "f": 0.896,
        "g": 0.923,
    }
    for name, target in nominal.items():
        assert abs(report.constants[name] - target) <= 0.05, (
            name,
            report.constants[name],
        )
    assert report.deviations == ()


# ---------------------------------------------------------------------------
# 10. Property suites: family cancellation, zero classes, the five weight
#     rows, inverse symmetry, and zero-sum closed intervals.
# ---------------------------------------------------------------------------


def _family(member: Permutation):
    return (
        member,
        direct_sum(ONE, member),
        direct_sum(member, ONE),
        direct_sum(ONE, direct_sum(member, ONE)),
    )


def test_criterion_10_property_suites():
    # capped-tower family values: mu(sigma, S) = mu(sigma, 1+S+1)
    # = -mu(sigma, 1+S) = -mu(sigma, S+1), so the family nets to zero
    alphas = [
        alpha
        for n in range(2, 7)
        for alpha in _all_perms(n)
        if is_sum_indecomposable(alpha)
    ]
    checked_family = 0
    for alpha in alphas:
        max_r = 6 // len(alpha.values)
        for r in range(1, max_r + 1):
            tower = iterated_sum(alpha, r)
            cols = [mobius_naive_column(m) for m in _family(tower)]
            for sigma in cols[3]:
                if not sigma.values or not _indec(sigma.values):
                    continue
                vs, va, vb, vc = (col.get(sigma, 0) for col in cols)
                assert vs == vc == -va == -vb, (sigma, tower)
                assert vs + va + vb + vc == 0
                checked_family += 1
    assert checked_family > 5_000

    # zero classes: upper bounds built as 1+1+tau, tau+1+1, or a capped
    # family over a tower followed by a longer decomposable tail
    zero_pis = set()
    for tau_len in range(1, 7):
        for tau in _all_perms(tau_len):
            zero_pis.add(direct_sum(ONE, direct_sum(ONE, tau)))
            zero_pis.add(direct_sum(direct_sum(tau, ONE), ONE))
    for alpha in alphas:
        if len(alpha.values) > 3:
            continue
        for r in (1, 2):
            tower = iterated_sum(alpha, r)
            room = 8 - len(tower.values)
            for tail_len in range(2, room + 1):
                for tail in _all_perms(tail_len):
                    if sum_decompose(tail).components[0] == alpha:
                        continue  # tower must be maximal
                    for member in _family(direct_sum(tower, tail)):
                        if len(member.values) <= 8:
                            zero_pis.add(member)
    engine = MobiusEngine()
    checked_zero = 0
    for pi in zero_pis:
        groups = downset(pi)
        for length in groups:
            if length == 0:
                continue
            for sigma in groups[length]:
                if not _indec(sigma.values):
                    continue
                assert engine.mobius(sigma, pi) == 0, (sigma, pi)
                checked_zero += 1
    assert len(zero_pis) > 3000
    assert checked_zero > 25_000

    # the five weight rows, one per containment pattern of the capped tower
    weight_rows = [
        ("1", "21", "21543", 0),
        ("1", "21", "1324", -1),
        ("1", "21", "1243", 0),
        ("1", "21", "2134", 0),
        ("21", "21", "321", 1),
    ]
    for sigma_s, alpha_s, pi_s, expected in weight_rows:
        assert weight_general(P(sigma_s), P(alpha_s), P(pi_s)) == expected, pi_s

    # mu is invariant under inverting both endpoints
    for n in range(1, 7):
        for pi in _all_perms(n):
            col = mobius_naive_column(pi)
            inv_col = mobius_naive_column(inverse(pi))
            assert all(
                inv_col[inverse(sigma)] == mu for sigma, mu in col.items()
            ), pi
    for n in range(4, 25):
        for sigma_s in ("1", "21", "312", "231", "3142"):
            sigma = P(sigma_s)
            w = oscillation(OscillationId("W", n))
            if not contains(sigma, w):
                continue
            assert mobius_oscillation(sigma, w) == mobius_oscillation(
                inverse(sigma), OscillationId("M", n)
            ), (sigma, n)

    # the column over a closed interval sums to zero for nonempty upper bounds
    for n in range(1, 7):
        for pi in _all_perms(n):
            assert sum(mobius_naive_column(pi).values()) == 0, pi
