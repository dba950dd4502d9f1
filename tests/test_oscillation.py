"""Inequality-driven fast path for increasing-oscillation upper bounds."""

from __future__ import annotations

import itertools
import random

import pytest

from permmobius import (
    NotAnOscillation,
    NotContained,
    OscillationId,
    Overflow,
    Permutation,
    PiClass,
    Shape,
    contains,
    fits_in_pi,
    inverse,
    is_sum_indecomposable,
    iterated_sum,
    max_k,
    min_points,
    min_r_general,
    mobius_naive,
    mobius_naive_column,
    mobius_oscillation,
    oscillation,
    parse_permutation,
    pi_class_of,
    principal_mu_series,
    raw_min_k,
    realize_shape,
    trace_oscillation,
)
from permmobius import oscillation_fast
from permmobius.oscillation_fast import clear_oscillation_memo
from permmobius.perms import (
    SHAPE_KINDS,
    classify_oscillation,
    is_increasing_oscillation,
    oscillation_id,
)

from helpers import mobius_osc_ref, oscillation_ref

P = parse_permutation

SHAPE_DOMAIN_MIN = {
    "Single21": 1,
    "Plain": 2,
    "LeftCapped": 1,
    "RightCapped": 1,
    "BothCapped": 1,
}


def _shapes(max_k_value: int):
    yield Shape("Single21", 1)
    for kind in ("Plain", "LeftCapped", "RightCapped", "BothCapped"):
        for k in range(SHAPE_DOMAIN_MIN[kind], max_k_value + 1):
            yield Shape(kind, k)


def _capped(perm: Permutation, left: bool, right: bool) -> Permutation:
    vals = perm.values
    if left:
        vals = (1,) + tuple(v + 1 for v in vals)
    if right:
        vals = vals + (len(vals) + 1,)
    return Permutation(vals)


# ------------------------------------------------------------------ classes


def test_pi_class_of_budgets_and_kinds():
    cases = {
        ("W", 4): ("W_even", 2, 4),
        ("W", 6): ("W_even", 3, 6),
        ("W", 9): ("W_odd", 5, 10),
        ("M", 5): ("M_odd", 3, 6),
        ("M", 6): ("M_even", 3, 6),
        ("M", 8): ("M_even", 4, 8),
    }
    for (kind, n), (cls_kind, cls_n, budget) in cases.items():
        pc = pi_class_of(OscillationId(kind, n))
        assert (pc.kind, pc.n, pc.budget, pc.length) == (
            cls_kind,
            cls_n,
            budget,
            n,
        )
        assert pc.oscillation_id == OscillationId(kind, n)


# --------------------------------------------------------------- min_points


def test_min_points_frozen_values():
    w4 = pi_class_of(OscillationId("W", 4))
    w9 = pi_class_of(OscillationId("W", 9))
    m8 = pi_class_of(OscillationId("M", 8))
    assert min_points(Shape("Plain", 2), 1, w4) == 4
    assert min_points(Shape("Plain", 3), 1, w4) == 6
    assert min_points(Shape("Single21", 1), 2, w9) == 6
    assert min_points(Shape("BothCapped", 2), 1, m8) == 6


def test_min_points_grows_with_rank_and_block_count():
    pc = pi_class_of(OscillationId("W", 12))
    for kind in ("Plain", "LeftCapped", "RightCapped", "BothCapped"):
        lo = SHAPE_DOMAIN_MIN[kind]
        for k in range(lo, 5):
            for r in range(1, 4):
                here = min_points(Shape(kind, k), r, pc)
                assert min_points(Shape(kind, k), r + 1, pc) > here
                assert min_points(Shape(kind, k + 1), r, pc) > here


# --------------------------------------------------------------- fits_in_pi


def test_fits_in_pi_agrees_with_matcher_on_a_small_grid():
    classes = [
        OscillationId(kind, n) for kind in "WM" for n in range(4, 13)
    ]
    for osc_id in classes:
        pc = pi_class_of(osc_id)
        pi = oscillation(osc_id)
        for shape in _shapes(4):
            alpha = realize_shape(shape)
            for r in range(1, 4):
                stack = iterated_sum(alpha, r)
                for caps in ((False, False), (True, False), (False, True), (True, True)):
                    expected = contains(_capped(stack, *caps), pi)
                    assert fits_in_pi(shape, r, pc, caps) == expected, (
                        shape,
                        r,
                        osc_id,
                        caps,
                    )


# ------------------------------------------------------------ k-range rows


def test_raw_min_k_frozen_rows():
    rows = {
        "3 1 4 2": {"Single21": 2, "Plain": 2, "LeftCapped": 2,
                    "RightCapped": 2, "BothCapped": 2},
        "3 1 5 2 6 4": {"Single21": 3, "Plain": 3, "LeftCapped": 3,
                        "RightCapped": 3, "BothCapped": 3},
        "3 1 5 2 4": {"Single21": 11, "Plain": 3, "LeftCapped": 3,
                      "RightCapped": 2, "BothCapped": 2},
        "2 4 1 5 3": {"Single21": 11, "Plain": 3, "LeftCapped": 2,
                      "RightCapped": 3, "BothCapped": 2},
        "2 4 1 6 3 5": {"Single21": 11, "Plain": 4, "LeftCapped": 3,
                        "RightCapped": 3, "BothCapped": 2},
    }
    for sigma_str, expected in rows.items():
        sigma = P(sigma_str)
        got = {kind: raw_min_k(sigma, kind, 11) for kind in SHAPE_KINDS}
        assert got == expected, sigma_str


def test_raw_min_k_sentinel_forces_empty_ranges():
    # rows that can never hold return the upper bound's length so that any
    # k-range built from them is empty
    for sigma_str in ("3 1 5 2 4", "2 4 1 5 3", "2 4 1 6 3 5"):
        assert raw_min_k(P(sigma_str), "Single21", 25) == 25


def test_effective_min_k_matches_matcher_derived_minimum():
    # smallest in-domain block count whose realized shape contains sigma,
    # compared against the inequality row combined with the domain floor
    for n in range(4, 9):
        for kind_sigma in "WM":
            sigma = oscillation(OscillationId(kind_sigma, n))
            for shape_kind in SHAPE_KINDS:
                lo = SHAPE_DOMAIN_MIN[shape_kind]
                hi = 1 if shape_kind == "Single21" else 10
                matcher_min = None
                for k in range(lo, hi + 1):
                    if contains(sigma, realize_shape(Shape(shape_kind, k))):
                        matcher_min = k
                        break
                effective = max(raw_min_k(sigma, shape_kind, 50), lo)
                if matcher_min is None:
                    assert effective > hi, (sigma, shape_kind)
                else:
                    assert effective == matcher_min, (sigma, shape_kind)


def test_max_k_frozen_rows():
    w9 = pi_class_of(OscillationId("W", 9))
    m8 = pi_class_of(OscillationId("M", 8))
    assert {kind: max_k(kind, w9) for kind in SHAPE_KINDS} == {
        "Single21": 1,
        "Plain": 4,
        "LeftCapped": 3,
        "RightCapped": 3,
        "BothCapped": 3,
    }
    assert {kind: max_k(kind, m8) for kind in SHAPE_KINDS} == {
        "Single21": 1,
        "Plain": 3,
        "LeftCapped": 3,
        "RightCapped": 3,
        "BothCapped": 2,
    }


def test_max_k_leaves_out_exactly_the_upper_bounds_own_shape():
    # length 2 is the bare 21, and length 1 realizes no shape
    assert classify_oscillation(oscillation(OscillationId("W", 2))) == Shape("Single21")
    assert classify_oscillation(oscillation(OscillationId("W", 1))) is None
    for cls_kind in ("W_even", "W_odd", "M_even", "M_odd"):
        for n in range(1, 201):
            pc = PiClass(cls_kind, n)
            upper = oscillation(pc.oscillation_id)
            own = classify_oscillation(upper)
            # a shape is left out when the block count past max_k still fits
            left_out = set()
            for kind in SHAPE_KINDS:
                k = max(max_k(kind, pc) + 1, SHAPE_DOMAIN_MIN[kind])
                if (kind != "Single21" or k == 1) and fits_in_pi(Shape(kind, k), 1, pc):
                    left_out.add(kind)
                    # the member left out is the upper bound itself
                    assert realize_shape(Shape(kind, k)) == upper, (pc, kind)
            assert left_out == (set() if own is None else {own.kind}), pc


# ------------------------------------------------------------------- ranks


def test_min_r_osc_frozen_values():
    w9 = pi_class_of(OscillationId("W", 9))
    assert oscillation_fast._rank_and_weight("Plain", 2, w9)[0] == 2
    assert oscillation_fast._rank_and_weight("Plain", 4, w9)[0] == 1


def test_min_r_osc_agrees_with_the_general_rank():
    for kind_pi in "WM":
        for n in range(6, 14):
            osc_id = OscillationId(kind_pi, n)
            pc = pi_class_of(osc_id)
            pi = oscillation(osc_id)
            for shape in _shapes(5):
                alpha = realize_shape(shape)
                if len(alpha.values) >= len(pi.values):
                    continue
                if not contains(alpha, pi):
                    continue
                r = oscillation_fast._rank_and_weight(shape.kind, shape.k, pc)[0]
                assert r == min_r_general(alpha, pi), (shape, osc_id)


# ----------------------------------------------------------------- weights


def test_weight_osc_reproduces_the_worked_example_column():
    w9 = pi_class_of(OscillationId("W", 9))
    expected = {
        ("Plain", 2): 1,
        ("Plain", 3): -1,
        ("Plain", 4): -1,
        ("LeftCapped", 2): -1,
        ("LeftCapped", 3): -1,
        ("RightCapped", 2): 1,
        ("RightCapped", 3): -1,
        ("BothCapped", 2): -1,
        ("BothCapped", 3): -1,
    }
    got = {
        (kind, k): oscillation_fast._rank_and_weight(kind, k, w9)[1]
        for kind, k in expected
    }
    assert got == expected


# ------------------------------------------------------------------ values


def test_fast_path_frozen_values():
    assert mobius_oscillation(P("1"), P("24153")) == 6
    assert mobius_oscillation(P("3142"), P("315274968")) == -6
    assert mobius_oscillation(P("21"), P("3142")) == 3


def test_fast_path_accepts_class_ids_directly():
    assert mobius_oscillation(P("1"), OscillationId("W", 30)) == -177
    assert mobius_oscillation(P("1"), OscillationId("W", 5)) == mobius_naive(
        P("1"), oscillation(OscillationId("W", 5))
    )


def test_fast_path_matches_oracle_on_every_small_oscillation():
    seen = set()
    for kind in "WM":
        for n in range(4, 10):
            pi = oscillation(OscillationId(kind, n))
            if pi in seen:
                continue
            seen.add(pi)
            for sigma, expected in mobius_naive_column(pi).items():
                if not sigma.values or not is_sum_indecomposable(sigma):
                    continue
                assert mobius_oscillation(sigma, pi) == expected, (sigma, pi)


def test_fast_path_preconditions():
    with pytest.raises(NotAnOscillation):
        mobius_oscillation(P("2143"), P("315274968"))
    with pytest.raises(NotAnOscillation):
        mobius_oscillation(P("1"), P("1234"))


def test_fast_path_equates_the_two_kinds_at_lengths_one_and_two():
    # W_1 = M_1 = 1 and W_2 = M_2 = 21
    assert mobius_oscillation(P("21"), OscillationId("M", 2)) == 1
    assert mobius_oscillation(P("1"), OscillationId("M", 1)) == 1
    assert mobius_oscillation(P("1"), OscillationId("M", 2)) == -1


def test_fast_path_inverse_symmetry_across_orientations():
    sigmas = [
        P(s)
        for s in ("1", "21", "312", "231", "3142", "2413", "31524", "24153",
                  "315264", "241635")
    ]
    for n in range(4, 31):
        w_id = OscillationId("W", n)
        m_id = OscillationId("M", n)
        w_perm = oscillation(w_id)
        for sigma in sigmas:
            if not contains(sigma, w_perm):
                with pytest.raises(NotContained):
                    mobius_oscillation(sigma, w_id)
                with pytest.raises(NotContained):
                    mobius_oscillation(inverse(sigma), m_id)
                continue
            assert mobius_oscillation(sigma, w_id) == mobius_oscillation(
                inverse(sigma), m_id
            ), (sigma, n)


# ------------------------------------------------------------------ series


def test_principal_mu_series_prefix_and_indexing():
    series = principal_mu_series(12)
    assert series == [0, 1, -1, 1, -3, 6, -9, 11, -15, 19, -21, 23, -36]
    for n in range(1, 13):
        assert series[n] == mobius_naive(P("1"), oscillation(OscillationId("W", n)))


def test_principal_mu_series_extends_the_fast_path():
    series = principal_mu_series(40)
    for n in (14, 20, 30, 40):
        assert series[n] == mobius_oscillation(P("1"), OscillationId("W", n))


# ------------------------------------------------------------------- trace


def test_trace_rows_for_the_worked_example():
    lines = trace_oscillation(P("3142"), P("315274968"))
    assert lines == [
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
    ]


def test_trace_marks_empty_shape_ranges():
    lines = trace_oscillation(P("21"), oscillation(OscillationId("W", 4)))
    assert "shape=Plain no possibilities" in lines
    assert "shape=BothCapped no possibilities" in lines
    assert "alpha=2 1 r=1 weight=-1 mu=1" in lines


# ---------------------------------------------------------- divisor scan


@pytest.mark.parametrize(
    "block_min", [oscillation_fast._BLOCK_MIN, 1], ids=["default", "small"]
)
def test_divisor_scan_matches_the_per_block_count_recursion(monkeypatch, block_min):
    # every oscillation sigma of length 2..12, both upper-bound kinds, on a
    # cleared memo: once queried in ascending order, once with W_150 first;
    # with a small _BLOCK_MIN every extension past the head takes the block
    # form
    monkeypatch.setattr(oscillation_fast, "_BLOCK_MIN", block_min)
    top = 150
    sigmas = []
    for length in range(2, 13):
        for kind in "WM":
            sigma = oscillation(OscillationId(kind, length))
            if sigma not in sigmas:
                sigmas.append(sigma)
    assert len(sigmas) == 21
    for sigma in sigmas:
        expected = mobius_osc_ref(sigma.values, top)
        ids = [
            OscillationId(kind, n)
            for n in range(len(sigma), top + 1)
            for kind in "WM"
            if n > len(sigma) or oscillation(OscillationId(kind, n)) == sigma
        ]
        for order in (ids, [OscillationId("W", top)] + ids):
            clear_oscillation_memo()
            got = {(id.kind, id.n): mobius_oscillation(sigma, id) for id in order}
            want = {key: expected[key] for key in got}
            assert got == want, sigma


def _by_lengths(monkeypatch, compute):
    """compute() on a cleared memo and series, with every extension on the
    per-length form, then the same at the default _BLOCK_MIN."""
    results = []
    for block_min in (10**9, oscillation_fast._BLOCK_MIN):
        with monkeypatch.context() as m:
            m.setattr(oscillation_fast, "_BLOCK_MIN", block_min)
            m.setattr(oscillation_fast, "_principal", [0, 1, -1, 1])
            clear_oscillation_memo()
            results.append(compute())
    clear_oscillation_memo()
    return results


def _row(sigma, top):
    """mu(sigma, W_n) and mu(sigma, M_n) for every n up to top."""
    mobius_oscillation(sigma, OscillationId("W", top))
    return [
        mobius_oscillation(sigma, OscillationId(kind, n))
        for n in range(len(sigma) + 2, top + 1)
        for kind in "WM"
    ]


def test_the_block_form_equals_the_per_length_form(monkeypatch):
    # sigma = 1 to 30,000 and every oscillation class W_2..W_9, M_3..M_9
    # to 3000, cold: a per-length head, then blocks doubling in length
    # (thirteen for sigma = 1)
    per_length, by_blocks = _by_lengths(monkeypatch, lambda: principal_mu_series(30000))
    assert per_length == by_blocks
    sigmas = [
        oscillation(OscillationId(kind, length))
        for length in range(2, 10)
        for kind in "WM"
        if kind == "W" or length > 2
    ]
    assert len(sigmas) == 15
    per_length, by_blocks = _by_lengths(
        monkeypatch, lambda: [_row(sigma, 3000) for sigma in sigmas]
    )
    assert per_length == by_blocks


@pytest.mark.parametrize("exact", [0, 10**6], ids=["no-block", "some-blocks"])
def test_the_python_int_near_solve_gives_the_same_values(monkeypatch, exact):
    want_series = principal_mu_series(20000)
    w5 = oscillation(OscillationId("W", 5))
    clear_oscillation_memo()
    want_row = _row(w5, 3000)
    solves = []
    original = oscillation_fast._solve_near

    def recorded(values, kinds, lo, fars):
        solves.append((kinds, lo, fars[kinds[0]].dtype.kind))
        return original(values, kinds, lo, fars)

    # At 0 no block passes the int64 check.  At 10^6 the early blocks do;
    # the one whose values first pass 10^6 is solved on int64, fails the
    # check and is solved again on Python ints, and so is every later one.
    monkeypatch.setattr(oscillation_fast, "_solve_near", recorded)
    monkeypatch.setattr(oscillation_fast, "_INT64_EXACT", exact)
    monkeypatch.setattr(oscillation_fast, "_principal", [0, 1, -1, 1])
    clear_oscillation_memo()
    assert principal_mu_series(20000) == want_series
    assert _row(w5, 3000) == want_row
    on_objects = {(kinds, lo) for kinds, lo, dtype in solves if dtype == "O"}
    assert solves[-1][2] == "O"
    if exact:
        retried = {(kinds, lo) for kinds, lo, dtype in solves if dtype == "i"} & on_objects
        assert retried
    else:
        assert len(on_objects) == len(solves)
    clear_oscillation_memo()


def _expand(minus, plus):
    """The coefficients of (1 - z)^minus (1 + z)^plus, lowest power first."""
    poly = [1]
    for sign in (-1,) * minus + (1,) * plus:
        poly = [a + sign * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


def _near_terms(values, kinds, cls, parity):
    """The near terms of the block form at a length of the given parity,
    derived from the chain table: for each kind, {(member kind, lag):
    coefficient} with the kind's own value (lag 0) included.

    At length n of parity p the chain member of copy cost v in {t, t - 2}
    (t = n + p - b) has length v + offset = n - lag; the upper bound's own
    member (v = t in its own chain) is not summed.
    """
    names = {id(values["M"]): "M", id(values["W"]): "W"}  # one list for sigma = 1: W
    system = {}
    for kind in kinds:
        pi_kind = oscillation_fast._upper_class(kind, parity)
        coefs = {(kind, 0): 1}
        for shape_kind, member, offset, _ in oscillation_fast._chains(values, cls):
            b = oscillation_fast._B_OFFSET.get((shape_kind, pi_kind), 0)
            for shift, sign in ((0, 1), (2, -1)):
                if shift == 0 and shape_kind == oscillation_fast._OWN_CHAIN[pi_kind]:
                    continue
                key = (names[id(member)], b + shift - parity - offset)
                coefs[key] = coefs.get(key, 0) + sign
        system[kind] = {key: coef for key, coef in coefs.items() if coef}
    return system


def test_the_near_system_follows_from_the_chain_table():
    def terms(poly, kind):
        return {(kind, lag): coef for lag, coef in enumerate(poly) if coef}

    own, cross = oscillation_fast._NEAR_OWN, oscillation_fast._NEAR_CROSS
    # W + M and W - M each take one product of (1 - z) and (1 + z) factors
    pairs = list(zip(own, cross))
    assert _expand(*oscillation_fast._NEAR_SUM) == tuple(a + b for a, b in pairs)
    assert _expand(*oscillation_fast._NEAR_DIFF) == tuple(a - b for a, b in pairs)
    classes = [
        pi_class_of(OscillationId(kind, length))
        for length in range(2, 10)
        for kind in "WM"
        if kind == "W" or length > 2
    ]
    assert {cls.kind for cls in classes} == {"W_even", "W_odd", "M_even", "M_odd"}
    values = {"W": [], "M": []}
    for cls in classes:
        for parity in (0, 1):
            system = _near_terms(values, "WM", cls, parity)
            assert system == {
                "W": {**terms(own, "W"), **terms(cross, "M")},
                "M": {**terms(own, "M"), **terms(cross, "W")},
            }
    # sigma = 1: one list, x[n] + 2 x[n-1] - 2 x[n-3] - x[n-4] = -far[n]
    mu = []
    for parity in (0, 1):
        system = _near_terms({"W": mu, "M": mu}, "W", None, parity)
        assert system == {"W": terms((1, 2, 0, -2, -1), "W")}


def test_the_block_form_builds_no_divisor_table_past_its_head(monkeypatch):
    monkeypatch.setattr(oscillation_fast, "_principal", [0, 1, -1, 1])
    monkeypatch.setattr(oscillation_fast, "_divisors", [])
    series = principal_mu_series(20000)
    assert series[:13] == [0, 1, -1, 1, -3, 6, -9, 11, -15, 19, -21, 23, -36]
    # the per-length head covers lengths 4..7 and reads the lists of
    # v <= 11; the per-length form alone builds the table past 20,000
    assert len(oscillation_fast._divisors) <= 16


def test_one_more_length_past_a_long_fill_builds_no_divisor_table(monkeypatch):
    monkeypatch.setattr(oscillation_fast, "_divisors", [])
    monkeypatch.setattr(oscillation_fast, "_principal", [0, 1, -1, 1])
    principal_mu_series(100_000)
    extended = principal_mu_series(100_001)
    # the per-length form would build the table past 100,000 for one length
    assert len(oscillation_fast._divisors) <= 2 * oscillation_fast._BLOCK_MIN + 8
    monkeypatch.setattr(oscillation_fast, "_principal", [0, 1, -1, 1])
    assert extended == principal_mu_series(100_001)


@pytest.mark.parametrize(
    "n_max, guard", [(300, 10**4), (20000, 10**7)], ids=["per-length", "block"]
)
def test_the_overflow_guard_holds_on_both_forms(monkeypatch, n_max, guard):
    # 300 lengths take the per-length form, 20,000 the block form
    assert 300 < oscillation_fast._BLOCK_MIN < 20000
    want = principal_mu_series(n_max)
    store = [0, 1, -1, 1]
    monkeypatch.setattr(oscillation_fast, "_principal", store)
    monkeypatch.setattr(oscillation_fast, "_INT64_GUARD", guard)
    with pytest.raises(Overflow):
        principal_mu_series(n_max)
    # the store holds only values that passed the check
    assert 4 < len(store) < n_max + 1
    assert store == want[: len(store)]
    assert all(abs(x) < guard for x in store)
    monkeypatch.undo()
    monkeypatch.setattr(oscillation_fast, "_principal", store)
    assert principal_mu_series(n_max) == want


@pytest.mark.parametrize("block_min", [None, 1], ids=["per-length", "block"])
def test_the_overflow_guard_cuts_a_row_back_to_its_exact_prefix(monkeypatch, block_min):
    # mu(M_5, M_n) first reaches 1000 at n = 93, mu(M_5, W_n) at n = 96, so
    # the W list holds values past the M list's when the guard trips: the
    # per-length form stores W at 93 before M trips, and the block form
    # stores W's block before M's
    sigma = oscillation(OscillationId("M", 5))
    n_max, guard = 300, 1000
    want = mobius_osc_ref(sigma.values, n_max)
    clear_oscillation_memo()
    if block_min is not None:
        monkeypatch.setattr(oscillation_fast, "_BLOCK_MIN", block_min)
    monkeypatch.setattr(oscillation_fast, "_INT64_GUARD", guard)
    with pytest.raises(Overflow):
        mobius_oscillation(sigma, OscillationId("W", n_max))
    row = oscillation_fast._lower_rows[sigma.values]
    assert 7 < len(row["W"]) == len(row["M"]) <= 93
    for kind in "WM":
        stored = row[kind][7:]
        assert stored == [want[kind, n] for n in range(7, len(row[kind]))]
        assert all(abs(x) < guard for x in stored)
    monkeypatch.undo()
    assert _row(sigma, n_max) == [
        want[kind, n] for n in range(7, n_max + 1) for kind in "WM"
    ]
    clear_oscillation_memo()


def test_a_row_answers_only_from_two_lengths_past_its_lower_bound():
    w5 = oscillation(OscillationId("W", 5))
    clear_oscillation_memo()
    mobius_oscillation(w5, OscillationId("W", 40))
    # the row's slots 0..6 are placeholders of the scan
    assert len(oscillation_fast._lower_rows[w5.values]["M"]) == 41
    for n in (3, 5):
        with pytest.raises(NotContained):
            mobius_oscillation(w5, OscillationId("M", n))
    assert mobius_oscillation(w5, OscillationId("W", 5)) == 1
    assert mobius_oscillation(w5, OscillationId("W", 6)) == -1
    assert mobius_oscillation(w5, OscillationId("M", 6)) == -1
    # ascending queries extend the same two lists in place
    w4 = oscillation(OscillationId("W", 4))
    expected = mobius_osc_ref(w4.values, 100)
    assert mobius_oscillation(w4, OscillationId("W", 6)) == expected["W", 6]
    row = oscillation_fast._lower_rows[w4.values]
    lists = (row["W"], row["M"])
    for n in range(7, 101):
        assert mobius_oscillation(w4, OscillationId("W", n)) == expected["W", n]
    assert oscillation_fast._lower_rows[w4.values] is row
    assert all(a is b for a, b in zip((row["W"], row["M"]), lists))
    assert len(row["W"]) == len(row["M"]) == 101
    clear_oscillation_memo()


def test_a_repeat_query_runs_no_recognizer(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return oscillation_id(p)

    want_series = principal_mu_series(300)
    w5 = oscillation(OscillationId("W", 5))
    expected = mobius_osc_ref(w5.values, 100)
    monkeypatch.setattr(oscillation_fast, "oscillation_id", counted)
    clear_oscillation_memo()
    for n in range(7, 101):
        for kind in "WM":
            assert mobius_oscillation(w5, OscillationId(kind, n)) == expected[kind, n]
    # one call, when the row is made with its scan plan; every later
    # length extends the row by its kept plan
    assert calls == [w5]
    calls.clear()
    monkeypatch.setattr(oscillation_fast, "_principal", [0, 1, -1, 1])
    one = Permutation((1,))
    series = [mobius_oscillation(one, OscillationId("W", n)) for n in range(1, 301)]
    assert calls == []
    assert series == want_series[1:]
    clear_oscillation_memo()


def test_the_principal_row_follows_the_series_list(monkeypatch):
    # sigma = 1's row keeps its plan between extensions, and is made again
    # for each new list _principal names
    want = principal_mu_series(400)
    one = Permutation((1,))
    for _ in range(2):
        store = [0, 1, -1, 1]
        monkeypatch.setattr(oscillation_fast, "_principal", store)
        assert principal_mu_series(200) == want[:201]
        for n in range(201, 401):
            assert mobius_oscillation(one, OscillationId("M", n)) == want[n]
        assert oscillation_fast._lower_rows[(1,)]["W"] is store
        assert len(store) == 401
    clear_oscillation_memo()


def test_query_order_does_not_change_values():
    # the lower bounds of the osc_lower benchmark, each row filled
    # ascending (kinds alternating), descending and in a seeded shuffle
    top = 150
    for kind in "WM":
        for length in range(3, 9):
            sigma = oscillation(OscillationId(kind, length))
            expected = mobius_osc_ref(sigma.values, top)
            ascending = [
                OscillationId(upper, n)
                for n in range(length, top + 1)
                for upper in "WM"
                if n > length or upper == kind
            ]
            shuffled = list(ascending)
            random.Random(length).shuffle(shuffled)
            for order in (ascending, ascending[::-1], shuffled):
                clear_oscillation_memo()
                for id in order:
                    got = mobius_oscillation(sigma, id)
                    assert got == expected[id.kind, id.n], (sigma, id)
    clear_oscillation_memo()


def test_the_overflow_guard_cuts_a_one_length_extension_back(monkeypatch):
    # ascending queries extend M_5's row one length at a time; at n = 93
    # mu(M_5, M_n) first reaches the guard of 1000, after the W value of
    # that length is stored, so the extension is cut back to n = 92
    sigma = oscillation(OscillationId("M", 5))
    want = mobius_osc_ref(sigma.values, 300)
    clear_oscillation_memo()
    monkeypatch.setattr(oscillation_fast, "_INT64_GUARD", 1000)
    for n in range(7, 93):
        for kind in "WM":
            assert mobius_oscillation(sigma, OscillationId(kind, n)) == want[kind, n]
    with pytest.raises(Overflow):
        mobius_oscillation(sigma, OscillationId("W", 93))
    row = oscillation_fast._lower_rows[sigma.values]
    assert len(row["W"]) == len(row["M"]) == 93
    monkeypatch.undo()
    for n in range(7, 301):
        for kind in "WM":
            assert mobius_oscillation(sigma, OscillationId(kind, n)) == want[kind, n]
    clear_oscillation_memo()


def _assert_recognized_as_the_reference(p):
    """oscillation_id, classify_oscillation and is_increasing_oscillation
    against the reference recognizer built from the interleave
    constructions (helpers.oscillation_ref)."""
    ref = oscillation_ref(p.values)
    if ref is None:
        assert (oscillation_id(p), classify_oscillation(p)) == (None, None), p
        assert not is_increasing_oscillation(p), p
        return
    shape, member = ref
    assert oscillation_id(p) == OscillationId(*member), p
    assert classify_oscillation(p) == (None if shape is None else Shape(*shape)), p
    assert is_increasing_oscillation(p), p


def test_oscillation_id_agrees_with_the_shape_classifier():
    for n in range(9):
        for values in itertools.permutations(range(1, n + 1)):
            _assert_recognized_as_the_reference(Permutation(values))
    # W_n / M_n to n = 300 and their one-transposition neighbours: every
    # one for n <= 12, past that those among the three first and three
    # last positions, where the two end adjustments sit
    for n in range(1, 301):
        ends = range(n) if n <= 12 else [0, 1, 2, n - 3, n - 2, n - 1]
        for kind in "WM":
            values = oscillation(OscillationId(kind, n)).values
            assert oscillation_id(Permutation(values)) == OscillationId(
                "W" if n <= 2 else kind, n
            )
            _assert_recognized_as_the_reference(Permutation(values))
            for i, j in itertools.combinations(ends, 2):
                swapped = list(values)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                _assert_recognized_as_the_reference(Permutation(swapped))


def test_ascending_queries_grow_the_divisor_table_a_logarithmic_number_of_times(
    monkeypatch,
):
    sigma = oscillation(OscillationId("W", 5))
    expected = mobius_osc_ref(sigma.values, 66)
    clear_oscillation_memo()
    monkeypatch.setattr(oscillation_fast, "_divisors", [])
    original = oscillation_fast._even_divisor_lists
    limits = []

    def counted(limit):
        limits.append(limit)
        return original(limit)

    monkeypatch.setattr(oscillation_fast, "_even_divisor_lists", counted)
    for n in range(7, 67):
        id = OscillationId("W", n)
        assert mobius_oscillation(sigma, id) == expected[("W", n)]
    assert 1 <= len(limits) <= 5
    assert all(b >= 2 * a for a, b in zip(limits, limits[1:]))
    # clearing the memo releases the table; the next scan rebuilds it once
    # and the values stay right
    builds = len(limits)
    clear_oscillation_memo()
    assert oscillation_fast._divisors == []
    assert mobius_oscillation(sigma, OscillationId("M", 40)) == expected[("M", 40)]
    assert len(limits) == builds + 1
