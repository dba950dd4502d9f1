"""Contributing-set engine, decomposition recursions, and the dispatcher."""

from __future__ import annotations

import gc
import itertools
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

from permmobius import (
    EMPTY,
    EmptyOperand,
    MobiusCache,
    MobiusEngine,
    NotAnOscillation,
    OscillationId,
    Permutation,
    PreconditionViolation,
    TooLarge,
    complement,
    contains,
    direct_sum,
    downset,
    family_sum,
    interval,
    inverse,
    is_identity,
    is_reverse_identity,
    is_sum_indecomposable,
    iterated_sum,
    min_r_general,
    mobius,
    mobius_naive,
    mobius_naive_column,
    mobius_oscillation,
    oscillation,
    parse_permutation,
    principal_mu_series,
    reverse,
    skew_sum,
    weight_general,
)
from permmobius import engine as engine_module
from permmobius import perms, poset

from helpers import all_perm_tuples, standardize_ref

P = parse_permutation
ONE = P("1")
TWO_ONE = P("21")


def _shifted(vals, by):
    return tuple(v + by for v in vals)


def _capped_stack(alpha: Permutation, r: int) -> Permutation:
    stack = iterated_sum(alpha, r)
    return Permutation((1,) + _shifted(stack.values, 1) + (len(stack.values) + 2,))


# ---------------------------------------------------------- min_r_general


def test_min_r_counts_strictly_below_capped_stacks():
    # 1324 is itself the capped single-copy stack of 21; a stack equal to
    # the upper bound lies outside the half-open interval, so r = 1.
    assert min_r_general(TWO_ONE, P("1324")) == 1
    assert min_r_general(P("3142"), P("315274968")) == 2


def test_min_r_is_the_least_rank_whose_capped_stack_escapes():
    upper_bounds = [P("315274968"), P("24163857"), P("1324"), P("214365")]
    for pi in upper_bounds:
        alphas = {
            member
            for _, member, _ in interval(TWO_ONE, pi).rows()
            if 0 < len(member.values) < len(pi.values)
            and is_sum_indecomposable(member)
        }
        alphas.add(TWO_ONE)
        for alpha in alphas:
            r = min_r_general(alpha, pi)
            capped = _capped_stack(alpha, r)
            assert not (
                len(capped.values) < len(pi.values) and contains(capped, pi)
            )
            for lower in range(1, r):
                capped = _capped_stack(alpha, lower)
                assert len(capped.values) < len(pi.values)
                assert contains(capped, pi)


def test_rank_and_weight_of_an_empty_alpha_are_refused():
    with pytest.raises(EmptyOperand):
        min_r_general(EMPTY, P("2413"))
    with pytest.raises(EmptyOperand):
        weight_general(ONE, EMPTY, P("2413"))


# --------------------------------------------------------- weight_general


WEIGHT_CASES = [
    # (sigma, alpha, pi, expected weight): one per containment pattern of
    # {1+stack, stack+1, (r+1)-stack} relative to the upper bound.
    ("1", "21", "21543", 0),   # all three stay strictly below
    ("1", "21", "1324", -1),   # both capped forms in, taller stack out
    ("1", "21", "1243", 0),    # only the left-capped form stays in
    ("1", "21", "2134", 0),    # only the right-capped form stays in
    ("21", "21", "321", 1),    # none of the three stay in
]


@pytest.mark.parametrize("sigma,alpha,pi,expected", WEIGHT_CASES)
def test_weight_general_reproduces_each_containment_pattern(
    sigma, alpha, pi, expected
):
    assert weight_general(P(sigma), P(alpha), P(pi)) == expected


@pytest.mark.parametrize("sigma,alpha,pi,expected", WEIGHT_CASES)
def test_weighted_families_carry_the_full_tower_contribution(
    sigma, alpha, pi, expected
):
    # Summing mu(sigma, .) over every member of every capped family built
    # from alpha that lies in the half-open interval recovers the product
    # mu(sigma, alpha) * weight.
    sigma_p, alpha_p, pi_p = P(sigma), P(alpha), P(pi)
    total = 0
    r = 1
    while True:
        stack = iterated_sum(alpha_p, r)
        if len(stack.values) > len(pi_p.values):
            break
        for member in family_sum(stack):
            if member != pi_p and contains(member, pi_p):
                total += mobius_naive(sigma_p, member)
        r += 1
    assert total == mobius_naive(sigma_p, alpha_p) * weight_general(
        sigma_p, alpha_p, pi_p
    )


# ------------------------------------------------------- contributing_set


def test_contributing_set_for_the_worked_example(engine):
    got = {
        (str(wc.alpha), wc.r, wc.weight)
        for wc in engine.contributing_set(P("3142"), P("315274968"))
    }
    assert got == {
        ("2 4 1 5 3", 1, -1),
        ("2 4 1 6 3 5", 1, -1),
        ("3 1 5 2 6 4", 1, -1),
        ("2 4 1 6 3 7 5", 1, 1),
        ("3 1 5 2 7 4 6", 1, -1),
        ("2 4 1 6 3 8 5 7", 1, 1),
        ("3 1 5 2 7 4 8 6", 1, 1),
    }


def test_contributing_set_members_are_indecomposable_and_contained(engine):
    sigma, pi = P("21"), P("241635")
    for wc in engine.contributing_set(sigma, pi):
        assert is_sum_indecomposable(wc.alpha)
        assert contains(sigma, wc.alpha)
        assert contains(wc.alpha, pi)
        assert wc.weight in (-1, 1)
        assert wc.r >= 1


def test_contributing_set_agrees_with_the_matcher_rank_and_weight(engine):
    # The candidate list tests alpha's direct-sum family against pi's
    # downset index; min_r_general and weight_general test it with the
    # matcher.  Every alpha contains 1, so the lists must coincide.
    for n in range(1, 7):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            got = [
                (wc.alpha, wc.r, wc.weight)
                for wc in engine.contributing_set(ONE, pi)
            ]
            expected = []
            for length, members in downset(pi).items():
                if not 0 < length < n:
                    continue
                for alpha in members:
                    if not is_sum_indecomposable(alpha):
                        continue
                    w = weight_general(ONE, alpha, pi)
                    if w:
                        expected.append((alpha, min_r_general(alpha, pi), w))
            assert sorted(got, key=str) == sorted(expected, key=str), pi


# --------------------------------------------------------- mobius_theorem


def test_theorem_frozen_values(engine):
    assert engine.mobius_theorem(ONE, P("1324")) == -1
    assert engine.mobius_theorem(ONE, P("24153")) == 6
    assert engine.mobius_theorem(P("3142"), P("315274968")) == -6
    assert engine.mobius_theorem(TWO_ONE, P("3142")) == 3


def test_theorem_matches_oracle_exhaustively_to_length_6(engine):
    for n in range(4, 7):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            if is_identity(pi) or is_reverse_identity(pi):
                continue
            for sigma, expected in mobius_naive_column(pi).items():
                if not (0 < len(sigma.values) < n):
                    continue
                if not is_sum_indecomposable(sigma):
                    continue
                assert engine.mobius_theorem(sigma, pi) == expected, (sigma, pi)


def test_theorem_preconditions(engine):
    with pytest.raises(PreconditionViolation):
        engine.mobius_theorem(P("2143"), P("24153"))
    with pytest.raises(PreconditionViolation):
        engine.mobius_theorem(ONE, P("321"))
    with pytest.raises(PreconditionViolation):
        engine.mobius_theorem(ONE, P("1234"))
    with pytest.raises(PreconditionViolation):
        engine.mobius_theorem(ONE, P("4321"))


# ------------------------------------------------- decomposition formulas


def test_prop1_prop2_frozen_values(engine):
    assert engine.mobius_prop1(P("12"), P("132")) == -1
    assert engine.mobius_prop2(ONE, P("2143")) == -1


def test_prop1_prop2_match_oracle_to_length_6(engine):
    for n in range(2, 7):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            if is_sum_indecomposable(pi):
                continue
            route = (
                engine.mobius_prop1 if pi.values[0] == 1 else engine.mobius_prop2
            )
            for sigma, expected in mobius_naive_column(pi).items():
                if not sigma.values:
                    continue
                assert route(sigma, pi) == expected, (sigma, pi)


def test_cor3_agrees_with_prop2_for_indecomposable_lower_bounds(engine):
    for n in range(3, 7):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            if is_sum_indecomposable(pi) or pi.values[0] == 1:
                continue
            for sigma in mobius_naive_column(pi):
                if not sigma.values or not is_sum_indecomposable(sigma):
                    continue
                assert engine.mobius_cor3(sigma, pi) == engine.mobius_prop2(
                    sigma, pi
                ), (sigma, pi)


def test_prop2_asks_no_sub_query_longer_than_its_upper_bound(monkeypatch):
    # pi = 21 + 312 + 1: sigma = 123's third prefix is longer than the head
    sigma, pi = P("123"), P("215346")
    head = P("21")
    assert engine_module._query_route(sigma, pi, "auto")[0] == "prop2"
    calls = _count_calls(monkeypatch, MobiusEngine, "mobius")
    assert MobiusEngine().mobius(sigma, pi) == mobius_naive(sigma, pi) == -2
    assert (P("12"), head) in [call[1:3] for call in calls]
    assert (sigma, head) not in [call[1:3] for call in calls]
    assert all(len(call[1].values) <= len(call[2].values) for call in calls)


def test_prop_preconditions(engine):
    with pytest.raises(PreconditionViolation):
        engine.mobius_prop1(TWO_ONE, P("2143"))
    with pytest.raises(PreconditionViolation):
        engine.mobius_prop2(TWO_ONE, P("3142"))
    with pytest.raises(PreconditionViolation):
        engine.mobius_prop2(TWO_ONE, P("1324"))


# -------------------------------------------------------------- dispatcher


def test_dispatcher_basis_cases():
    assert mobius(EMPTY, EMPTY) == 1
    assert mobius(EMPTY, ONE) == -1
    assert mobius(EMPTY, TWO_ONE) == 0
    assert mobius(ONE, ONE) == 1
    assert mobius(P("321"), TWO_ONE) == 0
    assert mobius(P("312"), P("231")) == 0


def test_dispatcher_monotone_chains_evaluated_directly():
    assert mobius(ONE, P("12")) == -1
    assert mobius(ONE, P("12345")) == 0
    assert mobius(P("123"), P("1234")) == -1
    assert mobius(TWO_ONE, P("321")) == -1
    assert mobius(TWO_ONE, P("54321")) == 0
    assert mobius(P("4321"), P("54321")) == -1


def test_dispatcher_covering_pairs():
    pi = P("24153")
    for sigma in mobius_naive_column(pi):
        if len(sigma.values) == 4:
            assert mobius(sigma, pi) == -1


def test_dispatcher_matches_oracle_on_all_pairs_to_length_6():
    for n in range(1, 7):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            for sigma, expected in mobius_naive_column(pi).items():
                assert mobius(sigma, pi) == expected, (sigma, pi)


def test_auto_answers_every_pair_to_length_6_without_the_theorem():
    for n in range(1, 7):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            for sigma, expected in mobius_naive_column(pi).items():
                engine = MobiusEngine()
                assert engine.mobius(sigma, pi) == expected, (sigma, pi)
                assert engine.stats["theorem_calls"] == 0, (sigma, pi)


def test_dispatcher_engine_selection():
    sigma, pi = ONE, P("24153")
    assert mobius(sigma, pi, engine="naive") == 6
    assert mobius(sigma, pi, engine="general") == 6
    assert mobius(sigma, pi, engine="oscillation") == 6
    assert mobius(sigma, pi, engine="auto") == 6
    with pytest.raises(PreconditionViolation):
        mobius(sigma, pi, engine="bogus")
    with pytest.raises(NotAnOscillation):
        MobiusEngine().mobius(ONE, P("2143"), engine="oscillation")


def test_dispatcher_flags_the_uncovered_case(monkeypatch, engine):
    # a sum-decomposable lower bound under a sum-indecomposable upper bound
    # with a length gap beyond the covering shortcut: general answers it by
    # the complement rule, not by the oracle
    sigma, pi = P("2143"), P("315264")
    expected = mobius_naive(sigma, pi)
    naive = _count_every_binding(monkeypatch, poset.mobius_naive)
    assert engine.mobius(sigma, pi, engine="general") == expected
    assert naive == []


def test_engine_results_do_not_depend_on_cache_state():
    probes = [
        (ONE, P("24153")),
        (TWO_ONE, P("3142")),
        (P("312"), P("241635")),
        (P("2143"), P("214365")),
    ]
    warm = MobiusEngine()
    for sigma, pi in probes:
        first = warm.mobius(sigma, pi)
        assert warm.mobius(sigma, pi) == first
        assert MobiusEngine().mobius(sigma, pi) == first


def test_cached_auto_value_does_not_answer_for_another_engine(monkeypatch):
    # pi = 369258147 + 1: auto answers it by a component recursion (cor3),
    # whose value the cache keeps
    sigma, pi = P("21"), direct_sum(P("369258147"), ONE)
    with pytest.raises(NotAnOscillation):
        MobiusEngine().mobius(sigma, pi, engine="oscillation")
    warm = MobiusEngine()
    assert warm.mobius(sigma, pi) == 6
    with pytest.raises(NotAnOscillation):
        warm.mobius(sigma, pi, engine="oscillation")
    # the explicit query reads no auto-keyed entry and keeps its own value
    # under its own engine
    auto_key = (sigma.values, pi.values, "auto")
    assert warm.cache.get(auto_key) == 6
    gets = _count_calls(monkeypatch, MobiusCache, "get")
    assert warm.mobius(sigma, pi, engine="general") == 6
    assert gets and all(key[2] == "general" for _, key in gets)
    assert warm.cache.get((sigma.values, pi.values, "general")) == 6


def test_tiny_cache_budget_still_computes_correct_values(monkeypatch):
    monkeypatch.setattr(engine_module, "_CACHE_BYTES", 2048)
    engine = MobiusEngine()
    for n in range(4, 6):
        for pv in itertools.islice(all_perm_tuples(n), 40):
            pi = Permutation(pv)
            for sigma, expected in mobius_naive_column(pi).items():
                assert engine.mobius(sigma, pi) == expected
    assert 0 < engine.cache._bytes <= 2048


def test_the_cache_budget_counts_the_bytes_its_entries_hold():
    rng = random.Random(7)
    cache = MobiusCache()
    keys = []
    for _ in range(20_000):
        sigma, pi = list(range(1, 7)), list(range(1, 13))
        rng.shuffle(sigma)
        rng.shuffle(pi)
        keys.append((tuple(sigma), tuple(pi), "general"))
    tracemalloc.start()
    try:
        for i, key in enumerate(keys):
            cache.put(key, 1000 + i)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the entries' own tuples, built before tracing, count too (the engine
    # name is one shared string)
    tuples = itertools.chain(keys, *(key[:2] for key in keys))
    held += sum(map(sys.getsizeof, tuples))
    assert 0.8 < cache._bytes / held < 1.25


def test_direct_sum_upper_bounds_route_through_decomposition(engine):
    pi = direct_sum(P("312"), P("21"))
    for sigma, expected in mobius_naive_column(pi).items():
        assert engine.mobius(sigma, pi) == expected


def test_oscillation_upper_bounds_past_255_points_are_answered():
    w300 = OscillationId("W", 300)
    pi = oscillation(w300)
    for sigma in (ONE, oscillation(OscillationId("W", 5))):
        expected = mobius_oscillation(sigma, w300)
        for name in ("auto", "oscillation"):
            assert MobiusEngine().mobius(sigma, pi, engine=name) == expected, name
    assert mobius_oscillation(ONE, w300) == principal_mu_series(300)[300]


def test_every_route_that_enumerates_refuses_past_the_downset_cap(monkeypatch):
    # pi has 154 patterns; general takes the theorem route on it.
    sigma, pi = TWO_ONE, P("314729586")
    poset._downset_ctx.cache_clear()
    monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", 153)
    capped = MobiusEngine()
    refusals = []
    for query in (
        lambda: capped.mobius(sigma, pi, engine="auto"),
        lambda: capped.mobius(sigma, pi, engine="general"),
        lambda: capped.mobius(sigma, pi, engine="naive"),
        lambda: capped.contributing_set(sigma, pi),
        lambda: interval(sigma, pi),
        lambda: downset(pi),
        lambda: mobius_naive_column(pi),
    ):
        with pytest.raises(TooLarge) as info:
            query()
        refusals.append(str(info.value))
    assert refusals == ["upper bound of length 9 has over 153 patterns"] * 7
    monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", 154)
    wide = MobiusEngine()
    assert [
        wide.mobius(sigma, pi, engine=name) for name in ("auto", "general", "naive")
    ] == [-11, -11, -11]


def test_the_theorem_route_answers_past_length_12():
    pi = P("3 1 4 7 2 9 5 11 6 13 8 10 12")
    assert [
        MobiusEngine().mobius(TWO_ONE, pi, engine=name)
        for name in ("auto", "general", "naive")
    ] == [-21, -21, -21]


def _w(n: int) -> Permutation:
    return oscillation(OscillationId("W", n))


# W_13 has 1081 patterns and W_7 skew-summed with W_8 has 3249.
@pytest.mark.parametrize(
    "sigma, pi, expected",
    [
        (P("12"), _w(13), -161),
        (P("132"), _w(13), 125),
        (P("213"), _w(13), 125),
        (P("2143"), _w(13), -95),
        (ONE, skew_sum(_w(7), _w(8)), 0),
    ],
    ids=["12-W13", "132-W13", "213-W13", "2143-W13", "1-W7skewW8"],
)
def test_upper_bounds_within_the_member_bound_are_answered(sigma, pi, expected):
    engine = MobiusEngine()
    assert [
        engine.mobius(sigma, pi, engine=name) for name in ("naive", "auto", "general")
    ] == [expected] * 3


def test_symmetric_images_of_long_oscillations_reach_the_fast_path():
    # reverse and complement of W_n / M_n are sum- and skew-indecomposable,
    # so only the complement of the pair is an oscillation route; the
    # oracle would refuse each of these upper bounds
    for n, expected in ((30, -177), (40, -360), (300, -22500)):
        for kind in ("W", "M"):
            pi = oscillation(OscillationId(kind, n))
            for image in (
                perms.reverse(pi),
                complement(pi),
                perms.inverse(pi),
                complement(perms.reverse(pi)),
            ):
                assert MobiusEngine().mobius(ONE, image) == expected, (kind, n)
    w5, m20 = _w(5), oscillation(OscillationId("M", 20))
    assert MobiusEngine().mobius(perms.reverse(w5), perms.reverse(m20)) == -36
    assert MobiusEngine().mobius(w5, m20) == -36
    with pytest.raises(TooLarge):
        poset.DownsetContext(perms.reverse(_w(30)))


def test_long_oscillation_in_oscillation_reaches_the_fast_path():
    w1200, w1300 = OscillationId("W", 1200), OscillationId("W", 1300)
    sigma = oscillation(w1200)
    assert MobiusEngine().mobius(sigma, oscillation(w1300)) == mobius_oscillation(
        sigma, w1300
    )


def _patch_every_binding(monkeypatch, original, replacement) -> None:
    """Replace every binding of original in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "permmobius" or name.startswith("permmobius."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _count_every_binding(monkeypatch, original) -> list:
    """Replace every binding of original in the package's modules by a
    wrapper that records each call's arguments."""
    calls: list = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    _patch_every_binding(monkeypatch, original, counted)
    return calls


def test_an_auto_oscillation_query_classifies_each_bound_once(monkeypatch):
    # W_9's decomposition keeps its id once looked up; start without it
    perms._decomposition.cache_clear()
    sigma, w9 = P("3142"), OscillationId("W", 9)
    expected = mobius_oscillation(sigma, w9)  # warms the memo
    # oscillation_id is the one oscillation classifier
    calls = _count_every_binding(monkeypatch, perms.oscillation_id)
    assert MobiusEngine().mobius(sigma, oscillation(w9)) == expected
    assert calls == [(oscillation(w9),), (sigma,)]


def test_a_memo_hit_classifies_nothing(monkeypatch):
    sigma, w9 = P("3142"), OscillationId("W", 9)
    expected = mobius_oscillation(sigma, w9)
    calls = _count_every_binding(monkeypatch, perms.oscillation_id)
    # only validated lower bounds are stored, so the hit needs no check
    assert mobius_oscillation(sigma, w9) == expected
    assert calls == []


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call's arguments."""
    original = getattr(owner, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_general_solves_inside_one_context_without_cache_or_fast_path(monkeypatch):
    sigma, w9 = TWO_ONE, oscillation(OscillationId("W", 9))
    expected = mobius_naive(sigma, w9)
    poset._downset_ctx.cache_clear()
    builds = _count_calls(monkeypatch, poset.DownsetContext, "__init__")
    gets = _count_calls(monkeypatch, MobiusCache, "get")
    puts = _count_calls(monkeypatch, MobiusCache, "put")
    fast = _count_calls(monkeypatch, engine_module, "mobius_oscillation")
    assert MobiusEngine().mobius(sigma, w9, engine="general") == expected
    assert (len(builds), len(fast)) == (1, 0)
    assert gets and puts
    assert {key[2] for _, key, *_ in gets + puts} == {"general"}


def test_a_cold_auto_theorem_query_builds_one_context(monkeypatch):
    # auto reads the oracle's column of pi's context; general solves the
    # theorem inside that one context when pi is both sum- and
    # skew-indecomposable.  A pi that starts with its maximum is a skew
    # sum, so general answers it by the complement rule.
    skew = P("12 6 7 5 8 9 11 10 3 2 1 4")
    assert engine_module._query_route(TWO_ONE, skew, "general")[0] == "complement"
    assert MobiusEngine().mobius(TWO_ONE, skew, engine="general") == 0
    pi = P("9 4 11 5 7 2 3 12 1 10 6 8")
    assert is_sum_indecomposable(pi) and is_sum_indecomposable(complement(pi))
    builds = _count_calls(monkeypatch, poset.DownsetContext, "__init__")
    for name, theorem_calls in (("auto", 0), ("general", 1)):
        poset._downset_ctx.cache_clear()
        builds.clear()
        engine = MobiusEngine()
        assert engine.mobius(TWO_ONE, pi, engine=name) == 10
        assert len(builds) == 1, name
        assert engine.stats["theorem_calls"] == theorem_calls, name


def test_the_route_rule_names_the_route_each_query_takes():
    cases = [
        ("1", "1324", "auto", "prop1"),
        ("21", "214365", "auto", "cor3"),
        ("2143", "214365", "auto", "prop2"),
        ("2143", "315264", "auto", "naive"),
        ("2143", "315264", "general", "complement"),
        ("1", "3142", "naive", "naive"),
        ("1", "231", "auto", "oscillation"),
        ("1", "231", "general", "complement"),
        ("3142", "315274968", "auto", "oscillation"),
        ("3142", "315274968", "general", "theorem"),
        ("21", "369258147", "auto", "naive"),
        ("4321", "369258147", "auto", "naive"),
        ("36258147", "369258147", "auto", "naive"),
        ("21", "369258147", "general", "theorem"),
        ("21", "2413", "oscillation", "oscillation"),
        ("231", "2413", "general", "direct"),
        ("21", "4321", "general", "complement"),
        ("21", "13 12 11 10 9 8 7 6 5 4 3 2 1", "auto", "complement"),
        ("21", "4321", "auto", "naive"),
        ("3142", "3142", "general", "direct"),
    ]
    for sigma, pi, name, route in cases:
        assert engine_module._query_route(P(sigma), P(pi), name)[0] == route, (
            sigma,
            pi,
            name,
        )


def test_auto_answers_a_short_indecomposable_upper_bound_without_the_matcher(
    monkeypatch,
):
    # pi is sum-indecomposable and no oscillation, so its context answers
    # every sigma: contained or not, covering or not.
    pi = P("4617253")
    members = [p for group in downset(pi).values() for p in group]
    outside = [P("654321"), P("123456"), P("4321")]
    assert not any(contains(sigma, pi) for sigma in outside)
    expected = [mobius_naive(sigma, pi) for sigma in members + outside]
    calls = _count_every_binding(monkeypatch, perms.contains)
    engine = MobiusEngine()
    assert [engine.mobius(sigma, pi) for sigma in members + outside] == expected
    assert calls == []


def test_long_upper_bounds_ask_the_matcher_before_any_context():
    # Neither upper bound's context can be built (over 4096 patterns).
    chain = Permutation(range(5000, 0, -1))
    assert MobiusEngine().mobius(ONE, chain) == 0
    vals = list(range(1, 31))
    random.Random(30).shuffle(vals)
    pi = Permutation(vals)
    # a chain one longer than pi's longest decreasing subsequence
    longest = [1] * len(vals)
    for j, v in enumerate(vals):
        longest[j] += max((longest[i] for i in range(j) if vals[i] > v), default=0)
    sigma = Permutation(range(max(longest) + 1, 0, -1))
    assert not contains(sigma, pi)
    assert MobiusEngine().mobius(sigma, pi) == 0
    # On the direct sum of pi and 1, prop2 would ask mu(1, pi), which needs
    # pi's context; the chain is sum-indecomposable, so the direct sum of 1
    # and the chain is not contained.
    assert is_sum_indecomposable(pi)
    for name in ("auto", "general"):
        pair = direct_sum(ONE, sigma), direct_sum(pi, ONE)
        assert engine_module._query_route(*pair, name) == ("direct", 0)
        assert MobiusEngine().mobius(*pair, name) == 0


def _short_pairs(decomposable_only: bool = False):
    """Every sigma of length 1-5 against every pi of length 1-6 (only the
    sum-decomposable pi when asked), grouped by pi."""
    sigmas = [Permutation(v) for n in range(1, 6) for v in all_perm_tuples(n)]
    for n in range(1, 7):
        for vals in all_perm_tuples(n):
            pi = Permutation(vals)
            if not (decomposable_only and is_sum_indecomposable(pi)):
                yield pi, sigmas


@pytest.mark.parametrize("name", ["auto", "general"])
def test_every_short_pair_equals_the_oracle_contained_or_not(monkeypatch, name):
    # The component recursions and the fast path decide containment
    # themselves, so a sigma outside pi must come out of them as 0.
    calls = _count_every_binding(monkeypatch, perms.contains)
    engine = MobiusEngine()
    for pi, sigmas in _short_pairs():
        column = {s.values: v for s, v in mobius_naive_column(pi).items()}
        for sigma in sigmas:
            assert engine.mobius(sigma, pi, name) == column.get(sigma.values, 0), (
                sigma,
                pi,
            )
    # auto reads every short indecomposable pi from its context; general
    # asks the matcher only about an indecomposable pi or component
    assert all(is_sum_indecomposable(pi) for _, pi in calls)
    assert name == "general" or calls == []


def test_decomposable_and_oscillation_routes_never_ask_the_matcher(monkeypatch):
    calls = _count_every_binding(monkeypatch, perms.contains)
    for pi, sigmas in _short_pairs(decomposable_only=True):
        for sigma in sigmas:
            for name in ("auto", "general"):
                route = engine_module._query_route(sigma, pi, name)[0]
                assert route in ("direct", "prop1", "cor3", "prop2"), (sigma, pi)
    # components of length <= 3 are skew-decomposable, so general reaches
    # them by the complement rule
    pi = iterated_sum(P("231"), 4)
    for n in range(1, 6):
        for vals in all_perm_tuples(n):
            MobiusEngine().mobius(Permutation(vals), pi, "general")
    # every shorter oscillation is contained, so the fast path is asked
    engine = MobiusEngine()
    w5, w40 = oscillation(OscillationId("W", 5)), oscillation(OscillationId("W", 40))
    assert engine.mobius(w5, w40) == -161
    assert engine.mobius(ONE, oscillation(OscillationId("M", 300))) == -22500
    assert calls == []


def test_the_oscillation_engine_still_asks_the_matcher(monkeypatch):
    calls = _count_every_binding(monkeypatch, perms.contains)
    engine = MobiusEngine()
    assert engine.mobius(P("123"), P("2413"), "oscillation") == 0
    assert calls == [(P("123"), P("2413"))]
    with pytest.raises(NotAnOscillation):
        engine.mobius(ONE, P("2143"), "oscillation")
    assert calls[1:] == [(ONE, P("2143"))]


@pytest.mark.parametrize("name", ["auto", "general"])
def test_a_long_identity_sum_is_answered_without_a_quadratic_search(name):
    pi = direct_sum(Permutation(range(1, 20001)), TWO_ONE)
    start = time.perf_counter()
    assert MobiusEngine().mobius(TWO_ONE, pi, name) == 0
    assert time.perf_counter() - start < 1.0


def test_pairs_of_a_long_near_identity_downset_all_finish():
    pi = direct_sum(Permutation(range(1, 130)), P("2413"))
    members = [p for group in downset(pi).values() for p in group]
    assert len(members) == 783
    rng = random.Random(129)
    pairs = [sorted(rng.sample(members, 2), key=len) for _ in range(200)]
    start = time.perf_counter()
    auto = [MobiusEngine().mobius(sigma, tau) for sigma, tau in pairs]
    general = [MobiusEngine().mobius(sigma, tau, "general") for sigma, tau in pairs]
    assert time.perf_counter() - start < 5.0
    # the two engines answer an indecomposable leaf by different routes
    assert auto == general


def test_long_sums_keep_mu_under_inverse_and_reverse_complement():
    # Reverse-complement reverses the component order, so the component
    # recursions see other heads; no oracle reaches these lengths.
    rng = random.Random(8)
    engine = MobiusEngine()
    nonzero = 0
    for _ in range(150):
        pi = EMPTY
        for _ in range(rng.randint(6, 16)):
            vals = list(range(1, rng.randint(1, 6) + 1))
            rng.shuffle(vals)
            pi = direct_sum(pi, Permutation(vals))
        keep = sorted(rng.sample(range(len(pi)), len(pi) - rng.randint(2, 5)))
        sigma = Permutation(standardize_ref(tuple(pi.values[i] for i in keep)))
        value = engine.mobius(sigma, pi)
        assert engine.mobius(inverse(sigma), inverse(pi)) == value, (sigma, pi)
        rc_sigma, rc_pi = reverse(complement(sigma)), reverse(complement(pi))
        assert engine.mobius(rc_sigma, rc_pi) == value, (sigma, pi)
        nonzero += value != 0
    assert nonzero > 100


def test_theorem_terms_carry_the_values_of_the_theorem_solve(engine):
    sigma, pi = P("3142"), P("315274968")
    terms = engine.theorem_terms(sigma, pi)
    assert [wc for wc, _ in terms] == engine.contributing_set(sigma, pi)
    for wc, mu in terms:
        assert mu == mobius_naive(sigma, wc.alpha), wc
    assert engine.theorem_terms(P("4321"), pi) == []


def test_no_table_keeps_a_context_past_the_context_cache():
    # Each table lives in its context's slot and holds no context, so an
    # engine that has run general on more upper bounds than the context
    # cache holds keeps none of their contexts alive once it is cleared.
    pis = [
        pi
        for pi in map(Permutation, all_perm_tuples(6))
        if is_sum_indecomposable(pi) and not is_reverse_identity(pi)
    ][:80]
    engine = MobiusEngine()
    for pi in pis:
        assert engine.mobius(ONE, pi, engine="general") == mobius_naive(ONE, pi)
    poset._downset_ctx.cache_clear()
    gc.collect()
    built = {pi.values for pi in pis}
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, poset.DownsetContext) and obj.pi.values in built
    ]
    assert len(alive) == 0


def test_a_crosscheck_pass_builds_each_context_once_and_caches_no_oracle_value(
    monkeypatch,
):
    # one engine against the oracle's column of every pi with |pi| <= 6
    poset._downset_ctx.cache_clear()
    builds = _count_calls(monkeypatch, poset.DownsetContext, "__init__")
    engine = MobiusEngine()
    pis = [Permutation(pv) for n in range(1, 7) for pv in all_perm_tuples(n)]
    for pi in pis:
        for sigma, expected in mobius_naive_column(pi).items():
            assert engine.mobius(sigma, pi) == expected, (sigma, pi)
    # no context for a component asked about a sigma part it does not hold
    assert len(pis) == 873
    assert sorted(pi.values for _, pi in builds) == sorted(pi.values for pi in pis)
    assert poset._downset_ctx.cache_info().currsize == 873
    # the oracle's values stay in the contexts
    routes = {
        engine_module._query_route(Permutation(s), Permutation(p), name)[0]
        for s, p, name in engine.cache._entries
    }
    assert routes and "naive" not in routes


def test_a_general_query_leaves_only_the_cache_and_stats_on_the_engine():
    # the tables live in the contexts; the engine keeps no store of rows
    engine = MobiusEngine()
    assert engine.mobius(P("3142"), P("315274968"), engine="general") == -6
    assert engine.stats["theorem_calls"] > 0
    assert set(vars(engine)) == {"cache", "stats"}


def test_a_tiny_gather_bound_still_computes_correct_values(monkeypatch):
    # one row per gather block
    monkeypatch.setattr(engine_module, "_GATHER_BITS", 1)
    # tables built by earlier tests would not be rebuilt in blocks
    poset._downset_ctx.cache_clear()
    engine = MobiusEngine()
    for n in range(4, 7):
        for pv in itertools.islice(all_perm_tuples(n), 0, None, 7):
            pi = Permutation(pv)
            if is_identity(pi) or is_reverse_identity(pi):
                continue
            for sigma, expected in mobius_naive_column(pi).items():
                if is_sum_indecomposable(sigma) and sigma != pi:
                    assert engine.mobius_theorem(sigma, pi) == expected, (sigma, pi)


def _loop_rank_and_weight(bits) -> tuple[int, int]:
    """The rank and weight by their definition: r is the least r >= 1 whose
    capped stack is not below, and the weight reads S_r, 1 + S_r, S_r + 1
    and S_(r+1)."""
    r = 0
    while bits[r][3]:
        r += 1
    stack, left, right, _ = bits[r]
    return r + 1, stack - left - right + bits[r + 1][0]


def test_ranks_and_weights_match_the_loop_definition():
    rng = random.Random(11)
    width = 6
    below = np.zeros((500, width, 4), dtype=np.int8)
    for row in below:
        row[:, :3] = [[rng.randint(0, 1) for _ in range(3)] for _ in range(width)]
        # nested capped bits, the last two 0
        row[: rng.randrange(width - 1), 3] = 1
    ranks, weights = engine_module._ranks_and_weights(below)
    assert list(zip(ranks.tolist(), weights.tolist())) == [
        _loop_rank_and_weight(row.tolist()) for row in below
    ]
    assert set(weights.tolist()) >= {-1, 0, 1}


def test_a_cold_table_on_a_large_context_keeps_its_temporaries_bounded():
    # 2683 members; a build one row at a time peaks at 14.2 MiB here, and
    # the blocked gather stays within twice that
    pi = P("3 11 5 13 10 6 1 12 2 9 7 4 8")
    ctx = poset.DownsetContext(pi)
    assert len(ctx.members) == 2683
    tracemalloc.start()
    try:
        MobiusEngine()._candidate_list(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 14.2 * 2**20


def test_general_answers_every_pair_to_length_6_by_its_own_routes(monkeypatch):
    # no route of general reads the oracle, the fast path or an auto value
    columns = [
        (pi, mobius_naive_column(pi))
        for n in range(1, 7)
        for pi in map(Permutation, all_perm_tuples(n))
    ]
    assert sum(len(column) for _, column in columns) == 16912
    naive = _count_every_binding(monkeypatch, poset.mobius_naive)
    fast = _count_every_binding(monkeypatch, mobius_oscillation)
    engine = MobiusEngine()
    for pi, column in columns:
        for sigma, expected in column.items():
            assert engine.mobius(sigma, pi, engine="general") == expected, (sigma, pi)
    assert (naive, fast) == ([], [])
    assert {key[2] for key in engine.cache._entries} == {"general"}


def test_general_caches_its_own_values_on_deep_sums():
    # each component sub-query is answered once: uncached, general takes
    # seconds on this pair
    sigma, pi = iterated_sum(TWO_ONE, 8), iterated_sum(P("2413"), 24)
    start = time.perf_counter()
    value = MobiusEngine().mobius(sigma, pi, engine="general")
    assert time.perf_counter() - start < 1.0
    assert value == MobiusEngine().mobius(sigma, pi) != 0


def _separable(n: int, rng: random.Random) -> Permutation:
    """A random separable permutation of length n: a tree of direct and
    skew sums over single points."""
    if n == 1:
        return ONE
    k = rng.randint(1, n - 1)
    join = direct_sum if rng.random() < 0.5 else skew_sum
    return join(_separable(k, rng), _separable(n - k, rng))


def _without_points(pi: Permutation, g: int, rng: random.Random) -> Permutation:
    """The pattern of pi left by deleting g random points."""
    keep = sorted(rng.sample(range(len(pi)), len(pi) - g))
    vals = [pi.values[i] for i in keep]
    rank = {v: r for r, v in enumerate(sorted(vals), start=1)}
    return Permutation(rank[v] for v in vals)


def test_separable_upper_bounds_equal_the_oracle_on_both_engines():
    rng = random.Random(7)
    for n in (9, 10, 11):
        for _ in range(2):
            pi = _separable(n, rng)
            for name in ("auto", "general"):
                engine = MobiusEngine()
                for sigma, expected in mobius_naive_column(pi).items():
                    assert engine.mobius(sigma, pi, engine=name) == expected, (
                        sigma,
                        pi,
                        name,
                    )


def test_long_skew_sums_are_answered_by_the_complement_rule():
    # past the member bound, where the oracle refuses every one of them
    rng = random.Random(7)
    pairs = []
    for n in (16, 24, 32, 48, 64, 96):
        for g in (2, 4, 6):
            pi = _separable(n, rng)
            pairs.append((_without_points(pi, g, rng), pi))
    w15 = _w(15)
    pairs.append((ONE, skew_sum(w15, w15)))
    for sigma, pi in pairs:
        values = [
            MobiusEngine().mobius(sigma, pi, engine=name) for name in ("auto", "general")
        ]
        assert values[0] == values[1], (sigma, pi)
    assert values == [43, 43]
