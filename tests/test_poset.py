"""Downsets, intervals, and the exact Möbius oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmobius import (
    EMPTY,
    MobiusEngine,
    OscillationId,
    Permutation,
    TooLarge,
    cli,
    complement,
    contains,
    downset,
    interval,
    inverse,
    mobius_naive,
    mobius_naive_column,
    oscillation,
    parse_permutation,
    reverse,
)

from permmobius import poset
from permmobius.engine import _query_route
from permmobius.poset import DownsetContext

from helpers import all_perm_tuples, contains_ref, downset_ref, mobius_ref

small_perm = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


# ---------------------------------------------------------------- downset


def test_downset_contains_empty_bottom_and_top():
    ds = downset(parse_permutation("3142"))
    assert ds[0] == (EMPTY,)
    assert ds[4] == (parse_permutation("3142"),)
    flat = [p for group in ds.values() for p in group]
    assert len(flat) == len(set(flat))


def test_downset_of_24153_has_fifteen_members_including_empty():
    ds = downset(parse_permutation("24153"))
    assert sum(len(g) for g in ds.values()) == 15


def test_downset_members_are_exactly_the_contained_patterns():
    # Every pi of length <= 6, W_9 and two of length 10.
    inputs = [v for n in range(7) for v in all_perm_tuples(n)] + [
        (3, 1, 5, 2, 7, 4, 9, 6, 8),
        (2, 4, 1, 6, 3, 8, 5, 10, 7, 9),
        (4, 9, 2, 10, 6, 1, 8, 3, 7, 5),
    ]
    for pi_values in inputs:
        n = len(pi_values)
        ds = downset(Permutation(pi_values))
        want = downset_ref(pi_values)
        for k in range(n + 1):
            got = {p.values for p in ds.get(k, ())}
            assert got == {v for v in want if len(v) == k}, (pi_values, k)

        ctx = DownsetContext(Permutation(pi_values))
        keys = [(len(p.values), p.values) for p in ctx.members]
        assert keys == sorted(set(keys)), pi_values
        assert len(ctx.index) == len(ctx.members)
        assert all(ctx.index[p.values] == i for i, p in enumerate(ctx.members))
        bounds = [0] + [end for _, _, end in ctx.groups]
        assert ctx.groups == [
            (k, bounds[k], bounds[k + 1]) for k in range(n + 1)
        ], pi_values
        for k, start, end in ctx.groups:
            assert {len(p.values) for p in ctx.members[start:end]} == {k}


def test_downset_is_monotone_under_containment():
    pi = parse_permutation("24153")
    tau = parse_permutation("3142")
    assert contains(tau, pi)
    members_tau = {p for g in downset(tau).values() for p in g}
    members_pi = {p for g in downset(pi).values() for p in g}
    assert members_tau <= members_pi


def test_downset_respects_the_cap():
    # W_16 has 5357 patterns; id_13 has 14.
    with pytest.raises(TooLarge):
        downset(oscillation(OscillationId("W", 16)))
    assert sum(map(len, downset(Permutation(tuple(range(1, 14)))).values())) == 14


def test_the_member_bound_is_exact_and_checked_while_enumerating(monkeypatch):
    # W_9 has 128 patterns: itself, 9 of length 8, ..., and the empty one.
    w9 = oscillation(OscillationId("W", 9))
    original, calls = poset._delete_each_point, []

    def counted(key, drop, below):
        calls.append(key)
        return original(key, drop, below)

    monkeypatch.setattr(poset, "_delete_each_point", counted)
    monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", 128)
    assert len(DownsetContext(w9).members) == 128
    assert len(calls) == 127
    # W_9's own point deletions give 1 + 9 members, and the 8 shorter
    # lengths hold one more each: 18.  The first length-8 member's
    # deletions pass 18, long before its level is done.
    for bound, most_calls in ((127, 126), (18, 2)):
        calls.clear()
        monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", bound)
        with pytest.raises(
            TooLarge, match=f"^upper bound of length 9 has over {bound} patterns$"
        ):
            DownsetContext(w9)
        assert 1 <= len(calls) <= most_calls


def test_one_member_per_length_refuses_before_any_point_deletion(monkeypatch):
    calls = []
    monkeypatch.setattr(poset, "_delete_each_point", lambda *args: calls.append(args))
    for n in (poset.MAX_DOWNSET_MEMBERS, 3 * poset.MAX_DOWNSET_MEMBERS):
        with pytest.raises(TooLarge, match=f"length {n} "):
            DownsetContext(Permutation(tuple(range(n, 0, -1))))
    assert calls == []


def _bonds(values):
    """The adjacent positions of values that hold adjacent values."""
    return sum(abs(a - c) == 1 for a, c in zip(values, values[1:]))


def test_a_permutation_has_one_point_deletion_per_position_not_in_a_bond(monkeypatch):
    # n - b distinct one-point deletions, so at least 2n - b patterns
    for n in range(8):
        for values in all_perm_tuples(n):
            deletions = {
                tuple(x - (x > v) for x in values[:i] + values[i + 1 :])
                for i, v in enumerate(values)
            }
            assert len(deletions) == n - _bonds(values), values
            if n <= 6:
                members = len(DownsetContext(Permutation(values)).members)
                assert members >= 2 * n - _bonds(values), values
    # the count is exact for id_12 (13 patterns, 11 bonds), which builds at
    # a bound of 13
    monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", 13)
    assert len(DownsetContext(Permutation(tuple(range(1, 13)))).members) == 13


def test_the_member_count_bound_refuses_before_any_point_deletion(monkeypatch):
    calls = []
    monkeypatch.setattr(poset, "_delete_each_point", lambda *args: calls.append(args))
    values = list(range(1, 2501))
    random.Random(5).shuffle(values)
    bound = poset.MAX_DOWNSET_MEMBERS
    assert 2 * 2500 - _bonds(values) > bound
    message = f"^upper bound of length 2500 has over {bound} patterns$"
    with pytest.raises(TooLarge, match=message):
        DownsetContext(Permutation(tuple(values)))
    assert calls == []


def test_downset_build_deletes_each_point_of_each_member_once(monkeypatch):
    original = poset._delete_each_point
    calls = []

    def counted(key, drop, below):
        calls.append(key)
        return original(key, drop, below)

    monkeypatch.setattr(poset, "_delete_each_point", counted)
    w9 = oscillation(OscillationId("W", 9))
    assert w9 == parse_permutation("315274968")
    ctx = DownsetContext(w9)
    assert len(set(calls)) == len(calls)
    assert sorted(tuple(map(ord, key)) for key in calls) == sorted(
        p.values for p in ctx.members if p.values
    )
    assert sum(map(len, calls)) == sum(len(p.values) for p in ctx.members) == 740


def test_downset_past_255_points(capsys):
    # id_298 + 21: no key width limit, 2 * 300 - 1 members.
    pi = Permutation(tuple(range(1, 299)) + (300, 299))
    sigma = Permutation(tuple(range(1, 299)))
    ds = downset(pi)
    assert sum(len(g) for g in ds.values()) == 599
    assert mobius_naive(sigma, pi) == 1
    assert _query_route(sigma, pi, "auto")[0] == "prop1"
    assert MobiusEngine().mobius(sigma, pi) == 1
    one_line = ",".join(map(str, pi.values))
    for argv in (
        ["interval", ",".join(map(str, sigma.values)), one_line],
        ["downset", one_line],
    ):
        assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4 + 599


def test_order_matrix_is_containment_to_length_6():
    for n in range(7):
        for vals in all_perm_tuples(n):
            ctx = DownsetContext(Permutation(vals))
            members = [p.values for p in ctx.members]
            for j, upper in enumerate(members):
                for i, lower in enumerate(members):
                    assert ctx.leq[j, i] == contains_ref(lower, upper), (vals, i, j)


# ---------------------------------------------------------------- interval


def test_interval_is_empty_when_lower_not_contained():
    table = interval(parse_permutation("321"), parse_permutation("1234"))
    assert table.is_empty
    assert table.rows() == []


def test_interval_rows_ascend_and_carry_mobius_values():
    table = interval(parse_permutation("21"), parse_permutation("3142"))
    rows = table.rows()
    assert [str(m) for _, m, _ in rows] == [
        "2 1", "1 3 2", "2 1 3", "2 3 1", "3 1 2", "3 1 4 2",
    ]
    assert [mu for _, _, mu in rows] == [1, -1, -1, -1, -1, 3]
    lengths = [length for length, _, _ in rows]
    assert lengths == sorted(lengths)


def test_interval_members_all_contain_lower_bound():
    sigma = parse_permutation("231")
    table = interval(sigma, parse_permutation("24153"))
    for _, member, _ in table.rows():
        assert contains(sigma, member)


# ------------------------------------------------------------------ oracle


def test_frozen_oracle_values():
    assert mobius_naive(parse_permutation("1"), parse_permutation("24153")) == 6
    assert mobius_naive(parse_permutation("21"), parse_permutation("321")) == -1
    assert mobius_naive(parse_permutation("1"), parse_permutation("123")) == 0
    assert mobius_naive(parse_permutation("1"), parse_permutation("1324")) == -1


def test_oracle_basis_cases():
    assert mobius_naive(EMPTY, EMPTY) == 1
    assert mobius_naive(EMPTY, parse_permutation("1")) == -1
    assert mobius_naive(EMPTY, parse_permutation("21")) == 0
    assert mobius_naive(parse_permutation("21"), parse_permutation("21")) == 1
    assert mobius_naive(parse_permutation("12"), parse_permutation("21")) == 0


def test_oracle_covering_pairs_are_minus_one():
    pi = parse_permutation("24153")
    for group in downset(pi).values():
        for member in group:
            if len(member.values) == 4:
                assert mobius_naive(member, pi) == -1


def test_oracle_matches_independent_reference_exhaustively_to_length_5():
    for n in range(1, 6):
        for pv in all_perm_tuples(n):
            col = mobius_naive_column(Permutation(pv))
            for sigma, value in col.items():
                assert value == mobius_ref(sigma.values, pv), (sigma, pv)


@given(small_perm, small_perm)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_independent_reference_on_random_pairs(sv, pv):
    assert mobius_naive(Permutation(sv), Permutation(pv)) == mobius_ref(sv, pv)


def test_column_agrees_with_single_queries():
    pi = parse_permutation("35142")
    col = mobius_naive_column(pi)
    for sigma, value in col.items():
        assert mobius_naive(sigma, pi) == value


def test_closed_interval_sums_vanish_below_the_top():
    for n in range(2, 7):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            table = mobius_naive_column(pi)
            members = list(table)
            for sigma in members:
                if sigma == pi:
                    continue
                total = sum(
                    table_mu
                    for lam, table_mu in _interval_column(sigma, pi).items()
                )
                assert total == 0, (sigma, pi)


def _interval_column(sigma: Permutation, pi: Permutation) -> dict[Permutation, int]:
    return dict(
        (member, mu) for _, member, mu in interval(sigma, pi).rows()
    )


def test_oracle_symmetry_under_simultaneous_symmetries():
    pairs = []
    for n in range(2, 6):
        for pv in all_perm_tuples(n):
            pi = Permutation(pv)
            for sigma in mobius_naive_column(pi):
                pairs.append((sigma, pi))
    for sigma, pi in pairs:
        base = mobius_naive(sigma, pi)
        assert mobius_naive(inverse(sigma), inverse(pi)) == base
        assert mobius_naive(reverse(sigma), reverse(pi)) == base
        assert mobius_naive(complement(sigma), complement(pi)) == base


def test_oracle_rejects_upper_bounds_beyond_cap():
    one = parse_permutation("1")
    with pytest.raises(TooLarge):
        mobius_naive(one, oscillation(OscillationId("W", 16)))
    assert mobius_naive(one, Permutation(tuple(range(1, 14)))) == 0
