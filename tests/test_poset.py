"""Downsets, intervals, and the exact Möbius oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmobius import (
    EMPTY,
    OscillationId,
    Permutation,
    TooLarge,
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
from permmobius.poset import DownsetContext

from helpers import all_perm_tuples, contains_ref, mobius_ref

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
    pi = parse_permutation("3142")
    ds = downset(pi)
    for n in range(1, 5):
        got = {p.values for p in ds.get(n, ())}
        want = {v for v in all_perm_tuples(n) if contains_ref(v, pi.values)}
        assert got == want


def test_downset_is_monotone_under_containment():
    pi = parse_permutation("24153")
    tau = parse_permutation("3142")
    assert contains(tau, pi)
    members_tau = {p for g in downset(tau).values() for p in g}
    members_pi = {p for g in downset(pi).values() for p in g}
    assert members_tau <= members_pi


def test_downset_respects_the_cap():
    with pytest.raises(TooLarge):
        downset(Permutation(tuple(range(1, 14))))
    assert downset(Permutation(tuple(range(1, 14))), cap=14)


def test_downset_build_deletes_each_point_of_each_member_once(monkeypatch):
    original = poset._delete_value_at
    calls = []

    def counted(vals, i):
        calls.append((vals, i))
        return original(vals, i)

    monkeypatch.setattr(poset, "_delete_value_at", counted)
    w9 = oscillation(OscillationId("W", 9))
    assert w9 == parse_permutation("315274968")
    ctx = DownsetContext(w9)
    assert len(calls) == sum(len(p.values) for p in ctx.members) == 740
    assert len(set(calls)) == len(calls)


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
    with pytest.raises(TooLarge):
        mobius_naive(parse_permutation("1"), Permutation(tuple(range(1, 14))))
    assert (
        mobius_naive(
            parse_permutation("1"), Permutation(tuple(range(1, 14))), cap=14
        )
        == 0
    )
