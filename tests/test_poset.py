"""Downsets, intervals, and the exact Möbius oracle."""

from __future__ import annotations

import gc
import random
import tracemalloc

import numpy as np
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

P = parse_permutation

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


class _RecordedTables(list):
    """A level's drop tables that record which values the level deletes."""

    def __init__(self, tables, deleted):
        super().__init__(tables)
        self.deleted = deleted

    def __getitem__(self, value):
        self.deleted.append(value)
        return super().__getitem__(value)


def _record_levels(monkeypatch):
    """(keys, deleted values) of each level the build expands, in order."""
    original, levels = poset._expand_level, []

    def recorded(keys, drop, pairs, room):
        deleted = []
        levels.append((list(keys), deleted))
        return original(keys, _RecordedTables(drop, deleted), pairs, room)

    monkeypatch.setattr(poset, "_expand_level", recorded)
    return levels


def test_the_member_bound_is_exact_and_checked_while_enumerating(monkeypatch):
    # W_9 has 128 patterns: itself, 9 of length 8, ..., and the empty one.
    w9 = oscillation(OscillationId("W", 9))
    levels = _record_levels(monkeypatch)
    monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", 128)
    assert len(DownsetContext(w9).members) == 128
    assert [len(keys[0]) for keys, _ in levels] == list(range(9, 0, -1))
    assert sum(len(keys) for keys, _ in levels) == 127
    # At 127: the 5 members of length 3 give both of length 2 on deleting
    # value 1, and with the 124 longer members and one each of lengths 1
    # and 0 that is 128, so values 2 and 3 are never deleted.
    # At 18: W_9's own point deletions give 1 + 9 members, and the 8 shorter
    # lengths hold one more each: 18.  The first length-8 member alone has 8
    # distinct children, so that level is refused before any deletion.
    for bound, refused_length, deleted in ((127, 3, [1]), (18, 8, [])):
        levels.clear()
        monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", bound)
        with pytest.raises(
            TooLarge, match=f"^upper bound of length 9 has over {bound} patterns$"
        ):
            DownsetContext(w9)
        assert len(levels) == 10 - refused_length
        assert len(levels[-1][0][0]) == refused_length
        assert levels[-1][1] == deleted


def test_one_member_per_length_refuses_before_any_point_deletion(monkeypatch):
    calls = []
    monkeypatch.setattr(poset, "_expand_level", lambda *args: calls.append(args))
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
    monkeypatch.setattr(poset, "_expand_level", lambda *args: calls.append(args))
    values = list(range(1, 2501))
    random.Random(5).shuffle(values)
    bound = poset.MAX_DOWNSET_MEMBERS
    assert 2 * 2500 - _bonds(values) > bound
    message = f"^upper bound of length 2500 has over {bound} patterns$"
    with pytest.raises(TooLarge, match=message):
        DownsetContext(Permutation(tuple(values)))
    assert calls == []


def test_a_long_upper_bound_is_refused_before_its_second_level_is_joined(
    monkeypatch,
):
    # 2n - b is within the bound, but the first length-1999 member alone
    # has about 1999 children on top of pi's about 1999.
    levels = _record_levels(monkeypatch)
    values = list(range(1, 2001))
    random.Random(5).shuffle(values)
    assert 2 * 2000 - _bonds(values) <= poset.MAX_DOWNSET_MEMBERS
    with pytest.raises(TooLarge, match="^upper bound of length 2000 has over "):
        DownsetContext(Permutation(tuple(values)))
    distinct = 2000 - _bonds(values)
    assert [len(keys) for keys, _ in levels] == [1, distinct]
    assert len(levels[0][1]) == distinct and levels[1][1] == []


def _common_bonds(keys):
    """The values x that sit next to x - 1 in every key."""
    return {
        x
        for x in range(2, len(keys[0]) + 1)
        if all(abs(key.index(chr(x)) - key.index(chr(x - 1))) == 1 for key in keys)
    }


def test_downset_build_deletes_each_point_of_each_member_once(monkeypatch):
    levels = _record_levels(monkeypatch)
    w9 = oscillation(OscillationId("W", 9))
    assert w9 == parse_permutation("315274968")
    ctx = DownsetContext(w9)
    # each member key is expanded in exactly one level ...
    expanded = [key for keys, _ in levels for key in keys]
    assert sorted(tuple(map(ord, key)) for key in expanded) == sorted(
        p.values for p in ctx.members if p.values
    )
    # ... which deletes each of its values once, save a value that sits next
    # to value - 1 in every key: its children are those of value - 1.
    for keys, deleted in levels:
        length = len(keys[0])
        skipped = _common_bonds(keys)
        assert deleted == [x for x in range(1, length + 1) if x not in skipped]
    assert levels[-2][1] == [1]  # in 12 and 21, deleting 2 is deleting 1
    pairs = sum(len(keys) * len(keys[0]) for keys, _ in levels)
    assert pairs == sum(len(p.values) for p in ctx.members) == 740


def test_a_near_chain_deletes_at_most_two_values_per_level(monkeypatch):
    # In id_300 every value but 1 sits next to value - 1 in every member;
    # in id_298 + 21 all but two do.
    levels = _record_levels(monkeypatch)
    assert len(DownsetContext(Permutation(tuple(range(1, 301)))).members) == 301
    assert [deleted for _, deleted in levels] == [[1]] * 300
    levels.clear()
    pi = Permutation(tuple(range(1, 299)) + (300, 299))
    assert len(DownsetContext(pi).members) == 599
    assert max(len(deleted) for _, deleted in levels) == 2


def _patterns_by_deletion(values):
    """Every pattern of values, by repeated one-point deletion of tuples."""
    seen, frontier = {values}, [values]
    while frontier:
        shorter = []
        for v in frontier:
            for k, x in enumerate(v):
                child = tuple(y - (y > x) for y in v[:k] + v[k + 1 :])
                if child not in seen:
                    seen.add(child)
                    shorter.append(child)
        frontier = shorter
    return seen


def test_order_matrix_is_containment_with_keys_past_ascii():
    # W_9's keys are ASCII: the order is contains on every pair.
    w9 = DownsetContext(oscillation(OscillationId("W", 9)))
    above = [w9.above(i) for i in range(len(w9.members))]
    assert all(
        above[i][j] == contains(a, b)
        for i, a in enumerate(w9.members)
        for j, b in enumerate(w9.members)
    )
    # id_129 + 2413 has length 133 and 783 members, with values past 127,
    # where str.translate leaves its ASCII fast path.  The backtracking
    # matcher is slow on such long patterns, so sampled rows of the order are
    # checked against each member's patterns found by tuple deletions.
    pi = Permutation(tuple(range(1, 130)) + (131, 133, 130, 132))
    ctx = DownsetContext(pi)
    assert len(ctx.members) == 783
    assert {p.values for p in ctx.members} == _patterns_by_deletion(pi.values)
    for j in [782] + random.Random(3).sample(range(782), 4):
        want = {ctx.index[v] for v in _patterns_by_deletion(ctx.members[j].values)}
        assert set(np.flatnonzero(ctx.rows([j])[0]).tolist()) == want, j


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
            m = len(members)
            # m rows of ceil(m / 8) bytes, bit i of row j in little bit order
            assert ctx.bits.dtype == np.uint8
            assert ctx.bits.nbytes == m * ((m + 7) // 8)
            leq = ctx.rows(np.arange(m))
            for j, upper in enumerate(members):
                for i, lower in enumerate(members):
                    assert leq[j, i] == contains_ref(lower, upper), (vals, i, j)
                    assert (ctx.bits[j, i >> 3] >> (i & 7)) & 1 == leq[j, i]
            for i in range(m):
                assert ctx.above(i).tolist() == leq[:, i].tolist(), (vals, i)


def _dense_solves(ctx, sidxs):
    """The column and the rows of sidxs, solved one level at a time on the
    order unpacked whole."""
    m = len(ctx.members)
    leq = np.unpackbits(ctx.bits, axis=1, count=m, bitorder="little").astype(np.int64)
    column = np.zeros(m, dtype=np.int64)
    column[m - 1] = 1
    for _, start, end in reversed(ctx.groups[:-1]):
        column[start:end] = -(column[end:] @ leq[end:, start:end])
    rows = []
    for sidx in sidxs:
        row = np.zeros(m, dtype=np.int64)
        row[sidx] = 1
        slen = len(ctx.members[sidx].values)
        for length, start, end in ctx.groups:
            if length > slen:
                part = -(leq[start:end, :start] @ row[:start])
                row[start:end] = part * leq[start:end, sidx]
        rows.append(row.tolist())
    return column.tolist(), rows


# 1 << 20: the module's bound, under which each context here but W_15 is
# one band; 9: one bit a band, so every level is cut into one-member parts;
# 9 << 10: a few levels a band at length 7 and many bands on W_15.
@pytest.mark.parametrize("band_bytes", [1 << 20, 9, 9 << 10])
def test_banded_column_and_row_equal_a_dense_solve(monkeypatch, band_bytes):
    monkeypatch.setattr(poset, "_BAND_BYTES", band_bytes)
    # Every unpacked band keeps within the bound, but for a one-member part
    # whose own rows or columns are past it.
    unpack = DownsetContext._block
    sizes = []

    def block(self, *corners):
        out = unpack(self, *corners)
        sizes.append(out.size if min(out.shape) > 1 else 0)
        return out

    monkeypatch.setattr(DownsetContext, "_block", block)
    pis = [Permutation(vals) for n in range(8) for vals in all_perm_tuples(n)]
    for pi in pis + [oscillation(OscillationId("W", 15))]:
        ctx = DownsetContext(pi)
        m = len(ctx.members)
        sidxs = range(0, m, max(1, m // 6))
        rows = [ctx.row(ctx.members[i]).tolist() for i in sidxs]
        assert (ctx.column().tolist(), rows) == _dense_solves(ctx, sidxs), pi
    assert max(sizes) <= band_bytes // 9


def test_w15_order_is_packed_and_its_build_holds_no_dense_matrix():
    w15 = oscillation(OscillationId("W", 15))
    tracemalloc.start()
    try:
        ctx = DownsetContext(w15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = len(ctx.members)
    assert m == 3142
    assert ctx.bits.nbytes == m * ((m + 7) // 8)
    assert peak < m * m


# ----------------------------------------------------------- context store


def test_the_context_store_counts_the_bytes_its_contexts_hold():
    # contexts with their columns, a third of them with the general
    # engine's table too
    rng = random.Random(11)
    pis = []
    for n, count in ((5, 40), (6, 40), (7, 40), (9, 4), (11, 3)):
        for _ in range(count):
            values = list(range(1, n + 1))
            rng.shuffle(values)
            pis.append(Permutation(values))
    pis.append(oscillation(OscillationId("W", 15)))
    engine = MobiusEngine()
    poset._downset_ctx.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for i, pi in enumerate(pis):
            poset._downset_ctx(pi).column()
            if i % 3 == 0:
                engine._table(pi)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    info = poset._downset_ctx.cache_info()
    assert info.currsize == len({pi.values for pi in pis})
    assert 0.8 < info.bytes / held < 1.25


def test_the_context_store_evicts_least_recently_used_first_within_its_budget(
    monkeypatch,
):
    pis = [Permutation(pv) for pv in all_perm_tuples(6)][::45]
    poset._downset_ctx.cache_clear()
    columns = {pi: mobius_naive_column(pi) for pi in pis}
    cost = max(DownsetContext(pi).nbytes() for pi in pis)
    budget = 4 * cost
    monkeypatch.setattr(poset, "_CONTEXT_BYTES", budget)
    poset._downset_ctx.cache_clear()
    rng = random.Random(5)
    recent: list[tuple[int, ...]] = []
    evicted = 0
    for pi in rng.choices(pis, k=300):
        assert mobius_naive_column(pi) == columns[pi]
        recent = [key for key in recent if key != pi.values] + [pi.values]
        info = poset._downset_ctx.cache_info()
        kept = list(poset._contexts.entries)
        assert kept == recent[len(recent) - len(kept) :]
        assert info.bytes == sum(ctx.nbytes() for ctx in poset._contexts.entries.values())
        assert info.bytes <= budget
        evicted = max(evicted, len(recent) - len(kept))
    assert evicted > 0 and 2 <= info.currsize < len(pis)


def test_the_context_store_keeps_the_lru_read_interface(monkeypatch):
    # bench/child.py and bench/tracer.py read these counts, and compare the
    # wrapped lookups with hits + misses
    poset._downset_ctx.cache_clear()
    info = poset._downset_ctx.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    lookups = [P("3142"), P("2413"), P("3142"), P("3142"), P("1"), P("2413")]
    for count, pi in enumerate(lookups, start=1):
        poset._downset_ctx(pi)
        info = poset._downset_ctx.cache_info()
        assert info.hits + info.misses == count
    assert (info.hits, info.misses, info.currsize) == (3, 3, 3)
    # a refused build is one miss, and keeps nothing
    monkeypatch.setattr(poset, "MAX_DOWNSET_MEMBERS", 8)
    with pytest.raises(TooLarge):
        poset._downset_ctx(P("25314"))
    info = poset._downset_ctx.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 4, 3)
    poset._downset_ctx.cache_clear()
    assert poset._downset_ctx.cache_info().currsize == 0


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
