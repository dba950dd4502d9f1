"""Permutation values, constructions, symmetries, and oscillation shapes."""

from __future__ import annotations

import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permmobius import (
    EMPTY,
    MobiusEngine,
    EmptyOperand,
    InvalidShape,
    NotAPermutation,
    OscillationId,
    Permutation,
    PiClass,
    Shape,
    classify_oscillation,
    complement,
    contains,
    direct_sum,
    family_sum,
    interleave,
    inverse,
    is_identity,
    is_increasing_oscillation,
    is_reverse_identity,
    is_sum_indecomposable,
    iterated_interleave_21,
    iterated_sum,
    oscillation,
    parse_permutation,
    realize_shape,
    reverse,
    skew_sum,
    sum_decompose,
)
from permmobius import perms

from helpers import (
    all_perm_tuples,
    contains_ref,
    inverse_ref,
    is_simple,
    oscillating_sequence_prefix,
    oscillation_ref,
    sum_components_ref,
)

perm_vals = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


# ---------------------------------------------------------------- parsing


def test_parse_accepts_bare_digits_and_separated_forms():
    assert parse_permutation("3142").values == (3, 1, 4, 2)
    assert parse_permutation("3 1 4 2").values == (3, 1, 4, 2)
    assert parse_permutation("3,1,4,2").values == (3, 1, 4, 2)
    assert parse_permutation("") == EMPTY


def test_parse_rejects_non_bijections():
    with pytest.raises(NotAPermutation):
        parse_permutation("3152")
    with pytest.raises(NotAPermutation):
        parse_permutation("1 1")
    with pytest.raises(NotAPermutation):
        parse_permutation("0")


def test_str_emits_separated_form():
    assert str(parse_permutation("315274968")) == "3 1 5 2 7 4 9 6 8"
    assert str(EMPTY) == ""


# ---------------------------------------------------------- constructions


def test_sum_skew_and_interleave_values():
    p321, p213 = parse_permutation("321"), parse_permutation("213")
    assert str(direct_sum(p321, p213)) == "3 2 1 5 4 6"
    assert str(skew_sum(p321, p213)) == "6 5 4 2 1 3"
    assert str(interleave(p321, p213)) == "4 2 1 5 3 6"


def test_interleave_of_21_blocks_and_caps():
    two1 = parse_permutation("21")
    assert str(interleave(two1, two1)) == "3 1 4 2"
    assert str(interleave(parse_permutation("1"), two1)) == "2 3 1"
    assert str(interleave(two1, parse_permutation("1"))) == "3 1 2"


def test_iterated_constructions():
    assert str(iterated_sum(parse_permutation("21"), 3)) == "2 1 4 3 6 5"
    assert str(iterated_interleave_21(2)) == "3 1 4 2"
    assert str(iterated_interleave_21(3)) == "3 1 5 2 6 4"


def test_empty_operands():
    assert direct_sum(EMPTY, parse_permutation("21")).values == (2, 1)
    with pytest.raises(EmptyOperand):
        interleave(EMPTY, parse_permutation("21"))


@given(perm_vals)
def test_sum_lengths_add_and_components_concatenate(vals):
    p = Permutation(vals)
    q = parse_permutation("21")
    s = direct_sum(p, q)
    assert len(s.values) == len(vals) + 2
    assert [c.values for c in sum_decompose(s).components] == [
        c.values for c in sum_decompose(p).components
    ] + [(2, 1)]


# ------------------------------------------------------------- symmetry


def test_symmetry_examples():
    assert str(inverse(parse_permutation("3142"))) == "2 4 1 3"
    assert str(reverse(parse_permutation("123"))) == "3 2 1"
    assert str(complement(parse_permutation("21"))) == "1 2"


@given(perm_vals)
def test_symmetries_are_involutions(vals):
    p = Permutation(vals)
    assert inverse(inverse(p)) == p
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert inverse(p).values == inverse_ref(vals)


# ----------------------------------------------------------- containment


@given(perm_vals, perm_vals)
@settings(max_examples=150)
def test_containment_matches_brute_force(sv, pv):
    assert contains(Permutation(sv), Permutation(pv)) == contains_ref(sv, pv)


def test_containment_edge_cases():
    assert contains(EMPTY, parse_permutation("3142"))
    assert contains(EMPTY, EMPTY)


def test_containment_of_long_oscillations_needs_no_recursion():
    w1300 = oscillation(OscillationId("W", 1300))
    assert contains(oscillation(OscillationId("W", 1200)), w1300)
    assert contains(oscillation(OscillationId("M", 1199)), w1300)


def test_containment_is_a_partial_order_on_small_lengths():
    perms = [Permutation(v) for n in range(1, 5) for v in all_perm_tuples(n)]
    for p in perms:
        assert contains(p, p)
    for p in perms:
        for q in perms:
            if len(p.values) == len(q.values) and contains(p, q):
                assert p == q


# -------------------------------------------------------- decomposition


def test_sum_decompose_examples():
    comps = sum_decompose(parse_permutation("321546")).components
    assert [str(c) for c in comps] == ["3 2 1", "2 1", "1"]
    assert sum_decompose(parse_permutation("1")).components == (
        parse_permutation("1"),
    )


@given(perm_vals)
def test_sum_decompose_matches_prefix_maximum_reference(vals):
    comps = [c.values for c in sum_decompose(Permutation(vals)).components]
    assert comps == sum_components_ref(vals)
    assert is_sum_indecomposable(Permutation(vals)) == (len(comps) == 1)


def _sum_ref(comps: list[tuple[int, ...]]) -> tuple[int, ...]:
    out: list[int] = []
    for comp in comps:
        shift = len(out)
        out += [v + shift for v in comp]
    return tuple(out)


def test_every_prefix_and_suffix_matches_a_plain_reference():
    for n in range(8):
        for vals in all_perm_tuples(n):
            dec = sum_decompose(Permutation(vals))
            comps = sum_components_ref(vals)
            assert [c.values for c in dec.components] == comps
            for _ in range(2):  # built, then read back from the entry or rebuilt
                for i in range(len(comps) + 1):
                    assert dec.prefix(i).values == _sum_ref(comps[:i])
                    assert dec.suffix(i).values == _sum_ref(comps[i:])


def test_the_decomposition_store_is_bounded_and_empty_at_import():
    code = (
        "import permmobius; from permmobius import perms; "
        "info = perms._decomposition.cache_info(); print(info.maxsize, info.currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{perms._DECOMPOSITIONS} 0\n"
    assert 0 < perms._DECOMPOSITIONS < 2**20


@pytest.mark.parametrize("sigma", ["1", "12"])
def test_a_long_near_identity_upper_bound_is_decomposed_in_linear_space(sigma):
    # id_20000 + 21 has 20,001 components; no suffix is built that is not asked for.
    pi = Permutation(tuple(range(1, 20001)) + (20002, 20001))
    perms._decomposition.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value = MobiusEngine().mobius(parse_permutation(sigma), pi)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0
    assert elapsed < 1.0
    assert peak < 50 * 2**20


def test_identity_and_reverse_identity_predicates():
    assert is_identity(parse_permutation("1234"))
    assert not is_identity(parse_permutation("1243"))
    assert is_reverse_identity(parse_permutation("4321"))
    assert not is_reverse_identity(parse_permutation("4312"))


# ------------------------------------------------------------- families


def test_family_sum_members():
    fam = {str(p) for p in family_sum(parse_permutation("21"))}
    assert fam == {"2 1", "1 3 2", "2 1 3", "1 3 2 4"}


# ---------------------------------------------------------- oscillations


def test_small_oscillations():
    assert str(oscillation(OscillationId("W", 1))) == "1"
    assert str(oscillation(OscillationId("M", 1))) == "1"
    assert str(oscillation(OscillationId("W", 2))) == "2 1"
    assert str(oscillation(OscillationId("M", 2))) == "2 1"
    assert str(oscillation(OscillationId("W", 3))) == "3 1 2"
    assert str(oscillation(OscillationId("M", 3))) == "2 3 1"


def test_frozen_oscillation_values():
    assert str(oscillation(OscillationId("W", 8))) == "3 1 5 2 7 4 8 6"
    assert oscillation(OscillationId("W", 10)).values == (3, 1, 5, 2, 7, 4, 9, 6, 10, 8)
    assert str(oscillation(OscillationId("W", 9))) == "3 1 5 2 7 4 9 6 8"
    assert str(oscillation(OscillationId("M", 5))) == "2 4 1 5 3"
    assert str(oscillation(OscillationId("M", 8))) == "2 4 1 6 3 8 5 7"


def test_oscillation_structural_formulas():
    one = parse_permutation("1")
    for kind in "WM":
        assert oscillation(OscillationId(kind, 1)) == one
        assert oscillation(OscillationId(kind, 2)) == parse_permutation("21")
    for n in range(3, 301):
        w, m = (oscillation(OscillationId(kind, n)) for kind in "WM")
        if n % 2 == 0:
            chain = iterated_interleave_21((n - 2) // 2)
            assert w == iterated_interleave_21(n // 2), n
            assert m == interleave(interleave(one, chain), one), n
        else:
            chain = iterated_interleave_21((n - 1) // 2)
            assert w == interleave(chain, one), n
            assert m == interleave(one, chain), n


def test_w_is_inverse_of_m():
    for n in range(1, 30):
        w = oscillation(OscillationId("W", n))
        m = oscillation(OscillationId("M", n))
        assert inverse(w) == m


def test_oscillations_are_simple_windows_of_the_oscillating_sequence():
    for n in range(4, 20):
        w = oscillation(OscillationId("W", n))
        assert is_simple(w.values)
        assert contains_ref(w.values, oscillating_sequence_prefix(n + 2))


def test_oscillating_sequence_prefix_is_the_even_chain():
    assert oscillating_sequence_prefix(8) == (3, 1, 5, 2, 7, 4, 8, 6)
    assert oscillating_sequence_prefix(6) == iterated_interleave_21(3).values


def test_oscillation_rejects_nonpositive_length():
    with pytest.raises(InvalidShape):
        oscillation(OscillationId("W", 0))


@pytest.mark.parametrize("n", [2.5, "5", None])
def test_oscillation_id_refuses_a_length_that_is_not_an_integer(n):
    with pytest.raises(InvalidShape):
        OscillationId("W", n)


def test_oscillation_id_takes_a_numpy_integer_length():
    id = OscillationId("W", np.int64(5))
    assert id == OscillationId("W", 5)
    assert type(id.n) is int
    assert oscillation(id) == oscillation(OscillationId("W", 5))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Shape("Plain", 2.5),
        lambda: Shape("Plain", "3"),
        lambda: Shape("LeftCapped", True),
        lambda: PiClass("W_even", 2.5),
        lambda: PiClass("W_even", "3"),
        lambda: PiClass("W_even", True),
        lambda: OscillationId("W", True),
    ],
)
def test_shape_parameters_refuse_non_integers_and_bools(make):
    with pytest.raises(InvalidShape):
        make()


def test_shape_parameters_store_a_numpy_integer_as_an_int():
    shape = Shape("Plain", np.int64(3))
    assert shape == Shape("Plain", 3)
    assert type(shape.k) is int
    assert type(PiClass("W_even", np.int64(3)).n) is int


def test_is_increasing_oscillation_membership():
    yes = ["1", "21", "231", "312", "2413", "3142", "24153", "31524"]
    no = ["12", "123", "321", "213", "132", "2143", "1234"]
    for s in yes:
        assert is_increasing_oscillation(parse_permutation(s)), s
    for s in no:
        assert not is_increasing_oscillation(parse_permutation(s)), s
    for n in range(1, 25):
        for kind in "WM":
            assert is_increasing_oscillation(oscillation(OscillationId(kind, n)))


def _oscillation_id_ref(vals):
    found = oscillation_ref(vals)
    return None if found is None else OscillationId(*found[1])


def test_oscillation_id_matches_reference():
    # Every permutation of length <= 8 (most are rejected on their first
    # two values), and W_n / M_n to n = 300.
    for n in range(9):
        for vals in all_perm_tuples(n):
            assert perms.oscillation_id(Permutation(vals)) == _oscillation_id_ref(vals)
    for n in range(1, 301):
        for kind in "WM":
            p = oscillation(OscillationId(kind, n))
            want = _oscillation_id_ref(p.values)
            assert want is not None and perms.oscillation_id(p) == want, (kind, n)


# --------------------------------------------------------------- shapes


def test_realize_shape_examples():
    assert str(realize_shape(Shape("Single21", 1))) == "2 1"
    assert str(realize_shape(Shape("Plain", 2))) == "3 1 4 2"
    assert str(realize_shape(Shape("LeftCapped", 2))) == "2 4 1 5 3"
    assert str(realize_shape(Shape("RightCapped", 4))) == "3 1 5 2 7 4 9 6 8"
    assert str(realize_shape(Shape("BothCapped", 1))) == "2 4 1 3"


def test_realize_shape_matches_oscillation_members():
    for v in range(2, 9):
        assert realize_shape(Shape("Plain", v)) == oscillation(OscillationId("W", 2 * v))
    for v in range(1, 9):
        assert realize_shape(Shape("RightCapped", v)) == oscillation(
            OscillationId("W", 2 * v + 1)
        )
        assert realize_shape(Shape("LeftCapped", v)) == oscillation(
            OscillationId("M", 2 * v + 1)
        )
        assert realize_shape(Shape("BothCapped", v)) == oscillation(
            OscillationId("M", 2 * v + 2)
        )


def test_realize_shape_rejects_out_of_domain_parameters():
    with pytest.raises(InvalidShape):
        realize_shape(Shape("Plain", 1))
    with pytest.raises(InvalidShape):
        realize_shape(Shape("Single21", 2))
    with pytest.raises(InvalidShape):
        realize_shape(Shape("LeftCapped", 0))


def test_classify_oscillation_round_trip():
    shapes = [Shape("Single21", 1)]
    shapes += [Shape("Plain", k) for k in range(2, 50)]
    for kind in ("LeftCapped", "RightCapped", "BothCapped"):
        shapes += [Shape(kind, k) for k in range(1, 50)]
    for s in shapes:
        realized = realize_shape(s)
        if len(realized.values) > 200:
            continue
        assert classify_oscillation(realized) == s


def test_classify_oscillation_rejects_non_members():
    assert classify_oscillation(parse_permutation("1234")) is None
    assert classify_oscillation(parse_permutation("2143")) is None
    assert classify_oscillation(parse_permutation("1")) is None


def test_realized_shapes_are_indecomposable_oscillations():
    shapes = [Shape("Single21", 1), Shape("Plain", 3), Shape("LeftCapped", 2),
              Shape("RightCapped", 2), Shape("BothCapped", 2)]
    for s in shapes:
        p = realize_shape(s)
        assert is_sum_indecomposable(p)
        assert is_increasing_oscillation(p)
