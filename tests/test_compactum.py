"""Analysis operators on symbolic compacta.

Frozen values below were computed by hand from the component definitions:
derivative drops isolated points and collapses a sequence to its limit,
the reduct sends a lone interval [a,b] to the point (a+b)/2.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from compacta.compactum import (
    Cantor,
    CompactumForm,
    Interval,
    Point,
    PointSeq,
    all_clopen_selectors,
    canonical_form,
    cb_derivative,
    compactum,
    compactum_contains,
    derived_selector,
    parse_compactum,
    print_compactum,
    reduce_intoms,
    reduction,
    satisfies_inf,
    select,
)
from compacta.dyadic import Dyadic, ZERO

D = Dyadic
ONE = D(1)
HALF = D(1, 1)

I_A = Interval(D(9, 5), D(11, 5))  # [9/32, 11/32]
I_B = Interval(D(13, 4), D(15, 4))  # [13/16, 15/16]
JUNK = Point(D(1, 3))  # 1/8
SEQ_TO_HALF = PointSeq(HALF, D(1, 2), HALF)  # limit 1/2, far end 1/4


def sel(*ids: int) -> frozenset[int]:
    return frozenset(ids)


# --- validation ----------------------------------------------------------------


def test_components_sorted_on_construction():
    s = compactum([I_B, JUNK, I_A])
    assert s.components == (JUNK, I_A, I_B)


def test_overlap_rejected():
    with pytest.raises(ValueError):
        compactum([Interval(ZERO, HALF), Interval(D(1, 2), ONE)])


def test_plain_touch_rejected():
    with pytest.raises(ValueError):
        compactum([Interval(ZERO, HALF), Interval(HALF, ONE)])
    with pytest.raises(ValueError):
        compactum([Point(HALF), Interval(HALF, ONE)])


def test_sequence_limit_glue_allowed():
    s = compactum([SEQ_TO_HALF, Interval(HALF, D(3, 2))])
    assert len(s.components) == 2
    assert s.glue_groups() == [[0, 1]]


def test_far_end_glue_rejected():
    # only the limit end may touch a neighbour
    with pytest.raises(ValueError):
        compactum([PointSeq(D(1, 2), D(1, 2), HALF), Interval(HALF, ONE)])


def test_seq_to_seq_glue_rejected():
    with pytest.raises(ValueError):
        compactum(
            [PointSeq(HALF, D(1, 2), HALF), PointSeq(HALF, HALF, D(3, 2))]
        )


def test_outside_unit_rejected():
    with pytest.raises(ValueError):
        compactum([Point(D(-1, 1))])
    with pytest.raises(ValueError):
        compactum([Interval(HALF, D(3, 1))])


def test_clopen_respects_glue():
    s = compactum([SEQ_TO_HALF, Interval(HALF, D(3, 2)), Point(D(7, 3))])
    assert s.is_clopen(sel(0, 1))
    assert s.is_clopen(sel(2))
    assert s.is_clopen(sel(0, 1, 2))
    assert not s.is_clopen(sel(0))
    assert not s.is_clopen(sel(1, 2))
    with pytest.raises(ValueError):
        select(s, sel(1))


# --- derivative ----------------------------------------------------------------


def test_derivative_drops_isolated_points():
    s = compactum([JUNK, I_A, I_B])
    assert cb_derivative(s).components == (I_A, I_B)


def test_derivative_fixes_cantor():
    s = compactum([Cantor(ZERO, ONE)])
    assert cb_derivative(s) == s


def test_derivative_collapses_sequence_to_limit():
    s = compactum([SEQ_TO_HALF])
    assert cb_derivative(s).components == (Point(HALF),)


def test_derivative_absorbs_glued_limit():
    s = compactum([SEQ_TO_HALF, Interval(HALF, D(3, 2))])
    assert cb_derivative(s).components == (Interval(HALF, D(3, 2)),)


def test_second_derivative_stabilizes_without_sequences():
    s = compactum([JUNK, I_A, I_B, Cantor(D(7, 4), D(3, 2))])
    d = cb_derivative(s)
    assert cb_derivative(d) == d


def test_sequence_breaks_second_derivative_identity():
    s = compactum([SEQ_TO_HALF])
    d1 = cb_derivative(s)
    d2 = cb_derivative(d1)
    assert d1.components == (Point(HALF),)
    assert d2.components == ()
    assert d1 != d2


# --- reduct ----------------------------------------------------------------------


def test_reduce_interval_to_midpoint():
    assert reduce_intoms(compactum([Interval(ZERO, ONE)])).components == (
        Point(HALF),
    )


def test_reduce_leaves_cantor():
    s = compactum([Cantor(ZERO, ONE)])
    assert reduce_intoms(s) == s


def test_reduce_two_intervals():
    s = compactum([I_A, I_B])
    assert reduce_intoms(s).components == (Point(D(5, 4)), Point(D(7, 3)))


def test_reduce_skips_glued_interval():
    s = compactum([SEQ_TO_HALF, Interval(HALF, D(3, 2))])
    assert reduce_intoms(s) == s


def test_reduce_idempotent():
    for s in [
        compactum([I_A, I_B, JUNK]),
        compactum([Cantor(ZERO, D(1, 2)), Interval(HALF, D(3, 2))]),
        compactum([SEQ_TO_HALF, Interval(HALF, D(3, 2))]),
    ]:
        once = reduce_intoms(s)
        assert reduce_intoms(once) == once


def test_reduction_composite():
    s = compactum([JUNK, I_A, I_B])
    assert reduction(s).components == (Point(D(5, 4)), Point(D(7, 3)))


def test_reduction_cantor_fixed():
    s = compactum([Cantor(ZERO, ONE)])
    assert reduction(s) == s


def test_reduction_point_dies():
    assert reduction(compactum([Point(HALF)])).components == ()


# --- inf predicate ---------------------------------------------------------------


def test_satisfies_inf_cases():
    s = compactum([Cantor(ZERO, D(1, 2)), Interval(HALF, D(3, 2)), Point(D(7, 3))])
    assert satisfies_inf(s, sel(0))
    assert not satisfies_inf(s, sel(1))
    assert not satisfies_inf(s, sel(1, 2))
    assert satisfies_inf(s, sel(0, 1, 2))


def test_seq_counts_as_infinite_splitting():
    s = compactum([SEQ_TO_HALF])
    assert satisfies_inf(s, sel(0))


def test_inf_transfer_on_sequence_free_compacta():
    s = compactum(
        [JUNK, I_A, I_B, Cantor(D(7, 4), D(3, 2)), Point(D(31, 5))]
    )
    d = cb_derivative(s)
    for x in all_clopen_selectors(s):
        assert satisfies_inf(s, x) == satisfies_inf(d, derived_selector(s, x))


def test_inf_transfer_fails_on_sequence():
    s = compactum([SEQ_TO_HALF])
    d = cb_derivative(s)
    x = sel(0)
    assert satisfies_inf(s, x)
    assert not satisfies_inf(d, derived_selector(s, x))


# --- canonical form ----------------------------------------------------------------


def test_two_cantors_one_cantor():
    a = compactum([Cantor(ZERO, D(1, 2)), Cantor(HALF, D(3, 2))])
    b = compactum([Cantor(ZERO, ONE)])
    assert canonical_form(a) == canonical_form(b)


def test_sequence_absorbs_isolated_points():
    a = compactum([SEQ_TO_HALF, Point(D(7, 3))])
    b = compactum([PointSeq(D(3, 2), HALF, D(3, 2))])
    assert canonical_form(a) == canonical_form(b)


def test_points_matter_without_sequences():
    a = compactum([Point(D(1, 4)), Point(D(3, 4))])
    b = compactum([Point(HALF)])
    assert canonical_form(a) != canonical_form(b)


def test_glue_orientation_is_mirror_invariant():
    left = compactum([SEQ_TO_HALF, Interval(HALF, D(3, 2))])
    right = compactum(
        [Interval(D(1, 2), HALF), PointSeq(HALF, HALF, D(3, 2))]
    )
    assert canonical_form(left) == canonical_form(right)


def test_glue_count_distinguishes():
    one = compactum([SEQ_TO_HALF, Interval(HALF, D(3, 2))])
    two = compactum(
        [
            SEQ_TO_HALF,
            Interval(HALF, D(3, 2)),
            PointSeq(D(3, 2), D(3, 2), D(7, 3)),
        ]
    )
    assert canonical_form(one) != canonical_form(two)


def test_form_fields_explicit():
    s = compactum([JUNK, I_A, Cantor(HALF, D(3, 2)), Point(D(31, 5))])
    assert canonical_form(s) == CompactumForm(
        points=2, intervals=1, seqs=0, cantor=True, glue=()
    )


# --- membership --------------------------------------------------------------------


UNIT_CANTOR = compactum([Cantor(ZERO, ONE)])


def test_cantor_unit_members():
    for q in [0, 1, Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
              Fraction(3, 4), Fraction(1, 10), Fraction(1, 9), Fraction(7, 9)]:
        assert compactum_contains(UNIT_CANTOR, Fraction(q))


def test_cantor_unit_non_members():
    for q in [Fraction(1, 2), Fraction(5, 12), Fraction(1, 5), Fraction(4, 9)]:
        assert not compactum_contains(UNIT_CANTOR, Fraction(q))


def test_scaled_cantor_membership():
    c = compactum([Cantor(D(1, 2), D(3, 2))])  # on [1/4, 3/4]
    assert compactum_contains(c, Fraction(1, 4))
    assert compactum_contains(c, Fraction(3, 4))
    assert compactum_contains(c, Fraction(1, 4) + Fraction(1, 2) / 3)
    assert not compactum_contains(c, Fraction(1, 2))
    assert not compactum_contains(c, Fraction(7, 8))


def test_sequence_membership():
    s = compactum([SEQ_TO_HALF])  # limit 1/2, far 1/4, members 1/2 - 1/4 * 2^-i
    assert compactum_contains(s, Fraction(1, 2))
    assert compactum_contains(s, Fraction(1, 4))
    assert compactum_contains(s, Fraction(3, 8))
    assert compactum_contains(s, Fraction(7, 16))
    assert not compactum_contains(s, Fraction(1, 3))
    assert not compactum_contains(s, Fraction(5, 8))


def test_sequence_members_start_at_the_far_end():
    """member(0) is the far end and the members close in on the limit; a
    negative index, which would land beyond the far end, is refused."""
    assert [SEQ_TO_HALF.member(i) for i in range(3)] == [D(1, 2), D(3, 3), D(7, 4)]
    for i in (-1, -2):
        with pytest.raises(ValueError) as exc:
            SEQ_TO_HALF.member(i)
        assert str(exc.value) == f"index must be a natural number, got {i}"


def test_compactum_contains():
    s = compactum([JUNK, I_A])
    assert compactum_contains(s, Fraction(1, 8))
    assert compactum_contains(s, Fraction(10, 32))
    assert not compactum_contains(s, Fraction(1, 2))


# --- text format -------------------------------------------------------------------


def test_print_parse_roundtrip():
    s = compactum(
        [JUNK, I_A, Cantor(HALF, D(3, 2)), PointSeq(D(7, 3), D(7, 3), D(15, 4))]
    )
    text = print_compactum(s)
    assert parse_compactum(text) == s
    assert print_compactum(parse_compactum(text)) == text


def test_fixed_file_shape():
    s = compactum([JUNK, I_A])
    assert print_compactum(s) == (
        "compactum v1\npoint 1/2^3\ninterval 9/2^5 11/2^5\n"
    )


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_compactum("compactum v1\nball 1/2^1 1/2^2\n")
    with pytest.raises(ValueError):
        parse_compactum("point 1/2^3\n")


# --- property: derivative and reduct keep validity ---------------------------------

positions = st.integers(min_value=0, max_value=63)


@st.composite
def small_compacta(draw):
    """Disjoint components on a 1/64 grid, no glue."""
    cells = draw(st.lists(positions, unique=True, min_size=0, max_size=6))
    comps = []
    for cell in sorted(cells):
        lo = Dyadic(cell, 6)
        hi = Dyadic(2 * cell + 1, 7)  # half-cell wide: gaps guaranteed
        kind = draw(st.sampled_from(["point", "interval", "cantor", "seq"]))
        if kind == "point":
            comps.append(Point(lo))
        elif kind == "interval":
            comps.append(Interval(lo, hi))
        elif kind == "cantor":
            comps.append(Cantor(lo, hi))
        else:
            limit = draw(st.sampled_from([lo, hi]))
            comps.append(PointSeq(limit, lo, hi))
    return compactum(comps)


@given(small_compacta())
def test_operators_preserve_validity(s):
    d = cb_derivative(s)
    r = reduction(s)
    assert reduce_intoms(r) == r
    if not any(isinstance(c, PointSeq) for c in s.components):
        assert cb_derivative(d) == d


@given(small_compacta())
def test_reduction_removes_all_intoms(s):
    r = reduction(s)
    assert all(not isinstance(c, Interval) for c in r.components)
