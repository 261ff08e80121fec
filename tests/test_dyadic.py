"""Exact arithmetic and the nested interval layout.

The oracle below recomputes every interval with Fractions from the block
description alone: block n sits between (1 - 2^-n)/2 and (1 - 2^-(n+1))/2,
the even interval 2n is centered in block n, the odd interval 2n+1 is its
mirror image, and every interval with index m has length exactly 2^-(m+2).
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import hypothesis as hyp
import pytest
from hypothesis import given, strategies as st

from compacta.dyadic import (
    ZERO,
    Dyadic,
    format_address,
    midpoint,
    parse_address,
    parse_dyadic,
)
from dyadic_stage import address_ends, dyadic_ceil

ONE = Dyadic(1)
HALF = Dyadic(1, 1)


def oracle_base(m: int) -> tuple[Fraction, Fraction]:
    n = m // 2
    block_lo = (1 - Fraction(1, 2**n)) / 2
    block_hi = (1 - Fraction(1, 2 ** (n + 1))) / 2
    center = (block_lo + block_hi) / 2
    if m % 2:
        center = 1 - center
    half = Fraction(1, 2 ** (m + 3))
    return center - half, center + half


def oracle_nested(addr: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(0), Fraction(1)
    for m in addr:
        b_lo, b_hi = oracle_base(m)
        span = hi - lo
        lo, hi = lo + span * b_lo, lo + span * b_hi
    return lo, hi


def ends(addr: tuple[int, ...]) -> tuple[Dyadic, Dyadic]:
    """The interval of addr as `Dyadic` ends, read through `address_ends`."""
    lo, e = address_ends(addr)
    return Dyadic(lo, e), Dyadic(lo + 2, e)


def center(addr: tuple[int, ...]) -> Dyadic:
    """The concentration point of addr: the midpoint of its interval."""
    return midpoint(*ends(addr))


def as_fr(iv: tuple[Dyadic, Dyadic]) -> tuple[Fraction, Fraction]:
    return iv[0].as_fraction(), iv[1].as_fraction()


# --- frozen values -----------------------------------------------------------

FROZEN = {
    0: (Fraction(0), Fraction(1, 4)),
    1: (Fraction(13, 16), Fraction(15, 16)),
    2: (Fraction(9, 32), Fraction(11, 32)),
    3: (Fraction(43, 64), Fraction(45, 64)),
    4: (Fraction(51, 128), Fraction(53, 128)),
}


def test_frozen_base_intervals():
    for m, expected in FROZEN.items():
        assert as_fr(ends((m,))) == expected
        assert oracle_base(m) == expected


def test_frozen_nested_interval():
    assert as_fr(ends((0, 1))) == (Fraction(13, 64), Fraction(15, 64))


def test_frozen_concentration_points():
    assert center(()).as_fraction() == Fraction(1, 2)
    assert center((0,)).as_fraction() == Fraction(1, 8)
    assert center((1,)).as_fraction() == Fraction(7, 8)


def test_frozen_gap_between_first_pair():
    gap = ends((2,))[0] - ends((0,))[1]
    assert gap.as_fraction() == Fraction(1, 32)
    assert gap > ZERO


def test_root_interval_is_unit():
    assert address_ends(()) == (0, 1)
    assert ends(()) == (ZERO, ONE)


# --- lengths, ordering, separation ------------------------------------------


def test_length_is_two_to_minus_m_minus_two():
    for m in range(0, 24):
        lo, hi = ends((m,))
        assert (hi - lo).as_fraction() == Fraction(1, 2 ** (m + 2))


def test_base_intervals_pairwise_disjoint_with_gaps():
    ivs = [as_fr(ends((m,))) for m in range(40)]
    ivs.sort()
    for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
        assert hi1 < lo2


def test_even_intervals_left_of_half_odd_right():
    for m in range(0, 30, 2):
        assert ends((m,))[1] < HALF
    for m in range(1, 30, 2):
        assert ends((m,))[0] > HALF


def test_odd_center_is_mirror_of_even_center():
    for n in range(12):
        assert ONE - center((2 * n,)) == center((2 * n + 1,))


def test_base_intervals_accumulate_at_half():
    for m in range(2, 60, 2):
        prev = ends((m - 2,))
        here = ends((m,))
        assert prev[1] < here[0]  # marching right toward 1/2
    assert HALF - ends((58,))[1] < Dyadic(1, 29)


addresses = st.lists(st.integers(min_value=0, max_value=25), max_size=5).map(tuple)


@given(addresses)
def test_nested_matches_oracle(addr):
    assert as_fr(ends(addr)) == oracle_nested(addr)


@given(addresses, st.integers(min_value=0, max_value=25))
def test_child_strictly_inside_parent(addr, m):
    (p_lo, p_hi), (c_lo, c_hi) = ends(addr), ends(addr + (m,))
    assert p_lo <= c_lo and c_hi <= p_hi
    assert c_hi - c_lo < p_hi - p_lo


@given(addresses, st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
def test_sibling_subintervals_disjoint(addr, m1, m2):
    hyp.assume(m1 != m2)
    (a_lo, a_hi), (b_lo, b_hi) = ends(addr + (m1,)), ends(addr + (m2,))
    assert a_hi < b_lo or b_hi < a_lo


@given(addresses, st.integers(min_value=0, max_value=25))
def test_concentration_point_outside_children(addr, m):
    p = center(addr)
    c_lo, c_hi = ends(addr + (m,))
    assert p < c_lo or p > c_hi


@given(addresses, st.integers(min_value=0, max_value=40))
def test_children_converge_to_concentration_point(addr, m):
    p_lo, p_hi = ends(addr)
    p = center(addr)
    c_lo, c_hi = ends(addr + (m,))
    dist = max(abs(p - c_lo), abs(p - c_hi))
    bound = (p_hi - p_lo).scaled_pow2(-(m // 2) - 1)
    assert dist <= bound


# --- arithmetic --------------------------------------------------------------

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=48),
)


def canonical(x: Dyadic) -> bool:
    return x.num == 0 and x.exp == 0 or x.num % 2 == 1 or x.exp == 0


@given(dyadics, dyadics)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(dyadics, dyadics)
def test_arithmetic_agrees_with_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()


@given(dyadics, dyadics)
def test_comparisons_agree_with_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(dyadics)
def test_canonical_representation(a):
    assert canonical(a)


@given(dyadics, dyadics)
def test_results_are_canonical(a, b):
    for x in (a + b, a - b, -a, abs(a), a.half(), a.scaled_pow2(-3)):
        assert canonical(x)


@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=48),
)
def test_equal_exponents_agree_with_fractions(m, n, e):
    a, b = Dyadic(2 * m + 1, e), Dyadic(2 * n + 1, e)
    fa, fb = a.as_fraction(), b.as_fraction()
    for x, want in ((a + b, fa + fb), (a - b, fa - fb)):
        assert x.as_fraction() == want
        assert canonical(x)
    assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)


def test_dyadic_is_immutable_and_picklable():
    d = Dyadic(6, 3)
    assert (d.num, d.exp) == (3, 2)
    with pytest.raises(AttributeError):
        d.num = 1
    with pytest.raises(AttributeError):
        d.other = 1
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert twin == d and hash(twin) == hash(d) and str(twin) == "3/2^2"


@given(dyadics, dyadics)
def test_midpoint_between(a, b):
    lo, hi = min(a, b), max(a, b)
    mid = midpoint(a, b)
    assert lo <= mid <= hi
    assert mid - lo == hi - mid


@given(dyadics)
def test_parse_print_roundtrip(a):
    assert parse_dyadic(str(a)) == a


def test_parse_dyadic_fixed_forms():
    assert parse_dyadic("13/2^4") == Dyadic(13, 4)
    assert parse_dyadic("0/2^0") == ZERO
    assert parse_dyadic("1/2^0") == ONE
    assert parse_dyadic("-3/2^1") == Dyadic(-3, 1)


def test_dyadic_ceil_rounds_up():
    v = Fraction(1, 3)
    c = dyadic_ceil(v, bits=10)
    assert c.as_fraction() >= v
    assert c.as_fraction() - v < Fraction(1, 2**10)
    exact = Fraction(5, 8)
    assert dyadic_ceil(exact, bits=10).as_fraction() == exact


@given(st.lists(st.integers(min_value=0, max_value=99), max_size=6).map(tuple))
def test_address_roundtrip(addr):
    assert parse_address(format_address(addr)) == addr


def test_root_address_prints_as_dash():
    assert format_address(()) == "-"
    assert parse_address("-") == ()
