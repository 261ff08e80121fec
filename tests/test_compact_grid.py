"""Differential test: the integer-grid covers, cover checks and ball
decisions in `compacta.compact` against the `Fraction` reference kept in
`fraction_compact`.

Both must agree on the seeded 500-tree suite, on the same hosts with
convergent sequences glued to their intervals and Cantor copies, and on
hypothesis-drawn hosts: cover output (balls and tangency flags), the
verdict on true and on corrupted certificates, open and closed ball
intersection, and membership of rationals.  The walk every region test
and membership decision goes through, `compactum.succ` and its mirror
`pred`, is checked against the reference region test directly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_compact as ref
from compacta.compact import (
    Ball,
    CoverCertificate,
    balls_intersect,
    cover,
    cover_is_valid,
    parse_cover,
    print_cover,
)
from compacta.compactum import (
    Cantor,
    Grid,
    Interval,
    Point,
    PointSeq,
    compactum,
    compactum_contains,
    max_exp,
    pred,
    succ,
)
from compacta.dyadic import ONE, ZERO, Dyadic, midpoint
from test_acceptance import SUITE_SEED, suite_instances

F = Fraction
PRECISIONS = range(11)
GLUE_EVERY = 3
# Rational positions inside a component's hull, as shares of its span:
# dyadic, triadic and neither, on and off the Cantor set.
SHARES = (F(1, 7), F(2, 9), F(1, 4), F(1, 10), F(3, 4), F(5, 13))


def glued(host):
    """The host with every interval and Cantor copy shortened and a
    convergent sequence glued to one or both of its new ends; None when
    there is nothing to glue to."""
    out = []
    for k, comp in enumerate(host.components):
        if not isinstance(comp, (Interval, Cantor)):
            out.append(comp)
            continue
        kind, lo, hi = type(comp), comp.lo, comp.hi
        mid = midpoint(lo, hi)
        side = k % 3
        if side == 0:
            out += [PointSeq(mid, lo, mid), kind(mid, hi)]
        elif side == 1:
            out += [kind(lo, mid), PointSeq(mid, mid, hi)]
        else:
            a, b = midpoint(lo, mid), midpoint(mid, hi)
            out += [PointSeq(a, lo, a), kind(a, b), PointSeq(b, b, hi)]
    if len(out) == len(host.components):
        return None
    return compactum(out)


def suite_hosts() -> list:
    """The suite's limits and every GLUE_EVERY-th one glued.  The suite
    repeats some limits; each distinct host is listed once."""
    limits = [limit for _, limit in suite_instances()]
    extra = (glued(h) for h in limits[::GLUE_EVERY])
    return list(dict.fromkeys(limits + [h for h in extra if h is not None]))


def member(rng: random.Random, comp) -> Fraction:
    """A rational point of the component."""
    if isinstance(comp, Point):
        return comp.pos.as_fraction()
    lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
    if isinstance(comp, Interval):
        return lo + (hi - lo) * rng.choice(SHARES + (F(0), F(1)))
    if isinstance(comp, Cantor):
        t = rng.choice((F(0), F(1), F(1, 4), F(3, 4), F(1, 10), F(2, 9)))
        return lo + (hi - lo) * t
    if rng.random() < 0.2:
        return comp.limit.as_fraction()
    return comp.member(rng.randrange(0, 7)).as_fraction()


def assert_same_membership(s, rng: random.Random) -> None:
    """Members, spots by SHARES of each hull, and spots just left of it."""
    for comp in s.components:
        lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
        for x in (
            member(rng, comp),
            lo + (hi - lo) * rng.choice(SHARES),
            lo - F(1, 2 ** rng.randrange(1, 64)),
        ):
            assert compactum_contains(s, x) == ref.compactum_contains(s, x), (s, x)


def assert_same_decisions(s, cert) -> None:
    got = cover_is_valid(s, cert)
    assert got == ref.cover_is_valid(s, cert), (s, cert)


def corrupted(s, cert, rng: random.Random) -> list[CoverCertificate]:
    """Certificates that break one of the checks, or may."""
    n, balls = cert.n, cert.balls
    r = F(1, 2 ** n)
    out = []
    if len(balls) >= 3:
        k = rng.randrange(len(balls) - 1)
        out.append(CoverCertificate(n, balls[:k] + balls[k + 2 :], None))
        k = rng.randrange(len(balls))
        wrong = Ball(balls[k].center, r / 2)
        out.append(CoverCertificate(n, balls[:k] + (wrong,) + balls[k + 1 :], None))
    out.append(CoverCertificate(n + 1, balls, None))
    for comp in rng.sample(s.components, min(3, len(s.components))):
        lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
        x = lo + (hi - lo) * rng.choice(SHARES)
        out.append(CoverCertificate(n, balls + (Ball(x, r),), None))
    if balls:
        # move every centre by r/7 where it stays in the set
        hulls = ref._component_hulls(s)
        moved = []
        for b in balls:
            x = b.center + r / 7
            moved.append(Ball(x, r) if ref._point_in_set(s, x, hulls) else b)
        out.append(CoverCertificate(n, tuple(moved), None))
    text = print_cover(cert) + "ball 1/7 {0}\nball 2/9 {0}\n".format(r)
    out.append(parse_cover(text))
    return out


def ball_pairs(s, rng: random.Random, count: int) -> list[tuple[Ball, Ball]]:
    comps = s.components
    pairs = []
    for _ in range(count):
        i = rng.randrange(len(comps))
        j = min(len(comps) - 1, max(0, i + rng.choice((-1, 0, 0, 1))))
        r1 = F(1, 2 ** rng.randrange(0, 8)) * rng.choice((1, F(2, 3), F(5, 7)))
        r2 = F(1, 2 ** rng.randrange(0, 8))
        pairs.append((Ball(member(rng, comps[i]), r1), Ball(member(rng, comps[j]), r2)))
    return pairs


def assert_same_meets(s, b1: Ball, b2: Ball) -> None:
    for closed in (False, True):
        got = balls_intersect(s, b1, b2, closed)
        assert got == ref.balls_intersect(s, b1, b2, closed), (s, b1, b2, closed)


# ---------------------------------------------------------------------------
# The seeded suite and its glued hosts
# ---------------------------------------------------------------------------


def test_covers_match_reference_on_suite() -> None:
    for idx, s in enumerate(suite_hosts()):
        for n in PRECISIONS:
            cert = cover(s, n)
            assert cert == ref.cover(s, n), (idx, n)
            assert cover_is_valid(s, cert), (idx, n)
            assert ref.cover_is_valid(s, cert), (idx, n)


def test_corrupted_certificates_match_reference_on_suite() -> None:
    rng = random.Random(SUITE_SEED + 21)
    rejected = 0
    for s in suite_hosts()[::5]:
        for n in (0, 2, 4, 6):
            for bad in corrupted(s, cover(s, n), rng):
                assert_same_decisions(s, bad)
                rejected += not cover_is_valid(s, bad)
    assert rejected > 1000


def test_ball_decisions_match_reference_on_suite() -> None:
    rng = random.Random(SUITE_SEED + 22)
    for s in suite_hosts():
        if not s.components:
            continue
        for b1, b2 in ball_pairs(s, rng, 6):
            assert_same_meets(s, b1, b2)
        balls = cover(s, rng.randrange(2, 6)).balls
        for _ in range(6):
            assert_same_meets(s, rng.choice(balls), rng.choice(balls))


def test_membership_matches_reference_on_suite() -> None:
    rng = random.Random(SUITE_SEED + 23)
    for s in suite_hosts()[::5]:
        assert_same_membership(s, rng)


def test_ball_edge_on_a_neighbours_isolated_end() -> None:
    """A point, and a sequence's far end, covered only by the edge of a
    neighbour's ball; without the neighbour's own ball, not at all."""
    q = F(1, 4)
    cases = [
        (compactum([Point(ZERO), Point(Dyadic(1, 1))]), 1, (F(0),)),
        (
            compactum([Point(Dyadic(1, 2)), PointSeq(ONE, Dyadic(1, 1), ONE)]),
            2,
            (q, F(7, 8)),
        ),
    ]
    for s, n, centers in cases:
        r = F(1, 2 ** n)
        cert = CoverCertificate(n, tuple(Ball(c, r) for c in centers), None)
        assert cover_is_valid(s, cert) and ref.cover_is_valid(s, cert)
        short = CoverCertificate(n, cert.balls[1:], None)
        assert not cover_is_valid(s, short) and not ref.cover_is_valid(s, short)


def test_centers_off_the_set_rejected_alike() -> None:
    s = suite_hosts()[3]
    inside = Ball(member(random.Random(0), s.components[0]), F(1, 4))
    for x in (F(1, 7), F(2, 9), F(-1, 2), F(3, 2)):
        if ref.compactum_contains(s, x):
            continue
        stray = Ball(x, F(1, 4))
        for args in ((stray, inside), (inside, stray)):
            with pytest.raises(ValueError):
                ref.balls_intersect(s, *args)
            with pytest.raises(ValueError):
                balls_intersect(s, *args)


# ---------------------------------------------------------------------------
# Hypothesis-drawn hosts
# ---------------------------------------------------------------------------

GRID_EXP = 6


@st.composite
def hosts(draw):
    """Up to four components on disjoint cells of a 2^-6 grid, each a
    point, interval, Cantor copy or sequence; a sequence may glue its
    limit to the next component's left end."""
    count = draw(st.integers(min_value=1, max_value=4))
    cells = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=2 ** GRID_EXP - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    comps = []
    for c in cells:
        lo = Dyadic(c, GRID_EXP)
        hi = Dyadic(4 * c + draw(st.integers(min_value=1, max_value=3)), GRID_EXP + 2)
        kind = draw(st.sampled_from(["point", "interval", "cantor", "seq", "glued"]))
        if kind == "point":
            comps.append(Point(lo))
        elif kind == "interval":
            comps.append(Interval(lo, hi))
        elif kind == "cantor":
            comps.append(Cantor(lo, hi))
        elif kind == "seq":
            comps.append(PointSeq(draw(st.sampled_from([lo, hi])), lo, hi))
        else:
            mid = midpoint(lo, hi)
            host = draw(st.sampled_from([Interval, Cantor]))
            comps += [PointSeq(mid, lo, mid), host(mid, hi)]
    return compactum(comps)


@settings(max_examples=60, deadline=None)
@given(hosts(), st.randoms(use_true_random=False))
def test_drawn_hosts_match_reference(s, rng) -> None:
    for n in PRECISIONS:
        cert = cover(s, n)
        assert cert == ref.cover(s, n)
        assert cover_is_valid(s, cert)
        assert ref.cover_is_valid(s, cert)
    for bad in corrupted(s, cover(s, rng.randrange(0, 7)), rng):
        assert_same_decisions(s, bad)
    for b1, b2 in ball_pairs(s, rng, 8):
        assert_same_meets(s, b1, b2)
    assert_same_membership(s, rng)


# Cut points as shares of a component's hull: Cantor piece ends, sequence
# members, their limits and points of the gaps between them, or any
# rational with a small denominator.
CUTS = st.one_of(
    st.sampled_from(
        [F(0), F(1), F(1, 3), F(2, 3), F(1, 9), F(2, 9), F(7, 9), F(1, 4),
         F(3, 4), F(1, 2), F(1, 8), F(3, 8), F(5, 8)]
    ),
    st.fractions(
        min_value=F(-1, 4), max_value=F(5, 4), max_denominator=3 ** 5 * 2 ** 4 * 7
    ),
)


def assert_walk_matches_reference(comp, x: Fraction, strict: bool) -> None:
    """succ and pred from x: a member (None only when the reference finds
    none on that side), x itself when x is a member and the walk is not
    strict, and no member strictly between x and the result.  A strict
    walk returns x only where members pile up at x."""
    s = compactum([comp])
    grid = Grid(s, math.lcm(1 << max_exp(s), x.denominator))
    (gc,) = grid.comps
    lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
    for walk, sign in ((succ, 1), (pred, -1)):
        p = walk(gc, grid.at(x), strict)
        if p is None:
            rest = (x, hi, not strict, True) if sign > 0 else (lo, x, True, not strict)
            assert not ref._region_meets_component(comp, rest), (comp, x, sign)
            continue
        y = F(p[0], p[1] * grid.d)
        assert ref.component_contains(comp, y), (comp, x, sign, y)
        assert (y - x) * sign >= 0, (comp, x, sign, y)
        if not strict and ref.component_contains(comp, x):
            assert y == x, (comp, x, sign, y)
        between = (x, y, False, False) if sign > 0 else (y, x, False, False)
        assert not ref._region_meets_component(comp, between), (comp, x, sign, y)
        if strict and y == x:
            near = x + sign * (hi - lo) / 6 ** 12
            beside = (x, near, False, False) if sign > 0 else (near, x, False, False)
            assert ref._region_meets_component(comp, beside), (comp, x, sign)


@settings(max_examples=300, deadline=None)
@given(hosts(), st.data())
def test_succ_and_pred_match_reference(s, data) -> None:
    for comp in s.components:
        lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
        x = lo + (hi - lo) * data.draw(CUTS)
        for strict in (False, True):
            assert_walk_matches_reference(comp, x, strict)


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(
        min_value=-1, max_value=2, max_denominator=3 ** 6 * 2 ** 4 * 7
    )
)
def test_cantor_digit_loop_matches_reference(t) -> None:
    unit = compactum([Cantor(ZERO, ONE)])
    assert compactum_contains(unit, t) == ref.in_cantor_unit(t)
