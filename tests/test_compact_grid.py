"""Differential test: the integer-grid covers, cover checks and ball
decisions in `compacta.compact` against the `Fraction` reference kept in
`fraction_compact`.

Both must agree on the seeded 500-tree suite, on the same hosts with
convergent sequences glued to their intervals and Cantor copies, and on
hypothesis-drawn hosts: cover output (balls and tangency flags), the
verdict on true and on corrupted certificates, open and closed ball
intersection, and membership of rationals.  A certificate from `cover`
carries its centres as ints over its grid; its verdict, on its own host
and on others, must equal that of its tuple-built twin, and reading it
builds no `Fraction` until its balls are read.  The walk every region test
and membership decision goes through, `compactum.succ` and its mirror
`pred`, is checked against the reference region test directly.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import math
import random
from collections import Counter
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
    pred,
    select,
    succ,
)
from compacta.dyadic import ZERO, Dyadic, midpoint
from test_acceptance import SUITE_SEED, suite_instances

# The modules themselves: the package exports functions of the same names.
compact_module = importlib.import_module("compacta.compact")
compactum_module = importlib.import_module("compacta.compactum")

F = Fraction
ONE = Dyadic(1)
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


def certificate(n: int, centers) -> CoverCertificate:
    return CoverCertificate(n, tuple(Ball(F(c), F(1, 2**n)) for c in centers), None)


def test_sweep_edge_cases_match_reference() -> None:
    """The one sweep over all balls in centre order, on certificates built
    by hand: (host, certificate, the verdict both must give)."""
    points = compactum([Point(ZERO), Point(Dyadic(3, 3)), Point(Dyadic(5, 3))])
    line = compactum([Point(ZERO), Interval(Dyadic(1, 2), Dyadic(3, 2)), Point(ONE)])
    own = cover(line, 3).balls  # centres 0, 1/4, 3/8, ..., 3/4, 1
    shuffled = random.Random(0).sample(own, len(own))
    gap = [b for b in shuffled if b.center not in (F(3, 8), F(1, 2))]
    cases = [
        # no components: only the empty cover is valid
        (compactum([]), certificate(4, ()), True),
        (compactum([]), certificate(4, (F(1, 2),)), False),
        # the interval sits in the gap between the balls on the two points
        (line, certificate(2, (0, 1)), False),
        (line, certificate(2, (0, F(1, 2), 1)), True),
        # 3/8 is covered only by the closed left edge of the ball at 5/8
        (points, certificate(2, (F(5, 8), 0)), True),
        (points, certificate(3, (F(5, 8), 0)), False),
        # shuffled and duplicated balls; 7/16 is left in a gap
        (line, CoverCertificate(3, tuple(shuffled), None), True),
        (line, CoverCertificate(3, own + own[::2], None), True),
        (line, CoverCertificate(3, tuple(gap + gap), None), False),
    ]
    for s, cert, verdict in cases:
        got = cover_is_valid(s, cert)
        assert got == ref.cover_is_valid(s, cert), (s, cert)
        assert got == verdict, (s, cert)


def test_tangency_with_one_member_end() -> None:
    """Balls at 0 and 3/8 of radius 1/4: their open overlap (1/8, 1/4)
    misses the set, and of its closed ends only v = 1/4, or only
    u = 1/8, is a member."""
    for third in (Dyadic(1, 2), Dyadic(1, 3)):
        s = compactum([Point(ZERO), Point(third), Point(Dyadic(3, 3))])
        cert = cover(s, 2)
        centers = [b.center for b in cert.balls]
        pair = (centers.index(0), centers.index(F(3, 8)))
        assert pair in cert.flagged, cert
        assert cert.flagged == ref.cover(s, 2).flagged


def test_cover_check_is_one_sweep(monkeypatch) -> None:
    """64 points closer together than the radius: every ball reaches every
    component, yet the check walks the set once, not once per component."""
    s = compactum([Point(Dyadic(k, 10)) for k in range(64)])
    cert = cover(s, 4)
    calls = 0
    walk = compactum_module.succ

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    # count the walk under every name that binds it, so a direct call from
    # `compact` counts as well as one through `Grid`
    for module in (compactum_module, compact_module):
        if getattr(module, "succ", None) is walk:
            monkeypatch.setattr(module, "succ", counted)
    assert cover_is_valid(s, cert)
    assert calls <= 3 * cert.h + len(s.components) + 1, calls


def test_tangency_scan_decides_each_ball_once(monkeypatch) -> None:
    """Three clusters of points r/8 apart, each r long and r from the next,
    then a Cantor copy: a ball on a cluster has up to nine earlier balls
    between r and 2r away, yet the scan decides it with at most two walks
    and no membership test per pair."""
    n = 4
    s = compactum(
        [Point(Dyadic(16 * k + j, n + 3)) for k in range(3) for j in range(9)]
        + [Cantor(Dyadic(3, 2), ONE)]
    )
    calls = Counter()
    walk, contains = compactum_module.succ, Grid.contains

    def counted_walk(*args):
        calls["succ"] += 1
        return walk(*args)

    def counted_contains(*args):
        calls["contains"] += 1
        return contains(*args)

    for module in (compactum_module, compact_module):
        if getattr(module, "succ", None) is walk:
            monkeypatch.setattr(module, "succ", counted_walk)
    monkeypatch.setattr(Grid, "contains", counted_contains)
    cert = cover(s, n)
    monkeypatch.undo()
    assert calls["contains"] == 0, calls
    assert calls["succ"] <= 2 * cert.h, (calls, cert.h)
    assert cert.flagged and cert.flagged == ref.cover(s, n).flagged


def test_tangency_edge_cases_match_reference() -> None:
    """Balls whose left end u = y - r falls in awkward places: (host,
    precision, u).  Each u + r is a ball centre, and the flags must be
    the reference's; between them the cases flag pairs exactly r and
    exactly 2r apart."""
    q, half, three = Dyadic(1, 2), Dyadic(1, 1), Dyadic(3, 2)
    cantor = compactum([Cantor(ZERO, three)])  # pieces [0, 1/4], [1/2, 3/4]
    cases = [
        # exactly at an interval's right end
        (compactum([Interval(ZERO, q), Point(half)]), 2, F(1, 4)),
        # at an isolated point, and at the right end of a Cantor piece
        (compactum([Point(ZERO), Point(q), Point(half)]), 2, F(1, 4)),
        (cantor, 2, F(1, 4)),
        # inside a removed third
        (cantor, 2, F(1, 3)),
        (compactum([Cantor(ZERO, ONE)]), 1, F(1, 2)),
        (compactum([Cantor(ZERO, ONE)]), 2, F(19, 36)),
        # at the touch point of a glued sequence, glued on either side of an
        # interval or a Cantor copy
        (compactum([Interval(ZERO, q), PointSeq(q, q, half)]), 2, F(1, 4)),
        (compactum([PointSeq(three, half, three), Interval(three, ONE)]), 2, F(3, 4)),
        (compactum([PointSeq(q, ZERO, q), Cantor(q, ONE)]), 2, F(1, 4)),
        (compactum([Cantor(ZERO, three), PointSeq(three, three, ONE)]), 2, F(3, 4)),
        # before the first component: the ball has no earlier ball to pair
        (compactum([Point(Dyadic(1, 3)), Interval(q, half)]), 2, F(-1, 8)),
        # past every component but the ball's own, whose ball reaches past
        # the last component
        (compactum([Interval(ZERO, q), Point(ONE)]), 1, F(1, 2)),
    ]
    gaps = set()
    for s, n, u in cases:
        cert, r = cover(s, n), F(1, 2**n)
        centers = [b.center for b in cert.balls]
        assert u + r in centers, (s, n, u)
        assert cert.flagged == ref.cover(s, n).flagged, (s, n)
        gaps |= {abs(centers[j] - centers[i]) / r for i, j in cert.flagged}
    assert {1, 2} <= gaps, gaps
    # u = 1/3 lies in the removed third (1/4, 1/2); of the balls before, the
    # one at 1/4 alone reaches v = 1/2, the next piece's start
    centers = [b.center for b in cover(cantor, 2).balls]
    pair = (centers.index(F(1, 4)), centers.index(F(7, 12)))
    assert pair in cover(cantor, 2).flagged


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
# Certificates from `cover` carry their centres as grid ints
# ---------------------------------------------------------------------------


def with_fine_point(s, n: int):
    """The host with one more point, in its first gap, on a grid four times
    finer than cover(s, n)'s; None when the host fills [0, 1]."""
    ends = [0] + [x for _, lo, hi, _ in s.ends for x in (lo, hi)] + [1 << s.exp]
    for lo, hi in zip(ends[::2], ends[1::2]):
        if lo < hi:
            x = Dyadic((lo << (n + 3)) + 1, s.exp + n + 3)
            return compactum(list(s.components) + [Point(x)])
    return None


def cross_hosts(s, n: int) -> list:
    """Hosts other than s: its first glue group and the rest, each a clopen
    part, and s with a point whose grid the check must rescale onto."""
    out = []
    groups = s.glue_groups()
    if len(groups) > 1:
        out.append(select(s, frozenset(groups[0])))
        out.append(select(s, frozenset(i for g in groups[1:] for i in g)))
    fine = with_fine_point(s, n)
    return out if fine is None else out + [fine]


def carried_verdict(s, cert) -> bool:
    """The verdict on a fresh certificate from `cover`, which must equal the
    verdict on its tuple-built twin and the reference's."""
    assert cert.nums is not None
    got = cover_is_valid(s, cert)
    twin = CoverCertificate(cert.n, cert.balls, cert.flagged)
    assert twin.nums is None
    assert got == cover_is_valid(s, twin) == ref.cover_is_valid(s, twin), (s, cert)
    return got


def test_carried_certificates_match_twin_and_reference() -> None:
    verdicts = Counter()
    for s in random.Random(SUITE_SEED + 24).sample(suite_hosts(), 16):
        for n in range(7):
            assert carried_verdict(s, cover(s, n)), (s, n)
            for other in cross_hosts(s, n):
                verdicts[carried_verdict(other, cover(s, n))] += 1
                verdicts[carried_verdict(s, cover(other, n))] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def test_merged_walk_edge_cases() -> None:
    """Centres the membership walk meets in awkward places, on certificates
    from `cover` of another host and built by hand: (host, certificate,
    the verdict every reading must give)."""
    unit = compactum([Interval(ZERO, ONE)])
    cantor = compactum([Cantor(ZERO, ONE)])
    quarter, half, three = Dyadic(1, 2), Dyadic(1, 1), Dyadic(3, 2)
    middle = compactum([Interval(quarter, three)])
    # sequences glued to both ends of [1/4, 3/4], touching it at 1/4, 3/4
    glued_line = compactum(
        [
            PointSeq(quarter, ZERO, quarter),
            Interval(quarter, three),
            PointSeq(three, three, ONE),
        ]
    )
    q = F(1, 4)
    cases = [
        # 1/2 in the removed middle third, 4/9 in a removed third below it
        (cantor, cover(unit, 1), False),
        (cantor, certificate(1, (0, F(1, 2), 1)), False),
        (cantor, certificate(3, (0, F(2, 9), F(4, 9), F(2, 3), F(7, 9), 1)), False),
        (cantor, cover(cantor, 3), True),
        # centres at the touch points of the glued sequences
        (glued_line, cover(middle, 2), True),
        (glued_line, certificate(2, (q, 3 * q)), True),
        (glued_line, certificate(3, (q, 3 * q)), False),
        (glued_line, cover(compactum([Point(quarter), Point(three)]), 2), True),
        # centres before the first component and past the last
        (middle, cover(unit, 2), False),
        (middle, certificate(2, (0, q, 2 * q, 3 * q)), False),
        (middle, certificate(2, (q, 2 * q, 3 * q, 1)), False),
        (compactum([Point(half), Point(ONE)]), certificate(1, (0, F(1, 2), 1)), False),
        # duplicated centres
        (middle, certificate(2, (q, q, 2 * q, 3 * q, 3 * q)), True),
        (middle, certificate(3, (q, q, 3 * q, 3 * q)), False),
    ]
    for s, cert, verdict in cases:
        if cert.nums is not None:
            assert carried_verdict(s, cert) == verdict, (s, cert)
        got = cover_is_valid(s, cert)
        assert got == ref.cover_is_valid(s, cert) == verdict, (s, cert)


def test_cover_and_its_check_build_no_fraction(monkeypatch) -> None:
    built = Counter()

    def counting(name, real):
        def build(*args):
            built[name] += 1
            return real(*args)

        return build

    for name in ("Fraction", "Ball"):
        real = getattr(compact_module, name)
        monkeypatch.setattr(compact_module, name, counting(name, real))
    for s in suite_hosts()[:60:6]:
        for n in (0, 3, 6):
            cert = cover(s, n)
            assert cert.h == len(cert.nums)
            assert cover_is_valid(s, cert)
            assert not built, (s, n)
            balls = cert.balls
            assert built == {"Fraction": cert.h + 1, "Ball": cert.h}
            built.clear()
            assert cert.balls is balls and cover_is_valid(s, cert)
            assert not built


def test_carried_balls_behave_as_a_tuple() -> None:
    """Each reading below is the first read of a fresh certificate's balls,
    and must give what it gives on the tuple-built certificate of the
    reference `cover`."""
    rng = random.Random(SUITE_SEED + 25)
    for s in rng.sample(suite_hosts(), 12):
        for n in (1, 4):
            twin = ref.cover(s, n)
            assert twin.nums is None

            def fresh():
                return cover(s, n)

            k = len(twin.balls)
            extra = (Ball(F(1, 3), F(1, 2**n)),)
            seed = rng.random()
            assert fresh() == twin and twin == fresh()
            assert hash(fresh()) == hash(twin) and {fresh(): 1}[twin] == 1
            assert repr(fresh()) == repr(twin)
            assert copy.copy(fresh()) == twin
            for change in ({"flagged": None}, {"n": n + 1}, {"balls": extra}):
                changed = dataclasses.replace(fresh(), **change)
                assert changed == dataclasses.replace(twin, **change)
                assert changed.nums is None
                assert cover_is_valid(s, changed) == cover_is_valid(
                    s, dataclasses.replace(twin, **change)
                )
            assert fresh().balls[1 : k // 2] == twin.balls[1 : k // 2]
            assert fresh().balls + extra == twin.balls + extra
            assert extra + fresh().balls == extra + twin.balls
            assert random.Random(seed).sample(fresh().balls, min(k, 3)) == (
                random.Random(seed).sample(twin.balls, min(k, 3))
            )
            assert print_cover(fresh()) == print_cover(twin)
            assert parse_cover(print_cover(fresh())) == parse_cover(print_cover(twin))


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
    grid = Grid(s, math.lcm(1 << s.exp, x.denominator))
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
