"""Cover certificates, exact ball intersection, clopen partitions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compacta.compact import (
    Ball,
    CoverCertificate,
    atom_count,
    atoms_at_depth,
    balls_intersect,
    bell_number,
    clopen_partitions,
    cover,
    cover_is_valid,
    parse_cover,
    print_cover,
)
from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    PointSeq,
    compactum,
    compactum_contains,
)
from compacta.dyadic import Dyadic

D = Dyadic
F = Fraction

UNIT_INTERVAL = compactum([Interval(D(0, 0), D(1, 0))])
UNIT_CANTOR = compactum([Cantor(D(0, 0), D(1, 0))])
TWO_INTERVALS = compactum(
    [Interval(D(9, 5), D(11, 5)), Interval(D(13, 4), D(15, 4))]
)
MIXED = compactum(
    [
        Point(D(1, 3)),
        Cantor(D(9, 5), D(1, 1)),
        PointSeq(D(1, 1), D(1, 1), D(3, 2)),
        Interval(D(13, 4), D(15, 4)),
    ]
)


# ---------------------------------------------------------------------------
# Cover construction
# ---------------------------------------------------------------------------


def test_ball_radius_must_be_positive():
    for radius in (F(0), F(-1, 4), 0, -1):
        with pytest.raises(ValueError, match="^ball radius must be positive$"):
            Ball(F(1, 2), radius)


def test_point_cover():
    cert = cover(compactum([Point(D(1, 1))]), 3)
    assert cert.balls == (Ball(F(1, 2), F(1, 8)),)
    assert cert.h == 1


def test_unit_interval_cover_n1():
    cert = cover(UNIT_INTERVAL, 1)
    assert [b.center for b in cert.balls] == [F(0), F(1, 2), F(1)]
    assert all(b.radius == F(1, 2) for b in cert.balls)
    assert cover_is_valid(UNIT_INTERVAL, cert)


def test_unit_cantor_cover_n2_hits_level2_endpoints():
    cert = cover(UNIT_CANTOR, 2)
    centers = [b.center for b in cert.balls]
    assert centers == [
        F(0), F(1, 9), F(2, 9), F(1, 3), F(2, 3), F(7, 9), F(8, 9), F(1)
    ]
    assert all(b.radius == F(1, 4) for b in cert.balls)
    assert cover_is_valid(UNIT_CANTOR, cert)


def test_seq_cover_stops_once_tail_fits():
    seq = PointSeq(D(0, 0), D(0, 0), D(1, 0))
    s = compactum([seq])
    cert = cover(s, 3)
    # members at 1, 1/2, 1/4, 1/8, 1/16; 1/16 < 1/8 so five balls
    assert [b.center for b in cert.balls] == [
        F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16)
    ]
    assert cover_is_valid(s, cert)


def test_empty_cover():
    from compacta.compactum import EMPTY

    cert = cover(EMPTY, 4)
    assert cert.balls == ()
    assert cover_is_valid(EMPTY, cert)


def test_covers_verify_across_instances_and_precisions():
    for s in (UNIT_INTERVAL, UNIT_CANTOR, TWO_INTERVALS, MIXED):
        for n in range(7):
            cert = cover(s, n)
            assert cover_is_valid(s, cert)
            assert all(compactum_contains(s, b.center) for b in cert.balls)


def test_interval_modulus_growth_bound():
    for hull in ((D(0, 0), D(1, 0)), (D(9, 5), D(11, 5)), (D(1, 3), D(7, 3))):
        s = compactum([Interval(*hull)])
        for n in range(9):
            h_n = cover(s, n).h
            h_next = cover(s, n + 1).h
            assert h_n <= 2 * h_next + 2


def test_invalid_covers_detected():
    cert = cover(UNIT_INTERVAL, 2)
    # consecutive grid balls overlap by a full radius, so one dropped ball
    # stays covered; a dropped adjacent pair opens a real gap
    missing = CoverCertificate(cert.n, cert.balls[:2] + cert.balls[4:], None)
    assert not cover_is_valid(UNIT_INTERVAL, missing)
    wrong_radius = CoverCertificate(3, cert.balls, None)
    assert not cover_is_valid(UNIT_INTERVAL, wrong_radius)
    stray = CoverCertificate(
        cert.n, cert.balls + (Ball(F(5), F(1, 4)),), None
    )
    assert not cover_is_valid(UNIT_INTERVAL, stray)


def test_cantor_cover_requires_gap_awareness():
    # one mid ball cannot cover [0,1] Cantor at n=1 even though it covers
    # length 1; the endpoints escape
    bad = CoverCertificate(1, (Ball(F(1, 2), F(1, 2)),), None)
    assert not cover_is_valid(UNIT_CANTOR, bad)  # 1/2 is not a Cantor point
    good_centers = CoverCertificate(
        1, (Ball(F(0), F(1, 2)), Ball(F(1), F(1, 2))), None
    )
    assert cover_is_valid(UNIT_CANTOR, good_centers)


def test_flagged_tangencies():
    cert = cover(UNIT_INTERVAL, 1)
    assert cert.flagged == ((0, 2),)
    big = cover(UNIT_INTERVAL, 9)  # 513 balls: flags at any size
    assert big.flagged == tuple((i, i + 2) for i in range(511))
    assert big.h == 513


# ---------------------------------------------------------------------------
# Ball intersection
# ---------------------------------------------------------------------------


def test_open_closed_disagree_at_tangency():
    b1, b2 = Ball(F(0), F(1, 2)), Ball(F(1), F(1, 2))
    assert not balls_intersect(UNIT_INTERVAL, b1, b2)
    assert balls_intersect(UNIT_INTERVAL, b1, b2, closed=True)


def test_concentric_balls_intersect():
    b1, b2 = Ball(F(1, 2), F(1, 4)), Ball(F(1, 2), F(1, 8))
    assert balls_intersect(UNIT_INTERVAL, b1, b2)


def test_distant_balls_on_two_intervals():
    b1 = Ball(F(5, 16), F(1, 32))
    b2 = Ball(F(7, 8), F(1, 32))
    assert not balls_intersect(TWO_INTERVALS, b1, b2)
    assert not balls_intersect(TWO_INTERVALS, b1, b2, closed=True)


def test_center_membership_enforced():
    with pytest.raises(ValueError):
        balls_intersect(UNIT_CANTOR, Ball(F(1, 2), F(1, 4)), Ball(F(0), F(1, 4)))


def test_cantor_gap_separates_balls():
    # tangent at 1/2, which is not a Cantor point: closed and open agree
    b1 = Ball(F(1, 3), F(1, 6))
    b2 = Ball(F(2, 3), F(1, 6))
    assert not balls_intersect(UNIT_CANTOR, b1, b2)
    assert not balls_intersect(UNIT_CANTOR, b1, b2, closed=True)
    # overlap region exactly the removed middle third: open sees nothing,
    # closed grabs the gap endpoints 1/3 and 2/3
    b3 = Ball(F(1, 3), F(1, 3))
    b4 = Ball(F(2, 3), F(1, 3))
    assert balls_intersect(UNIT_CANTOR, b3, b4, closed=True)
    assert not balls_intersect(UNIT_CANTOR, b3, b4)


def test_seq_ball_intersection_sees_members_not_gaps():
    seq = PointSeq(D(0, 0), D(0, 0), D(1, 0))
    s = compactum([seq])
    b1 = Ball(F(1, 4), F(3, 16))
    b2 = Ball(F(1, 2), F(1, 8))
    # overlap region (3/8, 7/16) contains no member 2^{-i}
    assert not balls_intersect(s, b1, b2)
    b3 = Ball(F(1, 2), F(1, 4))
    # overlap region (1/4, 7/16) contains no member either; closed grabs 1/4
    assert not balls_intersect(s, b1, b3)
    assert balls_intersect(s, b1, b3, closed=True)


def _probe_points(s, res_exp):
    """Landmark-augmented dyadic grid: component endpoints, Cantor piece
    endpoints, and sequence members down to the probe resolution."""
    step = F(1, 2 ** res_exp)
    pts = set()
    for comp in s.components:
        if isinstance(comp, Point):
            pts.add(comp.pos.as_fraction())
            continue
        lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
        if isinstance(comp, Interval):
            x = lo
            while x < hi:
                pts.add(x)
                x += step
            pts.add(hi)
        elif isinstance(comp, Cantor):
            span = hi - lo
            level = 0
            while span * F(1, 3 ** level) >= step and level < 30:
                level += 1
            for w in range(2 ** level):
                a, length = lo, span
                for bit in range(level - 1, -1, -1):
                    length /= 3
                    if w >> bit & 1:
                        a += 2 * length
                pts.add(a)
                pts.add(a + length)
        else:
            pts.add(comp.limit.as_fraction())
            i = 0
            while True:
                m = comp.member(i).as_fraction()
                pts.add(m)
                if abs(m - comp.limit.as_fraction()) < step / 64 or i > 300:
                    break
                i += 1
    return pts


def _probe_intersect(s, b1, b2, closed, probes):
    def inside(p, b):
        d = abs(p - b.center)
        return d <= b.radius if closed else d < b.radius

    return any(inside(p, b1) and inside(p, b2) for p in probes)


def test_intersection_agrees_with_grid_probing():
    for s in (UNIT_INTERVAL, UNIT_CANTOR, TWO_INTERVALS, MIXED):
        for n in (2, 3, 4):
            cert = cover(s, n)
            probes = _probe_points(s, n + 6)
            balls = cert.balls
            for i in range(len(balls)):
                for j in range(i, min(i + 8, len(balls))):
                    for closed in (False, True):
                        exact = balls_intersect(s, balls[i], balls[j], closed)
                        probed = _probe_intersect(
                            s, balls[i], balls[j], closed, probes
                        )
                        assert exact == probed


# ---------------------------------------------------------------------------
# Clopen partitions
# ---------------------------------------------------------------------------


def test_single_point_partitions():
    s = compactum([Point(D(1, 1))])
    assert list(clopen_partitions(s, 2)) == [(frozenset({(0, "")}),)]


def test_two_interval_partitions():
    got = list(clopen_partitions(TWO_INTERVALS, 1))
    assert got == [
        (frozenset({(0, ""), (1, "")}),),
        (frozenset({(0, "")}), frozenset({(1, "")})),
    ]


def test_cantor_depth1_partitions():
    got = list(clopen_partitions(UNIT_CANTOR, 1))
    assert got == [
        (frozenset({(0, "")}),),
        (frozenset({(0, "0")}), frozenset({(0, "1")})),
    ]


def test_partition_counts_by_depth():
    # Bell numbers: depth-2 atoms of one Cantor are 4 pieces; partitions
    # that genuinely need depth 2 number B4 - B2
    assert len(list(clopen_partitions(UNIT_CANTOR, 0))) == 1
    assert len(list(clopen_partitions(UNIT_CANTOR, 1))) == 2
    assert len(list(clopen_partitions(UNIT_CANTOR, 2))) == 15


def test_prefix_stability():
    for s in (UNIT_CANTOR, TWO_INTERVALS, MIXED):
        streams = [list(clopen_partitions(s, d)) for d in range(4)]
        for d in range(3):
            assert streams[d + 1][: len(streams[d])] == streams[d]


def test_partitions_respect_glue():
    # glued seq and its Cantor host form one group: no partition separates
    # them at depth 0, and refinement words stay within the group
    atoms = atoms_at_depth(MIXED, 0)
    assert atoms == [(0, ""), (1, ""), (2, "")]
    atoms1 = atoms_at_depth(MIXED, 1)
    assert (1, "0") in atoms1 and (1, "1") in atoms1  # Cantor-host group


def test_negative_depth_rejected():
    for s in (UNIT_CANTOR, MIXED):
        with pytest.raises(ValueError, match="-1"):
            atoms_at_depth(s, -1)
        with pytest.raises(ValueError, match="-1"):
            clopen_partitions(s, -1)


def test_negative_counts_rejected():
    """atom_count and bell_number refuse what atoms_at_depth refuses,
    instead of counting 2^depth or an empty triangle."""
    point_too = compactum([Cantor(D(0), D(1, 1)), Point(D(3, 2))])
    for depth in (-1, -3):
        with pytest.raises(ValueError) as exc:
            atom_count(point_too, depth)
        assert str(exc.value) == f"depth must be a natural number, got {depth}"
        with pytest.raises(ValueError) as exc:
            bell_number(depth)
        assert str(exc.value) == f"n must be a natural number, got {depth}"
    assert [atom_count(point_too, d) for d in range(4)] == [2, 3, 5, 9]
    assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_parts_cover_and_disjoint():
    def meets(a, b):  # one component, and one word a prefix of the other
        return a[0] == b[0] and (a[1].startswith(b[1]) or b[1].startswith(a[1]))

    for parts in clopen_partitions(MIXED, 2):
        seen = set()
        for part in parts:
            assert part
            assert not (part & seen)
            seen |= part
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not any(meets(a, b) for a in parts[i] for b in parts[j])


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_cover_format_fixed_bytes():
    cert = cover(UNIT_CANTOR, 1)
    assert print_cover(cert) == (
        "cover n=1\n"
        "ball 0 1/2\n"
        "ball 1/3 1/2\n"
        "ball 2/3 1/2\n"
        "ball 1 1/2\n"
    )


def test_cover_format_roundtrip():
    cert = cover(MIXED, 3)
    back = parse_cover(print_cover(cert))
    assert back.n == cert.n
    assert back.balls == cert.balls


def test_cover_format_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cover("ball 0 1/2\n")
    with pytest.raises(ValueError):
        parse_cover("cover n=1\nblob\n")


# ---------------------------------------------------------------------------
# Property: random mixed compacta have valid covers
# ---------------------------------------------------------------------------

GRID = 64


@st.composite
def small_compacta(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    cells = sorted(draw(
        st.lists(
            st.integers(min_value=0, max_value=GRID - 2),
            min_size=n, max_size=n, unique=True,
        )
    ))
    comps = []
    for c in cells:
        kind = draw(st.sampled_from(["point", "interval", "cantor", "seq"]))
        lo = D(c, 6)
        hi = D(2 * c + 1, 7)
        if kind == "point":
            comps.append(Point(lo))
        elif kind == "interval":
            comps.append(Interval(lo, hi))
        elif kind == "cantor":
            comps.append(Cantor(lo, hi))
        else:
            comps.append(PointSeq(lo, lo, hi))
        prev_end = c
    return compactum(comps)


@settings(max_examples=40, deadline=None)
@given(small_compacta(), st.integers(min_value=0, max_value=5))
def test_random_covers_verify(s, n):
    cert = cover(s, n)
    assert cover_is_valid(s, cert)
