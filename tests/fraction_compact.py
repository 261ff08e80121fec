"""Reference implementation of compact's covers and ball decisions on
`Fraction` coordinates: the differential oracle for the integer-grid code
in `compacta.compact`.

This is the straightforward slow path: every coordinate is a `Fraction`,
Cantor membership runs the digit loop on `Fraction`s, centre membership
scans every component, and the tangency flags are always computed.  It
shares only the data types with the package, so an arithmetic slip on
the grid shows up as a disagreement.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from compacta.compact import Ball, CoverCertificate
from compacta.compactum import (
    Cantor,
    Component,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
)

Region = tuple[Fraction, Fraction, bool, bool]
Hulls = tuple[list[Fraction], list[Fraction]]


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def in_cantor_unit(t: Fraction) -> bool:
    seen: set[Fraction] = set()
    while True:
        if t < 0 or t > 1:
            return False
        if t == 0 or t == 1:
            return True
        if t in seen:
            return True
        seen.add(t)
        if 3 * t <= 1:
            t = 3 * t
        elif 3 * t >= 2:
            t = 3 * t - 2
        else:
            return False


def component_contains(comp: Component, x: Fraction) -> bool:
    if isinstance(comp, Point):
        return x == comp.pos.as_fraction()
    lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
    if isinstance(comp, Interval):
        return lo <= x <= hi
    if isinstance(comp, Cantor):
        if not lo <= x <= hi:
            return False
        return in_cantor_unit((x - lo) / (hi - lo))
    limit = comp.limit.as_fraction()
    if x == limit:
        return True
    far = comp.far.as_fraction()
    ratio = (x - limit) / (far - limit)
    if ratio <= 0 or ratio > 1:
        return False
    return ratio.numerator == 1 and ratio.denominator & (ratio.denominator - 1) == 0


def compactum_contains(s: SymbolicCompactum, x: Fraction) -> bool:
    return any(component_contains(c, x) for c in s.components)


# ---------------------------------------------------------------------------
# Cover construction
# ---------------------------------------------------------------------------


def cover(s: SymbolicCompactum, n: int) -> CoverCertificate:
    if n < 0:
        raise ValueError("precision must be a natural number")
    r = Fraction(1, 2 ** n)
    balls: list[Ball] = []
    for comp in s.components:
        balls.extend(_component_balls(comp, r))
    order = sorted(range(len(balls)), key=lambda i: balls[i].center)
    two_r = 2 * r
    hulls = _component_hulls(s)
    found = []
    for a, i in enumerate(order):
        for j in order[a + 1 :]:
            d = balls[j].center - balls[i].center
            if d > two_r:
                break
            if d < r:
                continue
            if d == two_r:
                touch = balls[i].center + r
                disagree = _point_in_set(s, touch, hulls)
            else:
                # the open region lies inside the closed one, so the two
                # tests differ exactly when the open one fails and the
                # closed one holds
                disagree = not _balls_meet(
                    s, balls[i], balls[j], closed=False, hulls=hulls
                ) and _balls_meet(s, balls[i], balls[j], closed=True, hulls=hulls)
            if disagree:
                found.append((i, j) if i < j else (j, i))
    return CoverCertificate(n, tuple(balls), tuple(sorted(found)))


def _component_balls(comp: Component, r: Fraction) -> list[Ball]:
    if isinstance(comp, Point):
        return [Ball(comp.pos.as_fraction(), r)]
    lo = comp.lo.as_fraction()
    hi = comp.hi.as_fraction()
    span = hi - lo
    if isinstance(comp, Interval):
        k = (hi - lo) // r
        return [Ball(lo + i * r, r) for i in range(k + 1)]
    if isinstance(comp, Cantor):
        level = 0
        while span * Fraction(1, 3 ** level) >= r:
            level += 1
        out = []
        for word in range(2 ** level):
            a, length = lo, span
            for bit in range(level - 1, -1, -1):
                length /= 3
                if word >> bit & 1:
                    a += 2 * length
            out.append(Ball(a, r))
            out.append(Ball(a + length, r))
        return out
    i = 0
    while span * Fraction(1, 2 ** i) >= r:
        i += 1
    return [Ball(comp.member(j).as_fraction(), r) for j in range(i + 1)]


# ---------------------------------------------------------------------------
# Region tests
# ---------------------------------------------------------------------------


def _region_nonempty(region: Region) -> bool:
    u, v, cu, cv = region
    return u < v or (u == v and cu and cv)


def _in_region(x: Fraction, region: Region) -> bool:
    u, v, cu, cv = region
    if x < u or (x == u and not cu):
        return False
    if x > v or (x == v and not cv):
        return False
    return True


def _subtract_closed(pieces: list[Region], a: Fraction, b: Fraction) -> list[Region]:
    out: list[Region] = []
    for u, v, cu, cv in pieces:
        if b < u or (b == u and not cu) or a > v or (a == v and not cv):
            out.append((u, v, cu, cv))
            continue
        if u < a:
            out.append((u, a, cu, False))
        if b < v:
            out.append((b, v, False, cv))
    return [p for p in out if _region_nonempty(p)]


def _region_meets_component(comp: Component, region: Region) -> bool:
    if not _region_nonempty(region):
        return False
    u, v, cu, cv = region
    if u == v:
        return component_contains(comp, u)
    if isinstance(comp, Point):
        return _in_region(comp.pos.as_fraction(), region)
    lo = comp.lo.as_fraction()
    hi = comp.hi.as_fraction()
    if isinstance(comp, Interval):
        a, b = max(lo, u), min(hi, v)
        ca = cu if a == u else True
        cb = cv if b == v else True
        return _region_nonempty((a, b, ca, cb))
    if isinstance(comp, Cantor):
        return _cantor_piece_meets(lo, hi - lo, region)
    if _in_region(comp.limit.as_fraction(), region):
        return True
    return _seq_member_in_region(comp, region)


def _cantor_piece_meets(a: Fraction, length: Fraction, region: Region) -> bool:
    u, v, cu, cv = region
    b = a + length
    if b < u or (b == u and not cu) or a > v or (a == v and not cv):
        return False
    if (a > u or (a == u and cu)) and (b < v or (b == v and cv)):
        return True
    if _in_region(a, region) or _in_region(b, region):
        return True
    third = length / 3
    return _cantor_piece_meets(a, third, region) or _cantor_piece_meets(
        a + 2 * third, third, region
    )


def _seq_member_in_region(comp: PointSeq, region: Region) -> bool:
    u, v, cu, cv = region
    limit = comp.limit.as_fraction()
    far = comp.far.as_fraction()
    span = abs(far - limit)
    if far > limit:
        t_lo, lo_strict = u - limit, not cu
        t_hi, hi_strict = v - limit, not cv
    else:
        t_lo, lo_strict = limit - v, not cv
        t_hi, hi_strict = limit - u, not cu
    if t_hi <= 0:
        return False
    if t_lo <= 0:
        return True
    t = span
    while t > t_hi or (hi_strict and t == t_hi):
        t /= 2
    return t > t_lo or (not lo_strict and t == t_lo)


# ---------------------------------------------------------------------------
# Verification and intersection
# ---------------------------------------------------------------------------


def cover_is_valid(s: SymbolicCompactum, cert: CoverCertificate) -> bool:
    r = Fraction(1, 2 ** cert.n)
    for ball in cert.balls:
        if ball.radius != r:
            return False
        if not compactum_contains(s, ball.center):
            return False
    centers = sorted(ball.center for ball in cert.balls)
    for comp in s.components:
        if isinstance(comp, Point):
            lo = hi = comp.pos.as_fraction()
        else:
            lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
        pieces: list[Region] = [(lo, hi, True, True)]
        start = bisect.bisect_left(centers, lo - r)
        stop = bisect.bisect_right(centers, hi + r)
        for center in centers[start:stop]:
            pieces = _subtract_closed(pieces, center - r, center + r)
            if not pieces:
                break
        if any(_region_meets_component(comp, piece) for piece in pieces):
            return False
    return True


def _component_hulls(s: SymbolicCompactum) -> Hulls:
    lows = [c.lo.as_fraction() for c in s.components]
    his = [c.hi.as_fraction() for c in s.components]
    return lows, his


def _point_in_set(s: SymbolicCompactum, x: Fraction, hulls: Hulls) -> bool:
    lows, his = hulls
    start = bisect.bisect_left(his, x)
    stop = bisect.bisect_right(lows, x)
    return any(component_contains(c, x) for c in s.components[start:stop])


def _balls_meet(
    s: SymbolicCompactum, b1: Ball, b2: Ball, closed: bool, hulls: Hulls | None = None
) -> bool:
    u = max(b1.center - b1.radius, b2.center - b2.radius)
    v = min(b1.center + b1.radius, b2.center + b2.radius)
    region = (u, v, closed, closed)
    if not _region_nonempty(region):
        return False
    lows, his = _component_hulls(s) if hulls is None else hulls
    start = bisect.bisect_left(his, u)
    stop = bisect.bisect_right(lows, v)
    return any(
        _region_meets_component(c, region) for c in s.components[start:stop]
    )


def balls_intersect(
    s: SymbolicCompactum, b1: Ball, b2: Ball, closed: bool = False
) -> bool:
    for ball in (b1, b2):
        if not compactum_contains(s, ball.center):
            raise ValueError("ball center does not lie in the set")
    return _balls_meet(s, b1, b2, closed)
