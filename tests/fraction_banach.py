"""Reference sup norms and stage points on `Fraction` coordinates: the
differential oracle for the integer-grid code in `compacta.banach`.

This is the straightforward slow path: every coordinate is a `Fraction`,
a Cantor copy's extreme members on a segment come from a ternary descent
on `Fraction`s, a sequence lists its members up to the first one past
the nearest breakpoint, and stage points are built piece by piece.  It
shares only the data types with the package, so an arithmetic slip on
the grid shows up as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from fraction_compact import in_cantor_unit

from compacta.banach import HostedFunction, PLFunction
from compacta.compactum import (
    Cantor,
    Component,
    Interval,
    Point,
    SymbolicCompactum,
)


def _cantor_min_geq(lo: Fraction, span: Fraction, a: Fraction) -> Fraction | None:
    """Least point of the Cantor copy on [lo, lo+span] that is >= a."""
    hi = lo + span
    if a <= lo:
        return lo
    if a > hi:
        return None
    if in_cantor_unit((a - lo) / span):
        return a
    third = span / 3
    if a <= lo + third:
        r = _cantor_min_geq(lo, third, a)
        return r if r is not None else lo + 2 * third
    if a < lo + 2 * third:
        return lo + 2 * third
    return _cantor_min_geq(lo + 2 * third, third, a)


def _cantor_max_leq(lo: Fraction, span: Fraction, b: Fraction) -> Fraction | None:
    hi = lo + span
    if b >= hi:
        return hi
    if b < lo:
        return None
    if in_cantor_unit((b - lo) / span):
        return b
    third = span / 3
    if b >= lo + 2 * third:
        r = _cantor_max_leq(lo + 2 * third, third, b)
        return r if r is not None else lo + third
    if b > lo + third:
        return lo + third
    return _cantor_max_leq(lo, third, b)


def _component_candidates(f: PLFunction, comp: Component) -> Iterator[Fraction]:
    """Points of the component where |f| can attain its component sup."""
    if isinstance(comp, Point):
        yield comp.pos.as_fraction()
        return
    lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
    if isinstance(comp, Interval):
        yield lo
        yield hi
        for x, _ in f.breakpoints:
            if lo < x < hi:
                yield x
        return
    if isinstance(comp, Cantor):
        span = hi - lo
        pts = f.breakpoints
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            a, b = max(x0, lo), min(x1, hi)
            if a > b:
                continue
            pmin = _cantor_min_geq(lo, span, a)
            if pmin is None or pmin > b:
                continue
            pmax = _cantor_max_leq(lo, span, b)
            yield pmin
            yield pmax
        return
    limit = comp.limit.as_fraction()
    far = comp.far.as_fraction()
    span = abs(far - limit)
    between = [
        x
        for x, _ in f.breakpoints
        if min(limit, far) < x < max(limit, far)
    ]
    if between:
        d = min(abs(x - limit) for x in between)
        i_last = 0
        while span * Fraction(1, 2 ** i_last) >= d:
            i_last += 1
    else:
        i_last = 0
    yield limit
    for i in range(i_last + 1):
        yield comp.member(i).as_fraction()


def sup_norm(hf: HostedFunction) -> Fraction:
    best = Fraction(0)
    for comp in hf.host.components:
        for x in _component_candidates(hf.f, comp):
            v = abs(hf.f.value(x))
            if v > best:
                best = v
    return best


def stage_points(host: SymbolicCompactum, n: int) -> list[Fraction]:
    pts: set[Fraction] = set()
    for comp in host.components:
        if isinstance(comp, Point):
            pts.add(comp.pos.as_fraction())
            continue
        lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
        span = hi - lo
        if isinstance(comp, Interval):
            for i in range(2 ** n + 1):
                pts.add(lo + span * Fraction(i, 2 ** n))
        elif isinstance(comp, Cantor):
            for word in range(2 ** n):
                a, length = lo, span
                for bit in range(n - 1, -1, -1):
                    length /= 3
                    if word >> bit & 1:
                        a += 2 * length
                pts.add(a)
                pts.add(a + length)
        else:
            pts.add(comp.limit.as_fraction())
            for i in range(n + 1):
                pts.add(comp.member(i).as_fraction())
    return sorted(pts)
