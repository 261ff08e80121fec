"""Reference Hausdorff bound of a stage, on `Dyadic` arithmetic.

This is the straightforward version of `compacta.construct.hausdorff_gap`:
every distance is a `Dyadic`, membership goes through the `Fraction`
test `fraction_compact.component_contains`, and a component without
nearby points is bounded by a linear scan over all of them.
`test_stage_grid` checks that the integer-grid version returns the same
`Dyadic` on every case.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from fraction_compact import component_contains

from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
)
from compacta.construct import EnumerationState
from compacta.dyadic import ZERO, Dyadic

_CEIL_BITS = 80
ONE = Dyadic(1)


def dyadic_ceil(value: Fraction, bits: int = 80) -> Dyadic:
    """Smallest multiple of 2^-bits that is >= value."""
    scaled = value * (1 << bits)
    n = scaled.numerator // scaled.denominator
    if n * scaled.denominator != scaled.numerator:
        n += 1
    return Dyadic(n, bits)


def hausdorff_gap(state: EnumerationState, limit: SymbolicCompactum) -> Dyadic:
    pts = sorted(state.points)
    lows = [c.lo for c in limit.components]
    for p in pts:
        i = bisect.bisect_right(lows, p)
        candidates = limit.components[max(0, i - 2) : i + 1]
        if not any(
            c.lo <= p <= c.hi and component_contains(c, p.as_fraction())
            for c in candidates
        ):
            raise ValueError(
                f"state point {p} lies outside the limit set: "
                f"state and limit do not match"
            )
    if not limit.components:
        return ZERO
    net_levels = {
        (iv.lo, iv.hi): level for iv, level in state.nets.values()
    }
    bound = ZERO
    for comp in limit.components:
        if isinstance(comp, Point):
            d = _dist_to_points(comp.pos, pts)
        elif isinstance(comp, Interval):
            d = _interval_bound(comp.lo, comp.hi, pts)
        elif isinstance(comp, Cantor):
            level = net_levels.get((comp.lo, comp.hi))
            if level is None:
                d = _span_fallback(comp.lo, comp.hi, pts)
            else:
                span = comp.hi.as_fraction() - comp.lo.as_fraction()
                d = dyadic_ceil(span / 3 ** (level + 1), bits=_CEIL_BITS)
        else:
            d = _seq_bound(comp, pts)
        if d > bound:
            bound = d
    return bound


def _dist_to_points(q: Dyadic, pts: list[Dyadic]) -> Dyadic:
    i = bisect.bisect_left(pts, q)
    best = None
    for k in (i - 1, i):
        if 0 <= k < len(pts):
            d = abs(q - pts[k])
            if best is None or d < best:
                best = d
    return best if best is not None else ONE


def _interval_bound(lo: Dyadic, hi: Dyadic, pts: list[Dyadic]) -> Dyadic:
    inside = pts[bisect.bisect_left(pts, lo) : bisect.bisect_right(pts, hi)]
    if not inside:
        return _span_fallback(lo, hi, pts)
    best = max(inside[0] - lo, hi - inside[-1])
    for a, b in zip(inside, inside[1:]):
        half = (b - a).half()
        if half > best:
            best = half
    return best


def _span_fallback(lo: Dyadic, hi: Dyadic, pts: list[Dyadic]) -> Dyadic:
    """min over points of the worst distance to any spot in [lo, hi]."""
    best = None
    for p in pts:
        d = max(abs(p - lo), abs(p - hi))
        if best is None or d < best:
            best = d
    return best if best is not None else ONE


def _seq_bound(comp: PointSeq, pts: list[Dyadic]) -> Dyadic:
    """Worst distance from any sequence member (or the limit) to the points.

    Members with index beyond the cutoff sit within span * 2^-cutoff of the
    limit, so the limit's own distance plus that margin bounds the tail.
    """
    cutoff = 60
    span = comp.hi - comp.lo
    worst = _dist_to_points(comp.limit, pts) + span.scaled_pow2(-cutoff)
    for i in range(cutoff + 1):
        d = _dist_to_points(comp.member(i), pts)
        if d > worst:
            worst = d
    return worst
