"""Piecewise-linear functions over a hosted compactum, with exact norms.

A PL function is total on [0,1] and linear between breakpoints.  Its sup
over the whole interval sits at a breakpoint, so the unit-interval norm
is a max of finitely many rationals.  The sup over a hosted set needs
more care: on each linear segment the extreme host points of the segment
decide the value, which for a Cantor component means the least member
above and the greatest member below a rational cut, found by following
the ternary orbit of the cut.

The dense family enumerated here pins breakpoints to the host's stage
points and extends the first and last values flat to the boundary; that
makes the norm over the host provably equal to the norm over [0,1],
which is the identity the test suite checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator

from .compactum import (
    Cantor,
    Component,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
    compactum,
    compactum_contains,
    in_cantor_unit,
)
from .dyadic import Dyadic

Rational = Fraction | Dyadic | int


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Dyadic):
        return x.as_fraction()
    return Fraction(x)


@dataclass(frozen=True)
class PLFunction:
    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.breakpoints]
        if not xs or xs[0] != 0 or xs[-1] != 1:
            raise ValueError("breakpoints must run from x=0 to x=1")
        if any(not a < b for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint x-coordinates must strictly increase")

    def value(self, x: Rational) -> Fraction:
        x = _frac(x)
        if not 0 <= x <= 1:
            raise ValueError("function is defined on [0,1]")
        pts = self.breakpoints
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = pts[lo], pts[hi]
        if x == x0:
            return y0
        if x == x1:
            return y1
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def plf(points: Iterable[tuple[Rational, Rational]]) -> PLFunction:
    return PLFunction(tuple((_frac(x), _frac(y)) for x, y in points))


ZERO_PL = PLFunction(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))


@dataclass(frozen=True)
class HostedFunction:
    f: PLFunction
    host: SymbolicCompactum

    def __post_init__(self) -> None:
        if not self.host.components:
            raise ValueError("host compactum is empty")


UNIT_HOST = compactum([Interval(Dyadic(0, 0), Dyadic(1, 0))])


# ---------------------------------------------------------------------------
# Vector space operations
# ---------------------------------------------------------------------------


def _merge(f: PLFunction, g: PLFunction, sign: int = 1) -> PLFunction:
    xs = sorted({x for x, _ in f.breakpoints} | {x for x, _ in g.breakpoints})
    return PLFunction(
        tuple((x, f.value(x) + sign * g.value(x)) for x in xs)
    )


def add(f: HostedFunction, g: HostedFunction) -> HostedFunction:
    if f.host != g.host:
        raise ValueError("functions live over different hosts")
    return HostedFunction(_merge(f.f, g.f), f.host)


def subtract(f: HostedFunction, g: HostedFunction) -> HostedFunction:
    if f.host != g.host:
        raise ValueError("functions live over different hosts")
    return HostedFunction(_merge(f.f, g.f, sign=-1), f.host)


def scale(q: Rational, f: HostedFunction) -> HostedFunction:
    q = _frac(q)
    scaled = PLFunction(tuple((x, q * y) for x, y in f.f.breakpoints))
    return HostedFunction(scaled, f.host)


# ---------------------------------------------------------------------------
# Exact suprema
# ---------------------------------------------------------------------------


def unit_sup(f: PLFunction) -> Fraction:
    """Sup of |f| over all of [0,1]: attained at a breakpoint."""
    return max(abs(y) for _, y in f.breakpoints)


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
    """Exact sup of |f| over the host set."""
    best = Fraction(0)
    for comp in hf.host.components:
        for x in _component_candidates(hf.f, comp):
            v = abs(hf.f.value(x))
            if v > best:
                best = v
    return best


def dist(f: HostedFunction, g: HostedFunction) -> Fraction:
    return sup_norm(subtract(f, g))


# ---------------------------------------------------------------------------
# Teeth
# ---------------------------------------------------------------------------


def _hat(apex: Fraction, halfwidth: Fraction) -> PLFunction:
    def val(t: Fraction) -> Fraction:
        rise = halfwidth - abs(t - apex)
        return max(Fraction(0), rise) / halfwidth

    xs = {Fraction(0), Fraction(1), apex, apex - halfwidth, apex + halfwidth}
    xs = sorted(x for x in xs if 0 <= x <= 1)
    return PLFunction(tuple((x, val(x)) for x in xs))


def tooth(
    host: SymbolicCompactum, x_zero: Rational, y_nonzero: Rational
) -> HostedFunction:
    """Vanishes at x_zero, equals 1 at y_nonzero; support stays on the
    y_nonzero side of the midpoint, so the zero point keeps a margin."""
    x, y = _frac(x_zero), _frac(y_nonzero)
    if x == y:
        raise ValueError("tooth needs two distinct points")
    for p in (x, y):
        if not compactum_contains(host, p):
            raise ValueError("tooth points must lie in the host")
    return HostedFunction(_hat(y, abs(y - x) / 2), host)


def generalized_tooth(
    c: Rational, r: Rational, host: SymbolicCompactum = UNIT_HOST
) -> HostedFunction:
    """The hat (r - distance to c)/r clipped to [0,1]."""
    r = _frac(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    return HostedFunction(_hat(_frac(c), r), host)


# ---------------------------------------------------------------------------
# Dense family
# ---------------------------------------------------------------------------


def stage_points(host: SymbolicCompactum, n: int) -> list[Fraction]:
    """The host's dense points at resolution stage n, sorted."""
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


def stage_values(n: int) -> list[Fraction]:
    vals = {
        Fraction(p, q)
        for q in range(1, 2 ** n + 1)
        for p in range(-(n + 1) * q, (n + 1) * q + 1)
    }
    return sorted(vals)


def _extend_flat(
    xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]
) -> PLFunction:
    points = list(zip(xs, ys))
    if points[0][0] != 0:
        points.insert(0, (Fraction(0), points[0][1]))
    if points[-1][0] != 1:
        points.append((Fraction(1), points[-1][1]))
    return PLFunction(tuple(points))


def dense_family(host: SymbolicCompactum, n: int) -> Iterator[HostedFunction]:
    """Stage-n slice of the dense family: up to n breakpoints placed on
    the host's stage-n points, values of denominator at most 2^n, flat
    extension to the boundary.  Deterministic lexicographic order."""
    values = stage_values(n)
    anchors = stage_points(host, n)
    for k in range(n + 1):
        if k == 0:
            for c in values:
                yield HostedFunction(
                    PLFunction(((Fraction(0), c), (Fraction(1), c))), host
                )
            continue
        for xs in combinations(anchors, k):
            for ys in product(values, repeat=k):
                yield HostedFunction(_extend_flat(xs, ys), host)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def print_plf(f: PLFunction) -> str:
    pairs = " ".join(f"({x},{y})" for x, y in f.breakpoints)
    return f"plf\n{pairs}\n"


def parse_plf(text: str) -> PLFunction:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "plf":
        raise ValueError("missing 'plf' header")
    if len(lines) != 2:
        raise ValueError("expected a single breakpoint line")
    points = []
    for token in lines[1].split():
        if not (token.startswith("(") and token.endswith(")")):
            raise ValueError(f"bad breakpoint token {token!r}")
        a, _, b = token[1:-1].partition(",")
        try:
            points.append((Fraction(a), Fraction(b)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad breakpoint token {token!r}") from None
    return PLFunction(tuple(points))
