"""Piecewise-linear functions over a hosted compactum, with exact norms.

A PL function is total on [0,1] and linear between breakpoints.  Its sup
over the whole interval sits at a breakpoint, so the unit-interval norm
is a max of finitely many rationals.  The sup over a hosted set runs on
one integer grid (`compactum.Grid`), the multiples of 1/d with d the lcm
of 2^E (E the host's largest dyadic exponent) and the breakpoints'
denominators.  On a linear segment [x0, x1], |f| is convex, so over the
host's points in the segment it peaks at the least of them,
`succ(x0)`, or the greatest, `pred(x1)`: two exact evaluations per
segment, whatever the components' kinds.  Norms are compared as
integer ratios; one `Fraction` is built per call, the result.

The dense family enumerated here pins breakpoints to the host's stage
points and extends the first and last values flat to the boundary; that
makes the norm over the host provably equal to the norm over [0,1],
which is the identity the test suite checks exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product
from operator import itemgetter
from typing import Iterable, Iterator

from .compactum import (
    Cantor,
    Grid,
    Interval,
    SymbolicCompactum,
    cantor_net,
    compactum,
    compactum_contains,
)
from .dyadic import Dyadic, check_natural, parse_fraction, read_lines

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
        hi = min(bisect_right(pts, x, key=itemgetter(0)), len(pts) - 1)
        (x0, y0), (x1, y1) = pts[hi - 1], pts[hi]
        if x == x0:
            return y0
        if x == x1:
            return y1
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def plf(points: Iterable[tuple[Rational, Rational]]) -> PLFunction:
    return PLFunction(tuple((_frac(x), _frac(y)) for x, y in points))


@dataclass(frozen=True)
class HostedFunction:
    f: PLFunction
    host: SymbolicCompactum

    def __post_init__(self) -> None:
        if not self.host.ends:
            raise ValueError("host compactum is empty")


UNIT_HOST = compactum([Interval(Dyadic(0, 0), Dyadic(1, 0))])


# ---------------------------------------------------------------------------
# Vector space operations
# ---------------------------------------------------------------------------


def add(f: HostedFunction, g: HostedFunction) -> HostedFunction:
    if f.host != g.host:
        raise ValueError("functions live over different hosts")
    xs = sorted({x for x, _ in f.f.breakpoints} | {x for x, _ in g.f.breakpoints})
    sums = tuple((x, f.f.value(x) + g.f.value(x)) for x in xs)
    return HostedFunction(PLFunction(sums), f.host)


def subtract(f: HostedFunction, g: HostedFunction) -> HostedFunction:
    return add(f, scale(-1, g))


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


def sup_norm(hf: HostedFunction) -> Fraction:
    """Exact sup of |f| over the host set.  With y0 = a0/b0 at u and
    y1 = a1/b1 at v, |f| at n/m (grid units) is top / bottom with
    top = |a0*b1*(v*m - n) + a1*b0*(n - u*m)|, bottom = b0*b1*m*(v - u)."""
    bps = hf.f.breakpoints
    d = math.lcm(1 << hf.host.exp, *(x.denominator for x, _ in bps))
    grid = Grid(hf.host, d)
    pts = [(grid.at(x), y) for x, y in bps]  # each breakpoint in grid units, once
    top, bottom = 0, 1
    for (u, y0), (v, y1) in zip(pts, pts[1:]):
        first = grid.succ(u)
        if first is None or first[0] > v * first[1]:
            continue  # no host point on this segment
        a0, a1 = y0.numerator * y1.denominator, y1.numerator * y0.denominator
        b = y0.denominator * y1.denominator * (v - u)
        for n, m in (first, grid.pred(v)):
            num = abs(a0 * (v * m - n) + a1 * (n - u * m))
            if num * bottom > top * b * m:
                top, bottom = num, b * m
    return Fraction(top, bottom)


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
    check_natural("n", n)
    # level-n Cantor pieces and n halvings of any span fall on this grid
    grid = Grid(host, 3**n << (host.exp + n))
    pts: set[int] = set()
    for kind, lo, hi, limit in grid.comps:
        if kind is Interval:
            pts.update(range(lo, hi + 1, (hi - lo) >> n))
        elif kind is Cantor:
            pts.update(cantor_net(lo, hi, n))
        else:
            step = lo + hi - 2 * limit  # 0 for a point
            pts.add(limit)
            pts.update(limit + (step >> i) for i in range(n + 1))
    return [Fraction(x, grid.d) for x in sorted(pts)]


def stage_values(n: int) -> list[Fraction]:
    """The rationals in [-(n+1), n+1] with denominator at most 2^n, sorted:
    the Farey sequence of order 2^n on (0, 1], from its next-term
    recurrence, shifted by 0..n, then mirrored through 0."""
    check_natural("n", n)
    top = 1 << n
    farey, a, b, c, d = [], 0, 1, 1, top
    while c <= top:
        k = (top + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        farey.append((a, b))
    pos = [Fraction(p + j * q, q) for j in range(n + 1) for p, q in farey]
    return [-x for x in reversed(pos)] + [Fraction(0)] + pos


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
    check_natural("n", n)
    return _dense_family(host, n)


def _dense_family(host: SymbolicCompactum, n: int) -> Iterator[HostedFunction]:
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


def _breakpoint(token: str) -> tuple[Fraction, Fraction]:
    if token.startswith("(") and token.endswith(")"):
        x, _, y = token[1:-1].partition(",")
        try:
            return parse_fraction(x), parse_fraction(y)
        except ValueError:
            pass
    raise ValueError(f"bad breakpoint token {token!r}")


def parse_plf(text: str) -> PLFunction:
    lines = count()

    def breakpoints(*tokens: str) -> PLFunction:
        if next(lines):
            raise ValueError("expected a single breakpoint line")
        return PLFunction(tuple(map(_breakpoint, tokens)))

    funcs = read_lines(text, "plf", {None: breakpoints})
    if not funcs:
        raise ValueError("expected a single breakpoint line")
    return funcs[0]
