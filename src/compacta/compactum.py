"""Symbolic closed subsets of [0,1] and their point-set analysis operators.

A compactum is a finite list of components: isolated points, closed
intervals, middle-thirds Cantor copies, and convergent point sequences
with a geometric schedule of ratio 1/2.  Components keep positive gaps
from each other, with one sanctioned exception: a sequence's limit may
coincide with an endpoint of a neighbouring interval or Cantor copy.
That glued shape is exactly the configuration the derivative-based
analysis has to detect and reject, so it must be representable.

Clopen subsets are selections of component indices; a selection is clopen
precisely when it never separates a glued pair.

`Grid` puts the components on the integers, as multiples of 1/d for one
d per query.  Every question that depends on a component's kind goes
through one walk per kind there: `succ(comp, x, strict)` is the least
member at or after x (after x when strict), `pred` is `succ` on the
mirror image, and `cantor_net` lists the endpoints of a Cantor copy's
pieces at one level.  Membership, the region tests of `compact`, the
sup norms and stage points of `banach` and `construct.hausdorff_gap`
are built on them with int comparisons.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from numbers import Rational
from typing import Iterable, Union

from .dyadic import Dyadic, ONE, ZERO, midpoint, parse_dyadic, parse_field


@dataclass(frozen=True)
class Point:
    pos: Dyadic

    @property
    def lo(self) -> Dyadic:
        return self.pos

    @property
    def hi(self) -> Dyadic:
        return self.pos


@dataclass(frozen=True)
class Interval:
    lo: Dyadic
    hi: Dyadic

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("interval needs lo < hi")


@dataclass(frozen=True)
class Cantor:
    """Middle-thirds Cantor set scaled onto [lo, hi]."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("cantor copy needs lo < hi")


@dataclass(frozen=True)
class PointSeq:
    """Points limit + (far - limit) * 2^-i for i >= 0, plus the limit itself."""

    limit: Dyadic
    lo: Dyadic
    hi: Dyadic

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("sequence needs lo < hi")
        if self.limit not in (self.lo, self.hi):
            raise ValueError("sequence limit must sit at one end of its span")

    @property
    def far(self) -> Dyadic:
        return self.hi if self.limit == self.lo else self.lo

    def member(self, i: int) -> Dyadic:
        return self.limit + (self.far - self.limit).scaled_pow2(-i)


Component = Union[Point, Interval, Cantor, PointSeq]


def _glue_ok(left: Component, right: Component) -> bool:
    if isinstance(left, PointSeq) and left.limit == left.hi:
        return isinstance(right, (Interval, Cantor))
    if isinstance(right, PointSeq) and right.limit == right.lo:
        return isinstance(left, (Interval, Cantor))
    return False


@dataclass(frozen=True)
class SymbolicCompactum:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        comps = tuple(sorted(self.components, key=lambda c: (c.lo, c.hi)))
        object.__setattr__(self, "components", comps)
        if comps:
            if comps[0].lo < ZERO or comps[-1].hi > ONE:
                raise ValueError("compactum must live inside [0,1]")
        for a, b in zip(comps, comps[1:]):
            if a.hi > b.lo:
                raise ValueError(
                    f"components overlap near {a.hi}: {a} and {b}"
                )
            if a.hi == b.lo and not _glue_ok(a, b):
                raise ValueError(
                    f"components touch at {a.hi} without a sequence limit "
                    f"sanctioning it: {a} and {b}"
                )

    def glue_groups(self) -> list[list[int]]:
        """Maximal runs of components chained by coinciding endpoints."""
        groups: list[list[int]] = []
        current: list[int] = []
        for i, comp in enumerate(self.components):
            if current and self.components[i - 1].hi == comp.lo:
                current.append(i)
            else:
                if current:
                    groups.append(current)
                current = [i]
        if current:
            groups.append(current)
        return groups

    def is_clopen(self, sel: frozenset[int]) -> bool:
        if any(i < 0 or i >= len(self.components) for i in sel):
            return False
        for group in self.glue_groups():
            inside = sum(1 for i in group if i in sel)
            if inside not in (0, len(group)):
                return False
        return True


EMPTY = SymbolicCompactum(())


def compactum(components: Iterable[Component]) -> SymbolicCompactum:
    return SymbolicCompactum(tuple(components))


def _require_clopen(s: SymbolicCompactum, sel: frozenset[int]) -> None:
    if not s.is_clopen(sel):
        raise ValueError(f"selector {sorted(sel)} is not clopen")


def select(s: SymbolicCompactum, sel: frozenset[int]) -> SymbolicCompactum:
    _require_clopen(s, sel)
    return compactum(s.components[i] for i in sorted(sel))


# ---------------------------------------------------------------------------
# Derivative, reduct, and the predicates on clopen selections
# ---------------------------------------------------------------------------


def _derivative_images(
    s: SymbolicCompactum,
) -> list[tuple[int, Component] | None]:
    """Per input component: its surviving image, or None if it vanishes.

    A sequence turns into its limit point; when the limit already lies on a
    neighbouring interval or Cantor copy, the point is absorbed there and
    the sequence contributes nothing of its own.
    """
    endpoints: set[Dyadic] = set()
    for comp in s.components:
        if isinstance(comp, (Interval, Cantor)):
            endpoints.add(comp.lo)
            endpoints.add(comp.hi)
    images: list[Component | None] = []
    for comp in s.components:
        if isinstance(comp, Point):
            images.append(None)
        elif isinstance(comp, PointSeq):
            images.append(None if comp.limit in endpoints else Point(comp.limit))
        else:
            images.append(comp)
    out: list[tuple[int, Component] | None] = []
    next_idx = 0
    for img in images:
        if img is None:
            out.append(None)
        else:
            out.append((next_idx, img))
            next_idx += 1
    return out


def cb_derivative(s: SymbolicCompactum) -> SymbolicCompactum:
    """Remove the isolated points; sequences collapse to their limits."""
    return compactum(img[1] for img in _derivative_images(s) if img is not None)


def derived_selector(s: SymbolicCompactum, sel: frozenset[int]) -> frozenset[int]:
    """Image of a clopen selection inside cb_derivative(s)."""
    _require_clopen(s, sel)
    images = _derivative_images(s)
    return frozenset(images[i][0] for i in sel if images[i] is not None)


def is_intom(s: SymbolicCompactum, sel: frozenset[int]) -> bool:
    """Clopen, connected, and more than one point: a single interval."""
    _require_clopen(s, sel)
    if len(sel) != 1:
        return False
    (i,) = sel
    return isinstance(s.components[i], Interval)


def cb_equiv(s: SymbolicCompactum, x: frozenset[int], y: frozenset[int]) -> bool:
    """Selections agreeing up to isolated points."""
    _require_clopen(s, x)
    _require_clopen(s, y)
    keep_x = {i for i in x if not isinstance(s.components[i], Point)}
    keep_y = {i for i in y if not isinstance(s.components[i], Point)}
    return keep_x == keep_y


def reduce_intoms(s: SymbolicCompactum) -> SymbolicCompactum:
    """Collapse every clopen interval component to its midpoint."""
    glued: set[int] = set()
    for group in s.glue_groups():
        if len(group) > 1:
            glued.update(group)
    out: list[Component] = []
    for i, comp in enumerate(s.components):
        if isinstance(comp, Interval) and i not in glued:
            out.append(Point(midpoint(comp.lo, comp.hi)))
        else:
            out.append(comp)
    return compactum(out)


def reduction(s: SymbolicCompactum) -> SymbolicCompactum:
    """Derivative followed by the interval-to-point reduct."""
    return reduce_intoms(cb_derivative(s))


def satisfies_inf(s: SymbolicCompactum, sel: frozenset[int]) -> bool:
    """Infinitely many distinct clopen splits inside the selection."""
    _require_clopen(s, sel)
    return any(
        isinstance(s.components[i], (Cantor, PointSeq)) for i in sel
    )


def is_atomless_after_derivative(s: SymbolicCompactum, sel: frozenset[int]) -> bool:
    """Derivative of the selection has only Cantor components."""
    _require_clopen(s, sel)
    derived = cb_derivative(s)
    image = derived_selector(s, sel)
    return all(isinstance(derived.components[i], Cantor) for i in image)


def check_property_in(s: SymbolicCompactum) -> bool:
    """No interval endpoint doubles as a sequence limit."""
    limits = {c.limit for c in s.components if isinstance(c, PointSeq)}
    for comp in s.components:
        if isinstance(comp, Interval) and (comp.lo in limits or comp.hi in limits):
            return False
    return True


def all_clopen_selectors(s: SymbolicCompactum) -> Iterable[frozenset[int]]:
    """Every clopen selection, enumerated via glue groups."""
    groups = s.glue_groups()
    n = len(groups)
    for mask in range(1 << n):
        sel: set[int] = set()
        for g in range(n):
            if mask >> g & 1:
                sel.update(groups[g])
        yield frozenset(sel)


# ---------------------------------------------------------------------------
# Canonical form under homeomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactumForm:
    """Complete homeomorphism invariant for the shapes representable here.

    Two Cantor copies glue to one; a convergent sequence swallows any finite
    number of extra isolated points; glued groups are classified by their
    host kind and how many ends carry a sequence (mirror images coincide).
    """

    points: int
    intervals: int
    seqs: int
    cantor: bool
    glue: tuple[tuple[str, int], ...]


def canonical_form(s: SymbolicCompactum) -> CompactumForm:
    points = sum(1 for c in s.components if isinstance(c, Point))
    intervals = 0
    seqs = 0
    cantor = False
    glue: list[tuple[str, int]] = []
    for group in s.glue_groups():
        comps = [s.components[i] for i in group]
        if len(group) == 1:
            comp = comps[0]
            if isinstance(comp, Interval):
                intervals += 1
            elif isinstance(comp, PointSeq):
                seqs += 1
            elif isinstance(comp, Cantor):
                cantor = True
        else:
            host = next(c for c in comps if isinstance(c, (Interval, Cantor)))
            n_seqs = sum(1 for c in comps if isinstance(c, PointSeq))
            kind = "interval" if isinstance(host, Interval) else "cantor"
            glue.append((kind, n_seqs))
    if seqs or glue:
        points = 0  # a sequence absorbs any finite set of isolated points
    return CompactumForm(
        points=points,
        intervals=intervals,
        seqs=seqs,
        cantor=cantor,
        glue=tuple(sorted(glue)),
    )


# ---------------------------------------------------------------------------
# Exact membership
# ---------------------------------------------------------------------------


def compactum_contains(s: SymbolicCompactum, x: Rational) -> bool:
    grid = Grid(s, math.lcm(1 << max_exp(s), x.denominator))
    return grid.contains(grid.at(x))


# ---------------------------------------------------------------------------
# The integer grid of one query
# ---------------------------------------------------------------------------

# A component on the grid: (kind, lo, hi, limit), where kind is the
# component's class and limit is a sequence's limit (lo for the others).
GridComponent = tuple[type, int, int, int]
# An exact position n/m in grid units.  m is 1, a power of 2 (a sequence
# member finer than the grid) or a power of 3 (a Cantor point below it).
GridPoint = tuple[int, int]


def max_exp(s: SymbolicCompactum) -> int:
    """The largest dyadic exponent among the components' endpoints."""
    return max((x.exp for c in s.components for x in (c.lo, c.hi)), default=0)


class Grid:
    """The components of one compactum as integers on the grid of
    multiples of 1/d, where d is a multiple of 2^max_exp(s).

    A query that puts all of its coordinates on one such grid decides
    order and membership with int comparisons alone."""

    __slots__ = ("d", "comps", "lows", "his")

    def __init__(self, s: SymbolicCompactum, d: int) -> None:
        self.d = d
        comps = []
        for c in s.components:
            lo = c.lo.num * (d >> c.lo.exp)
            hi = c.hi.num * (d >> c.hi.exp)
            limit = hi if type(c) is PointSeq and c.limit == c.hi else lo
            comps.append((type(c), lo, hi, limit))
        self.comps: list[GridComponent] = comps
        self.lows = [c[1] for c in comps]
        self.his = [c[2] for c in comps]

    def at(self, x: Rational) -> int:
        """A rational whose denominator divides d, in grid units."""
        return x.numerator * (self.d // x.denominator)

    def succ(self, x: int, strict: bool = False) -> GridPoint | None:
        """`succ` over the whole set: components are sorted and pairwise
        disjoint, so the first one whose hull reaches x (past x when
        strict) holds it."""
        i = (bisect_right if strict else bisect_left)(self.his, x)
        return succ(self.comps[i], x, strict) if i < len(self.comps) else None

    def pred(self, x: int) -> GridPoint | None:
        """The greatest member of the set at or before x."""
        i = bisect_right(self.lows, x) - 1
        return pred(self.comps[i], x) if i >= 0 else None

    def contains(self, x: int) -> bool:
        p = self.succ(x)
        return p is not None and p[0] == x * p[1]


def succ(comp: GridComponent, x: int, strict: bool = False) -> GridPoint | None:
    """The least member of the component at or after x (after x when
    strict), or None when there is none.  Where members pile up at x from
    the right there is no least one after x; x itself, their limit and a
    member of the closed set, is returned."""
    kind, lo, hi, limit = comp
    if x < lo:
        return lo, 1
    if x > hi or (strict and x == hi):
        return None
    if kind is Cantor:
        return _cantor_succ(x, lo, hi, strict)
    if kind is not PointSeq or x == limit:
        return x, 1
    # members sit at limit +- span * 2^-i; t << i has the bit length of
    # span at the first guess for i, so at most one step corrects it
    span = hi - lo
    if limit == lo:
        t = x - lo
        i = span.bit_length() - t.bit_length()
        if span < t << i or (strict and span == t << i):
            i -= 1
        return (lo << i) + span, 1 << i
    t = hi - x
    i = span.bit_length() - t.bit_length()
    if span > t << i or (strict and span == t << i):
        i += 1
    return (hi << i) - span, 1 << i


def _cantor_succ(x: int, lo: int, hi: int, strict: bool) -> GridPoint:
    """The ternary digit walk of x through the Cantor copy's pieces.  At
    depth k, x sits p units of 1/3^k grid units past the start of its
    piece, which spans `span` of them, so the piece starts at x*3^k - p."""
    span = hi - lo
    p, k, seen, right = x - lo, 0, set(), None
    while 0 < p < span and p not in seen:
        seen.add(p)
        p, k = 3 * p, k + 1
        if p >= 2 * span:
            p -= 2 * span
        else:
            right = k, p  # the parent piece's right third starts 2*span on
    # p in (span, 2*span): x is in a gap; p == span: x ends a piece
    if p > span or (strict and p == span):
        k, p = right
        return x * 3**k - p + 2 * span, 3**k
    # x starts a piece, ends one and strict is off, or its orbit repeats
    return x, 1


def pred(comp: GridComponent, x: int, strict: bool = False) -> GridPoint | None:
    """The greatest member at or before x (before x when strict): `succ`
    on the mirror image of the component."""
    kind, lo, hi, limit = comp
    p = succ((kind, -hi, -lo, -limit), -x, strict)
    return None if p is None else (-p[0], p[1])


def cantor_net(lo: int, hi: int, level: int) -> list[int]:
    """Both endpoints of every level-`level` piece of the Cantor copy on
    [lo, hi], in order; 3^level must divide hi - lo."""
    starts, length = [lo], hi - lo
    for _ in range(level):
        length //= 3
        starts = [x for a in starts for x in (a, a + 2 * length)]
    return [x for a in starts for x in (a, a + length)]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def print_compactum(s: SymbolicCompactum) -> str:
    lines = ["compactum v1"]
    for comp in s.components:
        if isinstance(comp, Point):
            lines.append(f"point {comp.pos}")
        elif isinstance(comp, Interval):
            lines.append(f"interval {comp.lo} {comp.hi}")
        elif isinstance(comp, Cantor):
            lines.append(f"cantor {comp.lo} {comp.hi}")
        else:
            lines.append(f"seq {comp.limit} {comp.lo} {comp.hi}")
    return "\n".join(lines) + "\n"


# A text line's kind and field count, and the component it builds.
_KINDS = {
    ("point", 1): Point,
    ("interval", 2): Interval,
    ("cantor", 2): Cantor,
    ("seq", 3): PointSeq,
}


def parse_compactum(text: str) -> SymbolicCompactum:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "compactum v1":
        raise ValueError("missing 'compactum v1' header")
    comps: list[Component] = []
    for line in lines[1:]:
        kind, *fields = line.split()
        make = _KINDS.get((kind, len(fields)))
        if make is None:
            raise ValueError(f"unexpected line in compactum file: {line!r}")
        comps.append(make(*(parse_field(parse_dyadic, f, line) for f in fields)))
    return compactum(comps)
