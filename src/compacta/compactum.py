"""Symbolic closed subsets of [0,1] and their point-set analysis operators.

A compactum is a finite list of components: isolated points, closed
intervals, middle-thirds Cantor copies, and convergent point sequences
with a geometric schedule of ratio 1/2.  Components keep positive gaps
from each other, with one sanctioned exception: a sequence's limit may
coincide with an endpoint of a neighbouring interval or Cantor copy.
That glued shape is exactly the configuration the derivative-based
analysis has to detect and reject, so it must be representable.

Clopen subsets are selections of component indices; a selection is clopen
precisely when it never separates a glued pair.  `glue_classes` reads each
glue group as (host kind, glued sequences) in one pass; the canonical
form, the clopen algebra and the partition atoms read it.

A compactum is its grid: `exp` and `ends`, its components as ints over
2^exp, exp the largest dyadic exponent among their endpoints (n
components times exp bits).  `compactum` validates `Dyadic` components
and keeps their ends; the operators and the printer read and write ends
alone, and `construct_limit` and `stone_space` write theirs from ints.
`components` is a sequence view over the ends (`Components`): its
length and == against a view on the same exp read the ends alone, and
the first element read, slice, iteration, repr or hash builds the
`Dyadic` shapes once; a validated compactum seeds it with the shapes it
checked.
`Grid` rescales the ends to multiples of 1/d for one d per query.  Every
question that depends on a component's kind goes through one walk per
kind there: `succ(comp, x, strict)` is the least member at or after x
(after x when strict), `pred` is `succ` on the mirror image, and
`cantor_net` lists the endpoints of a Cantor copy's pieces at one level.
Membership, the region tests of `compact`, the sup norms and stage
points of `banach` and `construct.hausdorff_gap` are built on them with
int comparisons.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate
from numbers import Rational
from operator import itemgetter
from typing import Union

from .dyadic import Dyadic, check_natural, format_dyadic, parse_dyadic, read_lines


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
            raise ValueError(f"interval needs lo < hi, got {self.lo} and {self.hi}")


@dataclass(frozen=True)
class Cantor:
    """Middle-thirds Cantor set scaled onto [lo, hi]."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"cantor copy needs lo < hi, got {self.lo} and {self.hi}")


@dataclass(frozen=True)
class PointSeq:
    """Points limit + (far - limit) * 2^-i for i >= 0, plus the limit itself."""

    limit: Dyadic
    lo: Dyadic
    hi: Dyadic

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"sequence needs lo < hi, got {self.lo} and {self.hi}")
        if self.limit not in (self.lo, self.hi):
            raise ValueError("sequence limit must sit at one end of its span")

    @property
    def far(self) -> Dyadic:
        return self.hi if self.limit == self.lo else self.lo

    def member(self, i: int) -> Dyadic:
        check_natural("index", i)
        return self.limit + (self.far - self.limit).scaled_pow2(-i)


Component = Union[Point, Interval, Cantor, PointSeq]


# A component on a grid: (kind, lo, hi, limit), where kind is the
# component's class and limit is a sequence's limit (lo for the others).
GridComponent = tuple[type, int, int, int]
# An exact position n/m in grid units.  m is 1, a power of 2 (a sequence
# member finer than the grid) or a power of 3 (a Cantor point below it).
GridPoint = tuple[int, int]

_HOSTS = (Interval, Cantor)  # the kinds a sequence may glue to
_LO, _HI = itemgetter(1), itemgetter(2)

# One row per component kind: its text keyword, its class and, in the
# order its constructor and its text line take them, the places of its
# fields in a `GridComponent`.
_KINDS = (
    ("point", Point, (1,)),
    ("interval", Interval, (1, 2)),
    ("cantor", Cantor, (1, 2)),
    ("seq", PointSeq, (3, 1, 2)),
)
_FIELDS = {kind: (word, fields) for word, kind, fields in _KINDS}


def _on_grid(c: Component, e: int) -> GridComponent:
    """The component in units of 1/2^e, e at least each endpoint's exp."""
    lo = c.lo.num << (e - c.lo.exp)
    hi = c.hi.num << (e - c.hi.exp)
    kind = type(c)
    return kind, lo, hi, hi if kind is PointSeq and c.limit == c.hi else lo


def _glue_ok(left: GridComponent, right: GridComponent) -> bool:
    if left[0] is PointSeq and left[3] == left[2]:
        return right[0] in _HOSTS
    if right[0] is PointSeq and right[3] == right[1]:
        return left[0] in _HOSTS
    return False


class Components(Sequence):
    """A compactum's components as a read-only sequence over its `ends`
    on 2^`exp`, equal to the tuple of the `Dyadic` shapes it stands for.
    `len` reads the ends, and so does == between two views on one exp:
    over one 2^exp the ends and the components determine each other.
    The first element read, slice, iteration, repr or hash builds the
    shapes once and keeps them; any other comparison reads those."""

    __slots__ = ("ends", "exp", "_shapes")

    def __init__(
        self,
        ends: tuple[GridComponent, ...],
        exp: int,
        shapes: tuple[Component, ...] | None = None,
    ) -> None:
        self.ends = ends
        self.exp = exp
        self._shapes = shapes

    def _built(self) -> tuple[Component, ...]:
        if self._shapes is None:
            e = self.exp
            self._shapes = tuple(
                end[0](*[Dyadic(end[i], e) for i in _FIELDS[end[0]][1]])
                for end in self.ends
            )
        return self._shapes

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i: int | slice) -> Component | tuple[Component, ...]:
        return self._built()[i]

    def __iter__(self) -> Iterator[Component]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Components):
            if other.exp == self.exp:
                return self.ends == other.ends
            other = other._built()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())

    def __reduce__(self) -> tuple[type, tuple[tuple[GridComponent, ...], int]]:
        return Components, (self.ends, self.exp)


@dataclass(frozen=True)
class SymbolicCompactum:
    """A closed set as its grid: `ends`, the components sorted by (lo, hi),
    pairwise apart or glued, as `GridComponent`s over 2^`exp`, exp their
    largest dyadic exponent; canonical, so == and hash read them alone.
    `components`, the `Dyadic` shapes, is a `Components` view over the
    ends, set when first read; `compactum` seeds it with the components
    it validated.  repr prints it."""

    exp: int
    ends: tuple[GridComponent, ...]

    def __getattr__(self, name: str) -> Components:
        # reached only for an unset attribute: `components` not yet read
        if name != "components":
            raise AttributeError(name)
        view = Components(self.ends, self.exp)
        object.__setattr__(self, "components", view)
        return view

    def __repr__(self) -> str:
        return f"SymbolicCompactum(components={self.components!r})"

    def glue_groups(self) -> list[list[int]]:
        """Maximal runs of components chained by coinciding endpoints."""
        groups: list[list[int]] = []
        ends = self.ends
        for i, end in enumerate(ends):
            if i and ends[i - 1][2] == end[1]:
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups

    def is_clopen(self, sel: frozenset[int]) -> bool:
        if any(i < 0 or i >= len(self.ends) for i in sel):
            return False
        groups = self.glue_groups()
        return all(sum(i in sel for i in g) in (0, len(g)) for g in groups)


def _carried(ends: Sequence[GridComponent], e: int) -> SymbolicCompactum:
    """A compactum from ends on 2^e already sorted and valid: no sort and
    no checks.  Trailing zero bits that all the ends share are stripped,
    so exp stays the largest dyadic exponent; the scan stops at the first
    odd coordinate, which leaves none to strip."""
    bits = 0
    for _, lo, hi, _ in ends:
        bits |= lo | hi
        if bits & 1:
            return SymbolicCompactum(e, tuple(ends))
    shift = (bits & -bits).bit_length() - 1 if bits else e
    if shift:
        ends = [(k, lo >> shift, hi >> shift, at >> shift) for k, lo, hi, at in ends]
    return SymbolicCompactum(e - shift, tuple(ends))


def compactum(components: Iterable[Component]) -> SymbolicCompactum:
    """The compactum of the components, given in any order; raises unless
    they lie in [0,1], pairwise apart or glued.  The validated components,
    sorted, are kept as its `components` view."""
    comps = tuple(components)
    e = max((x.exp for c in comps for x in (c.lo, c.hi)), default=0)
    pairs = sorted(((_on_grid(c, e), c) for c in comps), key=lambda p: p[0][1:3])
    if pairs and (pairs[0][0][1] < 0 or pairs[-1][0][2] > 1 << e):
        raise ValueError("compactum must live inside [0,1]")
    for (ea, a), (eb, b) in zip(pairs, pairs[1:]):
        if ea[2] > eb[1]:
            raise ValueError(f"components overlap near {a.hi}: {a} and {b}")
        if ea[2] == eb[1] and not _glue_ok(ea, eb):
            raise ValueError(
                f"components touch at {a.hi} without a sequence limit "
                f"sanctioning it: {a} and {b}"
            )
    ends = tuple(end for end, _ in pairs)
    s = SymbolicCompactum(e, ends)
    view = Components(ends, e, tuple(c for _, c in pairs))
    object.__setattr__(s, "components", view)
    return s


def _require_clopen(s: SymbolicCompactum, sel: frozenset[int]) -> None:
    if not s.is_clopen(sel):
        raise ValueError(f"selector {sorted(sel)} is not clopen")


def select(s: SymbolicCompactum, sel: frozenset[int]) -> SymbolicCompactum:
    _require_clopen(s, sel)
    return _carried([s.ends[i] for i in sorted(sel)], s.exp)


# ---------------------------------------------------------------------------
# Derivative, reduct, and the predicates on clopen selections
# ---------------------------------------------------------------------------


def _derivative_images(s: SymbolicCompactum) -> list[GridComponent | None]:
    """Per input component: its surviving image, or None if it vanishes.

    A sequence turns into its limit point; when the limit already lies on a
    neighbouring interval or Cantor copy, the point is absorbed there and
    the sequence contributes nothing of its own.
    """
    endpoints = {x for k, lo, hi, _ in s.ends if k in _HOSTS for x in (lo, hi)}
    images: list[GridComponent | None] = []
    for end in s.ends:
        kind, at = end[0], end[3]
        if kind is Point or (kind is PointSeq and at in endpoints):
            images.append(None)
        elif kind is PointSeq:
            images.append((Point, at, at, at))
        else:
            images.append(end)
    return images


def cb_derivative(s: SymbolicCompactum) -> SymbolicCompactum:
    """Remove the isolated points; sequences collapse to their limits."""
    kinds = {end[0] for end in s.ends}
    if PointSeq in kinds:
        return _carried([end for end in _derivative_images(s) if end], s.exp)
    if Point in kinds:
        return _carried([end for end in s.ends if end[0] is not Point], s.exp)
    return s  # intervals and Cantor copies: a perfect set


def derived_selector(s: SymbolicCompactum, sel: frozenset[int]) -> frozenset[int]:
    """Image of a clopen selection inside cb_derivative(s)."""
    _require_clopen(s, sel)
    images = _derivative_images(s)
    rank = list(accumulate((img is not None for img in images), initial=0))
    return frozenset(rank[i] for i in sel if images[i] is not None)


def reduce_intoms(s: SymbolicCompactum) -> SymbolicCompactum:
    """Collapse every clopen interval component to its midpoint.  The
    midpoints are on the grid one bit finer."""
    glued = {i for group in s.glue_groups() if len(group) > 1 for i in group}
    ends: list[GridComponent] = []
    for i, (kind, lo, hi, at) in enumerate(s.ends):
        if kind is Interval and i not in glued:
            ends.append((Point, lo + hi, lo + hi, lo + hi))
        else:
            ends.append((kind, 2 * lo, 2 * hi, 2 * at))
    return _carried(ends, s.exp + 1)


def reduction(s: SymbolicCompactum) -> SymbolicCompactum:
    """Derivative followed by the interval-to-point reduct."""
    return reduce_intoms(cb_derivative(s))


def satisfies_inf(s: SymbolicCompactum, sel: frozenset[int]) -> bool:
    """Infinitely many distinct clopen splits inside the selection."""
    _require_clopen(s, sel)
    return any(s.ends[i][0] in (Cantor, PointSeq) for i in sel)


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


def glue_classes(s: SymbolicCompactum) -> list[tuple[type, int]]:
    """(host kind, glued sequences) per glue group, in order, from one pass
    over `ends`.  A sequence glues only to an interval or a Cantor copy, so
    a group is one host with a sequence glued on neither, one or both
    sides; a lone component is its own host."""
    classes: list[tuple[type, int]] = []
    prev_hi = -1
    for kind, lo, hi, _ in s.ends:
        if lo == prev_hi:
            host, n = classes[-1]
            classes[-1] = (host if kind is PointSeq else kind, n + 1)
        else:
            classes.append((kind, 0))
        prev_hi = hi
    return classes


def canonical_form(s: SymbolicCompactum) -> CompactumForm:
    classes = glue_classes(s)
    seqs = classes.count((PointSeq, 0))
    glue = sorted(
        ("interval" if kind is Interval else "cantor", n) for kind, n in classes if n
    )
    return CompactumForm(
        # a sequence absorbs any finite set of isolated points
        points=0 if seqs or glue else classes.count((Point, 0)),
        intervals=classes.count((Interval, 0)),
        seqs=seqs,
        cantor=(Cantor, 0) in classes,
        glue=tuple(glue),
    )


# ---------------------------------------------------------------------------
# Exact membership
# ---------------------------------------------------------------------------


def compactum_contains(s: SymbolicCompactum, x: Rational | Dyadic) -> bool:
    grid = Grid(s, math.lcm(1 << s.exp, x.denominator))
    return grid.contains(grid.at(x))


# ---------------------------------------------------------------------------
# The integer grid of one query
# ---------------------------------------------------------------------------

class Grid:
    """The components of one compactum as integers on the grid of
    multiples of 1/d, where d is a multiple of 2^exp: the stored
    `ends`, rescaled by d / 2^exp.

    A query that puts all of its coordinates on one such grid decides
    order and membership with int comparisons alone."""

    __slots__ = ("d", "comps")

    def __init__(self, s: SymbolicCompactum, d: int) -> None:
        self.d = d
        m = d >> s.exp
        self.comps: Sequence[GridComponent] = s.ends if m == 1 else [
            (kind, lo * m, hi * m, at * m) for kind, lo, hi, at in s.ends
        ]

    def at(self, x: Rational | Dyadic) -> int:
        """A rational whose denominator divides d, in grid units."""
        return x.numerator * (self.d // x.denominator)

    def succ(self, x: int, strict: bool = False) -> GridPoint | None:
        """`succ` over the whole set: components are sorted and pairwise
        disjoint, so the first one whose hull reaches x (past x when
        strict) holds it."""
        i = (bisect_right if strict else bisect_left)(self.comps, x, key=_HI)
        return succ(self.comps[i], x, strict) if i < len(self.comps) else None

    def pred(self, x: int) -> GridPoint | None:
        """The greatest member of the set at or before x."""
        i = bisect_right(self.comps, x, key=_LO) - 1
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
    piece, which spans `span` of them, so the piece starts at x*3^k - p.
    While x lies inside a piece p stays in (0, span) and follows a fixed
    map, so an orbit that never leaves repeats.  Brent's checkpoint finds
    the repeat without a set: `mark` is p at depth 1, 2, 4, 8, ..., and
    the orbit repeats once p comes back to it."""
    span = hi - lo
    p, k, right, mark, due = x - lo, 0, None, 0, 1
    while 0 < p < span and p != mark:
        if k == due:
            mark, due = p, 2 * due
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


def _dyadics(make: type) -> Callable[..., Component]:
    return lambda *fields: make(*map(parse_dyadic, fields))


# A text line's keyword, its field count and the component it builds.
_LINES = {word: (len(fields), _dyadics(kind)) for word, kind, fields in _KINDS}


def print_compactum(s: SymbolicCompactum) -> str:
    lines = ["compactum v1"]
    for end in s.ends:
        word, fields = _FIELDS[end[0]]
        values = (format_dyadic(end[i], s.exp) for i in fields)
        lines.append(" ".join([word, *values]))
    return "\n".join(lines) + "\n"


def parse_compactum(text: str) -> SymbolicCompactum:
    return compactum(read_lines(text, "compactum v1", _LINES))
