"""Finite-cover primitives: exact 2^{-n} covers, ball intersection
decisions, and clopen partition enumeration.

Every decision here is exact, and runs on integers.  Each query first
picks one grid (`compactum.Grid`), the multiples of 1/D, on which all of
its coordinates are integers:

- `cover(s, n)` takes D = 2^E * 3^K.  E is the largest dyadic exponent
  of the components plus n + 1, which leaves room for the halvings of a
  sequence's members; K is the deepest Cantor level the cover uses, the
  least L with span / 3^L < 2^{-n}.  Endpoints, ball centres and the
  radius D >> n are then plain ints.
- `cover_is_valid` and `balls_intersect` take D as the lcm of 2^E and the
  denominators of the given centres and radii, so a certificate may hold
  any rational.  A certificate from `cover` carries its centres as ints
  over its own grid, and the check rescales those onto D instead.

Every region test asks one question: does the first member from the
region's start (`compactum.succ`, strict when the start is open) pass
its end?  Two balls intersect inside the set when their overlap meets
it; a cover check sweeps all the balls once, in centre order, walking
the components beside them to test each centre's membership, and asks
it only where the next ball leaves a gap, and past the last ball.
The tangency scan of `cover` sweeps the same way and decides each ball
once, not each pair.  `Fraction`s are built only when a certificate's
balls are read.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .compactum import (
    Cantor,
    Grid,
    GridComponent,
    GridPoint,
    Interval,
    PointSeq,
    SymbolicCompactum,
    cantor_net,
    glue_classes,
    succ,
)
from .dyadic import check_natural, parse_fraction, read_lines

_set = object.__setattr__


@dataclass(frozen=True)
class Ball:
    center: Fraction
    radius: Fraction

    def __post_init__(self) -> None:
        if self.radius.numerator <= 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class CoverCertificate:
    """A radius-2^{-n} cover; flagged pairs are ball indices whose open
    and closed intersection decisions disagree (tangencies).  `cover`
    always computes them; they are None only on a certificate read back
    by `parse_cover`, whose text format does not carry them.  One from
    `cover` also sets `nums` and `d` (None elsewhere), its centres in ball
    order as ints over d, and builds `balls` from them when first read,
    so ==, hash and repr match the certificate built from that tuple."""

    n: int
    balls: tuple[Ball, ...]
    flagged: tuple[tuple[int, int], ...] | None

    nums = d = None

    @property
    def h(self) -> int:
        return len(self.balls if self.nums is None else self.nums)

    def __getattr__(self, name: str) -> tuple[Ball, ...]:
        # reached only for an unset attribute: `balls` not yet built
        if name != "balls" or self.nums is None:
            raise AttributeError(name)
        radius = Fraction(1, 1 << self.n)
        balls = tuple(Ball(Fraction(x, self.d), radius) for x in self.nums)
        _set(self, "balls", balls)
        return balls


# ---------------------------------------------------------------------------
# The grid of one query
# ---------------------------------------------------------------------------


def _not_past(p: GridPoint | None, v: int, closed: bool) -> bool:
    """Is there a point p, and does it lie before v (or at v when closed)?"""
    if p is None:
        return False
    n, m = p
    return n < v * m or (closed and n == v * m)


def _cantor_level(span: int, r: int) -> int:
    """The least level L with span / 3^L < r."""
    level = 0
    while span >= r:
        r *= 3
        level += 1
    return level


# ---------------------------------------------------------------------------
# Cover construction
# ---------------------------------------------------------------------------


# The most balls `cover` builds; a larger cover is refused before any of
# it is built.  Every cover the tests, the README and the benchmark make
# stays below it.
MAX_BALLS = 1 << 20


def cover(s: SymbolicCompactum, n: int) -> CoverCertificate:
    """Greedy per-component cover by balls of radius exactly 2^{-n}."""
    if n < 0:
        raise ValueError("precision must be a natural number")
    e = s.exp + n + 1
    k = max(
        (
            _cantor_level((hi - lo) << (n + 1), 1 << (e - n))
            for kind, lo, hi, _ in s.ends
            if kind is Cantor
        ),
        default=0,
    )
    grid = Grid(s, 3 ** k << e)
    r = grid.d >> n
    h = sum(_ball_count(comp, r) for comp in grid.comps)
    if h > MAX_BALLS:
        raise ValueError(
            f"a cover at precision {n} needs {h} balls, more than {MAX_BALLS}"
        )
    centers: list[int] = []
    for comp in grid.comps:
        centers += _component_centers(comp, r)
    cert = object.__new__(CoverCertificate)
    _set(cert, "n", n)
    _set(cert, "flagged", _tangencies(grid, centers, r))
    _set(cert, "nums", tuple(centers))
    _set(cert, "d", grid.d)
    return cert


def _seq_last(span: int, r: int) -> int:
    """The least i with span * 2^-i < r."""
    i = 0
    while span >= r << i:
        i += 1
    return i


def _ball_count(comp: GridComponent, r: int) -> int:
    """len(_component_centers(comp, r)), in closed form."""
    kind, lo, hi, _ = comp
    if kind is Interval:
        return (hi - lo) // r + 1
    if kind is Cantor:
        return 2 << _cantor_level(hi - lo, r)
    return _seq_last(hi - lo, r) + 1 if kind is PointSeq else 1


def _component_centers(comp: GridComponent, r: int) -> list[int]:
    kind, lo, hi, limit = comp
    if kind is Interval:
        # step-r grid from lo; consecutive balls overlap by r
        return list(range(lo, hi + 1, r))
    if kind is Cantor:
        # both endpoints of every piece at the least level shorter than r
        return cantor_net(lo, hi, _cantor_level(hi - lo, r))
    if kind is PointSeq:
        # one ball per early member; the last listed member is within r of
        # the limit, so its ball swallows the whole tail
        step = lo + hi - 2 * limit
        return [limit + (step >> j) for j in range(_seq_last(hi - lo, r) + 1)]
    return [lo]


def _tangencies(
    grid: Grid, centers: list[int], r: int
) -> tuple[tuple[int, int], ...]:
    """Pairs of equal-radius balls whose open and closed decisions differ.

    Centres farther apart than 2r have an empty closed overlap, and
    centres closer than r both sit inside the open overlap (centres are
    points of the set), so either way the decisions agree.  A sweep in
    centre order visits only the pairs in between: for the ball at y, the
    earlier balls at x in [u - r, u], u = y - r.  Their closed overlap
    [u, v], v = x + r, is the open one plus its endpoints, so the
    decisions differ exactly when the open overlap misses the set, that
    is v <= p for p the first member past u (u where members pile up),
    and an endpoint does not.  Those with v <= p are one contiguous run,
    x <= floor(p) - r; all of it is flagged when u is a member, else only
    its x with v == p.  So each ball decides u and p once, with at most
    two walks from the first component that reaches u.
    """
    order = sorted(range(len(centers)), key=centers.__getitem__)
    xs = [centers[i] for i in order]
    comps, c, lo, hi, found = grid.comps, 0, 0, 0, []
    for b, y in enumerate(xs):
        u = y - r  # pairs xs[lo:hi]; the pointers rise with u and stop at y
        while xs[hi] <= u:
            hi += 1
        while xs[lo] < u - r:
            lo += 1
        if lo == hi:
            continue
        while comps[c][2] < u:
            c += 1
        kind, start, end, _ = comp = comps[c]
        if u < start:
            p, member = (start, 1), False
        elif u == end:  # a component's ends are members, and y is a later one
            p, member = (comps[c + 1][1], 1), True
        elif kind is Interval:
            p, member = (u, 1), True
        else:
            p = succ(comp, u)
            member = p[0] == u * p[1]
            if member:
                p = succ(comp, u, True)
        top, off = divmod(p[0], p[1])
        if off and not member:
            continue
        last = bisect_right(xs, top - r, lo, hi)
        first = lo if member else bisect_left(xs, top - r, lo, last)
        for a in range(first, last):
            i, j = order[a], order[b]
            found.append((i, j) if i < j else (j, i))
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Verification and intersection
# ---------------------------------------------------------------------------


def cover_is_valid(s: SymbolicCompactum, cert: CoverCertificate) -> bool:
    """Exact check: radii are 2^{-n}, centers lie in the set, and closed
    balls leave no component point uncovered.  A certificate from `cover`
    is read from its ints, whose radii are 2^{-n} by construction."""
    n = cert.n
    if n < 0:
        raise ValueError("precision must be a natural number")
    nums, d = cert.nums, cert.d
    if nums is None:
        balls, radius = cert.balls, Fraction(1, 1 << n)
        if any(b.radius != radius for b in balls):
            return False
        d = math.lcm(*{b.center.denominator for b in balls})
        nums = [b.center.numerator * (d // b.center.denominator) for b in balls]
    grid = Grid(s, math.lcm(1 << max(s.exp, n), d))
    r, m, comps = grid.d >> n, grid.d // d, grid.comps
    centers = sorted(x * m for x in nums)
    # Sweep all balls in centre order.  Only comps[i], the first component
    # whose hull reaches c, can hold c.  The balls cover the set up to x
    # (x too when `after`); later balls start at or after c - r, so a
    # member in [x, c - r), or past the last ball, is left uncovered.
    i, k, after = 0, len(comps), False
    x = comps[0][1] if comps else 0
    for c in centers:
        while i < k and comps[i][2] < c:
            i += 1
        p = succ(comps[i], c) if i < k else None
        if p is None or p[0] != c * p[1]:
            return False
        if c - r > x and _not_past(grid.succ(x, after), c - r, False):
            return False
        x, after = c + r, True
    return grid.succ(x, after) is None


def balls_intersect(
    s: SymbolicCompactum, b1: Ball, b2: Ball, closed: bool = False
) -> bool:
    """Decide exactly whether both balls meet a common point of the set.

    Open balls by default; pass closed=True for the closed variant.
    """
    d = math.lcm(
        1 << s.exp,
        b1.center.denominator,
        b1.radius.denominator,
        b2.center.denominator,
        b2.radius.denominator,
    )
    grid = Grid(s, d)
    c1, c2 = grid.at(b1.center), grid.at(b2.center)
    for x in (c1, c2):
        if not grid.contains(x):
            raise ValueError("ball center does not lie in the set")
    r1, r2 = grid.at(b1.radius), grid.at(b2.radius)
    u = max(c1 - r1, c2 - r2)
    v = min(c1 + r1, c2 + r2)
    return _not_past(grid.succ(u, not closed), v, closed)


# ---------------------------------------------------------------------------
# Clopen partitions
# ---------------------------------------------------------------------------

# The most partitions `check_partition_budget` lets a depth have.  The
# stream of `clopen_partitions` itself stays lazy and unbounded.
MAX_PARTITIONS = 1 << 20
# Partitions are counted exactly up to this many atoms; a host with more is
# far over budget ("needs over").  Capping the depth at it keeps 2^depth
# small, since a Cantor group then already has more atoms than this.
_COUNTED_ATOMS = 64

# An atom is (glue-group index, refinement word); the word is nonempty only
# for groups hosted by a Cantor component, whose level-d pieces it names.
PartitionAtom = tuple[int, str]


def atoms_at_depth(s: SymbolicCompactum, depth: int) -> list[PartitionAtom]:
    """Finest clopen pieces at a given Cantor refinement depth.  A glued
    sequence rides with the piece holding its limit, so it never splits
    a group on its own."""
    check_natural("depth", depth)
    atoms: list[PartitionAtom] = []
    for gid, (kind, _) in enumerate(glue_classes(s)):
        if kind is Cantor and depth > 0:
            atoms.extend(
                (gid, format(w, f"0{depth}b")) for w in range(2 ** depth)
            )
        else:
            atoms.append((gid, ""))
    return atoms


def atom_count(s: SymbolicCompactum, depth: int) -> int:
    """len(atoms_at_depth(s, depth)), counted in closed form."""
    check_natural("depth", depth)
    return sum(
        2**depth if depth and kind is Cantor else 1 for kind, _ in glue_classes(s)
    )


def bell_number(n: int) -> int:
    """The number of set partitions of n items, by the Bell triangle: each
    row starts with the last entry of the row before."""
    check_natural("n", n)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def check_partition_budget(s: SymbolicCompactum, depth: int) -> None:
    """Refuse a depth with more than MAX_PARTITIONS clopen partitions, from
    the Bell number of its atom count, before any partition is built."""
    check_natural("depth", depth)
    atoms = atom_count(s, min(depth, _COUNTED_ATOMS))
    need = bell_number(min(atoms, _COUNTED_ATOMS))
    if need > MAX_PARTITIONS:
        over = "over " if atoms > _COUNTED_ATOMS else ""
        raise ValueError(
            f"depth {depth} needs {over}{need} partitions, more than {MAX_PARTITIONS}"
        )


def _rgs_strings(k: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings in lexicographic order: every set
    partition of k items exactly once, coarsest-first at the front."""
    if k == 0:
        yield ()
        return
    state = [0] * k
    while True:
        yield tuple(state)
        i = k - 1
        while i > 0:
            if state[i] <= max(state[:i]):
                state[i] += 1
                for j in range(i + 1, k):
                    state[j] = 0
                break
            state[i] = 0
            i -= 1
        else:
            return


def _parts_from_rgs(
    atoms: list[PartitionAtom], rgs: tuple[int, ...]
) -> tuple[frozenset[PartitionAtom], ...]:
    n_parts = max(rgs) + 1 if rgs else 0
    groups: list[set[PartitionAtom]] = [set() for _ in range(n_parts)]
    for atom_, part in zip(atoms, rgs):
        groups[part].add(atom_)
    return tuple(frozenset(g) for g in groups)


def _needs_full_depth(
    parts: tuple[frozenset[PartitionAtom], ...], depth: int
) -> bool:
    """True when some sibling pair of level-`depth` pieces is separated,
    so the partition does not factor through depth-1 atoms."""
    owner: dict[PartitionAtom, int] = {}
    for idx, part in enumerate(parts):
        for a in part:
            owner[a] = idx
    for (gid, word), idx in owner.items():
        if len(word) == depth and depth > 0 and word.endswith("0"):
            sibling = (gid, word[:-1] + "1")
            if owner.get(sibling, idx) != idx:
                return True
    return False


def clopen_partitions(
    s: SymbolicCompactum, depth: int
) -> Iterator[tuple[frozenset[PartitionAtom], ...]]:
    """All partitions into clopen parts, each part a union of atoms,
    Cantor components refined down to the given depth.

    Lazily enumerated grouped by effective depth, so the stream for depth
    d is a prefix of the stream for depth d+1.
    """
    check_natural("depth", depth)
    return _partitions(s, depth)


def _partitions(
    s: SymbolicCompactum, depth: int
) -> Iterator[tuple[frozenset[PartitionAtom], ...]]:
    for eff in range(depth + 1):
        atoms = atoms_at_depth(s, eff)
        for rgs in _rgs_strings(len(atoms)):
            parts = _parts_from_rgs(atoms, rgs)
            if eff == 0 or _needs_full_depth(parts, eff):
                yield parts


def atoms_intersect(a: PartitionAtom, b: PartitionAtom) -> bool:
    return a[0] == b[0] and (a[1].startswith(b[1]) or b[1].startswith(a[1]))


def parts_intersect(
    p: Iterable[PartitionAtom], q: Iterable[PartitionAtom]
) -> bool:
    """Exact intersection decision for parts, possibly from partitions of
    different depths."""
    return any(atoms_intersect(a, b) for a in p for b in q)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def print_cover(cert: CoverCertificate) -> str:
    lines = [f"cover n={cert.n}"]
    for ball in cert.balls:
        lines.append(f"ball {ball.center} {ball.radius}")
    return "\n".join(lines) + "\n"


def parse_cover(text: str) -> CoverCertificate:
    def ball(center: str, radius: str) -> Ball:
        return Ball(parse_fraction(center), parse_fraction(radius))

    n, *balls = read_lines(text, "cover n=", {"ball": (2, ball)})
    return CoverCertificate(n, tuple(balls), None)
