"""Turning labelled trees into closed sets, exactly and stage by stage.

The limit set of a tree assigns every node a region inside its nested
interval: a terminal leaf fills its whole interval, an eta leaf carries a
Cantor copy, and a split node drops isolated junk points: the midpoint of
its child-0 slot (the slot index 0 never names a tree node, so the spot
is free), plus one point per replacement on each side, at the midpoints
of the gaps separating the discarded child interval from its replacement.
All junk lands strictly outside the final children and never in the open
region between them.  For a node on [lo, lo + 2] / 2^e the seed is
(4lo + 1) / 2^(e+2), and with L = lo + 1 the j-th replacement's bridges
are (L*2^(2j+5) + 3 - 9*2^(j+1)) / 2^(e+2j+5) on the left and
(L*2^(2j+5) - 6 + 36*2^j) / 2^(e+2j+5) on the right, closed forms of the
children's ends, so no child address is walked.  `construct_limit`
builds the limit from ints in one walk of the tree (`dyadic.tree_ends`),
each region's ends over its exponent in lowest terms, known in closed
form, then lifted onto the largest and sorted once: no scan, no `Dyadic`
and no validation.

The stage enumerator reads the replay a script keeps from validation
(`trees.StageScript.replay`) and emits points so that the point set grows
monotonically and its closure converges to the limit set.  A child
installed by an event that a later event will tombstone emits nothing:
the script is finite and known in full, so the enumerator may consult
the future.  That choice keeps every emitted point inside the limit set,
which makes the Hausdorff bound monotone for free.  Terminal leaves
densify their interval by one midpoint round per stage since their
birth; eta leaves refine their Cantor net one ternary level per stage,
held symbolically as the leaf's `Cantor` component and a level, because
level endpoints are triadic, not dyadic.  A stage's point count is known
in closed form from the replay, and a stage of more than `MAX_POINTS`
points is refused before any point is built.

Points are built as ints (seeds and bridges each over its own power of
2, a terminal leaf's bucket in closed form, see `_leaf_bucket`) and sorted
once as ints over one 2^exp, which a stage carries
(`EnumerationState.nums`).  Its `points` is a read-only view over those
ints (`StagePoints`) that builds a `Dyadic` only for an element read,
and `print_state` formats the ints directly.  A stage also records where
its points came from (`EnumerationState.sources`): each junk point, and
each terminal leaf's bucket as its hull.

The Hausdorff gap bound shifts the ints onto one integer grid per query
(`compactum.Grid`).  Membership is checked once per source: a junk point
must be in the limit, a bucket's hull inside one interval component;
only when a source fails is every point tested, so the error names the
smallest stray point.  Eta nets are looked up by their ends on the grid,
the nearest-point distances and the half gaps are int comparisons, and
a `Dyadic` is built only for the returned bound.
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat

from .compactum import (
    Cantor,
    Grid,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
)
from .dyadic import (
    Address, Dyadic, ZERO, address_ends, check_natural, format_address, format_dyadic,
    tree_ends,
)
from .trees import ETA, SPINE, SPLIT, TERMINAL, LabelledTree, StageScript

Ends = tuple[int, int]  # (lo, e): the interval [lo, lo + 2] / 2^e
# A component (kind, lo, hi, x) on [lo, hi] / 2^x, not a sequence.
Part = tuple[type, int, int, int]
_LO, _X = operator.itemgetter(1), operator.itemgetter(3)
_set = object.__setattr__


def seed_point(addr: Address) -> Dyadic:
    """The junk point every once-bare node drops: midpoint of its 0-slot,
    which is [4lo, 4lo + 2] / 2^(e+2) in addr's [lo, lo + 2] / 2^e."""
    return Dyadic(*_seed(address_ends(addr)))


def _seed(node: Ends) -> tuple[int, int]:
    """`seed_point` as (num, exp), num odd, from the node's (lo, e)."""
    lo, e = node
    return 4 * lo + 1, e + 2


def replacement_bridges(addr: Address, j: int) -> tuple[Dyadic, Dyadic]:
    """Junk pair of the j-th replacement at addr, j >= 1."""
    if j < 1:
        raise ValueError(f"j must be at least 1, got {j}")
    left, right, x = _bridges(address_ends(addr), j)
    return Dyadic(left, x), Dyadic(right, x)


def _bridges(node: Ends, j: int) -> tuple[int, int, int]:
    """(left, right, x): `replacement_bridges` as ints over 2^x.  left is
    odd, so x is the larger exponent of the two points.

    The discarded pair is (2j-1, 2j), the incoming pair (2j+1, 2j+2); the
    even child sits left of the center, the odd one right.  Each side gets
    the midpoint of the gap between the dead interval and the new one: the
    sum of the two ends `address_ends` gives those children, in closed
    form from the node's center (lo + 1) / 2^e.
    """
    lo, e = node
    center = (lo + 1) << (2 * j + 5)
    return center + 3 - (9 << (j + 1)), center - 6 + (36 << j), e + 2 * j + 5


def junk_points(addr: Address, r: int, ever_terminal: bool) -> list[Dyadic]:
    """Isolated points a split node contributes: count ever_terminal + 2r."""
    check_natural("r", r)
    junk = _junk(address_ends(addr), r, ever_terminal)
    return [Dyadic(n, x) for _, n, _, x in junk]


def _junk(node: Ends, r: int, ever_terminal: bool) -> list[Part]:
    """`junk_points` as `Point` parts, from the node's (lo, e).  The seed's
    num and each left bridge's are odd, so the largest x is the largest
    exponent of the points in lowest terms."""
    out = []
    if ever_terminal:
        n, x = _seed(node)
        out.append((Point, n, n, x))
    for j in range(1, r + 1):
        left, right, x = _bridges(node, j)
        out += (Point, left, left, x), (Point, right, right, x)
    return out


def construct_limit(tree: LabelledTree) -> SymbolicCompactum:
    """The limit set of the tree, built from ints: a leaf's interval or a
    Cantor copy on it, a split node's junk points."""
    nodes = tree.nodes
    parts = []
    for addr, ends in tree_ends(nodes).items():
        node = nodes[addr]
        if node.kind == SPLIT:
            parts += _junk(ends, node.r, node.ever_terminal)
        elif node.kind != SPINE:
            kind = Interval if node.kind == TERMINAL else Cantor
            parts.append(_leaf_part(kind, *ends))
    return _lifted(parts)


def _leaf_part(kind: type, lo: int, e: int) -> Part:
    """The component of that kind on [lo, lo + 2] / 2^e over its exponent
    in lowest terms: e when lo is odd, else e - 1 (of two even ints 2
    apart, one is not a multiple of 4)."""
    if lo & 1:
        return kind, lo, lo + 2, e
    lo >>= 1
    return kind, lo, lo + 1, e - 1


def _lifted(parts: list[Part]) -> SymbolicCompactum:
    """The compactum of parts pairwise apart whose largest x is the largest
    exponent of an end in lowest terms: each end is lifted onto that x
    once and sorted once, with no checks."""
    top = max(parts, key=_X)[3]
    ends = [
        (kind, at := lo << (top - x), hi << (top - x), at) for kind, lo, hi, x in parts
    ]
    ends.sort(key=_LO)
    return SymbolicCompactum(top, tuple(ends))


# ---------------------------------------------------------------------------
# Stage enumeration
# ---------------------------------------------------------------------------


class StagePoints:
    """A stage's points as a read-only sequence (length, indexing,
    iteration) backed by `nums`, the sorted points as ints over 2^`exp`.
    A `Dyadic` is built only for an element read; the view equals the
    tuple of the `Dyadic`s it stands for."""

    __slots__ = ("nums", "exp")

    def __init__(self, nums: tuple[int, ...], exp: int) -> None:
        self.nums = nums
        self.exp = exp

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i: int | slice) -> Dyadic | tuple[Dyadic, ...]:
        if isinstance(i, slice):
            return tuple(map(Dyadic, self.nums[i], repeat(self.exp)))
        return Dyadic(self.nums[i], self.exp)

    def __iter__(self) -> Iterator[Dyadic]:
        return map(Dyadic, self.nums, repeat(self.exp))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, StagePoints)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class EnumerationState:
    """Points emitted by stage `stage`, plus symbolic Cantor nets.

    `points` holds every dyadic point, globally sorted; the enumerator
    gives a `StagePoints` view, a hand-built state any sequence.  `nets`
    maps an eta leaf to (its Cantor copy, net level), the copy being the
    component `construct_limit` gives that leaf; the level-l net consists
    of both endpoints of all 2^l ternary pieces and is never materialized
    since those endpoints are triadic.

    `exp`, `nums` and `sources`, not fields, carry the points as sorted
    ints over 2^exp, exp their largest exponent (0 for none), and where
    they came from as int extents (lo, hi) over 2^exp: (v, v) for a junk
    point, the hull of its bucket for a terminal leaf.  The enumerator
    sets them; a state built by hand gets them from a scan, which sorts,
    with one extent per point.
    """

    stage: int
    points: Sequence[Dyadic]
    nets: dict[Address, tuple[Cantor, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        e = max((p.exp for p in self.points), default=0)
        nums = tuple(sorted(p.num << (e - p.exp) for p in self.points))
        _set(self, "exp", e)
        _set(self, "nums", nums)
        _set(self, "sources", tuple(zip(nums, nums)))


def _stage_state(**attrs: object) -> EnumerationState:
    """A state from its fields, `exp`, `nums` and `sources` all given: no
    scan."""
    state = object.__new__(EnumerationState)
    state.__dict__.update(attrs)
    return state


MAX_POINTS = 2**20
_COUNTED_ROUNDS = 64  # a leaf past it is far over budget; count it as this


def enumerate_stage(script: StageScript, s: int) -> EnumerationState:
    """Stage s from one replay: a surviving node born at t <= s emits per
    its limit kind (a terminal leaf s - t midpoint rounds, an eta leaf a
    level s - t net, a split its seed point), and a surviving target the
    bridges of its replacements by stage s."""
    if s < 0:
        raise ValueError("stage must be >= 0")
    if script.stop is not None and s > script.stop:
        raise ValueError(
            f"stage {s} exceeds the script's hard stop {script.stop}"
        )
    final = script.replay
    splits: list[Address] = []
    rounds: dict[Address, int] = {}  # terminal leaf -> midpoint rounds
    nets: dict[Address, tuple[Cantor, int]] = {}
    for addr, kind in final.alive.items():
        age = s - final.born[addr]
        if age < 0:
            continue
        if kind == TERMINAL:
            rounds[addr] = age
        elif kind == ETA:
            lo, e = address_ends(addr)
            nets[addr] = (Cantor(Dyadic(lo, e), Dyadic(lo + 2, e)), age)
        elif kind == SPLIT:
            splits.append(addr)
    # Bridges of a pair that is itself torn down later never reach the
    # limit set, so only surviving targets emit them.
    bridged = [(a, j) for t, a, j in final.replacements if t <= s and a in final.alive]
    need = len(splits) + 2 * len(bridged) + sum(
        (2 << min(r, _COUNTED_ROUNDS)) - 1 for r in rounds.values()
    )
    if need > MAX_POINTS:
        over = "over " if max(rounds.values(), default=0) > _COUNTED_ROUNDS else ""
        raise ValueError(f"stage {s} needs {over}{need} points, more than {MAX_POINTS}")
    junk = [_seed(address_ends(addr)) for addr in splits]
    for addr, j in bridged:
        left, right, x = _bridges(address_ends(addr), j)
        junk += (left, x), (right, x)
    buckets = [_leaf_bucket(*address_ends(addr), r) for addr, r in rounds.items()]
    e = max([x for _, x in junk] + [x for x, _ in buckets], default=0)
    nums = [v << (e - x) for v, x in junk]
    sources = list(zip(nums, nums))
    for x, ys in buckets:
        if x < e:
            ys = [y << (e - x) for y in ys]
        nums.extend(ys)
        sources.append((ys[0], ys[-1]))
    nums.sort()
    ints = tuple(nums)
    return _stage_state(
        stage=s, points=StagePoints(ints, e), nets=nets, exp=e, nums=ints,
        sources=tuple(sources),
    )


def _leaf_bucket(lo: int, e: int, r: int) -> tuple[int, list[int]]:
    """(x, ys): r midpoint rounds on [lo, lo + 2] / 2^e from the seed, as
    sorted ints over 2^x.  On that grid, 2^(e+2+r), the interval is
    [L, L + 8 * 2^r] and the seed S = L + 2^r; the rounds fill the left gap
    at every unit up to S and cut the right one into 2^r steps of 7, for
    2^(r+1) - 1 points.  The interval's ends are never points."""
    left = 4 * lo << r
    seed = left + (1 << r)
    hi = left + (8 << r)
    return e + 2 + r, [*range(left + 1, seed + 1), *range(seed + 7, hi, 7)]


# ---------------------------------------------------------------------------
# Hausdorff certification
# ---------------------------------------------------------------------------

_CEIL_BITS = 80
_SEQ_CUTOFF = 60


def hausdorff_gap(state: EnumerationState, limit: SymbolicCompactum) -> Dyadic:
    """Exact dyadic upper bound on the Hausdorff distance to the limit set.

    Every point of the state must already belong to the limit set (that is
    what the enumerator guarantees); a stray point means the state and the
    limit came from different scripts and raises, naming the smallest one.
    It is checked per source, and point by point only when a source fails
    (a bucket's hull may span components that hold its points).  The
    returned bound is therefore the farthest any limit point can be from
    the emitted set, maximized per component, and it never increases as
    the stage grows.

    The query runs on one integer grid, the multiples of 1/(2D) with
    D = 2^E: E covers every exponent of the points and the limit, plus
    _SEQ_CUTOFF + 1 when the limit holds a sequence (so its members up to
    the cutoff are on the grid) and at least _CEIL_BITS - 1 when it holds
    a Cantor copy (so the net bound's rounding is too).  Points and
    endpoints are even there, so half gaps are ints.  A Dyadic is built
    only for the returned bound.
    """
    kinds = {end[0] for end in limit.ends}
    e = max(limit.exp, state.exp)
    if PointSeq in kinds:
        e += _SEQ_CUTOFF + 1
    if Cantor in kinds:
        e = max(e, _CEIL_BITS - 1)
    grid = Grid(limit, 2 << e)
    shift = e + 1 - state.exp
    pts = [x << shift for x in state.nums]
    if not all(_holds(grid, lo << shift, hi << shift) for lo, hi in state.sources):
        for x in pts:
            if not grid.contains(x):
                raise ValueError(
                    f"state point {Dyadic(x, e + 1)} lies outside the limit set: "
                    f"state and limit do not match"
                )
    if not grid.comps:
        return ZERO
    # A net matches a component when its ends are that component's; an
    # end finer than the grid matches none.
    net_levels = {
        (iv.lo.num << (e + 1 - iv.lo.exp), iv.hi.num << (e + 1 - iv.hi.exp)): level
        for iv, level in state.nets.values()
        if max(iv.lo.exp, iv.hi.exp) <= e + 1
    }
    one = grid.d
    bound = 0
    for kind, lo, hi, limit_at in grid.comps:
        if kind is Point:
            d = _dist_to_points(lo, pts, one)
        elif kind is Interval:
            d = _interval_bound(lo, hi, pts, one)
        elif kind is Cantor:
            level = net_levels.get((lo, hi))
            if level is None:
                d = _span_bound(lo, hi, pts, one)
            else:
                # span / 3^(level+1) rounded up to a multiple of 2^-_CEIL_BITS;
                # that is one unit once 3^k > 2^k > span, so k stops there
                span, shift = hi - lo, e + 1 - _CEIL_BITS
                k = min(level + 1, span.bit_length())
                d = -(-span // (3 ** k << shift)) << shift
        else:
            d = _seq_bound(lo, hi, limit_at, pts, one)
        if d > bound:
            bound = d
    return Dyadic(bound, e + 1)


_HI = operator.itemgetter(2)


def _holds(grid: Grid, lo: int, hi: int) -> bool:
    """Whether the limit holds the point lo == hi, or else the whole of
    [lo, hi] inside one `Interval` component."""
    if lo == hi:
        return grid.contains(lo)
    i = bisect.bisect_left(grid.comps, lo, key=_HI)
    if i == len(grid.comps):
        return False
    kind, start, end, _ = grid.comps[i]
    return kind is Interval and start <= lo and hi <= end


def _dist_to_points(x: int, pts: list[int], one: int) -> int:
    """Distance from x to the nearest point; `one` when there is none."""
    i = bisect.bisect_left(pts, x)
    if i == len(pts):
        return x - pts[-1] if pts else one
    if i == 0 or pts[i] == x:
        return pts[i] - x
    return min(pts[i] - x, x - pts[i - 1])


def _interval_bound(lo: int, hi: int, pts: list[int], one: int) -> int:
    i = bisect.bisect_left(pts, lo)
    j = bisect.bisect_right(pts, hi, i)
    if i == j:
        return _span_bound(lo, hi, pts, one)
    inner = max(map(operator.sub, pts[i + 1 : j], pts[i : j - 1]), default=0)
    return max(pts[i] - lo, hi - pts[j - 1], inner >> 1)


def _span_bound(lo: int, hi: int, pts: list[int], one: int) -> int:
    """min over points p of the worst distance from p to any spot of
    [lo, hi]: max(|p - lo|, |p - hi|) = |p - mid| + (hi - lo) / 2, so the
    point nearest the midpoint attains it."""
    if not pts:
        return one
    return _dist_to_points((lo + hi) >> 1, pts, one) + ((hi - lo) >> 1)


def _seq_bound(lo: int, hi: int, limit: int, pts: list[int], one: int) -> int:
    """Worst distance from any sequence member (or the limit) to the points.

    Members with index beyond the cutoff sit within span * 2^-cutoff of the
    limit, so the limit's own distance plus that margin bounds the tail.
    """
    step = lo + hi - 2 * limit  # far - limit
    worst = _dist_to_points(limit, pts, one) + ((hi - lo) >> _SEQ_CUTOFF)
    for i in range(_SEQ_CUTOFF + 1):
        d = _dist_to_points(limit + (step >> i), pts, one)
        if d > worst:
            worst = d
    return worst


# ---------------------------------------------------------------------------
# Simulation report (used by the command line front end)
# ---------------------------------------------------------------------------


def print_state(state: EnumerationState, gap: Dyadic | None = None) -> str:
    """The stage's points, formatted from the ints, then its nets."""
    lines = [f"stage {state.stage}"]
    lines += [f"point {format_dyadic(n, state.exp)}" for n in state.nums]
    for addr in sorted(state.nets):
        _, level = state.nets[addr]
        lines.append(f"net {format_address(addr)} level={level}")
    if gap is not None:
        lines.append(f"gap {gap}")
    return "\n".join(lines) + "\n"
