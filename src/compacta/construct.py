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

The stage enumerator emits points so that the point set grows
monotonically and its closure converges to the limit set.  A child
installed by an event that a later event will tombstone emits nothing:
the script is finite and known in full, so the enumerator may consult
the future.  That choice keeps every emitted point inside the limit set,
which makes the Hausdorff bound monotone for free.  Terminal leaves
densify their interval by one midpoint round per stage since their
birth; eta leaves refine their Cantor net one ternary level per stage,
held symbolically as the leaf's `Cantor` component and a level, because
level endpoints are triadic, not dyadic.

Every source a script can emit (a split's seed, both bridges of a
surviving target's replacement, a leaf's ends) is listed as ints, sorted
by birth, on the first stage asked of a script, in one walk of the
replay it keeps from validation (`trees.StageScript.replay`); stage s is
the prefix born by s, found by one bisection.  Its point count follows
in closed form (the first stage asked counts it from the replay, before
the walk), and a stage of more than `MAX_POINTS` points is refused
before any is built.  The points (a terminal leaf's bucket in closed
form, see `_leaf_bucket`) are sorted once as ints over one 2^exp
(`EnumerationState.nums`), with where they came from (`sources`): each
junk point, and each bucket's hull.  `points` is a read-only view over
the ints (`StagePoints`), and `print_state` formats the ints directly.

The Hausdorff gap bound runs on the limit's own grid (`compactum.Grid`),
finer only where the points or a sequence's members need it.  A source
is checked once (a junk point must be in the limit, a bucket's hull
inside one interval component), and only when one fails is every point
tested, so the error names the smallest stray point.  Distances are
ints, the limit's points meet the stage's in one merged walk, and an
eta net's bound, rounded to 2^-80 on its own, meets the rest at the end.
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat

from .compactum import (
    Cantor,
    Grid,
    GridComponent,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
    succ,
)
from .dyadic import (
    Address, Dyadic, ZERO, address_ends, check_natural, format_address, format_dyadic,
    tree_ends,
)
from .trees import SPINE, SPLIT, TERMINAL, LabelledTree, ScriptState, StageScript

Ends = tuple[int, int]  # (lo, e): the interval [lo, lo + 2] / 2^e
# A component (kind, lo, hi, x) on [lo, hi] / 2^x, not a sequence.
Part = tuple[type, int, int, int]
_KIND, _LO, _X = operator.itemgetter(0), operator.itemgetter(1), operator.itemgetter(3)
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
_BIRTH, _REST = operator.itemgetter(0), operator.itemgetter(slice(1, None))


def enumerate_stage(script: StageScript, s: int) -> EnumerationState:
    """Stage s from the schedule the replay keeps from the script's first
    stage: a surviving node born at t <= s emits per its limit kind (a
    terminal leaf s - t midpoint rounds, an eta leaf a level s - t net, a
    split its seed point), and a surviving target the bridges of its
    replacements by stage s."""
    if s < 0:
        raise ValueError("stage must be >= 0")
    if script.stop is not None and s > script.stop:
        raise ValueError(
            f"stage {s} exceeds the script's hard stop {script.stop}"
        )
    final = script.replay
    schedule = final.__dict__.get("schedule")
    if schedule is None:
        _refuse_over_budget(s, *_census(final, s))  # before the walk builds ints
        schedule = final.schedule = _schedule(final)
    births, slots = schedule
    junk: list[tuple[int, int]] = []
    leaves: list[tuple[int, int, int]] = []  # (lo, e, midpoint rounds)
    nets: dict[Address, tuple[Cantor, int]] = {}
    born = iter(slots[: 4 * bisect.bisect_right(births, s)])  # 4 per source
    for t, kind, a, b, addr in zip(births, born, born, born, born):
        if kind == SPLIT:
            junk.append((a, b))
        elif kind == TERMINAL:
            leaves.append((a, b, s - t))
        else:
            nets[addr] = (Cantor(Dyadic(a, b), Dyadic(a + 2, b)), s - t)
    _refuse_over_budget(s, len(junk), [r for *_, r in leaves])
    buckets = [_leaf_bucket(*leaf) for leaf in leaves]
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


def _refuse_over_budget(s: int, junk: int, rounds: list[int]) -> None:
    """Raise unless stage s, with that many junk points and terminal
    leaves after those midpoint rounds, fits in `MAX_POINTS` points."""
    need = junk + sum((2 << min(r, _COUNTED_ROUNDS)) - 1 for r in rounds)
    if need > MAX_POINTS:
        over = "over " if max(rounds, default=0) > _COUNTED_ROUNDS else ""
        raise ValueError(f"stage {s} needs {over}{need} points, more than {MAX_POINTS}")


def _census(final: ScriptState, s: int) -> tuple[int, list[int]]:
    """The junk points and the terminal leaves' rounds of stage s, counted
    from the replay: what the schedule tells once it is built."""
    junk = sum(2 for t, addr, _ in final.replacements if t <= s and addr in final.alive)
    rounds = []
    for addr, kind in final.alive.items():
        age = s - final.born[addr]
        if age >= 0 and kind == SPLIT:
            junk += 1
        elif age >= 0 and kind == TERMINAL:
            rounds.append(age)
    return junk, rounds


def _schedule(final: ScriptState) -> tuple[tuple[int, ...], tuple]:
    """(births, slots): every source a stage can emit, as ints sorted by
    the stage t it is born at, so that stage s emits a prefix.  A source
    born at t is four slots (kind, a, b, addr): of kind split, one of
    addr's junk points, a / 2^b; of a leaf kind, that leaf on
    [a, a + 2] / 2^b.  One walk of the alive nodes builds it, kept flat
    to stay small."""
    ends = tree_ends(final.alive)
    schedule = []
    for addr, kind in final.alive.items():
        t, node = final.born[addr], ends[addr]
        if kind == SPLIT:
            schedule.append((t, kind, *_seed(node), addr))
        elif kind != SPINE:
            schedule.append((t, kind, *node, addr))
    # Bridges of a pair that is itself torn down later never reach the
    # limit set, so only surviving targets emit them.
    for t, addr, j in final.replacements:
        if addr in final.alive:
            left, right, x = _bridges(ends[addr], j)
            schedule += (t, SPLIT, left, x, addr), (t, SPLIT, right, x, addr)
    schedule.sort(key=_BIRTH)
    slots = chain.from_iterable(map(_REST, schedule))
    return tuple(map(_BIRTH, schedule)), tuple(slots)


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

    The query runs on the limit's own grid, the multiples of 2^-E with E
    the larger exponent of the points and the limit, plus _SEQ_CUTOFF + 1
    when the limit holds a sequence (so its members up to the cutoff are
    on the grid); when E is the limit's, its ends are read as they are.
    Distances count half units of 2^-(E+1), so half gaps are ints.  An
    eta net's bound alone counts units of 2^-_CEIL_BITS, its rounding,
    and meets the others by one shift at the end.  A Dyadic is built
    only for the returned bound.
    """
    e = max(limit.exp, state.exp)
    if PointSeq in map(_KIND, limit.ends):
        e += _SEQ_CUTOFF + 1
    grid = Grid(limit, 1 << e)
    shift = e - state.exp
    pts = [x << shift for x in state.nums] if shift else state.nums
    comps = grid.comps
    if not all(_holds(comps, lo << shift, hi << shift) for lo, hi in state.sources):
        for x in pts:
            if not grid.contains(x):
                raise ValueError(
                    f"state point {Dyadic(x, e)} lies outside the limit set: "
                    f"state and limit do not match"
                )
    if not comps:
        return ZERO
    # A net matches a component when its ends are that component's; an
    # end finer than the grid matches none.
    net_levels = {
        (iv.lo.num << (e - iv.lo.exp), iv.hi.num << (e - iv.hi.exp)): level
        for iv, level in state.nets.values()
        if max(iv.lo.exp, iv.hi.exp) <= e
    }
    one = 2 << e  # 1 in half units: the bound where there are no points
    bound = net_bound = i = 0
    n = len(pts)
    for kind, lo, hi, limit_at in comps:
        if kind is Point:
            # points and components both ascend: one merged walk
            i = bisect.bisect_left(pts, lo, i)
            if i < n and pts[i] == lo:
                continue  # an emitted point
            d = min(
                2 * (pts[i] - lo) if i < n else one,
                2 * (lo - pts[i - 1]) if i else one,
            )
        elif kind is Interval:
            d = _interval_bound(lo, hi, pts, one)
        elif kind is Cantor:
            level = net_levels.get((lo, hi))
            if level is None:
                d = _span_bound(lo, hi, pts, one)
            else:
                # span / 3^(level+1) in units of 2^-_CEIL_BITS, rounded up;
                # that is one unit once 3^k > 2^k > span, so k stops there
                span = (hi - lo) << max(_CEIL_BITS - e, 0)
                k = min(level + 1, span.bit_length())
                d = -(-span // (3**k << max(e - _CEIL_BITS, 0)))
                net_bound = max(net_bound, d)
                continue
        else:
            d = _seq_bound(lo, hi, limit_at, pts, one)
        if d > bound:
            bound = d
    top = max(e + 1, _CEIL_BITS)
    return Dyadic(max(bound << (top - e - 1), net_bound << (top - _CEIL_BITS)), top)


_HI = operator.itemgetter(2)


def _holds(comps: Sequence[GridComponent], lo: int, hi: int) -> bool:
    """Whether the limit holds the point lo == hi, or else the whole of
    [lo, hi] inside one `Interval` component: the first component that
    reaches lo is the one that can."""
    i = bisect.bisect_left(comps, lo, key=_HI)
    if i == len(comps):
        return False
    comp = comps[i]
    if lo < hi:
        return comp[0] is Interval and comp[1] <= lo and hi <= comp[2]
    p = succ(comp, lo)
    return p is not None and p[0] == lo * p[1]


def _near(c: int, pts: Sequence[int], one: int) -> int:
    """The distance from c / 2 to the nearest point in half units, the
    least |2p - c|; `one` when there is none."""
    i = bisect.bisect_left(pts, (c + 1) >> 1)
    if i == len(pts):
        return c - 2 * pts[-1] if pts else one
    d = 2 * pts[i] - c
    return min(d, c - 2 * pts[i - 1]) if i and d else d


def _interval_bound(lo: int, hi: int, pts: Sequence[int], one: int) -> int:
    i = bisect.bisect_left(pts, lo)
    j = bisect.bisect_right(pts, hi, i)
    if i == j:
        return _span_bound(lo, hi, pts, one)
    inner = max(map(operator.sub, pts[i + 1 : j], pts[i : j - 1]), default=0)
    return max(2 * (pts[i] - lo), 2 * (hi - pts[j - 1]), inner)


def _span_bound(lo: int, hi: int, pts: Sequence[int], one: int) -> int:
    """min over points p of the worst distance from p to any spot of
    [lo, hi]: max(|p - lo|, |p - hi|) = |p - mid| + (hi - lo) / 2, so the
    point nearest the midpoint attains it."""
    if not pts:
        return one
    return _near(lo + hi, pts, one) + hi - lo


def _seq_bound(lo: int, hi: int, limit: int, pts: Sequence[int], one: int) -> int:
    """Worst distance from any sequence member (or the limit) to the points,
    in half units.

    Members with index beyond the cutoff sit within span * 2^-cutoff of the
    limit, so the limit's own distance plus that margin bounds the tail.
    """
    step = lo + hi - 2 * limit  # far - limit
    worst = _near(2 * limit, pts, one) + (2 * (hi - lo) >> _SEQ_CUTOFF)
    for i in range(_SEQ_CUTOFF + 1):
        d = _near(2 * (limit + (step >> i)), pts, one)
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
