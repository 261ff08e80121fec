"""Turning labelled trees into closed sets, exactly and stage by stage.

The limit set of a tree assigns every node a region inside its nested
interval: a terminal leaf fills its whole interval, an eta leaf carries a
Cantor copy, and a split node drops isolated junk points: the midpoint of
its child-0 slot (the slot index 0 never names a tree node, so the spot
is free), plus one point per replacement on each side, at the midpoints
of the gaps separating the discarded child interval from its replacement.
All junk lands strictly outside the final children and never in the open
region between them.

The stage enumerator reads one replay of a script (`trees.replay_script`)
and emits points so that the point set grows monotonically and its
closure converges to the limit set.  A child installed by an event that a
later event will tombstone emits nothing: the script is finite and known
in full, so the enumerator may consult the future.  That choice keeps
every emitted point inside the limit set, which makes the Hausdorff bound
monotone for free.  Terminal leaves densify their interval by one
midpoint round per stage since their birth; eta leaves refine their
Cantor net one ternary level per stage, held symbolically because level
endpoints are triadic, not dyadic.  A stage's point count is known in
closed form from the replay, and a stage of more than `MAX_POINTS`
points is refused before any point is built.

The Hausdorff gap bound of a stage runs on one integer grid per query
(`compactum.Grid`): membership of every point, the nearest-point
distances and the half gaps are int comparisons, and a `Dyadic` is built
only for the returned bound.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field

from .compactum import (
    Cantor,
    Component,
    Grid,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
    compactum,
)
from .dyadic import (
    Address,
    DyInterval,
    Dyadic,
    ZERO,
    address_ends,
    format_address,
    interval_of,
    midpoint,
)
from .trees import (
    ETA,
    SPLIT,
    TERMINAL,
    LabelledTree,
    StageScript,
    replay_script,
)


def seed_point(addr: Address) -> Dyadic:
    """The junk point every once-bare node drops: midpoint of its 0-slot,
    which is [4lo, 4lo + 2] / 2^(e+2) in addr's [lo, lo + 2] / 2^e."""
    lo, e = address_ends(addr)
    return Dyadic(4 * lo + 1, e + 2)


def replacement_bridges(addr: Address, j: int) -> tuple[Dyadic, Dyadic]:
    """Junk pair of the j-th replacement at addr, j >= 1.

    The discarded pair is (2j-1, 2j), the incoming pair (2j+1, 2j+2); the
    even child sits left of the center, the odd one right.  Each side gets
    the midpoint of the gap between the dead interval and the new one,
    summed from the two ends on one grid.
    """
    node = address_ends(addr)
    top = node[1] + 2 * j + 4

    def end(m: int, side: int) -> int:
        """Child m's lo (side 0) or hi (side 2) over 2^top."""
        lo, e = address_ends((m,), *node)
        return (lo + side) << (top - e)

    left = Dyadic(end(2 * j, 2) + end(2 * j + 2, 0), top + 1)
    right = Dyadic(end(2 * j + 1, 2) + end(2 * j - 1, 0), top + 1)
    return left, right


def junk_points(addr: Address, r: int, ever_terminal: bool) -> list[Dyadic]:
    """Isolated points a split node contributes: count ever_terminal + 2r."""
    out: list[Dyadic] = []
    if ever_terminal:
        out.append(seed_point(addr))
    for j in range(1, r + 1):
        out.extend(replacement_bridges(addr, j))
    return out


def construct_limit(tree: LabelledTree) -> SymbolicCompactum:
    comps: list[Component] = []
    for addr, node in tree.nodes.items():
        if node.kind in (TERMINAL, ETA):
            lo, e = address_ends(addr)
            kind = Interval if node.kind == TERMINAL else Cantor
            comps.append(kind(Dyadic(lo, e), Dyadic(lo + 2, e)))
        elif node.kind == SPLIT:
            comps.extend(
                Point(p) for p in junk_points(addr, node.r, node.ever_terminal)
            )
    return compactum(comps)


# ---------------------------------------------------------------------------
# Stage enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationState:
    """Points emitted by stage `stage`, plus symbolic Cantor nets.

    `points` holds every dyadic point, globally sorted.  `leaf_points`
    buckets the interior points of each terminal leaf for the densification
    schedule.  `nets` maps an eta leaf to (its interval, net level); the
    level-l net consists of both endpoints of all 2^l ternary pieces and is
    never materialized since those endpoints are triadic.
    """

    stage: int
    points: tuple[Dyadic, ...]
    leaf_points: dict[Address, tuple[Dyadic, ...]] = field(default_factory=dict)
    nets: dict[Address, tuple[DyInterval, int]] = field(default_factory=dict)


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
    final = replay_script(script)
    splits: list[Address] = []
    rounds: dict[Address, int] = {}  # terminal leaf -> midpoint rounds
    nets: dict[Address, tuple[DyInterval, int]] = {}
    for addr, kind in final.alive.items():
        age = s - final.born[addr]
        if age < 0:
            continue
        if kind == TERMINAL:
            rounds[addr] = age
        elif kind == ETA:
            nets[addr] = (interval_of(addr), age)
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
    pts = [seed_point(addr) for addr in splits]
    for addr, j in bridged:
        pts.extend(replacement_bridges(addr, j))
    leaf_points: dict[Address, tuple[Dyadic, ...]] = {}
    for addr, r in rounds.items():
        iv = interval_of(addr)
        bucket = [seed_point(addr)]
        for _ in range(r):
            bucket = _densify(iv, bucket)
        leaf_points[addr] = tuple(bucket)
        pts.extend(bucket)
    pts.sort()
    return EnumerationState(
        stage=s, points=tuple(pts), leaf_points=leaf_points, nets=nets
    )


def _densify(iv: DyInterval, pts: list[Dyadic]) -> list[Dyadic]:
    """One midpoint round over the sorted chain lo, p1, ..., pk, hi.

    The endpoints anchor the chain but are never emitted themselves; the
    emitted points still close up on the full interval since the largest
    gap halves every round.  Each midpoint goes between its two
    neighbours, so the output stays sorted.
    """
    chain = [iv.lo] + pts + [iv.hi]
    out = []
    for a, b in zip(chain, chain[1:]):
        out.append(midpoint(a, b))
        out.append(b)
    out.pop()  # the anchor hi
    return out


# ---------------------------------------------------------------------------
# Hausdorff certification
# ---------------------------------------------------------------------------

_CEIL_BITS = 80
_SEQ_CUTOFF = 60


def hausdorff_gap(state: EnumerationState, limit: SymbolicCompactum) -> Dyadic:
    """Exact dyadic upper bound on the Hausdorff distance to the limit set.

    Every point of the state must already belong to the limit set (that is
    what the enumerator guarantees); a stray point means the state and the
    limit came from different scripts and raises.  The returned bound is
    therefore the farthest any limit point can be from the emitted set,
    maximized per component, and it never increases as the stage grows.

    The query runs on one integer grid, the multiples of 1/(2D) with
    D = 2^E: E covers every exponent of the points and the limit, plus
    _SEQ_CUTOFF + 1 when the limit holds a sequence (so its members up to
    the cutoff are on the grid) and at least _CEIL_BITS - 1 when it holds
    a Cantor copy (so the net bound's rounding is too).  Points and
    endpoints are even there, so half gaps are ints.  A Dyadic is built
    only for the returned bound.
    """
    kinds = {end[0] for end in limit.ends}
    e = max(limit.exp, max((p.exp for p in state.points), default=0))
    if PointSeq in kinds:
        e += _SEQ_CUTOFF + 1
    if Cantor in kinds:
        e = max(e, _CEIL_BITS - 1)
    grid = Grid(limit, 2 << e)
    pts = sorted(p.num << (e + 1 - p.exp) for p in state.points)
    for x in pts:
        if not grid.contains(x):
            raise ValueError(
                f"state point {Dyadic(x, e + 1)} lies outside the limit set: "
                f"state and limit do not match"
            )
    if not limit.components:
        return ZERO
    net_levels = {
        (iv.lo, iv.hi): level for iv, level in state.nets.values()
    }
    one = grid.d
    bound = 0
    for comp, (kind, lo, hi, limit_at) in zip(limit.components, grid.comps):
        if kind is Point:
            d = _dist_to_points(lo, pts, one)
        elif kind is Interval:
            d = _interval_bound(lo, hi, pts, one)
        elif kind is Cantor:
            level = net_levels.get((comp.lo, comp.hi))
            if level is None:
                d = _span_bound(lo, hi, pts, one)
            else:
                # dyadic_ceil(span / 3^(level+1)) at _CEIL_BITS bits; that
                # is one bit once 3^k > 2^k > span, so k stops there
                span, shift = hi - lo, e + 1 - _CEIL_BITS
                k = min(level + 1, span.bit_length())
                d = -(-span // (3 ** k << shift)) << shift
        else:
            d = _seq_bound(lo, hi, limit_at, pts, one)
        if d > bound:
            bound = d
    return Dyadic(bound, e + 1)


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
    lines = [f"stage {state.stage}"]
    for p in state.points:
        lines.append(f"point {p}")
    for addr in sorted(state.nets):
        _, level = state.nets[addr]
        lines.append(f"net {format_address(addr)} level={level}")
    if gap is not None:
        lines.append(f"gap {gap}")
    return "\n".join(lines) + "\n"
