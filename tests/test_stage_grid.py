"""Differential test: the integer-grid `hausdorff_gap` in
`compacta.construct` against the `Dyadic` reference kept in
`dyadic_stage`.

Both must return the same `Dyadic` on seeded scripts stratified by their
terminal-leaf count at stages 0..8, on hypothesis-drawn scripts, and on
hand-built limits with sequences, glued components, components no point
reaches, no components at all, and states with no points.  A state
paired with a limit it does not lie in must raise the same error.  An
enumerator state is checked per source (a junk point, or a terminal
leaf's hull inside one interval); a source that fails that check falls
back to the per-point test, which must still agree with the reference.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadic_stage as ref
from compacta.compactum import Cantor, Interval, Point, PointSeq, compactum
from compacta.construct import (
    EnumerationState,
    construct_limit,
    enumerate_stage,
    hausdorff_gap,
    print_state,
)
from compacta.dyadic import Dyadic, dyadic_ceil
from compacta.randgen import random_script
from compacta.trees import (
    ETA,
    TERMINAL,
    StageScript,
    limit_tree,
    single_node_tree,
)
from test_acceptance import SUITE_SEED

D = Dyadic
STAGES = range(9)
# Scripts per terminal-leaf count 0..5; the last band holds 5 or more.
PER_BAND = 6
BANDS = 6


def _terminal_leaves(script) -> int:
    static = sum(1 for n in script.skeleton.values() if n.kind == TERMINAL)
    return static + sum(1 for k in script.final_labels.values() if k == TERMINAL)


def stratified_scripts() -> list:
    """Seeded random_script draws, PER_BAND of each terminal-leaf count:
    the leaves set how many points a stage holds."""
    rng = random.Random(SUITE_SEED + 3)
    kept: list[list] = [[] for _ in range(BANDS)]
    while any(len(band) < PER_BAND for band in kept):
        script = random_script(rng)
        band = kept[min(_terminal_leaves(script), BANDS - 1)]
        if len(band) < PER_BAND:
            band.append(script)
    return [script for band in kept for script in band]


def assert_same(state: EnumerationState, limit) -> None:
    """Equal bounds, or the same ValueError from both."""
    try:
        want = ref.hausdorff_gap(state, limit)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            hausdorff_gap(state, limit)
        assert str(got.value) == str(exc)
        return
    got = hausdorff_gap(state, limit)
    assert (got.num, got.exp) == (want.num, want.exp)


def test_stratified_scripts_match_reference():
    for script in stratified_scripts():
        limit = construct_limit(limit_tree(script))
        for s in STAGES:
            state = enumerate_stage(script, s)
            want = ref.hausdorff_gap(state, limit)
            got = hausdorff_gap(state, limit)
            assert (got.num, got.exp) == (want.num, want.exp)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 7))
def test_drawn_scripts_match_reference(rng, s):
    script = random_script(rng)
    limit = construct_limit(limit_tree(script))
    assert_same(enumerate_stage(script, s), limit)


def test_wrong_limit_raises_like_reference():
    scripts = stratified_scripts()
    raised = 0
    for script, other in zip(scripts, scripts[1:] + scripts[:1]):
        limit = construct_limit(limit_tree(other))
        for s in (0, 3):
            state = enumerate_stage(script, s)
            try:
                ref.hausdorff_gap(state, limit)
            except ValueError:
                raised += 1
            assert_same(state, limit)
    assert raised > len(scripts)


def _leaf_states() -> list[EnumerationState]:
    """Enumerator states with a terminal leaf past its first round, so a
    source is a hull of more than one point."""
    states = [
        enumerate_stage(script, s)
        for script in stratified_scripts()[::3]
        for s in (1, 2)
    ]
    return [st for st in states if any(lo < hi for lo, hi in st.sources)]


def test_points_only_limit_fails_the_hull_check_but_holds_every_point():
    """A limit of `Point`s at exactly the state's points has no interval
    for a bucket's hull, yet no point is stray: the per-point fallback
    passes and the bound is the reference's (zero)."""
    states = _leaf_states()
    assert len(states) > 5
    for state in states:
        limit = compactum([Point(p) for p in state.points])
        assert_same(state, limit)
        assert hausdorff_gap(state, limit) == D(0)


def test_strays_in_two_sources_name_the_smallest():
    """Drop the points of two sources from a points-only limit: both
    sources fail, and the message names the smallest dropped point, as
    the reference does."""
    checked = 0
    for state in _leaf_states():
        if len(state.sources) < 3:
            continue
        e = state.exp
        for gone in (state.sources[:2], state.sources[-2:], state.sources[::2][:2]):
            dropped = {x for x in state.nums if any(lo <= x <= hi for lo, hi in gone)}
            limit = compactum(
                [Point(D(x, e)) for x in state.nums if x not in dropped]
            )
            assert_same(state, limit)
            with pytest.raises(ValueError) as exc:
                hausdorff_gap(state, limit)
            assert str(exc.value).startswith(
                f"state point {D(min(dropped), e)} lies outside the limit set"
            )
            checked += 1
    assert checked > 10


# Hand-built limits: (components, points of the limit that states may hold).
SEQ_HI = PointSeq(D(3, 2), D(1, 2), D(3, 2))  # limit 3/4, members below it
HAND = [
    # an interval alone: with its two ends held, an inner half gap is the
    # bound, and with no points it is the span fallback's
    ([Interval(D(1, 2), D(3, 2))], [D(1, 2), D(3, 2), D(1, 1)]),
    ([SEQ_HI], [D(3, 2), D(1, 1), D(5, 3), D(23, 5)]),
    ([PointSeq(D(1, 3), D(1, 3), D(1, 1))], [D(1, 3), D(5, 4), D(1, 1)]),
    (  # sequences glued to both ends of an interval
        [
            PointSeq(D(1, 1), D(1, 2), D(1, 1)),
            Interval(D(1, 1), D(3, 2)),
            PointSeq(D(3, 2), D(3, 2), D(1, 0)),
        ],
        [D(3, 3), D(1, 1), D(5, 3), D(11, 4), D(3, 2), D(7, 3)],
    ),
    (  # a sequence glued to a Cantor copy, plus a lone point
        [
            Point(D(1, 4)),
            PointSeq(D(1, 1), D(3, 3), D(1, 1)),
            Cantor(D(1, 1), D(1, 0)),
        ],
        [D(1, 4), D(7, 4), D(1, 1), D(5, 3), D(1, 0)],
    ),
    (  # components that no point reaches
        [
            Point(D(1, 5)),
            Interval(D(1, 3), D(3, 3)),
            Cantor(D(13, 4), D(15, 4)),
            Interval(D(31, 5), D(1, 0)),
        ],
        [D(1, 5), D(1, 3), D(31, 5)],
    ),
]


@pytest.mark.parametrize("comps,points", HAND)
def test_hand_built_limits_match_reference(comps, points):
    limit = compactum(comps)
    nets = {(k,): (c, k) for k, c in enumerate(comps) if isinstance(c, Cantor)}
    for n in range(len(points) + 1):
        for state_nets in ({}, nets):
            for held in (points[:n], points[len(points) - n :]):
                assert_same(EnumerationState(0, tuple(held), state_nets), limit)
    # 1/64 lies off every limit here; 29/64 lies off most, inside some hulls
    for stray in (D(1, 6), D(29, 6)):
        assert_same(EnumerationState(0, tuple(points) + (stray,)), limit)
    with pytest.raises(ValueError):
        hausdorff_gap(EnumerationState(0, tuple(points) + (D(1, 6),)), limit)


def test_no_components():
    empty = compactum([])
    assert_same(EnumerationState(0, ()), empty)
    assert hausdorff_gap(EnumerationState(0, ()), empty) == D(0)
    with pytest.raises(ValueError):
        hausdorff_gap(EnumerationState(0, (D(1, 1),)), empty)


@pytest.mark.parametrize(
    "lo, hi", [(D(0), D(1)), (D(1, 2), D(3, 2)), (D(3, 7), D(5, 7)), (D(0), D(1, 79))]
)
def test_capped_net_bound_matches_uncapped(lo, hi):
    """An eta net's bound raises 3 to min(level + 1, b), with b the bit
    length of the span on the query grid (2^-80 apart for these copies).
    At levels b - 2 .. b + 2 it equals the uncapped formula,
    dyadic_ceil(span / 3^(level+1)) at 80 bits."""
    limit = compactum([Cantor(lo, hi)])
    span = (hi - lo).as_fraction()
    bits = (span * 2**80).numerator.bit_length()
    for level in range(bits - 2, bits + 3):
        state = EnumerationState(0, (), {(): (Cantor(lo, hi), level)})
        uncapped = dyadic_ceil(span / 3 ** (level + 1), 80)
        assert hausdorff_gap(state, limit) == uncapped


def test_far_eta_stage_keeps_its_gap():
    """An eta net at stage 16,000,000 still bounds the gap by one unit of
    2^-80, now without building 3^16000001."""
    script = StageScript(single_node_tree(ETA).nodes)
    state = enumerate_stage(script, 16_000_000)
    gap = hausdorff_gap(state, construct_limit(limit_tree(script)))
    assert print_state(state, gap).splitlines() == [
        "stage 16000000",
        "net - level=16000000",
        "gap 1/2^80",
    ]
