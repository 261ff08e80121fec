"""Differential test: the integer stage layer of `compacta.construct`
against the `Dyadic` midpoint rounds and the fresh replay it replaced.

A terminal leaf's closed-form bucket must equal r rounds of
`replay_stage._densify` for r = 0..12 on every terminal leaf of the
stratified scripts of `test_stage_grid`.  The replay a script keeps from
validation must still equal a fresh `replay_script` after the enumerator
and `limit_tree` have read it.  A state's `exp` and `nums` must equal a
`Fraction` scan of its points, for enumerator states and for hand-built
ones whose points come unsorted.  The one-walk enumerator must match the
reference enumerator up to stage 12 on a few stratified scripts.
"""

from __future__ import annotations

from replay_stage import _densify

from compacta.construct import (
    EnumerationState,
    _leaf_bucket,
    enumerate_stage,
    seed_point,
)
from compacta.dyadic import Dyadic, address_ends, interval_of
from compacta.trees import TERMINAL, limit_tree, replay_script
from test_stage_grid import stratified_scripts
from test_stage_replay import assert_same

D = Dyadic
ROUNDS = range(13)


def scan(points) -> tuple[int, tuple[int, ...]]:
    """The largest exponent of the points and their sorted values over
    2^exp, read through `Fraction`."""
    exp = max((p.exp for p in points), default=0)
    nums = sorted(p.as_fraction() * 2**exp for p in points)
    assert all(x.denominator == 1 for x in nums)
    return exp, tuple(int(x) for x in nums)


def test_leaf_bucket_matches_midpoint_rounds():
    leaves = {
        addr
        for script in stratified_scripts()
        for addr in limit_tree(script).leaves(TERMINAL)
    }
    assert len(leaves) > 20
    for addr in sorted(leaves):
        iv = interval_of(addr)
        bucket = [seed_point(addr)]
        for r in ROUNDS:
            x, ys = _leaf_bucket(*address_ends(addr), r)
            assert len(ys) == 2 ** (r + 1) - 1
            assert [p.num << (x - p.exp) for p in bucket] == ys
            bucket = _densify(iv, bucket)


def test_carried_replay_is_left_unchanged():
    for script in stratified_scripts():
        for s in range(9):
            enumerate_stage(script, s)
        limit_tree(script)
        assert script.replay == replay_script(script)


def test_enumerator_ints_match_a_scan():
    for script in stratified_scripts():
        for s in range(9):
            state = enumerate_stage(script, s)
            assert (state.exp, state.nums) == scan(state.points)
            assert list(state.points) == sorted(state.points)


def test_hand_built_ints_match_a_scan():
    for points in (
        (),
        (D(0),),
        (D(1, 0),),
        (D(3, 2), D(1, 3), D(1, 0), D(0), D(5, 7)),
        (D(29, 6), D(1, 1), D(1, 6)),
    ):
        state = EnumerationState(0, points)
        assert (state.exp, state.nums) == scan(points)
        assert state.points == points


def test_reference_enumerator_up_to_stage_twelve():
    for script in stratified_scripts()[::6]:
        assert_same(script, range(13))
