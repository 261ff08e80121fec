"""Differential test: the integer stage layer of `compacta.construct`
against the `Dyadic` midpoint rounds and the fresh replay it replaced.

A terminal leaf's closed-form bucket must equal r rounds of
`replay_stage._densify` for r = 0..12 on every terminal leaf of the
stratified scripts of `test_stage_grid`.  The replay a script keeps from
validation must still equal a fresh `replay_script` after the enumerator
and `limit_tree` have read it.  A state's `exp` and `nums` must equal a
`Fraction` scan of its points, for enumerator states and for hand-built
ones whose points come unsorted.  The one-walk enumerator must match the
reference enumerator up to stage 12 on a few stratified scripts.  An
enumerator state's `points` is a view over the ints: its length builds no
`Dyadic`, it equals the tuple of its elements, and `print_state` formats
the ints as `Dyadic` would.
"""

from __future__ import annotations

from dyadic_stage import address_ends
from replay_stage import _densify, interval

from compacta import construct
from compacta.construct import (
    EnumerationState,
    _bridges,
    _leaf_bucket,
    _seed,
    enumerate_stage,
    print_state,
)
from compacta.dyadic import Dyadic
from compacta.trees import TERMINAL, limit_tree, replay_script
from test_stage_grid import stratified_scripts
from test_stage_replay import assert_same
from test_stored_grid import nested_junk

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
        iv, node = interval(addr), address_ends(addr)
        bucket = [D(*_seed(node))]
        for r in ROUNDS:
            x, ys = _leaf_bucket(*node, r)
            assert len(ys) == 2 ** (r + 1) - 1
            assert [p.num << (x - p.exp) for p in bucket] == ys
            bucket = _densify(iv, bucket)


def test_junk_ints_carry_their_lowest_exponent():
    """A seed's numerator and a left bridge's are odd, so the exponent the
    enumerator takes from them is the one a `Dyadic` keeps, and the points
    are the midpoints the nested intervals give."""
    splits = {
        addr
        for script in stratified_scripts()
        for addr in limit_tree(script).splits()
    } | {()}
    assert len(splits) > 10
    for addr in sorted(splits):
        node = address_ends(addr)
        seed, *bridges = nested_junk(addr, 4, True)
        num, x = _seed(node)
        assert (num % 2, D(num, x)) == (1, seed)
        for j in range(1, 5):
            left, right, x = _bridges(node, j)
            assert left % 2 == 1
            assert [D(left, x), D(right, x)] == bridges[2 * j - 2 : 2 * j]


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


def test_points_view_length_builds_no_dyadic(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Dyadic(*args)

    monkeypatch.setattr(construct, "Dyadic", counting)
    for script in stratified_scripts()[::4]:
        state = enumerate_stage(script, 6)
        # none per point: only the two ends of each eta net's Cantor copy
        assert len(built) == 2 * len(state.nets)
        built.clear()
        assert len(state.points) == len(state.nums)
        print_state(state)
        assert built == []
    state.points[-1]
    assert len(built) == 1


def test_points_view_equals_its_tuple():
    for script in stratified_scripts()[::2]:
        for s in (0, 3, 6):
            state = enumerate_stage(script, s)
            points = tuple(state.points)
            assert state.points == points
            assert points == state.points
            assert state.points[1:3] == points[1:3]
            assert state.points != points + (D(1, 1),)
            assert repr(state.points) == repr(points)


def test_print_state_formats_like_dyadic():
    for script in stratified_scripts():
        for s in range(9):
            state = enumerate_stage(script, s)
            want = [f"point {Dyadic(x, state.exp)}" for x in state.nums]
            lines = print_state(state).splitlines()
            assert lines[0] == f"stage {s}"
            assert lines[1 : len(want) + 1] == want
