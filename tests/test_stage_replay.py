"""Differential test: the one-walk replay behind `compacta.trees.limit_tree`
and `compacta.construct.enumerate_stage` against the reference kept in
`replay_stage`.

Both must give the same limit tree and the same `EnumerationState`
(points and Cantor nets) at stages 0..8 on the
stratified scripts of `test_stage_grid`, on 500 seeded `random_script`
draws, and on hypothesis-drawn scripts.  The schedule a script's replay
keeps from its first stage must not show: stages asked out of order, or
of two scripts in turn, match the reference; the script and its replay
keep their ==, hash, repr and pickle; each call gets its own nets; and
the schedule costs one interval step per alive node, once.
"""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import replay_stage as ref
from compacta import dyadic
from compacta.construct import enumerate_stage
from compacta.randgen import random_script
from compacta.trees import ETA, StageScript, limit_tree, replay_script
from test_acceptance import SUITE_SEED
from test_stage_grid import stratified_scripts
from test_trees import random_scripts

STAGES = range(9)


def assert_same(script, stages=STAGES) -> None:
    assert limit_tree(script).nodes == ref.limit_tree(script).nodes
    for s in stages:
        assert enumerate_stage(script, s) == ref.enumerate_stage(script, s)


def test_stratified_scripts_match_reference():
    for script in stratified_scripts():
        assert_same(script)


def test_seeded_scripts_match_reference():
    rng = random.Random(SUITE_SEED + 5)
    for _ in range(500):
        assert_same(random_script(rng))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_drawn_random_scripts_match_reference(rng):
    assert_same(random_script(rng))


@settings(max_examples=60, deadline=None)
@given(random_scripts())
def test_drawn_event_lists_match_reference(script):
    assert_same(script)


def test_stages_out_of_order_match_reference():
    for script in stratified_scripts():
        for s in (5, 0, 3, 5):
            assert enumerate_stage(script, s) == ref.enumerate_stage(script, s)


def test_two_scripts_in_turn_match_reference():
    scripts = stratified_scripts()
    for a, b in zip(scripts[::2], scripts[1::2]):
        for s in STAGES:
            for script in (a, b, a):
                assert enumerate_stage(script, s) == ref.enumerate_stage(script, s)


def _hash(x: object) -> int | str:
    """hash(x), or the error that says x has none."""
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def _faces(script: StageScript) -> tuple:
    replay = script.replay
    return tuple(f(x) for x in (script, replay) for f in (_hash, repr, pickle.dumps))


def test_enumeration_leaves_script_and_replay_unchanged():
    for script in stratified_scripts()[::3]:
        twin = StageScript(
            script.skeleton, script.events, script.final_labels, script.stop
        )
        before = _faces(script)
        for s in (4, 1):
            enumerate_stage(script, s)
        assert _faces(script) == before == _faces(twin)
        assert script == twin
        assert script.replay == twin.replay == replay_script(script)
        assert pickle.loads(pickle.dumps(script)) == script


def test_each_call_gets_its_own_nets():
    scripts = [sc for sc in stratified_scripts() if limit_tree(sc).leaves(ETA)]
    assert len(scripts) > 5
    for script in scripts:
        s = len(script.events)  # every node is born by then
        first = enumerate_stage(script, s)
        assert first.nets
        first.nets.clear()
        again = enumerate_stage(script, s)
        assert again.nets and again.nets is not first.nets
        assert again == ref.enumerate_stage(script, s)


def test_schedule_walks_each_alive_node_once(monkeypatch):
    steps = []
    child = dyadic._child

    def counting(*args):
        steps.append(args)
        return child(*args)

    scripts = stratified_scripts()
    monkeypatch.setattr(dyadic, "_child", counting)
    walked = 0
    for script in scripts:
        enumerate_stage(script, 3)
        assert len(steps) <= len(script.replay.alive)
        walked += len(steps)
        steps.clear()
        for s in (3, 0, 8):
            enumerate_stage(script, s)
        assert steps == []
    assert walked > len(scripts)
