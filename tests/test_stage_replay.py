"""Differential test: the one-walk replay behind `compacta.trees.limit_tree`
and `compacta.construct.enumerate_stage` against the reference kept in
`replay_stage`.

Both must give the same limit tree and the same `EnumerationState`
(points and Cantor nets) at stages 0..8 on the
stratified scripts of `test_stage_grid`, on 500 seeded `random_script`
draws, and on hypothesis-drawn scripts.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import replay_stage as ref
from compacta.construct import enumerate_stage
from compacta.randgen import random_script
from compacta.trees import limit_tree
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
