"""Seeded generators stay inside their advertised bounds and reproduce."""

import random

from compacta.boolalg import build_isomorphism, is_balanced
from compacta.construct import construct_limit
from compacta.randgen import (
    random_algebra_pair,
    random_balanced_algebra,
    random_script,
    random_small_pair,
    random_tree,
    redress,
    unbalance,
)
from compacta.trees import ETA, TERMINAL, limit_tree

import pytest


def test_random_trees_respect_bounds() -> None:
    saw_terminal = saw_eta = saw_replace = False
    for seed in range(200):
        t = random_tree(random.Random(seed))
        assert len(t.nodes) <= 40
        assert max(len(a) for a in t.nodes) <= 5
        for addr in t.splits():
            node = t.node(addr)
            assert node.r <= 3
            assert node.ever_terminal or node.r >= 1
            if node.r > 0:
                saw_replace = True
        saw_terminal = saw_terminal or bool(t.leaves(TERMINAL))
        saw_eta = saw_eta or bool(t.leaves(ETA))
    assert saw_terminal and saw_eta and saw_replace


def test_random_tree_deterministic() -> None:
    a = random_tree(random.Random(7))
    b = random_tree(random.Random(7))
    assert a.nodes == b.nodes


def test_random_trees_feed_construction() -> None:
    for seed in range(12):
        t = random_tree(random.Random(seed))
        s = construct_limit(t)
        assert s.components


def test_random_scripts_are_valid_and_bounded() -> None:
    saw_static = saw_replace = False
    for seed in range(150):
        sc = random_script(random.Random(seed))
        assert len(sc.events) <= 20
        if not sc.events:
            saw_static = True
        if any(ev.kind == "replace" for ev in sc.events):
            saw_replace = True
        lt = limit_tree(sc)
        assert lt.nodes
    assert saw_static and saw_replace


def test_random_script_deterministic() -> None:
    a = random_script(random.Random(13))
    b = random_script(random.Random(13))
    assert a == b


def test_random_script_limit_trees_have_junky_splits() -> None:
    for seed in range(40):
        lt = limit_tree(random_script(random.Random(seed)))
        for addr in lt.splits():
            assert lt.node(addr).ever_terminal


def test_random_balanced_algebras() -> None:
    for seed in range(150):
        b = random_balanced_algebra(random.Random(seed))
        assert is_balanced(b)
        assert 1 <= len(b.clusters) <= 6


def test_redress_pairs_build() -> None:
    for seed in range(120):
        rng = random.Random(seed)
        b0, b1 = random_algebra_pair(rng)
        assert is_balanced(b0) and is_balanced(b1)
        assert len(b1.clusters) <= 6
        iso = build_isomorphism(b0, b1)
        assert iso.atom_pairs is not None


def test_redress_deterministic() -> None:
    b0 = random_balanced_algebra(random.Random(3))
    a = redress(random.Random(5), b0)
    b = redress(random.Random(5), b0)
    assert a == b


def test_small_pairs_stay_small_and_build() -> None:
    for seed in range(80):
        b0, b1 = random_small_pair(random.Random(seed))
        for b in (b0, b1):
            assert b.total_in() is not None
            assert b.total_junk() is not None
            assert not b.has_atomless()
            total = b.total_in() + b.total_junk()
            assert total <= 10
        build_isomorphism(b0, b1)


def test_unbalance_is_rejected() -> None:
    for seed in range(60):
        rng = random.Random(seed)
        b0 = random_balanced_algebra(rng)
        bad = unbalance(rng, b0)
        assert not is_balanced(bad)
        with pytest.raises(ValueError):
            build_isomorphism(bad, bad)
