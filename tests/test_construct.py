"""Limit sets, junk placement, stage enumeration, and the Hausdorff bound.

Frozen positions, hand-computed from the interval layout:
  seed point of the root        = mid [0,1/4]           = 1/8
  seed point of node 1          = mid [13/16, 27/32]    = 53/64
  seed point of node 2          = mid [9/32, 19/64]     = 37/128
  seed point of node 3          = mid [43/64, 87/128]   = 173/256
  seed point of node 4          = mid [51/128, 103/256] = 205/512
  bridges of replacement 1 at the root:
    left  = mid(hi I_2 = 11/32, lo I_4 = 51/128) = 95/256
    right = mid(hi I_3 = 45/64, lo I_1 = 13/16)  = 97/128
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    canonical_form,
    cb_derivative,
    compactum,
    glue_classes,
)
from compacta import construct
from compacta.construct import (
    EnumerationState,
    construct_limit,
    enumerate_stage,
    seed_point,
    hausdorff_gap,
    junk_points,
    print_state,
    replacement_bridges,
)
from compacta.dyadic import Dyadic, ONE, ZERO, midpoint
from compacta.trees import (
    ETA,
    TERMINAL,
    Event,
    LabelledTree,
    Node,
    StageScript,
    fishbone,
    limit_tree,
    single_node_tree,
)
from test_dyadic import ends
from test_stage_grid import stratified_scripts

D = Dyadic


def split_tree(r: int, left: str = TERMINAL, right: str = TERMINAL) -> LabelledTree:
    return LabelledTree(
        {
            (): Node("split", m=r, r=r),
            (2 * r + 1,): Node(right),
            (2 * r + 2,): Node(left),
        }
    )


# --- junk placement ---------------------------------------------------------


def test_seed_point_frozen_values():
    assert seed_point(()) == D(1, 3)
    assert seed_point((1,)) == D(53, 6)
    assert seed_point((2,)) == D(37, 7)
    assert seed_point((3,)) == D(173, 8)
    assert seed_point((4,)) == D(205, 9)


def test_bridges_frozen_values():
    left, right = replacement_bridges((), 1)
    assert left == D(95, 8)
    assert right == D(97, 7)


def test_junk_count_is_et_plus_two_r():
    for r in range(4):
        for et in (True, False):
            pts = junk_points((), r, et)
            assert len(pts) == (1 if et else 0) + 2 * r
            assert len(set(pts)) == len(pts)


def test_junk_avoids_final_children_and_between_region():
    for r in range(4):
        left_lo, left_hi = ends((2 * r + 2,))
        right_lo, right_hi = ends((2 * r + 1,))
        for p in junk_points((), r, True):
            assert not (left_lo <= p <= left_hi)
            assert not (right_lo <= p <= right_hi)
            assert not (left_hi < p < right_lo)


# --- construct_limit --------------------------------------------------------


def test_single_terminal_fills_unit():
    s = construct_limit(single_node_tree(TERMINAL))
    assert s.components == (Interval(ZERO, ONE),)


def test_single_eta_is_cantor():
    s = construct_limit(single_node_tree(ETA))
    assert s.components == (Cantor(ZERO, ONE),)


def test_three_component_example():
    s = construct_limit(split_tree(0))
    assert s.components == (
        Point(D(1, 3)),
        Interval(D(9, 5), D(11, 5)),
        Interval(D(13, 4), D(15, 4)),
    )


def test_replaced_split_limit():
    s = construct_limit(split_tree(1))
    assert s.components == (
        Point(D(1, 3)),
        Point(D(95, 8)),
        Interval(D(51, 7), D(53, 7)),
        Interval(D(43, 6), D(45, 6)),
        Point(D(97, 7)),
    )


def test_fishbone_limit_unions_components():
    t = fishbone([single_node_tree(TERMINAL), single_node_tree(ETA)])
    s = construct_limit(t)
    i1 = ends((1,))
    i0 = ends((0,))
    assert s.components == (
        Interval(*i1),
        Cantor(*i0),
    ) or s.components == (
        Cantor(*i0),
        Interval(*i1),
    )


def test_construct_output_passes_property_in_and_is_stable():
    for t in [
        split_tree(2),
        fishbone([split_tree(1), single_node_tree(ETA), split_tree(0)]),
    ]:
        s = construct_limit(t)
        assert not any(kind is Interval and n for kind, n in glue_classes(s))
        d = cb_derivative(s)
        assert cb_derivative(d) == d
        assert not any("PointSeq" in type(c).__name__ for c in s.components)


def test_isolated_point_count_matches_split_parameters():
    t = fishbone([split_tree(1), split_tree(0, left=ETA)])
    s = construct_limit(t)
    isolated = sum(1 for c in s.components if isinstance(c, Point))
    expected = (1 + 2 * 1) + (1 + 2 * 0)
    assert isolated == expected


# --- enumerate_stage --------------------------------------------------------


def bare_terminal_script() -> StageScript:
    return StageScript(skeleton={(): Node(TERMINAL)})


def fresh_script() -> StageScript:
    return StageScript(
        skeleton={},
        events=(Event("fresh", ()),),
        final_labels={(1,): TERMINAL, (2,): TERMINAL},
    )


def replace_script() -> StageScript:
    return StageScript(
        skeleton={},
        events=(Event("fresh", ()), Event("replace", ())),
        final_labels={(3,): TERMINAL, (4,): TERMINAL},
    )


def test_stage_zero_bare_root():
    st0 = enumerate_stage(bare_terminal_script(), 0)
    assert st0.points == (D(1, 3),)


def test_fresh_children_emit_their_junk():
    st1 = enumerate_stage(fresh_script(), 1)
    assert st1.points == (D(1, 3), D(37, 7), D(53, 6))


def test_doomed_children_stay_silent():
    st1 = enumerate_stage(replace_script(), 1)
    assert st1.points == (D(1, 3),)


def test_replace_emits_bridges_and_new_children():
    st2 = enumerate_stage(replace_script(), 2)
    assert st2.points == (
        D(1, 3),
        D(95, 8),
        D(205, 9),
        D(173, 8),
        D(97, 7),
    )


def test_replace_stage_position_predicate():
    s1 = set(enumerate_stage(replace_script(), 1).points)
    s2 = set(enumerate_stage(replace_script(), 2).points)
    assert len(s2) > len(s1)
    new = s2 - s1
    left_child = (D(51, 7), D(53, 7))
    right_child = (D(43, 6), D(45, 6))
    for p in new:
        in_left = left_child[0] <= p <= left_child[1]
        in_right = right_child[0] <= p <= right_child[1]
        outside_left = p < left_child[0]
        outside_right = p > right_child[1]
        assert in_left or in_right or outside_left or outside_right
        assert not (left_child[1] < p < right_child[0])


def test_points_grow_monotonically():
    script = replace_script()
    prev: set = set()
    for s in range(10):
        cur = set(enumerate_stage(script, s).points)
        assert prev <= cur
        prev = cur


def test_eta_net_levels_advance():
    script = StageScript(skeleton={(): Node(ETA)})
    for s in range(4):
        st_ = enumerate_stage(script, s)
        assert st_.points == ()
        (net, level), = st_.nets.values()
        assert level == s
        assert net == Cantor(ZERO, ONE)


def test_hard_stop_enforced():
    script = StageScript(skeleton={(): Node(TERMINAL)}, stop=3)
    enumerate_stage(script, 3)
    with pytest.raises(ValueError):
        enumerate_stage(script, 4)


def test_stage_budget_counts_points_exactly(monkeypatch):
    """The closed-form count is the stage's point count: a budget of
    exactly that many builds the stage, one point less refuses it."""
    counts = [
        (script, s, len(enumerate_stage(script, s).points))
        for script in stratified_scripts()
        for s in (0, 4, 8)
    ]
    for script, s, n in counts:
        monkeypatch.setattr(construct, "MAX_POINTS", n - 1)
        with pytest.raises(ValueError) as exc:
            enumerate_stage(script, s)
        assert str(exc.value) == f"stage {s} needs {n} points, more than {n - 1}"
        monkeypatch.setattr(construct, "MAX_POINTS", n)
        assert len(enumerate_stage(script, s).points) == n


def test_stage_far_past_the_budget_is_refused_without_counting_up():
    with pytest.raises(ValueError, match=r"^stage 1000000000 needs over \d+ points"):
        enumerate_stage(bare_terminal_script(), 10**9)


def test_spine_slot_script():
    script = StageScript(
        skeleton={(): Node("spine"), (0,): Node(ETA)},
        events=(Event("fresh", (1,)),),
        final_labels={(1, 1): TERMINAL, (1, 2): TERMINAL},
    )
    st0 = enumerate_stage(script, 0)
    assert st0.points == (D(53, 6),)  # seed point of the opened slot at address 1
    assert len(st0.nets) == 1
    st1 = enumerate_stage(script, 1)
    assert len(st1.points) == 3


# --- hausdorff gap ----------------------------------------------------------


def test_gap_exact_hit_is_zero():
    state = EnumerationState(stage=0, points=(D(1, 3),))
    limit = compactum([Point(D(1, 3))])
    assert hausdorff_gap(state, limit) == ZERO


def test_gap_of_uniform_net():
    for k in (2, 4, 6):
        net = tuple(Dyadic(i, k) for i in range(2**k + 1))
        state = EnumerationState(stage=0, points=net)
        limit = compactum([Interval(ZERO, ONE)])
        assert hausdorff_gap(state, limit) <= Dyadic(1, k)


def test_gap_mismatch_raises():
    state = EnumerationState(stage=0, points=(D(1, 1),))
    limit = compactum([Point(D(1, 3))])
    with pytest.raises(ValueError):
        hausdorff_gap(state, limit)


def gap_profile(script: StageScript, upto: int) -> list:
    limit = construct_limit(limit_tree(script))
    return [hausdorff_gap(enumerate_stage(script, s), limit) for s in range(upto)]


def test_gap_monotone_and_converges_bare_terminal():
    gaps = gap_profile(bare_terminal_script(), 14)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= D(1, 6)


def test_gap_monotone_and_converges_eta():
    script = StageScript(skeleton={(): Node(ETA)})
    gaps = gap_profile(script, 6)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= D(1, 6)
    # level-3 net: bound is the dyadic round-up of (1/27)/3
    assert gaps[3].as_fraction() >= Fraction(1, 81)
    assert gaps[3].as_fraction() - Fraction(1, 81) < Fraction(1, 2**70)


def test_gap_converges_replace_script():
    gaps = gap_profile(replace_script(), 14)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= D(1, 6)


def test_gap_converges_three_component_example():
    gaps = gap_profile(fresh_script(), 14)
    assert gaps[-1] <= D(1, 6)


# --- dual identity spot check (same shape as the acceptance gate) ------------


def test_reduction_of_limit_matches_leaf_structure():
    from compacta.compactum import reduction

    t = fishbone([split_tree(1), single_node_tree(ETA), split_tree(0, left=ETA)])
    r = reduction(construct_limit(t))
    expected = []
    for addr, node in t.nodes.items():
        lo, hi = ends(addr)
        if node.kind == TERMINAL:
            expected.append(Point(midpoint(lo, hi)))
        elif node.kind == ETA:
            expected.append(Cantor(lo, hi))
    assert r == compactum(expected)
    assert canonical_form(r) == canonical_form(compactum(expected))


# --- state report ------------------------------------------------------------


def test_print_state_shape():
    script = StageScript(
        skeleton={(): Node("spine"), (0,): Node(ETA), (1,): Node(TERMINAL)}
    )
    st2 = enumerate_stage(script, 2)
    text = print_state(st2, gap=D(1, 4))
    lines = text.splitlines()
    assert lines[0] == "stage 2"
    assert any(ln.startswith("point ") for ln in lines)
    assert any(ln == "net 0 level=2" for ln in lines)
    assert lines[-1] == "gap 1/2^4"


# --- property: random small scripts converge ---------------------------------


@st.composite
def tiny_scripts(draw):
    n_events = draw(st.integers(min_value=1, max_value=4))
    events = [Event("fresh", ())]
    pair = 0
    for _ in range(n_events - 1):
        if draw(st.booleans()):
            pair += 1
            events.append(Event("replace", ()))
        else:
            break
    labels = {}
    for child in ((2 * pair + 1,), (2 * pair + 2,)):
        labels[child] = draw(st.sampled_from([TERMINAL, ETA]))
    return StageScript(skeleton={}, events=tuple(events), final_labels=labels)


@settings(max_examples=25, deadline=None)
@given(tiny_scripts())
def test_random_tiny_scripts_converge(script):
    limit = construct_limit(limit_tree(script))
    gaps = gap_profile(script, len(script.events) + 10)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= D(1, 6)
