"""Tree validation, fishbone sums, and script replay."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from compacta.trees import (
    ETA,
    SPINE,
    SPLIT,
    TERMINAL,
    Event,
    LabelledTree,
    Node,
    StageScript,
    fishbone,
    limit_tree,
    parse_script,
    parse_tree,
    print_script,
    print_tree,
    single_node_tree,
    split_children,
)


def split_node(r: int = 0) -> Node:
    return Node(SPLIT, m=r, r=r)


def basic_split_tree() -> LabelledTree:
    return LabelledTree(
        {
            (): split_node(0),
            (1,): Node(TERMINAL),
            (2,): Node(ETA),
        }
    )


# --- structural validation ----------------------------------------------------


def test_single_nodes_validate():
    for kind in (TERMINAL, ETA):
        t = single_node_tree(kind)
        assert t.node(()).kind == kind
        assert t.leaves() == [()]


def test_split_children_schedule():
    assert split_children((), 0) == ((1,), (2,))
    assert split_children((), 1) == ((3,), (4,))
    assert split_children((1,), 2) == ((1, 5), (1, 6))


def test_split_requires_exact_pair():
    with pytest.raises(ValueError):
        LabelledTree({(): split_node(0), (1,): Node(TERMINAL)})
    with pytest.raises(ValueError):
        LabelledTree(
            {
                (): split_node(0),
                (1,): Node(TERMINAL),
                (2,): Node(TERMINAL),
                (3,): Node(TERMINAL),
            }
        )


def test_replaced_split_uses_later_pair():
    t = LabelledTree(
        {
            (): split_node(2),
            (5,): Node(TERMINAL),
            (6,): Node(ETA),
        }
    )
    assert t.children(()) == [(5,), (6,)]


def test_split_m_must_equal_r():
    with pytest.raises(ValueError):
        Node(SPLIT, m=1, r=0)


def test_leaves_must_be_childless():
    with pytest.raises(ValueError):
        LabelledTree({(): Node(TERMINAL), (1,): Node(TERMINAL), (2,): Node(TERMINAL)})


def test_prefix_closure_required():
    with pytest.raises(ValueError):
        LabelledTree({(): Node(SPINE), (0,): Node(TERMINAL), (1, 1): Node(TERMINAL)})


def test_tree_needs_root():
    with pytest.raises(ValueError):
        LabelledTree({(1,): Node(TERMINAL)})


def test_spine_needs_both_slots():
    with pytest.raises(ValueError):
        LabelledTree({(): Node(SPINE), (0,): Node(TERMINAL)})


# --- fishbone ------------------------------------------------------------------


def test_fishbone_single_component_is_identity():
    t = basic_split_tree()
    assert fishbone([t]).nodes == t.nodes


def test_fishbone_two_components():
    t = fishbone([single_node_tree(TERMINAL), single_node_tree(ETA)])
    assert t.node(()).kind == SPINE
    assert t.node((1,)).kind == TERMINAL  # first component hangs off the spine
    assert t.node((0,)).kind == ETA  # last component continues straight down


def test_fishbone_three_components():
    t = fishbone(
        [single_node_tree(TERMINAL), basic_split_tree(), single_node_tree(ETA)]
    )
    assert t.node(()).kind == SPINE
    assert t.node((0,)).kind == SPINE
    assert t.node((1,)).kind == TERMINAL
    assert t.node((0, 1)).kind == SPLIT
    assert t.node((0, 1, 1)).kind == TERMINAL
    assert t.node((0, 1, 2)).kind == ETA
    assert t.node((0, 0)).kind == ETA


def test_fishbone_rejects_empty():
    with pytest.raises(ValueError):
        fishbone([])


# --- scripts -------------------------------------------------------------------


def test_static_script_replays_to_skeleton():
    s = StageScript(skeleton={(): Node(ETA)})
    t = limit_tree(s)
    assert t.nodes == {(): Node(ETA)}


def test_fresh_pair_installs_first_children():
    s = StageScript(
        skeleton={},
        events=(Event("fresh", ()),),
        final_labels={(1,): TERMINAL, (2,): ETA},
    )
    t = limit_tree(s)
    assert t.node(()) == Node(SPLIT, m=0, r=0)
    assert t.node((1,)).kind == TERMINAL
    assert t.node((2,)).kind == ETA


def test_replace_moves_to_next_pair_and_tombstones():
    s = StageScript(
        skeleton={},
        events=(
            Event("fresh", ()),
            Event("fresh", (1,)),  # grows a subtree that then dies
            Event("replace", ()),
        ),
        final_labels={(3,): TERMINAL, (4,): TERMINAL},
    )
    t = limit_tree(s)
    assert t.node(()) == Node(SPLIT, m=1, r=1)
    assert sorted(t.nodes) == [(), (3,), (4,)]


def test_double_replace():
    s = StageScript(
        skeleton={},
        events=(Event("fresh", ()), Event("replace", ()), Event("replace", ())),
        final_labels={(5,): ETA, (6,): TERMINAL},
    )
    t = limit_tree(s)
    assert t.node(()) == Node(SPLIT, m=2, r=2)
    assert t.children(()) == [(5,), (6,)]


def test_nested_events():
    s = StageScript(
        skeleton={},
        events=(Event("fresh", ()), Event("fresh", (2,))),
        final_labels={(1,): TERMINAL, (2, 1): ETA, (2, 2): TERMINAL},
    )
    t = limit_tree(s)
    assert t.node((2,)) == Node(SPLIT, m=0, r=0)
    assert t.node((2, 1)).kind == ETA


def test_events_on_spine_slots():
    s = StageScript(
        skeleton={(): Node(SPINE), (0,): Node(ETA)},
        events=(Event("fresh", (1,)),),
        final_labels={(1, 1): TERMINAL, (1, 2): TERMINAL},
    )
    t = limit_tree(s)
    assert t.node(()).kind == SPINE
    assert t.node((1,)).kind == SPLIT
    assert t.node((0,)).kind == ETA


def test_replace_without_pair_rejected():
    with pytest.raises(ValueError):
        StageScript(skeleton={}, events=(Event("replace", ()),))


def test_second_fresh_rejected():
    with pytest.raises(ValueError):
        StageScript(
            skeleton={},
            events=(Event("fresh", ()), Event("fresh", ())),
            final_labels={(1,): TERMINAL, (2,): TERMINAL},
        )


def test_event_on_tombstoned_node_rejected():
    with pytest.raises(ValueError):
        StageScript(
            skeleton={},
            events=(Event("fresh", ()), Event("replace", ()), Event("fresh", (1,))),
            final_labels={(3,): TERMINAL, (4,): TERMINAL},
        )


def test_event_on_static_leaf_rejected():
    with pytest.raises(ValueError):
        StageScript(skeleton={(): Node(TERMINAL)}, events=(Event("fresh", ()),))


def test_event_recreating_static_node_rejected():
    text = "tree v1\nnode 1 eta\nevent fresh -\nlabel 1 terminal\nlabel 2 terminal\n"
    with pytest.raises(ValueError, match="fresh event at - re-creates static node 1$"):
        parse_script(text)


def test_event_on_uncreated_child_rejected():
    with pytest.raises(ValueError):
        StageScript(
            skeleton={},
            events=(Event("fresh", (1,)),),
            final_labels={(1, 1): TERMINAL, (1, 2): TERMINAL},
        )


def test_labels_must_cover_survivors_exactly():
    with pytest.raises(ValueError):
        StageScript(skeleton={}, events=(Event("fresh", ()),), final_labels={})
    with pytest.raises(ValueError):
        StageScript(
            skeleton={},
            events=(Event("fresh", ()),),
            final_labels={(1,): TERMINAL, (2,): ETA, (3,): ETA},
        )


def test_skeleton_split_rejected():
    with pytest.raises(ValueError):
        StageScript(skeleton={(): split_node(0)})


# --- text format ----------------------------------------------------------------


def test_tree_print_parse_roundtrip():
    t = fishbone([basic_split_tree(), single_node_tree(ETA)])
    text = print_tree(t)
    assert text.startswith("tree v1\n")
    assert parse_tree(text).nodes == t.nodes


def test_tree_text_is_sorted_and_stable():
    t = basic_split_tree()
    text = print_tree(t)
    assert text == "tree v1\nnode - split m=0 r=0 et=1\nnode 1 terminal\nnode 2 eta\n"


def test_script_print_parse_roundtrip():
    s = StageScript(
        skeleton={(): Node(SPINE), (0,): Node(ETA)},
        events=(Event("fresh", (1,)), Event("replace", (1,))),
        final_labels={(1, 3): TERMINAL, (1, 4): ETA},
        stop=7,
    )
    text = print_script(s)
    s2 = parse_script(text)
    assert s2.skeleton == s.skeleton
    assert s2.events == s.events
    assert s2.final_labels == s.final_labels
    assert s2.stop == 7
    assert print_script(s2) == text


def test_parse_tree_rejects_script_lines():
    with pytest.raises(ValueError):
        parse_tree("tree v1\nnode - terminal\nevent fresh -\n")


def test_parse_requires_header():
    with pytest.raises(ValueError):
        parse_tree("node - terminal\n")


# --- property: random scripts always replay to valid trees ----------------------


@st.composite
def random_scripts(draw):
    events: list[Event] = []
    labels: dict[tuple[int, ...], str] = {}
    frontier: list[tuple[int, ...]] = [()]
    pair: dict[tuple[int, ...], int] = {}
    n_ops = draw(st.integers(min_value=1, max_value=12))
    for _ in range(n_ops):
        if not frontier:
            break
        idx = draw(st.integers(min_value=0, max_value=len(frontier) - 1))
        target = frontier[idx]
        if target in pair and draw(st.booleans()):
            old = split_children(target, pair[target])
            frontier = [
                a for a in frontier if a[: len(old[0])] not in (old[0], old[1])
            ]
            pair[target] += 1
            events.append(Event("replace", target))
        elif target not in pair:
            pair[target] = 0
            events.append(Event("fresh", target))
        else:
            continue
        frontier.extend(split_children(target, pair[target]))
    for addr in frontier:
        if addr not in pair:
            labels[addr] = draw(st.sampled_from([TERMINAL, ETA]))
    return StageScript(skeleton={} if events else {(): Node(TERMINAL)},
                       events=tuple(events), final_labels=labels)


@given(random_scripts())
def test_random_scripts_yield_valid_trees(script):
    t = limit_tree(script)
    # every event target survives as a split whose r counts its replacements
    replaced: dict[tuple[int, ...], int] = {}
    for ev in script.events:
        if ev.kind == "replace":
            replaced[ev.addr] = replaced.get(ev.addr, 0) + 1
    for addr, node in t.nodes.items():
        if node.kind == SPLIT:
            assert node.r == replaced.get(addr, 0)
    assert parse_tree(print_tree(t)).nodes == t.nodes
