"""Reference script replay and stage enumerator.

This is the earlier version of `compacta.trees.replay_script` and
`compacta.construct.enumerate_stage`: stage-0 open nodes come from a
walk over the events (`initial_open`), the replay walks them again, and
the enumerator walks them a third time, advancing its own copy of the
pair schedule and emitting each node as its event creates it, and it
densifies each terminal leaf one `Dyadic` midpoint round per stage
(`_densify`).  `test_stage_replay` checks that the one-walk replay in
`compacta`, with its closed-form integer leaf buckets, gives the same
`EnumerationState` and the same limit tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from compacta.construct import EnumerationState, replacement_bridges, seed_point
from compacta.dyadic import (
    Address,
    DyInterval,
    Dyadic,
    format_address,
    interval_of,
    midpoint,
)
from compacta.trees import (
    ETA,
    FRESH,
    REPLACE,
    SPINE,
    SPLIT,
    TERMINAL,
    Event,
    LabelledTree,
    Node,
    StageScript,
    split_children,
)


def initial_open(script: StageScript) -> set[Address]:
    """Event targets that exist at stage 0 without being event-created."""
    created: set[Address] = set()
    pair_index: dict[Address, int] = {}
    opens: set[Address] = set()
    for ev in script.events:
        if ev.addr not in created and ev.addr not in script.skeleton:
            opens.add(ev.addr)
        j = pair_index.get(ev.addr, 0)
        if ev.kind == REPLACE and ev.addr not in pair_index:
            continue  # replay_script reports this precisely
        created.update(split_children(ev.addr, j))
        pair_index[ev.addr] = j + 1
    return opens


@dataclass
class ScriptState:
    alive: dict[Address, str]  # kind or "open"
    pairs: dict[Address, int]  # replacements so far at each split target
    has_pair: set[Address]
    dead: set[Address]


def initial_state(script: StageScript) -> ScriptState:
    alive: dict[Address, str] = {a: n.kind for a, n in script.skeleton.items()}
    for addr in initial_open(script):
        parent_ok = addr == () or (
            script.skeleton.get(addr[:-1], Node(TERMINAL)).kind == SPINE
            and addr[-1] in (0, 1)
        )
        if not parent_ok:
            raise ValueError(
                f"event target {format_address(addr)} neither exists "
                f"statically nor is created by an earlier event"
            )
        alive[addr] = "open"
    state = ScriptState(alive=alive, pairs={}, has_pair=set(), dead=set())
    if () not in state.alive:
        raise ValueError("script has an empty stage-0 tree")
    for addr, kind in state.alive.items():
        if addr and addr[:-1] not in state.alive:
            raise ValueError(
                f"stage-0 tree not prefix-closed at {format_address(addr)}"
            )
        if kind == SPINE:
            kids = {
                a[-1]
                for a in state.alive
                if a[:-1] == addr and len(a) == len(addr) + 1
            }
            if kids != {0, 1}:
                raise ValueError(
                    f"spine at {format_address(addr)} needs both slots filled"
                )
    return state


def apply_event(state: ScriptState, event: Event) -> None:
    addr = event.addr
    if addr in state.dead:
        raise ValueError(f"event at tombstoned node {format_address(addr)}")
    kind = state.alive.get(addr)
    if kind is None:
        raise ValueError(f"event at unknown node {format_address(addr)}")
    if kind != "open":
        raise ValueError(
            f"event at {kind} node {format_address(addr)}; only nodes "
            f"opened for splitting accept events"
        )
    if event.kind == FRESH:
        if addr in state.pairs:
            raise ValueError(
                f"fresh pair at {format_address(addr)} which already had one"
            )
        state.pairs[addr] = 0
    else:
        if addr not in state.has_pair:
            raise ValueError(
                f"replace at {format_address(addr)} with no live pair"
            )
        for child in split_children(addr, state.pairs[addr]):
            _tombstone(state, child)
        state.pairs[addr] += 1
    for child in split_children(addr, state.pairs[addr]):
        state.alive[child] = "open"
    state.has_pair.add(addr)


def _tombstone(state: ScriptState, root: Address) -> None:
    doomed = [a for a in state.alive if a[: len(root)] == root]
    for a in doomed:
        del state.alive[a]
        state.dead.add(a)
        state.pairs.pop(a, None)
        state.has_pair.discard(a)


def replay_script(script: StageScript) -> ScriptState:
    state = initial_state(script)
    for event in script.events:
        apply_event(state, event)
    bare = {
        a
        for a, kind in state.alive.items()
        if kind == "open" and a not in state.has_pair
    }
    labelled = set(script.final_labels)
    if bare != labelled:
        missing = ", ".join(format_address(a) for a in sorted(bare - labelled))
        extra = ", ".join(format_address(a) for a in sorted(labelled - bare))
        raise ValueError(
            f"final labels must cover surviving bare leaves exactly"
            f"{'; missing: ' + missing if missing else ''}"
            f"{'; spurious: ' + extra if extra else ''}"
        )
    return state


def limit_tree(script: StageScript) -> LabelledTree:
    state = replay_script(script)
    nodes: dict[Address, Node] = {}
    for addr, kind in state.alive.items():
        if kind == "open":
            if addr in state.has_pair:
                r = state.pairs[addr]
                nodes[addr] = Node(SPLIT, m=r, r=r, ever_terminal=True)
            else:
                nodes[addr] = Node(script.final_labels[addr])
        else:
            nodes[addr] = Node(kind)
    return LabelledTree(nodes)


def enumerate_stage(script: StageScript, s: int) -> EnumerationState:
    if s < 0:
        raise ValueError("stage must be >= 0")
    if script.stop is not None and s > script.stop:
        raise ValueError(
            f"stage {s} exceeds the script's hard stop {script.stop}"
        )
    final = replay_script(script)
    survivors = set(final.alive)

    def role(addr: Address) -> str:
        kind = final.alive[addr]
        if kind != "open":
            return kind
        if addr in final.has_pair:
            return SPLIT
        return script.final_labels[addr]

    loose: list[Dyadic] = []  # junk points: node 0-slots and bridges
    leaves: dict[Address, list[Dyadic]] = {}
    leaf_created: dict[Address, int] = {}
    nets: dict[Address, int] = {}  # creation stage

    def emit_node(addr: Address, t: int) -> None:
        if addr not in survivors:
            return
        what = role(addr)
        if what == TERMINAL:
            leaves[addr] = [seed_point(addr)]
            leaf_created[addr] = t
        elif what == ETA:
            nets[addr] = t
        elif what == SPLIT:
            loose.append(seed_point(addr))

    initial = set(script.skeleton) | initial_open(script)
    for addr in sorted(initial):
        node = script.skeleton.get(addr)
        if node is None or node.kind != SPINE:
            emit_node(addr, 0)

    pair_index: dict[Address, int] = {}
    for t in range(1, s + 1):
        for addr, created in list(leaf_created.items()):
            if created < t:
                leaves[addr] = _densify(interval_of(addr), leaves[addr])
        if t <= len(script.events):
            ev = script.events[t - 1]
            if ev.kind == FRESH:
                pair_index[ev.addr] = 0
            else:
                j = pair_index[ev.addr] + 1
                pair_index[ev.addr] = j
                if ev.addr in survivors:
                    left, right = replacement_bridges(ev.addr, j)
                    loose.extend([left, right])
            for child in split_children(ev.addr, pair_index[ev.addr]):
                emit_node(child, t)

    pts: list[Dyadic] = sorted(loose)
    for bucket in leaves.values():
        pts.extend(bucket)
    pts.sort()
    return EnumerationState(
        stage=s,
        points=tuple(pts),
        nets={a: (interval_of(a), s - t0) for a, t0 in nets.items()},
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
