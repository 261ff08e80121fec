"""Finite labelled trees and their staged construction scripts.

A tree node is split, terminal, eta, or spine.  Split nodes carry the index
m of their final child pair and the number r of pair replacements that
happened on the way; the pair schedule forces m == r.  Children of a split
at address s are exactly s.(2m+1) and s.(2m+2); child index 0 is reserved
for the isolated point the construction drops into every once-terminal
node, so it never names a tree node.  Spine nodes are the structural
backbone of a fishbone sum and are exempt from the pairing rule: their
children are s.0 and s.1.

A script replays the approximation dynamics: fresh installs the first
potential child pair of a node, replace tombstones the current pair (with
its whole subtree) and installs the next one.  Tombstoned addresses never
come back, and no event may re-create a static node.  Leaves that survive
all events are assigned their limit label explicitly, because true
terminality is never visible in a finite prefix.

`replay_script` is the one walk over a script's events.  It runs once, at
validation, whose record (`ScriptState`) `StageScript.replay` keeps for
`limit_tree` and `construct.enumerate_stage` to read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .dyadic import (
    Address,
    format_address,
    parse_address,
    parse_natural,
    read_lines,
)

SPLIT = "split"
TERMINAL = "terminal"
ETA = "eta"
SPINE = "spine"

LEAF_KINDS = (TERMINAL, ETA)


@dataclass(frozen=True)
class Node:
    kind: str
    m: int = 0
    r: int = 0
    ever_terminal: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (SPLIT, TERMINAL, ETA, SPINE):
            raise ValueError(f"unknown node kind: {self.kind!r}")
        if self.kind == SPLIT:
            if self.m != self.r:
                raise ValueError(
                    f"split must have m == r (pairs are consumed in order), "
                    f"got m={self.m} r={self.r}"
                )
            if self.r < 0:
                raise ValueError("replacement count must be >= 0")


def split_children(addr: Address, m: int) -> tuple[Address, Address]:
    """Live pair of a split: odd index on the right, even on the left."""
    return addr + (2 * m + 1,), addr + (2 * m + 2,)


@dataclass(frozen=True)
class LabelledTree:
    nodes: Mapping[Address, Node]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", dict(self.nodes))
        _validate_tree(self.nodes)

    def node(self, addr: Address) -> Node:
        return self.nodes[addr]

    def children(self, addr: Address) -> list[Address]:
        depth = len(addr) + 1
        return sorted(
            a for a in self.nodes if len(a) == depth and a[:-1] == addr
        )

    def leaves(self, kind: str | None = None) -> list[Address]:
        out = []
        for addr, node in sorted(self.nodes.items()):
            if node.kind in LEAF_KINDS and (kind is None or node.kind == kind):
                out.append(addr)
        return out

    def splits(self) -> list[Address]:
        return sorted(a for a, n in self.nodes.items() if n.kind == SPLIT)


def _validate_tree(nodes: Mapping[Address, Node]) -> None:
    if () not in nodes:
        raise ValueError("tree has no root")
    by_parent: dict[Address, list[Address]] = {}
    for addr in nodes:
        if addr:
            if addr[:-1] not in nodes:
                raise ValueError(
                    f"tree not prefix-closed at {format_address(addr)}"
                )
            by_parent.setdefault(addr[:-1], []).append(addr)
    for addr, node in nodes.items():
        kids = sorted(by_parent.get(addr, []))
        if node.kind == SPLIT:
            expected = sorted(split_children(addr, node.m))
            if kids != expected:
                raise ValueError(
                    f"split at {format_address(addr)} must have children "
                    f"{[format_address(a) for a in expected]}"
                )
        elif node.kind in LEAF_KINDS:
            if kids:
                raise ValueError(
                    f"{node.kind} node at {format_address(addr)} must be a leaf"
                )
        else:  # spine
            expected = sorted([addr + (0,), addr + (1,)])
            if kids != expected:
                raise ValueError(
                    f"spine at {format_address(addr)} must have children "
                    f"{{s.0, s.1}}"
                )


def single_node_tree(kind: str) -> LabelledTree:
    return LabelledTree({(): Node(kind)})


def fishbone(components: list[LabelledTree]) -> LabelledTree:
    """Sum of trees along a spine: component i hangs at 0^i.1, the last at 0^(k-1)."""
    if not components:
        raise ValueError("fishbone needs at least one component")
    k = len(components)
    if k == 1:
        return components[0]
    nodes: dict[Address, Node] = {}
    for i in range(k - 1):
        spine_addr = (0,) * i
        nodes[spine_addr] = Node(SPINE)
        prefix = spine_addr + (1,)
        for rel, node in components[i].nodes.items():
            nodes[prefix + rel] = node
    prefix = (0,) * (k - 1)
    for rel, node in components[k - 1].nodes.items():
        nodes[prefix + rel] = node
    return LabelledTree(nodes)


# ---------------------------------------------------------------------------
# Scripts and stage dynamics
# ---------------------------------------------------------------------------

FRESH = "fresh"
REPLACE = "replace"


@dataclass(frozen=True)
class Event:
    kind: str
    addr: Address

    def __post_init__(self) -> None:
        if self.kind not in (FRESH, REPLACE):
            raise ValueError(f"unknown event kind: {self.kind!r}")


@dataclass(frozen=True)
class StageScript:
    """Static skeleton plus an ordered event list and limit labels.

    The skeleton lists only static nodes (terminal, eta, spine); nodes that
    events split into pairs are implied: the root, or a spine slot, when it
    is an event target and not declared static.  Splits never pre-exist,
    they only arise from events.  Validation replays the events once and
    keeps the record as `replay`, which is not a field, so == and repr read
    the fields alone.  `hash` raises `TypeError`: `skeleton` and
    `final_labels` are held as dicts.
    """

    skeleton: Mapping[Address, Node]
    events: tuple[Event, ...] = ()
    final_labels: Mapping[Address, str] = field(default_factory=dict)
    stop: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "skeleton", dict(self.skeleton))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "final_labels", dict(self.final_labels))
        for node in self.skeleton.values():
            if node.kind == SPLIT:
                raise ValueError(
                    "script skeletons may not contain split nodes; "
                    "splits arise from events only"
                )
        for label in self.final_labels.values():
            _leaf_label(label)
        if self.stop is not None and self.stop < 0:
            raise ValueError("stop horizon must be >= 0")
        object.__setattr__(self, "replay", replay_script(self))  # checks the rest


def _leaf_label(kind: str) -> str:
    if kind not in LEAF_KINDS:
        raise ValueError(f"final label must be terminal or eta: {kind!r}")
    return kind


@dataclass
class ScriptState:
    """The record of one replay.  `alive` maps each live node to its kind
    ("open" while events may split it; the replay's end resolves it to
    split or its label).  Event t happens at stage t >= 1; `born` is 0 for
    static nodes and for event targets that are the root or a static
    spine's slot, else the event that created the node.  `replacements`
    holds (t, target, j) for a target's j-th replacement.  Readers never
    change the fields.  The stage enumerator keeps its `schedule` here,
    set on first use; not being a field, it is left out of ==, repr and
    pickling."""

    alive: dict[Address, str]
    born: dict[Address, int]
    pairs: dict[Address, int]  # replacements so far at each split target
    replacements: list[tuple[int, Address, int]]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "schedule"}


def apply_event(state: ScriptState, event: Event, t: int, dead: set[Address]) -> None:
    """Replay the event of stage t; `dead` collects the tombstoned nodes.
    A target not yet seen is open from stage 0 when it is the root or a
    slot of a static spine."""
    addr = event.addr
    if addr in dead:
        raise ValueError(f"event at tombstoned node {format_address(addr)}")
    kind = state.alive.get(addr)
    if kind is None:
        if addr and not (
            state.alive.get(addr[:-1]) == SPINE and addr[-1] in (0, 1)
        ):
            raise ValueError(
                f"event target {format_address(addr)} neither exists "
                f"statically nor is created by an earlier event"
            )
        kind = state.alive[addr] = "open"
        state.born[addr] = 0
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
        if addr not in state.pairs:
            raise ValueError(
                f"replace at {format_address(addr)} with no live pair"
            )
        for child in split_children(addr, state.pairs[addr]):
            _tombstone(state, child, dead)
        state.pairs[addr] += 1
        state.replacements.append((t, addr, state.pairs[addr]))
    for child in split_children(addr, state.pairs[addr]):
        if child in state.alive:
            raise ValueError(
                f"{event.kind} event at {format_address(addr)} re-creates "
                f"static node {format_address(child)}"
            )
        state.alive[child] = "open"
        state.born[child] = t


def _tombstone(state: ScriptState, root: Address, dead: set[Address]) -> None:
    doomed = [a for a in state.alive if a[: len(root)] == root]
    for a in doomed:
        del state.alive[a]
        del state.born[a]
        dead.add(a)
        state.pairs.pop(a, None)


def _check_stage_zero(skeleton: Mapping[Address, Node], state: ScriptState) -> None:
    """The stage-0 tree, static nodes plus the targets opened at stage 0,
    is rooted and prefix-closed, hangs each static node but the root under
    a static spine, and fills both slots of every spine."""
    tree = set(skeleton).union(a for a, t in state.born.items() if not t)
    if () not in tree:
        raise ValueError("script has an empty stage-0 tree")
    spines = {a for a, node in skeleton.items() if node.kind == SPINE}
    for addr in tree:
        if addr and addr[:-1] not in tree:
            raise ValueError(
                f"stage-0 tree not prefix-closed at {format_address(addr)}"
            )
        if addr and addr in skeleton and addr[:-1] not in spines:
            raise ValueError(
                f"static node {format_address(addr)} is not under a static spine"
            )
    for addr in spines:
        if {a for a in tree if a and a[:-1] == addr} != {addr + (0,), addr + (1,)}:
            raise ValueError(
                f"spine at {format_address(addr)} needs both slots filled"
            )


def replay_script(script: StageScript) -> ScriptState:
    state = ScriptState(
        alive={a: n.kind for a, n in script.skeleton.items()},
        born=dict.fromkeys(script.skeleton, 0),
        pairs={},
        replacements=[],
    )
    dead: set[Address] = set()  # needed by the walk alone, so not kept
    for t, event in enumerate(script.events, 1):
        apply_event(state, event, t, dead)
    _check_stage_zero(script.skeleton, state)
    for addr in state.pairs:
        state.alive[addr] = SPLIT
    bare = {a for a, kind in state.alive.items() if kind == "open"}
    labelled = set(script.final_labels)
    if bare != labelled:
        missing = ", ".join(format_address(a) for a in sorted(bare - labelled))
        extra = ", ".join(format_address(a) for a in sorted(labelled - bare))
        raise ValueError(
            f"final labels must cover surviving bare leaves exactly"
            f"{'; missing: ' + missing if missing else ''}"
            f"{'; spurious: ' + extra if extra else ''}"
        )
    state.alive.update(script.final_labels)
    return state


def limit_tree(script: StageScript) -> LabelledTree:
    """Tree of never-tombstoned nodes with limit labels applied."""
    state = script.replay
    nodes: dict[Address, Node] = {}
    for addr, kind in state.alive.items():
        if kind == SPLIT:
            r = state.pairs[addr]
            nodes[addr] = Node(SPLIT, m=r, r=r, ever_terminal=True)
        else:
            nodes[addr] = Node(kind)
    return LabelledTree(nodes)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def print_tree(tree: LabelledTree) -> str:
    return "\n".join(_node_lines(tree.nodes)) + "\n"


def _node_lines(nodes: Mapping[Address, Node]) -> list[str]:
    lines = ["tree v1"]
    for addr, node in sorted(nodes.items()):
        text = node.kind
        if node.kind == SPLIT:
            text += f" m={node.m} r={node.r} et={int(node.ever_terminal)}"
        lines.append(f"node {format_address(addr)} {text}")
    return lines


def print_script(script: StageScript) -> str:
    lines = _node_lines(script.skeleton)
    for ev in script.events:
        lines.append(f"event {ev.kind} {format_address(ev.addr)}")
    for addr in sorted(script.final_labels):
        lines.append(f"label {format_address(addr)} {script.final_labels[addr]}")
    if script.stop is not None:
        lines.append(f"stop {script.stop}")
    return "\n".join(lines) + "\n"


def _node_line(addr: str, kind: str, **opts: str) -> tuple[Address, Node]:
    if kind != SPLIT:
        if opts:
            raise ValueError(f"{kind} node takes no options")
        return parse_address(addr), Node(kind)
    if not {"m", "r"} <= opts.keys() or opts.get("et", "1") not in ("0", "1"):
        raise ValueError("split needs m=, r= and at most et= of 0 or 1")
    m, r = parse_natural(opts["m"]), parse_natural(opts["r"])
    node = Node(SPLIT, m, r, opts.get("et") != "0")
    return parse_address(addr), node


_NODE = (2, _node_line, "m", "r", "et")  # the options are a split's


def parse_tree(text: str) -> LabelledTree:
    nodes: dict[Address, Node] = {}
    read_lines(text, "tree v1", {"node": _put_once(nodes, *_NODE)})
    return LabelledTree(nodes)


def parse_script(text: str) -> StageScript:
    skeleton: dict[Address, Node] = {}
    labels: dict[Address, str] = {}
    stop: list[int] = []

    def stop_line(n: str) -> None:
        if stop:
            raise ValueError("second stop line")
        stop.append(parse_natural(n))

    values = read_lines(text, "tree v1", {
        "node": _put_once(skeleton, *_NODE),
        "event": (2, lambda kind, addr: Event(kind, parse_address(addr))),
        "label": _put_once(
            labels, 2, lambda addr, kind: (parse_address(addr), _leaf_label(kind))
        ),
        "stop": (1, stop_line),
    })
    return StageScript(
        skeleton=skeleton,
        events=tuple(v for v in values if isinstance(v, Event)),
        final_labels=labels,
        stop=stop[0] if stop else None,
    )


def _put_once(table: dict, count: int, read: Callable, *names: str) -> tuple:
    """The line kind of read, filing its (address, value) in table; a second
    line for an address is an error, not a silent overwrite."""

    def put(*fields: str, **opts: str) -> None:
        addr, value = read(*fields, **opts)
        if addr in table:
            raise ValueError(f"address {format_address(addr)} given twice")
        table[addr] = value

    return count, put, *names
