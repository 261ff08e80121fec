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
come back.  Leaves that survive all events are assigned their limit label
explicitly, because true terminality is never visible in a finite prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .dyadic import Address, format_address, parse_address, parse_field

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
    they only arise from events.
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
            if label not in LEAF_KINDS:
                raise ValueError(f"final label must be terminal or eta: {label!r}")
        if self.stop is not None and self.stop < 0:
            raise ValueError("stop horizon must be >= 0")
        replay_script(self)  # validates everything else

    def initial_open(self) -> set[Address]:
        """Event targets that exist at stage 0 without being event-created."""
        created: set[Address] = set()
        pair_index: dict[Address, int] = {}
        opens: set[Address] = set()
        for ev in self.events:
            if ev.addr not in created and ev.addr not in self.skeleton:
                opens.add(ev.addr)
            j = pair_index.get(ev.addr, 0)
            if ev.kind == REPLACE and ev.addr not in pair_index:
                continue  # replay_script reports this precisely
            created.update(split_children(ev.addr, j))
            pair_index[ev.addr] = j + 1
        return opens


@dataclass
class ScriptState:
    """Mutable replay state: who is alive, who is open, current pairs."""

    alive: dict[Address, str]  # kind or "open"
    pairs: dict[Address, int]  # replacements so far at each split target
    has_pair: set[Address]
    dead: set[Address]


def initial_state(script: StageScript) -> ScriptState:
    alive: dict[Address, str] = {a: n.kind for a, n in script.skeleton.items()}
    for addr in script.initial_open():
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
            kids = {a[-1] for a in state.alive if a[:-1] == addr and len(a) == len(addr) + 1}
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
    if kind not in ("open",):
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
        old = split_children(addr, state.pairs[addr])
        for child in old:
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
    """Tree of never-tombstoned nodes with limit labels applied."""
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


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def print_tree(tree: LabelledTree) -> str:
    lines = ["tree v1"]
    for addr in sorted(tree.nodes):
        lines.append(f"node {format_address(addr)} {_node_text(tree.nodes[addr])}")
    return "\n".join(lines) + "\n"


def _node_text(node: Node) -> str:
    if node.kind == SPLIT:
        et = 1 if node.ever_terminal else 0
        return f"split m={node.m} r={node.r} et={et}"
    return node.kind


def print_script(script: StageScript) -> str:
    lines = ["tree v1"]
    for addr in sorted(script.skeleton):
        lines.append(
            f"node {format_address(addr)} {_node_text(script.skeleton[addr])}"
        )
    for ev in script.events:
        lines.append(f"event {ev.kind} {format_address(ev.addr)}")
    for addr in sorted(script.final_labels):
        lines.append(f"label {format_address(addr)} {script.final_labels[addr]}")
    if script.stop is not None:
        lines.append(f"stop {script.stop}")
    return "\n".join(lines) + "\n"


def _parse_node_line(line: str, rest: list[str]) -> tuple[Address, Node]:
    if len(rest) < 2:
        raise ValueError(f"node line needs an address and a kind: {line!r}")
    addr = parse_field(parse_address, rest[0], line)
    kind = rest[1]
    if kind == SPLIT:
        opts = dict(part.partition("=")[::2] for part in rest[2:])
        if not {"m", "r"} <= opts.keys() <= {"m", "r", "et"}:
            raise ValueError(f"split needs m= and r= (and at most et=): {line!r}")
        return addr, Node(
            SPLIT,
            m=parse_field(int, opts["m"], line),
            r=parse_field(int, opts["r"], line),
            ever_terminal=opts.get("et", "1") == "1",
        )
    if rest[2:]:
        raise ValueError(f"unexpected options on {kind} node line")
    return addr, Node(kind)


def parse_tree(text: str) -> LabelledTree:
    nodes: dict[Address, Node] = {}
    for line in _format_lines(text, "tree v1"):
        parts = line.split()
        if parts[0] != "node":
            raise ValueError(f"unexpected line in tree file: {line!r}")
        addr, node = _parse_node_line(line, parts[1:])
        nodes[addr] = node
    return LabelledTree(nodes)


def parse_script(text: str) -> StageScript:
    skeleton: dict[Address, Node] = {}
    events: list[Event] = []
    labels: dict[Address, str] = {}
    stop: int | None = None
    for line in _format_lines(text, "tree v1"):
        parts = line.split()
        if parts[0] == "node":
            addr, node = _parse_node_line(line, parts[1:])
            skeleton[addr] = node
        elif parts[0] == "event" and len(parts) == 3:
            events.append(Event(parts[1], parse_field(parse_address, parts[2], line)))
        elif parts[0] == "label" and len(parts) == 3:
            labels[parse_field(parse_address, parts[1], line)] = parts[2]
        elif parts[0] == "stop" and len(parts) == 2:
            stop = parse_field(int, parts[1], line)
        else:
            raise ValueError(f"unexpected line in script file: {line!r}")
    return StageScript(
        skeleton=skeleton, events=tuple(events), final_labels=labels, stop=stop
    )


def _format_lines(text: str, header: str) -> Iterable[str]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != header:
        raise ValueError(f"missing {header!r} header")
    return lines[1:]
