"""Seeded random instances: trees, scripts, and algebra pairs.

Every generator takes a random.Random so a fixed seed reproduces the
exact suite.  Trees keep each split's junk count positive (a split with
no replacements is forced to stay once-terminal), which the isolated
point audit relies on.  Algebra pairs are produced by re-dressing the
invariants of a balanced base algebra, so the pair is isomorphic by
construction and the builder must succeed on it.
"""

from __future__ import annotations

import random

from .boolalg import Cluster, LabelledBA, algebra, cluster
from .trees import (
    ETA,
    Event,
    FRESH,
    LabelledTree,
    Node,
    REPLACE,
    SPINE,
    SPLIT,
    StageScript,
    TERMINAL,
    fishbone,
    split_children,
)
from .dyadic import Address

LEAF_CHOICES = (TERMINAL, ETA)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def _random_subtree(
    rng: random.Random,
    addr: Address,
    depth_left: int,
    budget: list[int],
    max_r: int,
    out: dict[Address, Node],
) -> None:
    # This node is already reserved in the budget by the caller.
    can_split = depth_left > 0 and budget[0] >= 2
    if can_split and rng.random() < 0.55:
        r = rng.randrange(0, max_r + 1)
        et = True if r == 0 else rng.random() < 0.7
        out[addr] = Node(SPLIT, m=r, r=r, ever_terminal=et)
        budget[0] -= 2
        for child in split_children(addr, r):
            _random_subtree(rng, child, depth_left - 1, budget, max_r, out)
    else:
        out[addr] = Node(rng.choice(LEAF_CHOICES))


def random_tree(
    rng: random.Random,
    max_depth: int = 5,
    max_nodes: int = 40,
    max_r: int = 3,
) -> LabelledTree:
    """Random labelled tree within the stated size bounds."""
    if max_depth >= 3 and max_nodes >= 8 and rng.random() < 0.25:
        k = rng.randrange(2, 4)
        per = (max_nodes - (k - 1)) // k
        comps = [
            random_tree(rng, max_depth - k + 1, per, max_r) for _ in range(k)
        ]
        return fishbone(comps)
    nodes: dict[Address, Node] = {}
    _random_subtree(rng, (), max_depth, [max_nodes - 1], max_r, nodes)
    return LabelledTree(nodes)


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


def random_script(rng: random.Random, max_events: int = 20) -> StageScript:
    """Random staged script: either everything grows out of an open root,
    or a static spine whose slots mix static leaves with open targets."""
    skeleton: dict[Address, Node] = {}
    required: list[Address] = []
    if rng.random() < 0.5:
        required.append(())
    else:
        s = rng.randrange(1, 4)
        for i in range(s):
            skeleton[(0,) * i] = Node(SPINE)
        slots = [(0,) * i + (1,) for i in range(s)] + [(0,) * s]
        for slot in slots:
            if rng.random() < 0.5:
                skeleton[slot] = Node(rng.choice(LEAF_CHOICES))
            else:
                required.append(slot)

    events: list[Event] = []
    open_nodes: set[Address] = set(required)
    paired: dict[Address, int] = {}

    def do_fresh(addr: Address) -> None:
        paired[addr] = 0
        for child in split_children(addr, 0):
            open_nodes.add(child)
        events.append(Event(FRESH, addr))

    def do_replace(addr: Address) -> None:
        old = split_children(addr, paired[addr])
        doomed = [
            a
            for a in open_nodes
            if a[: len(old[0])] == old[0] or a[: len(old[1])] == old[1]
        ]
        for a in doomed:
            open_nodes.discard(a)
            paired.pop(a, None)
        paired[addr] += 1
        for child in split_children(addr, paired[addr]):
            open_nodes.add(child)
        events.append(Event(REPLACE, addr))

    for addr in required:
        do_fresh(addr)
    extra = rng.randrange(0, max_events - len(events) + 1)
    for _ in range(extra):
        fresh_pool = sorted(a for a in open_nodes if a not in paired)
        replace_pool = sorted(a for a in paired if a in open_nodes)
        if fresh_pool and (not replace_pool or rng.random() < 0.65):
            do_fresh(rng.choice(fresh_pool))
        elif replace_pool:
            do_replace(rng.choice(replace_pool))

    final_labels = {
        a: rng.choice(LEAF_CHOICES) for a in open_nodes if a not in paired
    }
    return StageScript(skeleton, tuple(events), final_labels)


# ---------------------------------------------------------------------------
# Algebra pairs
# ---------------------------------------------------------------------------

CARD_POOL = (0, 1, 2, 3, 4, 5)


def _random_finite_cluster(rng: random.Random, atomless_odds: float) -> Cluster:
    a = rng.choice(CARD_POOL)
    b = rng.choice(CARD_POOL)
    atomless = rng.random() < atomless_odds
    if a == 0 and b == 0 and not atomless:
        a = rng.randrange(1, 6)
    return cluster(a, b, atomless)


def random_balanced_algebra(
    rng: random.Random, max_clusters: int = 6
) -> LabelledBA:
    k = rng.randrange(1, max_clusters + 1)
    clusters = []
    for _ in range(k):
        if rng.random() < 0.3:
            clusters.append(cluster(None, None, rng.random() < 0.25))
        else:
            clusters.append(_random_finite_cluster(rng, 0.2))
    return algebra(*clusters)


def _compose(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split total into parts nonnegative summands, uniformly seeded."""
    cuts = sorted(rng.randrange(0, total + 1) for _ in range(parts - 1))
    out = []
    prev = 0
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(total - prev)
    return out


def redress(
    rng: random.Random, base: LabelledBA, max_clusters: int = 6
) -> LabelledBA:
    """A differently dressed algebra with the same isomorphism invariants:
    same number of two-sided infinite clusters, same finite atom totals
    when everything is finite, same atomless presence."""
    m = len(base.omega_clusters())
    want_atomless = base.has_atomless()
    clusters: list[Cluster] = []
    if m >= 1:
        atomless_odds = 0.3 if want_atomless else 0.0
        for _ in range(m):
            clusters.append(cluster(None, None, rng.random() < atomless_odds))
        for _ in range(rng.randrange(0, max_clusters - m + 1)):
            clusters.append(_random_finite_cluster(rng, atomless_odds))
    else:
        ti = base.total_in()
        tj = base.total_junk()
        assert ti is not None and tj is not None
        k = rng.randrange(1, max_clusters + 1)
        for a, b in zip(_compose(rng, ti, k), _compose(rng, tj, k)):
            atomless = want_atomless and rng.random() < 0.3
            if a == 0 and b == 0 and not atomless:
                continue
            clusters.append(cluster(a, b, atomless))
        if not clusters:
            clusters.append(cluster(ti, tj, True))
    if want_atomless and not any(c.has_atomless for c in clusters):
        i = rng.randrange(len(clusters))
        c = clusters[i]
        clusters[i] = Cluster(c.n_in, c.n_junk, True)
    rng.shuffle(clusters)
    return algebra(*clusters)


def random_algebra_pair(
    rng: random.Random, max_clusters: int = 6
) -> tuple[LabelledBA, LabelledBA]:
    b0 = random_balanced_algebra(rng, max_clusters)
    return b0, redress(rng, b0, max_clusters)


def random_small_pair(
    rng: random.Random, max_total: int = 10
) -> tuple[LabelledBA, LabelledBA]:
    """All-finite pair small enough for an exhaustive bijection search."""
    clusters = []
    left = max_total
    for _ in range(rng.randrange(1, 4)):
        a = rng.randrange(0, min(4, left) + 1)
        left -= a
        b = rng.randrange(0, min(4, left) + 1)
        left -= b
        if a == 0 and b == 0:
            continue
        clusters.append(cluster(a, b))
    if not clusters:
        clusters.append(cluster(1, 1))
    b0 = algebra(*clusters)
    return b0, redress(rng, b0)


def unbalance(rng: random.Random, base: LabelledBA) -> LabelledBA:
    """Negative control: one cluster gets infinitely many atoms on one
    side only, so finiteness of the two labels comes apart below it."""
    clusters = list(base.clusters)
    i = rng.randrange(len(clusters))
    if rng.random() < 0.5:
        clusters[i] = cluster(None, rng.choice(CARD_POOL))
    else:
        clusters[i] = cluster(rng.choice(CARD_POOL), None)
    return algebra(*clusters)
