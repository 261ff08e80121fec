"""Differential test: the integer grid a compactum is, as the validating
constructor builds it, and as `construct_limit`, `stone_space`,
`select`, `cb_derivative` and `reduce_intoms` build it from ints without
validating, against the validating constructor and a `Dyadic` scan of
the endpoints; the `components` view those build on first read, against
the `Dyadic` twins the validating constructor gives and against the
tuple it stands for; the one-pass `glue_classes` against the per-group
reading it replaced, and the property it decides (no sequence glues to
an interval) against the endpoint-set formula; the closed-form interval
addresses behind `construct_limit` and `stone_space` against the nested
`Dyadic` recursion they replaced; the closed-form replacement bridges
against the child ends they replaced; the tree walk behind
`construct_limit` and `stone_space` in any order of a tree's nodes; and
the early stop of `_carried` against the OR of every coordinate it
replaced.  The replaced versions are kept below as the oracles.
"""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

import compacta.dyadic as dyadic_module
from compacta.boolalg import clopen_algebra, stone_space
from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
    _carried,
    all_clopen_selectors,
    canonical_form,
    cb_derivative,
    compactum,
    glue_classes,
    parse_compactum,
    print_compactum,
    reduce_intoms,
    reduction,
    select,
)
from compacta.construct import _bridges, construct_limit, junk_points
from compacta.dyadic import ZERO, Dyadic, address_ends, midpoint
from compacta.randgen import random_tree
from compacta.trees import ETA, SPLIT, TERMINAL, LabelledTree
from test_acceptance import SUITE_SEED, suite_instances
from test_compact_grid import glued

ONE = Dyadic(1)
HALF = Dyadic(1, 1)
MAX_SELECT_GROUPS = 6
DEEP_TREES = 200  # shaped like the duality bench's deep trees
WIDE_DEEP_TREES = 2000


def deep_trees(n: int = DEEP_TREES) -> list:
    rng = random.Random(SUITE_SEED + 40)
    return [random_tree(rng, max_depth=8, max_nodes=200) for _ in range(n)]


def derived(s) -> list:
    once = cb_derivative(s)
    return [s, once, cb_derivative(once), reduce_intoms(s), reduction(s)]


def detached(host):
    """The host with every interval replaced by a sequence over its span,
    converging to its left and its right end in turn: sequences that glue
    to nothing, so the derivative keeps their limits.  None when the host
    has no interval."""
    out = [
        PointSeq((c.lo, c.hi)[k % 2], c.lo, c.hi) if isinstance(c, Interval) else c
        for k, c in enumerate(host.components)
    ]
    return None if out == list(host.components) else compactum(out)


def suite_compacta(trees: list = ()) -> list:
    """Every compactum the suite, and the extra trees, derive, each
    distinct one once: the limits, their glued and detached versions,
    their derivatives and reducts, the stone spaces, and every clopen
    selection of the hosts with at most MAX_SELECT_GROUPS glue groups."""
    hosts = []
    extra = [(tree, construct_limit(tree)) for tree in trees]
    for tree, limit in suite_instances() + extra:
        hosts += derived(limit) + [stone_space(tree)]
        for host in (glued(limit), detached(limit)):
            if host is not None:
                hosts += derived(host)
    hosts = list(dict.fromkeys(hosts))
    selected = [
        select(s, sel)
        for s in hosts
        if len(s.glue_groups()) <= MAX_SELECT_GROUPS
        for sel in all_clopen_selectors(s)
    ]
    return list(dict.fromkeys(hosts + selected))


def scanned_ends(s) -> tuple:
    """The grid of s from its Dyadic endpoints, through Fractions."""
    d = 1 << s.exp
    out = []
    for c in s.components:
        lo, hi = c.lo.as_fraction() * d, c.hi.as_fraction() * d
        at = c.limit.as_fraction() * d if isinstance(c, PointSeq) else lo
        assert lo.denominator == hi.denominator == at.denominator == 1, s
        out.append((type(c), int(lo), int(hi), int(at)))
    return tuple(out)


def test_stored_grid_matches_validating_constructor_on_suite() -> None:
    compacta = suite_compacta(deep_trees())
    kinds = [{end[0] for end in s.ends} for s in compacta]
    assert sum(PointSeq in k and Interval in k for k in kinds) > 100
    for s in compacta:
        again = compactum(s.components)
        assert again == s
        assert (again.exp, again.ends) == (s.exp, s.ends), s
        scan = max((x.exp for c in s.components for x in (c.lo, c.hi)), default=0)
        assert s.exp == scan, s
        assert s.ends == scanned_ends(s), s


def limit_twin(tree):
    """`construct_limit` through the validating constructor: each leaf's
    interval or Cantor copy and each split's junk as `Dyadic` shapes."""
    comps = []
    for addr, node in tree.nodes.items():
        lo, e = address_ends(addr)
        if node.kind in (TERMINAL, ETA):
            kind = Interval if node.kind == TERMINAL else Cantor
            comps.append(kind(Dyadic(lo, e), Dyadic(lo + 2, e)))
        elif node.kind == SPLIT:
            comps += map(Point, junk_points(addr, node.r, node.ever_terminal))
    return compactum(comps)


def stone_twin(tree):
    """`stone_space` through the validating constructor."""
    comps = []
    for addr, node in tree.nodes.items():
        lo, e = address_ends(addr)
        if node.kind == TERMINAL:
            comps.append(Point(Dyadic(lo + 1, e)))
        elif node.kind == ETA:
            comps.append(Cantor(Dyadic(lo, e), Dyadic(lo + 2, e)))
    return compactum(comps)


def test_limit_and_stone_space_match_twins_in_any_node_order() -> None:
    """`construct_limit` and `stone_space` give the (exp, ends) of their
    validated twins on every suite tree and WIDE_DEEP_TREES deep trees,
    with the nodes in their own order, reversed and shuffled: the walk
    meets children before their parents and must not depend on it."""
    rng = random.Random(SUITE_SEED + 41)
    trees = [tree for tree, _ in suite_instances()] + deep_trees(WIDE_DEEP_TREES)
    child_first = 0
    for tree in trees:
        want = [(s.exp, s.ends) for s in (limit_twin(tree), stone_twin(tree))]
        items = list(tree.nodes.items())
        reordered = [LabelledTree(dict(items[::-1]))]
        reordered.append(LabelledTree(dict(rng.sample(items, len(items)))))
        for again in [tree, *reordered]:
            got = [construct_limit(again), stone_space(again)]
            assert [(s.exp, s.ends) for s in got] == want, again
        for again in reordered:
            seen = set()
            for addr in again.nodes:
                child_first += bool(addr) and addr[:-1] not in seen
                seen.add(addr)
    assert child_first > 10 * len(trees)


def or_scanned(ends, e) -> tuple:
    """The (exp, ends) `_carried` gives, by the OR of every coordinate it
    replaced."""
    bits = reduce(or_, (lo | hi for _, lo, hi, _ in ends), 0)
    shift = (bits & -bits).bit_length() - 1 if bits else e
    ends = tuple((k, lo >> shift, hi >> shift, at >> shift) for k, lo, hi, at in ends)
    return e - shift, ends


@pytest.mark.parametrize(
    "ends, e, shift",
    [
        ([(Point, 4, 4, 4), (Interval, 8, 12, 8), (PointSeq, 16, 24, 24)], 6, 2),
        ([(Cantor, 8, 16, 8), (Point, 24, 24, 24)], 5, 3),
        ([(Point, 4, 4, 4), (Interval, 8, 12, 8), (Point, 13, 13, 13)], 4, 0),
        ([(Interval, 8, 12, 8), (PointSeq, 14, 17, 14)], 5, 0),
        ([(Point, 3, 3, 3), (Interval, 8, 12, 8)], 4, 0),
        ([(Point, 0, 0, 0)], 3, 3),
        ([], 3, 3),
    ],
)
def test_carried_matches_or_scan(ends, e, shift) -> None:
    """All even (shift > 0), the only odd coordinate last or first, all
    zero, and empty."""
    s = _carried(ends, e)
    assert (s.exp, s.ends) == or_scanned(ends, e)
    assert s.exp == e - shift


def derived_twin(s):
    """`cb_derivative` on the components, validated: points go, and a
    sequence leaves its limit unless an interval or a Cantor copy ends
    there."""
    hosts = [c for c in s.components if isinstance(c, (Interval, Cantor))]
    ends = {x for c in hosts for x in (c.lo, c.hi)}
    return compactum(
        Point(c.limit) if isinstance(c, PointSeq) else c
        for c in s.components
        if not isinstance(c, Point) and getattr(c, "limit", None) not in ends
    )


def reduct_twin(s):
    """`reduce_intoms` on the components, validated: each unglued interval
    becomes its midpoint."""
    together = {i for group in s.glue_groups() if len(group) > 1 for i in group}
    return compactum(
        Point(midpoint(c.lo, c.hi)) if isinstance(c, Interval) and i not in together
        else c
        for i, c in enumerate(s.components)
    )


def trusted_cases(tree):
    """(operator, its input, the validated twin of its output) for the
    limit and the stone space of the tree, and for the derivative, the
    reduct and a clopen selection of the limit and of its glued version."""
    limit, twin = construct_limit(tree), limit_twin(tree)
    cases = [(construct_limit, tree, twin), (stone_space, tree, stone_twin(tree))]
    glued_host = glued(twin)  # validated, so its own twin
    for host, host_twin in [(limit, twin), (glued_host, glued_host)]:
        if host is None:
            continue
        sel = frozenset(i for group in host.glue_groups()[::2] for i in group)
        picked = compactum(host_twin.components[i] for i in sorted(sel))
        cases += [
            (cb_derivative, host, derived_twin(host_twin)),
            (reduce_intoms, host, reduct_twin(host_twin)),
            (lambda s, sel=sel: select(s, sel), host, picked),
        ]
    return cases


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Counts every `Dyadic` built from here on, under "Dyadic"."""
    built = Counter()
    real_init, real_raw = Dyadic.__init__, dyadic_module._raw

    def counting_init(self, *args):
        built["Dyadic"] += 1
        real_init(self, *args)

    def counting_raw(*args):
        built["Dyadic"] += 1
        return real_raw(*args)

    monkeypatch.setattr(Dyadic, "__init__", counting_init)
    monkeypatch.setattr(dyadic_module, "_raw", counting_raw)
    return built


def test_trusted_path_builds_no_dyadic_and_reads_as_its_twin(built) -> None:
    """The limit, the stone space and what the operators carry are built
    from ints alone; printing and the algebra and form read ints alone.
    Each check below reads a fresh result of the operator, the first one
    its view, and must give what it gives on the twin the validating
    constructor builds from `Dyadic` components."""
    trees = [tree for tree, _ in suite_instances()[:60]] + deep_trees()[:20]
    kinds = Counter()
    for tree in trees:
        for op, arg, twin in trusted_cases(tree):
            built.clear()
            out = op(arg)
            canonical_form(out)
            clopen_algebra(out)
            text = print_compactum(out)
            assert not built, (op, arg)
            assert "components" not in vars(out)
            assert text == print_compactum(twin)
            kinds.update(end[0] for end in out.ends)

            def fresh():
                return op(arg)

            assert fresh().components == twin.components
            assert fresh() == twin and twin == fresh()
            assert (fresh().exp, fresh().ends) == (twin.exp, twin.ends)
            assert hash(fresh()) == hash(twin) and {fresh(): 1}[twin] == 1
            assert {twin: 1}[fresh()] == 1
            assert repr(fresh()) == repr(twin)
            assert copy.copy(fresh()) == twin
            assert pickle.loads(pickle.dumps(fresh())) == twin
            assert pickle.loads(pickle.dumps(twin)) == fresh()
    assert {Point, Interval, Cantor, PointSeq} <= set(kinds)


def test_validated_compactum_keeps_its_sorted_components(built) -> None:
    """`compactum` and `parse_compactum` keep the components they checked,
    sorted: reading them builds no `Dyadic` and gives the view the same
    ends build."""
    hosts = [construct_limit(tree) for tree, _ in suite_instances()[:60]]
    hosts += [g for g in map(glued, hosts) if g is not None]
    for host in hosts:
        text = print_compactum(host)
        for s in (compactum(host.components[::-1]), parse_compactum(text)):
            built.clear()
            comps = s.components
            assert not built, text
            assert comps == SymbolicCompactum(s.exp, s.ends).components, text
            assert comps == host.components, text
    assert any(PointSeq in {end[0] for end in s.ends} for s in hosts)


def regridded(s):
    """s with its ends on 2^(exp + 1): the same components, so a view on
    another exp."""
    ends = tuple((k, 2 * lo, 2 * hi, 2 * at) for k, lo, hi, at in s.ends)
    return SymbolicCompactum(s.exp + 1, ends)


def test_view_len_and_eq_read_the_ends(built) -> None:
    """`len` of a fresh view, and == and != between two views on one exp,
    build no `Dyadic`."""
    trees = [tree for tree, _ in suite_instances()[:60]] + deep_trees()[:20]
    for tree in trees:
        built.clear()
        limit = construct_limit(tree)
        once = cb_derivative(limit)
        twice = cb_derivative(once)
        assert len(limit.components) == len(limit.ends)
        assert construct_limit(tree).components == limit.components
        assert not construct_limit(tree).components != limit.components
        assert twice.components == once.components
        assert not built, tree


def test_view_equality_matches_tuple_equality() -> None:
    """== and != on views, fresh each time, agree with the tuples the views
    stand for: over the suite compacta (the glued hosts among them), each
    against itself and its neighbour in length, between views on one exp
    and on two, and against the tuples themselves."""
    hosts = sorted(suite_compacta(), key=lambda s: len(s.ends))
    pairs = list(zip(hosts, hosts[1:])) + [(s, s) for s in hosts]
    pairs += [(regridded(a), b) for a, b in pairs[::7]]
    seen = Counter()
    for a, b in pairs:
        want_b = tuple(SymbolicCompactum(b.exp, b.ends).components)
        want = tuple(SymbolicCompactum(a.exp, a.ends).components) == want_b
        left = SymbolicCompactum(a.exp, a.ends).components
        right = SymbolicCompactum(b.exp, b.ends).components
        assert (left == right) is want and (left != right) is not want, (a, b)
        assert (right == left) is want, (a, b)
        assert (left == want_b) is want and (want_b == left) is want, (a, b)
        assert (left != want_b) is not want, (a, b)
        seen[a.exp == b.exp, want] += 1
    assert min(seen.values()) > 100 and len(seen) == 4, seen


def test_view_reads_as_the_tuple_it_stands_for() -> None:
    """A limit's view against the components its validated twin keeps:
    elements, negative indices, slices (tuples), iteration, repr and hash;
    and a copy or a pickle of a compactum whose view was read."""
    trees = [tree for tree, _ in suite_instances()[:60]] + deep_trees()[:20]
    for tree in trees:
        twin = limit_twin(tree)
        want = tuple(twin.components)
        s = construct_limit(tree)
        view = s.components
        assert len(view) == len(want) and bool(view) == bool(want)
        assert [view[i] for i in range(-len(want), len(want))] == list(want * 2)
        for cut in (slice(None), slice(1, 3), slice(None, None, -1), slice(-2, None)):
            assert type(view[cut]) is tuple and view[cut] == want[cut]
        assert list(view) == list(want) and tuple(view) == want
        assert isinstance(view, Sequence) and view.index(want[-1]) == len(want) - 1
        k = min(len(want), 3)
        assert random.Random(0).sample(view, k) == random.Random(0).sample(want, k)
        assert repr(view) == repr(want) and hash(view) == hash(want)
        assert view == want and want == view and view is s.components
        assert view != list(want) and view != want + (Point(HALF),)
        pickled = [pickle.loads(pickle.dumps(s, proto)) for proto in (0, 5)]
        for clone in (copy.copy(s), copy.deepcopy(s), *pickled):
            assert clone == s and (clone.exp, clone.ends) == (s.exp, s.ends)
            assert clone.components == want and repr(clone) == repr(twin)
        host = glued(twin)
        if host is not None:
            again = pickle.loads(pickle.dumps(host))
            assert again.components == host.components == tuple(host.components)


def grouped_classes(s) -> list:
    """The per-group reading `glue_classes` replaced: each group of
    `glue_groups()`, hosted by the kind of its one component that is not
    a glued sequence (of its only component, when it has one)."""
    out = []
    for group in s.glue_groups():
        kinds = [s.ends[i][0] for i in group]
        host = next((k for k in kinds if k is not PointSeq), kinds[0])
        out.append((host, len(group) - 1))
    return out


def property_in(s) -> bool:
    """No sequence glues to an interval, read from `glue_classes`."""
    return not any(kind is Interval and n for kind, n in glue_classes(s))


def endpoint_property_in(s) -> bool:
    """The same property by the endpoint-set formula."""
    limits = {at for kind, _, _, at in s.ends if kind is PointSeq}
    return not any(
        kind is Interval and (lo in limits or hi in limits)
        for kind, lo, hi, _ in s.ends
    )


def test_glue_classes_match_group_reading_on_suite() -> None:
    compacta = suite_compacta()
    seen = set()
    for s in compacta:
        classes = glue_classes(s)
        assert classes == grouped_classes(s), s
        assert property_in(s) == endpoint_property_in(s), s
        seen.update(classes)
    assert {(Interval, 1), (Interval, 2), (Cantor, 1), (Cantor, 2)} <= seen


D = Dyadic
LEFT = PointSeq(D(1, 2), D(1, 3), D(1, 2))  # limit 1/4 at its right end
RIGHT = PointSeq(D(1, 1), D(1, 1), D(5, 3))  # limit 1/2 at its left end


@pytest.mark.parametrize("host", [Interval, Cantor])
@pytest.mark.parametrize(
    "seqs, n", [((), 0), ((LEFT,), 1), ((RIGHT,), 1), ((LEFT, RIGHT), 2)]
)
def test_glue_classes_of_hand_built_hosts(host, seqs, n) -> None:
    """A host on [1/4, 1/2] with sequences glued on no, one or both
    sides, between a point and a lone sequence."""
    lone = PointSeq(D(3, 2), D(11, 4), D(3, 2))
    s = compactum([Point(D(1, 4)), host(D(1, 2), D(1, 1)), *seqs, lone])
    assert glue_classes(s) == grouped_classes(s)
    assert glue_classes(s) == [(Point, 0), (host, n), (PointSeq, 0)]
    assert property_in(s) == endpoint_property_in(s) == (host is Cantor or not n)


def nested_interval(addr: tuple[int, ...]) -> tuple[Dyadic, Dyadic]:
    """The interval of addr as (lo, hi), by the recursion `address_ends`
    replaced with its closed form: each step rescales the root-level
    interval of the last digit by Dyadic arithmetic."""
    if not addr:
        return ZERO, ONE
    outer_lo, outer_hi = nested_interval(addr[:-1])
    n, odd = divmod(addr[-1], 2)
    block_lo = (ONE - Dyadic(1, n)).half()
    block_hi = (ONE - Dyadic(1, n + 1)).half()
    center = midpoint(block_lo, block_hi)
    if odd:
        center = ONE - center
    half_len = Dyadic(1, addr[-1] + 3)
    scale = outer_hi - outer_lo  # 1/2^scale.exp
    assert scale.num == 1
    return (
        outer_lo + (center - half_len).scaled_pow2(-scale.exp),
        outer_lo + (center + half_len).scaled_pow2(-scale.exp),
    )


def nested_junk(addr: tuple[int, ...], r: int, ever_terminal: bool) -> list:
    """Seed point and replacement bridges as midpoints of nested intervals."""
    def iv(m: int) -> tuple[Dyadic, Dyadic]:
        return nested_interval(addr + (m,))

    out = [midpoint(*iv(0))] if ever_terminal else []
    for j in range(1, r + 1):
        out.append(midpoint(iv(2 * j)[1], iv(2 * j + 2)[0]))
        out.append(midpoint(iv(2 * j + 1)[1], iv(2 * j - 1)[0]))
    return out


def test_closed_form_addresses_match_nested_recursion_on_suite() -> None:
    addrs = set()
    for tree, _ in suite_instances():
        for addr, node in tree.nodes.items():
            addrs.add(addr)
            if node.kind == SPLIT:
                addrs.update(addr + (m,) for m in range(2 * node.r + 3))
                assert junk_points(addr, node.r, node.ever_terminal) == nested_junk(
                    addr, node.r, node.ever_terminal
                )
    assert () in addrs and max(map(len, addrs)) >= 4
    for addr in addrs:
        want = nested_interval(addr)
        lo, e = address_ends(addr)
        assert (Dyadic(lo, e), Dyadic(lo + 2, e)) == want, addr
        assert (Fraction(lo, 1 << e), Fraction(lo + 2, 1 << e)) == (
            want[0].as_fraction(),
            want[1].as_fraction(),
        ), addr


def child_end_bridges(node: tuple[int, int], j: int) -> tuple[int, int, int]:
    """The reading the closed-form bridges replaced: each gap's midpoint
    summed from the ends `address_ends` gives the children around it,
    lifted onto one grid."""
    top = node[1] + 2 * j + 4

    def end(m: int, side: int) -> int:
        """Child m's lo (side 0) or hi (side 2) over 2^top."""
        lo, e = address_ends((m,), *node)
        return (lo + side) << (top - e)

    left = end(2 * j, 2) + end(2 * j + 2, 0)
    right = end(2 * j + 1, 2) + end(2 * j - 1, 0)
    return left, right, top + 1


def test_closed_form_bridges_match_child_ends() -> None:
    """`_bridges` against the child-end reading on every split node of the
    suite and the deep trees, for its replacements and two more, and on a
    grid of (lo, e, j)."""
    nodes = [
        (address_ends(addr), node.r + 2)
        for tree in [tree for tree, _ in suite_instances()] + deep_trees()
        for addr, node in tree.nodes.items()
        if node.kind == SPLIT
    ]
    assert len(nodes) > 1000 and max(e for (_, e), _ in nodes) > 40
    nodes += [((lo, e), 9) for lo in range(-3, 70) for e in range(12)]
    for node, top in nodes:
        for j in range(1, top + 1):
            assert _bridges(node, j) == child_end_bridges(node, j), (node, j)
