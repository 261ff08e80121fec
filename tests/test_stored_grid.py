"""Differential test: the integer grid a compactum stores when it is
validated, and that `select`, `cb_derivative` and `reduce_intoms` carry
forward without validating again, against the validating constructor and
a `Dyadic` scan of the endpoints; the one-pass `glue_classes` and
`check_property_in` against the per-group reading and the endpoint-set
formula they replaced; and the closed-form interval addresses behind
`construct_limit` and `stone_space` against the nested `Dyadic`
recursion they replaced.  The replaced versions are kept below as the
oracles.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from compacta.boolalg import stone_space
from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    PointSeq,
    all_clopen_selectors,
    cb_derivative,
    check_property_in,
    compactum,
    glue_classes,
    reduce_intoms,
    reduction,
    select,
)
from compacta.construct import junk_points
from compacta.dyadic import HALF, ONE, ZERO, Dyadic, address_ends, midpoint
from compacta.trees import SPLIT
from test_acceptance import suite_instances
from test_compact_grid import glued

MAX_SELECT_GROUPS = 6


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


def suite_compacta() -> list:
    """Every compactum the suite derives, each distinct one once: the
    limits, their glued and detached versions, their derivatives and
    reducts, the stone spaces, and every clopen selection of the hosts
    with at most MAX_SELECT_GROUPS glue groups."""
    hosts = []
    for tree, limit in suite_instances():
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
    compacta = suite_compacta()
    kinds = [{end[0] for end in s.ends} for s in compacta]
    assert sum(PointSeq in k and Interval in k for k in kinds) > 100
    for s in compacta:
        again = compactum(s.components)
        assert again == s
        assert (again.exp, again.ends) == (s.exp, s.ends), s
        scan = max((x.exp for c in s.components for x in (c.lo, c.hi)), default=0)
        assert s.exp == scan, s
        assert s.ends == scanned_ends(s), s


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


def endpoint_property_in(s) -> bool:
    """The endpoint-set formula `check_property_in` replaced."""
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
        assert check_property_in(s) == endpoint_property_in(s), s
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
    assert check_property_in(s) == endpoint_property_in(s) == (host is Cantor or not n)


def nested_interval(addr: tuple[int, ...]) -> tuple[Dyadic, Dyadic]:
    """The interval of addr as (lo, hi), by the recursion `address_ends`
    replaced with its closed form: each step rescales the root-level
    interval of the last digit by Dyadic arithmetic."""
    if not addr:
        return ZERO, ONE
    outer_lo, outer_hi = nested_interval(addr[:-1])
    n, odd = divmod(addr[-1], 2)
    block_lo = HALF * (ONE - Dyadic(1, n))
    block_hi = HALF * (ONE - Dyadic(1, n + 1))
    center = midpoint(block_lo, block_hi)
    if odd:
        center = ONE - center
    half_len = Dyadic(1, addr[-1] + 3)
    scale = outer_hi - outer_lo
    return (
        outer_lo + scale * (center - half_len),
        outer_lo + scale * (center + half_len),
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
