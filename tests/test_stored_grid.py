"""Differential test: the integer grid a compactum stores when it is
validated, and that `select`, `cb_derivative` and `reduce_intoms` carry
forward without validating again, against the validating constructor and
a `Dyadic` scan of the endpoints; and the closed-form interval addresses
behind `construct_limit` and `stone_space` against the nested `Dyadic`
recursion they replaced, kept below as the oracle.
"""

from __future__ import annotations

from fractions import Fraction

from compacta.boolalg import stone_space
from compacta.compactum import (
    Interval,
    PointSeq,
    all_clopen_selectors,
    cb_derivative,
    compactum,
    max_exp,
    reduce_intoms,
    reduction,
    select,
)
from compacta.construct import junk_points
from compacta.dyadic import (
    HALF,
    ONE,
    Dyadic,
    DyInterval,
    UNIT,
    address_ends,
    interval_of,
    midpoint,
)
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
        assert max_exp(s) == s.exp == scan, s
        assert s.ends == scanned_ends(s), s


def nested_interval(addr: tuple[int, ...]) -> DyInterval:
    """The recursion `interval_of` used before its closed form: each step
    rescales the root-level interval of the last digit by Dyadic
    arithmetic."""
    if not addr:
        return UNIT
    outer = nested_interval(addr[:-1])
    n, odd = divmod(addr[-1], 2)
    block_lo = HALF * (ONE - Dyadic(1, n))
    block_hi = HALF * (ONE - Dyadic(1, n + 1))
    center = midpoint(block_lo, block_hi)
    if odd:
        center = ONE - center
    half_len = Dyadic(1, addr[-1] + 3)
    scale = outer.length
    return DyInterval(
        outer.lo + scale * (center - half_len), outer.lo + scale * (center + half_len)
    )


def nested_junk(addr: tuple[int, ...], r: int, ever_terminal: bool) -> list:
    """Seed point and replacement bridges as midpoints of nested intervals."""
    def iv(m: int) -> DyInterval:
        return nested_interval(addr + (m,))

    out = [iv(0).mid] if ever_terminal else []
    for j in range(1, r + 1):
        out.append(midpoint(iv(2 * j).hi, iv(2 * j + 2).lo))
        out.append(midpoint(iv(2 * j + 1).hi, iv(2 * j - 1).lo))
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
        assert interval_of(addr) == want, addr
        lo, e = address_ends(addr)
        assert (Fraction(lo, 1 << e), Fraction(lo + 2, 1 << e)) == (
            want.lo.as_fraction(),
            want.hi.as_fraction(),
        ), addr
