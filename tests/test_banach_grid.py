"""Differential test: the integer-grid sup norms and stage points in
`compacta.banach` against the `Fraction` reference kept in
`fraction_banach`.

Both must agree exactly on the distinct limits of the seeded 500-tree
suite, on the same limits with convergent sequences glued to their
intervals and Cantor copies, and on hypothesis-drawn hosts.  The
functions' breakpoints mix dyadic, triadic, 5-adic and 7-adic
denominators with spots on and beside the host's own points: component
ends, Cantor piece ends and the gaps between them, sequence members.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_banach as ref
from compacta.banach import (
    HostedFunction,
    PLFunction,
    dense_family,
    plf,
    stage_points,
    stage_values,
    sup_norm,
)
from compacta.compactum import Cantor, PointSeq, compactum
from compacta.dyadic import ZERO, Dyadic
from test_acceptance import SUITE_SEED, suite_instances
from test_compact_grid import glued, hosts

# The module itself: the package exports a function of the same name.
banach_module = importlib.import_module("compacta.banach")

F = Fraction
ONE = Dyadic(1)
STAGES = range(5)
FUNCTIONS_PER_HOST = 6
# Shares of a component's span at which a breakpoint may sit: Cantor
# piece ends and gap points, sequence members and the spots between.
SHARES = (F(0), F(1), F(1, 3), F(2, 3), F(1, 9), F(8, 9), F(1, 2), F(1, 4),
          F(3, 4), F(3, 8), F(2, 5), F(1, 7))


def spot(rng: random.Random, s) -> Fraction:
    """A breakpoint candidate: a rational with a 2-, 3-, 5- or 7-adic
    denominator, or a spot on or just beside one of the host's parts."""
    if not s.components or rng.random() < 0.4:
        base = rng.choice((2, 3, 5, 7)) ** rng.randrange(1, 6)
        return F(rng.randrange(1, base), base)
    comp = rng.choice(s.components)
    lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
    if isinstance(comp, PointSeq) and rng.random() < 0.5:
        x = comp.member(rng.randrange(0, 8)).as_fraction()
    else:
        x = lo + (hi - lo) * rng.choice(SHARES)
    nudge = rng.choice((0, 0, 1, -1)) * F(1, rng.choice((3, 5, 7)) ** 6)
    return min(max(x + nudge * (hi - lo or 1), F(0)), F(1))


def functions(rng: random.Random, s, count: int) -> list:
    """PL functions on [0,1] with 1 to 6 inner breakpoints from `spot`."""
    out = []
    for _ in range(count):
        inner = {spot(rng, s) for _ in range(rng.randrange(1, 7))} - {0, 1}
        xs = [F(0)] + sorted(inner) + [F(1)]
        out.append(
            plf(
                (x, F(rng.randrange(-16, 17), rng.choice((1, 2, 3, 5, 7))))
                for x in xs
            )
        )
    return out


def assert_same_norms(s, rng: random.Random, count: int) -> None:
    for f in functions(rng, s, count):
        hf = HostedFunction(f, s)
        assert sup_norm(hf) == ref.sup_norm(hf), (s, f)


def assert_same_stage_points(s) -> None:
    for n in STAGES:
        assert stage_points(s, n) == ref.stage_points(s, n), (s, n)


def suite_and_glued() -> list:
    """The suite's distinct nonempty limits, each also with sequences
    glued to its intervals and Cantor copies."""
    limits = dict.fromkeys(limit for _, limit in suite_instances())
    extra = [glued(h) for h in limits]
    return [h for h in list(limits) + extra if h is not None and h.components]


def test_sup_norms_match_reference_on_suite() -> None:
    rng = random.Random(SUITE_SEED + 31)
    for s in suite_and_glued():
        assert_same_norms(s, rng, FUNCTIONS_PER_HOST)


def test_sup_norm_builds_one_fraction(monkeypatch) -> None:
    """The best value is kept as a ratio of ints; only the returned norm
    is a `Fraction`, with the reference's value."""
    rng = random.Random(SUITE_SEED + 33)
    limits = suite_and_glued()[::5]
    cases = [HostedFunction(f, s) for s in limits for f in functions(rng, s, 3)]
    zero = plf([(0, 0), (F(1, 3), 0), (1, 0)])
    cases += [HostedFunction(zero, s) for s in limits[:10]]
    want = [ref.sup_norm(hf) for hf in cases]
    built = 0

    def counting(*args):
        nonlocal built
        built += 1
        return Fraction(*args)

    monkeypatch.setattr(banach_module, "Fraction", counting)
    for hf, norm in zip(cases, want):
        built = 0
        got = sup_norm(hf)
        assert built == 1 and got == norm and type(got) is Fraction, (hf, got)
        if hf.f is zero:
            assert got == Fraction(0)


def test_stage_points_match_reference_on_suite() -> None:
    for s in suite_and_glued():
        assert_same_stage_points(s)


def test_unit_cantor_norms_match_reference() -> None:
    """Segments that start and end on piece ends or deep inside the gaps
    of the unit Cantor set, where the extreme members lie far below any
    dyadic grid."""
    s = compactum([Cantor(ZERO, ONE)])
    rng = random.Random(SUITE_SEED + 32)
    for _ in range(200):
        k = rng.randrange(1, 12)
        a = F(rng.randrange(1, 3 ** k), 3 ** k) + rng.choice((0, F(1, 7 ** 8)))
        b = a + F(rng.randrange(1, 4), 3 ** rng.randrange(k, k + 4))
        if b < 1:
            f = plf([(0, 0), (a, rng.randrange(-3, 4)), (b, 5), (1, -2)])
            hf = HostedFunction(f, s)
            assert sup_norm(hf) == ref.sup_norm(hf), f


@settings(max_examples=60, deadline=None)
@given(hosts(), st.randoms(use_true_random=False))
def test_drawn_hosts_match_reference(s, rng) -> None:
    assert_same_norms(s, rng, 10)
    assert_same_stage_points(s)


# ---------------------------------------------------------------------------
# The dense family against the validating generator
# ---------------------------------------------------------------------------


def _extend_flat(xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]) -> PLFunction:
    """The breakpoints (xs, ys), extended flat to 0 and 1 where they stop
    short, through the validating `PLFunction`."""
    points = list(zip(xs, ys))
    if points[0][0] != 0:
        points.insert(0, (Fraction(0), points[0][1]))
    if points[-1][0] != 1:
        points.append((Fraction(1), points[-1][1]))
    return PLFunction(tuple(points))


def validated_family(host, n: int):
    """The dense family as it was built before its trusted constructor:
    every member through `PLFunction` and `HostedFunction`, checks and
    all."""
    values = stage_values(n)
    anchors = stage_points(host, n)
    for k in range(n + 1):
        if k == 0:
            for c in values:
                yield HostedFunction(PLFunction(((F(0), c), (F(1), c))), host)
            continue
        for xs in combinations(anchors, k):
            for ys in product(values, repeat=k):
                yield HostedFunction(_extend_flat(xs, ys), host)


def assert_same_family(host, n: int, stop: int | None = None) -> int:
    """The first `stop` members (all when None) equal the validating
    generator's and their validated twins; returns how many there were."""
    members = list(islice(dense_family(host, n), stop))
    assert members == list(islice(validated_family(host, n), stop)), (host, n)
    twins = [HostedFunction(PLFunction(f.f.breakpoints), host) for f in members]
    assert members == twins, (host, n)
    return len(members)


def test_dense_family_matches_validating_generator() -> None:
    """Whole streams at stages 0 and 1 on the suite's distinct limits, and
    at stage 2 on the two with the fewest stage points (52,577 members;
    the stage-2 streams of them all hold 1.6 * 10^9).  The first 500
    members at stage 3 on every limit."""
    limits = list(dict.fromkeys(limit for _, limit in suite_instances()))
    seen = 0
    for host in limits:
        seen += assert_same_family(host, 0) + assert_same_family(host, 1)
        seen += assert_same_family(host, 3, 500)
    for host in sorted(limits, key=lambda h: len(stage_points(h, 2)))[:2]:
        seen += assert_same_family(host, 2)
    assert seen > 350_000, seen


@pytest.mark.parametrize("n", range(4))
def test_dense_family_refuses_empty_host_at_first_member(n: int) -> None:
    family = dense_family(compactum([]), n)
    with pytest.raises(ValueError, match="^host compactum is empty$"):
        next(family)
    with pytest.raises(ValueError, match="^host compactum is empty$"):
        next(validated_family(compactum([]), n))
