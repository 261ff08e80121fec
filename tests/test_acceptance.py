"""Acceptance suite: nine checks, each printing one pass/fail line.

The random suites are fully seeded, so every run exercises the same
instances.  Oracles are independent of the code paths they certify:
counts come from the tree shape, brute-force search enumerates genuine
bijections, and grid maximization evaluates functions directly.
"""

from __future__ import annotations

import bisect
import random
import time
from fractions import Fraction
from itertools import islice

from compacta.banach import (
    HostedFunction,
    add,
    dense_family,
    generalized_tooth,
    scale,
    stage_points,
    stage_values,
    subtract,
    sup_norm,
    unit_sup,
)
from compacta.boolalg import (
    IN,
    JUNK,
    LabelledBA,
    atom,
    build_isomorphism,
    canonical_form as ba_form,
    clopen_algebra,
    holds_in,
    is_balanced,
    quotient_by_junk,
    stone_space,
    tree_algebra,
    verify_isomorphism,
)
from compacta.compact import balls_intersect, clopen_partitions, cover, cover_is_valid
from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    PointSeq,
    SymbolicCompactum,
    all_clopen_selectors,
    canonical_form,
    cb_derivative,
    compactum,
    derived_selector,
    reduction,
    satisfies_inf,
)
from compacta.construct import construct_limit, enumerate_stage, hausdorff_gap
from compacta.dyadic import Dyadic
from compacta.randgen import (
    random_algebra_pair,
    random_script,
    random_small_pair,
    random_tree,
    unbalance,
)
from compacta.trees import SPLIT, limit_tree

SUITE_SEED = 20260817
SUITE_SIZE = 500

_suite_cache: list[tuple] | None = None


def suite_instances() -> list[tuple]:
    """The shared 500-tree suite with limit compacta, built once."""
    global _suite_cache
    if _suite_cache is None:
        rng = random.Random(SUITE_SEED)
        out = []
        for _ in range(SUITE_SIZE):
            tree = random_tree(rng)
            out.append((tree, construct_limit(tree)))
        _suite_cache = out
    return _suite_cache


def test_criterion_1_duality_roundtrip() -> None:
    started = time.monotonic()
    passed = 0
    for tree, limit in suite_instances():
        if canonical_form(reduction(limit)) == canonical_form(stone_space(tree)):
            passed += 1
    elapsed = time.monotonic() - started
    line = (
        f"criterion 1 {'PASS' if passed == SUITE_SIZE else 'FAIL'}: "
        f"{passed}/{SUITE_SIZE} reduction forms match the dual space "
        f"({elapsed:.1f}s)"
    )
    print(line)
    assert passed == SUITE_SIZE
    assert elapsed < 60


def test_criterion_2_algebra_roundtrip() -> None:
    passed = 0
    for tree, limit in suite_instances():
        got = ba_form(quotient_by_junk(clopen_algebra(limit)))
        want = ba_form(tree_algebra(tree))
        if got == want:
            passed += 1
    line = (
        f"criterion 2 {'PASS' if passed == SUITE_SIZE else 'FAIL'}: "
        f"{passed}/{SUITE_SIZE} quotient algebra forms match the tree algebra"
    )
    print(line)
    assert passed == SUITE_SIZE


def test_criterion_3_derivative_idempotent_on_suite() -> None:
    passed = 0
    for _, limit in suite_instances():
        once = cb_derivative(limit)
        if cb_derivative(once).components == once.components:
            passed += 1
    control = compactum([PointSeq(Dyadic(0, 0), Dyadic(0, 0), Dyadic(1, 0))])
    once = cb_derivative(control)
    control_fails = cb_derivative(once).components != once.components
    ok = passed == SUITE_SIZE and control_fails
    print(
        f"criterion 3 {'PASS' if ok else 'FAIL'}: {passed}/{SUITE_SIZE} "
        f"derivatives idempotent; sequence control fails as required: "
        f"{control_fails}"
    )
    assert passed == SUITE_SIZE
    assert control_fails


def test_criterion_4_every_split_sheds_junk() -> None:
    checked = 0
    for tree, limit in suite_instances():
        expected = 0
        for addr in tree.splits():
            node = tree.node(addr)
            contribution = (1 if node.ever_terminal else 0) + 2 * node.r
            assert contribution >= 1
            expected += contribution
        isolated = sum(1 for c in limit.components if isinstance(c, Point))
        assert isolated == expected
        checked += 1
    print(
        f"criterion 4 PASS: {checked}/{SUITE_SIZE} instances shed exactly "
        f"one isolated point per once-terminal mark plus two per replacement"
    )


# --- criterion 5 ---------------------------------------------------------


def _concrete_atoms(b: LabelledBA) -> list:
    from compacta.boolalg import AtomRef

    out = []
    for ci, cl in enumerate(b.clusters):
        for species, card in ((IN, cl.n_in), (JUNK, cl.n_junk)):
            assert card is not None
            for i in range(card):
                out.append(AtomRef(ci, species, i))
    return out


def _brute_force_iso_exists(b0: LabelledBA, b1: LabelledBA) -> bool:
    """Exhaustive backtracking search over label-preserving atom bijections."""
    atoms0 = _concrete_atoms(b0)
    atoms1 = _concrete_atoms(b1)
    if len(atoms0) != len(atoms1):
        return False
    labels0 = [holds_in(atom(b0, a)) for a in atoms0]
    labels1 = [holds_in(atom(b1, a)) for a in atoms1]

    used = [False] * len(atoms1)

    def extend(i: int) -> bool:
        if i == len(atoms0):
            return True
        for j in range(len(atoms1)):
            if not used[j] and labels0[i] == labels1[j]:
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def test_criterion_5_back_and_forth() -> None:
    started = time.monotonic()
    rng = random.Random(SUITE_SEED + 5)
    built = 0
    for _ in range(200):
        b0, b1 = random_algebra_pair(rng)
        iso = build_isomorphism(b0, b1)
        verify_isomorphism(b0, b1, iso)
        built += 1

    small_agree = 0
    small_total = 60
    for _ in range(small_total):
        b0, b1 = random_small_pair(rng)
        iso = build_isomorphism(b0, b1)
        verify_isomorphism(b0, b1, iso)
        assert _brute_force_iso_exists(b0, b1)
        small_agree += 1
        if rng.random() < 0.5:
            from compacta.boolalg import algebra, cluster

            bumped = algebra(*(b1.clusters + (cluster(1, 0),)))
            builder_rejects = False
            try:
                build_isomorphism(b0, bumped)
            except ValueError:
                builder_rejects = True
            assert builder_rejects == (not _brute_force_iso_exists(b0, bumped))

    rejected = 0
    for _ in range(40):
        b0, b1 = random_algebra_pair(rng)
        bad = unbalance(rng, b0)
        assert not is_balanced(bad)
        try:
            build_isomorphism(bad, b1)
        except ValueError:
            rejected += 1
    elapsed = time.monotonic() - started
    ok = built == 200 and small_agree == small_total and rejected == 40
    print(
        f"criterion 5 {'PASS' if ok else 'FAIL'}: {built}/200 pairs built and "
        f"verified, {small_agree}/{small_total} agree with exhaustive search, "
        f"{rejected}/40 unbalanced controls rejected ({elapsed:.1f}s)"
    )
    assert ok
    assert elapsed < 60


def test_criterion_6_stagewise_convergence() -> None:
    rng = random.Random(SUITE_SEED + 6)
    bound = Dyadic(1, 6).as_fraction()
    worst_s0 = 0
    for _ in range(100):
        script = random_script(rng)
        limit = construct_limit(limit_tree(script))
        prev = None
        s0 = None
        s = 0
        while s <= 200:
            gap = hausdorff_gap(enumerate_stage(script, s), limit).as_fraction()
            if prev is not None:
                assert gap <= prev
            prev = gap
            if gap <= bound:
                s0 = s
                break
            s += 1
        assert s0 is not None, "gap never reached 2^-6 within 200 stages"
        worst_s0 = max(worst_s0, s0)
        for extra in range(1, 4):
            gap = hausdorff_gap(
                enumerate_stage(script, s0 + extra), limit
            ).as_fraction()
            assert gap <= min(prev, bound)
            prev = gap
    print(
        f"criterion 6 PASS: 100/100 scripts reach gap <= 2^-6 monotonically, "
        f"worst settle stage {worst_s0}"
    )


# --- criterion 7 ---------------------------------------------------------


def _landmarks(s: SymbolicCompactum, step: Fraction) -> list[Fraction]:
    pts: set[Fraction] = set()
    for comp in s.components:
        if isinstance(comp, Point):
            pts.add(comp.pos.as_fraction())
            continue
        lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
        span = hi - lo
        if isinstance(comp, Interval):
            k = 0
            while lo + k * step < hi:
                pts.add(lo + k * step)
                k += 1
            pts.add(hi)
        elif isinstance(comp, Cantor):
            level = 0
            length = span
            while length >= step and level < 40:
                level += 1
                length /= 3
            for word in range(2 ** level):
                a = lo
                piece = span
                for bit in range(level - 1, -1, -1):
                    piece /= 3
                    if word >> bit & 1:
                        a += 2 * piece
                pts.add(a)
                pts.add(a + piece)
        else:
            pts.add(comp.limit.as_fraction())
            i = 0
            while True:
                member = comp.member(i).as_fraction()
                pts.add(member)
                if abs(member - comp.limit.as_fraction()) < step / 64:
                    break
                i += 1
    return sorted(pts)


def test_criterion_7_compactness_primitives() -> None:
    verified = 0
    h_small = []
    for tree, limit in suite_instances():
        for n in range(11):
            cert = cover(limit, n)
            assert cover_is_valid(limit, cert)
            verified += 1
        h_small.append(cover(limit, 4).h)

    rng = random.Random(SUITE_SEED + 7)
    agree = 0
    total_pairs = 10_000
    pool = suite_instances()
    ball_cache: dict = {}
    mark_cache: dict = {}
    while agree < total_pairs:
        idx = rng.randrange(len(pool))
        _, limit = pool[idx]
        n = rng.randrange(2, 5)
        if (idx, n) not in ball_cache:
            ball_cache[(idx, n)] = cover(limit, n).balls
            mark_cache[(idx, n)] = _landmarks(limit, Fraction(1, 2 ** (n + 6)))
        balls = ball_cache[(idx, n)]
        if len(balls) < 2:
            continue
        b1, b2 = rng.sample(balls, 2)
        marks = mark_cache[(idx, n)]
        u = max(b1.center - b1.radius, b2.center - b2.radius)
        v = min(b1.center + b1.radius, b2.center + b2.radius)
        slab = marks[bisect.bisect_left(marks, u) : bisect.bisect_right(marks, v)]
        open_probe = any(
            abs(x - b1.center) < b1.radius and abs(x - b2.center) < b2.radius
            for x in slab
        )
        closed_probe = any(
            abs(x - b1.center) <= b1.radius and abs(x - b2.center) <= b2.radius
            for x in slab
        )
        assert balls_intersect(limit, b1, b2) == open_probe
        assert balls_intersect(limit, b1, b2, closed=True) == closed_probe
        agree += 1

    stable = 0
    small = [inst for inst in pool if len(inst[1].components) <= 8][:40]
    for _, limit in small:
        for d in range(4):
            a = list(islice(clopen_partitions(limit, d), 30))
            b = list(islice(clopen_partitions(limit, d + 1), len(a)))
            assert a == b
        stable += 1
    print(
        f"criterion 7 PASS: {verified} covers verified (n <= 10), "
        f"h(4) range {min(h_small)}..{max(h_small)}, "
        f"{total_pairs}/{total_pairs} ball-pair probes agree, "
        f"partition prefixes stable on {stable} instances (d <= 4)"
    )


# --- criterion 8 ---------------------------------------------------------


def _grid_max(f, step: Fraction) -> Fraction:
    """Max of |f| over the uniform grid plus the breakpoints themselves."""
    best = Fraction(0)
    pts = f.breakpoints
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        lo_tick = -((-x0) // step) * step
        hi_tick = (x1 // step) * step
        for x in {x0, x1, lo_tick, hi_tick}:
            if x0 <= x <= x1:
                best = max(best, abs(f.value(x)))
    return best


def test_criterion_8_banach_suite() -> None:
    hosts = [limit for _, limit in suite_instances()[:24]]
    assert len(hosts) >= 20
    step = Fraction(1, 2 ** 20)
    tol = Fraction(1, 2 ** 20)
    count = 0
    rng = random.Random(SUITE_SEED + 8)
    for host in hosts:
        n_values = len(stage_values(2))
        n_anchors = len(stage_points(host, 2))
        two_break_start = n_values + n_anchors * n_values
        members: list[HostedFunction] = []
        stream = dense_family(host, 2)
        picks = sorted(
            {0, 1, 2, n_values, n_values + 1, n_values + 2}
            | {two_break_start + i for i in range(3)}
        )
        pos = 0
        for target in picks:
            f = next(islice(stream, target - pos, target - pos + 1))
            pos = target + 1
            host_sup = sup_norm(f)
            assert host_sup == unit_sup(f.f)
            assert abs(host_sup - _grid_max(f.f, step)) <= tol
            count += 1
            members.append(f)
        f, g = rng.sample(members, 2)
        assert sup_norm(add(f, g)) <= sup_norm(f) + sup_norm(g)
        q = Fraction(rng.randrange(-8, 9), rng.randrange(1, 7))
        assert sup_norm(scale(q, f)) == abs(q) * sup_norm(f)

    c, r = Fraction(1, 2), Fraction(1, 4)
    host = compactum([Point(Dyadic(1, 1)), Point(Dyadic(31, 5))])
    demo = subtract(
        generalized_tooth(c, r, host), generalized_tooth(c, r / 2, host)
    )
    assert sup_norm(demo) == 0
    assert unit_sup(demo.f) == Fraction(1, 2)
    print(
        f"criterion 8 PASS: {count} dense-family functions over {len(hosts)} "
        f"hosts have host sup == unit sup, grid agreement within 2^-20, "
        f"norm axioms exact, equicentric demo gives 0 vs 1/2"
    )
    assert count >= 200


def test_criterion_9_inf_predicate_transfer() -> None:
    checked_instances = 0
    checked_selectors = 0
    for _, limit in suite_instances():
        if len(limit.components) > 12:
            continue
        derived = cb_derivative(limit)
        for sel in all_clopen_selectors(limit):
            image = derived_selector(limit, sel)
            assert satisfies_inf(limit, sel) == satisfies_inf(derived, image)
            checked_selectors += 1
        checked_instances += 1
    assert checked_instances >= 50
    print(
        f"criterion 9 PASS: inf predicate transfers across the derivative on "
        f"{checked_selectors} clopen selections of {checked_instances} "
        f"small instances"
    )
