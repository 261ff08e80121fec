"""Exact norms, teeth, and the dense family over hosted compacta."""

import hashlib
import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compacta.banach import (
    HostedFunction,
    PLFunction,
    UNIT_HOST,
    add,
    dense_family,
    generalized_tooth,
    parse_plf,
    plf,
    print_plf,
    scale,
    stage_points,
    stage_values,
    subtract,
    sup_norm,
    unit_sup,
)
from compacta.banach import _extend_flat
from compacta.compactum import Cantor, Interval, Point, PointSeq, compactum
from compacta.dyadic import ZERO, Dyadic

F = Fraction
D = Dyadic
ONE = D(1)

CANTOR_HOST = compactum([Cantor(D(0, 0), D(1, 0))])
POINTS_HOST = compactum([Point(D(1, 1)), Point(D(7, 3))])
SEQ_HOST = compactum([PointSeq(D(1, 1), D(1, 1), D(1, 0))])


def bp(f: HostedFunction) -> tuple[tuple[F, F], ...]:
    return f.f.breakpoints


# ---------------------------------------------------------------------------
# PLFunction basics
# ---------------------------------------------------------------------------


def test_plf_requires_full_domain() -> None:
    with pytest.raises(ValueError):
        plf([(F(1, 4), 0), (1, 0)])
    with pytest.raises(ValueError):
        plf([(0, 0), (F(3, 4), 1)])
    with pytest.raises(ValueError):
        plf([(0, 0), (F(1, 2), 1), (F(1, 2), 0), (1, 0)])


def test_plf_value_interpolates() -> None:
    f = plf([(0, 0), (F(1, 2), 1), (1, 0)])
    assert f.value(F(1, 4)) == F(1, 2)
    assert f.value(F(1, 2)) == 1
    assert f.value(F(7, 8)) == F(1, 4)
    assert f.value(0) == 0
    assert f.value(1) == 0
    with pytest.raises(ValueError):
        f.value(F(3, 2))


def test_vector_ops_are_pointwise() -> None:
    f = HostedFunction(plf([(0, 0), (F(1, 2), 1), (1, 0)]), UNIT_HOST)
    g = HostedFunction(plf([(0, 1), (F(1, 4), 0), (1, 0)]), UNIT_HOST)
    h = add(f, g)
    for x in (F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)):
        assert h.f.value(x) == f.f.value(x) + g.f.value(x)
        assert subtract(f, g).f.value(x) == f.f.value(x) - g.f.value(x)
        assert scale(F(-3, 2), f).f.value(x) == F(-3, 2) * f.f.value(x)


def test_ops_reject_host_mismatch() -> None:
    f = HostedFunction(plf([(0, 0), (1, 0)]), UNIT_HOST)
    g = HostedFunction(plf([(0, 0), (1, 0)]), CANTOR_HOST)
    with pytest.raises(ValueError):
        add(f, g)
    with pytest.raises(ValueError):
        subtract(f, g)


# ---------------------------------------------------------------------------
# Teeth
# ---------------------------------------------------------------------------


def test_generalized_tooth_centered() -> None:
    f = generalized_tooth(F(1, 2), F(1, 2))
    assert bp(f) == ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))


def test_generalized_tooth_clipped_at_zero() -> None:
    f = generalized_tooth(0, F(1, 4))
    assert bp(f) == ((F(0), F(1)), (F(1, 4), F(0)), (F(1), F(0)))


# ---------------------------------------------------------------------------
# Suprema
# ---------------------------------------------------------------------------


def test_unit_sup_at_breakpoints() -> None:
    f = plf([(0, 0), (F(1, 2), 1), (1, 0)])
    assert unit_sup(f) == 1
    g = plf([(0, F(-3, 2)), (1, 1)])
    assert unit_sup(g) == F(3, 2)


def test_sup_norm_interval_host() -> None:
    host = compactum([Interval(D(1, 2), D(3, 2))])
    f = HostedFunction(plf([(0, 0), (F(1, 2), 1), (1, 0)]), host)
    assert sup_norm(f) == 1
    g = HostedFunction(plf([(0, 1), (F(1, 4), 0), (1, 0)]), host)
    assert sup_norm(g) == 0
    h = HostedFunction(plf([(0, 2), (1, 0)]), host)
    assert sup_norm(h) == F(3, 2)


def test_sup_norm_point_host() -> None:
    f = HostedFunction(plf([(0, 0), (F(1, 2), 1), (1, 0)]), POINTS_HOST)
    assert sup_norm(f) == 1
    g = generalized_tooth(F(7, 8), F(1, 16), POINTS_HOST)
    assert sup_norm(g) == 1
    h = generalized_tooth(F(1, 4), F(1, 16), POINTS_HOST)
    assert sup_norm(h) == 0


def test_sup_norm_cantor_host_avoids_gap() -> None:
    f = generalized_tooth(F(1, 2), F(1, 4), CANTOR_HOST)
    assert sup_norm(f) == F(1, 3)
    g = generalized_tooth(F(1, 3), F(1, 6), CANTOR_HOST)
    assert sup_norm(g) == 1
    h = generalized_tooth(F(1, 2), F(1, 12), CANTOR_HOST)
    assert sup_norm(h) == 0


def test_sup_norm_cantor_periodic_endpoint() -> None:
    f = generalized_tooth(F(1, 4), F(1, 4), CANTOR_HOST)
    assert sup_norm(f) == 1


def test_sup_norm_seq_host() -> None:
    f = generalized_tooth(F(1, 2), F(1, 8), SEQ_HOST)
    assert sup_norm(f) == 1
    g = generalized_tooth(F(3, 4), F(1, 8), SEQ_HOST)
    assert sup_norm(g) == 1
    h = generalized_tooth(F(3, 4), F(1, 16), SEQ_HOST)
    assert sup_norm(h) == 1
    k = generalized_tooth(F(7, 16), F(1, 32), SEQ_HOST)
    assert sup_norm(k) == 0


def test_sup_norm_seq_tail_members() -> None:
    f = generalized_tooth(F(1, 2), F(1, 16), SEQ_HOST)
    assert sup_norm(f) == 1
    g = generalized_tooth(F(17, 32), F(1, 64), SEQ_HOST)
    assert sup_norm(g) == 1


def test_host_sup_and_unit_sup_can_disagree() -> None:
    far = compactum([Point(D(1, 1)), Point(D(31, 5))])
    f = generalized_tooth(F(1, 2), F(1, 4), far)
    g = generalized_tooth(F(1, 2), F(1, 8), far)
    d = subtract(f, g)
    assert sup_norm(d) == 0
    assert unit_sup(d.f) == F(1, 2)


def dist(f: HostedFunction, g: HostedFunction) -> Fraction:
    return sup_norm(subtract(f, g))


def test_norm_axioms_exact() -> None:
    f = generalized_tooth(F(1, 2), F(1, 2))
    g = generalized_tooth(F(1, 4), F(1, 4))
    h = generalized_tooth(F(3, 4), F(1, 8))
    assert dist(f, g) == dist(g, f)
    assert dist(f, g) <= dist(f, h) + dist(h, g)
    assert dist(f, f) == 0
    assert sup_norm(scale(F(-5, 3), f)) == F(5, 3) * sup_norm(f)
    assert sup_norm(add(f, g)) <= sup_norm(f) + sup_norm(g)


def test_dist_zero_only_needs_host_agreement() -> None:
    f = generalized_tooth(F(1, 4), F(1, 8), POINTS_HOST)
    g = generalized_tooth(F(1, 4), F(1, 16), POINTS_HOST)
    assert f.f != g.f
    assert dist(f, g) == 0


# ---------------------------------------------------------------------------
# Dense family
# ---------------------------------------------------------------------------


def test_stage_points_interval() -> None:
    assert stage_points(UNIT_HOST, 1) == [F(0), F(1, 2), F(1)]
    host = compactum([Interval(D(1, 2), D(3, 2))])
    assert stage_points(host, 2) == [
        F(1, 4),
        F(3, 8),
        F(1, 2),
        F(5, 8),
        F(3, 4),
    ]


def test_stage_points_cantor() -> None:
    assert stage_points(CANTOR_HOST, 0) == [F(0), F(1)]
    assert stage_points(CANTOR_HOST, 1) == [F(0), F(1, 3), F(2, 3), F(1)]
    assert stage_points(CANTOR_HOST, 2) == [
        F(0),
        F(1, 9),
        F(2, 9),
        F(1, 3),
        F(2, 3),
        F(7, 9),
        F(8, 9),
        F(1),
    ]


def test_stage_points_seq_and_point() -> None:
    assert stage_points(SEQ_HOST, 1) == [F(1, 2), F(3, 4), F(1)]
    assert stage_points(POINTS_HOST, 3) == [F(1, 2), F(7, 8)]


def test_negative_stage_rejected() -> None:
    """A negative stage is a ValueError naming n, never a TypeError from
    3**n or 2**n; dense_family raises on the call, not on the first next."""
    want = "n must be a natural number, got -1"
    for host in (UNIT_HOST, CANTOR_HOST, SEQ_HOST):
        for call in (
            lambda: stage_points(host, -1),
            lambda: stage_values(-1),
            lambda: dense_family(host, -1),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == want


def test_dense_family_stage_zero_constants() -> None:
    fams = list(dense_family(UNIT_HOST, 0))
    assert [bp(f) for f in fams] == [
        ((F(0), F(-1)), (F(1), F(-1))),
        ((F(0), F(0)), (F(1), F(0))),
        ((F(0), F(1)), (F(1), F(1))),
    ]


def test_stage_values_match_set_and_sort() -> None:
    def reference(n: int) -> list[Fraction]:
        """Every p/q with q <= 2^n in [-(n+1), n+1], deduplicated, sorted."""
        return sorted(
            {
                F(p, q)
                for q in range(1, 2**n + 1)
                for p in range(-(n + 1) * q, (n + 1) * q + 1)
            }
        )

    for n in range(7):
        vals = stage_values(n)
        assert vals == reference(n), n
        assert all(a < b for a, b in zip(vals, vals[1:])), n
        assert all(math.gcd(x.numerator, x.denominator) == 1 for x in vals), n


# sha256 over `print_plf` of the first 200 members at stages 2 and 3, on
# three hosts; computed with the set-and-sort `stage_values`.
DENSE_DIGESTS = (
    (UNIT_HOST, "60f26d6fa0675dc329ddfd11a1b9526b28d41da3d67b86e6aea4dcdc97751ed0"),
    (
        compactum([Cantor(ZERO, ONE)]),
        "863bc0b66150afeca9fe0410f55c34de05cfb8ab44aa69cf267e325832969d15",
    ),
    (
        compactum(
            [
                Point(ZERO),
                PointSeq(D(1, 1), D(1, 2), D(1, 1)),
                Interval(D(1, 1), D(3, 2)),
                Point(ONE),
            ]
        ),
        "b3a1c4ca88f692d65eabb1e86c5d2cabf9c3b51706940716e63f85501b4fe5cf",
    ),
)


def test_dense_family_prefix_is_pinned() -> None:
    for host, want in DENSE_DIGESTS:
        digest = hashlib.sha256()
        for n in (2, 3):
            for f in islice(dense_family(host, n), 200):
                digest.update(print_plf(f.f).encode())
        assert digest.hexdigest() == want, host


def test_dense_family_deterministic() -> None:
    a = [bp(f) for f in islice(dense_family(CANTOR_HOST, 2), 300)]
    b = [bp(f) for f in islice(dense_family(CANTOR_HOST, 2), 300)]
    assert a == b


def test_dense_family_breakpoints_on_stage_points() -> None:
    anchors = set(stage_points(SEQ_HOST, 2)) | {F(0), F(1)}
    for f in islice(dense_family(SEQ_HOST, 2), 500):
        assert all(x in anchors for x, _ in bp(f))
        assert f.host is SEQ_HOST


def test_dense_family_flat_extension() -> None:
    host = compactum([Interval(D(1, 2), D(3, 2))])
    assert all(0 < x < 1 for x in stage_points(host, 2))
    count = 0
    for f in islice(dense_family(host, 2), 400):
        pts = bp(f)
        assert pts[0][1] == pts[1][1]
        assert pts[-1][1] == pts[-2][1]
        count += 1
    assert count == 400


def test_dense_family_host_sup_equals_unit_sup() -> None:
    hosts = [
        UNIT_HOST,
        CANTOR_HOST,
        SEQ_HOST,
        POINTS_HOST,
        compactum([Interval(D(1, 2), D(3, 2)), Point(D(7, 3))]),
    ]
    for host in hosts:
        for f in islice(dense_family(host, 2), 120):
            assert sup_norm(f) == unit_sup(f.f)


def test_dense_family_matches_grid_max_on_unit_host() -> None:
    grid = [F(i, 64) for i in range(65)]
    for f in islice(dense_family(UNIT_HOST, 2), 120):
        grid_max = max(abs(f.f.value(x)) for x in grid)
        assert grid_max == sup_norm(f)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=16)


@st.composite
def pl_functions(draw: st.DrawFn) -> PLFunction:
    k = draw(st.integers(min_value=0, max_value=4))
    xs = draw(
        st.lists(
            st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    ys = draw(st.lists(rationals, min_size=k + 2, max_size=k + 2))
    pts = sorted([F(0), F(1)] + xs)
    return PLFunction(tuple(zip(pts, ys)))


@settings(max_examples=60, deadline=None)
@given(pl_functions(), pl_functions())
def test_unit_sup_is_a_norm(f: PLFunction, g: PLFunction) -> None:
    s = _merge_for_test(f, g)
    assert unit_sup(s) <= unit_sup(f) + unit_sup(g)
    assert unit_sup(f) >= 0
    doubled = PLFunction(tuple((x, 2 * y) for x, y in f.breakpoints))
    assert unit_sup(doubled) == 2 * unit_sup(f)


def _merge_for_test(f: PLFunction, g: PLFunction) -> PLFunction:
    hf = HostedFunction(f, UNIT_HOST)
    hg = HostedFunction(g, UNIT_HOST)
    return add(hf, hg).f


@settings(max_examples=60, deadline=None)
@given(pl_functions())
def test_host_sup_never_exceeds_unit_sup(f: PLFunction) -> None:
    for host in (CANTOR_HOST, SEQ_HOST, POINTS_HOST):
        assert sup_norm(HostedFunction(f, host)) <= unit_sup(f)


@settings(max_examples=40, deadline=None)
@given(pl_functions())
def test_cantor_sup_dominates_sample_points(f: PLFunction) -> None:
    s = sup_norm(HostedFunction(f, CANTOR_HOST))
    for x in (F(0), F(1, 3), F(2, 3), F(1), F(1, 9), F(8, 9), F(1, 4), F(3, 4)):
        assert abs(f.value(x)) <= s


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_plf_format_fixed_bytes() -> None:
    f = generalized_tooth(F(1, 2), F(1, 2))
    assert print_plf(f.f) == "plf\n(0,0) (1/2,1) (1,0)\n"


def test_plf_format_roundtrip() -> None:
    f = plf([(0, F(-3, 7)), (F(2, 5), 1), (1, 0)])
    assert parse_plf(print_plf(f)) == f


def test_plf_format_rejects_garbage() -> None:
    with pytest.raises(ValueError):
        parse_plf("nope\n(0,0) (1,0)\n")
    with pytest.raises(ValueError):
        parse_plf("plf\n(0,0) (1,0)\nextra\n")
    with pytest.raises(ValueError):
        parse_plf("plf\n0,0 1,0\n")


# ---------------------------------------------------------------------------
# Enumeration audit
# ---------------------------------------------------------------------------


def test_dense_family_stage_one_exhaustive() -> None:
    fams = [bp(f) for f in dense_family(UNIT_HOST, 1)]
    vals = stage_values(1)
    assert vals == sorted(
        {F(p, q) for q in (1, 2) for p in range(-2 * q, 2 * q + 1)}
    )
    expected = len(vals) + len(stage_points(UNIT_HOST, 1)) * len(vals)
    assert len(fams) == expected == 36
    assert len(set(fams)) == 18


def test_generalized_teeth_land_in_family_space() -> None:
    cases = (
        (F(1, 2), F(1, 2), 3),
        (F(0), F(1, 4), 3),
        (F(3, 4), F(1, 4), 4),
        (F(3, 8), F(1, 8), 6),
    )
    for c, r, stage in cases:
        g = generalized_tooth(c, r)
        anchors = stage_points(UNIT_HOST, stage)
        vals = set(stage_values(stage))
        xs = tuple(x for x, _ in bp(g))
        ys = tuple(y for _, y in bp(g))
        assert len(xs) <= stage
        assert all(x in anchors for x in xs)
        assert all(y in vals for y in ys)
        rebuilt = _extend_flat(xs, ys)
        assert rebuilt == g.f
