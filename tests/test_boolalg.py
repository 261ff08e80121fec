"""Clustered labelled algebras: elements, quotients, canonical forms,
and the gated atom-level isomorphism builder."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compacta.boolalg import (
    ALL_PIECE,
    IN,
    JUNK,
    NO_PIECE,
    AtomIso,
    AtomRef,
    BlockPair,
    ClusterPart,
    Element,
    LabelledBA,
    QuotientIso,
    Selection,
    algebra,
    atom,
    bottom,
    build_isomorphism,
    canonical_form,
    check_iso_budget,
    clopen_algebra,
    cluster,
    complement,
    holds_in,
    iso_lines,
    is_atom,
    is_balanced,
    join,
    le,
    meet,
    parse_ba,
    print_ba,
    print_iso,
    quotient_by_junk,
    stone_space,
    take,
    top,
    tree_algebra,
    verify_isomorphism,
    _piece_complement,
    _piece_meet,
    _piece_normalize,
)
from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    PointSeq,
    compactum,
    reduction,
)
from compacta.compactum import canonical_form as compactum_form
from compacta.construct import construct_limit
from compacta.dyadic import Dyadic
from compacta.trees import (
    ETA,
    TERMINAL,
    fishbone,
    parse_tree,
    single_node_tree,
)
from test_dyadic import center, ends

D = Dyadic


# ---------------------------------------------------------------------------
# Counts: an int, or None for omega
# ---------------------------------------------------------------------------


def test_omega_count_absorbs():
    """A count is an int or None (omega): finite counts add, omega absorbs
    any count, and the text format writes omega as `w`."""
    assert algebra(cluster(2, 0), cluster(3, 1)).total_in() == 5
    assert algebra(cluster(2, 0), cluster(None, 1)).total_in() is None
    assert algebra(cluster(None, None), cluster(None, 0)).total_in() is None
    assert print_ba(algebra(cluster(4, None))) == (
        "ba v1\ncluster in=4 junk=w atomless=0\n"
    )


def test_negative_count_rejected():
    for n_in, n_junk in ((-1, 0), (0, -1), (None, -2)):
        with pytest.raises(ValueError) as exc:
            cluster(n_in, n_junk)
        assert str(exc.value) == "cardinality must be a natural number or omega"


# ---------------------------------------------------------------------------
# Cluster and algebra validation
# ---------------------------------------------------------------------------


def test_empty_cluster_rejected():
    with pytest.raises(ValueError):
        cluster(0, 0)


def test_totals():
    b = algebra(cluster(3, 1), cluster(None, None))
    assert b.total_in() is None
    assert b.total_junk() is None
    assert algebra(cluster(2, 3)).total_in() == 2
    assert b.omega_clusters() == [1]


# ---------------------------------------------------------------------------
# Balance condition
# ---------------------------------------------------------------------------


def test_balance_examples():
    assert is_balanced(algebra(cluster(None, None)))
    assert not is_balanced(algebra(cluster(2, None)))
    assert is_balanced(algebra(cluster(3, 1), cluster(None, None)))


# ---------------------------------------------------------------------------
# Elements and Boolean operations
# ---------------------------------------------------------------------------


def test_top_bottom_complement():
    b = algebra(cluster(2, 3), cluster(None, None, True))
    t, z = top(b), bottom(b)
    assert complement(t) == z
    assert complement(z) == t
    assert le(z, t)
    assert meet(t, z) == z
    assert join(t, z) == t


def atoms_below(x: Element, species: str) -> int | None:
    """How many atoms of the species (IN or JUNK) x bounds; None is omega."""
    sels = [getattr(p, f"{species}_sel") for p in x.parts]
    return None if any(s.kind == "cof" for s in sels) else sum(len(s.ids) for s in sels)


def test_atom_counts_of_top():
    b = algebra(cluster(2, 3))
    t = top(b)
    assert atoms_below(t, IN) == 2
    assert atoms_below(t, JUNK) == 3


def test_atoms_and_predicate():
    b = algebra(cluster(2, 1), cluster(None, None))
    a0 = atom(b, AtomRef(0, IN, 1))
    a1 = atom(b, AtomRef(0, JUNK, 0))
    a2 = atom(b, AtomRef(1, JUNK, 7))
    assert is_atom(a0) and is_atom(a1) and is_atom(a2)
    assert holds_in(a0)
    assert not holds_in(a1)
    assert not holds_in(a2)
    assert not is_atom(join(a0, a1))
    assert not is_atom(bottom(b))
    assert le(a0, top(b))


def test_atom_index_validated():
    b = algebra(cluster(2, 1))
    with pytest.raises(ValueError):
        atom(b, AtomRef(0, IN, 5))


@pytest.mark.parametrize("c", [-2, -1, 2, 5])
def test_atom_cluster_validated(c):
    b = algebra(cluster(2, 1), cluster(1, 1))
    with pytest.raises(ValueError, match=f"no cluster {c} "):
        atom(b, AtomRef(c, IN, 0))


@pytest.mark.parametrize("species", ["foo", "", "IN", None])
def test_atom_species_validated(species):
    b = algebra(cluster(1, 1))
    with pytest.raises(ValueError, match=f"no species {species!r} in a cluster"):
        atom(b, AtomRef(0, species, 0))


def test_selection_validation():
    b = algebra(cluster(2, 1))
    with pytest.raises(ValueError):
        Element(b, (ClusterPart(in_sel=Selection("cof", frozenset())),))
    with pytest.raises(ValueError):
        Element(b, (ClusterPart(in_sel=Selection("fin", frozenset({9}))),))
    with pytest.raises(ValueError):
        Element(b, (ClusterPart(atomless=ALL_PIECE),))


def test_de_morgan_with_cofinite_parts():
    b = algebra(cluster(None, None))
    all_but_3 = Selection("cof", frozenset({0, 1, 2}))
    all_but_1 = Selection("cof", frozenset({0}))
    x = Element(b, (ClusterPart(in_sel=take(2), junk_sel=all_but_3),))
    y = Element(b, (ClusterPart(in_sel=all_but_1, junk_sel=take(5)),))
    assert complement(meet(x, y)) == join(complement(x), complement(y))
    assert complement(join(x, y)) == meet(complement(x), complement(y))
    assert complement(complement(x)) == x
    assert le(meet(x, y), x) and le(x, join(x, y))


def test_counts_additive_on_disjoint_join():
    b = algebra(cluster(4, 4))
    x = Element(b, (ClusterPart(in_sel=Selection("fin", frozenset({0, 1}))),))
    y = Element(b, (ClusterPart(in_sel=Selection("fin", frozenset({2})),
                                junk_sel=take(2)),))
    assert meet(x, y) == bottom(b)
    j = join(x, y)
    assert atoms_below(j, IN) == 3
    assert atoms_below(j, JUNK) == 2


# ---------------------------------------------------------------------------
# Atomless piece algebra
# ---------------------------------------------------------------------------


def test_piece_normalize_merges_siblings():
    assert _piece_normalize({"0", "1"}) == ALL_PIECE
    assert _piece_normalize({"00", "01", "1"}) == ALL_PIECE
    assert _piece_normalize({"0", "01"}) == frozenset({"0"})


def test_piece_complement():
    assert _piece_complement(frozenset({"0"})) == frozenset({"1"})
    assert _piece_complement(NO_PIECE) == ALL_PIECE
    assert _piece_complement(ALL_PIECE) == NO_PIECE
    half = frozenset({"01"})
    rest = _piece_complement(half)
    b = algebra(cluster(0, 0, True))
    union = join(
        Element(b, (ClusterPart(atomless=half),)),
        Element(b, (ClusterPart(atomless=rest),)),
    )
    assert union.parts[0].atomless == ALL_PIECE
    assert _piece_meet(half, rest) == NO_PIECE


@pytest.mark.parametrize("words", [{"2"}, {"0", "01a"}, {"1", " "}])
def test_atomless_words_must_be_binary(words):
    b = algebra(cluster(0, 0, True))
    bad = min(w for w in words if set(w) - {"0", "1"})
    with pytest.raises(ValueError, match=f"atomless word {bad!r} is not binary"):
        Element(b, (ClusterPart(atomless=frozenset(words)),))


def test_element_normalises_its_pieces():
    """Two halves given apart are the whole piece: the element is top,
    below itself, and unchanged by a join with bottom."""
    b = algebra(cluster(0, 0, True))
    x = Element(b, (ClusterPart(atomless=frozenset({"0", "1"})),))
    assert x.parts[0].atomless == ALL_PIECE
    assert x == top(b)
    assert le(x, x)
    assert join(x, bottom(b)) == x


def test_atomless_piece_is_never_an_atom():
    b = algebra(cluster(0, 1, True))
    x = Element(b, (ClusterPart(atomless=frozenset({"001"})),))
    assert not is_atom(x)
    y = meet(x, complement(x))
    assert y == bottom(b)


# ---------------------------------------------------------------------------
# Clopen algebras of compacta
# ---------------------------------------------------------------------------


def test_clopen_point_two_intervals():
    s = compactum([
        Point(D(1, 3)),
        Interval(D(9, 5), D(11, 5)),
        Interval(D(13, 4), D(15, 4)),
    ])
    assert clopen_algebra(s) == algebra(cluster(2, 1))


def test_clopen_single_cantor():
    s = compactum([Cantor(D(0, 0), D(1, 0))])
    assert clopen_algebra(s) == algebra(cluster(0, 0, True))


def test_clopen_single_seq():
    s = compactum([PointSeq(D(0, 0), D(0, 0), D(1, 1))])
    assert clopen_algebra(s) == algebra(cluster(0, None))


def test_clopen_glue_group_absorbs_host_atom():
    seq = PointSeq(D(1, 1), D(1, 1), D(3, 2))
    host = Interval(D(9, 5), D(1, 1))
    s = compactum([host, seq, Interval(D(13, 4), D(15, 4))])
    b = clopen_algebra(s)
    assert b == algebra(cluster(1, 0), cluster(0, None))


def test_clopen_glued_cantor_keeps_atomless_part():
    seq = PointSeq(D(1, 1), D(1, 1), D(3, 2))
    host = Cantor(D(9, 5), D(1, 1))
    s = compactum([host, seq])
    assert clopen_algebra(s) == algebra(cluster(0, None, True))


# ---------------------------------------------------------------------------
# Quotient by the junk ideal
# ---------------------------------------------------------------------------


def test_quotient_finite_cluster():
    assert quotient_by_junk(algebra(cluster(2, 3))) == algebra(cluster(0, 2))


def test_quotient_all_junk_omega_leaves_residue():
    assert quotient_by_junk(algebra(cluster(0, None))) == algebra(cluster(0, 1))


def test_quotient_omega_omega_merges_residue():
    got = quotient_by_junk(algebra(cluster(None, None, True)))
    assert got == algebra(cluster(0, None, True))


def test_quotient_drops_dead_clusters():
    assert quotient_by_junk(algebra(cluster(0, 4))) == LabelledBA(())
    got = quotient_by_junk(algebra(cluster(0, 4), cluster(0, 0, True)))
    assert got == algebra(cluster(0, 0, True))


def test_quotient_mixed():
    got = quotient_by_junk(algebra(cluster(3, 1), cluster(None, None)))
    assert got == algebra(cluster(0, 3), cluster(0, None))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def test_form_absorbs_finite_atoms_into_omega_blocks():
    a = algebra(cluster(None, None), cluster(2, 3))
    b = algebra(cluster(None, None))
    assert canonical_form(a) == canonical_form(b)


def test_form_counts_omega_blocks():
    a = algebra(cluster(None, None), cluster(None, None))
    b = algebra(cluster(None, None))
    assert canonical_form(a) != canonical_form(b)


def test_form_separates_species():
    a = algebra(cluster(2, 3))
    assert canonical_form(a) != canonical_form(algebra(cluster(3, 2)))


def test_form_collapses_atomless_multiplicity():
    a = algebra(cluster(0, 0, True), cluster(0, 0, True), cluster(1, 0))
    b = algebra(cluster(0, 0, True), cluster(1, 0))
    assert canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Isomorphism builder
# ---------------------------------------------------------------------------


def test_worked_example_succeeds_by_absorption():
    b0 = algebra(cluster(3, 1), cluster(None, None))
    b1 = algebra(cluster(3, 2), cluster(None, None))
    iso = build_isomorphism(b0, b1)
    assert verify_isomorphism(b0, b1, iso)
    junk_blocks = [bp for bp in iso.block_pairs if bp.src[1] == JUNK]
    assert len(junk_blocks) == 1
    assert junk_blocks[0].skip_src == frozenset({0})
    assert junk_blocks[0].skip_dst == frozenset()
    pair = [(a, b) for a, b in iso.atom_pairs if a == AtomRef(1, JUNK, 0)]
    assert pair == [(AtomRef(1, JUNK, 0), AtomRef(0, JUNK, 1))]


def test_surplus_absorbed_in_o_runs():
    """A million finite in-atoms absorbed into an omega block: the iso is
    one run and one skip range, and building and checking it allocate
    nothing per atom."""
    n = 10**6
    b0 = algebra(cluster(n, 0), cluster(None, None))
    b1 = algebra(cluster(None, None))
    tracemalloc.start()
    try:
        iso = build_isomorphism(b0, b1)
        assert verify_isomorphism(b0, b1, iso)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert iso.runs == (((0, IN, 0), (0, IN, 0), n),)
    host_in, host_junk = iso.block_pairs
    assert host_in.skip_ranges == ((), ((0, n),))
    assert host_junk.skip_ranges == ((), ())
    assert iso_lines(b0, b1) == n + 2
    check_iso_budget(b0, b1)


def test_builder_deterministic():
    b0 = algebra(cluster(3, 1), cluster(None, None))
    b1 = algebra(cluster(3, 2), cluster(None, None))
    assert build_isomorphism(b0, b1) == build_isomorphism(b0, b1)


def test_unbalanced_rejected():
    b0 = algebra(cluster(2, None))
    with pytest.raises(ValueError):
        build_isomorphism(b0, b0)


def test_quotient_mismatch_rejected():
    b0 = algebra(cluster(0, 0, True))
    b1 = algebra(cluster(1, 0))
    with pytest.raises(ValueError):
        build_isomorphism(b0, b1)


def test_finite_total_mismatch_rejected():
    b0 = algebra(cluster(2, 1))
    b1 = algebra(cluster(2, 9))
    assert canonical_form(quotient_by_junk(b0)) == canonical_form(
        quotient_by_junk(b1)
    )
    with pytest.raises(ValueError):
        build_isomorphism(b0, b1)


def test_atomless_presence_gates():
    b0 = algebra(cluster(2, 1, True))
    b1 = algebra(cluster(2, 1))
    with pytest.raises(ValueError):
        build_isomorphism(b0, b1)


def test_finite_identity_case():
    b = algebra(cluster(2, 3), cluster(1, 0, True))
    iso = build_isomorphism(b, b)
    assert verify_isomorphism(b, b, iso)
    assert iso.block_pairs == ()
    assert len(iso.atom_pairs) == 6
    assert all(a == c for a, c in iso.atom_pairs)


def _block_route(iso):
    return {(bp.src[0], bp.dst[0]) for bp in iso.block_pairs if bp.src[1] == IN}


def test_explicit_quotient_pairing_respected():
    b0 = algebra(cluster(None, None), cluster(None, None))
    b1 = algebra(cluster(None, None), cluster(None, None))
    f = QuotientIso(((0, 1), (1, 0)))
    iso = build_isomorphism(b0, b1, f)
    assert verify_isomorphism(b0, b1, iso)
    assert _block_route(iso) == {(0, 1), (1, 0)}


def test_bad_quotient_pairing_rejected():
    b0 = algebra(cluster(None, None))
    b1 = algebra(cluster(None, None))
    f = QuotientIso(((0, 3),))
    with pytest.raises(ValueError):
        build_isomorphism(b0, b1, f)


def test_verify_catches_label_violation():
    b = algebra(cluster(1, 1))
    bad = build_isomorphism(b, b)
    swapped = type(bad)(
        atom_pairs=(
            (AtomRef(0, IN, 0), AtomRef(0, JUNK, 0)),
            (AtomRef(0, JUNK, 0), AtomRef(0, IN, 0)),
        ),
        block_pairs=(),
        atomless_pair=None,
    )
    with pytest.raises(ValueError):
        verify_isomorphism(b, b, swapped)


def test_verify_catches_missing_atom():
    b = algebra(cluster(2, 0))
    iso = build_isomorphism(b, b)
    truncated = type(iso)(iso.atom_pairs[:1], (), None)
    with pytest.raises(ValueError):
        verify_isomorphism(b, b, truncated)


@pytest.mark.parametrize(
    "iso, where",
    [
        (
            AtomIso(((AtomRef(5, IN, 0), AtomRef(0, IN, 0)),), (), None),
            "no atom 0 in cluster 5 species in",
        ),
        (
            AtomIso(
                ((AtomRef(0, IN, 0), AtomRef(0, IN, 0)),
                 (AtomRef(0, JUNK, 0), AtomRef(0, JUNK, 0))),
                (BlockPair((7, IN), (0, IN)),),
                None,
            ),
            "block on cluster 7 species in, which the algebra lacks",
        ),
        (
            AtomIso(
                ((AtomRef(0, IN, 0), AtomRef(0, IN, 0)),
                 (AtomRef(0, JUNK, 0), AtomRef(0, JUNK, 0))),
                (BlockPair((0, JUNK), (0, JUNK)),),
                None,
            ),
            "finite cluster 0 species junk cannot form a block",
        ),
    ],
)
def test_verify_refuses_a_reference_the_algebra_lacks(iso, where):
    b = algebra(cluster(1, 1))
    with pytest.raises(ValueError, match=where):
        verify_isomorphism(b, b, iso)


def test_verify_refuses_a_negative_omega_atom():
    b = algebra(cluster(None, None))
    minus = AtomRef(0, IN, -1)
    iso = AtomIso(
        ((minus, minus),),
        (
            BlockPair((0, IN), (0, IN), frozenset({-1}), frozenset({-1})),
            BlockPair((0, JUNK), (0, JUNK)),
        ),
        None,
    )
    with pytest.raises(ValueError, match="no atom -1 in cluster 0 species in"):
        verify_isomorphism(b, b, iso)


# ---------------------------------------------------------------------------
# Brute-force agreement on small finite algebras
# ---------------------------------------------------------------------------


def _atom_lists(b):
    ins, junks = [], []
    for i, cl in enumerate(b.clusters):
        ins.extend(AtomRef(i, IN, k) for k in range(cl.n_in))
        junks.extend(AtomRef(i, JUNK, k) for k in range(cl.n_junk))
    return ins, junks


def _brute_force_iso_exists(b0, b1):
    """Exhaust species-preserving atom bijections; a finite algebra is the
    powerset of its atoms (times atomless factors), so any such bijection
    that matches the predicate on every pair extends to an isomorphism."""
    if b0.has_atomless() != b1.has_atomless():
        return False
    in0, junk0 = _atom_lists(b0)
    in1, junk1 = _atom_lists(b1)
    if len(in0) != len(in1) or len(junk0) != len(junk1):
        return False
    for p_in in itertools.permutations(range(len(in1))):
        for p_junk in itertools.permutations(range(len(junk1))):
            pairs = [(a, in1[j]) for a, j in zip(in0, p_in)]
            pairs += [(a, junk1[j]) for a, j in zip(junk0, p_junk)]
            if all(
                holds_in(atom(b0, a)) == holds_in(atom(b1, c))
                for a, c in pairs
            ):
                return True
    return False


SMALL_CLUSTERS = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
).filter(lambda t: t[0] + t[1] > 0 or t[2]).map(lambda t: cluster(*t))

SMALL_ALGEBRAS = st.lists(SMALL_CLUSTERS, min_size=1, max_size=3).map(
    lambda cs: LabelledBA(tuple(cs))
).filter(lambda b: b.total_in() + b.total_junk() <= 10)


@settings(max_examples=60, deadline=None)
@given(SMALL_ALGEBRAS, SMALL_ALGEBRAS)
def test_builder_agrees_with_brute_force(b0, b1):
    expected = _brute_force_iso_exists(b0, b1)
    try:
        iso = build_isomorphism(b0, b1)
        got = verify_isomorphism(b0, b1, iso)
    except ValueError:
        got = False
    assert got == expected


# ---------------------------------------------------------------------------
# Duality with trees and compacta
# ---------------------------------------------------------------------------


def _sample_trees():
    yield single_node_tree(TERMINAL)
    yield single_node_tree(ETA)
    yield fishbone([single_node_tree(TERMINAL), single_node_tree(ETA),
              single_node_tree(TERMINAL)])
    yield parse_tree(
        "tree v1\n"
        "node - split m=1 r=1 et=1\n"
        "node 3 terminal\n"
        "node 4 split m=0 r=0 et=0\n"
        "node 4.1 eta\n"
        "node 4.2 terminal\n"
    )


def test_tree_algebra_counts():
    t = fishbone([single_node_tree(TERMINAL), single_node_tree(ETA),
              single_node_tree(TERMINAL)])
    assert tree_algebra(t) == algebra(cluster(0, 2), cluster(0, 0, True))


def test_stone_space_realizes_leaves():
    t = fishbone([single_node_tree(TERMINAL), single_node_tree(ETA)])
    s = stone_space(t)
    assert s.components == (Cantor(*ends((0,))), Point(center((1,))))


def test_reduction_matches_stone_space():
    for t in _sample_trees():
        lhs = reduction(construct_limit(t))
        rhs = stone_space(t)
        assert lhs.components == rhs.components
        assert compactum_form(lhs) == compactum_form(rhs)


def test_quotient_of_clopen_matches_tree_algebra():
    for t in _sample_trees():
        lhs = quotient_by_junk(clopen_algebra(construct_limit(t)))
        rhs = tree_algebra(t)
        assert canonical_form(lhs) == canonical_form(rhs)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_ba_format_fixed_bytes():
    b = algebra(cluster(3, 1), cluster(None, None, True))
    assert print_ba(b) == (
        "ba v1\n"
        "cluster in=3 junk=1 atomless=0\n"
        "cluster in=w junk=w atomless=1\n"
    )


def test_ba_format_roundtrip():
    b = algebra(cluster(0, None), cluster(2, 3, True))
    assert parse_ba(print_ba(b)) == b


def test_ba_format_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ba("cluster in=1 junk=0 atomless=0\n")
    with pytest.raises(ValueError):
        parse_ba("ba v1\nblob\n")


def test_empty_cluster_message():
    """A cluster with no atoms and no atomless part is refused with one
    fixed message, built directly and read from text; omega (None) and an
    atomless part each make it valid."""
    message = "cluster must carry at least one atom or an atomless part"
    with pytest.raises(ValueError) as direct:
        cluster(0, 0)
    assert str(direct.value) == message
    with pytest.raises(ValueError) as parsed:
        parse_ba("ba v1\ncluster in=0 junk=0 atomless=0\n")
    assert str(parsed.value) == (
        f"{message} in line 'cluster in=0 junk=0 atomless=0'"
    )
    for n_in, n_junk, atomless in ((0, None, False), (None, 0, False), (0, 0, True)):
        assert cluster(n_in, n_junk, atomless).n_in == n_in


def test_iso_format_shape():
    b0 = algebra(cluster(3, 1), cluster(None, None))
    b1 = algebra(cluster(3, 2), cluster(None, None))
    text = print_iso(build_isomorphism(b0, b1))
    lines = text.splitlines()
    assert "atom 0.in.0 -> 0.in.0" in lines
    assert any(line.startswith("bulk 1.junk -> 1.junk skip 0 ->") for line in lines)
    assert text.endswith("\n")
