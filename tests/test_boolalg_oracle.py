"""Differential test: the element algebra derived from meet and complement,
the digit-by-digit piece normaliser, the isomorphism held and checked as
runs of atoms and the one-pass canonical form in `compacta.boolalg`
against the written-out, per-atom code kept in `direct_boolalg`.

The normalisers must agree on every set of binary words of length at
most 3.  Join, order and top must agree on seeded element pairs of three
cluster shapes, with atomless pieces handed to `Element` unnormalised
half the time.  The printed atom isomorphism, or the refusal, must be
byte-identical on seeded algebra pairs, on a grid of finite surpluses
against omega clusters, and on independent pairs, most of which the
gates refuse.  The isomorphism check must give the same verdict and
message on hand-built isomorphisms with one or more defects and on
seeded mutants of built ones, and the canonical forms must agree on
seeded algebras.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import direct_boolalg as ref
import pytest

from compacta.boolalg import (
    IN,
    JUNK,
    NO_PIECE,
    AtomIso,
    AtomRef,
    BlockPair,
    ClusterPart,
    Element,
    LabelledBA,
    Selection,
    _piece_normalize,
    algebra,
    bottom,
    build_isomorphism,
    canonical_form,
    cluster,
    join,
    le,
    print_iso,
    top,
    verify_isomorphism,
)
from compacta.randgen import (
    random_algebra_pair,
    random_balanced_algebra,
    random_small_pair,
)

SEED = 11
WORDS = tuple(
    "".join(bits) for n in range(4) for bits in itertools.product("01", repeat=n)
)
SHAPES = (cluster(2, None, True), cluster(None, None), cluster(1, 2, True))
PAIRS_PER_SHAPE = 600


def test_normalizers_agree_on_all_short_word_sets() -> None:
    for mask in range(1 << len(WORDS)):
        words = {w for i, w in enumerate(WORDS) if mask >> i & 1}
        assert _piece_normalize(words) == ref.piece_normalize(words), words


def _selection(rng: random.Random, card) -> Selection:
    if card is None:
        ids = frozenset(i for i in range(4) if rng.random() < 0.4)
        return Selection(rng.choice(("fin", "cof")), ids)
    ids = frozenset(i for i in range(card) if rng.random() < 0.5)
    return Selection("fin", ids)


def _element(rng: random.Random, b: LabelledBA) -> Element:
    parts = []
    for cl in b.clusters:
        piece = NO_PIECE
        if cl.has_atomless:
            piece = frozenset(rng.sample(WORDS, rng.randrange(4)))
            if rng.random() < 0.5:
                piece = ref.piece_normalize(piece)
        parts.append(
            ClusterPart(_selection(rng, cl.n_in), _selection(rng, cl.n_junk), piece)
        )
    return Element(b, tuple(parts))


def test_derived_operations_agree_with_written_out_ones() -> None:
    rng = random.Random(SEED)
    for shape in SHAPES:
        b = algebra(shape)
        assert top(b) == ref.top(b)
        fixed = [bottom(b), top(b)]
        for _ in range(PAIRS_PER_SHAPE):
            x = _element(rng, b)
            y = rng.choice(fixed + [x, _element(rng, b), _element(rng, b)])
            for p, q in ((x, y), (y, x)):
                assert join(p, q) == ref.join(p, q), (p, q)
                assert le(p, q) == ref.le(p, q), (p, q)


def _printed(build, b0: LabelledBA, b1: LabelledBA) -> str:
    show = print_iso if build is build_isomorphism else ref.print_iso
    try:
        return show(build(b0, b1))
    except ValueError as exc:
        return f"refused: {exc}"


def _surplus_grid():
    omega = cluster(None, None)
    for in0, junk0, in1, junk1 in itertools.product(range(3), repeat=4):
        for n0, n1 in ((1, 1), (1, 2), (2, 2)):
            finite0 = [cluster(in0, junk0)] if in0 or junk0 else []
            finite1 = [cluster(in1, junk1)] if in1 or junk1 else []
            yield algebra(*finite0, *[omega] * n0), algebra(*[omega] * n1, *finite1)


def test_printed_isomorphisms_agree() -> None:
    rng = random.Random(SEED)
    pairs = [random_algebra_pair(rng) for _ in range(400)]
    pairs += [random_small_pair(rng) for _ in range(200)]
    grid = list(_surplus_grid())
    pairs += grid + [(b1, b0) for b0, b1 in grid]
    built = 0
    for b0, b1 in pairs:
        printed = _printed(build_isomorphism, b0, b1)
        assert printed == _printed(ref.build_isomorphism, b0, b1), (b0, b1)
        built += not printed.startswith("refused")
    assert built > len(pairs) // 2


def test_gates_agree_on_independent_pairs() -> None:
    """Unrelated balanced algebras reach every gate the written-out
    builder has; the refusal texts must match, and some pairs must fail
    on the junk totals alone."""
    rng = random.Random(SEED)
    outcomes = []
    for _ in range(3000):
        b0, b1 = random_balanced_algebra(rng, 3), random_balanced_algebra(rng, 3)
        printed = _printed(build_isomorphism, b0, b1)
        assert printed == _printed(ref.build_isomorphism, b0, b1), (b0, b1)
        outcomes.append(printed)
    assert "refused: finite atom totals differ" in outcomes
    assert any(not p.startswith("refused") for p in outcomes)


def _verdict(verify, b0: LabelledBA, b1: LabelledBA, iso: AtomIso) -> str:
    try:
        return str(verify(b0, b1, iso))
    except ValueError as exc:
        return f"refused: {exc}"


def _pairs(*spec) -> tuple[tuple[AtomRef, AtomRef], ...]:
    """Atom pairs from ((cluster, species, index), (cluster, species, index))."""
    return tuple((AtomRef(*a), AtomRef(*b)) for a, b in spec)


def _identity(c: int, species: str, n: int):
    return [((c, species, k), (c, species, k)) for k in range(n)]


FIN = algebra(cluster(3, 2))
MIXED = algebra(cluster(2, 1), cluster(None, None))
OMEGA_BLOCKS = (BlockPair((1, IN), (1, IN)), BlockPair((1, JUNK), (1, JUNK)))
SURPLUS = algebra(cluster(2, 0), cluster(None, None))
HOST = algebra(cluster(None, None))
SURPLUS_BLOCKS = (
    BlockPair((1, IN), (0, IN), frozenset(), frozenset({0, 5})),
    BlockPair((1, JUNK), (0, JUNK)),
)

HAND_BUILT = {
    "valid": (FIN, FIN, _pairs(*_identity(0, IN, 3), *_identity(0, JUNK, 2)), ()),
    "gap": (FIN, FIN, _pairs(*_identity(0, IN, 3)[::2], *_identity(0, JUNK, 2)), ()),
    "duplicate": (
        FIN, FIN,
        _pairs(*_identity(0, IN, 3), ((0, IN, 1), (0, IN, 1)), *_identity(0, JUNK, 2)),
        (),
    ),
    "overlap": (
        FIN, FIN,
        _pairs(
            ((0, IN, 0), (0, IN, 0)), ((0, IN, 1), (0, IN, 1)),
            ((0, IN, 1), (0, IN, 2)), ((0, IN, 2), (0, IN, 1)),
            *_identity(0, JUNK, 2),
        ),
        (),
    ),
    "wrong species": (
        FIN, FIN,
        _pairs(*_identity(0, IN, 2), ((0, IN, 2), (0, JUNK, 0)),
               ((0, JUNK, 0), (0, IN, 2)), ((0, JUNK, 1), (0, JUNK, 1))),
        (),
    ),
    "negative index": (
        FIN, FIN,
        _pairs(((0, IN, -1), (0, IN, 0)), *_identity(0, IN, 3)[1:],
               *_identity(0, JUNK, 2)),
        (),
    ),
    "index past card": (
        FIN, FIN,
        _pairs(*_identity(0, IN, 2), ((0, IN, 3), (0, IN, 2)), *_identity(0, JUNK, 2)),
        (),
    ),
    "block on a finite species": (
        FIN, FIN,
        _pairs(*_identity(0, IN, 3), *_identity(0, JUNK, 2)),
        (BlockPair((0, IN), (0, IN)),),
    ),
    "missing block": (
        MIXED, MIXED,
        _pairs(*_identity(0, IN, 2), *_identity(0, JUNK, 1)),
        OMEGA_BLOCKS[:1],
    ),
    "skips disagree": (
        MIXED, MIXED,
        _pairs(*_identity(0, IN, 2), ((1, IN, 3), (1, IN, 3)), *_identity(0, JUNK, 1)),
        (BlockPair((1, IN), (1, IN), frozenset({2}), frozenset({2})), OMEGA_BLOCKS[1]),
    ),
    "duplicate before a missing cluster": (
        FIN, FIN,
        _pairs(*_identity(0, IN, 3), ((0, IN, 0), (0, IN, 0)),
               ((4, IN, 0), (0, IN, 0))),
        (),
    ),
    "missing cluster before a duplicate": (
        FIN, FIN,
        _pairs(*_identity(0, IN, 3), ((4, IN, 0), (0, IN, 0)),
               ((0, IN, 0), (0, IN, 0))),
        (),
    ),
    "defects on both sides": (
        FIN, FIN,
        _pairs(*_identity(0, IN, 3), ((0, JUNK, 0), (0, JUNK, 5)),
               ((0, JUNK, 0), (0, JUNK, 1))),
        (),
    ),
    "non-contiguous omega pairs": (
        SURPLUS, HOST,
        _pairs(((0, IN, 0), (0, IN, 5)), ((0, IN, 1), (0, IN, 0))),
        SURPLUS_BLOCKS,
    ),
    "non-contiguous omega pairs, wrong skips": (
        SURPLUS, HOST,
        _pairs(((0, IN, 0), (0, IN, 4)), ((0, IN, 1), (0, IN, 0))),
        SURPLUS_BLOCKS,
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_verify_agrees_on_hand_built_isos(name: str) -> None:
    b0, b1, pairs, blocks = HAND_BUILT[name]
    iso = AtomIso(pairs, blocks, None)
    verdict = _verdict(verify_isomorphism, b0, b1, iso)
    assert verdict == _verdict(ref.verify_isomorphism, b0, b1, iso)
    assert print_iso(iso) == ref.print_iso(iso)
    assert (verdict == "True") == (name in ("valid", "non-contiguous omega pairs"))


def _mutant(rng: random.Random, iso: AtomIso) -> AtomIso:
    """One seeded defect, or reordering, of a built isomorphism's pairs or
    block skips."""
    pairs = list(iso.atom_pairs)
    blocks = list(iso.block_pairs)
    moves = ["skip"] if blocks else []
    if pairs:
        moves += ["drop", "duplicate", "shift", "species", "cluster", "move"]
    if not moves:
        return iso
    move = rng.choice(moves)
    if move == "skip":
        k = rng.randrange(len(blocks))
        side = rng.choice(("skip_src", "skip_dst"))
        skip = set(getattr(blocks[k], side))
        if skip and rng.random() < 0.5:
            skip.discard(rng.choice(sorted(skip)))
        else:
            skip.add(rng.randrange(6))
        blocks[k] = replace(blocks[k], **{side: frozenset(skip)})
        return AtomIso(tuple(pairs), tuple(blocks), iso.atomless_pair)
    k = rng.randrange(len(pairs))
    if move == "drop":
        del pairs[k]
    elif move == "duplicate":
        pairs.insert(rng.randrange(len(pairs) + 1), pairs[k])
    elif move == "move":
        pairs.insert(rng.randrange(len(pairs) + 1), pairs.pop(k))
    else:
        side = rng.randrange(2)
        a = pairs[k][side]
        if move == "shift":
            a = AtomRef(a.cluster, a.species, a.index + rng.choice((-2, -1, 1, 2, 7)))
        elif move == "species":
            a = AtomRef(a.cluster, JUNK if a.species == IN else IN, a.index)
        else:
            a = AtomRef(a.cluster + rng.choice((-1, 1, 5)), a.species, a.index)
        pairs[k] = (a, pairs[k][1]) if side == 0 else (pairs[k][0], a)
    return AtomIso(tuple(pairs), tuple(blocks), iso.atomless_pair)


def test_verify_agrees_on_mutated_isos() -> None:
    rng = random.Random(SEED)
    verdicts = []
    while len(verdicts) < 2400:
        b0, b1 = random_algebra_pair(rng)
        iso = build_isomorphism(b0, b1)
        assert _verdict(ref.verify_isomorphism, b0, b1, iso) == "True"
        for _ in range(4):
            mutant = _mutant(rng, iso)
            verdict = _verdict(verify_isomorphism, b0, b1, mutant)
            assert verdict == _verdict(ref.verify_isomorphism, b0, b1, mutant), (
                b0, b1, mutant)
            assert print_iso(mutant) == ref.print_iso(mutant)
            verdicts.append(verdict)
    messages = {v.split(" in cluster")[0] for v in verdicts}
    assert len(messages) >= 6 and "True" in messages, messages


def test_canonical_forms_agree() -> None:
    rng = random.Random(SEED)
    for _ in range(3000):
        b = random_balanced_algebra(rng, 4)
        assert canonical_form(b) == ref.canonical_form(b), b
