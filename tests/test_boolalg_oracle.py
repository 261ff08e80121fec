"""Differential test: the element algebra derived from meet and complement,
the digit-by-digit piece normaliser and the one-pass surplus routing in
`compacta.boolalg` against the written-out code kept in `direct_boolalg`.

The normalisers must agree on every set of binary words of length at
most 3.  Join, order and top must agree on seeded element pairs of three
cluster shapes, with atomless pieces left unnormalised.  The printed atom
isomorphism, or the refusal, must be byte-identical on seeded algebra
pairs and on a grid of finite surpluses against omega clusters.
"""

from __future__ import annotations

import itertools
import random

import direct_boolalg as ref
from compacta.boolalg import (
    NO_PIECE,
    ClusterPart,
    Element,
    LabelledBA,
    Selection,
    _piece_normalize,
    algebra,
    bottom,
    build_isomorphism,
    cluster,
    join,
    le,
    print_iso,
    top,
)
from compacta.randgen import random_algebra_pair, random_small_pair

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
    if card.is_omega:
        ids = frozenset(i for i in range(4) if rng.random() < 0.4)
        return Selection(rng.choice(("fin", "cof")), ids)
    ids = frozenset(i for i in range(card.value) if rng.random() < 0.5)
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
    try:
        return print_iso(build(b0, b1))
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
