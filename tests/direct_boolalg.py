"""The element algebra with every operation written out, and the atom
isomorphism built and checked atom by atom: the differential oracle for
the derived operations and the runs in `compacta.boolalg`.

Here join, order and top each have their own code for selections and
for atomless pieces, pieces are normalised by a fixpoint that restarts
after every change, and the surplus of finite atoms is routed through
per-side skip tables.  The isomorphism is built as one `AtomRef` pair
per finite atom and a skip set per block side, and checked and printed
through the same per-atom form: `compressed` turns that form into the
package's runs and skip ranges, and `expanded` turns runs and ranges back
into it.  The canonical form takes one pass per field.  Only `Selection`,
`take`, `is_balanced`, the element and isomorphism types and the quotient
are shared with the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from compacta.boolalg import (
    ALL_PIECE,
    IN,
    JUNK,
    NO_PIECE,
    AtomIso,
    AtomRef,
    BAForm,
    BlockPair,
    ClusterPart,
    Element,
    LabelledBA,
    Piece,
    QuotientIso,
    Selection,
    is_balanced,
    quotient_by_junk,
    take,
)


def piece_normalize(words: Iterable[str]) -> Piece:
    current = set(words)
    changed = True
    while changed:
        changed = False
        for w in sorted(current, key=len):
            if any(w != v and w.startswith(v) for v in current):
                current.discard(w)
                changed = True
                break
            if w and w[:-1] + ("1" if w[-1] == "0" else "0") in current:
                current.discard(w)
                current.discard(w[:-1] + ("1" if w[-1] == "0" else "0"))
                current.add(w[:-1])
                changed = True
                break
    return frozenset(current)


def _piece_meet(a: Piece, b: Piece) -> Piece:
    out = set()
    for x in a:
        for y in b:
            if x.startswith(y):
                out.add(x)
            elif y.startswith(x):
                out.add(y)
    return piece_normalize(out)


def _sel_meet(a: Selection, b: Selection) -> Selection:
    if a.kind == "fin" and b.kind == "fin":
        return Selection("fin", a.ids & b.ids)
    if a.kind == "cof" and b.kind == "cof":
        return Selection("cof", a.ids | b.ids)
    f, c = (a, b) if a.kind == "fin" else (b, a)
    return Selection("fin", f.ids - c.ids)


def _sel_join(a: Selection, b: Selection) -> Selection:
    if a.kind == "fin" and b.kind == "fin":
        return Selection("fin", a.ids | b.ids)
    if a.kind == "cof" and b.kind == "cof":
        return Selection("cof", a.ids & b.ids)
    f, c = (a, b) if a.kind == "fin" else (b, a)
    return Selection("cof", c.ids - f.ids)


def _pairs(x: Element, y: Element) -> Iterable[tuple[ClusterPart, ClusterPart]]:
    if x.algebra != y.algebra:
        raise ValueError("elements live in different algebras")
    return zip(x.parts, y.parts)


def join(x: Element, y: Element) -> Element:
    parts = tuple(
        ClusterPart(
            _sel_join(p.in_sel, q.in_sel),
            _sel_join(p.junk_sel, q.junk_sel),
            piece_normalize(set(p.atomless) | set(q.atomless)),
        )
        for p, q in _pairs(x, y)
    )
    return Element(x.algebra, parts)


def le(x: Element, y: Element) -> bool:
    return all(
        _sel_meet(p.in_sel, q.in_sel) == p.in_sel
        and _sel_meet(p.junk_sel, q.junk_sel) == p.junk_sel
        and _piece_meet(p.atomless, q.atomless) == p.atomless
        for p, q in _pairs(x, y)
    )


def top(b: LabelledBA) -> Element:
    parts = []
    every = Selection("cof", frozenset())
    for cl in b.clusters:
        in_sel = every if cl.n_in is None else take(cl.n_in)
        junk_sel = every if cl.n_junk is None else take(cl.n_junk)
        parts.append(
            ClusterPart(in_sel, junk_sel, ALL_PIECE if cl.has_atomless else NO_PIECE)
        )
    return Element(b, tuple(parts))


# The per-atom form: one pair of `AtomRef`s per finite atom, and per block
# (src, dst, skip_src, skip_dst) with a skip set per side.

AtomPair = tuple[AtomRef, AtomRef]
Block = tuple[tuple[int, str], tuple[int, str], frozenset[int], frozenset[int]]


def compressed(
    pairs: Iterable[AtomPair],
    blocks: Iterable[Block] = (),
    atomless_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> AtomIso:
    """The package's isomorphism of the per-atom form: a pair that steps
    both indices of the pair before it by one extends that pair's run, and
    each skip set becomes sorted, merged [lo, hi) ranges."""
    runs: list[tuple] = []
    after = None
    for a, b in pairs:
        refs = (a.cluster, a.species, a.index), (b.cluster, b.species, b.index)
        if refs == after:
            runs[-1] = (*runs[-1][:2], runs[-1][2] + 1)
        else:
            runs.append((*refs, 1))
        after = tuple((c, species, i + 1) for c, species, i in refs)
    block_pairs = tuple(
        BlockPair(src, dst, (_ranges(skip_src), _ranges(skip_dst)))
        for src, dst, skip_src, skip_dst in blocks
    )
    return AtomIso(tuple(runs), block_pairs, atomless_pair)


def _ranges(ids: Iterable[int]) -> tuple[tuple[int, int], ...]:
    ranges: list[tuple[int, int]] = []
    for i in sorted(set(ids)):
        if ranges and ranges[-1][1] == i:
            ranges[-1] = (ranges[-1][0], i + 1)
        else:
            ranges.append((i, i + 1))
    return tuple(ranges)


def expanded(iso: AtomIso) -> tuple[tuple[AtomPair, ...], tuple[Block, ...]]:
    """The per-atom form of the package's isomorphism: each run's pairs in
    order, and each block with its skip ranges as sets."""
    pairs = tuple(
        (AtomRef(c0, s0, i0 + k), AtomRef(c1, s1, i1 + k))
        for (c0, s0, i0), (c1, s1, i1), n in iso.runs
        for k in range(n)
    )
    blocks = tuple(
        (bp.src, bp.dst, *(
            frozenset(i for lo, hi in ranges for i in range(lo, hi))
            for ranges in bp.skip_ranges
        ))
        for bp in iso.block_pairs
    )
    return pairs, blocks


def build_isomorphism(
    b0: LabelledBA, b1: LabelledBA, f: QuotientIso | None = None
) -> AtomIso:
    if not is_balanced(b0) or not is_balanced(b1):
        raise ValueError("balance condition fails: a cluster mixes finite "
                         "and omega species")
    if f is None:
        f = QuotientIso(tuple(zip(b0.omega_clusters(), b1.omega_clusters())))
    _validate(f, b0, b1)
    t_in0, t_in1 = b0.total_in(), b1.total_in()
    if (t_in0 is None) != (t_in1 is None):
        raise ValueError("one in-species is infinite, the other finite")
    if t_in0 is not None:
        if t_in0 != t_in1 or b0.total_junk() != b1.total_junk():
            raise ValueError("finite atom totals differ")
    if b0.has_atomless() != b1.has_atomless():
        raise ValueError("atomless parts do not match")

    atom_pairs: list[tuple[AtomRef, AtomRef]] = []
    blocks: list[Block] = []
    for species in (IN, JUNK):
        fin0 = _finite_atoms(b0, species)
        fin1 = _finite_atoms(b1, species)
        shared = min(len(fin0), len(fin1))
        atom_pairs.extend(zip(fin0[:shared], fin1[:shared]))
        skips0: dict[int, set[int]] = {}
        skips1: dict[int, set[int]] = {}
        if len(fin0) > shared:
            host = f.omega_pairs[0][1]
            skips1[host] = set(range(len(fin0) - shared))
            for k, ref in enumerate(fin0[shared:]):
                atom_pairs.append((ref, AtomRef(host, species, k)))
        elif len(fin1) > shared:
            host = f.omega_pairs[0][0]
            skips0[host] = set(range(len(fin1) - shared))
            for k, ref in enumerate(fin1[shared:]):
                atom_pairs.append((AtomRef(host, species, k), ref))
        for c0, c1 in f.omega_pairs:
            blocks.append(
                (
                    (c0, species),
                    (c1, species),
                    frozenset(skips0.get(c0, ())),
                    frozenset(skips1.get(c1, ())),
                )
            )
    atomless0 = tuple(i for i, c in enumerate(b0.clusters) if c.has_atomless)
    atomless1 = tuple(i for i, c in enumerate(b1.clusters) if c.has_atomless)
    atomless = (atomless0, atomless1) if atomless0 else None
    iso = compressed(atom_pairs, blocks, atomless)
    verify_isomorphism(b0, b1, iso)
    return iso


def canonical_form(b: LabelledBA) -> BAForm:
    return BAForm(
        omega_in=sum(c.n_in is None for c in b.clusters),
        omega_junk=sum(c.n_junk is None for c in b.clusters),
        fin_in=b.total_in() or 0,
        fin_junk=b.total_junk() or 0,
        atomless=b.has_atomless(),
    )


def _validate(f: QuotientIso, b0: LabelledBA, b1: LabelledBA) -> None:
    if canonical_form(quotient_by_junk(b0)) != canonical_form(quotient_by_junk(b1)):
        raise ValueError("quotients are not isomorphic")
    w0, w1 = b0.omega_clusters(), b1.omega_clusters()
    if sorted(i for i, _ in f.omega_pairs) != w0 or sorted(
        j for _, j in f.omega_pairs
    ) != w1:
        raise ValueError("pairing does not cover the omega clusters")


def _finite_atoms(b: LabelledBA, species: str) -> list[AtomRef]:
    refs = []
    for i, cl in enumerate(b.clusters):
        card = cl.n_in if species == IN else cl.n_junk
        if card is not None:
            refs.extend(AtomRef(i, species, k) for k in range(card))
    return refs


def verify_isomorphism(b0: LabelledBA, b1: LabelledBA, iso: AtomIso) -> bool:
    pairs, blocks = expanded(iso)
    for a, b in pairs:
        if a.species != b.species:
            raise ValueError("pairing does not preserve the atom label")
    for src, dst, _, _ in blocks:
        if src[1] != dst[1]:
            raise ValueError("block pairing does not preserve the species")
    _check_cover(b0, pairs, blocks, side=0)
    _check_cover(b1, pairs, blocks, side=1)
    has0 = b0.has_atomless()
    has1 = b1.has_atomless()
    if has0 != has1 or (has0 and iso.atomless_pair is None):
        raise ValueError("atomless parts not matched")
    return True


def _check_cover(
    b: LabelledBA, pairs: Sequence[AtomPair], blocks: Sequence[Block], side: int
) -> None:
    cards: dict[tuple[int, str], int | None] = {}
    for c, cl in enumerate(b.clusters):
        cards[c, IN], cards[c, JUNK] = cl.n_in, cl.n_junk
    explicit: dict[tuple[int, str], set[int]] = {}
    for pair in pairs:
        ref = pair[side]
        key = (ref.cluster, ref.species)
        if key not in cards or ref.index < 0:
            raise ValueError(f"no atom {ref.index} in {_where(key)}")
        ids = explicit.setdefault(key, set())
        if ref.index in ids:
            raise ValueError("an atom appears twice in the pairing")
        ids.add(ref.index)
    skips: dict[tuple[int, str], frozenset[int]] = {}
    for block in blocks:
        key = block[side]
        if key not in cards:
            raise ValueError(f"block on {_where(key)}, which the algebra lacks")
        if key in skips:
            raise ValueError("an omega species appears in two block pairs")
        skips[key] = block[2 + side]
    for key, card in cards.items():
        used = explicit.get(key, set())
        if card is None:
            skip = skips.get(key)
            if skip is None:
                raise ValueError(f"omega {_where(key)} not covered by a block")
            if used != set(skip):
                raise ValueError(
                    f"block skips of {_where(key)} disagree with its pairs"
                )
        else:
            if key in skips:
                raise ValueError(f"finite {_where(key)} cannot form a block")
            if used != set(range(card)):
                raise ValueError(f"finite {_where(key)} not fully paired")


def _where(key: tuple[int, str]) -> str:
    return f"cluster {key[0]} species {key[1]}"


def print_iso(iso: AtomIso) -> str:
    lines = []
    pairs, blocks = expanded(iso)
    for a, b in pairs:
        lines.append(
            f"atom {a.cluster}.{a.species}.{a.index} -> "
            f"{b.cluster}.{b.species}.{b.index}"
        )
    for src, dst, skip_src, skip_dst in blocks:
        skip0 = ",".join(str(i) for i in sorted(skip_src))
        skip1 = ",".join(str(i) for i in sorted(skip_dst))
        suffix = ""
        if skip0 or skip1:
            suffix = f" skip {skip0 or '-'} -> {skip1 or '-'}"
        lines.append(f"bulk {src[0]}.{src[1]} -> {dst[0]}.{dst[1]}{suffix}")
    if iso.atomless_pair is not None:
        lines.append("atomless")
    return "\n".join(lines) + "\n"

