"""The element algebra with every operation written out, and the atom
isomorphism's surplus handled case by case: the differential oracle for
the derived operations in `compacta.boolalg`.

Here join, order and top each have their own code for selections and
for atomless pieces, pieces are normalised by a fixpoint that restarts
after every change, and the surplus of finite atoms is routed through
per-side skip tables.  Only `Selection`, the element types and the
isomorphism's gates and checks are shared with the package.
"""

from __future__ import annotations

from typing import Iterable

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
    Piece,
    QuotientIso,
    Selection,
    _finite_atoms,
    derive_quotient_iso,
    is_balanced,
    take,
    verify_isomorphism,
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


def build_isomorphism(
    b0: LabelledBA, b1: LabelledBA, f: QuotientIso | None = None
) -> AtomIso:
    if not is_balanced(b0) or not is_balanced(b1):
        raise ValueError("balance condition fails: a cluster mixes finite "
                         "and omega species")
    if f is None:
        f = derive_quotient_iso(b0, b1)
    else:
        f.validate(b0, b1)
    t_in0, t_in1 = b0.total_in(), b1.total_in()
    if (t_in0 is None) != (t_in1 is None):
        raise ValueError("one in-species is infinite, the other finite")
    if t_in0 is not None:
        if t_in0 != t_in1 or b0.total_junk() != b1.total_junk():
            raise ValueError("finite atom totals differ")
    if b0.has_atomless() != b1.has_atomless():
        raise ValueError("atomless parts do not match")

    atom_pairs: list[tuple[AtomRef, AtomRef]] = []
    block_pairs: list[BlockPair] = []
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
            block_pairs.append(
                BlockPair(
                    (c0, species),
                    (c1, species),
                    frozenset(skips0.get(c0, ())),
                    frozenset(skips1.get(c1, ())),
                )
            )
    atomless0 = tuple(i for i, c in enumerate(b0.clusters) if c.has_atomless)
    atomless1 = tuple(i for i, c in enumerate(b1.clusters) if c.has_atomless)
    iso = AtomIso(
        atom_pairs=tuple(atom_pairs),
        block_pairs=tuple(block_pairs),
        atomless_pair=(atomless0, atomless1) if atomless0 else None,
    )
    verify_isomorphism(b0, b1, iso)
    return iso
