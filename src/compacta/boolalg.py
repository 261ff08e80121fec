"""Boolean algebras with a distinguished atom predicate.

An algebra here is a finite product of clusters.  A cluster carries some
atoms satisfying the predicate `in` (finitely many or a full omega
species), some plain junk atoms (likewise), and optionally an atomless
factor.  A count is an int, and None stands for omega (`w` in the text
format).  Elements select, per cluster, a finite or cofinite set from each
atom species plus a piece of the atomless factor, so all Boolean
operations, atom counts below an element, and the balance condition
relating the two species are exactly decidable.

The atomless piece is modelled as a finite union of dyadic prefixes
(binary strings), which keeps complements and meets total instead of
forcing a lossy three-valued abstraction.  Pieces are normalised one
binary digit at a time, and an element normalises its pieces when it is
built, so equal elements are equal regions.  Meet and complement are the
only primitives: join, order and top are derived from them (De Morgan,
x <= y iff x & y == x, and the complement of bottom).

The quotient operator divides by the ideal generated by the junk atoms.
A cluster with cofinitely many junk atoms leaves one residue class
behind (the class of its cofinite junk selections), which is why
quotients can gain an atom; a cluster with omega in-atoms keeps its
finite/cofinite shape.  Canonical forms make both isomorphism of labelled
algebras and isomorphism of their quotients decidable, and the
back-and-forth constructor realizes any quotient isomorphism as an
atom-level isomorphism once the balance and junk-total gates pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Literal

from .compactum import (
    Cantor,
    Interval,
    Point,
    SymbolicCompactum,
    from_parts,
    glue_classes,
)
from .dyadic import address_ends, parse_natural, read_lines
from .trees import ETA, TERMINAL, LabelledTree


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """Counts of in- and junk atoms, each a natural number or None (omega)."""

    n_in: int | None
    n_junk: int | None
    has_atomless: bool = False

    def __post_init__(self) -> None:
        if any(n is not None and n < 0 for n in (self.n_in, self.n_junk)):
            raise ValueError("cardinality must be a natural number or omega")
        if self.n_in == 0 and self.n_junk == 0 and not self.has_atomless:
            raise ValueError("cluster must carry at least one atom or an atomless part")


cluster = Cluster


def _total(counts: Iterable[int | None]) -> int | None:
    """The sum of the counts, or None (omega) if any count is None."""
    counts = list(counts)
    return None if None in counts else sum(counts)


@dataclass(frozen=True)
class LabelledBA:
    clusters: tuple[Cluster, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", tuple(self.clusters))

    def total_in(self) -> int | None:
        return _total(c.n_in for c in self.clusters)

    def total_junk(self) -> int | None:
        return _total(c.n_junk for c in self.clusters)

    def has_atomless(self) -> bool:
        return any(c.has_atomless for c in self.clusters)

    def omega_clusters(self) -> list[int]:
        return [
            i for i, c in enumerate(self.clusters) if c.n_in is None or c.n_junk is None
        ]


def algebra(*clusters: Cluster) -> LabelledBA:
    return LabelledBA(tuple(clusters))


# ---------------------------------------------------------------------------
# Elements: per-cluster finite/cofinite selections plus an atomless piece
# ---------------------------------------------------------------------------

IN = "in"
JUNK = "junk"


@dataclass(frozen=True)
class Selection:
    """Finite set of atom indices, or the complement of one (omega only)."""

    kind: Literal["fin", "cof"]
    ids: frozenset[int]

    def __post_init__(self) -> None:
        if self.kind not in ("fin", "cof"):
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if any(i < 0 for i in self.ids):
            raise ValueError("atom indices are natural numbers")


EMPTY_SEL = Selection("fin", frozenset())


def take(k: int) -> Selection:
    """The first k atoms of a species."""
    return Selection("fin", frozenset(range(k)))


def _sel_valid(sel: Selection, card: int | None) -> bool:
    if sel.kind == "cof":
        return card is None
    return card is None or all(i < card for i in sel.ids)


def _sel_complement(sel: Selection, card: int | None) -> Selection:
    if card is None:
        return Selection("cof" if sel.kind == "fin" else "fin", sel.ids)
    return Selection("fin", frozenset(range(card)) - sel.ids)


def _sel_meet(a: Selection, b: Selection) -> Selection:
    if a.kind == "fin" and b.kind == "fin":
        return Selection("fin", a.ids & b.ids)
    if a.kind == "cof" and b.kind == "cof":
        return Selection("cof", a.ids | b.ids)
    f, c = (a, b) if a.kind == "fin" else (b, a)
    return Selection("fin", f.ids - c.ids)


# Atomless pieces: antichains of binary strings, each naming a dyadic slice.
# Meet and complement keep antichains; the Element holding a piece
# normalises it, once.

Piece = frozenset[str]

NO_PIECE: Piece = frozenset()
ALL_PIECE: Piece = frozenset({""})


def _piece_normalize(words: Iterable[str]) -> Piece:
    """The antichain of maximal slices, read one binary digit at a time."""
    words = set(words)
    if not words:
        return NO_PIECE
    if "" in words:
        return ALL_PIECE
    zero, one = (_piece_normalize(w[1:] for w in words if w[0] == d) for d in "01")
    if zero == one == ALL_PIECE:
        return ALL_PIECE
    return frozenset({"0" + w for w in zero} | {"1" + w for w in one})


def _piece_meet(a: Piece, b: Piece) -> Piece:
    out = set()
    for x in a:
        for y in b:
            if x.startswith(y):
                out.add(x)
            elif y.startswith(x):
                out.add(y)
    return frozenset(out)


def _piece_complement(a: Piece) -> Piece:
    out = ALL_PIECE
    for w in a:
        siblings = frozenset(
            w[:i] + ("1" if w[i] == "0" else "0") for i in range(len(w))
        )
        out = _piece_meet(out, siblings)
    return out


@dataclass(frozen=True)
class ClusterPart:
    in_sel: Selection = EMPTY_SEL
    junk_sel: Selection = EMPTY_SEL
    atomless: Piece = NO_PIECE


@dataclass(frozen=True)
class Element:
    algebra: LabelledBA
    parts: tuple[ClusterPart, ...]

    def __post_init__(self) -> None:
        if len(self.parts) != len(self.algebra.clusters):
            raise ValueError("element must select from every cluster")
        for part, cl in zip(self.parts, self.algebra.clusters):
            if not _sel_valid(part.in_sel, cl.n_in):
                raise ValueError("in-selection exceeds the cluster")
            if not _sel_valid(part.junk_sel, cl.n_junk):
                raise ValueError("junk-selection exceeds the cluster")
            if part.atomless != NO_PIECE and not cl.has_atomless:
                raise ValueError("cluster has no atomless part to select from")
            for w in sorted(part.atomless):
                if not set(w) <= {"0", "1"}:
                    raise ValueError(f"atomless word {w!r} is not binary")
        parts = (replace(p, atomless=_piece_normalize(p.atomless)) for p in self.parts)
        object.__setattr__(self, "parts", tuple(parts))


def bottom(b: LabelledBA) -> Element:
    return Element(b, tuple(ClusterPart() for _ in b.clusters))


def complement(x: Element) -> Element:
    parts = []
    for part, cl in zip(x.parts, x.algebra.clusters):
        parts.append(
            ClusterPart(
                _sel_complement(part.in_sel, cl.n_in),
                _sel_complement(part.junk_sel, cl.n_junk),
                _piece_complement(part.atomless) if cl.has_atomless else NO_PIECE,
            )
        )
    return Element(x.algebra, tuple(parts))


def _zip_parts(x: Element, y: Element) -> Iterable[tuple[ClusterPart, ClusterPart]]:
    if x.algebra != y.algebra:
        raise ValueError("elements live in different algebras")
    return zip(x.parts, y.parts)


def meet(x: Element, y: Element) -> Element:
    parts = tuple(
        ClusterPart(
            _sel_meet(p.in_sel, q.in_sel),
            _sel_meet(p.junk_sel, q.junk_sel),
            _piece_meet(p.atomless, q.atomless),
        )
        for p, q in _zip_parts(x, y)
    )
    return Element(x.algebra, parts)


def join(x: Element, y: Element) -> Element:
    return complement(meet(complement(x), complement(y)))


def le(x: Element, y: Element) -> bool:
    return meet(x, y) == x


def top(b: LabelledBA) -> Element:
    return complement(bottom(b))


@dataclass(frozen=True)
class AtomRef:
    cluster: int
    species: str
    index: int


def atom(b: LabelledBA, ref: AtomRef) -> Element:
    if not 0 <= ref.cluster < len(b.clusters):
        raise ValueError(f"no cluster {ref.cluster} in the algebra")
    if ref.species not in (IN, JUNK):
        raise ValueError(
            f"no species {ref.species!r} in a cluster: it has {IN} and {JUNK}"
        )
    cl = b.clusters[ref.cluster]
    card = cl.n_in if ref.species == IN else cl.n_junk
    if card is not None and ref.index >= card:
        raise ValueError("atom index exceeds the species")
    parts = [ClusterPart() for _ in b.clusters]
    sel = Selection("fin", frozenset({ref.index}))
    if ref.species == IN:
        parts[ref.cluster] = ClusterPart(in_sel=sel)
    else:
        parts[ref.cluster] = ClusterPart(junk_sel=sel)
    return Element(b, tuple(parts))


def is_atom(x: Element) -> bool:
    singletons = 0
    for part in x.parts:
        if part.atomless != NO_PIECE:
            return False  # atomless pieces sit above no atom
        for sel in (part.in_sel, part.junk_sel):
            if sel.kind == "cof":
                return False
            singletons += len(sel.ids)
    return singletons == 1


def holds_in(x: Element) -> bool:
    """The distinguished predicate: true on in-species atoms only."""
    return is_atom(x) and any(len(p.in_sel.ids) == 1 for p in x.parts)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def clopen_algebra(s: SymbolicCompactum) -> LabelledBA:
    """Algebra of clopen subsets with intervals as the in-atoms.

    Unglued points and intervals land in one finite cluster.  Each Cantor
    copy is an atomless cluster.  An unglued sequence is a finite/cofinite
    cluster of junk atoms.  A glue group is one cluster: its sequences
    contribute omega junk atoms, its host contributes no atom at all
    (no clopen set isolates the host from the sequence tails), and a
    Cantor host keeps an atomless part.
    """
    n_in = 0
    n_junk = 0
    extra: list[Cluster] = []
    for kind, n in glue_classes(s):
        if n:
            extra.append(cluster(0, None, kind is Cantor))
        elif kind is Point:
            n_junk += 1
        elif kind is Interval:
            n_in += 1
        elif kind is Cantor:
            extra.append(cluster(0, 0, True))
        else:
            extra.append(cluster(0, None))
    clusters: list[Cluster] = []
    if n_in or n_junk:
        clusters.append(cluster(n_in, n_junk))
    clusters.extend(extra)
    return LabelledBA(tuple(clusters))


def tree_algebra(t: LabelledTree) -> LabelledBA:
    """The plain algebra a tree codes: one atom per terminal leaf, one
    atomless factor per eta leaf, no in-labels anywhere."""
    n_atoms = sum(1 for n in t.nodes.values() if n.kind == TERMINAL)
    n_eta = sum(1 for n in t.nodes.values() if n.kind == ETA)
    clusters: list[Cluster] = []
    if n_atoms:
        clusters.append(cluster(0, n_atoms))
    clusters.extend(cluster(0, 0, True) for _ in range(n_eta))
    if not clusters:
        raise ValueError("tree codes no algebra: no terminal or eta leaves")
    return LabelledBA(tuple(clusters))


def stone_space(t: LabelledTree) -> SymbolicCompactum:
    """Leaf skeleton of a tree as a compactum: isolated paths become the
    midpoints of their intervals, eta leaves become Cantor copies."""
    parts = []
    for addr, node in t.nodes.items():
        if node.kind in (TERMINAL, ETA):
            lo, e = address_ends(addr)
            if node.kind == TERMINAL:
                parts.append((Point, lo + 1, lo + 1, e))
            else:
                parts.append((Cantor, lo, lo + 2, e))
    return from_parts(parts)


def quotient_by_junk(b: LabelledBA) -> LabelledBA:
    """Quotient by the ideal the junk atoms generate, forgetting in-labels.

    Finite junk dies outright.  A cluster with omega junk leaves one
    residue atom: the class of its cofinite junk selections, which no
    finite sum of junk atoms reaches.  When the in-species is omega too,
    that residue merges into the surviving finite/cofinite shape.  The
    resulting plain atoms are reported in the junk slot, since the in
    predicate fails everywhere after the quotient.
    """
    clusters: list[Cluster] = []
    for cl in b.clusters:
        survivors = cl.n_in
        if survivors is not None and cl.n_junk is None:
            survivors += 1
        if survivors == 0 and not cl.has_atomless:
            continue
        clusters.append(cluster(0, survivors, cl.has_atomless))
    return LabelledBA(tuple(clusters))


def is_balanced(b: LabelledBA) -> bool:
    """Per cluster, the two species are finite together or omega together."""
    return all((c.n_in is None) == (c.n_junk is None) for c in b.clusters)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BAForm:
    """Complete isomorphism invariant for labelled cluster algebras.

    A finite batch of atoms merges into an omega block of its own species,
    and atomless factors collapse to one, so only block counts, residual
    finite counts, and atomless presence remain.
    """

    omega_in: int
    omega_junk: int
    fin_in: int
    fin_junk: int
    atomless: bool


def canonical_form(b: LabelledBA) -> BAForm:
    return BAForm(
        omega_in=sum(c.n_in is None for c in b.clusters),
        omega_junk=sum(c.n_junk is None for c in b.clusters),
        fin_in=b.total_in() or 0,
        fin_junk=b.total_junk() or 0,
        atomless=b.has_atomless(),
    )


# ---------------------------------------------------------------------------
# Quotient isomorphisms and the back-and-forth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientIso:
    """Pairing of the omega clusters of two algebras (the finite parts of
    the quotients match by counting, so the pairing is all that varies)."""

    omega_pairs: tuple[tuple[int, int], ...]

    def validate(self, b0: LabelledBA, b1: LabelledBA) -> None:
        if canonical_form(quotient_by_junk(b0)) != canonical_form(
            quotient_by_junk(b1)
        ):
            raise ValueError("quotients are not isomorphic")
        w0, w1 = b0.omega_clusters(), b1.omega_clusters()
        if sorted(i for i, _ in self.omega_pairs) != w0 or sorted(
            j for _, j in self.omega_pairs
        ) != w1:
            raise ValueError("pairing does not cover the omega clusters")


def derive_quotient_iso(b0: LabelledBA, b1: LabelledBA) -> QuotientIso:
    iso = QuotientIso(tuple(zip(b0.omega_clusters(), b1.omega_clusters())))
    iso.validate(b0, b1)
    return iso


@dataclass(frozen=True)
class BlockPair:
    """An omega species mapped onto another in index order, minus skips."""

    src: tuple[int, str]
    dst: tuple[int, str]
    skip_src: frozenset[int] = frozenset()
    skip_dst: frozenset[int] = frozenset()


@dataclass(frozen=True)
class AtomIso:
    atom_pairs: tuple[tuple[AtomRef, AtomRef], ...]
    block_pairs: tuple[BlockPair, ...]
    atomless_pair: tuple[tuple[int, ...], tuple[int, ...]] | None


def build_isomorphism(
    b0: LabelledBA, b1: LabelledBA, f: QuotientIso | None = None
) -> AtomIso:
    """Lift a quotient isomorphism to a label-preserving atom isomorphism.

    Gates: both algebras balanced; quotients isomorphic; equal junk
    totals.  For balanced algebras the quotient gate already fixes the
    number of omega clusters, the in-atom total when there is none, and
    whether an atomless part exists, so only the junk total is left to
    check (it is omega on both sides once either has an omega cluster).
    Once the gates pass the construction cannot get stuck: finite atoms
    pair off species by species in a fixed order, any surplus is absorbed
    into the first omega block of the same species, and omega blocks
    follow the quotient pairing.
    """
    if not is_balanced(b0) or not is_balanced(b1):
        raise ValueError("balance condition fails: a cluster mixes finite "
                         "and omega species")
    if f is None:
        f = derive_quotient_iso(b0, b1)
    else:
        f.validate(b0, b1)
    if b0.total_junk() != b1.total_junk():
        raise ValueError("finite atom totals differ")

    atom_pairs: list[tuple[AtomRef, AtomRef]] = []
    block_pairs: list[BlockPair] = []
    for species in (IN, JUNK):
        fin0 = _finite_atoms(b0, species)
        fin1 = _finite_atoms(b1, species)
        atom_pairs.extend(zip(fin0, fin1))
        extra0, extra1 = fin0[len(fin1):], fin1[len(fin0):]
        for c0, c1 in f.omega_pairs:
            # the first pair's hosts absorb the other side's surplus
            atom_pairs += [(r, AtomRef(c1, species, k)) for k, r in enumerate(extra0)]
            atom_pairs += [(AtomRef(c0, species, k), r) for k, r in enumerate(extra1)]
            skips = frozenset(range(len(extra1))), frozenset(range(len(extra0)))
            block_pairs.append(BlockPair((c0, species), (c1, species), *skips))
            extra0 = extra1 = []
    atomless0 = tuple(i for i, c in enumerate(b0.clusters) if c.has_atomless)
    atomless1 = tuple(i for i, c in enumerate(b1.clusters) if c.has_atomless)
    iso = AtomIso(
        atom_pairs=tuple(atom_pairs),
        block_pairs=tuple(block_pairs),
        atomless_pair=(atomless0, atomless1) if atomless0 else None,
    )
    verify_isomorphism(b0, b1, iso)
    return iso


def _finite_atoms(b: LabelledBA, species: str) -> list[AtomRef]:
    refs = []
    for i, cl in enumerate(b.clusters):
        card = cl.n_in if species == IN else cl.n_junk
        if card is not None:
            refs.extend(AtomRef(i, species, k) for k in range(card))
    return refs


def verify_isomorphism(b0: LabelledBA, b1: LabelledBA, iso: AtomIso) -> bool:
    """Check bijectivity on atoms, label preservation, and block coverage."""
    for a, b in iso.atom_pairs:
        if a.species != b.species:
            raise ValueError("pairing does not preserve the atom label")
    for bp in iso.block_pairs:
        if bp.src[1] != bp.dst[1]:
            raise ValueError("block pairing does not preserve the species")
    _check_cover(b0, iso, side=0)
    _check_cover(b1, iso, side=1)
    has0 = b0.has_atomless()
    has1 = b1.has_atomless()
    if has0 != has1 or (has0 and iso.atomless_pair is None):
        raise ValueError("atomless parts not matched")
    return True


def _check_cover(b: LabelledBA, iso: AtomIso, side: int) -> None:
    """The one check of the iso's references on one side against b: each
    names a species of b, a finite species is paired atom by atom, and an
    omega species is one block whose skips are its explicit pairs."""
    cards: dict[tuple[int, str], int | None] = {}
    for c, cl in enumerate(b.clusters):
        cards[c, IN], cards[c, JUNK] = cl.n_in, cl.n_junk
    explicit: dict[tuple[int, str], set[int]] = {}
    for pair in iso.atom_pairs:
        ref = pair[side]
        key = (ref.cluster, ref.species)
        if key not in cards or ref.index < 0:
            raise ValueError(f"no atom {ref.index} in {_where(key)}")
        ids = explicit.setdefault(key, set())
        if ref.index in ids:
            raise ValueError("an atom appears twice in the pairing")
        ids.add(ref.index)
    blocks: dict[tuple[int, str], BlockPair] = {}
    for bp in iso.block_pairs:
        key = bp.src if side == 0 else bp.dst
        if key not in cards:
            raise ValueError(f"block on {_where(key)}, which the algebra lacks")
        if key in blocks:
            raise ValueError("an omega species appears in two block pairs")
        blocks[key] = bp
    for key, card in cards.items():
        used = explicit.get(key, set())
        if card is None:
            bp = blocks.get(key)
            if bp is None:
                raise ValueError(f"omega {_where(key)} not covered by a block")
            skip = bp.skip_src if side == 0 else bp.skip_dst
            if used != set(skip):
                raise ValueError(
                    f"block skips of {_where(key)} disagree with its pairs"
                )
        else:
            if key in blocks:
                raise ValueError(f"finite {_where(key)} cannot form a block")
            if used != set(range(card)):
                raise ValueError(f"finite {_where(key)} not fully paired")


def _where(key: tuple[int, str]) -> str:
    return f"cluster {key[0]} species {key[1]}"


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def print_ba(b: LabelledBA) -> str:
    lines = ["ba v1"]
    for cl in b.clusters:
        atomless = 1 if cl.has_atomless else 0
        n_in, n_junk = ("w" if n is None else n for n in (cl.n_in, cl.n_junk))
        lines.append(f"cluster in={n_in} junk={n_junk} atomless={atomless}")
    return "\n".join(lines) + "\n"


def _cluster_line(**opts: str) -> Cluster:
    if len(opts) != 3 or opts["atomless"] not in ("0", "1"):
        raise ValueError("cluster needs in=, junk= and atomless= of 0 or 1")
    n_in, n_junk = (
        None if opts[k] == "w" else parse_natural(opts[k]) for k in ("in", "junk")
    )
    return Cluster(n_in, n_junk, opts["atomless"] == "1")


def parse_ba(text: str) -> LabelledBA:
    cluster = (0, _cluster_line, "in", "junk", "atomless")
    return LabelledBA(tuple(read_lines(text, "ba v1", {"cluster": cluster})))


def print_iso(iso: AtomIso) -> str:
    lines = []
    for a, b in iso.atom_pairs:
        lines.append(
            f"atom {a.cluster}.{a.species}.{a.index} -> "
            f"{b.cluster}.{b.species}.{b.index}"
        )
    for bp in iso.block_pairs:
        skip0 = ",".join(str(i) for i in sorted(bp.skip_src))
        skip1 = ",".join(str(i) for i in sorted(bp.skip_dst))
        suffix = ""
        if skip0 or skip1:
            suffix = f" skip {skip0 or '-'} -> {skip1 or '-'}"
        lines.append(
            f"bulk {bp.src[0]}.{bp.src[1]} -> {bp.dst[0]}.{bp.dst[1]}{suffix}"
        )
    if iso.atomless_pair is not None:
        lines.append("atomless")
    return "\n".join(lines) + "\n"
