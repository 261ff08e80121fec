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

That isomorphism is its runs of finite atoms and its omega blocks.  A
run ((c0, species, i0), (c1, species, i1), n) sends atom i0 + k of
cluster c0 to atom i1 + k of cluster c1 for k < n; the builder ends a run
where a cluster ends on either side.  A block holds its skips the same
way, as sorted, merged [lo, hi) index ranges per side.  The builder reads
each algebra once, and takes the quotient gate's forms in closed form
(`quotient_form`) without building the quotients.  The check refuses a
run of fewer than one atom and skips that are not sorted, merged ranges,
then sweeps the runs in order once per side, merging each species' runs
into index ranges: a finite species passes when they come to [0, card),
an omega one when they come to exactly its block's skip ranges.  So
building, checking, ==, hash and repr are O(runs), whatever the atom
counts; only `print_iso` writes one line per atom, and
`check_iso_budget` refuses a pair past `MAX_ISO_LINES`.

A tree's leaf skeleton, `stone_space`, is built from its ints in
`construct`, beside the limit, and is read here as well.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, Literal, NamedTuple

from .compactum import (
    Cantor,
    Interval,
    Point,
    SymbolicCompactum,
    glue_classes,
)
from .construct import stone_space  # re-exported: bench/workloads.py reads it here
from .dyadic import parse_natural, read_lines
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
        if (self.n_in or 0) < 0 or (self.n_junk or 0) < 0:
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
        normal = ((p, _piece_normalize(p.atomless)) for p in self.parts)
        parts = (p if q == p.atomless else replace(p, atomless=q) for p, q in normal)
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
    w_in = w_junk = n_in = n_junk = 0
    atomless = False
    for c in b.clusters:
        w_in += c.n_in is None
        w_junk += c.n_junk is None
        n_in += c.n_in or 0
        n_junk += c.n_junk or 0
        atomless = atomless or c.has_atomless
    return BAForm(w_in, w_junk, 0 if w_in else n_in, 0 if w_junk else n_junk, atomless)


# ---------------------------------------------------------------------------
# Quotient isomorphisms and the back-and-forth
# ---------------------------------------------------------------------------


def quotient_form(b: LabelledBA) -> BAForm:
    """canonical_form(quotient_by_junk(b)), in closed form: the quotient
    has an omega species per omega in-species and, when there is none, the
    finite in-atoms plus one residue atom per omega junk species."""
    omega_junk, fin_junk, atomless = _read(b).quotient
    return BAForm(0, omega_junk, 0, fin_junk, atomless)


class _Reading(NamedTuple):
    """What the isomorphism code reads off an algebra, in one pass."""

    cards: dict[tuple[int, str], int | None]  # {(cluster, species): count}
    full: dict[tuple[int, str], list[int]]  # {finite species: [0, count]}, count > 0
    omega_keys: set[tuple[int, str]]  # the omega species
    # per species, its finite counts laid end to end: ({offset: cluster}, total)
    layouts: tuple[tuple[dict[int, int], int], ...]
    omega: list[int]  # the omega clusters
    balanced: bool
    junk: int | None  # the junk total
    atomless: tuple[int, ...]  # the clusters with an atomless part
    quotient: tuple[int, int, bool]  # omega_junk, fin_junk, atomless of b/junk


def _read(b: LabelledBA) -> _Reading:
    cards: dict[tuple[int, str], int | None] = {}
    full: dict[tuple[int, str], list[int]] = {}
    omega_keys: set[tuple[int, str]] = set()
    at_in: dict[int, int] = {}
    at_junk: dict[int, int] = {}
    t_in = t_junk = q_omega = q_fin = 0
    omega: list[int] = []
    atomless: list[int] = []
    for c, cl in enumerate(b.clusters):
        n_in = cards[c, IN] = cl.n_in
        n_junk = cards[c, JUNK] = cl.n_junk
        if n_in is None:
            omega_keys.add((c, IN))
            q_omega += 1
        else:
            q_fin += n_in + (n_junk is None)  # and omega junk's residue
            if n_in:
                full[c, IN] = [0, n_in]
                at_in[t_in] = c
                t_in += n_in
        if n_junk is None:
            omega_keys.add((c, JUNK))
        elif n_junk:
            full[c, JUNK] = [0, n_junk]
            at_junk[t_junk] = c
            t_junk += n_junk
        if n_in is None or n_junk is None:
            omega.append(c)
        if cl.has_atomless:
            atomless.append(c)
    return _Reading(
        cards,
        full,
        omega_keys,
        ((at_in, t_in), (at_junk, t_junk)),
        omega,
        len(omega_keys) == 2 * len(omega),
        t_junk if len(omega_keys) == q_omega else None,
        tuple(atomless),
        (q_omega, 0 if q_omega else q_fin, bool(atomless)),
    )


@dataclass(frozen=True)
class QuotientIso:
    """Pairing of the omega clusters of two algebras (the finite parts of
    the quotients match by counting, so the pairing is all that varies)."""

    omega_pairs: tuple[tuple[int, int], ...]


Run = tuple[tuple[int, str, int], tuple[int, str, int], int]
Ranges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BlockPair:
    """An omega species mapped onto another in index order, minus skips:
    per side, sorted, merged [lo, hi) index ranges."""

    src: tuple[int, str]
    dst: tuple[int, str]
    skip_ranges: tuple[Ranges, Ranges]


@dataclass(frozen=True)
class AtomIso:
    """Finite pairs as `runs` (see the module docstring), omega species as
    block pairs, and the atomless clusters of each side."""

    runs: tuple[Run, ...]
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
    r0, r1 = _read(b0), _read(b1)
    f = _gate(r0, r1, f)
    runs: list[tuple] = []
    block_pairs: list[BlockPair] = []
    for species, (at0, t0), (at1, t1) in zip((IN, JUNK), r0.layouts, r1.layouts):
        end = min(t0, t1)
        if f.omega_pairs:
            # the first pair's hosts absorb the other side's surplus
            at0[t0], at1[t1] = f.omega_pairs[0]
            skips = (
                ((0, t1 - end),) if t1 > end else (),
                ((0, t0 - end),) if t0 > end else (),
            )
            for c0, c1 in f.omega_pairs:
                block_pairs.append(BlockPair((c0, species), (c1, species), skips))
                skips = (), ()
            end = max(t0, t1)
        cuts = sorted(at0.keys() | at1.keys() | {end})  # every offset <= end
        for x, y in zip(cuts, cuts[1:]):
            if x in at0:
                c0, o0 = at0[x], x
            if x in at1:
                c1, o1 = at1[x], x
            runs.append(((c0, species, x - o0), (c1, species, x - o1), y - x))
    atomless = (r0.atomless, r1.atomless) if r0.atomless else None
    iso = AtomIso(tuple(runs), tuple(block_pairs), atomless)
    _verify(r0, r1, iso)
    return iso


def _gate(r0: _Reading, r1: _Reading, f: QuotientIso | None) -> QuotientIso:
    """The builder's gates on the algebras read as r0 and r1: refuse the
    pair, or return the quotient isomorphism to follow."""
    if not (r0.balanced and r1.balanced):
        raise ValueError("balance condition fails: a cluster mixes finite "
                         "and omega species")
    if f is None:
        f = QuotientIso(tuple(zip(r0.omega, r1.omega)))
    if r0.quotient != r1.quotient:
        raise ValueError("quotients are not isomorphic")
    if sorted(i for i, _ in f.omega_pairs) != r0.omega or sorted(
        j for _, j in f.omega_pairs
    ) != r1.omega:
        raise ValueError("pairing does not cover the omega clusters")
    if r0.junk != r1.junk:
        raise ValueError("finite atom totals differ")
    return f


def verify_isomorphism(b0: LabelledBA, b1: LabelledBA, iso: AtomIso) -> bool:
    """Check bijectivity on atoms, label preservation, and block coverage."""
    return _verify(_read(b0), _read(b1), iso)


def _verify(r0: _Reading, r1: _Reading, iso: AtomIso) -> bool:
    for ref0, ref1, n in iso.runs:
        if ref0[1] != ref1[1]:
            raise ValueError("pairing does not preserve the atom label")
        if n < 1:
            raise ValueError(f"a run of {n} atoms from {_where(ref0[:2])}")
    for bp in iso.block_pairs:
        if bp.src[1] != bp.dst[1]:
            raise ValueError("block pairing does not preserve the species")
    _check_cover(r0, iso, side=0)
    _check_cover(r1, iso, side=1)
    has0, has1 = bool(r0.atomless), bool(r1.atomless)
    if has0 != has1 or (has0 and iso.atomless_pair is None):
        raise ValueError("atomless parts not matched")
    return True


def _check_cover(r: _Reading, iso: AtomIso, side: int) -> None:
    """The one check of the iso's references on one side against the
    algebra read as r: each names a species of it, a finite species is
    paired atom by atom, and an omega species is one block whose skips are
    its explicit pairs.

    One sweep over the runs in order keeps each species' paired indices as
    flat bounds [lo0, hi0, lo1, hi1, ...] of sorted, merged ranges: natural
    numbers that strictly increase, since `_verify` has refused any run
    shorter than one atom, so a negative skip never matches them.  A run
    at or past its species' last bound extends or appends in O(1); only a
    run that comes out of order is inserted by bisection.  The bounds then
    pass at once if they equal the finite species' [0, count] and the
    blocks' skips; otherwise each species is checked in turn, and the
    first that fails names the refusal."""
    cards = r.cards
    ranges: dict[tuple[int, str], list[int]] = {}
    for run in iso.runs:
        c, species, lo = run[side]
        hi = lo + run[2]
        got = ranges.get((c, species))
        if got is None:
            if (c, species) not in cards or lo < 0:
                raise ValueError(f"no atom {lo} in {_where((c, species))}")
            ranges[c, species] = [lo, hi]
        elif lo == got[-1]:
            got[-1] = hi
        elif lo > got[-1]:
            got += (lo, hi)
        else:
            if lo < 0:
                raise ValueError(f"no atom {lo} in {_where((c, species))}")
            k = bisect_right(got, lo)
            if k & 1 or k < len(got) and got[k] < hi:
                raise ValueError("an atom appears twice in the pairing")
            left, right = k and got[k - 1] == lo, k < len(got) and got[k] == hi
            got[k - left:k + right] = (lo, hi)[left:2 - right]
    blocks: dict[tuple[int, str], BlockPair] = {}
    want = r.full
    for bp in iso.block_pairs:
        key = bp.src if side == 0 else bp.dst
        if key not in cards:
            raise ValueError(f"block on {_where(key)}, which the algebra lacks")
        if key in blocks:
            raise ValueError("an omega species appears in two block pairs")
        blocks[key] = bp
        if skip := bp.skip_ranges[side]:
            want = {**want, key: [x for span in skip for x in span]}
    if ranges == want and blocks.keys() == r.omega_keys:
        return
    for key, card in cards.items():
        got = ranges.get(key)
        if card is None:
            bp = blocks.get(key)
            if bp is None:
                raise ValueError(f"omega {_where(key)} not covered by a block")
            skips = [x for span in bp.skip_ranges[side] for x in span]
            if any(x >= y for x, y in zip(skips, skips[1:])):
                raise ValueError(
                    f"block skips of {_where(key)} are not sorted, merged ranges"
                )
            if (got or []) != skips:
                raise ValueError(
                    f"block skips of {_where(key)} disagree with its pairs"
                )
        else:
            if key in blocks:
                raise ValueError(f"finite {_where(key)} cannot form a block")
            if got != ([0, card] if card else None):
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
    for (c0, s0, i0), (c1, s1, i1), n in iso.runs:
        lines += [f"atom {c0}.{s0}.{i0 + k} -> {c1}.{s1}.{i1 + k}" for k in range(n)]
    for bp in iso.block_pairs:
        skip0, skip1 = (
            ",".join(str(i) for lo, hi in ranges for i in range(lo, hi))
            for ranges in bp.skip_ranges
        )
        suffix = ""
        if skip0 or skip1:
            suffix = f" skip {skip0 or '-'} -> {skip1 or '-'}"
        lines.append(
            f"bulk {bp.src[0]}.{bp.src[1]} -> {bp.dst[0]}.{bp.dst[1]}{suffix}"
        )
    if iso.atomless_pair is not None:
        lines.append("atomless")
    return "".join(line + "\n" for line in lines)


# The most lines `check_iso_budget` lets `print_iso` write for a pair.
MAX_ISO_LINES = 1 << 20


def iso_lines(b0: LabelledBA, b1: LabelledBA, f: QuotientIso | None = None) -> int:
    """The lines `print_iso` writes for `build_isomorphism(b0, b1, f)`, in
    closed form: one per finite atom of the side with more of each species,
    two per omega cluster and one for an atomless part; none for a pair
    the gates refuse, since it is refused before anything is printed."""
    r0, r1 = _read(b0), _read(b1)
    try:
        _gate(r0, r1, f)
    except ValueError:
        return 0
    atoms = sum(max(t0, t1) for (_, t0), (_, t1) in zip(r0.layouts, r1.layouts))
    return atoms + 2 * len(r0.omega) + bool(r0.atomless)


def check_iso_budget(
    b0: LabelledBA, b1: LabelledBA, f: QuotientIso | None = None
) -> None:
    """Refuse a pair whose isomorphism prints more than MAX_ISO_LINES
    lines, from `iso_lines`, before anything is built."""
    need = iso_lines(b0, b1, f)
    if need > MAX_ISO_LINES:
        raise ValueError(
            f"the isomorphism needs {need} lines, more than {MAX_ISO_LINES}"
        )
