"""The four benchmark workloads: seeded inputs, ops, and their checks.

Each workload's `setup(rng, work, tr)` builds a fixed input set from the
seeded generator and returns a list of ops.  An op is `(kind, fn)`, and
`fn(tr)` runs one query through compacta and returns True when the answer
checked out; op functions take their inputs first and `tr` last, so that
`partial` binds the inputs.  Every call into a compacta module goes through
`tr.call("<module>.<function>", fn, *args)`, which is a plain call when
tracing is off and a span when it is on.  Ops are shuffled with the seed,
so that no stretch of a pass is all one kind.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import random
from fractions import Fraction
from functools import partial
from itertools import islice
from pathlib import Path

from compacta.banach import (
    HostedFunction,
    dense_family,
    parse_plf,
    plf,
    print_plf,
    stage_values,
    sup_norm,
    unit_sup,
)
from compacta.boolalg import (
    build_isomorphism,
    canonical_form as ba_form,
    QuotientIso,
    clopen_algebra,
    parse_ba,
    print_ba,
    print_iso,
    quotient_by_junk,
    stone_space,
    tree_algebra,
    verify_isomorphism,
)
from compacta.cli import main as cli_main
from compacta.compact import (
    Ball,
    CoverCertificate,
    balls_intersect,
    clopen_partitions,
    cover,
    cover_is_valid,
    parse_cover,
    print_cover,
)
from compacta.compactum import (
    Cantor,
    Interval,
    Point,
    PointSeq,
    canonical_form as space_form,
    cb_derivative,
    compactum,
    compactum_contains,
    parse_compactum,
    print_compactum,
    reduce_intoms,
    reduction,
)
from compacta.construct import (
    construct_limit,
    enumerate_stage,
    hausdorff_gap,
    print_state,
)
from compacta.dyadic import midpoint
from compacta.randgen import random_algebra_pair, random_script, random_tree
from compacta.svg import render_tree_svg
from compacta.trees import (
    TERMINAL,
    limit_tree,
    parse_script,
    parse_tree,
    print_script,
    print_tree,
)

# ---------------------------------------------------------------------------
# duality: tree -> limit -> reduct/algebra against the tree's dual objects
# ---------------------------------------------------------------------------

DUALITY_DEFAULT_TREES = 4000  # randgen defaults: depth 5, 40 nodes
DUALITY_DEEP_TREES = 800  # depth 8, 200 nodes
DUALITY_PAIRS = 3200


def _construct(tr, tree):
    limit = tr.call("construct.construct_limit", construct_limit, tree)
    tr.count("construct.construct_limit.components", len(limit.components))
    return limit


def _duality_square(tree, tr) -> bool:
    limit = _construct(tr, tree)
    derived = tr.call("compactum.cb_derivative", cb_derivative, limit)
    twice = tr.call("compactum.cb_derivative", cb_derivative, derived)
    reduct = tr.call("compactum.reduction", reduction, limit)
    got_space = tr.call("compactum.canonical_form", space_form, reduct)
    dual = tr.call("boolalg.stone_space", stone_space, tree)
    want_space = tr.call("compactum.canonical_form", space_form, dual)
    algebra = tr.call("boolalg.clopen_algebra", clopen_algebra, limit)
    quotient = tr.call("boolalg.quotient_by_junk", quotient_by_junk, algebra)
    got_alg = tr.call("boolalg.canonical_form", ba_form, quotient)
    coded = tr.call("boolalg.tree_algebra", tree_algebra, tree)
    want_alg = tr.call("boolalg.canonical_form", ba_form, coded)
    return (
        twice.components == derived.components
        and got_space == want_space
        and got_alg == want_alg
    )


def _iso_pair(b0, b1, tr) -> bool:
    try:
        iso = tr.call("boolalg.build_isomorphism", build_isomorphism, b0, b1)
    except ValueError:
        # The pair is isomorphic by construction, so a refusal is wrong.
        tr.count("boolalg.build_isomorphism.refused")
        return False
    return tr.call("boolalg.verify_isomorphism", verify_isomorphism, b0, b1, iso)


def setup_duality(rng: random.Random, work: Path, tr) -> list:
    trees = [random_tree(rng) for _ in range(DUALITY_DEFAULT_TREES)]
    trees += [
        random_tree(rng, max_depth=8, max_nodes=200)
        for _ in range(DUALITY_DEEP_TREES)
    ]
    ops = [("square", partial(_duality_square, tree)) for tree in trees]
    for _ in range(DUALITY_PAIRS):
        b0, b1 = random_algebra_pair(rng)
        ops.append(("iso", partial(_iso_pair, b0, b1)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# compactness: covers, ball decisions, membership, sup norms, partitions
# ---------------------------------------------------------------------------

COVER_HOSTS = 200  # cover, dense-family and partition ops
QUERY_HOSTS = 300  # ball, membership and sup-norm ops
GLUE_EVERY = 3
COMPACT_PRECISIONS = (4, 8)
# Bands of cover(host, 8).h and the share per 100 random_tree limits in
# each, as randgen draws them (measured on 20000 trees; none fall in
# 192..256).  257 is where the tangency scan stops (_FLAG_SCAN_LIMIT).
BALL_BANDS = (32, 48, 64, 96, 128, 257)
BALL_MIX = (16, 17, 19, 13, 2, 16, 17)
# Bands of a query host's component count and their shares, as randgen
# draws them (measured on 20000 trees).
COMPONENT_BANDS = (2, 6, 13, 22, 31, 40, 52, 62)
COMPONENT_MIX = (33, 7, 10, 9, 11, 10, 10, 5, 5)
BALL_PAIRS_PER_HOST = 2
PROBE_OPS_PER_HOST = 2
PROBES_PER_OP = 4
PLF_PER_HOST = 1
DENSE_HOSTS_EVERY = 4  # dense-family op on every 4th cover host
PARTITION_MAX_COMPONENTS = 8
PARTITION_PREFIX = 30


def glue_sequences(rng: random.Random, host):
    """Replace some intervals by a shorter interval with a convergent
    sequence glued to one or both ends, inside the old interval's span.
    Returns None when the host has no interval to replace."""
    comps = list(host.components)
    spots = [i for i, c in enumerate(comps) if isinstance(c, Interval)]
    if not spots:
        return None
    chosen = set(rng.sample(spots, max(1, len(spots) // 2)))
    out = []
    for i, comp in enumerate(comps):
        if i not in chosen:
            out.append(comp)
            continue
        lo, hi = comp.lo, comp.hi
        mid = midpoint(lo, hi)
        side = rng.choice(("left", "right", "both"))
        if side == "left":
            out += [PointSeq(mid, lo, mid), Interval(mid, hi)]
        elif side == "right":
            out += [Interval(lo, mid), PointSeq(mid, mid, hi)]
        else:
            a, b = midpoint(lo, mid), midpoint(mid, hi)
            out += [PointSeq(a, lo, a), Interval(a, b), PointSeq(b, b, hi)]
    return compactum(out)


def _member(rng: random.Random, comp) -> Fraction:
    """A rational point of the component."""
    if isinstance(comp, Point):
        return comp.pos.as_fraction()
    lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
    if isinstance(comp, Interval):
        return lo + (hi - lo) * Fraction(rng.randrange(0, 9), 8)
    if isinstance(comp, Cantor):
        a, length = lo, hi - lo
        for _ in range(rng.randrange(0, 5)):
            length /= 3
            if rng.random() < 0.5:
                a += 2 * length
        return a if rng.random() < 0.5 else a + length
    if rng.random() < 0.2:
        return comp.limit.as_fraction()
    return comp.member(rng.randrange(0, 7)).as_fraction()


def _non_member(rng: random.Random, host, i: int) -> Fraction | None:
    """A rational point next to component i that the set misses."""
    comps = host.components
    comp = comps[i]
    lo, hi = comp.lo.as_fraction(), comp.hi.as_fraction()
    if isinstance(comp, Cantor):
        return lo + (hi - lo) / 2  # middle of the first removed third
    if isinstance(comp, PointSeq):
        k = rng.randrange(0, 6)
        a, b = comp.member(k).as_fraction(), comp.member(k + 1).as_fraction()
        return (a + b) / 2
    if i + 1 < len(comps) and comp.hi < comps[i + 1].lo:
        return (hi + comps[i + 1].lo.as_fraction()) / 2
    return None


def _cover_op(host, n: int, tr) -> bool:
    cert = tr.call("compact.cover", cover, host, n)
    tr.count("compact.cover.balls", cert.h)
    if cert.flagged is None:
        tr.count("compact.cover.flag_scans_skipped")
    else:
        tr.count("compact.cover.flagged_pairs", len(cert.flagged))
    return tr.call("compact.cover_is_valid", cover_is_valid, host, cert)


def _balls_op(host, b1: Ball, b2: Ball, tr) -> bool:
    opened = tr.call("compact.balls_intersect", balls_intersect, host, b1, b2, False)
    closed = tr.call("compact.balls_intersect", balls_intersect, host, b1, b2, True)
    tr.count("compact.balls_intersect.true", opened + closed)
    return closed or not opened


def _contains_op(host, probes, tr) -> bool:
    return all(
        tr.call("compactum.compactum_contains", compactum_contains, host, x) == want
        for x, want in probes
    )


def _plf_op(host, f, floor: Fraction, tr) -> bool:
    norm = tr.call("banach.sup_norm", sup_norm, HostedFunction(f, host))
    return floor <= norm <= unit_sup(f)


def _take_dense(host, n: int, stop: int) -> list:
    return list(islice(dense_family(host, n), stop))


def _dense_op(host, tr) -> bool:
    n_values = len(stage_values(2))
    members = tr.call("banach.dense_family", _take_dense, host, 2, n_values + 3)
    picks = members[:3] + members[n_values:]
    return all(
        tr.call("banach.sup_norm", sup_norm, f) == unit_sup(f.f) for f in picks
    )


def _partitions_op(host, depth: int, tr) -> bool:
    def prefix(d: int, k: int) -> list:
        return list(islice(clopen_partitions(host, d), k))

    a = tr.call("compact.clopen_partitions", prefix, depth, PARTITION_PREFIX)
    b = tr.call("compact.clopen_partitions", prefix, depth + 1, len(a))
    tr.count("compact.clopen_partitions.emitted", len(a) + len(b))
    return a == b


def _random_plf(rng: random.Random):
    """3 to 8 breakpoints mixing dyadic and triadic abscissae."""
    inner = set()
    for _ in range(rng.randrange(1, 7)):
        base = rng.choice((2, 3)) ** rng.randrange(1, 7)
        inner.add(Fraction(rng.randrange(1, base), base))
    xs = [Fraction(0)] + sorted(inner) + [Fraction(1)]
    return plf(
        (x, Fraction(rng.randrange(-16, 17), rng.choice((1, 2, 3, 4, 8))))
        for x in xs
    )


def _cover_host_ops(host, index: int, rng: random.Random) -> list:
    ops = [
        (f"cover{n}", partial(_cover_op, host, n)) for n in COMPACT_PRECISIONS
    ]
    if index % DENSE_HOSTS_EVERY == 0:
        ops.append(("dense", partial(_dense_op, host)))
    if len(host.components) <= PARTITION_MAX_COMPONENTS:
        d = rng.randrange(0, 4)
        ops.append(("partitions", partial(_partitions_op, host, d)))
    return ops


def _query_host_ops(host, rng: random.Random) -> list:
    comps = host.components
    ops = []
    for _ in range(BALL_PAIRS_PER_HOST):
        i = rng.randrange(len(comps))
        j = min(len(comps) - 1, max(0, i + rng.choice((-1, 0, 0, 1))))
        r = Fraction(1, 2 ** rng.randrange(2, 7))
        b1 = Ball(_member(rng, comps[i]), r)
        b2 = Ball(_member(rng, comps[j]), r)
        ops.append(("balls", partial(_balls_op, host, b1, b2)))
    samples = []
    for _ in range(PROBE_OPS_PER_HOST):
        probes = []
        for _ in range(PROBES_PER_OP):
            i = rng.randrange(len(comps))
            x = _member(rng, comps[i])
            samples.append(x)
            want = True
            if rng.random() < 0.5:
                miss = _non_member(rng, host, i)
                if miss is not None:
                    x, want = miss, False
            probes.append((x, want))
        ops.append(("contains", partial(_contains_op, host, probes)))
    for _ in range(PLF_PER_HOST):
        f = _random_plf(rng)
        floor = max(abs(f.value(x)) for x in samples)
        ops.append(("supnorm", partial(_plf_op, host, f, floor)))
    return ops


def cover_size(host, n: int) -> int:
    """Ball count of cover(host, n) in closed form, from the components."""
    r = Fraction(1, 2**n)
    h = 0
    for comp in host.components:
        if isinstance(comp, Point):
            h += 1
            continue
        span = comp.hi.as_fraction() - comp.lo.as_fraction()
        if isinstance(comp, Interval):
            h += int(span // r) + 1
        elif isinstance(comp, Cantor):
            level = 0
            while span / 3**level >= r:
                level += 1
            h += 2 ** (level + 1)
        else:
            i = 0
            while span / 2**i >= r:
                i += 1
            h += i + 1
    return h


def keep_by_band(draws, size, bands, quota) -> list:
    """Items from `draws`, each kept while the band of size(item) among
    `bands` has quota left, until every band's quota is filled.

    Op costs are heavy-tailed, so fixing the band mix keeps a set's cost,
    and its tail, from swinging with the seed.  The quotas follow the
    generator's own shares, so a set looks like a plain draw.
    """
    quota = list(quota)
    kept = []
    for item in draws:
        band = bisect.bisect_right(bands, size(item))
        if quota[band]:
            quota[band] -= 1
            kept.append(item)
            if not any(quota):
                return kept
    raise RuntimeError("the generator no longer yields the size mix")


def glue_every(rng: random.Random, hosts: list) -> list:
    """Glue sequences into every GLUE_EVERY-th host that has an interval."""
    return [
        glue_sequences(rng, host) or host if k % GLUE_EVERY == 0 else host
        for k, host in enumerate(hosts)
    ]


def cover_hosts(rng: random.Random, tr, count: int) -> list:
    """Seeded suite limits, kept by band of cover size at the top
    precision (BALL_MIX shares of `count`); every GLUE_EVERY-th host then
    gets glued sequences when it has an interval to host them.  Cover cost
    is not even monotone in the ball count: the tangency scan runs only up
    to 256 balls."""
    n = COMPACT_PRECISIONS[-1]
    draws = (_construct(tr, random_tree(rng)) for _ in range(50 * count))
    quota = [share * count // 100 for share in BALL_MIX]
    hosts = keep_by_band(draws, lambda h: cover_size(h, n), BALL_BANDS, quota)
    return glue_every(rng, hosts)


def query_hosts(rng: random.Random, tr, count: int) -> list:
    """Seeded suite limits, kept by band of component count (COMPONENT_MIX
    shares of `count`), every GLUE_EVERY-th one glued.  The cost of a ball
    decision, a membership probe or a sup norm grows with the host's
    components."""
    draws = (_construct(tr, random_tree(rng)) for _ in range(50 * count))
    quota = [share * count // 100 for share in COMPONENT_MIX]
    hosts = keep_by_band(draws, lambda h: len(h.components), COMPONENT_BANDS, quota)
    return glue_every(rng, hosts)


def setup_compactness(rng: random.Random, work: Path, tr) -> list:
    ops = []
    for index, host in enumerate(cover_hosts(rng, tr, COVER_HOSTS)):
        ops += _cover_host_ops(host, index, rng)
    for host in query_hosts(rng, tr, QUERY_HOSTS):
        ops += _query_host_ops(host, rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# stages: enumerate_stage + hausdorff_gap, stages 0..STAGE_MAX per script
# ---------------------------------------------------------------------------

STAGE_SCRIPTS = 600
STAGE_MAX = 5
# Share per 100 scripts of each terminal-leaf count (10 means 10 or more),
# as randgen's random_script draws them (measured on 20000 scripts).
TERMINAL_BANDS = tuple(range(1, 11))
TERMINAL_MIX = (6, 18, 21, 17, 14, 10, 6, 4, 2, 1, 1)


def _stage_op(script, limit, s: int, gaps: dict, tr) -> bool:
    state = tr.call("construct.enumerate_stage", enumerate_stage, script, s)
    tr.count("construct.enumerate_stage.points", len(state.points))
    tr.count("construct.enumerate_stage.nets", len(state.nets))
    gap = tr.call("construct.hausdorff_gap", hausdorff_gap, state, limit)
    prev = gaps.get(s - 1) if s else None
    gaps[s] = gap
    return prev is None or gap <= prev


def _terminal_leaves(script) -> int:
    static = sum(1 for n in script.skeleton.values() if n.kind == TERMINAL)
    return static + sum(1 for k in script.final_labels.values() if k == TERMINAL)


def stratified_scripts(rng: random.Random, count: int) -> list:
    """Seeded random_script draws, kept until each terminal-leaf count
    holds its TERMINAL_MIX share of `count`.

    A script's stage cost grows with its terminal leaves (each densifies
    to 2^s points and is bounded against every other component), and the
    cost is heavy-tailed, so fixing the mix keeps the set's total cost
    from swinging with the seed.  The shares are randgen's own, so the
    set looks like a plain draw.
    """
    draws = (random_script(rng) for _ in range(50 * count))
    quota = [share * count // 100 for share in TERMINAL_MIX]
    return keep_by_band(draws, _terminal_leaves, TERMINAL_BANDS, quota)


def setup_stages(rng: random.Random, work: Path, tr) -> list:
    ops = []
    for script in stratified_scripts(rng, STAGE_SCRIPTS):
        limit = _construct(tr, limit_tree(script))
        gaps: dict = {}  # stage -> gap of the latest run of that stage
        for s in range(STAGE_MAX + 1):
            ops.append(("stage", partial(_stage_op, script, limit, s, gaps)))
    # The stages of one script stay in order for the monotonicity check;
    # the scripts themselves come in seeded random order.
    return ops


# ---------------------------------------------------------------------------
# cli: in-process compacta.cli.main over files written in setup
# ---------------------------------------------------------------------------

README_TREE = """tree v1
node - split m=1 r=1 et=1
node 3 terminal
node 4 split m=0 r=0 et=0
node 4.1 eta
node 4.2 terminal
"""
README_SCRIPT = """tree v1
event fresh -
event replace -
label 3 terminal
label 4 eta
"""
README_PLF = "plf\n(0,0) (1/2,1) (1,0)\n"
README_COMPACTUM = """compactum v1
point 1/2^3
point 95/2^8
interval 825/2^11 827/2^11
cantor 421/2^10 423/2^10
interval 43/2^6 45/2^6
point 97/2^7
"""
README_BA = """ba v1
cluster in=2 junk=3 atomless=0
cluster in=0 junk=0 atomless=1
"""
README_QUOTIENT = """ba v1
cluster in=0 junk=2 atomless=0
cluster in=0 junk=0 atomless=1
"""

CLI_TREES = 80
CLI_TREE_SIZE = (4, 20)  # max depth, max nodes: light compute per command
CLI_GLUED = 30
CLI_SCRIPTS = 30
CLI_STAGE_MAX = 4
CLI_COVER_PRECISION = 1
CLI_PARTITION_ATOMS = 6  # Bell(6) = 203 lines at most
# Suites twice the README's size are cli's heaviest ops.  Each averages
# 50 random cases, so their costs are close, and with this many of them
# the 99th percentile falls among them rather than on one odd input.
CLI_SUITES = 24
CLI_SUITE = ("--depth", "4", "--count", "50")


def _cli_op(name: str, argv: list[str], check, tr) -> bool:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call(f"cli.main.{name}", cli_main, [name] + argv)
    return code == 0 and check(out.getvalue(), err.getvalue())


def _expect(stdout: str, stderr: str = ""):
    return lambda out, err: out == stdout and err == stderr


def _reference(expected):
    """Check a command against the API's own output: `expected()` gives
    the stdout, or (stdout, stderr).  When the API raises, the command has
    no right answer here and every run of it counts as failed."""
    try:
        want = expected()
    except Exception:
        return lambda out, err: False
    if isinstance(want, str):
        want = (want, "")
    return lambda out, err: (out, err) == want


def _cover_text(host) -> tuple[str, str]:
    cert = cover(host, CLI_COVER_PRECISION)
    return print_cover(cert), f"h={cert.h}\n"


def _simulate_text(script, stage: int) -> str:
    state = enumerate_stage(script, stage)
    gap = hausdorff_gap(state, construct_limit(limit_tree(script)))
    return print_state(state, gap)


def _synthetic_cover(rng: random.Random, host) -> CoverCertificate:
    """A cover-format certificate on set points, for the format roundtrip."""
    r = Fraction(1, 2**CLI_COVER_PRECISION)
    return CoverCertificate(
        CLI_COVER_PRECISION,
        tuple(Ball(_member(rng, c), r) for c in host.components),
        None,
    )


def _dualcheck_text(tree) -> str:
    points = space_form(reduction(construct_limit(tree))).points
    return f"forms equal: {points} isolated point{'' if points == 1 else 's'}\n"


def _partitions_text(host, depth: int) -> str:
    lines = [f"partitions depth={depth}"]
    for parts in clopen_partitions(host, depth):
        blocks = ["+".join(f"{g}:{w}" for g, w in sorted(p)) for p in parts]
        lines.append("part " + " | ".join(sorted(blocks)))
    return "\n".join(lines) + "\n"


def _depth1_atoms(host) -> int:
    groups = host.glue_groups()
    cantor = sum(
        any(isinstance(host.components[i], Cantor) for i in g) for g in groups
    )
    return len(groups) + cantor


def _suite_check(count: int):
    def check(out: str, err: str) -> bool:
        lines = out.splitlines()
        cases = [f"case {i} ok" for i in range(count)]
        return lines == cases + [f"{count}/{count} duality roundtrips pass"]

    return check


FORMATS = (
    ("trees.parse_tree", parse_tree, "trees.print_tree", print_tree, "tree"),
    ("trees.parse_script", parse_script, "trees.print_script", print_script, "script"),
    (
        "compactum.parse_compactum",
        parse_compactum,
        "compactum.print_compactum",
        print_compactum,
        "compactum",
    ),
    ("boolalg.parse_ba", parse_ba, "boolalg.print_ba", print_ba, "ba"),
    ("compact.parse_cover", parse_cover, "compact.print_cover", print_cover, "cover"),
    ("banach.parse_plf", parse_plf, "banach.print_plf", print_plf, "plf"),
)


def _roundtrip_op(texts: dict, tree, tr) -> bool:
    """Parse and print every text format; each print must give the input."""
    ok = True
    for parse_name, parse, print_name, emit, key in FORMATS:
        obj = tr.call(parse_name, parse, texts[key])
        ok &= tr.call(print_name, emit, obj) == texts[key]
    return ok and tr.call("svg.render_tree_svg", render_tree_svg, tree) == texts["svg"]


def setup_cli(rng: random.Random, work: Path, tr) -> list:
    work.mkdir(parents=True, exist_ok=True)

    digests = {}  # path -> hash of the text written there

    def put(name: str, text: str) -> str:
        path = work / name
        path.write_text(text)
        digests[str(path)] = hashlib.sha1(text.encode()).hexdigest()[:10]
        return str(path)

    ops = []

    def add(name: str, argv: list[str], check) -> None:
        fn = partial(_cli_op, name, argv, check)
        # The run record names an op by its command and its inputs' texts.
        fn.label = " ".join([name] + [digests.get(a, a) for a in argv])
        ops.append((name, fn))

    # README examples with their documented outputs.
    ex_tree = put("ex.tree", README_TREE)
    ex_script = put("ex.script", README_SCRIPT)
    ex_comp = put("ex.compactum", README_COMPACTUM)
    ex_ba = put("ex.ba", README_BA)
    ex_plf = put("ex.plf", README_PLF)
    add("construct", [ex_tree], _expect(README_COMPACTUM))
    add("dualcheck", [ex_tree], _expect("forms equal: 2 isolated points\n"))
    add("algebra", [ex_comp], _expect(README_BA))
    add("quotient", [ex_ba], _expect(README_QUOTIENT))
    add(
        "simulate",
        [ex_script, "--stage", "3"],
        lambda out, err: out.startswith("stage 3\npoint 1/2^3\n")
        and out.endswith("net 4 level=1\ngap 7/2^9\n"),
    )
    add(
        "cover",
        [ex_comp, "--precision", "3"],
        lambda out, err: err == "h=7\n"
        and out.startswith("cover n=3\nball 1/8 1/8\nball 95/256 1/8\n"),
    )
    add("supnorm", [ex_plf, ex_comp], _expect("supnorm 423/512\n"))
    add(
        "suite",
        ["--seed", "7", "--depth", "4", "--count", "25"],
        lambda out, err: out.endswith("\n25/25 duality roundtrips pass\n"),
    )

    # Generated inputs, each checked against the API's own printers.
    trees = [random_tree(rng, *CLI_TREE_SIZE) for _ in range(CLI_TREES)]
    hosts = [construct_limit(t) for t in trees]
    while len(hosts) < CLI_TREES + CLI_GLUED:
        glued = glue_sequences(rng, construct_limit(random_tree(rng, *CLI_TREE_SIZE)))
        if glued is not None:
            hosts.append(glued)
    scripts = [random_script(rng) for _ in range(CLI_SCRIPTS)]
    pairs = [random_algebra_pair(rng) for _ in hosts]
    plfs = [_random_plf(rng) for _ in hosts]
    for k, tree in enumerate(trees):
        path = put(f"t{k}.tree", print_tree(tree))
        add("construct", [path], _reference(lambda: print_compactum(hosts[k])))
        add("stone", [path], _reference(lambda: print_compactum(stone_space(tree))))
        add("dualcheck", [path], _reference(lambda: _dualcheck_text(tree)))
        add("render-svg", [path], _reference(lambda: render_tree_svg(tree)))
    for k, host in enumerate(hosts):
        path = put(f"c{k}.compactum", print_compactum(host))
        derived = _reference(lambda: print_compactum(cb_derivative(host)))
        add("derive", [path], derived)
        add("reduce", [path], _reference(lambda: print_compactum(reduce_intoms(host))))
        add("algebra", [path], _reference(lambda: print_ba(clopen_algebra(host))))
        algebra = pairs[k][0]
        ba_path = put(f"c{k}.ba", print_ba(algebra))
        quotient = _reference(lambda: print_ba(quotient_by_junk(algebra)))
        add("quotient", [ba_path], quotient)
        precision = ["--precision", str(CLI_COVER_PRECISION)]
        add("cover", [path, *precision], _reference(lambda: _cover_text(host)))
        if _depth1_atoms(host) <= CLI_PARTITION_ATOMS:
            parts = _reference(lambda: _partitions_text(host, 1))
            add("partitions", [path, "--depth", "1"], parts)
        plf_path = put(f"c{k}.plf", print_plf(plfs[k]))
        hosted = HostedFunction(plfs[k], host)
        norm = _reference(lambda: f"supnorm {sup_norm(hosted)}\n")
        add("supnorm", [plf_path, path], norm)
    for k, script in enumerate(scripts):
        path = put(f"s{k}.script", print_script(script))
        stage = k % (CLI_STAGE_MAX + 1)
        state = _reference(lambda: _simulate_text(script, stage))
        add("simulate", [path, "--stage", str(stage)], state)
    for k, (b0, b1) in enumerate(pairs):
        argv = [put(f"p{k}a.ba", print_ba(b0)), put(f"p{k}b.ba", print_ba(b1))]
        # Odd pairs pass the pairing of their omega clusters in index order.
        qmap = QuotientIso(tuple(zip(b0.omega_clusters(), b1.omega_clusters())))
        if k % 2:
            lines = "".join(f"pair {i} {j}\n" for i, j in qmap.omega_pairs)
            argv.append(put(f"p{k}.qmap", lines))
        q = qmap if k % 2 else None
        add("iso", argv, _reference(lambda: print_iso(build_isomorphism(b0, b1, q))))
    for _ in range(CLI_SUITES):
        seed = str(rng.randrange(1 << 30))
        add("suite", ["--seed", seed, *CLI_SUITE], _suite_check(int(CLI_SUITE[-1])))
    for k, tree in enumerate(trees):
        texts = {
            "tree": print_tree(tree),
            "script": print_script(scripts[k % CLI_SCRIPTS]),
            "compactum": print_compactum(hosts[k]),
            "ba": print_ba(pairs[k][1]),
            "cover": print_cover(_synthetic_cover(rng, hosts[k])),
            "plf": print_plf(plfs[k]),
            "svg": render_tree_svg(tree),
        }
        fn = partial(_roundtrip_op, texts, tree)
        fn.label = "roundtrip " + hashlib.sha1(texts["tree"].encode()).hexdigest()[:10]
        ops.append(("roundtrip", fn))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "duality": setup_duality,
    "compactness": setup_compactness,
    "stages": setup_stages,
    "cli": setup_cli,
}
