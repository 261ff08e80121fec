"""Batch driver: one subcommand per pipeline stage.

Exit codes: 0 when the requested work (and any check it implies) passed,
1 when a check failed, 2 on usage or input-parse problems.  Failures
print a single `error: ...` line to stderr.  Output is byte-identical
for identical inputs and flags, including the SVG diagrams.

The argument parser is built once per process, so `main` may be called
repeatedly in one process, with the same results as each call made alone
in a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from .banach import parse_plf, sup_norm, HostedFunction
from .boolalg import (
    QuotientIso,
    build_isomorphism,
    clopen_algebra,
    parse_ba,
    print_ba,
    print_iso,
    quotient_by_junk,
    tree_algebra,
)
from .boolalg import canonical_form as ba_form
from .compact import (
    MAX_PARTITIONS,
    atom_count,
    bell_number,
    clopen_partitions,
    cover,
    print_cover,
)
from .compactum import (
    canonical_form,
    cb_derivative,
    parse_compactum,
    print_compactum,
    reduce_intoms,
    reduction,
)
from .construct import (
    construct_limit,
    enumerate_stage,
    hausdorff_gap,
    print_state,
)
from .dyadic import check_natural, read_lines
from .randgen import random_tree
from .svg import render_tree_svg
from .trees import limit_tree, parse_script, parse_tree
from .boolalg import stone_space


class CheckFailure(Exception):
    """A well-formed input failed the requested check."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _check_precision(n: int) -> int:
    if not 0 <= n <= 64:
        raise ValueError("precision must be between 0 and 64")
    return n


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    tree = parse_tree(_read(args.tree))
    _emit(print_compactum(construct_limit(tree)), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    script = parse_script(_read(args.script))
    state = enumerate_stage(script, args.stage)
    limit = construct_limit(limit_tree(script))
    gap = hausdorff_gap(state, limit)
    _emit(print_state(state, gap), args.out)
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    s = parse_compactum(_read(args.compactum))
    _emit(print_compactum(cb_derivative(s)), args.out)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    s = parse_compactum(_read(args.compactum))
    _emit(print_compactum(reduce_intoms(s)), args.out)
    return 0


def _cmd_stone(args: argparse.Namespace) -> int:
    tree = parse_tree(_read(args.tree))
    _emit(print_compactum(stone_space(tree)), args.out)
    return 0


def _cmd_dualcheck(args: argparse.Namespace) -> int:
    tree = parse_tree(_read(args.tree))
    space_form = canonical_form(reduction(construct_limit(tree)))
    tree_form = canonical_form(stone_space(tree))
    if space_form != tree_form:
        raise CheckFailure(
            f"forms differ: space {space_form} vs tree {tree_form}"
        )
    plural = "" if space_form.points == 1 else "s"
    _emit(
        f"forms equal: {space_form.points} isolated point{plural}\n", args.out
    )
    return 0


def _cmd_algebra(args: argparse.Namespace) -> int:
    s = parse_compactum(_read(args.compactum))
    _emit(print_ba(clopen_algebra(s)), args.out)
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    b = parse_ba(_read(args.ba))
    _emit(print_ba(quotient_by_junk(b)), args.out)
    return 0


def _parse_quotient_map(text: str) -> QuotientIso:
    pair = (2, lambda i, j: (int(i), int(j)))
    return QuotientIso(tuple(read_lines(text, None, {"pair": pair})))


def _cmd_iso(args: argparse.Namespace) -> int:
    b0 = parse_ba(_read(args.ba0))
    b1 = parse_ba(_read(args.ba1))
    qmap = None
    if args.quotient_map is not None:
        qmap = _parse_quotient_map(_read(args.quotient_map))
    try:
        iso = build_isomorphism(b0, b1, qmap)
    except ValueError as exc:
        raise CheckFailure(str(exc)) from exc
    _emit(print_iso(iso), args.out)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    s = parse_compactum(_read(args.compactum))
    cert = cover(s, _check_precision(args.precision))
    _emit(print_cover(cert), args.out)
    if args.out is not None:
        sys.stdout.write(f"h={cert.h}\n")
    else:
        sys.stderr.write(f"h={cert.h}\n")
    return 0


def _format_atom(atom: tuple[int, str]) -> str:
    return f"{atom[0]}:{atom[1]}"


# Partitions are counted exactly up to this many atoms; a host with more is
# far over budget ("needs over").  Capping the depth at it keeps 2^depth
# small, since a Cantor group then already has more atoms than this.
_COUNTED_ATOMS = 64


def _cmd_partitions(args: argparse.Namespace) -> int:
    depth = check_natural("--depth", args.depth)
    s = parse_compactum(_read(args.compactum))
    atoms = atom_count(s, min(depth, _COUNTED_ATOMS))
    need = bell_number(min(atoms, _COUNTED_ATOMS))
    if need > MAX_PARTITIONS:
        over = "over " if atoms > _COUNTED_ATOMS else ""
        raise ValueError(
            f"depth {depth} needs {over}{need} partitions, more than {MAX_PARTITIONS}"
        )
    lines = [f"partitions depth={depth}"]
    for parts in clopen_partitions(s, depth):
        blocks = ["+".join(_format_atom(a) for a in sorted(p)) for p in parts]
        lines.append("part " + " | ".join(sorted(blocks)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_supnorm(args: argparse.Namespace) -> int:
    f = parse_plf(_read(args.plf))
    host = parse_compactum(_read(args.compactum))
    norm = sup_norm(HostedFunction(f, host))
    _emit(f"supnorm {norm}\n", args.out)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    count = check_natural("--count", args.count)
    depth = check_natural("--depth", args.depth)
    rng = random.Random(args.seed)
    lines = []
    passed = 0
    for i in range(count):
        tree = random_tree(rng, max_depth=depth)
        limit = construct_limit(tree)
        space_form = canonical_form(reduction(limit))
        tree_form = canonical_form(stone_space(tree))
        algebra_form = ba_form(quotient_by_junk(clopen_algebra(limit)))
        dual_form = ba_form(tree_algebra(tree))
        ok = space_form == tree_form and algebra_form == dual_form
        passed += ok
        lines.append(f"case {i} {'ok' if ok else 'FAIL'}")
    lines.append(f"{passed}/{count} duality roundtrips pass")
    _emit("\n".join(lines) + "\n", args.out)
    if passed != count:
        raise CheckFailure(f"{count - passed} duality roundtrips failed")
    return 0


def _cmd_render_svg(args: argparse.Namespace) -> int:
    tree = parse_tree(_read(args.tree))
    _emit(render_tree_svg(tree), args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compacta",
        description="Labelled trees, their limit compacta, and the dual algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = cmd("construct", _cmd_construct, "tree file -> limit compactum")
    p.add_argument("tree")

    p = cmd("simulate", _cmd_simulate, "script + stage -> points and gap")
    p.add_argument("script")
    p.add_argument("--stage", type=int, default=0)

    p = cmd("derive", _cmd_derive, "compactum -> isolated points removed")
    p.add_argument("compactum")

    p = cmd("reduce", _cmd_reduce, "compactum -> interval atoms collapsed")
    p.add_argument("compactum")

    p = cmd("stone", _cmd_stone, "tree file -> its dual algebra's space")
    p.add_argument("tree")

    p = cmd("dualcheck", _cmd_dualcheck, "tree: reduced limit vs dual space")
    p.add_argument("tree")

    p = cmd("algebra", _cmd_algebra, "compactum -> clopen algebra")
    p.add_argument("compactum")

    p = cmd("quotient", _cmd_quotient, "ba file -> quotient by junk ideal")
    p.add_argument("ba")

    p = cmd("iso", _cmd_iso, "two ba files -> isomorphism or failure")
    p.add_argument("ba0")
    p.add_argument("ba1")
    p.add_argument("quotient_map", nargs="?", default=None)

    p = cmd("cover", _cmd_cover, "compactum + precision -> ball cover")
    p.add_argument("compactum")
    p.add_argument("--precision", type=int, default=4)

    p = cmd("partitions", _cmd_partitions, "compactum -> clopen partitions")
    p.add_argument("compactum")
    p.add_argument("--depth", type=int, default=1)

    p = cmd("supnorm", _cmd_supnorm, "plf + host compactum -> exact norm")
    p.add_argument("plf")
    p.add_argument("compactum")

    p = cmd("suite", _cmd_suite, "random duality roundtrip suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--count", type=int, default=100)

    p = cmd("render-svg", _cmd_render_svg, "tree file -> interval diagram")
    p.add_argument("tree")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CheckFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
