"""Batch driver: one subcommand per pipeline stage.

Each subcommand is a row of `COMMANDS`: its name and help text, its file
arguments, each with the reader that parses it, its options, and a body.
`main` runs every row the same way: it reads and parses the file
arguments in order, passes the parsed inputs and then the options to the
body, and emits the text the body returns, to stdout or to the `--out`
file.  A body may return a pair instead, the text and what follows it: a
note, written to stderr (to stdout under `--out`, so `cover`'s ball count
never mixes with its certificate), or a `CheckFailure`, raised once the
text is out (a failing `suite` still prints its report).

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
from typing import Callable, NamedTuple

from .banach import parse_plf, sup_norm, HostedFunction
from .boolalg import (
    QuotientIso,
    build_isomorphism,
    check_iso_budget,
    clopen_algebra,
    parse_ba,
    print_ba,
    print_iso,
    quotient_by_junk,
    stone_space,
    tree_algebra,
)
from .boolalg import canonical_form as ba_form
from .compact import check_partition_budget, clopen_partitions, cover, print_cover
from .compactum import (
    canonical_form,
    cb_derivative,
    parse_compactum,
    print_compactum,
    reduce_intoms,
    reduction,
)
from .construct import construct_limit, enumerate_stage, hausdorff_gap, print_state
from .dyadic import check_natural, parse_natural, read_lines
from .randgen import random_tree
from .svg import render_tree_svg
from .trees import limit_tree, parse_script, parse_tree


class CheckFailure(Exception):
    """A well-formed input failed the requested check."""


# ---------------------------------------------------------------------------
# Readers and bodies
# ---------------------------------------------------------------------------


def _parse_quotient_map(text: str) -> QuotientIso:
    pair = (2, lambda i, j: (parse_natural(i), parse_natural(j)))
    return QuotientIso(tuple(read_lines(text, None, {"pair": pair})))


def _simulate(script, stage: int) -> str:
    state = enumerate_stage(script, stage)
    limit = construct_limit(limit_tree(script))
    return print_state(state, hausdorff_gap(state, limit))


def _dualcheck(tree) -> str:
    space_form = canonical_form(reduction(construct_limit(tree)))
    tree_form = canonical_form(stone_space(tree))
    if space_form != tree_form:
        raise CheckFailure(f"forms differ: space {space_form} vs tree {tree_form}")
    plural = "" if space_form.points == 1 else "s"
    return f"forms equal: {space_form.points} isolated point{plural}\n"


def _iso(b0, b1, qmap) -> str:
    check_iso_budget(b0, b1, qmap)
    try:
        iso = build_isomorphism(b0, b1, qmap)
    except ValueError as exc:
        raise CheckFailure(str(exc)) from exc
    return print_iso(iso)


def _cover(s, precision: int) -> tuple[str, str]:
    if not 0 <= precision <= 64:
        raise ValueError("precision must be between 0 and 64")
    cert = cover(s, precision)
    return print_cover(cert), f"h={cert.h}\n"


def _partitions(s, depth: int) -> str:
    depth = check_natural("--depth", depth)
    check_partition_budget(s, depth)
    lines = [f"partitions depth={depth}"]
    for parts in clopen_partitions(s, depth):
        blocks = ["+".join(f"{g}:{w}" for g, w in sorted(p)) for p in parts]
        lines.append("part " + " | ".join(sorted(blocks)))
    return "\n".join(lines) + "\n"


def _suite(seed: int, depth: int, count: int) -> tuple[str, CheckFailure | None]:
    count = check_natural("--count", count)
    depth = check_natural("--depth", depth)
    rng = random.Random(seed)
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
    failed = None
    if passed != count:
        failed = CheckFailure(f"{count - passed} duality roundtrips failed")
    return "\n".join(lines) + "\n", failed


# ---------------------------------------------------------------------------
# The table and its one driver
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """A subcommand.  `files` pairs each file argument with its reader (a
    name ending in `?` may be left out, and reads as None); `options` are
    (flag, type, default) triples; `body` takes the parsed files and then
    the options, in order, and returns the text or (text, what follows)."""

    name: str
    help: str
    files: tuple[tuple[str, Callable], ...]
    body: Callable
    options: tuple[tuple[str, type, object], ...] = ()


COMPACTUM = (("compactum", parse_compactum),)
TREE = (("tree", parse_tree),)
COMMANDS = (
    Command("construct", "tree file -> limit compactum", TREE,
            lambda t: print_compactum(construct_limit(t))),
    Command("simulate", "script + stage -> points and gap",
            (("script", parse_script),), _simulate, (("--stage", int, 0),)),
    Command("derive", "compactum -> isolated points removed", COMPACTUM,
            lambda s: print_compactum(cb_derivative(s))),
    Command("reduce", "compactum -> interval atoms collapsed", COMPACTUM,
            lambda s: print_compactum(reduce_intoms(s))),
    Command("stone", "tree file -> its dual algebra's space", TREE,
            lambda t: print_compactum(stone_space(t))),
    Command("dualcheck", "tree: reduced limit vs dual space", TREE, _dualcheck),
    Command("algebra", "compactum -> clopen algebra", COMPACTUM,
            lambda s: print_ba(clopen_algebra(s))),
    Command("quotient", "ba file -> quotient by junk ideal", (("ba", parse_ba),),
            lambda b: print_ba(quotient_by_junk(b))),
    Command("iso", "two ba files -> isomorphism or failure",
            (("ba0", parse_ba), ("ba1", parse_ba),
             ("quotient_map?", _parse_quotient_map)), _iso),
    Command("cover", "compactum + precision -> ball cover", COMPACTUM, _cover,
            (("--precision", int, 4),)),
    Command("partitions", "compactum -> clopen partitions", COMPACTUM,
            _partitions, (("--depth", int, 1),)),
    Command("supnorm", "plf + host compactum -> exact norm",
            (("plf", parse_plf),) + COMPACTUM,
            lambda f, host: f"supnorm {sup_norm(HostedFunction(f, host))}\n"),
    Command("suite", "random duality roundtrip suite", (), _suite,
            (("--seed", int, 0), ("--depth", int, 4), ("--count", int, 100))),
    Command("render-svg", "tree file -> interval diagram", TREE, render_tree_svg),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compacta",
        description="Labelled trees, their limit compacta, and the dual algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        p.set_defaults(row=command)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        for name, _ in command.files:
            p.add_argument(name.rstrip("?"), nargs="?" if name[-1] == "?" else None)
        for flag, kind, default in command.options:
            p.add_argument(flag, type=kind, default=default)
    return parser


def _load(path: str | None, read: Callable):
    if path is None:
        return None
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return read(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    row = args.row
    try:
        inputs = [_load(getattr(args, n.rstrip("?")), r) for n, r in row.files]
        options = [getattr(args, flag[2:]) for flag, _, _ in row.options]
        result = row.body(*inputs, *options)
        text, after = result if isinstance(result, tuple) else (result, None)
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write(args.out, text)
        if isinstance(after, CheckFailure):
            raise after
        if after is not None:
            (sys.stderr if args.out is None else sys.stdout).write(after)
        return 0
    except (CheckFailure, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1 if isinstance(exc, CheckFailure) else 2


if __name__ == "__main__":
    sys.exit(main())
