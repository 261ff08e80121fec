"""End-to-end runs of every subcommand through the in-process entry point."""

import contextlib
import hashlib
import io
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compacta.cli as cli
from compacta.boolalg import algebra, cluster, parse_ba
from compacta.cli import main
from compacta.compact import (
    MAX_PARTITIONS,
    atom_count,
    atoms_at_depth,
    bell_number,
    parse_cover,
)
from compacta.compactum import parse_compactum
from compacta.randgen import random_tree
from compacta.svg import render_tree_svg

ETA_TREE = "tree v1\nnode - eta\n"

EXAMPLE_TREE = """tree v1
node - split m=1 r=1 et=1
node 3 terminal
node 4 split m=0 r=0 et=0
node 4.1 eta
node 4.2 terminal
"""

SCRIPT = """tree v1
event fresh -
event replace -
label 3 terminal
label 4 eta
"""

B0 = "ba v1\ncluster in=3 junk=1 atomless=0\ncluster in=w junk=w atomless=0\n"
B1 = "ba v1\ncluster in=3 junk=2 atomless=0\ncluster in=w junk=w atomless=0\n"

HAT = "plf\n(0,0) (1/2,1) (1,0)\n"
UNIT = "compactum v1\ninterval 0/2^0 1/2^0\n"
CANTOR = "compactum v1\ncantor 0/2^0 1/2^0\n"
COMPACTUM = (
    "compactum v1\npoint 0/2^0\ninterval 1/2^3 1/2^2\ncantor 3/2^3 1/2^1\n"
    "seq 1/2^0 3/2^2 1/2^0\n"
)


@pytest.fixture
def run(tmp_path, capsys):
    def go(*argv: str) -> tuple[int, str, str]:
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return go


def put(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def argv_for(tmp_path: Path, command: str, path: str) -> list[str]:
    """argv that runs command on the file at path: a plf goes with a host
    compactum, a quotient map after two algebras."""
    if command == "supnorm":
        return [command, path, put(tmp_path, "unit.comp", UNIT)]
    if command == "iso":
        return [command, put(tmp_path, "b0.ba", B0), put(tmp_path, "b1.ba", B1), path]
    return [command, path]


def test_construct_single_eta(run, tmp_path) -> None:
    tree = put(tmp_path, "eta.tree", ETA_TREE)
    rc, out, err = run("construct", tree)
    assert rc == 0
    assert out == "compactum v1\ncantor 0/2^0 1/2^0\n"
    assert err == ""


def test_construct_roundtrips_and_is_deterministic(run, tmp_path) -> None:
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    rc1, out1, _ = run("construct", tree)
    rc2, out2, _ = run("construct", tree)
    assert rc1 == rc2 == 0
    assert out1 == out2
    parse_compactum(out1)


def test_construct_out_flag_writes_file(run, tmp_path) -> None:
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    target = tmp_path / "out.comp"
    rc, out, _ = run("construct", tree, "--out", str(target))
    assert rc == 0
    assert out == ""
    parse_compactum(target.read_text())


@pytest.mark.parametrize("target", ["no/such/dir/x", "."], ids=["missing", "a-dir"])
def test_unwritable_out_exits_two(run, tmp_path, target) -> None:
    """An --out path that cannot be written (its directory is missing, or
    it is a directory) is reported like an unreadable input: one error
    line naming the path, exit 2 and nothing on stdout."""
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    path = tmp_path / target
    rc, out, err = run("construct", tree, "--out", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def out_calls(tmp_path: Path) -> list[list[str]]:
    """One call per subcommand, on the README's inputs and the tests'
    algebras and quotient map."""
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    comp = str(tmp_path / "ex.compactum")
    assert main(["construct", tree, "--out", comp]) == 0
    ba = str(tmp_path / "ex.ba")
    assert main(["algebra", comp, "--out", ba]) == 0
    b0, b1 = put(tmp_path, "b0.ba", B0), put(tmp_path, "b1.ba", B1)
    return [
        ["construct", tree],
        ["simulate", put(tmp_path, "ex.script", SCRIPT), "--stage", "3"],
        ["derive", comp],
        ["reduce", comp],
        ["stone", tree],
        ["dualcheck", tree],
        ["algebra", comp],
        ["quotient", ba],
        ["iso", b0, b1, put(tmp_path, "q.map", "pair 1 1\n")],
        ["cover", comp, "--precision", "3"],
        ["partitions", comp, "--depth", "1"],
        ["supnorm", put(tmp_path, "ex.plf", HAT), comp],
        ["suite", "--count", "5"],
        ["render-svg", tree],
    ]


def run_merged(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout and stderr as one stream, in write order."""
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        rc = main(argv)
    return rc, both.getvalue()


def test_out_file_gets_the_bytes_stdout_gets(run, tmp_path) -> None:
    """Under --out each subcommand writes to the file what it prints
    alone; only cover's h= line is left, and it moves to stdout."""
    calls = out_calls(tmp_path)
    assert [argv[0] for argv in calls] == [c.name for c in cli.COMMANDS]
    target = tmp_path / "out"
    for argv in calls:
        rc, out, err = run(*argv)
        assert rc == 0 and out, argv
        rc, out_then, err_then = run(*argv, "--out", str(target))
        assert rc == 0, argv
        assert target.read_text() == out, argv
        target.unlink()
        if argv[0] == "cover":
            assert (err, out_then, err_then) == ("h=7\n", "h=7\n", ""), argv
        else:
            assert (err, out_then, err_then) == ("", "", ""), argv


def test_failing_suite_reports_before_its_error(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(cli, "tree_algebra", lambda tree: algebra(cluster(9, 0)))
    rc, merged = run_merged(["suite", "--count", "4"])
    *cases, tally, error = merged.splitlines(keepends=True)
    assert rc == 1 and cases == [f"case {i} FAIL\n" for i in range(4)]
    assert tally == "0/4 duality roundtrips pass\n"
    assert error == "error: 4 duality roundtrips failed\n"
    target = tmp_path / "report"
    assert run_merged(["suite", "--count", "4", "--out", str(target)]) == (1, error)
    assert target.read_text() == "".join(cases) + tally


def test_dualcheck_example(run, tmp_path) -> None:
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    rc, out, err = run("dualcheck", tree)
    assert rc == 0
    assert out == "forms equal: 2 isolated points\n"
    assert err == ""


def test_simulate_reports_gap(run, tmp_path) -> None:
    script = put(tmp_path, "demo.script", SCRIPT)
    rc, out, _ = run("simulate", script, "--stage", "6")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "stage 6"
    assert lines[-1].startswith("gap ")


def test_derive_then_reduce_pipeline(run, tmp_path) -> None:
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    rc, comp_text, _ = run("construct", tree)
    comp = put(tmp_path, "ex.comp", comp_text)
    rc, derived, _ = run("derive", comp)
    assert rc == 0
    dfile = put(tmp_path, "d.comp", derived)
    rc, reduced, _ = run("reduce", dfile)
    assert rc == 0
    rfile = put(tmp_path, "r.comp", reduced)
    rc, stoned, _ = run("stone", tree)
    assert parse_compactum(reduced).components == parse_compactum(stoned).components


def test_algebra_and_quotient(run, tmp_path) -> None:
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    _, comp_text, _ = run("construct", tree)
    comp = put(tmp_path, "ex.comp", comp_text)
    rc, ba_text, _ = run("algebra", comp)
    assert rc == 0
    assert ba_text == (
        "ba v1\n"
        "cluster in=2 junk=3 atomless=0\n"
        "cluster in=0 junk=0 atomless=1\n"
    )
    ba = put(tmp_path, "ex.ba", ba_text)
    rc, q_text, _ = run("quotient", ba)
    assert rc == 0
    assert q_text == (
        "ba v1\n"
        "cluster in=0 junk=2 atomless=0\n"
        "cluster in=0 junk=0 atomless=1\n"
    )
    parse_ba(q_text)


def test_iso_worked_example(run, tmp_path) -> None:
    b0 = put(tmp_path, "b0.ba", B0)
    b1 = put(tmp_path, "b1.ba", B1)
    rc, out, err = run("iso", b0, b1)
    assert rc == 0
    assert out == (
        "atom 0.in.0 -> 0.in.0\n"
        "atom 0.in.1 -> 0.in.1\n"
        "atom 0.in.2 -> 0.in.2\n"
        "atom 0.junk.0 -> 0.junk.0\n"
        "atom 1.junk.0 -> 0.junk.1\n"
        "bulk 1.in -> 1.in\n"
        "bulk 1.junk -> 1.junk skip 0 -> -\n"
    )


def test_iso_accepts_quotient_map_file(run, tmp_path) -> None:
    b0 = put(tmp_path, "b0.ba", B0)
    b1 = put(tmp_path, "b1.ba", B1)
    qmap = put(tmp_path, "q.map", "pair 1 1\n")
    rc, out, _ = run("iso", b0, b1, qmap)
    assert rc == 0
    assert "bulk 1.junk -> 1.junk" in out


def test_iso_over_line_budget_is_refused_up_front(run, tmp_path, monkeypatch) -> None:
    """One atom line past the budget: exit 2 and one error line, before
    any isomorphism is built."""

    def built(*args):
        raise AssertionError("the isomorphism was built before the refusal")

    monkeypatch.setattr(cli, "build_isomorphism", built)
    n = 2**20 + 1
    b0 = put(
        tmp_path,
        "b0.ba",
        f"ba v1\ncluster in={n} junk=0 atomless=0\ncluster in=w junk=w atomless=0\n",
    )
    b1 = put(tmp_path, "b1.ba", "ba v1\ncluster in=w junk=w atomless=0\n")
    rc, out, err = run("iso", b0, b1)
    assert (rc, out) == (2, "")
    assert err == f"error: the isomorphism needs {n + 2} lines, more than {2 ** 20}\n"


def test_iso_refusal_comes_before_the_line_budget(run, tmp_path) -> None:
    """A pair with no isomorphism is refused as one, however many atoms
    it has."""
    b0 = put(tmp_path, "b0.ba", f"ba v1\ncluster in={10**8} junk=0 atomless=0\n")
    b1 = put(tmp_path, "b1.ba", "ba v1\ncluster in=5 junk=0 atomless=0\n")
    rc, out, err = run("iso", b0, b1)
    assert (rc, out, err) == (1, "", "error: quotients are not isomorphic\n")


def test_iso_of_empty_algebras_prints_nothing(run, tmp_path) -> None:
    """Two algebras with no clusters: the isomorphism has no lines, so
    nothing is printed, not an empty line."""
    empty = put(tmp_path, "e.ba", "ba v1\n")
    assert run("iso", empty, empty) == (0, "", "")


def test_iso_rejects_unbalanced(run, tmp_path) -> None:
    bad = put(tmp_path, "bad.ba", "ba v1\ncluster in=w junk=2 atomless=0\n")
    rc, out, err = run("iso", bad, bad)
    assert rc == 1
    assert err.startswith("error: ")
    assert out == ""


def test_cover_emits_parseable_certificate(run, tmp_path) -> None:
    comp = put(tmp_path, "unit.comp", UNIT)
    rc, out, err = run("cover", comp, "--precision", "1")
    assert rc == 0
    cert = parse_cover(out)
    assert [str(b.center) for b in cert.balls] == ["0", "1/2", "1"]
    assert err == "h=3\n"


def test_cover_precision_bound(run, tmp_path) -> None:
    comp = put(tmp_path, "unit.comp", UNIT)
    rc, _, err = run("cover", comp, "--precision", "65")
    assert rc == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text, precision, balls",
    [
        (UNIT, "30", 2 ** 30 + 1),
        ("compactum v1\ncantor 0/2^0 1/2^0\n", "40", 2 ** 27),
    ],
)
def test_cover_too_large_is_refused_up_front(
    run, tmp_path, text, precision, balls
) -> None:
    comp = put(tmp_path, "big.comp", text)
    rc, out, err = run("cover", comp, "--precision", precision)
    assert rc == 2
    assert out == ""
    assert err == (
        f"error: a cover at precision {precision} needs {balls} balls, "
        f"more than {2 ** 20}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("suite", "--count", "-1"),
        ("suite", "--depth", "-1"),
        ("partitions", "{comp}", "--depth", "-1"),
    ],
)
def test_negative_count_or_depth_exits_two(run, tmp_path, argv) -> None:
    comp = put(tmp_path, "unit.comp", UNIT)
    rc, out, err = run(*(a.format(comp=comp) for a in argv))
    assert rc == 2
    assert out == ""
    assert err == f"error: {argv[-2]} must be a natural number, got -1\n"


def test_partitions_output(run, tmp_path) -> None:
    comp = put(tmp_path, "unit.comp", UNIT)
    rc, out, _ = run("partitions", comp, "--depth", "2")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "partitions depth=2"
    assert lines[1] == "part 0:"


@pytest.mark.parametrize(
    "text, depths",
    [
        (UNIT, range(3)),
        (CANTOR, range(4)),
        ("compactum v1\npoint 0/2^0\npoint 1/2^1\npoint 1/2^0\n", range(2)),
        (COMPACTUM, range(3)),
        ("compactum v1\ncantor 0/2^0 1/2^1\nseq 1/2^1 1/2^1 1/2^0\n", range(4)),
    ],
)
def test_partition_count_is_lines_emitted(run, tmp_path, text, depths) -> None:
    comp = put(tmp_path, "host.comp", text)
    host = parse_compactum(text)
    for depth in depths:
        atoms = atom_count(host, depth)
        assert atoms == len(atoms_at_depth(host, depth))
        rc, out, err = run("partitions", comp, "--depth", str(depth))
        assert rc == 0 and err == ""
        assert out.count("\npart ") == bell_number(atoms)


def test_bell_numbers() -> None:
    assert [bell_number(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert bell_number(16) == 10480142147


@pytest.mark.parametrize(
    "depth, need",
    [
        ("4", "10480142147"),
        ("64", f"over {bell_number(64)}"),
        ("1000000000", f"over {bell_number(64)}"),
    ],
)
def test_partitions_too_many_are_refused_up_front(run, tmp_path, depth, need) -> None:
    comp = put(tmp_path, "cantor.comp", CANTOR)
    rc, out, err = run("partitions", comp, "--depth", depth)
    assert rc == 2
    assert out == ""
    assert err == (
        f"error: depth {depth} needs {need} partitions, more than {MAX_PARTITIONS}\n"
    )


def test_supnorm(run, tmp_path) -> None:
    plf = put(tmp_path, "hat.plf", HAT)
    comp = put(tmp_path, "unit.comp", UNIT)
    rc, out, _ = run("supnorm", plf, comp)
    assert rc == 0
    assert out == "supnorm 1\n"
    two_points = put(
        tmp_path, "pts.comp", "compactum v1\npoint 0/2^0\npoint 1/2^0\n"
    )
    rc, out, _ = run("supnorm", plf, two_points)
    assert out == "supnorm 0\n"


def test_suite_seed_42(run) -> None:
    rc, out, err = run("suite", "--seed", "42", "--depth", "4", "--count", "100")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "100/100 duality roundtrips pass"
    assert lines[0] == "case 0 ok"
    assert err == ""


def test_suite_deterministic(run) -> None:
    rc1, out1, _ = run("suite", "--seed", "7", "--count", "10")
    rc2, out2, _ = run("suite", "--seed", "7", "--count", "10")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_render_svg_deterministic(run, tmp_path) -> None:
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    rc1, svg1, _ = run("render-svg", tree)
    rc2, svg2, _ = run("render-svg", tree)
    assert rc1 == rc2 == 0
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert svg1.rstrip().endswith("</svg>")
    assert "circle" in svg1
    assert hashlib.sha256(svg1.encode()).hexdigest() == EXAMPLE_SVG_SHA256


# sha256 of render-svg on the README tree (EXAMPLE_TREE), and of the SVGs
# of 300 seeded trees concatenated: any change to a drawn coordinate shows.
EXAMPLE_SVG_SHA256 = "f59140596182dc607d8c04bdc160c14b8c984ddd64311c7534964551d4d32e3b"
SEEDED_SVG_SHA256 = "3db375305e34505b2bf6d1b83db7d96b1303a573e30d4ee00c78d26ac3aa1a81"


def test_render_svg_of_seeded_trees_is_pinned() -> None:
    rng = random.Random(20260817)
    digest = hashlib.sha256()
    for _ in range(300):
        digest.update(render_tree_svg(random_tree(rng)).encode())
    assert digest.hexdigest() == SEEDED_SVG_SHA256


def test_parse_failure_exits_two(run, tmp_path) -> None:
    junk = put(tmp_path, "junk.tree", "not a tree\n")
    rc, out, err = run("construct", junk)
    assert rc == 2
    assert err.startswith("error: ")
    rc, _, err = run("construct", str(tmp_path / "missing.tree"))
    assert rc == 2
    assert err.startswith("error: ")


def test_usage_failure_exits_two(run, capsys) -> None:
    rc = main(["nonsense"])
    assert rc == 2


SRC = str(Path(__file__).resolve().parents[1] / "src")
FRESH = "import sys; from compacta.cli import main; sys.exit(main(sys.argv[1:]))"


def test_repeated_calls_match_fresh_processes(tmp_path, monkeypatch) -> None:
    """One process reuses the parser across calls; every call's stdout,
    stderr and exit code must match the same argv run alone."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    tree = put(tmp_path, "ex.tree", EXAMPLE_TREE)
    junk = put(tmp_path, "junk.tree", "not a tree\n")
    bad = put(tmp_path, "bad.ba", "ba v1\ncluster in=w junk=2 atomless=0\n")
    comp = put(tmp_path, "unit.comp", UNIT)
    suite = ["suite", "--count", "3"]
    calls = [
        (["construct", tree], 0),
        (["--help"], 0),
        (["cover", "--help"], 0),
        (["construct"], 2),
        (["construct", tree], 0),
        (suite, 0),
        (["construct", junk], 2),
        (["cover", comp, "--precision", "1"], 0),
        (["iso", bad, bad], 1),
        (["--help"], 0),
        (["cover", "--help"], 0),
        (["construct"], 2),
        (suite, 0),
        (["cover", comp, "--precision", "1"], 0),
    ]
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv, code in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        fresh = subprocess.run(
            [sys.executable, "-c", FRESH, *argv],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert rc == fresh.returncode == code, argv
        assert out.getvalue() == fresh.stdout, argv
        assert err.getvalue() == fresh.stderr, argv
        assert out.getvalue() or err.getvalue(), argv


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("quotient", "x.ba", "ba v1\ncluster in=1 junk=2 foo=0\n"),
        ("construct", "x.tree", "tree v1\nnode -\n"),
        ("simulate", "x.script", "tree v1\nevent fresh\n"),
        ("simulate", "x.script", "tree v1\nevent fresh -\nstop\n"),
        ("derive", "x.compactum", "compactum v1\npoint 1/2^x\n"),
        ("construct", "x.tree", "tree v1\nnode - split m=x r=1\n"),
        ("construct", "x.tree", "tree v1\nnode 1.x terminal\n"),
        ("simulate", "x.script", "tree v1\nevent fresh -\nstop x\n"),
        ("simulate", "x.script", "tree v1\nevent fresh 1.y\n"),
        ("construct", "x.tree", "tree v1\nnode - eta\nnode - terminal\n"),
        ("simulate", "x.script", "tree v1\nnode - eta\nnode - terminal\n"),
        (
            "simulate",
            "x.script",
            "tree v1\nevent fresh -\nlabel 1 terminal\nlabel 2 eta\nlabel 1 eta\n",
        ),
        ("simulate", "x.script", "tree v1\nnode - eta\nstop 1\nstop 2\n"),
        (
            "construct",
            "x.tree",
            "tree v1\nnode 1 terminal\nnode 2 eta\nnode - split m=0 r=0 et=7\n",
        ),
        ("derive", "x.compactum", "compactum v1\ninterval 1/2^1 0/2^0\n"),
        ("construct", "x.tree", "tree v1\nnode - terminal foo\n"),
        ("construct", "x.tree", "tree v1\nnode - bogus\n"),
        ("simulate", "x.script", "tree v1\nevent fresh -\nlabel 2 leaf\n"),
        ("supnorm", "x.plf", "plf\n(0,0) (1/2,x) (1,0)\n"),
        ("supnorm", "x.plf", "plf\n(0,0) (1,0)\n(0,0) (1,0)\n"),
        ("iso", "q.map", "pair 0\n"),
        ("derive", "x.compactum", "compactum v1\ncantor 1/2^1 0/2^0\n"),
        ("derive", "x.compactum", "compactum v1\nseq 1/2^1 1/2^1 0/2^0\n"),
        ("derive", "x.compactum", "compactum v1\nseq 1/2^2 0/2^0 1/2^1\n"),
        ("derive", "x.compactum", "compactum v1\npoint 1/2^-1\n"),
        ("simulate", "x.script", "tree v1\nnode 1.-2 terminal\n"),
    ],
)
def test_malformed_line_exits_two(run, tmp_path, command, name, text) -> None:
    rc, out, err = run(*argv_for(tmp_path, command, put(tmp_path, name, text)))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(text.splitlines()[-1]) in err


def test_malformed_quotient_map_exits_two(run, tmp_path) -> None:
    b0 = put(tmp_path, "b0.ba", B0)
    b1 = put(tmp_path, "b1.ba", B1)
    qmap = put(tmp_path, "q.map", "pair x 1\n")
    rc, out, err = run("iso", b0, b1, qmap)
    assert rc == 2
    assert out == ""
    assert err == "error: not a natural number: 'x' in line 'pair x 1'\n"


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("derive", "x.compactum", "", "missing 'compactum v1' header"),
        ("simulate", "x.script", "tree v1\n", "script has an empty stage-0 tree"),
        (
            "simulate",
            "x.script",
            "tree v1\nnode - spine\nnode 0 terminal\nnode 1 terminal\n"
            "node 3.1 terminal\n",
            "stage-0 tree not prefix-closed at 3.1",
        ),
        (
            "simulate",
            "x.script",
            "tree v1\nnode - spine\nnode 0 terminal\n",
            "spine at - needs both slots filled",
        ),
        (
            "quotient",
            "x.ba",
            "ba v1\ncluster in=x junk=0 atomless=0\n",
            "not a natural number: 'x' in line 'cluster in=x junk=0 atomless=0'",
        ),
        (
            "quotient",
            "x.ba",
            "ba v1\ncluster in=w junk=-0 atomless=0\n",
            "not a natural number: '-0' in line 'cluster in=w junk=-0 atomless=0'",
        ),
        (
            "construct",
            "x.tree",
            "tree v1\nnode - split m=+1 r=1\n",
            "not a natural number: '+1' in line 'node - split m=+1 r=1'",
        ),
        (
            "simulate",
            "x.script",
            "tree v1\nevent fresh -\nstop 1_0\n",
            "not a natural number: '1_0' in line 'stop 1_0'",
        ),
        (
            "iso",
            "q.map",
            "pair 1 -1\n",
            "not a natural number: '-1' in line 'pair 1 -1'",
        ),
        (
            "derive",
            "x.compactum",
            "compactum v1\npoint 1_0/2^5\n",
            "not a dyadic literal: '1_0/2^5' in line 'point 1_0/2^5'",
        ),
        (
            "derive",
            "x.compactum",
            "compactum v1\npoint +1/2^1\n",
            "not a dyadic literal: '+1/2^1' in line 'point +1/2^1'",
        ),
        (
            "derive",
            "x.compactum",
            "compactum v1\npoint 1/2^+1\n",
            "not a dyadic literal: '1/2^+1' in line 'point 1/2^+1'",
        ),
        (
            "derive",
            "x.compactum",
            "compactum v1\npoint 1/2^1_0\n",
            "not a dyadic literal: '1/2^1_0' in line 'point 1/2^1_0'",
        ),
        (
            "derive",
            "x.compactum",
            "compactum v1\npoint ١/2^1\n",
            "not a dyadic literal: '١/2^1' in line 'point ١/2^1'",
        ),
        (
            "derive",
            "x.compactum",
            "compactum v1\npoint 1/2^-1\n",
            "negative exponent in dyadic literal: '1/2^-1' in line 'point 1/2^-1'",
        ),
        (
            "construct",
            "x.tree",
            "tree v1\nnode 1_0 terminal\n",
            "not an address: '1_0' in line 'node 1_0 terminal'",
        ),
        (
            "construct",
            "x.tree",
            "tree v1\nnode +3 terminal\n",
            "not an address: '+3' in line 'node +3 terminal'",
        ),
        (
            "construct",
            "x.tree",
            "tree v1\nnode ٣ terminal\n",
            "not an address: '٣' in line 'node ٣ terminal'",
        ),
        (
            "construct",
            "x.tree",
            "tree v1\nnode 1.-2 terminal\n",
            "negative index in address: '1.-2' in line 'node 1.-2 terminal'",
        ),
    ],
)
def test_refusal_message(run, tmp_path, command, name, text, message) -> None:
    rc, out, err = run(*argv_for(tmp_path, command, put(tmp_path, name, text)))
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_stage_too_large_is_refused_up_front(run, tmp_path) -> None:
    # The terminal leaf born at stage 2 needs 2^39 - 1 points at stage 40,
    # the root's seed point and the two bridges 3 more.
    script = put(tmp_path, "ex.script", SCRIPT)
    rc, out, err = run("simulate", script, "--stage", "40")
    assert rc == 2
    assert out == ""
    assert err == "error: stage 40 needs 549755813890 points, more than 1048576\n"


def test_malformed_plf_exits_two(run, tmp_path) -> None:
    plf = put(tmp_path, "x.plf", "plf\n(0,0) (1/0,1) (1,0)\n")
    rc, out, err = run("supnorm", plf, put(tmp_path, "unit.comp", UNIT))
    assert rc == 2
    assert out == ""
    assert err == (
        "error: bad breakpoint token '(1/0,1)' in line '(0,0) (1/0,1) (1,0)'\n"
    )


def test_malformed_cover_ball_is_a_value_error() -> None:
    with pytest.raises(ValueError, match="'ball 1/0 1/4'"):
        parse_cover("cover n=2\nball 1/0 1/4\n")


@pytest.mark.parametrize(
    "components, message",
    [
        (
            ["interval 1/2^1 3/2^1"],
            "compactum must live inside [0,1]",
        ),
        (
            ["point 1/2^1", "point -1/2^2"],
            "compactum must live inside [0,1]",
        ),
        (
            ["interval 0/2^0 1/2^1", "interval 1/2^2 1/2^0"],
            "components overlap near 1/2^1: Interval(lo=0/2^0, hi=1/2^1) "
            "and Interval(lo=1/2^2, hi=1/2^0)",
        ),
        (
            ["point 1/2^1", "interval 0/2^0 1/2^1"],
            "components touch at 1/2^1 without a sequence limit sanctioning "
            "it: Interval(lo=0/2^0, hi=1/2^1) and Point(pos=1/2^1)",
        ),
        (
            ["seq 1/2^1 1/2^1 3/2^2", "cantor 3/2^2 1/2^0"],
            "components touch at 3/2^2 without a sequence limit sanctioning "
            "it: PointSeq(limit=1/2^1, lo=1/2^1, hi=3/2^2) and "
            "Cantor(lo=3/2^2, hi=1/2^0)",
        ),
    ],
)
def test_invalid_compactum_messages(run, tmp_path, components, message) -> None:
    text = "compactum v1\n" + "".join(f"{c}\n" for c in components)
    rc, out, err = run("derive", put(tmp_path, "bad.compactum", text))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_sessions() -> list[list[tuple[str, list[str]]]]:
    """The shell blocks of README.md: per block, each `$ ` command with
    the lines shown after it, trailing blank lines dropped."""
    sessions = []
    for block in README.read_text().split("```")[1::2]:
        if not block.startswith("\n$ "):
            continue
        steps: list[tuple[str, list[str]]] = []
        for line in block.strip("\n").splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
        sessions.append(
            [(cmd, "\n".join(shown).rstrip("\n").split("\n")) for cmd, shown in steps]
        )
    return sessions


def readme_python() -> str:
    blocks = README.read_text().split("```")[1::2]
    (block,) = [b for b in blocks if b.startswith("python\n")]
    return block[len("python\n") :]


def test_readme_examples(run, tmp_path, monkeypatch) -> None:
    """Each `$ compacta ...` example prints what README.md shows: all of
    it, the prefix for `| head -N`, the suffix for `| tail -N`, and the
    lines around a `...`.  `cat` writes the example files shown (or
    checks one an earlier command wrote); the Python block runs too."""
    monkeypatch.chdir(tmp_path)
    ran = 0
    for session in readme_sessions():
        for cmd, shown in session:
            shown = [] if shown == [""] else shown
            if cmd.startswith("cat "):
                path = tmp_path / cmd[4:]
                if path.exists():
                    assert path.read_text().splitlines() == shown, cmd
                else:
                    path.write_text("\n".join(shown) + "\n")
                continue
            if cmd.startswith("printf "):
                fmt, redirect, name = shlex.split(cmd)[1:]
                assert redirect == ">"
                (tmp_path / name).write_text(fmt.replace("\\n", "\n"))
                continue
            command, _, pipe = cmd.partition(" | ")
            argv = shlex.split(command)
            assert argv[0] == "compacta", cmd
            rc, out, _ = run(*argv[1:])
            assert rc == 0, cmd
            lines = out.splitlines()
            if pipe:
                tool, count = pipe.split()
                n = int(count.lstrip("-"))
                lines = lines[:n] if tool == "head" else lines[-n:]
            if "..." in shown:
                cut = shown.index("...")
                head, tail = shown[:cut], shown[cut + 1:]
                assert lines[: len(head)] == head, cmd
                assert lines[len(lines) - len(tail):] == tail, cmd
            else:
                assert lines == shown, cmd
            ran += 1
    assert ran == 9
    exec(compile(readme_python(), str(README), "exec"), {})


# A valid file per subcommand whose work is bounded by its input's size;
# fuzzed copies of them must never crash the reader.
FUZZED = {
    "construct": EXAMPLE_TREE,
    "simulate": SCRIPT,
    "derive": COMPACTUM,
    "reduce": COMPACTUM,
    "algebra": COMPACTUM,
    "quotient": B0,
    "supnorm": HAT,
    "iso": "pair 1 1\n",
}
JUNK = [
    "x", "-", "-1", "0", "w", "=", "m=", "et=2", "1/0", "1/2^3", "(0,0)", "(1,", "node"
]
EDITS = st.lists(
    st.tuples(
        st.integers(0, 99),
        st.integers(0, 99),
        st.sampled_from(["drop", "dup", "junk"]),
        st.sampled_from(JUNK),
    ),
    min_size=1,
    max_size=3,
)


def fuzz(text: str, edits: list[tuple[int, int, str, str]]) -> str:
    """text with tokens dropped, duplicated or swapped for junk."""
    lines = [line.split() for line in text.splitlines()]
    for i, j, op, junk in edits:
        tokens = lines[i % len(lines)]
        if not tokens:
            continue
        j %= len(tokens)
        if op == "drop":
            del tokens[j]
        elif op == "dup":
            tokens.insert(j, tokens[j])
        else:
            tokens[j] = junk
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@pytest.mark.parametrize("command", sorted(FUZZED))
def test_fuzzed_input_exits_cleanly(tmp_path_factory, command) -> None:
    tmp_path = tmp_path_factory.mktemp(command)

    @settings(max_examples=30, deadline=None)
    @given(EDITS)
    def check(edits) -> None:
        path = put(tmp_path, "fuzzed", fuzz(FUZZED[command], edits))
        argv = argv_for(tmp_path, command, path)
        if command == "simulate":
            argv += ["--stage", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    check()


@settings(max_examples=60, deadline=None)
@given(EDITS)
def test_fuzzed_cover_raises_only_value_errors(edits) -> None:
    text = fuzz("cover n=2\nball 0 1/4\nball 1/2 1/4\nball 1 1/4\n", edits)
    try:
        parse_cover(text)
    except ValueError as exc:
        assert "\n" not in str(exc)
