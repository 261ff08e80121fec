"""End-to-end runs of every subcommand through the in-process entry point."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compacta.cli import main
from compacta.boolalg import parse_ba
from compacta.compact import (
    MAX_PARTITIONS,
    atom_count,
    atoms_at_depth,
    bell_number,
    parse_cover,
)
from compacta.compactum import parse_compactum

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
    assert err == (
        "error: invalid literal for int() with base 10: 'x' in line 'pair x 1'\n"
    )


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
