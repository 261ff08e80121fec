"""End-to-end runs of every subcommand through the in-process entry point."""

from pathlib import Path

import pytest

from compacta.cli import main
from compacta.boolalg import parse_ba
from compacta.compact import parse_cover
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
    ],
)
def test_malformed_line_exits_two(run, tmp_path, command, name, text) -> None:
    rc, out, err = run(command, put(tmp_path, name, text))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(text.splitlines()[-1]) in err


def test_malformed_plf_exits_two(run, tmp_path) -> None:
    plf = put(tmp_path, "x.plf", "plf\n(0,0) (1/0,1) (1,0)\n")
    rc, out, err = run("supnorm", plf, put(tmp_path, "unit.comp", UNIT))
    assert rc == 2
    assert out == ""
    assert err == "error: bad breakpoint token '(1/0,1)'\n"


def test_malformed_cover_ball_is_a_value_error() -> None:
    with pytest.raises(ValueError, match="'ball 1/0 1/4'"):
        parse_cover("cover n=2\nball 1/0 1/4\n")
