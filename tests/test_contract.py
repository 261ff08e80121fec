"""The library's contract on natural-number parameters: every public
function that takes a count, a depth, a precision or an index refuses
one out of its domain with a `ValueError` that names the parameter.  It
never answers, and never fails with a `TypeError` from deeper down.  A
request over budget is refused from its closed-form size, before any of
its work is done."""

from __future__ import annotations

import importlib
import re

import pytest

from compacta.banach import dense_family, stage_points, stage_values
from compacta.compact import (
    CoverCertificate,
    atom_count,
    atoms_at_depth,
    bell_number,
    check_partition_budget,
    clopen_partitions,
    cover,
    cover_is_valid,
)
from compacta.compactum import Cantor, Interval, Point, PointSeq, compactum
from compacta.construct import enumerate_stage, junk_points, replacement_bridges
from compacta.dyadic import Dyadic, address_ends
from compacta.trees import parse_script

D = Dyadic
HOST = compactum([Cantor(D(0), D(1, 1)), Point(D(3, 2))])
NEGATIVE = (-1, -2, -(2**70))

# (callable of the parameter, the name its error gives, values out of domain)
CASES = {
    "cover": (lambda n: cover(HOST, n), "precision", NEGATIVE),
    "cover_is_valid": (
        lambda n: cover_is_valid(HOST, CoverCertificate(n, (), ())),
        "precision",
        NEGATIVE,
    ),
    "atoms_at_depth": (lambda d: atoms_at_depth(HOST, d), "depth", NEGATIVE),
    "atom_count": (lambda d: atom_count(HOST, d), "depth", NEGATIVE),
    "clopen_partitions": (lambda d: clopen_partitions(HOST, d), "depth", NEGATIVE),
    "check_partition_budget": (
        lambda d: check_partition_budget(HOST, d),
        "depth",
        NEGATIVE,
    ),
    "bell_number": (bell_number, "n", NEGATIVE),
    "stage_points": (lambda n: stage_points(HOST, n), "n", NEGATIVE),
    "stage_values": (stage_values, "n", NEGATIVE),
    "dense_family": (lambda n: dense_family(HOST, n), "n", NEGATIVE),
    "PointSeq.member": (
        PointSeq(D(0), D(0), D(1, 1)).member,
        "index",
        NEGATIVE,
    ),
    "junk_points": (lambda r: junk_points((), r, True), "r", NEGATIVE),
    "replacement_bridges": (lambda j: replacement_bridges((), j), "j", (0, *NEGATIVE)),
    "address_ends": (lambda m: address_ends((0, m)), "index", NEGATIVE),
}


@pytest.mark.parametrize("case", CASES)
def test_out_of_domain_parameters_raise_value_error_naming_them(case) -> None:
    call, name, values = CASES[case]
    for value in values:
        with pytest.raises(ValueError) as exc:
            call(value)
        assert re.search(rf"\b{name} must be", str(exc.value)), (value, exc.value)


# The README's construction script.
SCRIPT = parse_script(
    "tree v1\nevent fresh -\nevent replace -\nlabel 3 terminal\nlabel 4 eta\n"
)

# (the over-budget call, its module, the steps that would do its work,
# the refusal it gives)
OVER_BUDGET = {
    "cover": (
        lambda: cover(compactum([Interval(D(0), D(1))]), 40),
        "compacta.compact",
        ("_component_centers", "_tangencies"),
        r"^a cover at precision 40 needs \d+ balls, more than \d+$",
    ),
    "enumerate_stage": (
        lambda: enumerate_stage(SCRIPT, 40),
        "compacta.construct",
        ("_seed", "_bridges", "_leaf_bucket"),
        r"^stage 40 needs \d+ points, more than \d+$",
    ),
}


@pytest.mark.parametrize("case", OVER_BUDGET)
def test_over_budget_requests_refused_before_any_work(case, monkeypatch) -> None:
    call, module, steps, refusal = OVER_BUDGET[case]

    def ran(*args):
        raise AssertionError(f"{case} did its work before refusing")

    for step in steps:
        monkeypatch.setattr(importlib.import_module(module), step, ran)
    with pytest.raises(ValueError, match=refusal):
        call()
