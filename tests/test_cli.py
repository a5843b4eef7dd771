"""The ps command line: exit codes, fixed text templates, json documents."""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_grid
import powerstable
from powerstable import (
    BlockElim,
    Ideal,
    Polynomial,
    RingMap,
    RingSpec,
    format_poly,
    hochster_P,
    parse_order,
    parse_poly,
)
from powerstable.cli import build_parser, main, run_command

from oracles import reference_groebner, reference_strong_groebner


def run(*argv):
    code, doc = run_command(list(argv))
    return code, doc.body


# -- worked examples ----------------------------------------------------------


def test_check_stable_unstable_over_zz():
    code, body = run(
        "check-stable", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3"
    )
    assert code == 1
    lines = body.splitlines()
    assert lines[0] == "unstable at t=2"
    assert lines[1] == "witness: 8"
    assert lines[2] == "t=1: contraction (4), base power (4), equal yes"
    assert lines[3] == "t=2: contraction (8), base power (16), equal no"


def test_check_stable_stable_uncertified():
    code, body = run(
        "check-stable", "--ring", "QQ[Y,Z][X]", "--gens", "Y - Z", "--max-power", "5"
    )
    assert code == 0
    assert body.splitlines()[0] == "stable up to t=5 (not certified for all t)"


def test_check_stable_certified_monic():
    code, body = run(
        "check-stable", "--ring", "QQ[Y][X]", "--gens", "Y, X^2 + X + 1"
    )
    assert code == 0
    lines = body.splitlines()
    assert lines[0] == "certified stable (all t): monic certificate"
    assert lines[1] == "certificate: monic; f = X^2 + X + 1; base ideal (Y)"


def test_check_stable_polynomial_witness():
    code, body = run("check-stable", "--ring", "QQ[Y][X]", "--gens", "X^2 - Y, Y*X")
    assert code == 1
    assert body.splitlines()[1] == "witness: Y^3"


def test_contract_monic_pair():
    code, body = run(
        "contract", "--ring", "QQ[Y][X]", "--gens", "Y, X^2+X+1", "--power", "3"
    )
    assert code == 0
    assert body == "(Y^3)"


def test_gb_text_output():
    code, body = run("gb", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3")
    assert code == 0
    assert body == "(4, 2*X, X^2 + 2)"


def test_criterion_failure():
    code, body = run("criterion", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3")
    assert code == 1
    lines = body.splitlines()
    assert lines[0] == "criterion fails at n=1"
    assert lines[1] == "witness: 8"
    assert "n=1: meet (8), target (16), holds no" in lines


def test_criterion_holds():
    code, body = run("criterion", "--ring", "QQ[Y][X]", "--gens", "Y, X^2+X+1")
    assert code == 0
    assert body.splitlines()[0] == "criterion holds for all n <= 3"


# -- calculus verbs ---------------------------------------------------------------


def test_eliminate_quotient_saturate():
    code, body = run("eliminate", "--ring", "QQ[Y][X]", "--gens", "X^2 - Y, Y*X", "--vars", "X")
    assert (code, body) == (0, "(Y^2)")
    code, body = run("quotient", "--ring", "QQ[Y][X]", "--gens", "Y*X", "--by", "X")
    assert (code, body) == (0, "(Y)")
    code, body = run("saturate", "--ring", "QQ[Y][X]", "--gens", "X^2*Y", "--by", "X")
    assert (code, body) == (0, "(Y)")


def test_member_exit_codes():
    code, body = run("member", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--poly", "4")
    assert (code, body) == (0, "true")
    code, body = run("member", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--poly", "2")
    assert (code, body) == (1, "false")


def test_text_output_formats_only_what_it_prints(monkeypatch):
    """Text output shows no "ring" or "generators" key, so the input
    generators are not formatted for it: ``member`` formats its candidate
    alone, where it formatted the three generators too.  JSON output still
    carries both keys."""
    calls = []
    real = powerstable.cli.format_poly
    monkeypatch.setattr(powerstable.cli, "format_poly", lambda f: calls.append(f) or real(f))
    argv = ("member", "--ring", "QQ[Y,Z,W]", "--gens", "Y^2 - Z*W, Y*Z - W^3, Z^2 - Y*W^2", "--poly", "W")
    assert run(*argv) == (1, "false")
    assert len(calls) == 1
    code, body = run(*argv, "--format", "json")
    doc = json.loads(body)
    assert code == 1 and list(doc) == ["ring", "generators", "poly", "member"]
    assert doc["generators"] == ["Y^2 - Z*W", "-W^3 + Y*Z", "-Y*W^2 + Z^2"]


def test_radical_member_lines():
    code, body = run(
        "radical-member", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--poly", "2"
    )
    assert (code, body) == (0, "true")
    code, body = run(
        "radical-member", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--poly", "3"
    )
    assert (code, body) == (1, "false")
    code, body = run("radical-member", "--ring", "ZZ[X]", "--gens", "X^13", "--poly", "X")
    assert (code, body) == (0, "true")
    code, body = run("radical-member", "--ring", "QQ[Y][X]", "--gens", "X", "--poly", "Y")
    assert (code, body) == (1, "false")


def test_kernel_of_the_toric_map():
    code, body = run(
        "kernel",
        "--source", "QQ[Y,Z,W]",
        "--target", "QQ[T]",
        "--map", "W=T^3, Y=T^4, Z=T^5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(body)
    assert doc["source"] == {"coefficients": "QQ", "base_vars": ["Y", "Z", "W"], "main_var": None}
    assert doc["map"] == {"Y": "T^4", "Z": "T^5", "W": "T^3"}
    src = RingSpec.parse("QQ[Y,Z,W]")
    kernel = Ideal(src, [parse_poly(t, src) for t in doc["kernel"]])
    assert kernel.equals(hochster_P())


def test_kernel_when_source_and_target_share_names():
    argv = ("kernel", "--source", "QQ[X,Y]", "--target", "QQ[X]", "--map", "X=X,Y=X^2")
    assert run(*argv) == (0, "(X^2 - Y)")
    code, body = run(*argv, "--format", "json")
    assert code == 0
    doc = json.loads(body)
    assert doc["map"] == {"X": "X", "Y": "X^2"}
    assert doc["kernel"] == ["X^2 - Y"]


def test_a_kernel_binomial_over_the_degree_budget_exits_three():
    # the lattice route's binomial Y^6*Z^6 - W has degree 12
    argv = ("kernel", "--source", "QQ[Y,Z,W]", "--target", "QQ[T]", "--map", "Y=T,Z=T,W=T^12")
    assert run(*argv, "--max-degree", "11") == (3, "budget exceeded: degree budget 11 exceeded (term of degree 12)")
    assert run(*argv, "--max-degree", "12") == (0, "(Y - Z, Z^12 - W)")


def test_certify_verbs():
    code, body = run("certify", "--ring", "ZZ[X]", "--gens", "4, 2*X + 1")
    assert code == 0
    lines = body.splitlines()
    assert lines[0] == "certificate: regular_image; modulus 4; image 2*X + 1"
    assert lines[1] == "stable for all t"
    code, body = run("certify", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3")
    assert (code, body) == (1, "no certificate found (not a refutation)")


def test_obstruct_verbs():
    code, body = run(
        "obstruct",
        "--ring", "QQ[Y,Z,W]",
        "--gens", "W^3 - Y*Z, Y^2 - W*Z, Z^2 - W^2*Y",
        "--witnesses", "W, Y, Z",
    )
    assert code == 1
    assert body == (
        "obstruction at t=2: witness W, cofactor W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3"
    )
    code, body = run(
        "obstruct", "--ring", "QQ[Y][X]", "--gens", "X", "--witnesses", "Y"
    )
    assert (code, body) == (0, "no obstruction found (not a primality proof)")


# -- json mode ------------------------------------------------------------------------


def test_gb_json_round_trip():
    argv = ("gb", "--ring", "ZZ[X]", "--gens", "X^3, X^2 - 2", "--format", "json")
    code, body = run(*argv)
    assert code == 0
    doc = json.loads(body)
    assert doc["ring"] == {"coefficients": "ZZ", "base_vars": [], "main_var": "X"}
    assert doc["basis"] == ["4", "2*X", "X^2 + 2"]
    assert doc["reduced"] is True and doc["strong"] is True
    ring = RingSpec.parse("ZZ[X]")
    for text in doc["basis"]:
        parse_poly(text, ring)  # every element must parse back
    # determinism: byte-identical on a rerun
    assert run(*argv) == (code, body)


def test_check_stable_json_document():
    code, body = run(
        "check-stable", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--format", "json"
    )
    assert code == 1
    doc = json.loads(body)
    assert doc["verdict"] == {"kind": "UNSTABLE_AT", "t": 2}
    assert doc["witness"] == "8"
    assert doc["records"][0]["equal"] is True
    assert doc["records"][1] == {
        "t": 2,
        "contraction": ["8"],
        "base_power": ["16"],
        "equal": False,
    }
    assert doc["certificate"] is None and doc["certificates"] == []


def test_certified_json_has_certificate_fields():
    code, body = run(
        "check-stable", "--ring", "QQ[Y][X]", "--gens", "Y, X^2+X+1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(body)
    assert doc["certificate"] == "monic"
    assert doc["certificates"] == [
        {"kind": "monic", "monic": "X^2 + X + 1", "base_gens": ["Y"]}
    ]


def test_fp_ring_json():
    code, body = run(
        "gb", "--ring", "Fp(7)[Y][X]", "--gens", "Y*X - 1, Y^2 - 1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(body)
    assert doc["ring"]["coefficients"] == {"Fp": 7}


# Every verb that reads one ideal opens its document with the ring and the
# generators, then its own keys in a fixed order.
IDEAL_VERB_KEYS = [
    (("gb",), ["order", "basis", "reduced", "strong"]),
    (("contract",), ["power", "contraction"]),
    (
        ("check-stable",),
        ["bound", "verdict", "records", "witness", "certificate", "certificates"],
    ),
    (("criterion",), ["bound", "holds", "failure_n", "records", "witness"]),
    (("eliminate", "--vars", "X"), ["vars", "result"]),
    (("quotient", "--by", "X"), ["by", "result"]),
    (("saturate", "--by", "X"), ["by", "result"]),
    (("member", "--poly", "Y^2"), ["poly", "member"]),
    (("radical-member", "--poly", "Y"), ["poly", "member"]),
    (("certify",), ["certificate", "certificates"]),
    (("obstruct",), ["power", "found", "witness", "cofactor"]),
]


@pytest.mark.parametrize(
    "verb_argv, keys", IDEAL_VERB_KEYS, ids=[argv[0] for argv, _ in IDEAL_VERB_KEYS]
)
def test_json_key_order_per_verb(verb_argv, keys):
    argv = (verb_argv[0], "--ring", "QQ[Y][X]", "--gens", "X^2 - Y, Y*X", *verb_argv[1:])
    code, body = run(*argv, "--format", "json")
    assert code in (0, 1)
    assert list(json.loads(body)) == ["ring", "generators", *keys]


# -- generator sources -------------------------------------------------------------------


def test_gens_from_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("X^2 - 2\nX^3\n"))
    code, body = run("gb", "--ring", "ZZ[X]", "--gens", "-")
    assert (code, body) == (0, "(4, 2*X, X^2 + 2)")


def test_gens_from_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("Y, X^2+X+1")
    code, body = run(
        "contract", "--ring", "QQ[Y][X]", "--gens-file", str(path), "--power", "2"
    )
    assert (code, body) == (0, "(Y^2)")
    code, body = run("gb", "--ring", "ZZ[X]", "--gens-file", str(tmp_path / "missing.txt"))
    assert code == 2


def test_gens_come_from_one_source(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("X")
    code, body = run("gb", "--ring", "ZZ[X]", "--gens", "X^2", "--gens-file", str(path))
    assert (code, body) == (2, "error: give the generators once: --gens or --gens-file, not both")
    code, body = run("gb", "--ring", "ZZ[X]")
    assert (code, body) == (2, "error: no generators given: use --gens, --gens -, or --gens-file")


# -- corpus ---------------------------------------------------------------------------------


def test_corpus_list():
    code, body = run("corpus", "--list")
    assert code == 0
    names = [line.split()[0] for line in body.splitlines()]
    assert names == [
        "principal",
        "extension_JX",
        "example_3_12",
        "hochster_P",
        "hochster_toric_map",
        "gadget_3_14",
        "comaximal_pair",
        "radical_zx",
    ]


def test_corpus_fetch_ideal():
    code, body = run("corpus", "--name", "example_3_12", "--p", "3")
    assert code == 0
    assert body.splitlines() == ["ZZ[X]", "(X^2 - 3, X^3)"]
    code, body = run("corpus", "--name", "gadget_3_14", "--format", "json")
    doc = json.loads(body)
    assert doc["generators"] == ["X^2 - Y", "Y*X"]


def test_corpus_fetch_map_and_pair():
    code, body = run("corpus", "--name", "hochster_toric_map")
    assert code == 0
    assert body == "QQ[Y,Z,W] -> QQ[T]: Y = T^4, Z = T^5, W = T^3"
    code, body = run("corpus", "--name", "comaximal_pair", "--seed", "2")
    assert code == 0
    assert body.splitlines()[0].startswith("left: ")
    assert body.splitlines()[1].startswith("right: ")


def test_corpus_radical_zx_pairs():
    code, body = run("corpus", "--name", "radical_zx", "--pairs", "2:X^2+X+1;3:X+1")
    assert code == 0
    code, body = run("corpus", "--name", "radical_zx")
    assert code == 2
    code, body = run("corpus", "--name", "radical_zx", "--pairs", "4:X+1")
    assert code == 2  # 4 is not prime


def test_corpus_radical_zx_honours_the_budget_flags():
    pairs = ("corpus", "--name", "radical_zx", "--pairs", "2:X^2+X+1;3:X+1;5:X+2")
    assert run(*pairs) == (0, "ZZ[X]\n(30, 2*X + 14, X^2 + X + 3)")
    for flag, message in (
        (("--max-pairs", "1"), "pair budget 1 exhausted"),
        (("--max-degree", "1"), "degree budget 1 exceeded (term of degree 3)"),
    ):
        assert run(*pairs, *flag) == (3, f"budget exceeded: {message}")
        code, body = run(*pairs, *flag, "--format", "json")
        assert code == 3
        assert json.loads(body) == {"error": message, "budget_exceeded": True}


def test_corpus_deterministic_per_seed():
    a = run("corpus", "--name", "principal", "--seed", "7")
    b = run("corpus", "--name", "principal", "--seed", "7")
    c = run("corpus", "--name", "principal", "--seed", "8")
    assert a == b
    assert a != c


def test_corpus_unknown_name():
    code, body = run("corpus", "--name", "mystery")
    assert code == 2
    assert "mystery" in body


# -- errors and budgets -----------------------------------------------------------------------


def test_usage_errors_exit_two():
    assert run()[0] == 2
    assert run("transmogrify")[0] == 2
    assert run("gb", "--ring", "ZZ[X", "--gens", "X")[0] == 2
    assert run("gb", "--ring", "ZZ[X]", "--gens", "X +")[0] == 2
    assert run("gb", "--ring", "ZZ[X]", "--gens", " , ")[0] == 2
    assert run("gb", "--ring", "ZZ[X]")[0] == 2  # no generators given
    assert run("member", "--ring", "ZZ[X]", "--gens", "X")[0] == 2  # --poly missing
    code, body = run("quotient", "--ring", "QQ[Y][X]", "--gens", "X", "--by", "1/0")
    assert code == 2


# A polynomial value may begin with "-", which argparse alone reads as a flag
# unless the value holds a space or is a number: (argv, exit code, body).
_LEADING_MINUS = [
    (("member", "--ring", "ZZ[X]", "--gens", "X", "--poly", "-X"), 0, "true"),
    (("radical-member", "--ring", "QQ[Y][X]", "--gens", "X^3", "--poly", "-Y*X"), 0, "true"),
    (("gb", "--ring", "Fp(7)[Y][X]", "--gens", "-3*X^2+Y,2*Y*X"), 0, "(X^2 + 2*Y, Y*X, Y^2)"),
    (("quotient", "--ring", "ZZ[X]", "--gens", "4*X^2, 6*X", "--by", "-2*X"), 0, "(3, X)"),
    (("saturate", "--ring", "QQ[Y][X]", "--gens", "X^2*Y", "--by", "-X"), 0, "(Y)"),
    (
        (
            "obstruct", "--ring", "QQ[Y,Z,W]",
            "--gens", "W^3 - Y*Z, Y^2 - W*Z, Z^2 - W^2*Y", "--witnesses", "-W",
        ),
        1,
        "obstruction at t=2: witness -W, cofactor W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3",
    ),
]


@pytest.mark.parametrize(
    "argv, code, body", _LEADING_MINUS, ids=[" ".join(a) for a, _, _ in _LEADING_MINUS]
)
def test_a_polynomial_value_may_begin_with_a_minus(argv, code, body):
    assert run(*argv) == (code, body)
    # the same answer as the value attached with "=", in both formats
    attached = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert run(*attached) == (code, body)
    assert run(*argv, "--format", "json") == run(*attached, "--format", "json")


def test_a_value_beginning_with_two_minus_signs_stays_a_flag():
    usage = "usage error: argument --poly: expected one argument"
    assert run("member", "--ring", "ZZ[X]", "--gens", "X", "--poly") == (2, usage)
    assert run("member", "--ring", "ZZ[X]", "--gens", "X", "--poly", "--X") == (2, usage)
    argv = ("member", "--ring", "ZZ[X]", "--gens", "X", "--poly", "--format", "json")
    assert run(*argv) == (2, usage)
    # a spaced value and a number are values, as they always were
    assert run("member", "--ring", "ZZ[X]", "--gens", "X", "--poly", "-X^2 + 2") == (1, "false")
    assert run("member", "--ring", "ZZ[X]", "--gens", "X", "--poly", "-1") == (1, "false")


def test_error_messages_go_to_body():
    code, body = run("gb", "--ring", "ZZ[X]", "--gens", "W")
    assert code == 2
    assert body.startswith("error: ")
    assert "W" in body


def test_budget_exhaustion_exits_three():
    code, body = run(
        "gb",
        "--ring", "QQ[Y,Z,W]",
        "--gens", "Y^2*Z - W, Z^2 - Y*W + 1, W^2*Y - Z, Y^3 - Z*W",
        "--max-pairs", "1",
    )
    assert code == 3
    assert body.startswith("budget exceeded: ")
    code, body = run(
        "gb",
        "--ring", "QQ[Y,Z,W]",
        "--gens", "Y^2*Z - W, Z^2 - Y*W + 1, W^2*Y - Z, Y^3 - Z*W",
        "--max-pairs", "1",
        "--format", "json",
    )
    assert code == 3
    assert json.loads(body)["budget_exceeded"] is True


def test_degree_budget_flag():
    code, body = run("gb", "--ring", "ZZ[X]", "--gens", "X^9", "--max-degree", "5")
    assert code == 3


_LISTED = ("--ring", "QQ[Y][X]", "--gens", "X^2 + Y*X + 1, Y^3 - X*Y, Y^2*X - 1")


def test_a_listed_generator_spends_no_pairs():
    assert run("member", *_LISTED, "--poly", "Y^3 - X*Y", "--max-pairs", "0") == (0, "true")
    code, body = run("certify", "--ring", "QQ[Y][X]", "--gens", "Y^2, X^2 + Y*X + 1", "--max-pairs", "0")
    assert code == 0
    assert body.splitlines() == [
        "certificate: monic; f = Y*X + X^2 + 1; base ideal (Y^2)",
        "stable for all t",
    ]


def test_a_listed_generator_keeps_the_budget_exits():
    # a member that is not listed needs a basis, and so pairs
    result = run("member", *_LISTED, "--poly", "Y^3*X - Y*X^2", "--max-pairs", "0")
    assert result == (3, "budget exceeded: pair budget 0 exhausted")
    # a listed generator above --max-degree is refused like any candidate
    result = run("member", *_LISTED, "--poly", "X^2 + Y*X + 1", "--max-degree", "1")
    assert result == (3, "budget exceeded: degree budget 1 exceeded (term of degree 2)")


def test_power_over_the_degree_budget_exits_three_before_it_is_formed():
    # (X + Y + Z + 1)^100 has 176,851 terms; the budget refuses it unformed
    argv = ("contract", "--ring", "QQ[Y,Z][X]", "--gens", "X + Y + Z + 1", "--power", "100")
    started = time.perf_counter()
    result = run(*argv)
    assert time.perf_counter() - started < 1
    assert result == (3, "budget exceeded: degree budget 60 exceeded (term of degree 100)")
    # the ring is checked first: QQ[X] has no main variable to contract
    code, body = run("contract", "--ring", "QQ[X]", "--gens", "X^2", "--power", "3", "--max-degree", "3")
    assert (code, body) == (2, "error: ring QQ[X] has no distinguished main variable")
    # P^t is formed only for a witness outside P
    argv = ("obstruct", "--ring", "QQ[Y][X]", "--gens", "X, Y", "--power", "100")
    assert run(*argv, "--witnesses", "X,Y") == (0, "no obstruction found (not a primality proof)")


_DEFERRED_TAIL = (
    "--ring", "Fp(7)[Y,Z][X]",
    "--gens", "-8*Y^2*Z^2 - 5*Y^3*Z^2 + Y^3*Z^3*X, 2*Y^2*Z^3*X^3 - 6*Y*Z^2*X^3",
    "--max-degree", "10",
)


def test_a_tail_over_the_degree_budget_exits_three_only_where_it_is_read():
    # the contraction reads the X-free prefix of the elimination basis, whose
    # tails stay within the budget, and prints the uncapped answer
    contraction = (
        "(Y^6*Z^3 + 2*Y^5*Z^3 + 4*Y^5*Z^2 + 6*Y^4*Z^3 + Y^4*Z^2 + 6*Y^3*Z^3 + 3*Y^3*Z^2 + 3*Y^2*Z^2)"
    )
    assert run("contract", "--power", "1", *_DEFERRED_TAIL) == (0, contraction)
    assert run("contract", "--power", "1", *_DEFERRED_TAIL[:-2]) == (0, contraction)
    # the whole basis reduces a tail past the budget
    over = (3, "budget exceeded: degree budget 10 exceeded during reduction")
    assert run("gb", "--order", "elim:X", *_DEFERRED_TAIL) == over
    # unreduced tails that reach past the budget inside the pair loop still exit 3
    argv = ("contract", "--ring", "QQ[Y][X]", "--gens", "11*Y^2 - 1, -2*Y^2 - 2*Y*X", "--power", "3")
    assert run(*argv, "--max-degree", "10") == (3, "budget exceeded: degree budget 10 exceeded (term of degree 11)")
    argv = (
        "gb", "--ring", "Fp(7)[Y][X]", "--order", "elim:X",
        "--gens", "4*Y^3 + 6*Y^2*X + 4*Y^2 + X^2, 3*Y^3 + 5*Y^2*X + 4*X^3, 3*X^3 + 3",
    )
    assert run(*argv, "--max-degree", "6") == (3, "budget exceeded: degree budget 6 exceeded (term of degree 7)")


# Inputs that exit 2, each with the message it prints.
_EXIT_TWO = [
    (("obstruct", "--ring", "QQ[Y][X]", "--gens", "X", "--witnesses", ","), "empty witness list"),
    (
        ("kernel", "--source", "QQ[Y,Z]", "--target", "QQ[T]", "--map", "W"),
        "map entries look like VAR=POLY, got 'W'",
    ),
    (("corpus",), "corpus needs --list or --name"),
    (
        ("corpus", "--name", "radical_zx", "--pairs", "2X+1"),
        "pair entries look like p:POLY, got '2X+1'",
    ),
    (("corpus", "--name", "radical_zx", "--pairs", "a:X"), "modulus 'a' is not an integer"),
    (("gb", "--ring", "QQ[]", "--gens", "X"), "empty variable group in ring notation 'QQ[]'"),
    (("gb", "--ring", "QQ[1X]", "--gens", "X"), "bad variable name '1X' in ring notation"),
    (
        ("gb", "--ring", "QQ[Y][X,Z]", "--gens", "X"),
        "the second variable group must hold a single main variable",
    ),
    (("gb", "--ring", "ZZ[Y][X]", "--gens", "X"), "ZZ rings do not take base variables"),
    (
        ("gb", "--ring", "QQ[X][Y][Z]", "--gens", "X"),
        "too many variable groups in ring notation 'QQ[X][Y][Z]'",
    ),
    (("gb", "--ring", "ZZ[X]", "--gens", "X 2"), "expected '+' or '-', found '2' (line 1, column 3)"),
    (("gb", "--ring", "QQ[X]", "--gens", "1/X"), "expected a denominator (line 1, column 3)"),
    (("gb", "--ring", "ZZ[X]", "--gens", "2*+X"), "expected a variable, found '+' (line 1, column 3)"),
    (
        ("contract", "--ring", "QQ[Y,Z,W]", "--gens", "Y"),
        "ring QQ[Y,Z,W] has no distinguished main variable",
    ),
    (("eliminate", "--ring", "QQ[Y][X]", "--gens", "X^2 - Y, Y*X", "--vars", ","), "empty variable list"),
    # a repeated variable, with every variable listed, with some of them, and for the zero ideal
    (("eliminate", "--ring", "ZZ[X]", "--gens", "X", "--vars", "X,X"), "bad elimination block ('X', 'X') for ring ZZ[X]"),
    (
        ("eliminate", "--ring", "QQ[Y,Z][X]", "--gens", "X - Y, X - Z", "--vars", "X,Y,Z,Y"),
        "bad elimination block ('X', 'Y', 'Z', 'Y') for ring QQ[Y,Z][X]",
    ),
    (
        ("eliminate", "--ring", "QQ[Y,Z][X]", "--gens", "X - Y, X - Z", "--vars", "Y,X,Y"),
        "bad elimination block ('Y', 'X', 'Y') for ring QQ[Y,Z][X]",
    ),
    (
        ("eliminate", "--ring", "QQ[Y,Z][X]", "--gens", "0", "--vars", "Y,Y"),
        "bad elimination block ('Y', 'Y') for ring QQ[Y,Z][X]",
    ),
    (
        ("kernel", "--source", "QQ[Y,Z]", "--target", "QQ[T]", "--map", "Y=T^2,Z=T^3,Q=T"),
        "image given for 'Q', which is not a source variable",
    ),
    # a strong pseudoprime to all 12 bases of the 64-bit primality test
    (
        ("corpus", "--name", "example_3_12", "--p", "318665857834031151167461"),
        "318665857834031151167461 exceeds the 2^64 bound of the primality test",
    ),
    (
        ("kernel", "--source", "QQ[Y,Z]", "--target", "QQ[T]", "--map", "Y=T^2,Z=T^3,Y=T"),
        "variable 'Y' is mapped twice",
    ),
    (
        ("gb", "--ring", "ZZ[X]", "--gens", "X^2-2", "--max-degree", "-1"),
        "budget max_degree must be non-negative, got -1",
    ),
    (
        ("gb", "--ring", "ZZ[X]", "--gens", "X", "--max-pairs", "-5"),
        "budget max_pairs must be non-negative, got -5",
    ),
    (("corpus", "--list", "--max-degree", "-2"), "budget max_degree must be non-negative, got -2"),
]


@pytest.mark.parametrize("argv, message", _EXIT_TWO, ids=[" ".join(a) for a, _ in _EXIT_TWO])
def test_input_errors_exit_two_with_their_message(argv, message):
    assert run(*argv) == (2, f"error: {message}")


def test_input_errors_in_json():
    for argv, message in (_EXIT_TWO[2], _EXIT_TWO[9], _EXIT_TWO[-4], _EXIT_TWO[-2]):
        code, body = run(*argv, "--format", "json")
        assert code == 2
        assert json.loads(body) == {"error": message}


def test_help_exits_zero():
    assert run("--help")[0] == 0
    assert run("gb", "--help")[0] == 0


def test_help_is_printed_the_same_every_time(capsys):
    outputs = []
    for _ in range(2):
        assert run("gb", "--help")[0] == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "cap on the S- and G-pairs reduced, per Groebner" in outputs[0]


# -- parser shape -------------------------------------------------------------------------

# Every verb's options, in order, as (flag, the fields of the option that are
# not None or False); compared field by field, not through argparse's help
# layout, which differs between Python versions.
_IDEAL_OPTIONS = [
    ("--ring", {"required": True, "help": "ring notation, e.g. ZZ[X] or QQ[Y][X]"}),
    ("--gens", {"help": "comma-separated generators; '-' reads stdin"}),
    ("--gens-file", {"help": "file with comma- or newline-separated generators"}),
]
_COMMON_OPTIONS = [
    ("--format", {"default": "text", "choices": ("text", "json")}),
    (
        "--max-pairs",
        {
            "default": 100000,
            "type": int,
            "help": "cap on the S- and G-pairs reduced, per Groebner computation",
        },
    ),
    ("--max-degree", {"default": 60, "type": int, "help": "total degree budget"}),
]
_BY = ("--by", {"required": True, "help": "the divisor polynomial f"})
_POLY = ("--poly", {"required": True})
_PARSER_SHAPE = [
    (
        "gb",
        "reduced Groebner basis (strong over ZZ)",
        [*_IDEAL_OPTIONS, *_COMMON_OPTIONS,
         ("--order", {"default": "grevlex", "help": "lex | grevlex | lex:X,Y | elim:X,Y"})],
    ),
    (
        "contract",
        "generators of I^t intersected with R",
        [*_IDEAL_OPTIONS, *_COMMON_OPTIONS, ("--power", {"default": 1, "type": int})],
    ),
    (
        "check-stable",
        "bounded power-stability verdict",
        [*_IDEAL_OPTIONS, *_COMMON_OPTIONS, ("--max-power", {"default": 4, "type": int})],
    ),
    (
        "criterion",
        "graded criterion levels n = 0..N",
        [*_IDEAL_OPTIONS, *_COMMON_OPTIONS, ("--max-level", {"default": 3, "type": int})],
    ),
    (
        "eliminate",
        "drop variables from the ideal",
        [*_IDEAL_OPTIONS, *_COMMON_OPTIONS,
         ("--vars", {"required": True, "help": "comma-separated variables to eliminate"})],
    ),
    ("quotient", "colon ideal (I : f)", [*_IDEAL_OPTIONS, *_COMMON_OPTIONS, _BY]),
    ("saturate", "saturation (I : f^infinity)", [*_IDEAL_OPTIONS, *_COMMON_OPTIONS, _BY]),
    ("member", "ideal membership test", [*_IDEAL_OPTIONS, *_COMMON_OPTIONS, _POLY]),
    ("radical-member", "radical membership test", [*_IDEAL_OPTIONS, *_COMMON_OPTIONS, _POLY]),
    (
        "kernel",
        "kernel of a variable-image ring map",
        [
            *_COMMON_OPTIONS,
            ("--source", {"required": True}),
            ("--target", {"required": True}),
            ("--map", {"required": True, "help": 'images like "W=T^3,Y=T^4,Z=T^5"'}),
        ],
    ),
    ("certify", "search for an all-t stability certificate", [*_IDEAL_OPTIONS, *_COMMON_OPTIONS]),
    (
        "obstruct",
        "search for a primary obstruction of P^t",
        [
            *_IDEAL_OPTIONS,
            *_COMMON_OPTIONS,
            ("--power", {"default": 2, "type": int}),
            ("--witnesses", {"help": "comma-separated candidate witnesses (default: variables)"}),
        ],
    ),
    (
        "corpus",
        "built-in example ideals",
        [
            ("--list", {"nargs": 0}),
            ("--name", {}),
            ("--p", {"default": 2, "type": int, "help": "prime for example_3_12"}),
            ("--seed", {"default": 0, "type": int, "help": "seed for the seeded builders"}),
            ("--pairs", {"help": 'radical_zx pairs like "2:X^2+X+1;3:X+1"'}),
            *_COMMON_OPTIONS,
        ],
    ),
]


def _verb_parsers():
    """(verb, help, subparser) for each verb of ``ps``, in order."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = [a.help for a in sub._choices_actions]
    return [(verb, h, sp) for (verb, sp), h in zip(sub.choices.items(), helps, strict=True)]


def _option_shape(action):
    fields = {
        "default": action.default,
        "type": action.type,
        "nargs": action.nargs,
        "required": action.required,
        "choices": action.choices,
        "help": action.help,
    }
    (flag,) = action.option_strings
    return flag, {k: v for k, v in fields.items() if v is not None and v is not False}


def test_parser_shape():
    parsers = _verb_parsers()
    got = [
        (
            verb,
            verb_help,
            [_option_shape(a) for a in sp._actions if not isinstance(a, argparse._HelpAction)],
        )
        for verb, verb_help, sp in parsers
    ]
    assert got == _PARSER_SHAPE
    assert all(sp.exit_on_error is False for _, _, sp in parsers)


# -- argv fuzz ----------------------------------------------------------------------------


_MALFORMED = ["", " , ", "X +", "1/0", "X^", "(X", "X**2", "2X", "<2^70>*X", "_y", "1/2*X", "Q"]
# ring notation -> its variable names; hypothesis starts from the first entry
_RINGS = {
    "QQ[Y][X]": "XY",
    "ZZ[X]": "X",
    "Fp(7)[Y,Z][X]": "XYZ",
    "QQ[Y,Z,W]": "YZW",
    "ZZ[X": "X",
    "Fp(6)[X]": "X",
}


@st.composite
def poly_texts(draw, names):
    """A polynomial in small coefficients and exponents over the given
    variable names, or a malformed fragment."""
    if draw(st.integers(0, 19)) == 19:
        return draw(st.sampled_from(_MALFORMED))
    text = ""
    for i in range(draw(st.integers(1, 3))):
        factors = [str(draw(st.integers(1, 9)))]
        for _ in range(draw(st.integers(0, 2))):
            factors.append(f"{draw(st.sampled_from(names))}^{draw(st.integers(0, 4))}")
        sign = st.sampled_from([" + ", " - "] if i else ["", "-"])
        text += draw(sign) + "*".join(factors)
    return text


@st.composite
def ps_argvs(draw):
    """argv for one ps verb: ring, generators and the verb's own flags."""
    verb = draw(
        st.sampled_from(
            ["gb", "contract", "check-stable", "criterion", "eliminate", "quotient", "saturate",
             "member", "radical-member", "certify", "obstruct", "kernel", "corpus"]
        )
    )
    ints = st.sampled_from(["2", "3", "1", "0", "-1", "x"])
    if verb == "corpus":
        names = ["example_3_12", "principal", "hochster_P", "comaximal_pair", "radical_zx", "none"]
        argv = [verb, "--name", draw(st.sampled_from(names)), "--seed", draw(ints)]
        argv += ["--p", draw(st.sampled_from(["2", "3", "4", "7"]))]
        argv += ["--pairs", draw(st.sampled_from(["2:X+1", "3:X^2+1;2:X", "2", "x:X"]))]
    elif verb == "kernel":
        source = draw(st.sampled_from(["QQ[W,Y]", "QQ[W,Y,Z]", "ZZ[W,Y]", "QQ[W"]))
        target, names = draw(st.sampled_from([("QQ[T]", "T"), ("QQ[S,T]", "ST"), ("ZZ[T]", "T")]))
        images = [f"{v}={draw(poly_texts(names))}" for v in draw(st.sampled_from(["WY", "WYZ", "W"]))]
        argv = [verb, "--source", source, "--target", target, "--map", ",".join(images)]
    else:
        ring = draw(st.sampled_from(list(_RINGS)))
        polys = poly_texts(_RINGS[ring])
        argv = [verb, "--ring", ring, "--gens", ", ".join(draw(st.lists(polys, min_size=1, max_size=3)))]
        flag = {
            "gb": ("--order", st.sampled_from(["elim:X", "lex", "grevlex", "lex:Y,X", "elim:Q", "x"])),
            "contract": ("--power", ints),
            "check-stable": ("--max-power", ints),
            "criterion": ("--max-level", ints),
            "eliminate": ("--vars", st.sampled_from(["X", "Y", "X,Y", "Q", ""])),
            "quotient": ("--by", polys),
            "saturate": ("--by", polys),
            "member": ("--poly", polys),
            "radical-member": ("--poly", polys),
            "obstruct": ("--witnesses", polys),
        }.get(verb)
        # a required flag is left out one time in six
        if flag is not None and draw(st.integers(0, 5)) < 5:
            argv += [flag[0], draw(flag[1])]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv + ["--max-pairs", "50", "--max-degree", "10"]


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=ps_argvs())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    code, body = run(*argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in body, argv


# -- one parser per process ------------------------------------------------------------------


def test_same_argv_twice_gives_identical_output():
    argv = ("check-stable", "--ring", "QQ[Y][X]", "--gens", "X^2 - Y, Y*X", "--max-power", "3")
    first = run(*argv)
    assert first[0] == 1
    assert run(*argv) == first
    assert run(*argv, "--format", "json") == run(*argv, "--format", "json")


def test_valid_argv_after_a_usage_error():
    assert run("gb", "--ring", "ZZ[X]", "--gens", "X", "--max-pairs", "many")[0] == 2
    assert run("member", "--ring", "ZZ[X]", "--gens", "X")[0] == 2  # --poly missing
    assert run("transmogrify")[0] == 2
    assert run("gb", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3") == (0, "(4, 2*X, X^2 + 2)")
    code, body = run("member", "--ring", "ZZ[X]", "--gens", "2", "--poly", "4")
    assert (code, body) == (0, "true")


def test_the_cli_grid_answers_as_pinned():
    """Each argv of the fixed grid in ``tests/cli_grid.py`` (480 argvs over
    ZZ[X], QQ[Y][X], QQ[Y,Z][X] and Fp(7)[Y][X]) exits with its pinned code
    and prints a body with its pinned sha256."""
    pinned = json.loads(cli_grid.PINNED.read_text())
    got = cli_grid.answers()
    assert list(got) == list(pinned)
    changed = [argv for argv in got if got[argv] != pinned[argv]]
    assert not changed, changed


def _grid_reference(ring: RingSpec, gens: list, verb: tuple) -> str:
    """The text body that ``gb`` or ``contract`` should print, from the
    textbook engines of ``tests/oracles.py`` alone: the reduced (strong
    over ZZ) basis under the verb's order, or for ``contract --power t``
    the elements free of X in the basis of the distinct products of t
    generators under BlockElim(X)."""
    reference = reference_strong_groebner if ring.is_int_mode else reference_groebner
    if verb[0] == "gb":
        basis = reference(gens, parse_order(verb[2]), max_pairs=3000)
    else:
        products = dict.fromkeys(
            math.prod(c, start=Polynomial.one(ring))
            for c in itertools.combinations_with_replacement(gens, int(verb[2]))
        )
        basis = [
            g
            for g in reference(list(products), BlockElim(("X",)), max_pairs=3000)
            if g.degree_in("X") == 0
        ]
    return "(" + ", ".join(map(format_poly, basis)) + ")" if basis else "(0)"


def test_the_cli_grid_gb_and_contract_bodies_match_the_reference_engines():
    """Oracle for the pinned grid: every text body of ``gb`` (grevlex,
    elim:X, lex) and of ``contract --power 1`` and ``2`` that exits 0, with
    and without ``--max-degree 6``, equals the body built from the textbook
    Buchberger of ``tests/oracles.py``, which shares no code with the
    engine.  ``contract --power 3`` is left out: its reference takes tens of
    seconds on the first GF(7) ideal."""
    verbs = cli_grid.VERBS[:5]
    assert [v[-1] for v in verbs] == ["grevlex", "elim:X", "lex", "1", "2"]
    checked = {"gb": 0, "contract": 0}
    for ring_text, ideals in cli_grid.IDEALS.items():
        ring = RingSpec.parse(ring_text)
        for gens_text in ideals:
            gens = [parse_poly(g, ring) for g in gens_text.split(", ")]
            for verb in verbs:
                expected = None
                for cap in ((), ("--max-degree", "6")):
                    argv = [*verb, "--ring", ring_text, "--gens", gens_text, *cap]
                    code, body = run(*argv)
                    if code != 0:
                        continue
                    if expected is None:
                        expected = _grid_reference(ring, gens, verb)
                    assert body == expected, shlex.join(argv)
                    checked[verb[0]] += 1
    assert checked == {"gb": 46, "contract": 26}, checked  # of 48 and 32 argvs


# The body computed with Fraction coefficients throughout.  Its BlockElim(X)
# basis of I^3 reduces hundreds of S-pairs against a 23-element basis.
_CUBE_CONTRACTION = "(" + ", ".join([
    "Y^6*Z^2 - 2*Y^3*Z^5 + Z^8 + Y^6*Z - 2*Y^3*Z^4 + Z^7 + Y^6 - 2*Y^3*Z^3 + Z^6",
    "Y^3*Z^6 - Z^9 + 2*Y^3*Z^5 - 2*Z^8 + 3*Y^3*Z^4 - 3*Z^7 + 2*Y^3*Z^3 - 2*Z^6 + Y^3*Z^2 - Z^5",
    "Y^9 - Z^9 + 6*Y^3*Z^5 - 6*Z^8 + 9*Y^3*Z^4 - 9*Z^7 - 3*Y^6 + 12*Y^3*Z^3 - 9*Z^6"
    " + 3*Y^3*Z^2 - 3*Z^5",
    "Z^10 + 3*Z^9 + 6*Z^8 + 7*Z^7 + 6*Z^6 + 3*Z^5 + Z^4",
    "Y*Z^9 + 3*Y*Z^8 + 6*Y*Z^7 + 7*Y*Z^6 + 6*Y*Z^5 + 3*Y*Z^4 + Y*Z^3",
    "Y^5*Z^5 - Y^2*Z^8 + 2*Y^5*Z^4 - 2*Y^2*Z^7 + 3*Y^5*Z^3 - 3*Y^2*Z^6 + 2*Y^5*Z^2"
    " - 2*Y^2*Z^5 + Y^5*Z - Y^2*Z^4",
]) + ")"


def test_contract_cube_of_a_three_generator_ideal():
    code, body = run(
        "contract", "--power", "3",
        "--ring", "QQ[Y,Z][X]",
        "--gens", "Y*Z - X^2, Y^2 + X*Z, X^3 + Y*X - Z",
    )
    assert code == 0
    assert body == _CUBE_CONTRACTION


def test_main_prints_body_and_returns_code(capsys):
    code = main(["contract", "--ring", "QQ[Y][X]", "--gens", "Y, X^2+X+1", "--power", "3"])
    assert code == 0
    assert capsys.readouterr().out == "(Y^3)\n"
    code = main(["member", "--ring", "ZZ[X]", "--gens", "2", "--poly", "3"])
    assert code == 1
    assert capsys.readouterr().out == "false\n"


# -- README ----------------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(argv, shown output) for each ``$ ps ...`` block of the README."""
    out = []
    for block in re.findall(r"```\n(\$ ps .*?)```", README.read_text(), re.S):
        lines = block.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        out.append((shlex.split(command)[2:], "\n".join(lines)))
    return out


def test_readme_examples_print_what_they_show():
    examples = _readme_examples()
    assert len(examples) == 6
    for argv, shown in examples:
        assert run(*argv)[1] == shown, argv


def test_readme_verb_table_lists_the_parser_verbs_in_order():
    table = README.read_text().split("| verb | purpose |", 1)[1]
    listed = re.findall(r"^\| `([a-z-]+)` \|", table.split("\n\n", 1)[0], re.M)
    assert listed == [verb for verb, _, _ in _verb_parsers()]


def test_readme_library_block_prints_what_its_comments_show():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    shown = [line.split("# ", 1)[1].strip() for line in block.splitlines() if "print(" in line]
    assert shown == ["UNSTABLE_AT(2)", "8", "monic"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == shown


def _python_m(argv, stdin=None, stdout=subprocess.PIPE, **env):
    """``python -m powerstable argv`` in a subprocess that imports this
    checkout's package, with ``env`` added to the environment."""
    src = str(Path(powerstable.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, "-m", "powerstable", *argv],
        stdin=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


@pytest.mark.parametrize(
    "argv",
    [["member", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--poly", "X^3"], ["corpus", "--list"]],
    ids=["member", "corpus --list"],
)
def test_a_closed_stdout_keeps_the_verbs_exit_code(argv):
    """Into a pipe whose reader has gone (``ps member ... | true``) the verb
    exits with its own code, 0 here, and prints no traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = _python_m(argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_python_m_powerstable_runs_the_cli():
    argv = ["corpus", "--name", "example_3_12", "--p", "5"]
    (shown,) = [body for args, body in _readme_examples() if args == argv]
    done = _python_m(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == shown + "\n"


# -- engine edges through the CLI ----------------------------------------------------------

_QUOTIENT_FP7 = ("quotient", "--ring", "Fp(7)[Y][X]", "--gens", "3*X^2 - Y, 2*Y*X", "--by")
_CUBE_OF_A_PAIR = ("contract", "--ring", "QQ[Y][X]", "--gens", "Y^2 - X*Y, X^2 + 2*Y", "--power", "3")
# (argv, exit code, body), each with the edge it reaches
_EDGES = [
    # a degree budget above 63 packs monomials into fields wider than 8 bits
    (("gb", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--max-degree", "200"), 0, "(4, 2*X, X^2 + 2)"),
    # a power with no factor bases starts from its products on engine term lists, on
    # 8-bit fields and, above degree 63, on 16-bit ones; 63 and 64 are the edges of
    # the 8-bit width
    *(
        ((*_CUBE_OF_A_PAIR, "--max-degree", budget), 0, "(Y^8 + 6*Y^7 + 12*Y^6 + 8*Y^5)")
        for budget in ("60", "63", "64", "200")
    ),
    # over ZZ the square starts from the products of the reducers of G_1
    (
        ("check-stable", "--ring", "ZZ[X]", "--gens", "X^2 - 6, 4*X", "--max-power", "4"),
        1,
        "unstable at t=2\nwitness: 288\n"
        "t=1: contraction (24), base power (24), equal yes\n"
        "t=2: contraction (288), base power (576), equal no",
    ),
    # a prime field: coefficients enter the engine as residues and leave it as FpElements
    (("gb", "--ring", "Fp(7)[Y][X]", "--gens", "3*X^2 - Y, 2*Y*X"), 0, "(X^2 + 2*Y, Y*X, Y^2)"),
    (
        ("check-stable", "--ring", "Fp(7)[Y][X]", "--gens", "X^2 - Y, Y*X", "--max-power", "3"),
        1,
        "unstable at t=2\nwitness: Y^3\n"
        "t=1: contraction (Y^2), base power (Y^2), equal yes\n"
        "t=2: contraction (Y^3), base power (Y^4), equal no",
    ),
    # a listed generator is a member at once, so it spends no pairs
    (("member", "--ring", "ZZ[X]", "--gens", "X^2 - 2, X^3", "--poly", "X^3", "--max-pairs", "0"), 0, "true"),
    # over ZZ, and by a divisor that is not a unit times a variable, quotient is the
    # CLI's route through the quotient transcript of divide
    (("quotient", "--ring", "ZZ[X]", "--gens", "4*X^2, 6*X", "--by", "2*X"), 0, "(3, X)"),
    (
        ("quotient", "--ring", "QQ[Y][X]", "--gens", "Y^2*X - 1/2*X^3, Y*X^2", "--by", "2*X"),
        0,
        "(Y*X, Y^2 - 1/2*X^2, X^3)",
    ),
    ((*_QUOTIENT_FP7, "X"), 0, "(Y, X^2)"),
    ((*_QUOTIENT_FP7, "3*X"), 0, "(Y, X^2)"),
    # the one route that divides by a GF(p) reducer whose leading coefficient is not 1
    ((*_QUOTIENT_FP7, "3*Y*X"), 0, "(1)"),
    # over a field a colon by a unit times a variable divides the homogenized grevlex
    # basis; both routes print the reduced grevlex basis, whatever the unit: a variable
    # that is not the ring's last, and a negative rational unit
    (
        ("quotient", "--ring", "Fp(7)[Y,Z,W]", "--gens", "Y^2 - Z*W, Y*Z - W^3, Z^2 - Y*W^2", "--by", "3*Z"),
        0,
        "(Y^2 + 6*Z*W, W^3 + 6*Y*Z, Y*W^2 + 6*Z^2)",
    ),
    (
        ("quotient", "--ring", "QQ[Y,Z][X]", "--gens", "Y^2*X - Z, Z*X^2 - Y", "--by", "-2*Y"),
        0,
        "(Z*X^2 - Y, Y^2*X - Z, Y^3 - Z^2*X, Y*X^3 - 1)",
    ),
    # the zero ideal takes the homogenized route too, and over a field a colon by a
    # nonzero constant is I itself
    (("quotient", "--ring", "QQ[Y][X]", "--gens", "0", "--by", "X"), 0, "(0)"),
    (
        ("quotient", "--ring", "QQ[Y][X]", "--gens", "Y^2*X - 1/2*X^3, Y*X^2", "--by", "2"),
        0,
        "(Y*X^2, Y^2*X - 1/2*X^3, X^4)",
    ),
    # the reduced basis of the zero ideal is empty
    (("gb", "--ring", "QQ[Y][X]", "--gens", "0"), 0, "(0)"),
]


@pytest.mark.parametrize("argv, code, body", _EDGES, ids=[" ".join(a) for a, _, _ in _EDGES])
def test_engine_edges_through_the_cli(argv, code, body):
    assert run(*argv) == (code, body)


def test_gb_of_a_quotient_body_prints_the_body_unchanged():
    # a reduced grevlex basis is its own reduced basis
    ring = ("--ring", "QQ[Y,Z][X]")
    code, out = run("quotient", *ring, "--gens", "Y^2*X - Z, Z*X^2 - Y", "--by=-2*Y")
    assert code == 0
    assert run("gb", *ring, "--gens", out[1:-1]) == (0, out)


# -- exit contract -------------------------------------------------------------------------

# (argv, exit code, body); a body of None stands for an input-error message.
# "{bad}" names a file whose bytes are not UTF-8 and "{dir}" a directory; stdin
# holds the same bytes and decodes strictly, as it does outside the C locale.
_UNDECODABLE = b"X\xff"
_EXIT_CONTRACT = [
    # long chains of powers: only degree-0 generators pass the degree budget
    (("contract", "--ring", "ZZ[X]", "--gens", "2", "--power", "1200"), 0, f"({2**1200})"),
    (
        ("obstruct", "--ring", "ZZ[X]", "--gens", "2", "--power", "1200"),
        0,
        "no obstruction found (not a primality proof)",
    ),
    (("contract", "--ring", "QQ[Y][X]", "--gens", "3", "--power", "2000"), 0, "(1)"),
    (("gb", "--ring", "ZZ[X]", "--gens-file", "{bad}"), 2, None),
    (("gb", "--ring", "ZZ[X]", "--gens", "-"), 2, None),
    (("gb", "--ring", "ZZ[X]", "--gens-file", "{dir}"), 2, None),
]
# Python's cap on the digits of an int read from or written as text (0: none)
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
if _DIGITS:
    _TOO_LONG = (
        f"an integer exceeds Python's limit of {_DIGITS} digits for conversion to or from text"
    )
    _EXIT_CONTRACT += [
        # rendering 2^15000, and parsing a literal of 5000 digits
        (("contract", "--ring", "ZZ[X]", "--gens", "2", "--power", "15000"), 2, f"error: {_TOO_LONG}"),
        (("gb", "--ring", "ZZ[X]", "--gens", "9" * 5000 + "*X"), 2, f"error: {_TOO_LONG}"),
        (
            ("gb", "--ring", "ZZ[X]", "--gens", "9" * 5000 + "*X", "--format", "json"),
            2,
            json.dumps({"error": _TOO_LONG}, indent=2),
        ),
    ]
_CONTRACT_IDS = [
    " ".join(a if len(a) <= 40 else f"<{len(a)} characters>" for a in argv)
    for argv, _, _ in _EXIT_CONTRACT
]


def _contract_argv(argv, tmp_path):
    """argv with "{bad}" and "{dir}" filled in, the file written."""
    bad = tmp_path / "gens.txt"
    bad.write_bytes(_UNDECODABLE)
    return [a.format(bad=bad, dir=tmp_path) for a in argv]


def _check_contract(code, body, want_code, want_body):
    assert code == want_code, body
    if want_body is None:
        assert body.startswith("error: "), body
    else:
        assert body == want_body


@pytest.mark.parametrize("argv, code, body", _EXIT_CONTRACT, ids=_CONTRACT_IDS)
def test_exit_contract_through_run_command(argv, code, body, tmp_path, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(_UNDECODABLE), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    _check_contract(*run(*_contract_argv(argv, tmp_path)), code, body)


@pytest.mark.parametrize("argv, code, body", _EXIT_CONTRACT, ids=_CONTRACT_IDS)
def test_exit_contract_through_python_m(argv, code, body, tmp_path):
    argv = _contract_argv(argv, tmp_path)
    with open(tmp_path / "gens.txt", "rb") as stdin:
        done = _python_m(argv, stdin, PYTHONIOENCODING="utf-8:strict")
    assert done.stderr == ""  # no traceback
    assert done.stdout.endswith("\n")
    _check_contract(done.returncode, done.stdout[:-1], code, body)
