"""A fixed grid of ``ps`` argvs and the exit code and body digest of each.

The grid is 15 verb forms on two fixed ideals in each of four rings, in text
and JSON, with no budget flag and with ``--max-degree 6``: 480 argvs, run in
process through ``run_command``.  ``tests/cli_grid.json`` pins, per argv,
the exit code and the sha256 of the body, and
``tests/test_cli.py::test_the_cli_grid_answers_as_pinned`` compares them.  A
change that moves an answer on purpose rewrites the file with

    PYTHONPATH=src python3 tests/cli_grid.py

and lists the argvs that changed, and why.
"""

import hashlib
import json
import shlex
from pathlib import Path

from powerstable.cli import run_command

PINNED = Path(__file__).with_name("cli_grid.json")

IDEALS = {
    "ZZ[X]": ("X^2 - 2, 4*X", "6*X^2 + 4, 10*X + 2"),
    "QQ[Y][X]": ("11*Y^2 - 1, -2*Y^2 - 2*Y*X", "Y*X^2 - Y, Y^2*X - X"),
    "QQ[Y,Z][X]": ("Y^3 - Z^2, Y*X - Z", "Y*X^2 + Z, Z*X - Y^2"),
    "Fp(7)[Y][X]": (
        "4*Y^3 + 6*Y^2*X + 4*Y^2 + X^2, 3*Y^3 + 5*Y^2*X + 4*X^3, 3*X^3 + 3",
        "Y*X - 1, Y^2 - 3",
    ),
}

VERBS = (
    ("gb", "--order", "grevlex"),
    ("gb", "--order", "elim:X"),
    ("gb", "--order", "lex"),
    ("contract", "--power", "1"),
    ("contract", "--power", "2"),
    ("contract", "--power", "3"),
    ("check-stable", "--max-power", "3"),
    ("criterion", "--max-level", "2"),
    ("eliminate", "--vars", "X"),
    ("quotient", "--by", "X"),
    ("saturate", "--by", "X"),
    ("member", "--poly", "X"),
    ("radical-member", "--poly", "X"),
    ("certify",),
    ("obstruct", "--power", "2"),
)


def argvs() -> list[list[str]]:
    return [
        [*verb, "--ring", ring, "--gens", gens, "--format", fmt, *cap]
        for ring, ideals in IDEALS.items()
        for gens in ideals
        for verb in VERBS
        for fmt in ("text", "json")
        for cap in ((), ("--max-degree", "6"))
    ]


def answers() -> dict[str, list]:
    """Per argv, written as one shell line: [exit code, sha256 of the body]."""
    out = {}
    for argv in argvs():
        code, doc = run_command(argv)
        out[shlex.join(argv)] = [code, hashlib.sha256(doc.body.encode()).hexdigest()]
    return out


if __name__ == "__main__":
    lines = (f"{json.dumps(argv)}: {json.dumps(pin)}" for argv, pin in answers().items())
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
