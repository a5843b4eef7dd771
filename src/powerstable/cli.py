"""Command line front end.

One executable, ``ps``, with verb subcommands.  A verb is one row of
``_VERBS`` (help, handler, options in order): the parser is built from the
table and dispatches to the handler of the row.  A handler formats each
output polynomial once and builds its text lines from the strings in its
json document.  Exit codes are part of the interface: 0 success (stable /
certified / member / computed), 1 a successful negative finding (unstable,
non-member, obstruction found, no certificate), 2 usage or input errors,
3 budget exhausted.  Output is deterministic for identical argv: fixed
templates in text mode, fixed key order in json mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Sequence

from .corpus import REGISTRY, corpus
from .errors import AlgebraError, BudgetExceededError, ParseError
from .groebner import Budget
from .ideals import Ideal, RingMap
from .orders import parse_order
from .polynomials import Polynomial, format_poly, parse_poly
from .rings import RingSpec
from .stability import (
    certify_stable,
    check_power_stable,
    contract_power,
    graded_criterion,
    primary_obstruction,
)


@dataclass(frozen=True)
class OutputDocument:
    body: str


def _texts(polys) -> list[str]:
    return [format_poly(p) for p in polys]


def _paren(texts: Sequence[str]) -> str:
    return "(" + ", ".join(texts) + ")" if texts else "(0)"


def _split_items(blob: str) -> list[str]:
    out = []
    for chunk in blob.replace("\n", ",").split(","):
        chunk = chunk.strip()
        if chunk:
            out.append(chunk)
    return out


def _budget(args) -> Budget:
    return Budget(max_pairs=args.max_pairs, max_degree=args.max_degree)


def _load_ideal(args, ring: RingSpec) -> Ideal:
    if args.gens is not None and args.gens_file is not None:
        raise ParseError("give the generators once: --gens or --gens-file, not both")
    if args.gens is not None:
        blob = sys.stdin.read() if args.gens == "-" else args.gens
    elif args.gens_file is not None:
        blob = Path(args.gens_file).read_text()
    else:
        raise ParseError("no generators given: use --gens, --gens -, or --gens-file")
    texts = _split_items(blob)
    if not texts:
        raise ParseError("empty generator list")
    return Ideal.from_texts(ring, texts)


def _witness_text(w) -> str | None:
    if w is None:
        return None
    return format_poly(w) if isinstance(w, Polynomial) else str(w)


def _certificate(cert) -> tuple[dict, str | None]:
    """The json keys of a certificate search's result, and the text line of
    the certificate it found (None when it found none)."""
    if cert is None:
        return {"certificate": None, "certificates": []}, None
    if cert.kind == "monic":
        base = _texts(cert.base_gens)
        doc = {"kind": "monic", "monic": format_poly(cert.monic), "base_gens": base}
        line = f"certificate: monic; f = {doc['monic']}; base ideal {_paren(base)}"
    else:
        image = format_poly(cert.image)
        doc = {"kind": "regular_image", "modulus": cert.modulus, "image": image, "lcm": cert.lcm_value}
        line = f"certificate: regular_image; modulus {cert.modulus}; image {image}"
    return {"certificate": cert.kind, "certificates": [doc]}, line


# -- verb handlers --------------------------------------------------------------


def _with_ideal(handler, args):
    """The opening shared by the verbs that read one ideal.  ``handler`` gets
    (args, ideal, budget) and returns only its own doc keys, which follow
    "ring" and "generators".  Text output shows neither, so they are
    formatted for JSON output only."""
    ideal = _load_ideal(args, RingSpec.parse(args.ring))
    code, doc, lines = handler(args, ideal, _budget(args))
    if args.format == "json":
        doc = {**_ideal_doc(ideal), **doc}
    return code, doc, lines


def _ideal_doc(ideal: Ideal) -> dict:
    return {"ring": ideal.ring.to_json(), "generators": _texts(ideal.generators)}


def _cmd_gb(args, ideal, budget):
    gb = ideal.groebner(parse_order(args.order), budget)
    basis = _texts(gb.elements)
    doc = {"order": args.order, "basis": basis, "reduced": gb.reduced, "strong": gb.strong}
    return 0, doc, [_paren(basis)]


def _cmd_contract(args, ideal, budget):
    texts = contract_power(ideal, args.power, budget).texts()
    return 0, {"power": args.power, "contraction": list(texts)}, [_paren(texts)]


def _cmd_check_stable(args, ideal, budget):
    report = check_power_stable(ideal, args.max_power, budget)
    cert = certify_stable(ideal, budget) if report.is_stable() else None
    cert_keys, cert_line = _certificate(cert)
    records = [
        {
            "t": r.t,
            "contraction": list(r.contraction.texts()),
            "base_power": list(r.expected.texts()),
            "equal": r.equal,
        }
        for r in report.records
    ]
    witness = _witness_text(report.witness)
    doc = {
        "bound": args.max_power,
        "verdict": {"kind": report.verdict.kind, "t": report.verdict.t},
        "records": records,
        "witness": witness,
        **cert_keys,
    }
    if not report.is_stable():
        lines = [f"unstable at t={report.verdict.t}", f"witness: {witness}"]
    elif cert is not None:
        lines = [f"certified stable (all t): {cert.kind} certificate", cert_line]
    else:
        lines = [f"stable up to t={args.max_power} (not certified for all t)"]
    for r in records:
        lines.append(
            f"t={r['t']}: contraction {_paren(r['contraction'])}, "
            f"base power {_paren(r['base_power'])}, equal {'yes' if r['equal'] else 'no'}"
        )
    return (0 if report.is_stable() else 1), doc, lines


def _cmd_criterion(args, ideal, budget):
    rep = graded_criterion(ideal, args.max_level, budget)
    records = [
        {
            "n": r.n,
            "meet": list(r.meet.texts()),
            "target": list(r.target.texts()),
            "holds": r.holds,
        }
        for r in rep.records
    ]
    witness = _witness_text(rep.witness)
    doc = {
        "bound": args.max_level,
        "holds": rep.holds,
        "failure_n": rep.failure_n,
        "records": records,
        "witness": witness,
    }
    if rep.holds:
        lines = [f"criterion holds for all n <= {args.max_level}"]
    else:
        lines = [f"criterion fails at n={rep.failure_n}", f"witness: {witness}"]
    for r in records:
        lines.append(
            f"n={r['n']}: meet {_paren(r['meet'])}, "
            f"target {_paren(r['target'])}, holds {'yes' if r['holds'] else 'no'}"
        )
    return (0 if rep.holds else 1), doc, lines


def _cmd_eliminate(args, ideal, budget):
    names = tuple(_split_items(args.vars))
    if not names:
        raise ParseError("empty variable list")
    result = _texts(ideal.eliminate(names, budget).generators)
    return 0, {"vars": list(names), "result": result}, [_paren(result)]


def _cmd_colon(method, args, ideal, budget):
    """quotient (I : f) and saturate (I : f^infinity)."""
    f = parse_poly(args.by, ideal.ring)
    result = _texts(getattr(ideal, method)(f, budget).generators)
    return 0, {"by": format_poly(f), "result": result}, [_paren(result)]


def _cmd_member(method, args, ideal, budget):
    """member (f in I) and radical-member (some power of f in I)."""
    f = parse_poly(args.poly, ideal.ring)
    val = getattr(ideal, method)(f, budget)
    doc = {"poly": format_poly(f), "member": val}
    return (0 if val else 1), doc, ["true" if val else "false"]


def _cmd_certify(args, ideal, budget):
    doc, line = _certificate(certify_stable(ideal, budget))
    if line is None:
        return 1, doc, ["no certificate found (not a refutation)"]
    return 0, doc, [line, "stable for all t"]


def _cmd_obstruct(args, ideal, budget):
    wits = None
    if args.witnesses is not None:
        wits = [parse_poly(t, ideal.ring) for t in _split_items(args.witnesses)]
        if not wits:
            raise ParseError("empty witness list")
    cert = primary_obstruction(ideal, args.power, wits, budget)
    if cert is None:
        doc = {"power": args.power, "found": False, "witness": None, "cofactor": None}
        return 0, doc, ["no obstruction found (not a primality proof)"]
    witness, cofactor = _texts((cert.witness, cert.cofactor))
    doc = {"power": args.power, "found": True, "witness": witness, "cofactor": cofactor}
    return 1, doc, [f"obstruction at t={args.power}: witness {witness}, cofactor {cofactor}"]


def _cmd_kernel(args):
    source = RingSpec.parse(args.source)
    target = RingSpec.parse(args.target)
    images: dict[str, Polynomial] = {}
    for piece in _split_items(args.map):
        var, sep, expr = piece.partition("=")
        if not sep or not var.strip() or not expr.strip():
            raise ParseError(f"map entries look like VAR=POLY, got {piece!r}")
        var = var.strip()
        if var in images:
            raise ParseError(f"variable {var!r} is mapped twice")
        images[var] = parse_poly(expr.strip(), target)
    ring_map = RingMap(source, target, images)
    kernel = _texts(ring_map.kernel(_budget(args)).generators)
    doc = {
        "source": source.to_json(),
        "target": target.to_json(),
        "map": {v: format_poly(images[v]) for v in source.variables},
        "kernel": kernel,
    }
    return 0, doc, [_paren(kernel)]


def _cmd_corpus(args):
    budget = _budget(args)  # only radical_zx computes, but every cap is checked
    if args.list:
        entries = [
            {"name": e.name, "params": e.params, "description": e.description}
            for e in REGISTRY
        ]
        lines = [f"{e.name}  [{e.params}]  {e.description}" for e in REGISTRY]
        return 0, {"entries": entries}, lines
    if not args.name:
        raise ParseError("corpus needs --list or --name")
    params: dict = {}
    if args.name in ("principal", "extension_JX", "comaximal_pair"):
        params["seed"] = args.seed
    elif args.name == "example_3_12":
        params["p"] = args.p
    elif args.name == "radical_zx":
        if not args.pairs:
            raise ParseError("radical_zx needs --pairs like \"2:X^2+X+1;3:X+1\"")
        pairs = []
        for piece in args.pairs.split(";"):
            p_str, sep, f_str = piece.partition(":")
            if not sep:
                raise ParseError(f"pair entries look like p:POLY, got {piece!r}")
            try:
                p = int(p_str.strip())
            except ValueError:
                raise ParseError(f"modulus {p_str.strip()!r} is not an integer") from None
            pairs.append((p, f_str.strip()))
        params["pairs"] = pairs
        params["budget"] = budget
    result = corpus(args.name, params)
    if isinstance(result, Ideal):
        doc = {"name": args.name, **_ideal_doc(result)}
        return 0, doc, [str(result.ring), _paren(doc["generators"])]
    if isinstance(result, RingMap):
        images = {v: format_poly(result.images[v]) for v in result.source.variables}
        doc = {
            "name": args.name,
            "source": result.source.to_json(),
            "target": result.target.to_json(),
            "images": images,
        }
        arrows = ", ".join(f"{v} = {img}" for v, img in images.items())
        return 0, doc, [f"{result.source} -> {result.target}: {arrows}"]
    left, right = result
    doc = {"name": args.name, "left": _ideal_doc(left), "right": _ideal_doc(right)}
    lines = [
        f"left: {left.ring} {_paren(doc['left']['generators'])}",
        f"right: {right.ring} {_paren(doc['right']['generators'])}",
    ]
    return 0, doc, lines


# -- verb table -----------------------------------------------------------------


# an option is (flag, add_argument keywords); these are shared by rows
_IDEAL_OPTIONS = (
    ("--ring", dict(required=True, help="ring notation, e.g. ZZ[X] or QQ[Y][X]")),
    ("--gens", dict(help="comma-separated generators; '-' reads stdin")),
    ("--gens-file", dict(help="file with comma- or newline-separated generators")),
)
_COMMON_OPTIONS = (
    ("--format", dict(choices=("text", "json"), default="text")),
    (
        "--max-pairs",
        dict(
            type=int,
            default=Budget().max_pairs,
            help="cap on the S- and G-pairs reduced, per Groebner computation",
        ),
    ),
    ("--max-degree", dict(type=int, default=Budget().max_degree, help="total degree budget")),
)
_BY = ("--by", dict(required=True, help="the divisor polynomial f"))
_POLY = ("--poly", dict(required=True))


def _ideal_verb(verb_help: str, handler, *options) -> tuple:
    """The row of a verb that reads one ideal: its handler wrapped by
    ``_with_ideal``, and its own options after the shared ones."""
    return verb_help, partial(_with_ideal, handler), (*_IDEAL_OPTIONS, *_COMMON_OPTIONS, *options)


# verb -> (help, handler, options in order), in the order ``ps --help`` lists
# them; the colon and membership handlers take the name of the Ideal method
# they call, looked up on the ideal at each call
_VERBS = {
    "gb": _ideal_verb(
        "reduced Groebner basis (strong over ZZ)",
        _cmd_gb,
        ("--order", dict(default="grevlex", help="lex | grevlex | lex:X,Y | elim:X,Y")),
    ),
    "contract": _ideal_verb(
        "generators of I^t intersected with R",
        _cmd_contract,
        ("--power", dict(type=int, default=1)),
    ),
    "check-stable": _ideal_verb(
        "bounded power-stability verdict",
        _cmd_check_stable,
        ("--max-power", dict(type=int, default=4)),
    ),
    "criterion": _ideal_verb(
        "graded criterion levels n = 0..N",
        _cmd_criterion,
        ("--max-level", dict(type=int, default=3)),
    ),
    "eliminate": _ideal_verb(
        "drop variables from the ideal",
        _cmd_eliminate,
        ("--vars", dict(required=True, help="comma-separated variables to eliminate")),
    ),
    "quotient": _ideal_verb("colon ideal (I : f)", partial(_cmd_colon, "quotient"), _BY),
    "saturate": _ideal_verb("saturation (I : f^infinity)", partial(_cmd_colon, "saturate"), _BY),
    "member": _ideal_verb("ideal membership test", partial(_cmd_member, "contains"), _POLY),
    "radical-member": _ideal_verb(
        "radical membership test", partial(_cmd_member, "radical_contains"), _POLY
    ),
    "kernel": (
        "kernel of a variable-image ring map",
        _cmd_kernel,
        (
            *_COMMON_OPTIONS,
            ("--source", dict(required=True)),
            ("--target", dict(required=True)),
            ("--map", dict(required=True, help='images like "W=T^3,Y=T^4,Z=T^5"')),
        ),
    ),
    "certify": _ideal_verb("search for an all-t stability certificate", _cmd_certify),
    "obstruct": _ideal_verb(
        "search for a primary obstruction of P^t",
        _cmd_obstruct,
        ("--power", dict(type=int, default=2)),
        ("--witnesses", dict(help="comma-separated candidate witnesses (default: variables)")),
    ),
    "corpus": (
        "built-in example ideals",
        _cmd_corpus,
        (
            ("--list", dict(action="store_true")),
            ("--name", dict()),
            ("--p", dict(type=int, default=2, help="prime for example_3_12")),
            ("--seed", dict(type=int, default=0, help="seed for the seeded builders")),
            ("--pairs", dict(help='radical_zx pairs like "2:X^2+X+1;3:X+1"')),
            *_COMMON_OPTIONS,
        ),
    ),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``ps`` parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ps",
        description="Exact ideal arithmetic in R[X] and power-stability checking.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="verb")
    for verb, (verb_help, handler, options) in _VERBS.items():
        sp = sub.add_parser(verb, help=verb_help, exit_on_error=False)
        for flag, spec in options:
            sp.add_argument(flag, **spec)
        sp.set_defaults(handler=handler)
    return parser


# options whose value is a polynomial, which may begin with "-"
_POLY_VALUED = frozenset(("--gens", "--poly", "--by", "--witnesses"))


def _attach_values(argv: Sequence[str]) -> list[str]:
    """argv with each value that follows a polynomial-valued option and
    begins with a single "-" attached to it as ``--option=value``: argparse
    alone takes such a value ("-X": no space, not a number) for a flag.  A
    value beginning with "--" stays a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _POLY_VALUED and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run_command(argv: Sequence[str]) -> tuple[int, OutputDocument]:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(argv))
    except argparse.ArgumentError as err:
        return 2, OutputDocument(f"usage error: {err}")
    except SystemExit as err:  # argparse printed its own message (e.g. --help)
        code = err.code if isinstance(err.code, int) else 2
        return (0 if code == 0 else 2), OutputDocument("")
    if args.verb is None:
        return 2, OutputDocument("usage error: a command verb is required (see ps --help)")
    fmt = args.format
    try:
        code, doc, lines = args.handler(args)
        return code, _render(fmt, doc, lines)
    except BudgetExceededError as err:
        return 3, _render(fmt, {"error": str(err), "budget_exceeded": True}, [f"budget exceeded: {err}"])
    except (AlgebraError, OSError, UnicodeDecodeError) as err:
        return 2, _render(fmt, {"error": str(err)}, [f"error: {err}"])
    except ValueError as err:
        # Python's cap on the digits of an int read from or written as text;
        # the process-wide cap stays, since callers may run commands in-process
        if "integer string conversion" not in str(err):
            raise
        msg = (
            f"an integer exceeds Python's limit of {sys.get_int_max_str_digits()} digits"
            " for conversion to or from text"
        )
        return 2, _render(fmt, {"error": msg}, [f"error: {msg}"])


def _render(fmt: str, doc: dict, lines: list[str]) -> OutputDocument:
    if fmt == "json":
        return OutputDocument(json.dumps(doc, indent=2))
    return OutputDocument("\n".join(lines))


def main(argv: Sequence[str] | None = None) -> int:
    code, doc = run_command(sys.argv[1:] if argv is None else argv)
    if doc.body:
        try:
            print(doc.body)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left, and the answer stands: point stdout at devnull
            # so that the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
