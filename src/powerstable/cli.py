"""Command line front end.

One executable, ``ps``, with verb subcommands.  Exit codes are part of the
interface: 0 success (stable / certified / member / computed), 1 a
successful negative finding (unstable, non-member, obstruction found, no
certificate), 2 usage or input errors, 3 budget exhausted.  Output is
deterministic for identical argv: fixed templates in text mode, fixed key
order in json mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Sequence

from .corpus import REGISTRY, corpus
from .errors import AlgebraError, BudgetExceededError, ParseError
from .groebner import Budget, groebner_basis
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
    "ring" and "generators"."""
    ideal = _load_ideal(args, RingSpec.parse(args.ring))
    code, doc, lines = handler(args, ideal, _budget(args))
    return code, {**_ideal_doc(ideal), **doc}, lines


def _ideal_doc(ideal: Ideal) -> dict:
    return {"ring": ideal.ring.to_json(), "generators": _texts(ideal.generators)}


def _cmd_gb(args, ideal, budget):
    order = parse_order(args.order, ideal.ring)
    gb = groebner_basis(ideal.generators, order, budget)
    doc = {
        "order": args.order,
        "basis": _texts(gb.elements),
        "reduced": gb.reduced,
        "strong": gb.strong,
    }
    return 0, doc, [_paren(_texts(gb.elements))]


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
    doc = {
        "bound": args.max_power,
        "verdict": {"kind": report.verdict.kind, "t": report.verdict.t},
        "records": records,
        "witness": _witness_text(report.witness),
        **cert_keys,
    }
    lines = []
    if not report.is_stable():
        lines.append(f"unstable at t={report.verdict.t}")
        lines.append(f"witness: {_witness_text(report.witness)}")
    elif cert is not None:
        lines.append(f"certified stable (all t): {cert.kind} certificate")
        lines.append(cert_line)
    else:
        lines.append(f"stable up to t={args.max_power} (not certified for all t)")
    for r in report.records:
        lines.append(
            f"t={r.t}: contraction {_paren(r.contraction.texts())}, "
            f"base power {_paren(r.expected.texts())}, equal {'yes' if r.equal else 'no'}"
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
    doc = {
        "bound": args.max_level,
        "holds": rep.holds,
        "failure_n": rep.failure_n,
        "records": records,
        "witness": _witness_text(rep.witness),
    }
    lines = []
    if rep.holds:
        lines.append(f"criterion holds for all n <= {args.max_level}")
    else:
        lines.append(f"criterion fails at n={rep.failure_n}")
        lines.append(f"witness: {_witness_text(rep.witness)}")
    for r in rep.records:
        lines.append(
            f"n={r.n}: meet {_paren(r.meet.texts())}, "
            f"target {_paren(r.target.texts())}, holds {'yes' if r.holds else 'no'}"
        )
    return (0 if rep.holds else 1), doc, lines


def _cmd_eliminate(args, ideal, budget):
    names = tuple(_split_items(args.vars))
    out = ideal.eliminate(names, budget)
    doc = {"vars": list(names), "result": _texts(out.generators)}
    return 0, doc, [_paren(_texts(out.generators))]


def _cmd_colon(args, ideal, budget):
    """quotient (I : f) and saturate (I : f^infinity)."""
    f = parse_poly(args.by, ideal.ring)
    colon = ideal.quotient if args.verb == "quotient" else ideal.saturate
    out = colon(f, budget)
    doc = {"by": format_poly(f), "result": _texts(out.generators)}
    return 0, doc, [_paren(_texts(out.generators))]


def _cmd_member(args, ideal, budget):
    """member (f in I) and radical-member (some power of f in I)."""
    f = parse_poly(args.poly, ideal.ring)
    test = ideal.contains if args.verb == "member" else ideal.radical_contains
    val = test(f, budget)
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
    doc = {
        "power": args.power,
        "found": cert is not None,
        "witness": None if cert is None else format_poly(cert.witness),
        "cofactor": None if cert is None else format_poly(cert.cofactor),
    }
    if cert is None:
        return 0, doc, ["no obstruction found (not a primality proof)"]
    lines = [
        f"obstruction at t={args.power}: "
        f"witness {format_poly(cert.witness)}, cofactor {format_poly(cert.cofactor)}"
    ]
    return 1, doc, lines


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
    out = ring_map.kernel(_budget(args))
    doc = {
        "source": source.to_json(),
        "target": target.to_json(),
        "map": {v: format_poly(images[v]) for v in source.variables},
        "kernel": _texts(out.generators),
    }
    return 0, doc, [_paren(_texts(out.generators))]


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
        lines = [str(result.ring), _paren(_texts(result.generators))]
        return 0, doc, lines
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
        f"left: {left.ring} {_paren(_texts(left.generators))}",
        f"right: {right.ring} {_paren(_texts(right.generators))}",
    ]
    return 0, doc, lines


_IDEAL_VERBS = {
    "gb": _cmd_gb,
    "contract": _cmd_contract,
    "check-stable": _cmd_check_stable,
    "criterion": _cmd_criterion,
    "eliminate": _cmd_eliminate,
    "quotient": _cmd_colon,
    "saturate": _cmd_colon,
    "member": _cmd_member,
    "radical-member": _cmd_member,
    "certify": _cmd_certify,
    "obstruct": _cmd_obstruct,
}
_HANDLERS = {
    **{verb: partial(_with_ideal, cmd) for verb, cmd in _IDEAL_VERBS.items()},
    "kernel": _cmd_kernel,
    "corpus": _cmd_corpus,
}


# -- parser ---------------------------------------------------------------------


def _add_common(sp, ideal: bool = True) -> None:
    """The options every verb takes; ``ideal`` adds those that read one ideal."""
    if ideal:
        sp.add_argument("--ring", required=True, help="ring notation, e.g. ZZ[X] or QQ[Y][X]")
        sp.add_argument("--gens", help="comma-separated generators; '-' reads stdin")
        sp.add_argument("--gens-file", help="file with comma- or newline-separated generators")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument(
        "--max-pairs",
        type=int,
        default=Budget().max_pairs,
        help="cap on the S- and G-pairs reduced, per Groebner computation",
    )
    sp.add_argument(
        "--max-degree", type=int, default=Budget().max_degree, help="total degree budget"
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``ps`` parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ps",
        description="Exact ideal arithmetic in R[X] and power-stability checking.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="verb")

    sp = sub.add_parser("gb", help="reduced Groebner basis (strong over ZZ)", exit_on_error=False)
    _add_common(sp)
    sp.add_argument("--order", default="grevlex", help="lex | grevlex | lex:X,Y | elim:X,Y")

    sp = sub.add_parser("contract", help="generators of I^t intersected with R", exit_on_error=False)
    _add_common(sp)
    sp.add_argument("--power", type=int, default=1)

    sp = sub.add_parser("check-stable", help="bounded power-stability verdict", exit_on_error=False)
    _add_common(sp)
    sp.add_argument("--max-power", type=int, default=4)

    sp = sub.add_parser("criterion", help="graded criterion levels n = 0..N", exit_on_error=False)
    _add_common(sp)
    sp.add_argument("--max-level", type=int, default=3)

    sp = sub.add_parser("eliminate", help="drop variables from the ideal", exit_on_error=False)
    _add_common(sp)
    sp.add_argument("--vars", required=True, help="comma-separated variables to eliminate")

    for verb, verb_help, option, option_help in (
        ("quotient", "colon ideal (I : f)", "--by", "the divisor polynomial f"),
        ("saturate", "saturation (I : f^infinity)", "--by", "the divisor polynomial f"),
        ("member", "ideal membership test", "--poly", None),
        ("radical-member", "radical membership test", "--poly", None),
    ):
        sp = sub.add_parser(verb, help=verb_help, exit_on_error=False)
        _add_common(sp)
        sp.add_argument(option, required=True, help=option_help)

    sp = sub.add_parser("kernel", help="kernel of a variable-image ring map", exit_on_error=False)
    _add_common(sp, ideal=False)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--map", required=True, help='images like "W=T^3,Y=T^4,Z=T^5"')

    sp = sub.add_parser("certify", help="search for an all-t stability certificate", exit_on_error=False)
    _add_common(sp)

    sp = sub.add_parser("obstruct", help="search for a primary obstruction of P^t", exit_on_error=False)
    _add_common(sp)
    sp.add_argument("--power", type=int, default=2)
    sp.add_argument("--witnesses", help="comma-separated candidate witnesses (default: variables)")

    sp = sub.add_parser("corpus", help="built-in example ideals", exit_on_error=False)
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--name")
    sp.add_argument("--p", type=int, default=2, help="prime for example_3_12")
    sp.add_argument("--seed", type=int, default=0, help="seed for the seeded builders")
    sp.add_argument("--pairs", help='radical_zx pairs like "2:X^2+X+1;3:X+1"')
    _add_common(sp, ideal=False)

    return parser


def run_command(argv: Sequence[str]) -> tuple[int, OutputDocument]:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except argparse.ArgumentError as err:
        return 2, OutputDocument(f"usage error: {err}")
    except SystemExit as err:  # argparse printed its own message (e.g. --help)
        code = err.code if isinstance(err.code, int) else 2
        return (0 if code == 0 else 2), OutputDocument("")
    if args.verb is None:
        return 2, OutputDocument("usage error: a command verb is required (see ps --help)")
    fmt = getattr(args, "format", "text")
    try:
        code, doc, lines = _HANDLERS[args.verb](args)
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
        print(doc.body)
    return code


if __name__ == "__main__":
    sys.exit(main())
