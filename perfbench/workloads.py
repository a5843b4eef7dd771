"""The benchmark's workloads: seeded inputs, the timed call, and its checks.

Inputs are generated here from the workload seed, as polynomial texts or
corpus items, and handed to the library only in that form.  Each workload
is a fixed catalogue of ideals; the seed picks a presentation of every
catalogue entry (a scaling of the variables, or unit multiples of the
generators) and the order in which the client visits them.  Resampling the
ideals themselves would move a pass's total time by far more than any bound
can tolerate, because the cost of one verdict is heavy-tailed (monic family
at t <= 3: median 18 ms, slowest of 200 members 4.7 s).  A scaling of the
variables is a ring automorphism, so it keeps the verdict and the shape of
every Groebner computation and changes only the coefficients.

Every instance carries three pieces:

* ``run``: the timed call, on objects made fresh for that call, so no
  Groebner basis cached on an ``Ideal`` survives from one call to the next.
  It reaches the library through module attributes (``ps.check_power_stable``)
  so that the traced run's wrappers see the call;
* ``render``: the answer as deterministic text (JSON), used for the digest
  and for comparing repeated passes;
* ``verify``: a check of that text by another route than the timed call
  (known verdicts and witnesses, certificates re-verified on fresh ideals,
  kernel generators evaluated on the curve), returning an error or None.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import powerstable as ps
from powerstable import cli
from powerstable import (
    Ideal,
    MonicCertificate,
    ObstructionCertificate,
    RegularImageCertificate,
    RingSpec,
    comaximal_pair,
    evaluate_map,
    example_3_12,
    format_poly,
    graded_criterion,
    parse_poly,
    principal,
)
from powerstable.corpus import prime_corpus, radical_corpus


@dataclass
class Instance:
    label: str
    run: Callable[[], Any]
    render: Callable[[Any], str]
    verify: Callable[[str], str | None]


# -- polynomial texts ------------------------------------------------------------


def _coeff_text(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(terms: dict[tuple[int, ...], Any], names: tuple[str, ...]) -> str:
    """Text of a term map {exponents: coefficient} that parse_poly accepts."""
    parts = []
    for e in sorted(terms, reverse=True):
        c = Fraction(terms[e])
        if not c:
            continue
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        mag = _coeff_text(abs(c))
        body = mag if not mono else (mono if mag == "1" else f"{mag}*{mono}")
        if parts:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts) or "0"


def _texts(polys) -> list[str]:
    return [format_poly(p) for p in polys]


def _answer(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# -- monic_qq ----------------------------------------------------------------------

MONIC_RING = "QQ[Y,Z][X]"
MONIC_MEMBERS = 50
MONIC_BOUND = 3
# Scalings of Y, Z and X.  Signs only: scaling by 2 or 1/2 as well grew the
# largest coefficient in the bases from 34 to 39 bits and moved the
# verdict_tail_ms of one seed against another by 7 %.
_SCALARS = (Fraction(1), Fraction(-1))


def _rand_terms(rng: random.Random, nvars: int, max_deg: int, max_terms: int, bound: int) -> dict:
    """Random sparse polynomial drawn exactly as the test suite's rand_poly."""
    out: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-bound, bound)
        if not c:
            continue
        left = max_deg
        e = []
        for _v in range(nvars):
            k = rng.randint(0, left)
            left -= k
            e.append(k)
        s = out.get(tuple(e), 0) + c
        if s:
            out[tuple(e)] = s
        else:
            out.pop(tuple(e), None)
    return out


def monic_member(m: int) -> tuple[list[dict], dict]:
    """Member m of the monic family, in the shape of acceptance criterion 3:
    1-3 random generators from QQ[Y,Z] and one f = X^d + lower terms.
    Returns (base generators, f) as term maps over (Y, Z, X)."""
    rng = random.Random(f"monic:{m}")
    base = []
    for _ in range(rng.randint(1, 3)):
        g = _rand_terms(rng, 2, 3, 2, 3)
        if g:
            base.append({(y, z, 0): c for (y, z), c in g.items()})
    d = rng.randint(1, 3)
    f = {(0, 0, d): 1}
    for i in range(d):
        c = _rand_terms(rng, 2, 2, 2, 2)
        for (y, z), v in c.items():
            f[(y, z, i)] = v
    return base, f


def _scaled(terms: dict, lam: tuple[Fraction, ...]) -> dict:
    out = {}
    for e, c in terms.items():
        v = Fraction(c)
        for s, k in zip(lam, e):
            v *= s**k
        out[e] = v
    return out


def monic_qq(seed: int, limit: int | None = None) -> list[Instance]:
    ring = RingSpec.parse(MONIC_RING)
    base_ring = ring.base_ring()
    rng = random.Random(f"perfbench:monic_qq:{seed}")
    names = ring.variables
    out = []
    for m in range(MONIC_MEMBERS if limit is None else limit):
        base, f = monic_member(m)
        lam = tuple(rng.choice(_SCALARS) for _ in names)
        base = [_scaled(g, lam) for g in base]
        f = _scaled(f, lam)
        lead = f[max(f, key=lambda e: e[2])]
        f = {e: c / lead for e, c in f.items()}
        base_texts = [poly_text(g, names) for g in base]
        f_text = poly_text(f, names)
        gens = [parse_poly(t, ring) for t in (*base_texts, f_text)]
        out.append(_monic_instance(f"monic:{m}", ring, base_ring, gens, base_texts, f_text))
    rng.shuffle(out)
    return out


def _monic_instance(label, ring, base_ring, gens, base_texts, f_text) -> Instance:
    def run():
        ideal = Ideal(ring, gens)
        report = ps.check_power_stable(ideal, MONIC_BOUND)
        cert = ps.monic_certificate(ideal)
        return report, cert, cert is not None and cert.verify()

    def render(ans) -> str:
        report, cert, verified = ans
        return _answer(
            {
                "verdict": str(report.verdict),
                "witness": None if report.witness is None else format_poly(report.witness),
                "records": [
                    [r.t, list(r.contraction.texts()), list(r.expected.texts()), r.equal]
                    for r in report.records
                ],
                "monic": None if cert is None else format_poly(cert.monic),
                "base": None if cert is None else _texts(cert.base_gens),
                "verified": verified,
            }
        )

    def verify(text: str) -> str | None:
        a = json.loads(text)
        if a["verdict"] != f"STABLE_UP_TO({MONIC_BOUND})" or a["witness"] is not None:
            return f"verdict {a['verdict']}, expected STABLE_UP_TO({MONIC_BOUND})"
        if not a["verified"] or a["monic"] is None:
            return "no verified monic certificate"
        # I = J + (f) with f monic, so I^t ∩ R = J^t, computed here from J alone
        J = Ideal(base_ring, [parse_poly(t, base_ring) for t in base_texts])
        if [r[0] for r in a["records"]] != list(range(1, MONIC_BOUND + 1)):
            return "records do not cover t = 1..bound"
        for t, contraction, _, equal in a["records"]:
            got = Ideal(base_ring, [parse_poly(s, base_ring) for s in contraction])
            want = J if t == 1 or J.is_zero_ideal() else J.power(t)
            if not equal or not got.equals(want):
                return f"contraction at t={t} is not J^{t}"
        if parse_poly(a["monic"], ring) != parse_poly(f_text, ring):
            return "certificate names another monic generator"
        cert = MonicCertificate(
            Ideal(ring, gens),
            parse_poly(a["monic"], ring),
            tuple(parse_poly(s, ring) for s in a["base"]),
        )
        return None if cert.verify() else "monic certificate fails verify()"

    return Instance(label, run, render, verify)


# -- strong_zz ----------------------------------------------------------------------

STRONG_BOUND = 5
_SMALL_PRIMES = tuple(p for p in range(2, 200) if all(p % q for q in range(2, p)))


def strong_zz(seed: int, limit: int | None = None) -> list[Instance]:
    """ZZ[X] corpus items with documented verdicts.

    Each item carries its contraction I ∩ ZZ = (d1) and, for the one
    unstable family, the exponent and witness of the failure.  The seed picks the
    primes of example_3_12 and the even seeds of principal, whose costs are
    nearly uniform; the other items are fixed, because over ZZ even a sign
    change of one generator can double the cost of a verdict."""
    rng = random.Random(f"perfbench:strong_zz:{seed}")
    items: list[tuple[str, Ideal, int, tuple[int, int] | None]] = []
    for p in sorted(rng.sample(_SMALL_PRIMES, 6)):
        items.append((f"example_3_12({p})", example_3_12(p), p * p, (2, p**3)))
    for name, ideal in prime_corpus():
        consts = [abs(int(g.constant_value())) for g in ideal.generators if g.is_constant()]
        items.append((f"prime {name}", ideal, consts[0] if consts else 0, None))
    for name, ideal in radical_corpus():
        primes = {int(p) for p in re.findall(r"\((\d+),", name)}
        items.append((f"radical {name}", ideal, math.prod(primes), None))
    for s in sorted(rng.sample(range(0, 10_000, 2), 10)):
        items.append((f"principal({s})", principal(s), 0, None))
    for s in range(0, 16, 2):
        left, right = comaximal_pair(s)
        d1 = int(left.generators[0].constant_value()) * int(right.generators[0].constant_value())
        items.append((f"comaximal_pair({s})", left.intersect(right), d1, None))
    if limit is not None:
        items = items[:limit]
    out = [
        _strong_instance(label, ideal.ring, ideal.generators, d1, unstable)
        for label, ideal, d1, unstable in items
    ]
    rng.shuffle(out)
    return out


def _strong_instance(label, ring, gens, d1, unstable) -> Instance:
    def run():
        ideal = Ideal(ring, gens)
        report = ps.check_power_stable(ideal, STRONG_BOUND)
        cert = ps.certify_stable(ideal) if report.is_stable() else None
        return report, cert

    def render(ans) -> str:
        report, cert = ans
        doc = {
            "verdict": str(report.verdict),
            "witness": None if report.witness is None else str(report.witness),
            "records": [
                [r.t, r.contraction.integer, r.expected.integer, r.equal] for r in report.records
            ],
            "certificate": None,
        }
        if cert is not None and cert.kind == "monic":
            doc["certificate"] = ["monic", format_poly(cert.monic), _texts(cert.base_gens)]
        elif cert is not None:
            doc["certificate"] = ["regular_image", cert.modulus, format_poly(cert.image), cert.lcm_value]
        return _answer(doc)

    def verify(text: str) -> str | None:
        a = json.loads(text)
        records = a["records"]
        if not records or records[0][1] != d1:
            return f"I ∩ ZZ reported as {records[0][1] if records else None}, expected ({d1})"
        if unstable is not None:
            t, witness = unstable
            if a["verdict"] != f"UNSTABLE_AT({t})" or a["witness"] != str(witness):
                return f"verdict {a['verdict']} witness {a['witness']}, expected UNSTABLE_AT({t}) {witness}"
            return None
        if a["verdict"] != f"STABLE_UP_TO({STRONG_BOUND})" or a["witness"] is not None:
            return f"verdict {a['verdict']}, expected STABLE_UP_TO({STRONG_BOUND})"
        for t, got, _, equal in records:
            if not equal or got != d1**t:
                return f"contraction at t={t} is ({got}), expected ({d1 ** t})"
        cert = a["certificate"]
        if cert is None:
            return None
        fresh = Ideal(ring, gens)
        if cert[0] == "monic":
            check = MonicCertificate(
                fresh, parse_poly(cert[1], ring), tuple(parse_poly(s, ring) for s in cert[2])
            )
        else:
            check = RegularImageCertificate(fresh, cert[1], parse_poly(cert[2], ring), cert[3])
        return None if check.verify() else f"{cert[0]} certificate fails verify()"

    return Instance(label, run, render, verify)


# -- toric_cli_gfp -------------------------------------------------------------------

TORIC_P = 32003
TORIC_SOURCE = f"Fp({TORIC_P})[Y,Z,W]"
TORIC_MAIN = f"Fp({TORIC_P})[Y,Z][W]"
TORIC_TARGET = f"Fp({TORIC_P})[T]"
# Exponents (a, b, c) of the curve W, Y, Z -> T^a, T^b, T^c.
TORIC_CURVES = (
    (3, 4, 5), (3, 5, 7), (4, 5, 6), (5, 7, 9), (4, 5, 7), (4, 7, 9),
    (5, 6, 7), (3, 8, 10), (5, 7, 8), (4, 6, 9), (5, 6, 9), (6, 7, 8),
)


def _semigroup_rep(v: int, p: int, q: int) -> tuple[int, int] | None:
    for a in range(v // p + 1):
        if (v - a * p) % q == 0:
            return a, (v - a * p) // q
    return None


def toric_binomials(n: tuple[int, int, int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Herzog's generators of the kernel of x_i -> T^(n_i): for each i the
    least c with c*n_i in the semigroup of the other two, as a pair of
    exponent vectors (x_i^c, x_j^r x_k^s) over (W, Y, Z)."""
    out = []
    for i in range(3):
        j, k = (x for x in range(3) if x != i)
        c = 1
        while (rep := _semigroup_rep(c * n[i], n[j], n[k])) is None:
            c += 1
        lhs = [0, 0, 0]
        rhs = [0, 0, 0]
        lhs[i] = c
        rhs[j], rhs[k] = rep
        pair = (tuple(lhs), tuple(rhs))
        if pair not in out and pair[::-1] not in out:
            out.append(pair)
    return out


def toric_cli_gfp(seed: int, limit: int | None = None) -> list[Instance]:
    """Five CLI requests per curve, with scaled images W -> u T^a, Y -> v T^b,
    Z -> w T^c (u, v, w chosen by the seed) and the kernel's generators
    given as Herzog's binomials, each times a seeded unit."""
    rng = random.Random(f"perfbench:toric_cli_gfp:{seed}")
    p = TORIC_P
    source = RingSpec.parse(TORIC_SOURCE)
    main = RingSpec.parse(TORIC_MAIN)
    target = RingSpec.parse(TORIC_TARGET)
    out = []
    curves = TORIC_CURVES if limit is None else TORIC_CURVES[:limit]
    for a, b, c in curves:
        scal = [rng.randrange(1, p) for _ in range(3)]  # images of W, Y, Z
        map_text = f"W={scal[0]}*T^{a},Y={scal[1]}*T^{b},Z={scal[2]}*T^{c}"
        gens = []
        for lhs, rhs in toric_binomials((a, b, c)):
            # lhs - kappa*rhs vanishes when kappa = coef(lhs) / coef(rhs)
            cl = cr = 1
            for s, el, er in zip(scal, lhs, rhs):
                cl = cl * pow(s, el, p) % p
                cr = cr * pow(s, er, p) % p
            kappa = cl * pow(cr, -1, p) % p
            unit = rng.randrange(1, p)
            # exponents over (W, Y, Z) -> text over (Y, Z, W)
            terms = {(lhs[1], lhs[2], lhs[0]): unit, (rhs[1], rhs[2], rhs[0]): -unit * kappa % p}
            gens.append(poly_text(terms, ("Y", "Z", "W")))
        gens_text = ", ".join(gens)
        images = {
            v: parse_poly(f"{s}*T^{e}", target) for v, s, e in zip("WYZ", scal, (a, b, c))
        }
        curve = _Curve(f"({a},{b},{c})", source, main, target, gens_text, images)
        fmt = ("--format", "json")
        requests = [
            ("kernel", ["kernel", "--source", TORIC_SOURCE, "--target", TORIC_TARGET, "--map", map_text, *fmt]),
            ("obstruct2", ["obstruct", "--ring", TORIC_SOURCE, "--gens", gens_text, "--power", "2", *fmt]),
            ("obstruct3", ["obstruct", "--ring", TORIC_SOURCE, "--gens", gens_text, "--power", "3", *fmt]),
            ("check", ["check-stable", "--ring", TORIC_MAIN, "--gens", gens_text, "--max-power", "3", *fmt]),
            ("saturate", ["saturate", "--ring", TORIC_SOURCE, "--gens", gens_text, "--by", "W", *fmt]),
        ]
        for kind, argv in requests:
            out.append(_cli_instance(f"curve{curve.label} {kind}", argv, getattr(curve, "check_" + kind)))
    rng.shuffle(out)
    return out


def _cli_instance(label: str, argv: list[str], check) -> Instance:
    def run():
        return cli.run_command(argv)

    def render(ans) -> str:
        code, doc = ans
        return f"{code}\n{doc.body}"

    def verify(text: str) -> str | None:
        code, _, body = text.partition("\n")
        try:
            doc = json.loads(body)
        except json.JSONDecodeError:
            return f"exit {code}, body is not JSON: {body[:80]!r}"
        if "error" in doc:
            return f"exit {code}: {doc['error']}"
        return check(int(code), doc)

    return Instance(label, run, render, verify)


@dataclass
class _Curve:
    """Independent checks for the answers about one curve's kernel P."""

    label: str
    source: RingSpec
    main: RingSpec
    target: RingSpec
    gens_text: str
    images: dict

    def ideal(self, ring: RingSpec, texts=None) -> Ideal:
        texts = self.gens_text.split(", ") if texts is None else texts
        return Ideal(ring, [parse_poly(t, ring) for t in texts])

    def check_kernel(self, code: int, doc: dict) -> str | None:
        kernel = [parse_poly(t, self.source) for t in doc["kernel"]]
        if code != 0 or not kernel:
            return f"exit {code}, kernel {doc['kernel']}"
        if any(not evaluate_map(g, self.images, self.target).is_zero() for g in kernel):
            return "a kernel generator does not vanish on the curve"
        if not Ideal(self.source, kernel).equals(self.ideal(self.source)):
            return "kernel differs from the ideal of Herzog's binomials"
        return None

    def _check_obstruct(self, t: int, code: int, doc: dict) -> str | None:
        if not doc["found"]:
            return None if code == 0 else f"exit {code} without an obstruction"
        cert = ObstructionCertificate(
            self.ideal(self.source),
            t,
            parse_poly(doc["witness"], self.source),
            parse_poly(doc["cofactor"], self.source),
        )
        if code != 1 or not cert.verify():
            return f"obstruction at t={t} fails verify() (exit {code})"
        return None

    def check_obstruct2(self, code: int, doc: dict) -> str | None:
        return self._check_obstruct(2, code, doc)

    def check_obstruct3(self, code: int, doc: dict) -> str | None:
        return self._check_obstruct(3, code, doc)

    def check_check(self, code: int, doc: dict) -> str | None:
        # the graded criterion at levels n < 3 is equivalent to stability up to 3
        crit = graded_criterion(self.ideal(self.main), 2)
        stable = doc["verdict"]["kind"] == "STABLE_UP_TO"
        if stable != crit.holds or code != (0 if stable else 1):
            return f"verdict {doc['verdict']} (exit {code}) but graded criterion holds={crit.holds}"
        if not stable and doc["verdict"]["t"] != crit.failure_n + 1:
            return f"fails at t={doc['verdict']['t']}, criterion at n={crit.failure_n}"
        for cdoc in doc["certificates"]:
            fresh = self.ideal(self.main)
            cert = MonicCertificate(
                fresh,
                parse_poly(cdoc["monic"], self.main),
                tuple(parse_poly(s, self.main) for s in cdoc["base_gens"]),
            )
            if cdoc["kind"] != "monic" or not cert.verify():
                return f"{cdoc['kind']} certificate fails verify()"
        return None

    def check_saturate(self, code: int, doc: dict) -> str | None:
        # P is prime and W is not in P, so P : W^inf = P
        if code != 0 or not self.ideal(self.source, doc["result"]).equals(self.ideal(self.source)):
            return f"saturation by W differs from P (exit {code})"
        return None


WORKLOADS: dict[str, Callable[[int, int | None], list[Instance]]] = {
    "monic_qq": monic_qq,
    "strong_zz": strong_zz,
    "toric_cli_gfp": toric_cli_gfp,
}
