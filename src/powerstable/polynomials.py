"""Sparse multivariate polynomials with exact coefficients.

A polynomial is an immutable map from exponent tuples (aligned with the
ring's variable tuple) to nonzero coefficients.  Two polynomials over the
same ring are equal exactly when their term maps are equal, so the
representation is canonical no matter what order the terms were produced in.

Text grammar accepted by ``parse_poly`` (whitespace insignificant)::

    poly    := ['-'] term (('+' | '-') ['-'] term)*
    term    := coeff ('*'? varpow)*  |  varpow ('*' varpow)*
    coeff   := NAT ['/' NAT]
    varpow  := NAME ['^' NAT]
    NAT     := digit+
    NAME    := letter (letter | digit)*

Implicit multiplication is allowed only between a numeric literal and a
variable ("2X"); variables must be joined with '*' ("X*Y").  Fractional
coefficients exist only over a field; "1/2" over ZZ is a coefficient-domain
error, distinct from a syntax error.  Names starting with '_' are reserved
for internal tag variables and rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .coefficients import Coefficient, FpElement
from .errors import (
    AlgebraError,
    CoefficientError,
    ParseError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .orders import Grevlex, MonomialOrder, key_function
from .rings import RingSpec

Exponents = tuple[int, ...]


def _coefficient(ring: RingSpec, c) -> Coefficient:
    """c as a coefficient of the ring's domain.  An int converts; a Fraction
    is read as the literal numerator/denominator, so ZZ rejects 1/2 and
    GF(p) maps it, as the parser does; a GF(p) element belongs to GF(p)
    alone.  Anything else raises CoefficientError."""
    dom = ring.domain
    if isinstance(c, int):
        return dom.from_int(c)
    if isinstance(c, Fraction):
        return dom.literal(c.numerator, c.denominator)
    if isinstance(c, FpElement) and c.modulus == getattr(dom, "p", None):
        return c
    raise CoefficientError(f"{c!r} is not a coefficient of {ring}")


class Polynomial:
    __slots__ = ("ring", "_terms")

    def __init__(self, ring: RingSpec, terms: Mapping[Exponents, Coefficient] | None = None):
        clean: dict[Exponents, Coefficient] = {}
        n = len(ring.variables)
        for e, c in (terms or {}).items():
            if len(e) != n or any(not isinstance(k, int) or k < 0 for k in e):
                raise AlgebraError(f"bad exponent tuple {e} for ring {ring}")
            c = _coefficient(ring, c)
            if c:
                clean[tuple(e)] = c
        self.ring = ring
        self._terms = clean

    @classmethod
    def _make(cls, ring: RingSpec, clean: dict[Exponents, Coefficient]) -> "Polynomial":
        p = object.__new__(cls)
        p.ring = ring
        p._terms = clean
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls._make(ring, {})

    @classmethod
    def constant(cls, ring: RingSpec, value) -> "Polynomial":
        c = _coefficient(ring, value)
        if not c:
            return cls.zero(ring)
        return cls._make(ring, {(0,) * len(ring.variables): c})

    @classmethod
    def one(cls, ring: RingSpec) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring: RingSpec, name: str) -> "Polynomial":
        i = ring.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(ring.variables)))
        return cls._make(ring, {e: ring.domain.one})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterable[tuple[Exponents, Coefficient]]:
        return self._terms.items()

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def degree_in(self, var: str) -> int:
        i = self.ring.index(var)
        return max((e[i] for e in self._terms), default=-1)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    def constant_value(self) -> Coefficient:
        """The coefficient of the constant term (zero if absent)."""
        zero_e = (0,) * len(self.ring.variables)
        return self._terms.get(zero_e, self.ring.domain.zero)

    def uses_var(self, var: str) -> bool:
        i = self.ring.index(var)
        return any(e[i] for e in self._terms)

    def free_of(self, names: Iterable[str]) -> bool:
        idx = [self.ring.index(v) for v in names]
        return not any(e[i] for e in self._terms for i in idx)

    def coefficient_of(self, var: str, power: int) -> "Polynomial":
        """Coefficient of var**power, as a polynomial with that variable cleared."""
        i = self.ring.index(var)
        out: dict[Exponents, Coefficient] = {}
        for e, c in self._terms.items():
            if e[i] == power:
                stripped = e[:i] + (0,) + e[i + 1 :]
                out[stripped] = c
        return Polynomial._make(self.ring, out)

    def leading_term(self, order: MonomialOrder | None = None) -> tuple[Exponents, Coefficient]:
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        keyf = key_function(order or Grevlex(), self.ring)
        e = max(self._terms, key=keyf)
        return e, self._terms[e]

    # -- arithmetic ----------------------------------------------------------

    def _peer(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise RingMismatchError(f"expected a polynomial, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._peer(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._make(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._peer(other)
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.ring, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._peer(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        p = getattr(self.ring.domain, "p", None)
        if p:
            # multiply and add plain residues; reduce each sum and wrap it once
            sums: dict[Exponents, int] = {}
            for ea, ca in a.items():
                ra = ca.residue
                for eb, cb in b.items():
                    e = tuple(map(add, ea, eb))
                    s = sums.get(e)
                    sums[e] = ra * cb.residue if s is None else s + ra * cb.residue
            return Polynomial._make(
                self.ring, {e: FpElement(r, p) for e, s in sums.items() if (r := s % p)}
            )
        out: dict[Exponents, Coefficient] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                c = ca * cb
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    s = s + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return Polynomial._make(self.ring, out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"<{format_poly(self)} over {self.ring}>"


# -- substitution --------------------------------------------------------------


def evaluate_map(
    f: Polynomial, images: Mapping[str, Polynomial], target: RingSpec
) -> Polynomial:
    """Apply the ring map sending each variable to its image polynomial.

    Every variable actually appearing in f must have an image in ``target``;
    coefficient domains must agree.  The result is the image of f, and the
    operation is a ring homomorphism.
    """
    if f.ring.domain != target.domain:
        raise RingMismatchError(
            f"cannot map coefficients from {f.ring.domain.name} into {target.domain.name}"
        )
    for v, img in images.items():
        if img.ring != target:
            raise RingMismatchError(f"image of {v} lives in {img.ring}, expected {target}")
    out = Polynomial.zero(target)
    for e, c in f._terms.items():
        term = Polynomial.constant(target, c)
        for v, k in zip(f.ring.variables, e):
            if k:
                if v not in images:
                    raise AlgebraError(f"no image given for variable {v!r}")
                term = term * images[v] ** k
        out = out + term
    return out


def transport(f: Polynomial, target: RingSpec) -> Polynomial:
    """Re-express f in ``target``, matching variables by name.

    Every variable f actually uses must exist in the target ring; the
    coefficient domain must be identical.
    """
    if f.ring == target:
        return f
    if f.ring.domain != target.domain:
        raise RingMismatchError(
            f"cannot transport coefficients from {f.ring.domain.name} to {target.domain.name}"
        )
    n = len(target.variables)
    pos: list[tuple[int, int]] = []
    for i, v in enumerate(f.ring.variables):
        if v in target.variables:
            pos.append((i, target.index(v)))
        else:
            pos.append((i, -1))
    out: dict[Exponents, Coefficient] = {}
    for e, c in f._terms.items():
        new = [0] * n
        for i, j in pos:
            if e[i]:
                if j < 0:
                    raise AlgebraError(
                        f"variable {f.ring.variables[i]!r} does not exist in ring {target}"
                    )
                new[j] = e[i]
        out[tuple(new)] = c
    return Polynomial._make(target, out)


# -- parsing --------------------------------------------------------------------


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            ch = text[i]
            if ch == "_":
                raise ParseError("variable names may not start with '_'", text, i)
            raise ParseError(f"unexpected character {ch!r}", text, i)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), i))
        i = m.end()
    return toks


class _Parser:
    def __init__(self, text: str, ring: RingSpec):
        self.text = text
        self.ring = ring
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> tuple[str, str, int]:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input", self.text, len(self.text))
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self) -> Polynomial:
        if not self.toks:
            raise ParseError("empty polynomial", self.text, 0)
        acc: dict[Exponents, Coefficient] = {}
        sign = 1
        while True:
            # one optional '-' opens the polynomial or follows '+' or '-'
            tok = self.peek()
            if tok and tok[1] == "-":
                self.take()
                sign = -sign
            self._term(acc, sign)
            tok = self.peek()
            if tok is None:
                break
            if tok[0] != "op" or tok[1] not in "+-":
                raise ParseError(f"expected '+' or '-', found {tok[1]!r}", self.text, tok[2])
            self.take()
            sign = -1 if tok[1] == "-" else 1
        clean = {e: c for e, c in acc.items() if c}
        return Polynomial._make(self.ring, clean)

    def _term(self, acc: dict, sign: int) -> None:
        dom = self.ring.domain
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        exps = [0] * len(self.ring.variables)
        if tok[0] == "nat":
            self.take()
            num = int(tok[1])
            den = None
            nxt = self.peek()
            if nxt and nxt[1] == "/":
                self.take()
                dtok = self.take()
                if dtok[0] != "nat":
                    raise ParseError("expected a denominator", self.text, dtok[2])
                den = int(dtok[1])
            coeff = dom.literal(num, den)
        elif tok[0] == "name":
            coeff = dom.one
            self._varpow(exps)
        else:
            raise ParseError(f"unexpected {tok[1]!r}", self.text, tok[2])
        while True:
            nxt = self.peek()
            if nxt and nxt[1] == "*":
                self.take()
            elif nxt and nxt[0] == "name":
                # implicit multiplication only after a numeric literal
                if tok[0] != "nat":
                    raise ParseError("missing '*' between variables", self.text, nxt[2])
            else:
                break
            self._varpow(exps)
        if sign < 0:
            coeff = -coeff
        if not coeff:
            return
        e = tuple(exps)
        s = acc.get(e)
        if s is None:
            acc[e] = coeff
        else:
            acc[e] = s + coeff

    def _varpow(self, exps: list[int]) -> None:
        tok = self.take()
        if tok[0] != "name":
            raise ParseError(f"expected a variable, found {tok[1]!r}", self.text, tok[2])
        name = tok[1]
        if name not in self.ring.variables or name in self.ring.aux_vars:
            raise ParseError(f"unknown variable {name!r} in ring {self.ring}", self.text, tok[2])
        k = 1
        nxt = self.peek()
        if nxt and nxt[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "nat":
                raise ParseError("expected a non-negative integer exponent", self.text, etok[2])
            k = int(etok[1])
        exps[self.ring.index(name)] += k


def parse_poly(text: str, ring: RingSpec) -> Polynomial:
    return _Parser(text, ring).parse()


# -- formatting --------------------------------------------------------------------


def format_poly(f: Polynomial) -> str:
    """Deterministic canonical text; round-trips through parse_poly."""
    if not f._terms:
        return "0"
    ring = f.ring
    dom = ring.domain
    keyf = key_function(Grevlex(), ring)
    items = sorted(f._terms.items(), key=lambda t: keyf(t[0]), reverse=True)
    parts: list[str] = []
    for e, c in items:
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(ring.variables, e) if k
        )
        neg = dom.is_negative(c)
        mag = -c if neg else c
        if not mono:
            body = str(mag)
        elif mag == dom.one:
            body = mono
        else:
            body = f"{mag!s}*{mono}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)
