"""Multivariate division and Groebner bases over fields and over ZZ.

Field mode runs Buchberger's algorithm with the normal selection strategy
(pairs chosen by minimal lcm under the active order, ties by input index)
and returns the unique reduced basis: monic, mutually irreducible, sorted
ascending by leading monomial.  Pairs are pruned by Buchberger's chain and
product criteria in the installation of Gebauer and Moeller ("On an
installation of Buchberger's algorithm", 1988): when an element joins, the
queued pairs it makes redundant are dropped, and its new pairs are formed
with the active elements only, one per minimal lcm, none with a coprime
leading monomial.

Over ZZ the engine computes a *strong* basis: Buchberger is extended with
G-polynomials built from an extended gcd of the leading coefficients, and
reduction divides coefficients with the least non-negative remainder
(5 reduced by 2 leaves 1).  A strong basis strong-reduces every ideal
element to zero, which is exactly what membership, elimination, and
contraction over ZZ rely on.  Leading coefficients are normalized positive;
content is never removed.  The same S-pair criteria apply to leading terms
c*x^a, where c*x^a divides d*x^b when c | d and x^a | x^b, and the product
criterion needs coprime coefficients as well as coprime monomials.  A
G-pair stands for the term gcd(c, d)*lcm(x^a, x^b); with the S-pairs
settled, the basis is strong once a leading term divides every such term.
So one G-pair is formed per minimal term, with the active elements only,
and it is skipped when popped if a leading term already divides its term
(Lichtblau, "Effective computation of strong Groebner bases over Euclidean
domains", 2012).

Every computation is budgeted (pair count, total degree), each call on its
own.  The pair count is the number of S- and G-pairs reduced; pairs a
criterion discards, also queued ones that go stale, are not counted.
Exceeding a budget raises BudgetExceededError rather than returning a
partial answer.  ``is_groebner`` applies no criterion, so it checks a basis
independently of how it was built.

Representation.  ``Polynomial`` is the public boundary; inside, the engine
works on term lists.  A monomial order and a ring are compiled, once per
field width (see below), into integer weights w, one per variable, so that
the key of a monomial e is the single int dot(w, e).  The order's key tuples
are linear in e, so w holds those tuples written in base 4*D + 1, and
comparing keys compares monomials exactly up to total degree 2*D.  D is the
largest bound the width holds, and a computation uses the width whose bound
covers its budget's ``max_degree`` (in ``divide``, ``normal_form`` and
``is_groebner`` also the degree of each divisor).  That covers every
polynomial the engine forms within the budget, and every pair lcm of two of
them; a term above the budget raises before its key is used.  An engine
polynomial is a plain list of terms (key, monomial, coefficient, degree)
sorted by descending key, so its leading term is the first and a shifted
term's key and degree are integer sums.  The compiled order is the engine's
whole context: it also records the ring, its modulus and whether it is QQ or
ZZ, and every engine function reads them off the compiled order it receives.
Buchberger forms every pair through the public ``s_polynomial``/
``g_polynomial`` on two term lists, with its compiled order in place of the
order, and gets a term list back.
Products are formed inside the engine too: ``_product`` multiplies two term
lists under one compiled order, and the ideal layer builds the generators of
a power I^t, and the products of the bases of its factors, with it.
``groebner_basis`` accepts such a start in place of Polynomials, a private
``_Start`` (compiled order, term lists); Polynomials are converted into
the same start, so one Buchberger body serves both.  A returned basis keeps
its final reducers and forms ``elements`` on their first read:
``normal_form`` against it, under every budget its width's bound covers,
reads the reducers alone, and elimination converts only the elements it
keeps.

A monomial inside the engine is packed into one int (Bachmann and
Schoenemann, "Monomial representations for Groebner bases computations",
1998): each variable owns a field of w bits whose top bit, the guard, is 0.
w is 8, 16, 32, 64, 128, ..., and its bound D is the largest with
2*D < 2**(w - 1): 63 for 8-bit fields, which covers the default budget of
60, and 16383 for 16-bit ones.  So every exponent of a pair lcm or a pair
term fits below its guard.  Then a shifted
monomial is an int sum, x^a divides x^b exactly when b - a has no guard bit
set (a borrow sets the guard of the first field where a exceeds b), and
b - a is the shift; lcm and coprimality are a few word operations on the
guards.  The packed monomial is also the low bits of its key, so one dot
product computes both.  Exponent tuples appear where polynomials enter and
leave the engine (``_engine_poly``, and ``_to_polynomial`` for quotients,
remainders, basis elements and power generators), and where the key of a
pair lcm is computed (``_pair`` and the pair queue); fields of up to 64 bits
are unpacked with ``struct``, wider ones by shifts.

Coefficients are plain ints: residues in [0, p) over GF(p), the integers
themselves over ZZ, and over QQ a primitive integer polynomial that stands
for its positive rational multiples.  Reduction over QQ is fraction-free
(pseudo-reduction): before a reducer with leading coefficient b cancels a
term with coefficient c, the polynomial is multiplied by b/gcd(b, c).  One
loop, ``_reduce``, serves all three domains; content is removed after each
normal form, and ``Fraction`` and ``FpElement`` values appear only where
polynomials enter and leave the engine.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from .coefficients import FpElement, PrimeField, RationalDomain, ext_gcd
from .errors import (
    AlgebraError,
    BudgetExceededError,
    NonExactDivisionError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .orders import Grevlex, MonomialOrder, key_function
from .polynomials import Polynomial, format_poly
from .rings import RingSpec


@dataclass(frozen=True, slots=True)
class Budget:
    """Caps on one Groebner computation: the S- and G-pairs it reduces and
    the total degree of every polynomial it forms.  Each ``groebner_basis``
    call checks them on its own, so an operation that computes several bases
    (a contraction, a stability check) may reduce many times ``max_pairs``
    pairs in total.  ``max_degree`` also caps the generators of ideal powers,
    before I^t is formed.  Over the cap the error reads "degree budget D
    exceeded (term of degree N)", or "... during reduction" for a term that
    a reduction step forms.  Both caps are non-negative; a cap of 0 is
    valid, and a negative one raises AlgebraError."""

    max_pairs: int = 100_000
    max_degree: int = 60

    def __post_init__(self):
        for name, cap in (("max_pairs", self.max_pairs), ("max_degree", self.max_degree)):
            if cap < 0:
                raise AlgebraError(f"budget {name} must be non-negative, got {cap}")


@dataclass(frozen=True)
class GroebnerBasis:
    ring: RingSpec
    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    reduced: bool
    strong: bool
    # the final reducers of a basis ``groebner_basis`` returns; None otherwise
    _final: _Reducers | None = field(default=None, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.elements)

    @classmethod
    def _of(cls, final: _Reducers) -> GroebnerBasis:
        """The reduced basis whose elements are the reducers ``final``, with
        the ring and order of their compiled order; it is strong over ZZ.
        ``elements`` is formed on its first read (see ``__getattr__``); until
        then the basis holds term lists."""
        cord = final.cord
        gb = object.__new__(cls)
        for name, value in (
            ("ring", cord.ring), ("order", cord.order), ("reduced", True), ("strong", cord.zz),
            ("_final", final),
        ):
            object.__setattr__(gb, name, value)
        return gb

    def __getattr__(self, name: str):
        # reached only while ``elements`` is unset: a basis made by ``_of``
        if name != "elements":
            raise AttributeError(name)
        elements = tuple(map(self._convert, self._final.polys))
        object.__setattr__(self, "elements", elements)
        return elements

    def _convert(self, f: list) -> Polynomial:
        # reduced elements are monic over fields: scale by the leading coefficient
        return _to_polynomial(self._final.cord, f, f[0][2])

    def _free_heads(self, names: Sequence[str]) -> list[Polynomial]:
        """The elements whose leading monomial involves none of ``names``,
        converted alone: one AND with a mask of the names' fields.  Under an
        order that eliminates ``names`` these are the elements free of them."""
        final = self._final
        cord = final.cord
        mask = sum(cord.field << cord.width * self.ring.index(v) for v in names)
        return [self._convert(f) for f in final.polys if not f[0][1] & mask]


# -- shared helpers -----------------------------------------------------------


def _check_same_ring(polys: Sequence[Polynomial]) -> RingSpec:
    ring = polys[0].ring
    for p in polys[1:]:
        if p.ring != ring:
            raise RingMismatchError(f"mixed rings {ring} and {p.ring}")
    return ring


def _check_degree(max_degree: int, degree: int) -> None:
    if degree > max_degree:
        raise BudgetExceededError(f"degree budget {max_degree} exceeded (term of degree {degree})")


def _minimal(pairs: list, cord: _Order, zz: bool) -> dict:
    """The minimal-pair filter of both pair updates: each term of the
    (index, term) pairs that no other term among them properly divides,
    mapped to the indices that carry it, in order.  A term is a packed
    monomial, or over ZZ a leading term (packed monomial, coefficient),
    coefficients positive; c*x^a divides d*x^b when c | d and x^a | x^b.

    A proper divisor of a term has a lower degree or, over ZZ, the same
    monomial and a smaller coefficient, and divisibility is transitive.  So
    in ascending (degree, term) order each term is tested only against the
    minimal terms of lower degree, and over ZZ those of its own monomial.
    """
    groups: dict = {}
    for i, t in pairs:
        groups.setdefault(t, []).append(i)
    if len(groups) < 2:
        return groups
    G, degree = cord.guard, cord.degree
    below: list = []  # the minimal terms of lower degree
    level: list = []  # the minimal terms of the current degree
    top = -1
    for d, t in sorted([(degree(t[0] if zz else t), t) for t in groups]):
        if d != top:
            below += level
            level = []
            top = d
        if zz:
            m, c = t
            if any(not c % v and not (m - u) & G for u, v in below) or any(
                u == m and not c % v for u, v in level
            ):
                continue
        elif any(not (t - u) & G for u in below):
            continue
        level.append(t)
    keep = {*below, *level}
    return {t: g for t, g in groups.items() if t in keep}


# -- the engine representation ---------------------------------------------------


class _Order:
    """A monomial order and a monomial packing, compiled for a field width w
    and the largest degree bound D it holds, ``bound``: the engine's whole
    context.  It records the ``order`` and ``ring`` it was compiled for and
    the ring's facts the engine branches on: ``p``, the modulus over GF(p)
    and 0 elsewhere, and ``qq`` and ``zz``, whether the domain is QQ or ZZ.

    Variable i owns bits [i*w, (i+1)*w) of a packed monomial, and the top
    bit of each field, its guard, is 0 (see the module docstring for w).
    For an exponent tuple e of total degree up to 2*D, ``key(e)`` is one int,
    a larger key is a larger monomial, and the low bits of the key, under
    ``mask``, are the packed monomial: each weight is the order's weight of
    its variable shifted above the packed fields, plus the variable's unit
    in its field, so one dot product yields both.  ``fields(m)`` is the
    exponent tuple of a packed monomial m.
    """

    __slots__ = (
        "order", "ring", "p", "qq", "zz",
        "bound", "weights", "mask", "width", "guard", "low", "ones", "top", "field", "fields",
    )

    def __init__(self, order: MonomialOrder, ring: RingSpec, w: int):
        self.order, self.ring = order, ring
        dom = ring.domain
        self.p = dom.p if isinstance(dom, PrimeField) else 0
        self.qq = isinstance(dom, RationalDomain)
        self.zz = ring.is_int_mode
        keyf = key_function(order, ring)
        n = len(ring.variables)
        self.bound = bound = (1 << (w - 2)) - 1  # the largest D with 2*D < 2**(w - 1)
        base = 4 * bound + 1
        weights = []
        for j in range(n):
            k = 0
            for c in keyf(tuple(int(i == j) for i in range(n))):
                k = k * base + c
            weights.append((k << (w * n)) + (1 << (w * j)))
        self.weights = tuple(weights)
        self.mask = (1 << (w * n)) - 1
        self.width = w
        self.ones = ones = sum(1 << (w * i) for i in range(n))
        self.guard = ones << (w - 1)
        self.low = self.guard - ones  # the bits below each guard
        self.top = w * (n - 1)
        self.field = field = (1 << w) - 1
        if w <= 64:
            # fields of 8, 16, 32 or 64 bits are struct's B, H, I and Q
            fmt = struct.Struct(f"<{n}{'BHIQ'[w.bit_length() - 4]}")
            unpack, nbytes = fmt.unpack, fmt.size
            self.fields = lambda m: unpack(m.to_bytes(nbytes, "little"))
        else:
            shifts = range(0, w * n, w)
            self.fields = lambda m: tuple([m >> s & field for s in shifts])

    def key(self, e) -> int:
        return sum(map(mul, self.weights, e))

    def degree(self, m: int) -> int:
        # the top field of m * ones sums every field; no field below it
        # carries, since a total degree up to 2*D fits in one field
        return m * self.ones >> self.top & self.field

    def divides(self, a: int, b: int) -> bool:
        return not (b - a) & self.guard

    def lcm(self, a: int, b: int) -> int:
        G = self.guard
        t = ((a | G) - b) & G  # the guard of each field where a >= b
        t -= t >> (self.width - 1)  # ... spread over the bits below it
        return b ^ ((a ^ b) & t)

    def coprime(self, a: int, b: int) -> bool:
        # adding ``low`` sets the guard of each nonzero field
        return not (a + self.low) & (b + self.low) & self.guard


def _compiled(order: MonomialOrder, ring: RingSpec, bound: int) -> _Order:
    """The order compiled for the least field width whose bound covers
    ``bound``: one ``_Order`` serves every budget of a width."""
    w = 8
    while bound >= 1 << (w - 2):
        w *= 2
    return _compiled_width(order, ring, w)


@lru_cache(maxsize=64)
def _compiled_width(order: MonomialOrder, ring: RingSpec, w: int) -> _Order:
    return _Order(order, ring, w)


def _engine_poly(f: Polynomial, cord: _Order) -> tuple[list, object]:
    """f as an engine term list, and the scalar s with engine form = s*f.

    Over QQ the engine form is the primitive integer multiple of f with a
    positive leading coefficient; elsewhere it is f itself and s is 1.  A
    term above the compiled bound has a meaningless key and monomial, which
    ``_reduce`` rejects on entry, by its degree, before reading them.
    """
    den = 1
    if cord.p:
        raw = [(e, c.residue) for e, c in f._terms.items()]
    elif cord.qq:
        den = math.lcm(*(c.denominator for c in f._terms.values()))
        raw = [(e, c.numerator * (den // c.denominator)) for e, c in f._terms.items()]
    else:
        raw = f._terms.items()
    weights, mask = cord.weights, cord.mask
    terms = [(k := sum(map(mul, weights, e)), k & mask, c, sum(e)) for e, c in raw]
    terms.sort(reverse=True)
    if not cord.qq or not terms:
        return terms, 1
    prim = _normalized(terms, cord)
    return prim, Fraction(den * prim[0][2], terms[0][2])


def _to_polynomial(cord: _Order, terms: list, scale=1) -> Polynomial:
    """The Polynomial of ``cord.ring`` with coefficients c / scale for the
    engine terms (key, monomial, coefficient, degree) given; scale is 1
    except over QQ."""
    ring, fields, p = cord.ring, cord.fields, cord.p
    if p:
        return Polynomial._make(ring, {fields(m): FpElement(c, p) for _, m, c, _ in terms})
    if cord.qq:
        num, den = scale.denominator, scale.numerator
        return Polynomial._make(ring, {fields(m): Fraction(c * num, den) for _, m, c, _ in terms})
    return Polynomial._make(ring, {fields(m): c for _, m, c, _ in terms})


def _normalized(terms: list, cord: _Order) -> list:
    """Monic over GF(p); primitive with a positive leading coefficient over
    QQ; a positive leading coefficient over ZZ (content kept)."""
    lc = terms[0][2]
    p = cord.p
    if p:
        if lc == 1:
            return terms
        inv = pow(lc, -1, p)
        return [(k, e, c * inv % p, d) for k, e, c, d in terms]
    if cord.qq:
        g = math.gcd(*(t[2] for t in terms))
        if lc < 0:
            g = -g
    else:
        g = -1 if lc < 0 else 1
    if g == 1:
        return terms
    return [(k, e, c // g, d) for k, e, c, d in terms]


class _Reducers:
    """A reducer set that only grows.  Head data (key, coefficient, degree)
    are read off each element's head term, ``polys[i][0]``; only the leading
    monomials, which the divisor scan reads for every candidate, and over
    GF(p) the inverses of the leading coefficients are kept beside them.

    ``first`` memoizes, per monomial key, the first reducer whose leading
    monomial divides it (an index >= 0), or ~n when none of the first n
    reducers does; since reducers are only appended, a later lookup scans
    only the new ones.  Only field-mode reduction uses it.
    """

    __slots__ = ("cord", "polys", "lms", "invs", "first")

    def __init__(self, cord: _Order):
        self.cord = cord
        self.polys: list[list] = []
        self.lms: list[int] = []
        self.invs: list[int] = []
        self.first: dict[int, int] = {}

    def append(self, f: list) -> None:
        _, e, c, _ = f[0]
        self.polys.append(f)
        self.lms.append(e)
        if self.cord.p:
            self.invs.append(pow(c, -1, self.cord.p))


def _reduce(
    terms: list, red: _Reducers, max_degree: int, quotients: list[list] | None = None
) -> tuple[list, int]:
    """Full normal form of a term list against ``red``: the one reduction loop.

    Monomials are visited in descending order through a max-heap of keys, so
    each one is finalized exactly once.  Over a field a reducible term is
    cancelled completely by the first reducer whose leading monomial divides
    it; over ZZ coefficients are divided with least non-negative remainder
    and irreducible residues stay.  Over QQ the reduction is fraction-free:
    the whole polynomial is first multiplied by m = b/gcd(b, c), where b is
    the reducer's leading coefficient and c the term's.

    Returns (remainder, M), M the product of those multipliers (1 except over
    QQ), such that M*f = sum(q_i*g_i) + remainder.  ``quotients``, when
    given, receives q_i per reducer as a list of (key, shift, coefficient,
    degree, M at that step); the coefficient of q_i at x^shift is
    coefficient * (M // M at step).  No reducer acts twice on one monomial (a
    field step cancels the term; over ZZ a reducer that acted leaves a
    residue it cannot divide), so the shifts in one list are distinct and
    every coefficient is nonzero.  The engine checks the degree budget here
    only: on entry, and on each term a reduction step forms ("during
    reduction").
    """
    _check_degree(max_degree, max((t[3] for t in terms), default=-1))
    cord = red.cord
    p, qq, int_mode = cord.p, cord.qq, cord.zz
    polys, lms, invs = red.polys, red.lms, red.invs
    first = red.first
    G = cord.guard
    nred = len(lms)
    heappush, heappop = heapq.heappush, heapq.heappop
    work = {t[0]: t[2] for t in terms}
    mono = {t[0]: (t[1], t[3]) for t in terms}
    heap = [-t[0] for t in terms]  # terms descend, so this list is a heap
    rem: list = []
    rem_at: list[int] = []
    M = 1
    while heap:
        k = -heappop(heap)
        c = work.get(k)
        if c is None:
            continue
        e, d = mono[k]
        while True:
            if int_mode:
                for gi in range(nred):
                    if not (e - lms[gi]) & G:
                        b = polys[gi][0][2]
                        q = (c - c % abs(b)) // b
                        if q:
                            break
                else:
                    break
            else:
                gi = first.get(k, -1)
                if gi < 0:
                    for gi in range(~gi, nred):
                        if not (e - lms[gi]) & G:
                            break
                    else:
                        gi = ~nred
                    first[k] = gi
                    if gi < 0:
                        break
            k0, lm, b, d0 = polys[gi][0]
            if p:
                q = c * invs[gi] % p
            elif qq:
                g0 = math.gcd(c, b)
                m = b // g0
                q = c // g0
                if m != 1:
                    for kk in work:
                        work[kk] *= m
                    M *= m
            # work -= q * x^(e - lm) * g
            ks = k - k0
            ds = d - d0
            shift = e - lm
            if quotients is not None:
                quotients[gi].append((ks, shift, q, ds, M))
            for kg, eg, cg, dg in polys[gi]:
                km = ks + kg
                s = work.get(km)
                if s is None:
                    if ds + dg > max_degree:
                        raise BudgetExceededError(
                            f"degree budget {max_degree} exceeded during reduction"
                        )
                    work[km] = -q * cg % p if p else -q * cg
                    if km not in mono:
                        mono[km] = (shift + eg, ds + dg)
                    heappush(heap, -km)
                else:
                    s -= q * cg
                    if p:
                        s %= p
                    if s:
                        work[km] = s
                    else:
                        del work[km]
            c = work.get(k)
            if c is None:
                break
        if c is not None:
            del work[k]
            rem.append((k, e, c, d))
            if qq:
                rem_at.append(M)
    if M != 1:
        rem = [(k, e, c * (M // at), d) for (k, e, c, d), at in zip(rem, rem_at)]
    return rem, M


def _divisors(
    polys: Sequence[Polynomial], order: MonomialOrder, budget: Budget
) -> tuple[_Reducers, list]:
    """The divisors of a division as engine reducers, and the scalar of each
    engine form.  The order is compiled for the width whose bound covers the
    budget's degree bound and the degree of each divisor."""
    for g in polys:
        if g.is_zero():
            raise ZeroPolynomialError("zero divisor in division basis")
    ring = polys[0].ring
    bound = max(budget.max_degree, *(g.total_degree() for g in polys))
    red = _Reducers(_compiled(order, ring, bound))
    scales = []
    for g in polys:
        h, s = _engine_poly(g, red.cord)
        red.append(h)
        scales.append(s)
    return red, scales


def divide(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> tuple[list[Polynomial], Polynomial]:
    """Divide f by the list, returning (quotients, remainder).

    The transcript is exact: f == sum(q_i * g_i) + remainder, and no
    remainder term is reducible by any divisor's leading term.
    """
    polys = list(basis)
    if not polys:
        return [], f
    _check_same_ring([f, *polys])
    budget = budget or Budget()
    red, scales = _divisors(polys, order or Grevlex(), budget)
    cord = red.cord
    h, mu = _engine_poly(f, cord)
    quotients: list[list] = [[] for _ in polys]
    rem, M = _reduce(h, red, budget.max_degree, quotients)
    # M*mu*f = sum(Q_i * lam_i*g_i) + rem, so q_i = Q_i * lam_i / (M*mu)
    qs = [
        _to_polynomial(
            cord,
            [(k, shift, q * (M // at), d) for k, shift, q, d, at in steps],
            M * mu / lam if cord.qq else 1,
        )
        for steps, lam in zip(quotients, scales)
    ]
    return qs, _to_polynomial(cord, rem, M * mu)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Return q with f = q*g, or raise NonExactDivisionError.

    One ``divide`` under grevlex with the degree budget deg f.  Grevlex is
    degree-compatible, so every term the division forms has degree at most
    deg f and the budget cannot fire; the division is exact precisely when
    the remainder is zero.  Over ZZ a leading coefficient that does not
    divide leaves a remainder, so the coefficients must divide too.
    """
    f._peer(g)
    if g.is_zero():
        raise ZeroPolynomialError("division by the zero polynomial")
    if f.is_zero():
        return f
    (q,), rem = divide(f, [g], budget=Budget(max_degree=f.total_degree()))
    if not rem.is_zero():
        raise NonExactDivisionError(f"{format_poly(f)} is not divisible by {format_poly(g)}")
    return q


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial] | GroebnerBasis,
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> Polynomial:
    """The remainder of ``divide``.  A basis ``groebner_basis`` returned is
    read through its final reducers alone, under its own order and every
    degree budget the bound of their compiled order covers; any other
    divisors are built into reducers for this one call."""
    budget = budget or Budget()
    red = None
    if isinstance(basis, GroebnerBasis):
        order = order or basis.order
        final = basis._final
        if final is not None and order == basis.order and final.cord.bound >= budget.max_degree:
            red = final
    if red is not None:
        if f.ring != basis.ring:
            raise RingMismatchError(f"mixed rings {f.ring} and {basis.ring}")
    else:
        polys = list(basis)
        if not polys:
            return f
        _check_same_ring([f, *polys])
        red, _ = _divisors(polys, order or Grevlex(), budget)
    h, mu = _engine_poly(f, red.cord)
    rem, M = _reduce(h, red, budget.max_degree)
    return _to_polynomial(red.cord, rem, M * mu)


# -- S and G polynomials ---------------------------------------------------------


def _pair(f: list, g: list, cord: _Order, gpoly: bool) -> list:
    """S- or G-polynomial of two engine polynomials under the compiled order
    ``cord``.  Over a field it is the S-polynomial up to a nonzero scalar;
    over ZZ it is exact."""
    lf, lg = f[0], g[0]
    a, b = lf[2], lg[2]
    m = cord.lcm(lf[1], lg[1])
    km, dm = cord.key(cord.fields(m)), cord.degree(m)
    if gpoly:
        _, u, v = ext_gcd(a, b)
        skip = 0
    else:
        c = math.lcm(a, b)
        u, v = c // a, -(c // b)
        skip = 1  # the leading terms of an S-polynomial cancel
    # keyed by exponents, so that a term above the key range (which the
    # degree budget then rejects) still combines exactly
    acc: dict = {}
    for (k0, lm, _, d0), terms, w in ((lf, f, u), (lg, g, v)):
        shift = m - lm
        ks, ds = km - k0, dm - d0
        for k, e, c, d in terms[skip:]:
            em = e + shift
            t = acc.get(em)
            if t is None:
                acc[em] = [ks + k, w * c, ds + d]
            else:
                t[1] += w * c
    return _collected(acc, cord.p)


def _product(f: list, g: list, cord: _Order) -> list:
    """f*g of two term lists under the compiled order ``cord``: keys and
    packed monomials add, and terms accumulate by packed monomial, as in
    ``_pair``.  Exact for every product term of degree up to twice the
    compiled bound.  Over QQ the product of two primitive lists is primitive
    (Gauss's lemma), and over GF(p) monic times monic is monic."""
    acc: dict = {}
    for k, e, c, d in f:
        for kg, eg, cg, dg in g:
            m = e + eg
            t = acc.get(m)
            if t is None:
                acc[m] = [k + kg, c * cg, d + dg]
            else:
                t[1] += c * cg
    return _collected(acc, cord.p)


def _collected(acc: dict, p: int) -> list:
    """The term list of {packed monomial: [key, coefficient, degree]}, zero
    coefficients dropped, sorted by descending key."""
    if p:
        out = [(k, e, c % p, d) for e, (k, c, d) in acc.items() if c % p]
    else:
        out = [(k, e, c, d) for e, (k, c, d) in acc.items() if c]
    out.sort(reverse=True)
    return out


def _exact_pair(f: Polynomial, g: Polynomial, order: MonomialOrder | None, gpoly: bool) -> Polynomial:
    """``_pair`` on Polynomials, exact.  An S-polynomial over a field does
    not change when f or g is scaled, so over GF(p) the engine forms are made
    monic; over QQ, where they are primitive with leading coefficients a and
    b, ``_pair`` returns lcm(a, b) times the S-polynomial."""
    cord = _compiled(order or Grevlex(), f.ring, max(f.total_degree(), g.total_degree()))
    fe, ge = (_engine_poly(h, cord)[0] for h in (f, g))
    scale = 1
    if cord.qq:
        scale = math.lcm(fe[0][2], ge[0][2])
    elif cord.p:
        fe, ge = _normalized(fe, cord), _normalized(ge, cord)
    return _to_polynomial(cord, _pair(fe, ge, cord, gpoly), scale)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The S-polynomial; over ZZ leading coefficients are matched by their lcm.

    The Buchberger loop forms its pairs through this function on its own
    engine polynomials (term lists), with a compiled order in place of the
    order, and gets a term list back (see ``_pair``).
    """
    if isinstance(f, list):
        return _pair(f, g, order, False)
    _check_same_ring([f, g])
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    return _exact_pair(f, g, order, False)


def g_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The G-polynomial (ZZ only): its leading coefficient is gcd(lc f, lc g).
    On term lists, with a compiled order in place of the order, it returns a
    term list, like ``s_polynomial``."""
    if isinstance(f, list):
        return _pair(f, g, order, True)
    ring = _check_same_ring([f, g])
    if not ring.is_int_mode:
        raise AlgebraError("G-polynomials only exist over ZZ")
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("G-polynomial of a zero polynomial")
    return _exact_pair(f, g, order, True)


# -- Buchberger ----------------------------------------------------------------------


class _Start(NamedTuple):
    """A start of ``groebner_basis`` already inside the engine: nonzero term
    lists under ``cord``, an order compiled for a width whose bound covers
    the budget's degree bound.  A term above the budget raises on entry to
    ``_reduce``, as it would from a Polynomial."""

    cord: _Order
    terms: list


def groebner_basis(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis (strong over ZZ) of the ideal the gens generate.

    Deterministic: fixed input order implies identical output, and over a
    field any generating set of the same ideal yields the identical reduced
    basis.  ``gens`` may also be a private ``_Start``, whose compiled order
    stands for ``order``; the Polynomials are converted into the same start,
    so both run one Buchberger body.
    """
    order = order or Grevlex()
    budget = budget or Budget()
    if isinstance(gens, _Start):
        cord, start = gens
    else:
        # A repeated generator reduces to zero against its first copy, so it
        # adds no element and no pair.
        polys = [g for g in gens if not g.is_zero()]
        if not polys:
            raise AlgebraError("cannot compute a basis for an empty or all-zero generating set")
        cord = _compiled(order, _check_same_ring(polys), budget.max_degree)
        start = [_engine_poly(g, cord)[0] for g in polys]
    int_mode = cord.zz
    key, fields = cord.key, cord.fields

    red = _Reducers(cord)
    heap: list = []
    # The live S-pairs, (i, j) -> lcm of their leading terms, and the active
    # elements, those whose leading term no later one divides; at the end
    # they are the minimal basis.  A heap entry whose S-pair left ``live`` is
    # stale.  Over a field the leading term is the leading monomial (elements
    # are normalized); over ZZ it is the pair (monomial, coefficient), kept
    # in ``lts``.
    live: dict[tuple[int, int], object] = {}
    active: list[int] = []
    G, lcm, coprime = cord.guard, cord.lcm, cord.coprime
    if int_mode:
        # coefficients are positive; c*x^a divides d*x^b when c | d and x^a | x^b
        lts: list = []

        def t_lcm(s, t):
            return lcm(s[0], t[0]), math.lcm(s[1], t[1])

        def t_divides(s, t):
            return not t[1] % s[1] and not (t[0] - s[0]) & G

        def t_coprime(s, t):
            return math.gcd(s[1], t[1]) == 1 and coprime(s[0], t[0])

        def t_key(t):
            return key(fields(t[0]))

        def g_term(s, t):
            # the leading term of the G-polynomial of elements with leading terms s, t
            return lcm(s[0], t[0]), math.gcd(s[1], t[1])

    else:
        lts = red.lms
        t_lcm, t_divides, t_coprime = lcm, cord.divides, coprime

        def t_key(m):
            return key(fields(m))

    def push_pairs(j: int) -> None:
        tj = lts[j]
        # (B) an old pair (a, b) whose lcm tj divides is redundant, because
        # (a, j) and (b, j) cover it, unless one of their lcms equals it
        for (a, b), m in list(live.items()):
            if t_divides(tj, m) and t_lcm(lts[a], tj) != m and t_lcm(lts[b], tj) != m:
                del live[(a, b)]
        # (M) and (F): one new pair per minimal lcm; the product criterion
        # then drops every group that has a coprime member
        for m, group in _minimal([(i, t_lcm(lts[i], tj)) for i in active], cord, int_mode).items():
            if not any(t_coprime(lts[i], tj) for i in group):
                live[(group[0], j)] = m
                heapq.heappush(heap, (t_key(m), group[0], j, 0))
        if int_mode:
            # the G-pair (i, j) stands for the term gcd(c_i, c_j)*lcm(x^a_i,
            # x^a_j), which some leading term must divide: one pair per
            # minimal term, with active elements only; a pair whose term a
            # leading term divides is skipped when popped
            gnew = [(i, g_term(lts[i], tj)) for i in active]
            for t, group in _minimal(gnew, cord, True).items():
                heapq.heappush(heap, (t_key(t), group[0], j, 1))
        active[:] = [i for i in active if not t_divides(tj, lts[i])]
        active.append(j)

    def add(terms: list) -> None:
        # every term was checked against the degree budget already
        red.append(_normalized(terms, cord))
        if int_mode:
            lts.append(red.polys[-1][0][1:3])  # (monomial, coefficient)
        push_pairs(len(red.polys) - 1)

    for g in start:
        r, _ = _reduce(g, red, budget.max_degree)
        if r:
            add(r)

    pops = 0
    while heap:
        _, i, j, kind = heapq.heappop(heap)
        if kind:
            m, c = g_term(lts[i], lts[j])
            if any(not c % lts[k][1] and not (m - lts[k][0]) & G for k in active):
                continue
        elif live.pop((i, j), None) is None:
            continue
        pops += 1
        if pops > budget.max_pairs:
            raise BudgetExceededError(f"pair budget {budget.max_pairs} exhausted")
        f, g = red.polys[i], red.polys[j]
        p = g_polynomial(f, g, cord) if kind else s_polynomial(f, g, cord)
        r, _ = _reduce(p, red, budget.max_degree)
        if r:
            add(r)

    # The active elements are the minimal basis.  Each new element is fully
    # reduced against the earlier ones, so no earlier leading term divides
    # its own (over ZZ, strongly: a remainder coefficient is below every
    # earlier one whose monomial divides), and ``push_pairs`` retires each
    # element whose leading term a later one divides.  Active leading
    # monomials are distinct (over ZZ because the G-pairs are settled), so
    # their keys are too, and sorting by head terms compares keys alone.
    minimal = sorted(red.polys[i] for i in active)
    return GroebnerBasis._of(_tail_reduce(minimal, cord, budget))


def _tail_reduce(basis: list[list], cord: _Order, budget: Budget) -> _Reducers:
    """Reduce every term below each leading term against the other elements.

    ``basis`` is minimal and sorted ascending by leading monomial, and only
    a smaller leading monomial can divide a tail term, so one
    ascending pass against the already reduced prefix is final.  Heads are
    kept (over QQ scaled with the tail), so the leading terms, and the basis
    property, are preserved.  Returns the reduced elements as reducers.
    """
    red = _Reducers(cord)
    for f in basis:
        k, e, c, d = f[0]
        tail, M = _reduce(f[1:], red, budget.max_degree)
        red.append(_normalized([(k, e, c * M, d), *tail], cord))
    return red


def is_groebner(gb: GroebnerBasis, budget: Budget | None = None) -> bool:
    """Check the basis property directly: every S (and over ZZ, G) polynomial
    must reduce to zero against the basis.  No pair criteria are applied, so
    this is an independent verification, not a replay of the construction."""
    budget = budget or Budget()
    polys = list(gb.elements)
    if not polys:
        return False
    _check_same_ring(polys)
    if any(g.is_zero() for g in polys):
        return False
    red, _ = _divisors(polys, gb.order, budget)
    cord, elems = red.cord, red.polys
    for j in range(len(elems)):
        for i in range(j):
            if _reduce(s_polynomial(elems[i], elems[j], cord), red, budget.max_degree)[0]:
                return False
            if cord.zz and _reduce(
                g_polynomial(elems[i], elems[j], cord), red, budget.max_degree
            )[0]:
                return False
    return True
