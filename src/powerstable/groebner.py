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
works on term lists.  A monomial order, a ring and a degree bound D are
compiled once into integer weights w, one per variable, so that the key of
a monomial e is the single int dot(w, e).  The order's key tuples are linear
in e, so w holds those tuples written in base 4*D + 1, and comparing keys
compares monomials exactly up to total degree 2*D.  That covers every
polynomial the engine forms within a degree budget of D, and every pair lcm
of two of them.  D is the budget's ``max_degree`` (in ``divide``,
``normal_form`` and ``is_groebner`` at least the degree of each divisor);
a term above the budget raises before its key is used.  An engine
polynomial is a list of terms (key, exponents, coefficient, degree) sorted
by descending key, so its leading term is the first and a shifted term's
key and degree are integer sums.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, le, mul, sub
from typing import Sequence

from .coefficients import FpElement, PrimeField, RationalDomain, ext_gcd
from .errors import (
    AlgebraError,
    BudgetExceededError,
    NonExactDivisionError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .orders import Grevlex, MonomialOrder, key_function
from .polynomials import Exponents, Polynomial, format_poly
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
    a reduction step forms."""

    max_pairs: int = 100_000
    max_degree: int = 60


@dataclass(frozen=True)
class GroebnerBasis:
    ring: RingSpec
    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    reduced: bool
    strong: bool
    # engine reducers of the elements per (order, max_degree), for normal_form
    _reducers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.elements)


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


def _divides(lm: Exponents, e: Exponents) -> bool:
    return all(map(le, lm, e))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def _coprime(a: Exponents, b: Exponents) -> bool:
    return not any(x and y for x, y in zip(a, b))


# Over ZZ the pair criteria work on leading terms (monomial, coefficient),
# coefficients positive; c*x^a divides d*x^b when c | d and x^a | x^b.


def _term_lcm(s: tuple, t: tuple) -> tuple:
    return _lcm(s[0], t[0]), math.lcm(s[1], t[1])


def _term_divides(s: tuple, t: tuple) -> bool:
    return t[1] % s[1] == 0 and _divides(s[0], t[0])


def _term_coprime(s: tuple, t: tuple) -> bool:
    return math.gcd(s[1], t[1]) == 1 and _coprime(s[0], t[0])


def _g_term(s: tuple, t: tuple) -> tuple:
    """Leading term of the G-polynomial of elements with leading terms s, t."""
    return _lcm(s[0], t[0]), math.gcd(s[1], t[1])


# -- the engine representation ---------------------------------------------------


class _Order:
    """A monomial order compiled for degree bound D: for monomials of total
    degree up to 2*D, ``key(e)`` is one int, and a larger key is a larger
    monomial."""

    __slots__ = ("weights",)

    def __init__(self, order: MonomialOrder, ring: RingSpec, bound: int):
        keyf = key_function(order, ring)
        n = len(ring.variables)
        base = 4 * bound + 1
        weights = []
        for j in range(n):
            w = 0
            for c in keyf(tuple(int(i == j) for i in range(n))):
                w = w * base + c
            weights.append(w)
        self.weights = tuple(weights)

    def key(self, e: Exponents) -> int:
        return sum(map(mul, self.weights, e))


@lru_cache(maxsize=64)
def _compiled(order: MonomialOrder, ring: RingSpec, bound: int) -> _Order:
    return _Order(order, ring, max(bound, 1))


class _Poly:
    """An engine polynomial: terms (key, exponents, coefficient, degree)
    sorted by descending key, with raw int coefficients (see the module
    docstring)."""

    __slots__ = ("ring", "cord", "terms")

    def __init__(self, ring: RingSpec, cord: _Order, terms: list):
        self.ring = ring
        self.cord = cord
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms


def _modulus(ring: RingSpec) -> int:
    dom = ring.domain
    return dom.p if isinstance(dom, PrimeField) else 0


def _engine_poly(f: Polynomial, cord: _Order) -> tuple[_Poly, object]:
    """f as an engine polynomial, and the scalar s with engine form = s*f.

    Over QQ the engine form is the primitive integer multiple of f with a
    positive leading coefficient; elsewhere it is f itself and s is 1.
    """
    ring = f.ring
    dom = ring.domain
    key = cord.key
    den = 1
    if isinstance(dom, PrimeField):
        raw = [(e, c.residue) for e, c in f._terms.items()]
    elif isinstance(dom, RationalDomain):
        den = math.lcm(*(c.denominator for c in f._terms.values()))
        raw = [(e, c.numerator * (den // c.denominator)) for e, c in f._terms.items()]
    else:
        raw = f._terms.items()
    terms = sorted(((key(e), e, c, sum(e)) for e, c in raw), reverse=True)
    scale = 1
    if isinstance(dom, RationalDomain) and terms:
        g = math.gcd(*(t[2] for t in terms))
        if terms[0][2] < 0:
            g = -g
        if g != 1:
            terms = [(k, e, c // g, d) for k, e, c, d in terms]
        scale = Fraction(den, g)
    return _Poly(ring, cord, terms), scale


def _to_polynomial(ring: RingSpec, terms, scale=1) -> Polynomial:
    """The Polynomial with coefficients c / scale for the (exponents,
    coefficient) pairs given; scale is 1 except over QQ."""
    dom = ring.domain
    if isinstance(dom, PrimeField):
        p = dom.p
        return Polynomial._make(ring, {e: FpElement(c, p) for e, c in terms})
    if isinstance(dom, RationalDomain):
        num, den = scale.denominator, scale.numerator
        return Polynomial._make(ring, {e: Fraction(c * num, den) for e, c in terms})
    return Polynomial._make(ring, dict(terms))


def _normalized(terms: list, ring: RingSpec) -> list:
    """Monic over GF(p); primitive with a positive leading coefficient over
    QQ; a positive leading coefficient over ZZ (content kept)."""
    lc = terms[0][2]
    p = _modulus(ring)
    if p:
        if lc == 1:
            return terms
        inv = pow(lc, -1, p)
        return [(k, e, c * inv % p, d) for k, e, c, d in terms]
    if isinstance(ring.domain, RationalDomain):
        g = math.gcd(*(t[2] for t in terms))
        if lc < 0:
            g = -g
    else:
        g = -1 if lc < 0 else 1
    if g == 1:
        return terms
    return [(k, e, c // g, d) for k, e, c, d in terms]


class _Reducers:
    """A reducer set that only grows, with the leading data of each element.

    ``first`` memoizes, per monomial key, the first reducer whose leading
    monomial divides it (an index >= 0), or ~n when none of the first n
    reducers does; since reducers are only appended, a later lookup scans
    only the new ones.  Only field-mode reduction uses it.
    """

    __slots__ = ("ring", "cord", "p", "qq", "polys", "lms", "lcs", "invs", "k0s", "d0s", "first")

    def __init__(self, ring: RingSpec, cord: _Order):
        self.ring = ring
        self.cord = cord
        self.p = _modulus(ring)
        self.qq = isinstance(ring.domain, RationalDomain)
        self.polys: list[_Poly] = []
        self.lms: list[Exponents] = []
        self.lcs: list[int] = []
        self.invs: list[int] = []
        self.k0s: list[int] = []
        self.d0s: list[int] = []
        self.first: dict[int, int] = {}

    def append(self, f: _Poly) -> None:
        k, e, c, d = f.terms[0]
        self.polys.append(f)
        self.lms.append(e)
        self.lcs.append(c)
        self.k0s.append(k)
        self.d0s.append(d)
        if self.p:
            self.invs.append(pow(c, -1, self.p))


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
    given, receives q_i per reducer as a list of (shift, coefficient, M at
    that step); the coefficient of q_i at x^shift is coefficient * (M // M at
    step).  No reducer acts twice on one monomial (a field step cancels the
    term; over ZZ a reducer that acted leaves a residue it cannot divide), so
    the shifts in one list are distinct and every coefficient is nonzero.
    The engine checks the degree budget here only: on entry, and on each
    term a reduction step forms ("during reduction").
    """
    _check_degree(max_degree, max((t[3] for t in terms), default=-1))
    p, qq, int_mode = red.p, red.qq, red.ring.is_int_mode
    polys, lms, lcs, invs, k0s, d0s = red.polys, red.lms, red.lcs, red.invs, red.k0s, red.d0s
    first = red.first
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
                    if _divides(lms[gi], e):
                        b = lcs[gi]
                        q = (c - c % abs(b)) // b
                        if q:
                            break
                else:
                    break
            else:
                gi = first.get(k, -1)
                if gi < 0:
                    for gi in range(~gi, nred):
                        if _divides(lms[gi], e):
                            break
                    else:
                        gi = ~nred
                    first[k] = gi
                    if gi < 0:
                        break
                if p:
                    q = c * invs[gi] % p
                else:
                    b = lcs[gi]
                    g0 = math.gcd(c, b)
                    m = b // g0
                    q = c // g0
                    if m != 1:
                        for kk in work:
                            work[kk] *= m
                        M *= m
            # work -= q * x^(e - lm) * g
            ks = k - k0s[gi]
            ds = d - d0s[gi]
            shift = None
            if quotients is not None:
                shift = tuple(map(sub, e, lms[gi]))
                quotients[gi].append((shift, q, M))
            for kg, eg, cg, dg in polys[gi].terms:
                km = ks + kg
                s = work.get(km)
                if s is None:
                    if ds + dg > max_degree:
                        raise BudgetExceededError(
                            f"degree budget {max_degree} exceeded during reduction"
                        )
                    work[km] = -q * cg % p if p else -q * cg
                    if km not in mono:
                        if shift is None:
                            shift = tuple(map(sub, e, lms[gi]))
                        mono[km] = (tuple(map(add, shift, eg)), ds + dg)
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
    engine form.  The order is compiled for the budget's degree bound, raised
    to the degree of each divisor."""
    for g in polys:
        if g.is_zero():
            raise ZeroPolynomialError("zero divisor in division basis")
    ring = polys[0].ring
    bound = max(budget.max_degree, *(g.total_degree() for g in polys))
    red = _Reducers(ring, _compiled(order, ring, bound))
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
    ring = _check_same_ring([f, *polys])
    budget = budget or Budget()
    red, scales = _divisors(polys, order or Grevlex(), budget)
    h, mu = _engine_poly(f, red.cord)
    quotients: list[list] = [[] for _ in polys]
    rem, M = _reduce(h.terms, red, budget.max_degree, quotients)
    # M*mu*f = sum(Q_i * lam_i*g_i) + rem, so q_i = Q_i * lam_i / (M*mu)
    qq = isinstance(ring.domain, RationalDomain)
    qs = [
        _to_polynomial(
            ring,
            [(shift, q * (M // at)) for shift, q, at in steps],
            M * mu / lam if qq else 1,
        )
        for steps, lam in zip(quotients, scales)
    ]
    return qs, _to_polynomial(ring, [(e, c) for _, e, c, _ in rem], M * mu)


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
    """The remainder of ``divide``.  Against a GroebnerBasis the reducers
    are built once and kept on the basis object."""
    cache = None
    if isinstance(basis, GroebnerBasis):
        if order is None:
            order = basis.order
        cache = basis._reducers
        basis = basis.elements
    polys = list(basis)
    if not polys:
        return f
    ring = _check_same_ring([f, *polys])
    budget = budget or Budget()
    order = order or Grevlex()
    red = cache.get((order, budget.max_degree)) if cache is not None else None
    if red is None:
        red, _ = _divisors(polys, order, budget)
        if cache is not None:
            cache[(order, budget.max_degree)] = red
    h, mu = _engine_poly(f, red.cord)
    rem, M = _reduce(h.terms, red, budget.max_degree)
    return _to_polynomial(ring, [(e, c) for _, e, c, _ in rem], M * mu)


# -- S and G polynomials ---------------------------------------------------------


def _pair(f: _Poly, g: _Poly, gpoly: bool) -> _Poly:
    """S- or G-polynomial of two engine polynomials.  Over a field it is
    the S-polynomial up to a nonzero scalar; over ZZ it is exact."""
    ring = f.ring
    p = _modulus(ring)
    lf, lg = f.terms[0], g.terms[0]
    a, b = lf[2], lg[2]
    m = _lcm(lf[1], lg[1])
    km, dm = f.cord.key(m), sum(m)
    skip = 1  # the leading terms of an S-polynomial cancel
    if gpoly:
        _, u, v = ext_gcd(a, b)
        skip = 0
    elif ring.is_int_mode:
        c = abs(a * b) // ext_gcd(a, b)[0]
        u, v = c // a, -(c // b)
    elif p:
        u, v = b, -a % p
    else:
        g0 = math.gcd(a, b)
        u, v = b // g0, -(a // g0)
    # keyed by exponents, so that a term above the key range (which the
    # degree budget then rejects) still combines exactly
    acc: dict = {}
    for (k0, lm, _, d0), terms, w in ((lf, f.terms, u), (lg, g.terms, v)):
        shift = tuple(map(sub, m, lm))
        ks, ds = km - k0, dm - d0
        for k, e, c, d in terms[skip:]:
            em = tuple(map(add, e, shift))
            t = acc.get(em)
            if t is None:
                acc[em] = [ks + k, w * c, ds + d]
            else:
                t[1] += w * c
    if p:
        out = [(k, e, c % p, d) for e, (k, c, d) in acc.items() if c % p]
    else:
        out = [(k, e, c, d) for e, (k, c, d) in acc.items() if c]
    out.sort(reverse=True)
    return _Poly(ring, f.cord, out)


def _exact_pair(f: Polynomial, g: Polynomial, order: MonomialOrder | None, gpoly: bool) -> Polynomial:
    """``_pair`` on Polynomials, exact.  An S-polynomial over a field does
    not change when f or g is scaled, so over GF(p) the engine forms are made
    monic; over QQ, where they are primitive with leading coefficients a and
    b, ``_pair`` returns lcm(a, b) times the S-polynomial."""
    ring = f.ring
    cord = _compiled(order or Grevlex(), ring, max(f.total_degree(), g.total_degree()))
    fe, ge = (_engine_poly(h, cord)[0] for h in (f, g))
    scale = 1
    if isinstance(ring.domain, RationalDomain):
        scale = math.lcm(fe.terms[0][2], ge.terms[0][2])
    elif not ring.is_int_mode:
        fe, ge = (_Poly(ring, cord, _normalized(h.terms, ring)) for h in (fe, ge))
    return _to_polynomial(ring, [(e, c) for _, e, c, _ in _pair(fe, ge, gpoly).terms], scale)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The S-polynomial; over ZZ leading coefficients are matched by their lcm.

    The Buchberger loop forms its pairs through this function on its own
    engine polynomials, and gets one back (see ``_pair``).
    """
    if isinstance(f, _Poly):
        return _pair(f, g, False)
    _check_same_ring([f, g])
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    return _exact_pair(f, g, order, False)


def g_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The G-polynomial (ZZ only): its leading coefficient is gcd(lc f, lc g).
    On engine polynomials it returns one, like ``s_polynomial``."""
    if isinstance(f, _Poly):
        return _pair(f, g, True)
    ring = _check_same_ring([f, g])
    if not ring.is_int_mode:
        raise AlgebraError("G-polynomials only exist over ZZ")
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("G-polynomial of a zero polynomial")
    return _exact_pair(f, g, order, True)


# -- Buchberger ----------------------------------------------------------------------


def groebner_basis(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis (strong over ZZ) of the ideal the gens generate.

    Deterministic: fixed input order implies identical output, and over a
    field any generating set of the same ideal yields the identical reduced
    basis.
    """
    order = order or Grevlex()
    budget = budget or Budget()
    # A repeated generator reduces to zero against its first copy, so it
    # adds no element and no pair.
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise AlgebraError("cannot compute a basis for an empty or all-zero generating set")
    ring = _check_same_ring(polys)
    int_mode = ring.is_int_mode
    cord = _compiled(order, ring, budget.max_degree)
    key = cord.key

    red = _Reducers(ring, cord)
    heap: list = []
    # The live S-pairs, (i, j) -> lcm of their leading terms, and the active
    # elements, those whose leading term no later one divides; at the end
    # they are the minimal basis.  A heap entry whose S-pair left ``live`` is
    # stale.  Over a field the leading term is the leading monomial (elements
    # are normalized); over ZZ it is the pair (monomial, coefficient), kept
    # in ``lts``.
    live: dict[tuple[int, int], object] = {}
    active: list[int] = []
    if int_mode:
        lts: list = []
        t_lcm, t_divides, t_coprime = _term_lcm, _term_divides, _term_coprime

        def t_key(t):
            return key(t[0])

    else:
        lts = red.lms
        t_lcm, t_divides, t_coprime, t_key = _lcm, _divides, _coprime, key

    def push_pairs(j: int) -> None:
        tj = lts[j]
        # (B) an old pair (a, b) whose lcm tj divides is redundant, because
        # (a, j) and (b, j) cover it, unless one of their lcms equals it
        for (a, b), m in list(live.items()):
            if t_divides(tj, m) and t_lcm(lts[a], tj) != m and t_lcm(lts[b], tj) != m:
                del live[(a, b)]
        new = [(i, t_lcm(lts[i], tj), t_coprime(lts[i], tj)) for i in active]
        # (M) drop a new pair whose lcm another new lcm properly divides;
        # (F) keep the first pair of each equal lcm; the product criterion
        # then drops every group that has a coprime member
        groups: dict = {}
        for i, m, coprime in new:
            if any(m2 != m and t_divides(m2, m) for _, m2, _ in new):
                continue
            first, any_coprime = groups.get(m, (i, False))
            groups[m] = (first, any_coprime or coprime)
        for m, (i, coprime) in groups.items():
            if not coprime:
                live[(i, j)] = m
                heapq.heappush(heap, (t_key(m), i, j, 0))
        if int_mode:
            # the G-pair (i, j) stands for the term gcd(c_i, c_j)*lcm(x^a_i,
            # x^a_j), which some leading term must divide: one pair per
            # minimal term, with active elements only; a pair whose term a
            # leading term divides is skipped when popped
            gnew = [(i, _g_term(lts[i], tj)) for i in active]
            seen = set()
            for i, t in gnew:
                if t not in seen and not any(t2 != t and _term_divides(t2, t) for _, t2 in gnew):
                    seen.add(t)
                    heapq.heappush(heap, (t_key(t), i, j, 1))
        active[:] = [i for i in active if not t_divides(tj, lts[i])]
        active.append(j)

    def add(terms: list) -> None:
        # every term was checked against the degree budget already
        red.append(_Poly(ring, cord, _normalized(terms, ring)))
        if int_mode:
            lts.append((red.lms[-1], red.lcs[-1]))
        push_pairs(len(red.polys) - 1)

    for g in polys:
        r, _ = _reduce(_engine_poly(g, cord)[0].terms, red, budget.max_degree)
        if r:
            add(r)

    pops = 0
    while heap:
        _, i, j, kind = heapq.heappop(heap)
        if kind:
            t = _g_term(lts[i], lts[j])
            if any(_term_divides(lts[k], t) for k in active):
                continue
        elif live.pop((i, j), None) is None:
            continue
        pops += 1
        if pops > budget.max_pairs:
            raise BudgetExceededError(f"pair budget {budget.max_pairs} exhausted")
        f, g = red.polys[i], red.polys[j]
        p = g_polynomial(f, g, order) if kind else s_polynomial(f, g, order)
        if p.is_zero():
            continue
        r, _ = _reduce(p.terms, red, budget.max_degree)
        if r:
            add(r)

    # The active elements are the minimal basis.  Each new element is fully
    # reduced against the earlier ones, so no earlier leading term divides
    # its own (over ZZ, strongly: a remainder coefficient is below every
    # earlier one whose monomial divides), and ``push_pairs`` retires each
    # element whose leading term a later one divides.  Active leading
    # monomials are distinct (over ZZ because the G-pairs are settled), so
    # sorting by key alone orders the basis.
    minimal = [red.polys[i] for i in sorted(active, key=red.k0s.__getitem__)]
    final = _tail_reduce(minimal, ring, cord, budget)
    qq = isinstance(ring.domain, RationalDomain)
    elements = tuple(
        _to_polynomial(ring, [(e, c) for _, e, c, _ in f.terms], f.terms[0][2] if qq else 1)
        for f in final.polys
    )
    gb = GroebnerBasis(ring, order, elements, reduced=True, strong=int_mode)
    gb._reducers[(order, budget.max_degree)] = final
    return gb


def _tail_reduce(basis: list[_Poly], ring: RingSpec, cord: _Order, budget: Budget) -> _Reducers:
    """Reduce every term below each leading term against the other elements.

    ``basis`` is minimal and sorted ascending by leading monomial, and only
    a smaller leading monomial can divide a tail term, so one
    ascending pass against the already reduced prefix is final.  Heads are
    kept (over QQ scaled with the tail), so the leading terms, and the basis
    property, are preserved.  Returns the reduced elements as reducers.
    """
    red = _Reducers(ring, cord)
    for f in basis:
        k, e, c, d = f.terms[0]
        tail, M = _reduce(f.terms[1:], red, budget.max_degree)
        red.append(_Poly(ring, cord, _normalized([(k, e, c * M, d), *tail], ring)))
    return red


def is_groebner(gb: GroebnerBasis, budget: Budget | None = None) -> bool:
    """Check the basis property directly: every S (and over ZZ, G) polynomial
    must reduce to zero against the basis.  No pair criteria are applied, so
    this is an independent verification, not a replay of the construction."""
    budget = budget or Budget()
    polys = list(gb.elements)
    if not polys:
        return False
    ring = _check_same_ring(polys)
    if any(g.is_zero() for g in polys):
        return False
    red, _ = _divisors(polys, gb.order, budget)
    elems = red.polys
    for j in range(len(elems)):
        for i in range(j):
            sp = s_polynomial(elems[i], elems[j], gb.order)
            if not sp.is_zero() and _reduce(sp.terms, red, budget.max_degree)[0]:
                return False
            if ring.is_int_mode:
                gp = g_polynomial(elems[i], elems[j], gb.order)
                if not gp.is_zero() and _reduce(gp.terms, red, budget.max_degree)[0]:
                    return False
    return True
