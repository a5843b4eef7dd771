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

Inside Buchberger an element is reduced only until its leading term is
irreducible: the start elements and every S- and G-polynomial.  The pair
criteria read leading terms alone, so Buchberger stops at the minimal
basis, and one ascending ``_tail_reduce`` pass over it reduces the tails on
read, only as far as the reader needs: elimination reads the prefix of
elements free of the eliminated variables, every other reader the whole
basis, and the basis read is reduced all the same (see ``GroebnerBasis``);
``divide``, ``normal_form`` and ``is_groebner`` reduce fully.  A power's
basis may start from the products a·b of the elements of two bases (see
``_factor_start``), each carrying its factor pairs.  Two products that
share a factor a have S(a·b, a·b') = a·S(b, b'), and S(b, b') has a standard
representation by the basis of b and b', so a times it is one by products
of the start: the pair is settled before it is formed (Becker and
Weispfenning, "Groebner Bases", 1993, ch. 5).  ``_shared_factor`` is the
test; a pair it settles is never formed: it gets no queue entry, and it is
not counted.  It applies to start elements that entered unchanged, as most
products do under head reduction, and over ZZ to G-pairs too, since
G(a·b, a·b') = a·G(b, b') (Adams and Loustaunau, "An Introduction to
Groebner Bases", 1994, ch. 4).

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
polynomial is a plain list of terms (key, coefficient, degree) sorted by
descending key, so its leading term is the first and a shifted term's key
and degree are integer sums.  A term's monomial is the low bits of its key,
``key & mask`` (see below), and terms combine by key (see ``_collected``).
The degree is kept for the budget: the key of a term above the compiled
bound is meaningless, and its degree alone rejects it on entry to
``_reduce``.  The compiled order is the engine's whole context: it also
records the ring, its modulus and whether it is QQ or ZZ, and every engine
function reads them off the compiled order it receives.  Buchberger forms
every pair through the public ``s_polynomial``/``g_polynomial`` on two term
lists, with its compiled order in place of the order, and gets a term list
back.  The start of a power from the bases of its factors is formed inside
the engine too: ``_factor_start`` multiplies their final reducers with
``_product`` under one compiled order and returns the products as a private
``_Start`` (compiled order, term lists, factor pairs), which
``groebner_basis`` accepts in place of Polynomials; Polynomials are
converted into the same start, so one Buchberger body serves both.  A
returned basis keeps its minimal basis as term lists, reduces their tails
into its final reducers on read, and forms ``elements`` on their first
read: ``normal_form`` against it, under every budget its width's bound
covers, reads the reducers alone, and elimination reduces and converts
only the elements it keeps.

A monomial inside the engine is packed into one int (Bachmann and
Schoenemann, "Monomial representations for Groebner bases computations",
1998): each variable owns a field of w bits whose top bit, the guard, is 0.
w is 8, 16, 32, 64, 128, ..., and its bound D is the largest with
2*D < 2**(w - 1): 63 for 8-bit fields, which covers the default budget of
60, and 16383 for 16-bit ones.  So every exponent of a pair lcm or a pair
term fits below its guard.  Then a shifted monomial is an int sum, x^a
divides x^b exactly when b - a has no guard bit set (a borrow sets the guard
of the first field where a exceeds b), and b - a is the shift; lcm and
coprimality are a few word operations on the guards.  The packed monomial
is also the low bits of its key, so one dot product computes both.  Exponent
tuples appear where polynomials enter and leave the engine (``_engine_poly``,
and ``_to_polynomial`` for quotients, remainders and basis elements), and
where the key of a pair lcm is computed (``_pair`` and the pair queue);
fields of up to 64 bits are unpacked with ``struct``, wider ones by shifts.

Coefficients are plain ints: residues in [0, p) over GF(p), the integers
themselves over ZZ, and over QQ a primitive integer polynomial that stands
for its positive rational multiples.  Reduction over QQ is fraction-free
(pseudo-reduction): before a reducer with leading coefficient b cancels a
term with coefficient c, the polynomial is multiplied by b/gcd(b, c).  One
loop, ``_reduce``, serves all three domains; content is removed after each
normal form, and ``Fraction`` and ``FpElement`` values appear only where
polynomials enter and leave the engine.  One scan of the leading monomials
finds each divisor; a reducer set keeps only its term lists and those
monomials, so reduction keeps no state between calls.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul
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
    a reduction step forms.  A basis reduces its tails on read, under the
    ``max_degree`` it was built with: a tail term over it raises at the read
    that reaches it, and again at every later read, and an elimination that
    reads only the elements free of the eliminated variables may answer
    where reading the whole basis raises.  Both caps are non-negative; a cap
    of 0 is valid, and a negative one raises AlgebraError."""

    max_pairs: int = 100_000
    max_degree: int = 60

    def __post_init__(self):
        for name, cap in (("max_pairs", self.max_pairs), ("max_degree", self.max_degree)):
            if cap < 0:
                raise AlgebraError(f"budget {name} must be non-negative, got {cap}")


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis: its ring, order and elements, and whether it is
    reduced and, over ZZ, strong.

    A basis ``groebner_basis`` returns holds the minimal basis, sorted
    ascending, as engine term lists, and reduces their tails on read, only
    as far as the reader needs (see ``_tail_reduce``): ``_free_heads``
    reduces the elements up to the last one free of the names it drops, and
    ``elements``, ``_final``, and so ``normal_form`` and ``_factor_start``,
    finish the pass.  The reduced prefix only grows, so the elements come
    out the same whatever is read first, and a finished basis drops its
    unreduced list.  The pass runs under the ``max_degree`` the basis was
    built with: a tail term over it raises BudgetExceededError at the read
    that reaches it, and again at every later one, and no partly reduced
    element is handed out.
    """

    ring: RingSpec
    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    reduced: bool
    strong: bool

    def __iter__(self):
        return iter(self.elements)

    @classmethod
    def _of(cls, minimal: list[list], cord: _Order, max_degree: int) -> GroebnerBasis:
        """The reduced basis of the minimal basis ``minimal``, term lists
        under ``cord`` sorted ascending, with the ring and order of ``cord``;
        it is strong over ZZ.  Its tails are reduced under ``max_degree`` on
        read, and ``elements`` is formed on its first read (see
        ``__getattr__``)."""
        gb = object.__new__(cls)
        vars(gb).update(
            ring=cord.ring, order=cord.order, reduced=True, strong=cord.zz,
            _minimal=minimal, _prefix=_Reducers(cord), _max_degree=max_degree,
        )
        return gb

    def __getattr__(self, name: str):
        # reached only while ``elements`` or ``_final`` is unset
        state = vars(self)
        if name == "_final":
            # a basis built from its elements has no reducers
            return self._reduced(len(state["_minimal"])) if "_minimal" in state else None
        if name != "elements":
            raise AttributeError(name)
        elements = tuple(map(self._convert, self._final.polys))
        state["elements"] = elements
        return elements

    def _reduced(self, n: int) -> _Reducers:
        """The reducers of the first n elements, tail-reduced as far as no
        earlier read went.  The last one sets ``_final`` and drops the
        unreduced list."""
        state = vars(self)
        red = state["_prefix"]
        basis = state.get("_minimal")
        if basis is not None:
            _tail_reduce(basis, red, state["_max_degree"], n)
            if len(red.polys) == len(basis):
                del state["_minimal"]
                state["_final"] = red
        return red

    def _convert(self, f: list) -> Polynomial:
        # reduced elements are monic over fields: scale by the leading coefficient
        return _to_polynomial(self._prefix.cord, f, f[0][1])

    def _free_heads(self, names: Sequence[str]) -> list[Polynomial]:
        """The elements whose leading monomial involves none of ``names``,
        converted alone: one AND of the leading key, whose low bits are the
        packed monomial, with a mask of the names' fields.  Under an order
        that eliminates ``names`` these are the elements free of them, and
        the smallest: tails below a free leading monomial are free too, and
        only the elements before it can reduce them.  So the tails are
        reduced only up to the last free element, and that prefix equals
        the prefix of the fully reduced basis."""
        cord = self._prefix.cord
        mask = sum(cord.field << cord.width * self.ring.index(v) for v in names)
        basis = vars(self).get("_minimal", ())
        n = max((i + 1 for i, f in enumerate(basis) if not f[0][0] & mask), default=0)
        return [self._convert(f) for f in self._reduced(n).polys if not f[0][0] & mask]


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
    """The minimal-pair filter of both pair updates: each distinct term of
    the (index, term) pairs that no other distinct term divides, mapped to
    the indices that carry it, in first-seen order.  A term is a packed
    monomial, or over ZZ a leading term (packed monomial, coefficient),
    coefficients positive; c*x^a divides d*x^b when c | d and x^a | x^b.

    The distinct terms are scanned in (degree, coefficient) order, each
    against the minimal terms kept so far, so a call costs the distinct
    terms times the minimal ones rather than the distinct terms squared.
    The order is exact: a proper divisor of a term comes earlier in it, with
    a lower degree, or over ZZ the same monomial and a smaller coefficient,
    and divisibility is transitive, so a term no kept term divides has no
    divisor at all.  Sizes at seed 7, per call: a median of 2, 1 and 4
    distinct terms, at most 15, 9 and 33, on the monic_qq, strong_zz and
    toric_cli_gfp workloads.
    """
    groups: dict = {}
    for i, t in pairs:
        groups.setdefault(t, []).append(i)
    if len(groups) < 2:
        return groups
    G, degree = cord.guard, cord.degree
    kept: list = []
    if zz:
        for t in sorted(groups, key=lambda t: (degree(t[0]), t[1])):
            m, c = t
            for u, d in kept:
                if not c % d and not (m - u) & G:
                    break
            else:
                kept.append(t)
    else:
        for t in sorted(groups, key=degree):
            for u in kept:
                if not (t - u) & G:
                    break
            else:
                kept.append(t)
    return {t: g for t, g in groups.items() if t in kept}


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
    in its field, so one dot product yields both, and an engine term (key,
    coefficient, degree) keeps the key alone.  ``fields(m)`` is the exponent
    tuple of a packed monomial m.
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
    term above the compiled bound has a meaningless key, which ``_reduce``
    rejects on entry, by its stored degree, before reading it.
    """
    den = 1
    if cord.p:
        raw = [(e, c.residue) for e, c in f._terms.items()]
    elif cord.qq:
        den = math.lcm(*(c.denominator for c in f._terms.values()))
        raw = [(e, c.numerator * (den // c.denominator)) for e, c in f._terms.items()]
    else:
        raw = f._terms.items()
    terms = [(sum(map(mul, cord.weights, e)), c, sum(e)) for e, c in raw]
    terms.sort(reverse=True)
    if not cord.qq or not terms:
        return terms, 1
    prim = _normalized(terms, cord)
    return prim, Fraction(den * prim[0][1], terms[0][1])


def _to_polynomial(cord: _Order, terms: list, scale=1) -> Polynomial:
    """The Polynomial of ``cord.ring`` with coefficients c / scale for the
    engine terms (key, coefficient, degree) given, each monomial unpacked
    from the low bits of its key; scale is 1 except over QQ."""
    ring, fields, p, mask = cord.ring, cord.fields, cord.p, cord.mask
    if p:
        return Polynomial._make(ring, {fields(k & mask): FpElement(c, p) for k, c, _ in terms})
    if cord.qq:
        num, den = scale.denominator, scale.numerator
        return Polynomial._make(ring, {fields(k & mask): Fraction(c * num, den) for k, c, _ in terms})
    return Polynomial._make(ring, {fields(k & mask): c for k, c, _ in terms})


def _normalized(terms: list, cord: _Order) -> list:
    """Monic over GF(p); primitive with a positive leading coefficient over
    QQ; a positive leading coefficient over ZZ (content kept)."""
    lc = terms[0][1]
    p = cord.p
    if p:
        if lc == 1:
            return terms
        inv = pow(lc, -1, p)
        return [(k, c * inv % p, d) for k, c, d in terms]
    if cord.qq:
        g = math.gcd(*(t[1] for t in terms))
        if lc < 0:
            g = -g
    else:
        g = -1 if lc < 0 else 1
    if g == 1:
        return terms
    return [(k, c // g, d) for k, c, d in terms]


class _Reducers:
    """A reducer set that only grows: the term lists ``polys`` and their
    leading monomials ``lms``, which the divisor scan reads for every
    candidate.  Head data (key, coefficient, degree) are read off each
    element's head term, ``polys[i][0]``."""

    __slots__ = ("cord", "polys", "lms")

    def __init__(self, cord: _Order):
        self.cord = cord
        self.polys: list[list] = []
        self.lms: list[int] = []

    def append(self, f: list) -> None:
        self.polys.append(f)
        self.lms.append(f[0][0] & self.cord.mask)


def _reduce(
    terms: list,
    red: _Reducers,
    max_degree: int,
    quotients: list[list] | None = None,
    head: bool = False,
) -> tuple[list, int]:
    """Full normal form of a term list against ``red``: the one reduction loop.
    With ``head`` the loop stops at the first term no reducer divides, the
    leading term of the remainder, and keeps the terms below it as they
    stand; a list whose leading term is irreducible comes back itself.  Over
    a field that is decided before any work dict or heap is built: when no
    leading monomial divides the head, the list is returned at once, after
    the entry degree check.

    Monomials are visited in descending order through a max-heap of keys, so
    each one is finalized exactly once.  One scan finds the divisor of a
    term c*x^e in every domain: the first reducer whose leading monomial
    divides x^e, over ZZ the first that also gives a nonzero quotient with
    least non-negative remainder (irreducible residues stay).  Over a field
    the step cancels the term.  Over GF(p) the quotient is c/b, b the
    reducer's leading coefficient, which is 1 for every reducer the engine
    builds, so only the divisors of ``divide`` need an inverse.  Over QQ the
    reduction is fraction-free: the whole polynomial is first multiplied by
    m = b/gcd(b, c).

    Returns (remainder, M), M the product of those multipliers (1 except over
    QQ), such that M*f = sum(q_i*g_i) + remainder.  ``quotients``, when
    given, receives q_i per reducer as a list of (key, coefficient, degree,
    M at that step), one entry per term of q_i, whose coefficient is
    coefficient * (M // M at step).  No reducer acts twice on one monomial (a
    field step cancels the term; over ZZ a reducer that acted leaves a
    residue it cannot divide), so the keys in one list are distinct and
    every coefficient is nonzero.  The engine checks the degree budget here
    only: on entry, by the stored degrees, and on each term a reduction step
    forms ("during reduction").  Past the entry check every term lies within
    the bound, so each monomial and its degree are read off its key.
    """
    _check_degree(max_degree, max(map(itemgetter(2), terms), default=-1))
    cord = red.cord
    p, qq, int_mode = cord.p, cord.qq, cord.zz
    polys, lms = red.polys, red.lms
    G, mask, ones, top, fmask = cord.guard, cord.mask, cord.ones, cord.top, cord.field
    if head and terms and not int_mode:
        e = terms[0][0] & mask
        for m in lms:
            if not (e - m) & G:
                break
        else:
            return terms, 1
    nred = len(lms)
    heappush, heappop = heapq.heappush, heapq.heappop
    work = {t[0]: t[1] for t in terms}
    heap = [-t[0] for t in terms]  # terms descend, so this list is a heap
    rem: list = []
    rem_at: list[int] = []
    M = 1
    stepped = False
    while heap:
        k = -heappop(heap)
        c = work.get(k)
        if c is None:
            continue
        e = k & mask
        d = e * ones >> top & fmask  # cord.degree(e), inlined
        while True:
            for gi in range(nred):
                if not (e - lms[gi]) & G:
                    k0, b, d0 = polys[gi][0]
                    if not int_mode:
                        break
                    q = (c - c % abs(b)) // b
                    if q:
                        break
            else:
                break
            if p:
                q = c if b == 1 else c * pow(b, -1, p) % p
            elif qq:
                g0 = math.gcd(c, b)
                m = b // g0
                q = c // g0
                if m != 1:
                    for kk in work:
                        work[kk] *= m
                    M *= m
            # work -= q * x^shift * g, the shift's key ks and degree ds
            stepped = True
            ks = k - k0
            ds = d - d0
            if quotients is not None:
                quotients[gi].append((ks, q, ds, M))
            for kg, cg, dg in polys[gi]:
                km = ks + kg
                s = work.get(km)
                if s is None:
                    if ds + dg > max_degree:
                        raise BudgetExceededError(
                            f"degree budget {max_degree} exceeded during reduction"
                        )
                    work[km] = -q * cg % p if p else -q * cg
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
            rem.append((k, c, d))
            if head:
                if not stepped:
                    return terms, 1
                tail = [(kk, cc, (kk & mask) * ones >> top & fmask) for kk, cc in work.items()]
                tail.sort(reverse=True)
                return [(k, c, d), *tail], M
            if qq:
                rem_at.append(M)
    if M != 1:
        rem = [(k, c * (M // at), d) for (k, c, d), at in zip(rem, rem_at)]
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
            [(k, q * (M // at), d) for k, q, d, at in steps],
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
    degree budget the bound of their compiled order covers; any other basis
    or list goes to ``divide``."""
    budget = budget or Budget()
    if isinstance(basis, GroebnerBasis):
        order = order or basis.order
        red = basis._final
        if red is not None and order == basis.order and red.cord.bound >= budget.max_degree:
            if f.ring != basis.ring:
                raise RingMismatchError(f"mixed rings {f.ring} and {basis.ring}")
            h, mu = _engine_poly(f, red.cord)
            rem, M = _reduce(h, red, budget.max_degree)
            return _to_polynomial(red.cord, rem, M * mu)
    return divide(f, basis, order, budget)[1]


# -- S and G polynomials ---------------------------------------------------------


def _pair(f: list, g: list, cord: _Order, gpoly: bool) -> list:
    """S- or G-polynomial of two engine polynomials under the compiled order
    ``cord``.  Over a field it is the S-polynomial up to a nonzero scalar;
    over ZZ it is exact.  The inputs lie within the compiled bound, so the
    shifted terms accumulate by key, as in ``_collected``."""
    (kf, a, df), (kg, b, dg) = f[0], g[0]
    m = cord.lcm(kf & cord.mask, kg & cord.mask)
    km, dm = cord.key(cord.fields(m)), cord.degree(m)
    if gpoly:
        _, u, v = ext_gcd(a, b)
        skip = 0
    else:
        c = math.lcm(a, b)
        u, v = c // a, -(c // b)
        skip = 1  # the leading terms of an S-polynomial cancel
    acc: dict = {}
    for ks, ds, terms, w in ((km - kf, dm - df, f, u), (km - kg, dm - dg, g, v)):
        for k, c, d in terms[skip:]:
            t = acc.get(ks + k)
            if t is None:
                acc[ks + k] = [w * c, ds + d]
            else:
                t[0] += w * c
    return _collected(acc, cord.p)


def _product(f: list, g: list, cord: _Order) -> list:
    """f*g of two term lists under the compiled order ``cord``: keys and
    degrees add, and terms accumulate by key, as in ``_collected``.  Exact
    for every product term of degree up to twice the compiled bound.  Over
    QQ the product of two primitive lists is primitive (Gauss's lemma), and
    over GF(p) monic times monic is monic.  ``_factor_start`` forms the
    products of two bases with it."""
    acc: dict = {}
    for k, c, d in f:
        for kg, cg, dg in g:
            t = acc.get(k + kg)
            if t is None:
                acc[k + kg] = [c * cg, d + dg]
            else:
                t[0] += c * cg
    return _collected(acc, cord.p)


def _collected(acc: dict, p: int) -> list:
    """The term list of {key: [coefficient, degree]}, zero coefficients
    dropped, sorted by descending key.  Accumulating by key is exact: keys
    are sums of the keys of terms within the compiled bound D, so their
    monomials lie within 2*D, where distinct monomials have distinct keys."""
    if p:
        out = [(k, c % p, d) for k, (c, d) in acc.items() if c % p]
    else:
        out = [(k, c, d) for k, (c, d) in acc.items() if c]
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
        scale = math.lcm(fe[0][1], ge[0][1])
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
    """A start of ``groebner_basis`` already inside the engine, the products
    of two bases (see ``_factor_start``): nonzero term lists under ``cord``,
    an order compiled for the budget's degree bound, and per term list the
    (left, right) index pairs of the factors whose product it is (see
    ``_shared_factor``)."""

    cord: _Order
    terms: list
    factors: list


def _shared_factor(a: list, b: list) -> bool:
    """Whether two start elements, given by the (left, right) factor pairs
    of the products they equal, share a left or a right factor, which
    settles their pair (see the module docstring)."""
    return any(l == m or r == s for l, r in a for m, s in b)


def _factor_start(
    left: GroebnerBasis, right: GroebnerBasis, square: bool, budget: Budget
) -> _Start | None:
    """The distinct products of the elements of two bases under one order,
    sorted ascending by leading term, as a start of ``groebner_basis``; or
    None where the top term degree of ``left`` plus that of ``right``, which
    over a domain is the products' top degree, is above
    ``budget.max_degree``.

    The factors are the final reducers of both bases, repacked key by key
    into the order compiled for the budget where they were compiled for
    another field width; every term lies within the budget, so the repack is
    exact.  Each product carries every (left, right) index pair of the
    factors it came from, so that Buchberger skips the pairs of two products
    that share a factor (see ``_shared_factor``).  A ``square`` has one
    basis as both factors: each product is formed once and carries both
    orientations in one index space.
    """
    finals = left._final, right._final
    if sum(max(d for f in red.polys for _, _, d in f) for red in finals) > budget.max_degree:
        return None
    cord = _compiled(left.order, left.ring, budget.max_degree)
    lefts, rights = (
        red.polys if red.cord is cord else [
            [(cord.key(red.cord.fields(k & red.cord.mask)), c, d) for k, c, d in f]
            for f in red.polys
        ]
        for red in finals
    )
    products: dict = {}
    for i, f in enumerate(lefts):
        for j in range(i if square else 0, len(rights)):
            h = _product(f, rights[j], cord)
            pairs = products.setdefault(tuple(h), (h, []))[1]
            pairs.append((i, j))
            if square and i != j:
                pairs.append((j, i))
    start = sorted(products.values(), key=lambda hp: hp[0][0][0])
    return _Start(cord, [h for h, _ in start], [pairs for _, pairs in start])


def groebner_basis(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis (strong over ZZ) of the ideal the gens generate.

    Deterministic: fixed input order implies identical output, and over a
    field any generating set of the same ideal yields the identical reduced
    basis.  Zero and repeated generators reduce to zero and add nothing, so
    zero polynomials alone have the empty basis; an empty sequence names no
    ring and raises AlgebraError.  ``gens`` may also be a private ``_Start``,
    whose compiled order stands for ``order`` and whose factor pairs settle
    the pairs of products that share a factor (``_shared_factor``); the
    Polynomials are converted into the same start, so both run one
    Buchberger body.  The basis is returned minimal, and its tails are
    reduced on read under ``budget.max_degree`` (see ``GroebnerBasis``).
    """
    order = order or Grevlex()
    budget = budget or Budget()
    if isinstance(gens, _Start):
        cord, start, factors = gens
    else:
        polys = list(gens)
        if not polys:
            raise AlgebraError("cannot compute a basis for an empty generating set")
        cord = _compiled(order, _check_same_ring(polys), budget.max_degree)
        start, factors = [_engine_poly(g, cord)[0] for g in polys], None
    int_mode = cord.zz
    key, fields = cord.key, cord.fields

    red = _Reducers(cord)
    # per element, the factor pairs of a start element that entered unchanged
    facs: list = []
    heap: list = []
    # The live S-pairs, (i, j) -> lcm of their leading terms, and the active
    # elements, those whose leading term no later one divides; at the end
    # they are the minimal basis.  A heap entry whose S-pair left ``live`` is
    # stale.  Over a field the leading term is the leading monomial (elements
    # are normalized); over ZZ it is the pair (monomial, coefficient), kept
    # in ``lts``.
    live: dict[tuple[int, int], object] = {}
    active: list[int] = []
    G, low, w1, lcm = cord.guard, cord.low, cord.width - 1, cord.lcm
    if int_mode:
        # coefficients are positive; c*x^a divides d*x^b when c | d and x^a | x^b
        lts: list = []

        def t_lcm(s, t):
            return lcm(s[0], t[0]), math.lcm(s[1], t[1])

        def t_divides(s, t):
            return not t[1] % s[1] and not (t[0] - s[0]) & G

        def t_coprime(s, t):
            return math.gcd(s[1], t[1]) == 1 and cord.coprime(s[0], t[0])

        def t_key(t):
            return key(fields(t[0]))

        def g_term(s, t):
            # the leading term of the G-polynomial of elements with leading terms s, t
            return lcm(s[0], t[0]), math.gcd(s[1], t[1])

    else:
        lts = red.lms
        t_lcm, t_divides = lcm, cord.divides

        def t_key(m):
            return key(fields(m))

    def settled(i: int, fj: list | None) -> bool:
        # a pair of two start elements that share a factor (see the module docstring)
        fi = facs[i]
        return bool(fi and fj and _shared_factor(fi, fj))

    def push_pairs(j: int) -> None:
        tj, fj = lts[j], facs[j]
        # (B) an old pair (a, b) whose lcm tj divides is redundant, because
        # (a, j) and (b, j) cover it, unless one of their lcms equals it
        for (a, b), m in list(live.items()):
            if t_divides(tj, m) and t_lcm(lts[a], tj) != m and t_lcm(lts[b], tj) != m:
                del live[(a, b)]
        # per active element: its lcm with tj, whether the two are coprime,
        # and whether it stays active (tj does not divide it)
        if int_mode:
            lcms = [(i, t_lcm(lts[i], tj)) for i in active]
            coprimes = {i for i in active if t_coprime(lts[i], tj)}
            kept = [i for i in active if not t_divides(tj, lts[i])]
        else:
            # the word operations of ``_Order.lcm``, ``coprime`` and ``divides``
            lcms, coprimes, kept = [], set(), []
            tl = (tj + low) & G
            for i in active:
                a = lts[i]
                t = ((a | G) - tj) & G
                lcms.append((i, tj ^ ((a ^ tj) & (t - (t >> w1)))))
                if not (a + low) & tl:
                    coprimes.add(i)
                if (a - tj) & G:
                    kept.append(i)
        # (M) and (F): one new pair per minimal lcm; the product criterion
        # then drops every group that has a coprime member, and a settled
        # pair is never formed
        for m, group in _minimal(lcms, cord, int_mode).items():
            i = group[0]
            if coprimes.isdisjoint(group) and not settled(i, fj):
                live[(i, j)] = m
                heapq.heappush(heap, (t_key(m), i, j, 0))
        if int_mode:
            # the G-pair (i, j) stands for the term gcd(c_i, c_j)*lcm(x^a_i,
            # x^a_j), which some leading term must divide: one pair per
            # minimal term, with active elements only; a pair whose term a
            # leading term divides is skipped when popped
            gnew = [(i, g_term(lts[i], tj)) for i in active]
            for t, group in _minimal(gnew, cord, True).items():
                if not settled(group[0], fj):
                    heapq.heappush(heap, (t_key(t), group[0], j, 1))
        kept.append(j)
        active[:] = kept

    def add(terms: list, pairs: list | None = None) -> None:
        # every term was checked against the degree budget already; the
        # factor pairs stay only with terms that normalizing leaves as they are
        h = _normalized(terms, cord)
        red.append(h)
        facs.append(pairs if h is terms else None)
        if int_mode:
            lts.append((red.lms[-1], red.polys[-1][0][1]))  # (monomial, coefficient)
        push_pairs(len(red.polys) - 1)

    # Elements are reduced until their leading term is irreducible; the
    # returned basis reduces the rest on read.  A start element keeps its
    # factor pairs only if it enters as it is.
    for n, g in enumerate(start):
        r, _ = _reduce(g, red, budget.max_degree, head=True)
        if r:
            add(r, factors[n] if factors and r is g else None)

    pops = 0
    while heap:
        _, i, j, kind = heapq.heappop(heap)
        if kind:
            t = g_term(lts[i], lts[j])
            if any(t_divides(lts[k], t) for k in active):
                continue
        elif live.pop((i, j), None) is None:
            continue
        pops += 1
        if pops > budget.max_pairs:
            raise BudgetExceededError(f"pair budget {budget.max_pairs} exhausted")
        f, g = red.polys[i], red.polys[j]
        p = g_polynomial(f, g, cord) if kind else s_polynomial(f, g, cord)
        r, _ = _reduce(p, red, budget.max_degree, head=True)
        if r:
            add(r)

    # The active elements are the minimal basis.  The leading term of each
    # new element is reduced against the earlier ones, so no earlier leading
    # term divides it (over ZZ, strongly: a remainder coefficient is below
    # every earlier one whose monomial divides), and ``push_pairs`` retires
    # each element whose leading term a later one divides.  Active leading
    # monomials are distinct (over ZZ because the G-pairs are settled), so
    # their keys are too, and sorting by head terms compares keys alone.
    minimal = sorted(red.polys[i] for i in active)
    return GroebnerBasis._of(minimal, cord, budget.max_degree)


def _tail_reduce(basis: list[list], red: _Reducers, max_degree: int, n: int) -> None:
    """Extend the reduced prefix ``red`` of ``basis`` to its first n
    elements: each term below a leading term is reduced against the
    elements before it.

    Buchberger reduces only leading terms, so the tails are reduced here,
    on read (see ``GroebnerBasis``).  ``basis`` is minimal and sorted
    ascending by leading monomial, and only a smaller leading monomial can
    divide a tail term, so one ascending pass against the already reduced
    prefix is final, and a prefix reduced on its own equals the prefix of
    the whole pass.  Heads are kept (over QQ scaled with the tail), so the
    leading terms, and the basis property, are preserved.  A tail term over
    ``max_degree`` raises before its element joins the prefix.
    """
    cord = red.cord
    for f in basis[len(red.polys):n]:
        k, c, d = f[0]
        tail, M = _reduce(f[1:], red, max_degree)
        red.append(_normalized([(k, c * M, d), *tail], cord))


def is_groebner(gb: GroebnerBasis, budget: Budget | None = None) -> bool:
    """Check the basis property directly: every S (and over ZZ, G) polynomial
    reduces to zero against the basis, and the empty basis has none.  No pair
    criterion applies: an independent check, not a replay of the build."""
    budget = budget or Budget()
    polys = list(gb.elements)
    if not polys:
        return True
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
