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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .coefficients import divmod_least, ext_gcd
from .errors import AlgebraError, BudgetExceededError, RingMismatchError, ZeroPolynomialError
from .orders import Grevlex, MonomialOrder, key_function
from .polynomials import Exponents, Polynomial
from .rings import RingSpec


@dataclass(frozen=True, slots=True)
class Budget:
    """Caps on one Groebner computation: the S- and G-pairs it reduces and
    the total degree of every polynomial it forms.  Each ``groebner_basis``
    call checks them on its own, so an operation that computes several bases
    (a contraction, a stability check) may reduce many times ``max_pairs``
    pairs in total."""

    max_pairs: int = 100_000
    max_degree: int = 60


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class GroebnerBasis:
    ring: RingSpec
    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    reduced: bool
    strong: bool

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


# -- shared helpers -----------------------------------------------------------


def _check_same_ring(polys: Sequence[Polynomial]) -> RingSpec:
    ring = polys[0].ring
    for p in polys[1:]:
        if p.ring != ring:
            raise RingMismatchError(f"mixed rings {ring} and {p.ring}")
    return ring


def _degree_guard(p: Polynomial, budget: Budget) -> None:
    if p.total_degree() > budget.max_degree:
        raise BudgetExceededError(
            f"degree budget {budget.max_degree} exceeded (term of degree {p.total_degree()})"
        )


def _divides(lm: Exponents, e: Exponents) -> bool:
    for x, y in zip(lm, e):
        if x > y:
            return False
    return True


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


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


class _Reducers:
    """Precomputed leading data for a reducer set; grows during Buchberger."""

    __slots__ = ("keyf", "polys", "lms", "lcs", "items")

    def __init__(self, keyf):
        self.keyf = keyf
        self.polys: list[Polynomial] = []
        self.lms: list[Exponents] = []
        self.lcs: list = []
        self.items: list[list] = []

    def append(self, p: Polynomial) -> None:
        lm = max(p._terms, key=self.keyf)
        self.polys.append(p)
        self.lms.append(lm)
        self.lcs.append(p._terms[lm])
        self.items.append(list(p._terms.items()))


def _nf_terms(
    fterms: dict,
    red: _Reducers,
    ring: RingSpec,
    budget: Budget,
    quotients: list[dict] | None = None,
) -> dict:
    """Full normal form of a term dict against ``red``; the workhorse loop.

    Field mode cancels each reducible leading term completely; ZZ mode
    divides coefficients with least non-negative remainder and keeps
    irreducible residues.  Monomials are visited in descending order via a
    lazy max-heap, so each monomial is finalized exactly once.
    """
    keyf = red.keyf
    int_mode = ring.is_int_mode
    dom = ring.domain
    max_degree = budget.max_degree
    work = dict(fterms)
    rem: dict = {}
    heap: list = []
    for e in work:
        if sum(e) > max_degree:
            raise BudgetExceededError(f"degree budget {max_degree} exceeded during reduction")
        heap.append((tuple(-x for x in keyf(e)), e))
    heapq.heapify(heap)
    nred = len(red.lms)

    def subtract(e: Exponents, q, gi: int) -> None:
        # work -= q * X^(e - lm_gi) * g_i
        lm = red.lms[gi]
        shift = tuple(x - y for x, y in zip(e, lm))
        if quotients is not None:
            qd = quotients[gi]
            s = qd.get(shift)
            if s is None:
                qd[shift] = q
            else:
                s = s + q
                if s:
                    qd[shift] = s
                else:
                    del qd[shift]
        for eg, cg in red.items[gi]:
            em = tuple(x + y for x, y in zip(shift, eg))
            d = q * cg
            s = work.get(em)
            if s is None:
                if sum(em) > max_degree:
                    raise BudgetExceededError(
                        f"degree budget {max_degree} exceeded during reduction"
                    )
                work[em] = -d
                heapq.heappush(heap, (tuple(-x for x in keyf(em)), em))
            else:
                s = s - d
                if s:
                    work[em] = s
                else:
                    del work[em]

    while heap:
        _, e = heapq.heappop(heap)
        if e not in work:
            continue
        if int_mode:
            c = work[e]
            while c:
                for gi in range(nred):
                    if _divides(red.lms[gi], e):
                        q, r = divmod_least(c, red.lcs[gi])
                        if q:
                            subtract(e, q, gi)
                            c = work.get(e, 0)
                            break
                else:
                    break
            if e in work:
                rem[e] = work.pop(e)
        else:
            c = work[e]
            for gi in range(nred):
                if _divides(red.lms[gi], e):
                    subtract(e, dom.div(c, red.lcs[gi]), gi)
                    break
            else:
                rem[e] = work.pop(e)
    return rem


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
    for g in polys:
        if g.is_zero():
            raise ZeroPolynomialError("zero divisor in division basis")
    budget = budget or DEFAULT_BUDGET
    keyf = key_function(order or Grevlex(), ring)
    red = _Reducers(keyf)
    for g in polys:
        red.append(g)
    quotients: list[dict] = [{} for _ in polys]
    rem = _nf_terms(f._terms, red, ring, budget, quotients)
    qs = [Polynomial._make(ring, qd) for qd in quotients]
    return qs, Polynomial._make(ring, rem)


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial] | GroebnerBasis,
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> Polynomial:
    if isinstance(basis, GroebnerBasis):
        if order is None:
            order = basis.order
        basis = basis.elements
    _, r = divide(f, basis, order, budget)
    return r


# -- S and G polynomials ---------------------------------------------------------


def _leading(p: Polynomial, keyf) -> tuple[Exponents, object]:
    e = max(p._terms, key=keyf)
    return e, p._terms[e]


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The S-polynomial; over ZZ leading coefficients are matched by their lcm."""
    ring = _check_same_ring([f, g])
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    keyf = key_function(order or Grevlex(), ring)
    lmf, lcf = _leading(f, keyf)
    lmg, lcg = _leading(g, keyf)
    lcm_mono = _lcm(lmf, lmg)
    sf = tuple(x - y for x, y in zip(lcm_mono, lmf))
    sg = tuple(x - y for x, y in zip(lcm_mono, lmg))
    if ring.is_int_mode:
        d, _, _ = ext_gcd(lcf, lcg)
        c = abs(lcf * lcg) // d
        return f.mul_term(c // lcf, sf) - g.mul_term(c // lcg, sg)
    dom = ring.domain
    return f.mul_term(dom.div(dom.one, lcf), sf) - g.mul_term(dom.div(dom.one, lcg), sg)


def g_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The G-polynomial (ZZ only): its leading coefficient is gcd(lc f, lc g)."""
    ring = _check_same_ring([f, g])
    if not ring.is_int_mode:
        raise AlgebraError("G-polynomials only exist over ZZ")
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("G-polynomial of a zero polynomial")
    keyf = key_function(order or Grevlex(), ring)
    lmf, lcf = _leading(f, keyf)
    lmg, lcg = _leading(g, keyf)
    lcm_mono = _lcm(lmf, lmg)
    sf = tuple(x - y for x, y in zip(lcm_mono, lmf))
    sg = tuple(x - y for x, y in zip(lcm_mono, lmg))
    _, s, t = ext_gcd(lcf, lcg)
    return f.mul_term(s, sf) + g.mul_term(t, sg)


# -- Buchberger ----------------------------------------------------------------------


def _poly_token(p: Polynomial, keyf, dom):
    return tuple(
        (keyf(e), dom.sort_token(c))
        for e, c in sorted(p._terms.items(), key=lambda t: keyf(t[0]), reverse=True)
    )


def _normalize(p: Polynomial, keyf) -> Polynomial:
    """Monic over a field; positive leading coefficient over ZZ (content kept)."""
    ring = p.ring
    lm = max(p._terms, key=keyf)
    lc = p._terms[lm]
    if ring.is_int_mode:
        return -p if lc < 0 else p
    if lc == ring.domain.one:
        return p
    return p.scale(ring.domain.div(ring.domain.one, lc))


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
    budget = budget or DEFAULT_BUDGET
    polys = []
    for g in gens:
        if g.is_zero():
            continue
        if g not in polys:
            polys.append(g)
    if not polys:
        raise AlgebraError("cannot compute a basis for an empty or all-zero generating set")
    ring = _check_same_ring(polys)
    int_mode = ring.is_int_mode
    keyf = key_function(order, ring)
    for p in polys:
        _degree_guard(p, budget)

    red = _Reducers(keyf)
    heap: list = []
    # The live S-pairs, (i, j) -> lcm of their leading terms, and the active
    # elements, those whose leading term no later one divides.  A heap entry
    # whose S-pair left ``live`` is stale.  Over a field the leading term is
    # the leading monomial (elements are monic); over ZZ it is the pair
    # (monomial, coefficient), kept in ``lts``.
    live: dict[tuple[int, int], object] = {}
    active: list[int] = []
    if int_mode:
        lts: list = []
        t_lcm, t_divides, t_coprime = _term_lcm, _term_divides, _term_coprime

        def t_key(t):
            return keyf(t[0])

    else:
        lts = red.lms
        t_lcm, t_divides, t_coprime, t_key = _lcm, _divides, _coprime, keyf

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

    def add(p: Polynomial) -> None:
        _degree_guard(p, budget)
        red.append(_normalize(p, keyf))
        if int_mode:
            lts.append((red.lms[-1], red.lcs[-1]))
        push_pairs(len(red.polys) - 1)

    for g in polys:
        r = _nf_terms(g._terms, red, ring, budget) if red.polys else dict(g._terms)
        if r:
            add(Polynomial._make(ring, r))

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
        _degree_guard(p, budget)
        r = _nf_terms(p._terms, red, ring, budget)
        if r:
            add(Polynomial._make(ring, r))

    basis = _minimalize(red.polys, keyf, ring)
    basis = _tail_reduce(basis, keyf, ring, budget)
    dom = ring.domain
    basis.sort(key=lambda p: (keyf(max(p._terms, key=keyf)), _poly_token(p, keyf, dom)))
    return GroebnerBasis(ring, order, tuple(basis), reduced=True, strong=int_mode)


def _minimalize(polys: list[Polynomial], keyf, ring: RingSpec) -> list[Polynomial]:
    """Drop elements whose leading term is (strongly) divisible by another's."""
    int_mode = ring.is_int_mode
    dom = ring.domain
    decorated = []
    for p in polys:
        lm = max(p._terms, key=keyf)
        decorated.append((keyf(lm), _poly_token(p, keyf, dom), lm, p._terms[lm], p))
    decorated.sort(key=lambda t: (t[0], t[1]))
    kept: list[tuple[Exponents, object, Polynomial]] = []
    for _, _, lm, lc, p in decorated:
        redundant = False
        for klm, klc, _ in kept:
            if _divides(klm, lm) and (not int_mode or lc % klc == 0):
                redundant = True
                break
        if not redundant:
            kept.append((lm, lc, p))
    return [p for _, _, p in kept]


def _tail_reduce(basis: list[Polynomial], keyf, ring: RingSpec, budget: Budget) -> list[Polynomial]:
    """Reduce every term below each leading term against the other elements.

    ``basis`` is sorted ascending by leading monomial (see ``_minimalize``)
    and only a smaller leading monomial can divide a tail term, so one
    ascending pass against the already reduced prefix is final.  Heads are
    untouched, so the leading terms (and the basis property) are preserved.
    """
    red = _Reducers(keyf)
    for p in basis:
        lm = max(p._terms, key=keyf)
        tail = dict(p._terms)
        head_c = tail.pop(lm)
        new_tail = _nf_terms(tail, red, ring, budget)
        new_tail[lm] = head_c
        red.append(Polynomial._make(ring, new_tail))
    return red.polys


def is_groebner(gb: GroebnerBasis, budget: Budget | None = None) -> bool:
    """Check the basis property directly: every S (and over ZZ, G) polynomial
    must reduce to zero against the basis.  No pair criteria are applied, so
    this is an independent verification, not a replay of the construction."""
    budget = budget or DEFAULT_BUDGET
    polys = list(gb.elements)
    if not polys:
        return False
    ring = _check_same_ring(polys)
    keyf = key_function(gb.order, ring)
    red = _Reducers(keyf)
    for g in polys:
        if g.is_zero():
            return False
        red.append(g)
    for j in range(len(polys)):
        for i in range(j):
            sp = s_polynomial(polys[i], polys[j], gb.order)
            if not sp.is_zero() and _nf_terms(sp._terms, red, ring, budget):
                return False
            if ring.is_int_mode:
                gp = g_polynomial(polys[i], polys[j], gb.order)
                if not gp.is_zero() and _nf_terms(gp._terms, red, ring, budget):
                    return False
    return True
