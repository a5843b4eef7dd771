"""Independent verification oracles used only by the test suite.

Everything here is deliberately written against basic data structures and
textbook algorithms, sharing no code paths with the library it checks:
ideal membership goes through dense linear algebra (fraction Gaussian
elimination over a field, a Hermite style column reduction over the
integers), polynomial identities are confirmed by evaluation on conclusive
integer grids, and gcds fall back to plain repeated remainders.  The
reference Groebner engines, over a field and over ZZ, bring their own
textbook division and S- and G-polynomials, written on ``Polynomial``
arithmetic and the order's key tuples, so that they share no reduction code
with the library's engine, and apply no pair criterion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from powerstable import FpElement, Polynomial
from powerstable.orders import key_function


def euclid_gcd(a: int, b: int) -> int:
    """Greatest common divisor by repeated remainder, always >= 0."""
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _scalar(c):
    # FpElement -> residue; int and Fraction pass through unchanged
    return c.residue if isinstance(c, FpElement) else c


def _modulus(ring):
    return ring.domain.p if ring.domain.name == "Fp" else None


def _field_div(a, b):
    # a / b in QQ or GF(p)
    return a * b.inverse() if isinstance(b, FpElement) else a / b


# -- evaluation ---------------------------------------------------------------


def eval_poly(f: Polynomial, point: tuple[int, ...]):
    """Evaluate f at integer coordinates, in the coefficient domain.

    Returns an int over ZZ, a Fraction over QQ, and a residue in [0, p)
    over GF(p).
    """
    p = _modulus(f.ring)
    total = Fraction(0) if f.ring.domain.name == "QQ" else 0
    for e, c in f.terms():
        v = _scalar(c)
        for x, k in zip(point, e):
            if k:
                v = v * x**k
        total = total + v
    return total % p if p is not None else total


def grid_points(nvars: int, degree: int):
    """All integer points of the (degree+1)^nvars grid."""
    return itertools.product(range(degree + 1), repeat=nvars)


def grid_equal(f: Polynomial, g: Polynomial) -> bool:
    """Decide f == g by evaluation on a grid large enough to be conclusive.

    A nonzero polynomial of degree at most d in each variable cannot vanish
    on a (d+1)-point-per-axis grid, so grid agreement proves equality.  Over
    GF(p) the criterion needs d < p; larger degrees are refused rather than
    answered unsoundly.
    """
    if f.ring != g.ring:
        return False
    d = 0
    for poly in (f, g):
        for e, _ in poly.terms():
            for k in e:
                d = max(d, k)
    p = _modulus(f.ring)
    if p is not None and d >= p:
        raise ValueError(f"grid criterion needs per-variable degree < {p}")
    n = len(f.ring.variables)
    return all(eval_poly(f, pt) == eval_poly(g, pt) for pt in grid_points(n, d))


# -- naive multiplication -------------------------------------------------------


def naive_product(f: Polynomial, g: Polynomial) -> dict:
    """Term map of f*g computed by direct convolution into a plain dict.

    Returns {exponents: scalar} with int or Fraction values (residues over
    GF(p)) for comparison against the library's product.
    """
    p = _modulus(f.ring)
    out: dict = {}
    for ef, cf in f.terms():
        for eg, cg in g.terms():
            e = tuple(a + b for a, b in zip(ef, eg))
            out[e] = out.get(e, 0) + _scalar(cf) * _scalar(cg)
    if p is not None:
        out = {e: v % p for e, v in out.items()}
    return {e: v for e, v in out.items() if v}


def term_map(f: Polynomial) -> dict:
    """f's term map with plain scalars, matching naive_product's convention."""
    return {e: _scalar(c) for e, c in f.terms()}


# -- linear solvers --------------------------------------------------------------


def _gauss_solve(M, ncols, zero, sub, mul, div):
    # M is the augmented matrix, mutated in place; returns x or None
    m = len(M)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if M[i][c] != zero), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        piv = M[r][c]
        for i in range(m):
            if i != r and M[i][c] != zero:
                t = div(M[i][c], piv)
                M[i] = [sub(a, s) for a, s in zip(M[i], (mul(t, v) for v in M[r]))]
        pivots.append((r, c))
        r += 1
    if any(M[i][ncols] != zero for i in range(r, m)):
        return None
    x = [zero] * ncols
    for pr, pc in pivots:
        x[pc] = div(M[pr][ncols], M[pr][pc])
    return x


def solve_field_qq(A, b):
    """Solve A x = b over the rationals; returns a Fraction list or None."""
    M = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(A, b)]
    n = len(A[0]) if A else 0
    return _gauss_solve(
        M, n, Fraction(0), lambda a, c: a - c, lambda a, c: a * c, lambda a, c: a / c
    )


def solve_field_fp(A, b, p):
    """Solve A x = b over GF(p); entries are treated as residues."""
    M = [[v % p for v in row] + [rhs % p] for row, rhs in zip(A, b)]
    n = len(A[0]) if A else 0
    return _gauss_solve(
        M,
        n,
        0,
        lambda a, c: (a - c) % p,
        lambda a, c: (a * c) % p,
        lambda a, c: a * pow(c, -1, p) % p,
    )


def solve_integer(A, b):
    """Solve A x = b over the integers; returns an int list or None.

    Column reduction to Hermite style echelon form with a recorded
    transformation, then forward substitution; any returned solution is
    re-multiplied against the original system as a self check.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return [] if all(v == 0 for v in b) else None
    M = [list(row) for row in A]
    # M = A . T stays invariant under the paired column operations
    T = [[int(i == j) for j in range(n)] for i in range(n)]

    def axpy(dst, src, q):
        if q:
            for i in range(m):
                M[i][dst] -= q * M[i][src]
            for i in range(n):
                T[i][dst] -= q * T[i][src]

    def swap(a, c):
        if a != c:
            for i in range(m):
                M[i][a], M[i][c] = M[i][c], M[i][a]
            for i in range(n):
                T[i][a], T[i][c] = T[i][c], T[i][a]

    def negate(c):
        for i in range(m):
            M[i][c] = -M[i][c]
        for i in range(n):
            T[i][c] = -T[i][c]

    pivots = []
    c = 0
    for r in range(m):
        if c == n:
            break
        while True:
            live = [j for j in range(c, n) if M[r][j]]
            if not live:
                break
            swap(c, min(live, key=lambda j: abs(M[r][j])))
            clean = True
            for j in range(c + 1, n):
                if M[r][j]:
                    axpy(j, c, M[r][j] // M[r][c])
                    if M[r][j]:
                        clean = False
            if clean:
                break
        if M[r][c]:
            if M[r][c] < 0:
                negate(c)
            pivots.append((r, c))
            c += 1
    res = list(b)
    y = [0] * n
    pi = 0
    for r in range(m):
        if pi < len(pivots) and pivots[pi][0] == r:
            pc = pivots[pi][1]
            q, rem = divmod(res[r], M[r][pc])
            if rem:
                return None
            y[pc] = q
            for i in range(m):
                res[i] -= q * M[i][pc]
            pi += 1
        elif res[r]:
            return None
    x = [sum(T[i][j] * y[j] for j in range(n)) for i in range(n)]
    for i in range(m):
        if sum(A[i][j] * x[j] for j in range(n)) != b[i]:
            raise AssertionError("integer solver produced an invalid certificate")
    return x


# -- ideal membership by dense linear algebra ---------------------------------------


def monomials_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= degree, in a fixed order."""
    return [
        e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree
    ]


def macaulay_member(f: Polynomial, gens, max_degree: int = 6) -> bool:
    """Decide whether f = sum q_i g_i with every product of degree <= max_degree.

    One column per (generator, multiplier monomial) pair, one row per
    monomial of total degree up to the bound; solvability of the resulting
    linear system over the coefficient domain is exactly bounded-degree
    membership.  Sound unconditionally; complete for certificates within the
    bound, so callers pick bounds their instances justify.
    """
    ring = f.ring
    gens = [g for g in gens if not g.is_zero()]
    if f.is_zero():
        return True
    if not gens:
        return False
    if f.total_degree() > max_degree:
        raise ValueError("probe degree exceeds the oracle bound")
    nv = len(ring.variables)
    rows = monomials_up_to(nv, max_degree)
    row_of = {e: i for i, e in enumerate(rows)}
    p = _modulus(ring)
    rational = ring.domain.name == "QQ"
    zero = Fraction(0) if rational else 0
    cols = []
    for g in gens:
        dg = g.total_degree()
        if dg > max_degree:
            continue
        for mono in monomials_up_to(nv, max_degree - dg):
            col = [zero] * len(rows)
            for e, cf in g.terms():
                shifted = tuple(a + b for a, b in zip(e, mono))
                col[row_of[shifted]] = col[row_of[shifted]] + _scalar(cf)
            cols.append(col)
    if not cols:
        return False
    b = [zero] * len(rows)
    for e, cf in f.terms():
        b[row_of[e]] = b[row_of[e]] + _scalar(cf)
    A = [[col[i] for col in cols] for i in range(len(rows))]
    if ring.domain.name == "ZZ":
        return solve_integer(A, b) is not None
    if p is not None:
        return solve_field_fp(A, b, p) is not None
    return solve_field_qq(A, b) is not None


# -- reference Groebner engine -----------------------------------------------------


class PairLimit(Exception):
    """The reference engine processed more pairs than its caller allowed."""


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lead(f: Polynomial, order) -> tuple[tuple[int, ...], object]:
    # leading (monomial, coefficient) by the order's key tuples
    keyf = key_function(order, f.ring)
    return max(f.terms(), key=lambda t: keyf(t[0]))


def _shift(big, small) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(big, small))


def _ext_euclid(a: int, b: int) -> tuple[int, int, int]:
    # (d, s, t) with d = gcd(a, b) >= 0 and d = s*a + t*b
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    d, s, t = _ext_euclid(b, a % b)
    return d, t, s - (a // b) * t


def reference_normal_form(f: Polynomial, G, order) -> Polynomial:
    """Textbook multivariate division: the remainder of f by the list G.

    The leading term of what is left is cancelled by the first element whose
    leading monomial divides it; over ZZ the first one that leaves a smaller
    non-negative remainder, and the term is retried until none does.  A term
    nothing divides moves to the remainder.
    """
    ring = f.ring
    int_mode = ring.is_int_mode
    heads = [_lead(g, order) for g in G]
    p, r = f, Polynomial.zero(ring)
    while not p.is_zero():
        e, c = _lead(p, order)
        for g, (lm, lc) in zip(G, heads):
            if not _divides(lm, e):
                continue
            if int_mode:
                q = (c - c % abs(lc)) // lc
                if not q:
                    continue
            else:
                q = _field_div(c, lc)
            p = p - Polynomial(ring, {_shift(e, lm): q}) * g
            break
        else:
            term = Polynomial(ring, {e: c})
            r, p = r + term, p - term
    return r


def reference_s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """Textbook S-polynomial; over ZZ the leading coefficients are matched
    by their lcm."""
    (ef, cf), (eg, cg) = _lead(f, order), _lead(g, order)
    m = tuple(max(x, y) for x, y in zip(ef, eg))
    ring = f.ring
    if ring.is_int_mode:
        c = abs(cf * cg) // euclid_gcd(cf, cg)
        sf, sg = c // cf, c // cg
    else:
        one = ring.domain.one
        sf, sg = _field_div(one, cf), _field_div(one, cg)
    return Polynomial(ring, {_shift(m, ef): sf}) * f - Polynomial(ring, {_shift(m, eg): sg}) * g


def reference_g_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """Textbook G-polynomial over ZZ: s*f*x^(m - lm f) + t*g*x^(m - lm g),
    with s*lc(f) + t*lc(g) = gcd(lc(f), lc(g))."""
    (ef, cf), (eg, cg) = _lead(f, order), _lead(g, order)
    m = tuple(max(x, y) for x, y in zip(ef, eg))
    _, s, t = _ext_euclid(cf, cg)
    ring = f.ring
    return Polynomial(ring, {_shift(m, ef): s}) * f + Polynomial(ring, {_shift(m, eg): t}) * g


def _all_pairs(gens, order, max_pairs, makers) -> list[Polynomial]:
    # every pair of elements, each maker once per pair, no criterion at all;
    # every nonzero remainder joins the basis
    G = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    done = 0
    while pairs:
        i, j = pairs.pop(0)
        for make in makers:
            done += 1
            if done > max_pairs:
                raise PairLimit(f"more than {max_pairs} pairs")
            h = make(G[i], G[j], order)
            r = reference_normal_form(h, G, order) if not h.is_zero() else h
            if not r.is_zero():
                pairs += [(k, len(G)) for k in range(len(G))]
                G.append(r)
    return G


def _minimal(G, heads, divides) -> list[Polynomial]:
    # drop elements whose head another one divides; the first of equal ones stays
    return [
        g
        for k, (g, h) in enumerate(zip(G, heads))
        if not any(
            divides(other, h) and (other != h or m < k) for m, other in enumerate(heads) if m != k
        )
    ]


def _tail_reduced(basis, order) -> list[Polynomial]:
    # each tail reduced against the other elements, sorted by leading monomial
    ring = basis[0].ring
    reduced = []
    for k, g in enumerate(basis):
        lm, lc = _lead(g, order)
        head = Polynomial(ring, {lm: lc})
        others = basis[:k] + basis[k + 1 :]
        reduced.append(head + reference_normal_form(g - head, others, order) if others else g)
    keyf = key_function(order, ring)
    return sorted(reduced, key=lambda g: keyf(_lead(g, order)[0]))


def reference_groebner(gens, order, max_pairs: int = 400) -> list[Polynomial]:
    """The reduced Groebner basis over a field, by textbook Buchberger.

    Every pair of elements is reduced, with no criterion at all, and every
    nonzero remainder joins the basis.  Then elements whose leading
    monomial another one divides are dropped (the first of equal ones
    stays), the rest are made monic and their tails are reduced against the
    others.  The result is sorted ascending by leading monomial.  Raises
    PairLimit after ``max_pairs`` pairs.
    """
    G = _all_pairs(gens, order, max_pairs, (reference_s_polynomial,))
    minimal = _minimal(G, [_lead(g, order)[0] for g in G], _divides)
    ring = minimal[0].ring
    monic = [
        Polynomial.constant(ring, _field_div(ring.domain.one, _lead(g, order)[1])) * g
        for g in minimal
    ]
    return _tail_reduced(monic, order)


def _term_divides(a, b) -> bool:
    # leading terms (monomial, coefficient) over ZZ
    return _divides(a[0], b[0]) and b[1] % a[1] == 0


def reference_strong_groebner(gens, order, max_pairs: int = 400) -> list[Polynomial]:
    """The reduced strong Groebner basis over ZZ, by textbook Buchberger.

    Every pair of elements gives both its S- and its G-polynomial, with no
    criterion at all, and every nonzero remainder joins the basis.  Then
    leading coefficients are made positive, elements whose leading term
    another one divides (monomial and coefficient) are dropped (the first
    of equal ones stays), and the tails are reduced against the others.
    The result is sorted ascending by leading monomial.  Raises PairLimit
    after ``max_pairs`` S- and G-polynomials.
    """
    G = _all_pairs(gens, order, max_pairs, (reference_s_polynomial, reference_g_polynomial))
    G = [-g if _lead(g, order)[1] < 0 else g for g in G]
    minimal = _minimal(G, [_lead(g, order) for g in G], _term_divides)
    return _tail_reduced(minimal, order)


# -- reference saturation -------------------------------------------------------------


def reference_saturation(ideal, f, max_steps: int = 64):
    """(I : f^infinity) as the limit of the ascending chain (I : f^k).

    Each step is one colon ideal through the library's ``quotient``: the
    intersection with (f), then exact division, or over a field by a unit
    times a variable the homogenized grevlex basis divided by that variable.
    Either is a different route from the elimination of the trick variable
    in 1 - y*f that ``saturate`` takes.  (I : f^(k+1)) = ((I : f^k) : f),
    so the chain is final at its first repeat; it must repeat within
    ``max_steps`` quotients.
    """
    current = ideal
    for _ in range(max_steps):
        nxt = current.quotient(f)
        if nxt.equals(current):
            return current
        current = nxt
    raise AssertionError(f"quotient chain did not stabilize within {max_steps} steps")
