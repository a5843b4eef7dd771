"""Groebner bases: field Buchberger, strong bases over ZZ, division, budgets."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import powerstable.groebner
from powerstable import (
    AlgebraError,
    BlockElim,
    Budget,
    BudgetExceededError,
    Grevlex,
    GroebnerBasis,
    Ideal,
    Lex,
    Polynomial,
    RingMismatchError,
    RingSpec,
    ZeroPolynomialError,
    divide,
    example_3_12,
    format_poly,
    g_polynomial,
    groebner_basis,
    is_groebner,
    normal_form,
    parse_poly,
    s_polynomial,
)
from powerstable.groebner import (
    _compiled,
    _engine_poly,
    _minimal,
    _normalized,
    _pair,
    _product,
    _reduce,
    _Reducers,
    _to_polynomial,
)
from powerstable.orders import key_function, parse_order

from helpers import rand_gens
from oracles import (
    PairLimit,
    macaulay_member,
    reference_g_polynomial,
    reference_groebner,
    reference_normal_form,
    reference_s_polynomial,
    reference_strong_groebner,
)
from test_acceptance import _monic_instance

ZX = RingSpec.parse("ZZ[X]")
QYX = RingSpec.parse("QQ[Y][X]")
QYZ = RingSpec.parse("QQ[Y,Z]")
F7 = RingSpec.parse("Fp(7)[Y][X]")
QYZW = RingSpec.parse("QQ[Y,Z,W]")
F7YZX = RingSpec.parse("Fp(7)[Y,Z][X]")
QYZX = RingSpec.parse("QQ[Y,Z][X]")
F32003 = RingSpec.parse("Fp(32003)[A,B,C,D]")


def texts(gb):
    return [format_poly(p) for p in gb]


# -- field mode -----------------------------------------------------------------


def test_linear_system_reduces_to_triangular_form():
    lex = Lex(("X", "Y"))
    gb = groebner_basis([parse_poly("X - Y", QYX), parse_poly("Y - 1", QYX)], lex)
    assert texts(gb) == ["Y - 1", "X - 1"]
    assert gb.reduced and not gb.strong
    assert is_groebner(gb)


def test_classic_lex_pair_needs_its_s_polynomial():
    lex = Lex(("X", "Y"))
    f = parse_poly("X*Y - 1", QYX)
    g = parse_poly("Y^2 - 1", QYX)
    fake = GroebnerBasis(QYX, lex, (f, g), reduced=False, strong=False)
    assert not is_groebner(fake)
    gb = groebner_basis([f, g], lex)
    # display order is always grevlex, where Y outranks X on a degree tie
    assert texts(gb) == ["Y^2 - 1", "-Y + X"]
    assert [p.leading_term(lex)[1] for p in gb] == [Fraction(1), Fraction(1)]
    assert is_groebner(gb)
    assert normal_form(f, gb).is_zero()


def test_a_basis_that_holds_the_zero_polynomial_is_not_groebner():
    # a basis of leading terms has no place for 0, whatever its other elements
    for ring, text in ((QYX, "X*Y - 1"), (ZX, "2*X")):
        zero = Polynomial.zero(ring)
        for elements in ((zero,), (parse_poly(text, ring), zero)):
            fake = GroebnerBasis(ring, Grevlex(), elements, reduced=False, strong=ring is ZX)
            assert not is_groebner(fake)


def test_field_elements_are_monic():
    rng = random.Random("monic:0")
    for ring in (QYZ, F7):
        for _ in range(10):
            gb = groebner_basis(rand_gens(rng, ring, rng.randint(1, 3), 3))
            keyf = key_function(gb.order, ring)
            for p in gb:
                _, lc = p.leading_term(gb.order)
                assert lc == ring.domain.one
            assert is_groebner(gb)


def test_reduced_basis_unique_under_shuffle_and_scaling():
    rng = random.Random("unique:1")
    for _ in range(20):
        gens = rand_gens(rng, QYZ, rng.randint(2, 4), 3)
        reference = groebner_basis(gens).elements
        for _ in range(5):
            variant = gens[:]
            rng.shuffle(variant)
            variant = [
                Polynomial.constant(QYZ, Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))) * g
                for g in variant
            ]
            assert groebner_basis(variant).elements == reference


def test_groebner_basis_is_idempotent():
    rng = random.Random("idem:2")
    for ring in (QYZ, ZX):
        for _ in range(8):
            gb = groebner_basis(rand_gens(rng, ring, 2, 3))
            again = groebner_basis(list(gb.elements), gb.order)
            assert again.elements == gb.elements


@pytest.mark.parametrize("ring", [QYZ, F7, ZX], ids=str)
def test_no_tail_term_is_reducible_by_another_element(ring):
    """Reducedness checked term by term, independently of the engine's own
    interreduction: over a field no other leading monomial divides a tail
    term; over ZZ a dividing one must leave a zero least-remainder quotient.
    The basis is minimal: no leading term divides another (over ZZ, strongly:
    monomial and coefficient), and leading monomials strictly ascend."""
    rng = random.Random(f"tail:{ring}")
    for spec in ("grevlex", "lex", f"elim:{ring.variables[0]}"):
        order = parse_order(spec)
        keyf = key_function(order, ring)
        for _ in range(6):
            gb = groebner_basis(rand_gens(rng, ring, rng.randint(2, 3), 3), order)
            heads = [p.leading_term(order) for p in gb]
            keys = [keyf(lm) for lm, _ in heads]
            assert keys == sorted(set(keys)), (spec, texts(gb))
            for i, (lm_i, lc_i) in enumerate(heads):
                for j, (lm_j, lc_j) in enumerate(heads):
                    if j == i or any(x > y for x, y in zip(lm_j, lm_i)):
                        continue
                    assert ring.is_int_mode and lc_i % lc_j, (spec, texts(gb))
            for i, p in enumerate(gb):
                for e, c in p.terms():
                    if e == heads[i][0]:
                        continue
                    for j, (lm, lc) in enumerate(heads):
                        if j == i or any(x > y for x, y in zip(lm, e)):
                            continue
                        assert ring.is_int_mode, (spec, format_poly(p))
                        assert 0 <= c < abs(lc), (spec, format_poly(p))


# -- pair criteria (field mode) ---------------------------------------------------


@pytest.mark.parametrize(
    "ring",
    [QYZW, F7YZX, F32003],
    ids=str,
)
def test_engine_matches_the_criterion_free_reference(ring):
    """The engine, with its pair criteria, returns exactly the reduced basis
    of a plain all-pairs Buchberger.  Inputs whose reference run exceeds its
    pair limit are skipped; nearly all of them finish."""
    v = ring.variables
    compared = 0
    for spec in ("grevlex", "lex", f"elim:{v[0]}", f"elim:{v[0]},{v[1]}"):
        order = parse_order(spec)
        for seed in range(8):
            rng = random.Random(f"reference:{ring}:{spec}:{seed}")
            gens = rand_gens(rng, ring, rng.randint(2, 4), 3)
            try:
                expected = reference_groebner(gens, order, max_pairs=150)
            except PairLimit:
                continue
            assert list(groebner_basis(gens, order).elements) == expected, (spec, seed)
            compared += 1
    assert compared >= 28


def test_chain_criterion_keeps_the_pair_count_down(pair_calls):
    """Pin the criteria: with the product criterion alone this elimination
    processes 180 S-pairs."""
    gens = _monic_instance(36).power(3).generators
    groebner_basis(gens, BlockElim(("X",)))
    assert len(pair_calls) <= 45


def test_pair_budget_counts_processed_pairs_only(pair_calls):
    """max_pairs caps the S-pairs reduced; pairs a criterion discards, also
    those already queued when a later element makes them redundant, are
    free."""
    # queued pairs go stale between processed ones here, not only at the end
    gens = rand_gens(random.Random("budget:6"), QYZW, 4, 3)
    expected = groebner_basis(gens).elements
    n = len(pair_calls)
    assert n > 1
    assert groebner_basis(gens, budget=Budget(max_pairs=n)).elements == expected
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, budget=Budget(max_pairs=n - 1))


def _tuple_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("zz", [False, True], ids=["monomials", "ZZ terms"])
def test_minimal_pair_filter_matches_its_definition(zz):
    """On packed terms: each term no other term properly divides keeps all
    its indices, in order, so a pair update that takes the first index keeps
    the first pair (criterion F), and the terms come out in first-seen
    order, whatever order the filter scans them in.  Over ZZ a term is
    (monomial, coefficient), and c*x^a divides d*x^b when c | d and
    x^a | x^b.  Lists reach 60 pairs; the largest call of the benchmark
    workloads gets 33."""
    cord = _compiled(Grevlex(), QYZW, 60)
    monomial = st.tuples(*[st.integers(0, 3)] * 3)
    terms = st.tuples(monomial, st.integers(1, 6)) if zz else monomial

    def divides(u, t):
        if zz:
            return t[1] % u[1] == 0 and _tuple_divides(u[0], t[0])
        return _tuple_divides(u, t)

    def packed(t):
        return (cord.key(t[0]) & cord.mask, t[1]) if zz else cord.key(t) & cord.mask

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 59), terms), max_size=60))
    def check(pairs):
        expected = {}
        for _, t in pairs:
            if packed(t) not in expected and not any(u != t and divides(u, t) for _, u in pairs):
                expected[packed(t)] = [i for i, u in pairs if u == t]
        got = _minimal([(i, packed(t)) for i, t in pairs], cord, zz)
        assert list(got.items()) == list(expected.items())

    check()
    exps = ((1, 0, 2), (1, 1, 2), (2, 1, 2), (0, 3, 0))
    m, mx, mxy, z3 = (cord.key(e) & cord.mask for e in exps)
    if zz:
        # one monomial: 2 divides 4 and 8, while 2 and 3 divide neither other
        assert _minimal([(0, (m, 4)), (1, (m, 2)), (2, (m, 8))], cord, True) == {(m, 2): [1]}
        assert _minimal([(0, (m, 2)), (1, (m, 3))], cord, True) == {(m, 2): [0], (m, 3): [1]}
        # across degrees: (m, 2) divides (m, 8) and (m, 4), not (m*x, 1)
        got = _minimal([(0, (m, 8)), (1, (m, 2)), (2, (mx, 1)), (3, (m, 4))], cord, True)
        assert list(got.items()) == [((m, 2), [1]), ((mx, 1), [2])]
        # a higher degree seen first keeps its place; equal terms keep their indices
        pairs = [(5, (mxy, 3)), (2, (mx, 6)), (4, (m, 2)), (1, (mxy, 3)), (0, (mxy, 4))]
        got = _minimal(pairs, cord, True)
        assert list(got.items()) == [((mxy, 3), [5, 1]), ((m, 2), [4])]
    else:
        # m*x divides m*x*y and m^2*x*y (packed monomials multiply by adding)
        got = _minimal([(3, mxy), (1, mx), (2, mxy), (0, m + mxy)], cord, False)
        assert list(got.items()) == [(mx, [1])]
        # the lower degree is scanned first, the higher one seen first stays first
        got = _minimal([(3, mxy), (1, z3), (2, mxy)], cord, False)
        assert list(got.items()) == [(mxy, [3, 2]), (z3, [1])]


@pytest.mark.parametrize("ring", [QYX, F7], ids=str)
def test_an_irreducible_head_comes_back_at_once_over_a_field(ring):
    """Over a field, head reduction returns the very list it was given when
    no reducer's leading monomial divides its head, although the tail is
    reducible; the entry degree check still comes first."""
    order = BlockElim(("X",))
    cord = _compiled(order, ring, 60)
    red = groebner_basis([parse_poly(g, ring) for g in ("Y^3 - 1", "X^3 - Y")], order)._final
    assert red.cord is cord and len(red.polys) == 2
    terms = _engine_poly(parse_poly("Y*X^2 + X + Y^5", ring), cord)[0]
    r, M = _reduce(terms, red, 60, head=True)
    assert r is terms and M == 1
    assert _reduce(terms, red, 60)[0] != terms  # Y^5 reduces
    with pytest.raises(BudgetExceededError, match=re.escape("(term of degree 5)")):
        _reduce(terms, red, 4, head=True)


def test_a_head_over_zz_reduces_only_by_a_nonzero_quotient():
    """Over ZZ, X against the reducer 2*X is irreducible and comes back
    itself; 3*X reduces to X."""
    cord = _compiled(Grevlex(), ZX, 60)
    red = _Reducers(cord)
    red.append(_engine_poly(parse_poly("2*X", ZX), cord)[0])
    x = _engine_poly(parse_poly("X", ZX), cord)[0]
    assert _reduce(x, red, 60, head=True)[0] is x
    three = _engine_poly(parse_poly("3*X", ZX), cord)[0]
    assert _reduce(three, red, 60, head=True) == (x, 1)


# -- strong bases over ZZ ---------------------------------------------------------


def test_strong_basis_of_the_square_root_of_two_ideal():
    gb = groebner_basis([parse_poly("X^2 - 2", ZX), parse_poly("X^3", ZX)])
    assert texts(gb) == ["4", "2*X", "X^2 + 2"]
    assert gb.strong and gb.reduced
    assert is_groebner(gb)
    assert normal_form(parse_poly("4", ZX), gb).is_zero()
    assert normal_form(parse_poly("2*X", ZX), gb).is_zero()
    assert not normal_form(parse_poly("2", ZX), gb).is_zero()
    assert not normal_form(parse_poly("X", ZX), gb).is_zero()
    # dual route: bounded-degree linear algebra agrees on the same facts
    gens = [parse_poly("X^2 - 2", ZX), parse_poly("X^3", ZX)]
    assert macaulay_member(parse_poly("4", ZX), gens)
    assert macaulay_member(parse_poly("2*X", ZX), gens)
    assert not macaulay_member(parse_poly("2", ZX), gens)


def test_strong_basis_equals_original_ideal():
    gens = [parse_poly("X^2 - 2", ZX), parse_poly("X^3", ZX)]
    gb = groebner_basis(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero()
    inner = groebner_basis(list(gb.elements))
    for p in gb:
        assert normal_form(p, groebner_basis(gens)).is_zero()
    assert inner.elements == gb.elements


def test_disjoint_leading_monomials_still_interact_over_zz():
    # (2, 3X) contains X = 3X - X*2; a product-criterion shortcut would miss it
    two = parse_poly("2", ZX)
    threex = parse_poly("3*X", ZX)
    fake = GroebnerBasis(ZX, Grevlex(), (two, threex), reduced=False, strong=True)
    assert not is_groebner(fake)
    gb = groebner_basis([two, threex])
    assert texts(gb) == ["2", "X"]
    assert normal_form(parse_poly("X", ZX), gb).is_zero()


def test_leading_coefficients_positive_over_zz():
    rng = random.Random("poslc:3")
    for _ in range(10):
        gb = groebner_basis(rand_gens(rng, ZX, rng.randint(1, 3), 3))
        for p in gb:
            _, lc = p.leading_term(gb.order)
            assert lc > 0
        assert is_groebner(gb)


def test_content_is_not_removed():
    gb = groebner_basis([parse_poly("2*X^2 + 4", ZX)])
    assert texts(gb) == ["2*X^2 + 4"]
    assert not normal_form(parse_poly("X^2 + 2", ZX), gb).is_zero()


def test_normal_form_reduces_integer_coefficients():
    # least non-negative remainder: 5 = 2*2 + 1
    assert normal_form(parse_poly("5", ZX), [parse_poly("2", ZX)]) == parse_poly("1", ZX)
    assert normal_form(parse_poly("-1", ZX), [parse_poly("2", ZX)]) == parse_poly("1", ZX)
    assert normal_form(parse_poly("7*X + 9", ZX), [parse_poly("3", ZX)]) == parse_poly(
        "X", ZX
    )


# -- pair criteria (ZZ) ---------------------------------------------------------------


@pytest.mark.parametrize(
    "tags", [(), ("_T0",), ("_T0", "_T1")], ids=["ZZ[X]", "one tag", "two tags"]
)
def test_strong_engine_matches_the_criterion_free_reference(tags):
    """Over ZZ too, the engine with its pair criteria returns exactly the
    reduced strong basis of an all-pairs S- and G-polynomial Buchberger.
    Inputs whose reference run exceeds its pair limit are skipped; more
    than half of them finish."""
    ring = ZX.extend_aux(*tags)
    orders = {"grevlex": Grevlex(), "lex": Lex(ring.variables)}
    if tags:
        orders["elim"] = BlockElim(("_T0",))
    compared = 0
    for name, order in orders.items():
        for seed in range(16):
            rng = random.Random(f"strong-reference:{len(tags)}:{name}:{seed}")
            gens = rand_gens(rng, ring, rng.randint(2, 4), 3, 9)
            try:
                expected = reference_strong_groebner(gens, order, max_pairs=100)
            except PairLimit:
                continue
            assert list(groebner_basis(gens, order).elements) == expected, (name, seed)
            compared += 1
    assert compared >= 16


def test_strong_criteria_keep_the_pair_count_down(pair_calls):
    """Pin the ZZ criteria: with every S- and G-pair reduced this strong
    basis forms 132 of them."""
    groebner_basis(example_3_12(3).power(3).generators)
    assert len(pair_calls) <= 26


def test_pair_budget_counts_processed_pairs_only_over_zz(pair_calls):
    """Over ZZ, max_pairs caps the S- and G-pairs reduced: S-pairs that go
    stale in the queue and G-pairs skipped when popped are free."""
    gens = example_3_12(3).power(3).generators
    expected = groebner_basis(gens).elements
    n = len(pair_calls)
    assert n > 1
    assert groebner_basis(gens, budget=Budget(max_pairs=n)).elements == expected
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, budget=Budget(max_pairs=n - 1))


# -- division transcript -----------------------------------------------------------


@pytest.mark.parametrize("ring", [ZX, QYX, F7], ids=["ZZ[X]", "QQ[Y][X]", "F7[Y][X]"])
def test_division_transcript_is_exact(ring):
    rng = random.Random(f"divide:{ring}")
    keyf = key_function(Grevlex(), ring)
    for _ in range(25):
        basis = rand_gens(rng, ring, rng.randint(1, 3), 2)
        f = rand_gens(rng, ring, 1, 4)[0]
        qs, r = divide(f, basis)
        total = r
        for q, g in zip(qs, basis):
            total = total + q * g
        assert total == f
        # no remainder term is divisible by a leading term
        for e, c in r.terms():
            for g in basis:
                lm, lc = g.leading_term(Grevlex())
                if all(x >= y for x, y in zip(e, lm)):
                    assert ring.is_int_mode
                    assert 0 <= (c if isinstance(c, int) else 0) < abs(lc)


def test_divide_rejects_zero_divisors():
    with pytest.raises(ZeroPolynomialError):
        divide(parse_poly("X", ZX), [Polynomial.zero(ZX)])
    qs, r = divide(parse_poly("X", ZX), [])
    assert qs == [] and r == parse_poly("X", ZX)
    x, zero = parse_poly("X", ZX), Polynomial.zero(ZX)
    for f, g in ((zero, x), (x, zero)):
        with pytest.raises(ZeroPolynomialError, match="S-polynomial of a zero polynomial"):
            s_polynomial(f, g)
        with pytest.raises(ZeroPolynomialError, match="G-polynomial of a zero polynomial"):
            g_polynomial(f, g)


def test_normal_form_is_idempotent_and_detects_membership():
    rng = random.Random("nf:4")
    for ring in (QYZ, ZX):
        for _ in range(10):
            gens = rand_gens(rng, ring, 2, 2)
            gb = groebner_basis(gens)
            f = rand_gens(rng, ring, 1, 3)[0]
            r = normal_form(f, gb)
            assert normal_form(r, gb) == r
            # f - r is an explicit member
            assert normal_form(f - r, gb).is_zero()


# -- S and G polynomials -------------------------------------------------------------


def test_s_polynomial_antisymmetry_over_fields():
    rng = random.Random("spair:5")
    for _ in range(20):
        f, g = rand_gens(rng, QYZ, 2, 3)
        assert s_polynomial(f, g) == -s_polynomial(g, f)
        assert s_polynomial(f, f).is_zero()


def test_g_polynomial_realizes_the_gcd():
    f = parse_poly("2*X", ZX)
    g = parse_poly("3*X", ZX)
    gp = g_polynomial(f, g)
    e, c = gp.leading_term(Grevlex())
    assert e == (1,) and c == 1
    # extended Euclid gives 4 = (-1)*4 + (-1)*(-8): the inputs keep their signs
    gp = g_polynomial(parse_poly("4*X^2 + 3", ZX), parse_poly("-8*X", ZX))
    assert gp == parse_poly("4*X^2 - 3", ZX)
    with pytest.raises(AlgebraError):
        g_polynomial(parse_poly("Y", QYX), parse_poly("X", QYX))


# -- agreement with the linear-algebra oracle ------------------------------------------


def test_membership_agrees_with_macaulay_oracle_over_zz():
    rng = random.Random("macaulay:6")
    x = Polynomial.variable(ZX, "X")
    for _ in range(20):
        gens = rand_gens(rng, ZX, rng.randint(1, 3), 3)
        gb = groebner_basis(gens)
        assert is_groebner(gb)
        # a designed member: small combination of the generators
        member = Polynomial.zero(ZX)
        for g in gens:
            mult = Polynomial.constant(ZX, rng.randint(-2, 2)) + x ** rng.randint(0, 2)
            member = member + mult * g
        if not member.is_zero() and member.total_degree() <= 6:
            assert normal_form(member, gb).is_zero()
            assert macaulay_member(member, list(gb.elements), 6)
        # a random probe: both routes must agree on the verdict
        probe = rand_gens(rng, ZX, 1, 3)[0]
        if normal_form(probe, gb).is_zero():
            qs, _ = divide(probe, list(gb.elements))
            bound = max(
                [6]
                + [
                    q.total_degree() + g.total_degree()
                    for q, g in zip(qs, gb.elements)
                    if not q.is_zero()
                ]
            )
            assert macaulay_member(probe, list(gb.elements), bound)
        else:
            assert not macaulay_member(probe, list(gb.elements), 6)


def test_membership_agrees_with_macaulay_oracle_over_qq():
    rng = random.Random("macaulay:7")
    for _ in range(10):
        gens = rand_gens(rng, QYZ, 2, 2)
        gb = groebner_basis(gens)
        probe = rand_gens(rng, QYZ, 1, 2)[0]
        if normal_form(probe, gb).is_zero():
            qs, _ = divide(probe, list(gb.elements))
            bound = max(
                [6]
                + [
                    q.total_degree() + g.total_degree()
                    for q, g in zip(qs, gb.elements)
                    if not q.is_zero()
                ]
            )
            assert macaulay_member(probe, list(gb.elements), bound)
        else:
            assert not macaulay_member(probe, list(gb.elements), 6)


# -- budgets and guards ------------------------------------------------------------------


def test_empty_generating_set_rejected():
    """An empty list names no ring; zero polynomials name theirs, and their
    basis, that of the zero ideal, is empty."""
    with pytest.raises(AlgebraError):
        groebner_basis([])
    gb = groebner_basis([Polynomial.zero(ZX), Polynomial.zero(ZX)])
    assert (gb.ring, gb.order, gb.elements) == (ZX, Grevlex(), ())


def test_pair_budget_exhaustion():
    rng = random.Random("budget:8")
    gens = rand_gens(rng, QYZW, 4, 3)
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, budget=Budget(max_pairs=1, max_degree=60))


def test_budget_caps_are_non_negative():
    for caps in ({"max_pairs": -5}, {"max_degree": -1}):
        with pytest.raises(AlgebraError, match="must be non-negative"):
            Budget(**caps)
    # a cap of 0 is valid: X alone needs no pair and has degree 1
    assert texts(groebner_basis([parse_poly("X", ZX)], budget=Budget(max_pairs=0, max_degree=1))) == ["X"]


def test_degree_budget_guards_inputs():
    # a generator, first or later, and a division candidate above the cap
    # raise on entry with their degree
    low = Budget(max_pairs=100, max_degree=4)
    x, x_y = parse_poly("X", QYX), parse_poly("X - Y", QYX)
    zz_basis = groebner_basis([parse_poly("X", ZX)])
    calls = [
        (lambda: groebner_basis([parse_poly("X^5", ZX)], budget=low), 5),
        (lambda: groebner_basis([x_y, parse_poly("Y^7 + X", QYX)], budget=low), 7),
        (lambda: divide(parse_poly("X^6 + Y", QYX), [x_y], budget=low), 6),
        (lambda: normal_form(parse_poly("Y^2*X^3", QYX), [x], budget=low), 5),
        (lambda: normal_form(parse_poly("2*X^9", ZX), zz_basis, budget=low), 9),
    ]
    for call, degree in calls:
        with pytest.raises(
            BudgetExceededError, match=rf"^degree budget 4 exceeded \(term of degree {degree}\)$"
        ):
            call()


@pytest.mark.parametrize(
    "spec, text, degree",
    [
        ("ZZ[X]", "X^300 + 2*X", 300),
        ("QQ[Y][X]", "1/2*Y^128*X + Y", 129),
        ("Fp(7)[Y][X]", "3*X^128 + Y^2", 128),
    ],
    ids=["ZZ[X]", "QQ[Y][X]", "Fp(7)[Y][X]"],
)
def test_an_input_term_above_the_compiled_bound_is_rejected_by_its_degree(spec, text, degree):
    """Under the default budget 60 the order is compiled for 8-bit fields,
    so the key of a term of degree 128 or more is meaningless (128 sets a
    field's guard bit): only the degree an engine term keeps beside its key
    rejects it, on every route into the engine."""
    ring = RingSpec.parse(spec)
    f, x = parse_poly(text, ring), parse_poly("X", ring)
    calls = [
        (lambda: groebner_basis([f]), degree),
        (lambda: normal_form(f, groebner_basis([x])), degree),  # the basis's own reducers
        (lambda: divide(f, [x]), degree),
        (lambda: Ideal(ring, [x]).contains(f), degree),
        (lambda: Ideal(ring, [f, x]).power(2), 2 * degree),
    ]
    for call, n in calls:
        with pytest.raises(BudgetExceededError, match=rf"^degree budget 60 exceeded \(term of degree {n}\)$"):
            call()


def test_degree_budget_guards_reduction_steps():
    # every input is inside the budget, but reducing X by X - Y^10, or the
    # S-polynomial -X*Y^4 of X - Y^4 and X^2 by X - Y^4, forms a term of degree > 5
    x, g = parse_poly("X", QYX), parse_poly("X - Y^10", QYX)
    low = Budget(max_degree=5)
    lex = Lex(("X", "Y"))
    calls = [
        lambda: divide(x, [g], lex, low),
        lambda: normal_form(x, [g], lex, low),
        lambda: groebner_basis(
            [parse_poly("X - Y^4", QYX), parse_poly("X^2", QYX)], BlockElim(("X",)), low
        ),
    ]
    for call in calls:
        with pytest.raises(BudgetExceededError, match="^degree budget 5 exceeded during reduction$"):
            call()


def test_a_deferred_tail_over_the_degree_budget_raises_at_each_read():
    """A basis reduces its tails on read, under the budget it was built
    with.  The X-free prefix of this elimination basis stays within degree
    10, so elimination answers; a later element's tail does not, so every
    read of the whole basis raises, and none hands out a partly reduced
    element."""
    text = "-8*Y^2*Z^2 - 5*Y^3*Z^2 + Y^3*Z^3*X, 2*Y^2*Z^3*X^3 - 6*Y*Z^2*X^3"
    I = Ideal.from_texts(F7YZX, text.split(", "))
    budget = Budget(max_degree=10)
    gb = I.groebner(BlockElim(("X",)), budget)
    expected = "Y^6*Z^3 + 2*Y^5*Z^3 + 4*Y^5*Z^2 + 6*Y^4*Z^3 + Y^4*Z^2 + 6*Y^3*Z^3 + 3*Y^3*Z^2 + 3*Y^2*Z^2"
    assert texts(I.eliminate(("X",), budget).generators) == [expected]
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="^degree budget 10 exceeded during reduction$"):
            gb.elements
        assert "elements" not in vars(gb)
    # uncapped, the same ideal's basis reads whole and holds the same prefix
    full = Ideal.from_texts(F7YZX, text.split(", ")).groebner(BlockElim(("X",)))
    assert texts(full.elements)[0] == expected and is_groebner(full)


def test_mixed_rings_rejected():
    with pytest.raises(AlgebraError):
        groebner_basis([parse_poly("X", ZX), parse_poly("X", QYX)])
    # a basis that keeps its reducers checks the ring before it reduces
    gb = groebner_basis([parse_poly("X^2 - 2", ZX)])
    assert gb._final is not None
    with pytest.raises(RingMismatchError, match=re.escape("mixed rings QQ[Y][X] and ZZ[X]")):
        normal_form(parse_poly("X", QYX), gb)


# -- the engine representation ------------------------------------------------------------

QABCD = RingSpec.parse("QQ[A,B,C,D]")
F7ABC = RingSpec.parse("Fp(7)[A,B,C]")


@st.composite
def monomials(draw, nvars, degree):
    """Exponent tuples of total degree at most ``degree``."""
    left = draw(st.integers(0, degree))
    e = []
    for _ in range(nvars):
        k = draw(st.integers(0, left))
        e.append(k)
        left -= k
    return tuple(draw(st.permutations(e)))


@pytest.mark.parametrize(
    "order",
    [
        Lex(),
        Lex(("C", "A", "D", "B")),
        Grevlex(),
        BlockElim(("B",)),
        BlockElim(("A", "C")),
        BlockElim(("D",)),
        BlockElim(("A", "B", "C")),
    ],
    ids=repr,
)
def test_compiled_keys_order_monomials_like_the_key_tuples(order):
    """The engine's int key, compiled for degree bound D, compares every two
    monomials of total degree up to 2*D as the order's key tuples do."""
    keyf = key_function(order, QABCD)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), bound=st.integers(1, 8))
    def check(data, bound):
        key = _compiled(order, QABCD, bound).key
        a = data.draw(monomials(4, 2 * bound))
        b = data.draw(monomials(4, 2 * bound))
        ta, tb = keyf(a), keyf(b)
        assert (key(a) > key(b)) == (ta > tb)
        assert (key(a) == key(b)) == (a == b)

    check()


@pytest.mark.parametrize("bound", [0, 1, 63, 64, 10**6, 2**62], ids=str)
def test_packed_monomials_match_the_exponent_tuples(bound):
    """Packed divides, lcm, coprime, degree and the pack/unpack round trip
    (a packed monomial is the low bits of its key) equal their exponent-tuple
    definitions for 1..6 variables and every exponent up to 2*D, on both
    sides of the switch from 8-bit fields and of the one from struct to
    shifts above 64 bits."""
    names = "ABCDEF"
    top = 2 * max(bound, 1)  # the compiled bound is at least 1
    exponent = st.one_of(st.sampled_from([0, 1, top - 1, top]), st.integers(0, top))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), order=st.sampled_from([Grevlex(), Lex()]))
    def check(data, n, order):
        cord = _compiled(order, RingSpec.parse(f"QQ[{','.join(names[:n])}]"), bound)
        assert (cord.width == 8) == (bound <= 63)
        a, b = (data.draw(st.tuples(*[exponent] * n)) for _ in "ab")
        pa, pb = cord.key(a) & cord.mask, cord.key(b) & cord.mask
        assert cord.fields(pa) == a and cord.fields(pb) == b
        assert cord.divides(pa, pb) == _tuple_divides(a, b)
        assert cord.divides(pb, pa) == _tuple_divides(b, a)
        assert cord.fields(cord.lcm(pa, pb)) == tuple(map(max, a, b))
        assert cord.coprime(pa, pb) == (not any(x and y for x, y in zip(a, b)))
        if _tuple_divides(a, b):
            assert cord.fields(pb - pa) == tuple(y - x for x, y in zip(a, b))
        if sum(a) <= top:
            assert cord.degree(pa) == sum(a)

    check()


@pytest.mark.parametrize(
    "ring, tag",
    [(QYZW, "QQ"), (F7YZX, "F7"), (ZX.extend_aux("_T0"), "ZZ")],
    ids=["QQ[Y,Z,W]", "F7[Y,Z][X]", "ZZ[X,_T0]"],
)
def test_engine_answers_do_not_depend_on_the_field_width(ring, tag):
    """groebner_basis, divide and normal_form under budgets on both sides of
    the 8-bit field switch give the default budget's answers and the
    references'."""
    v = ring.variables
    compared = 0
    for spec in ("grevlex", f"elim:{v[0]}"):
        order = parse_order(spec)
        for seed in range(4):
            rng = random.Random(f"width:{tag}:{spec}:{seed}")
            gens = rand_gens(rng, ring, rng.randint(2, 3), 3)
            f = rand_gens(rng, ring, 1, 5)[0]
            try:
                if ring.is_int_mode:
                    expected = reference_strong_groebner(gens, order, max_pairs=150)
                else:
                    expected = reference_groebner(gens, order, max_pairs=150)
            except PairLimit:
                continue
            default = groebner_basis(gens, order)
            assert list(default.elements) == expected, (spec, seed)
            division = divide(f, gens, order)
            assert division[1] == reference_normal_form(f, gens, order)
            for cap in (63, 64, 500):
                budget = Budget(max_degree=cap)
                gb = groebner_basis(gens, order, budget)
                assert gb.elements == default.elements, (spec, seed, cap)
                assert divide(f, gens, order, budget) == division
                assert normal_form(f, gb, budget=budget) == normal_form(f, default)
                assert normal_form(f, gb, budget=budget) == reference_normal_form(
                    f, list(gb.elements), order
                )
                assert normal_form(f, gens, order, budget) == division[1]
            compared += 1
    assert compared >= 6


@pytest.mark.parametrize("cap", [60, 63, 64, 500])
def test_a_divisor_above_the_budget_widens_the_fields(cap):
    """A divisor of degree 64 or more raises the compiled bound, so its
    exponents need 16-bit fields; under grevlex it divides no term of degree
    <= cap below 64, and every answer matches the textbook reference."""
    order = Grevlex()
    big = parse_poly("Y^64*Z^3 + 2*Z - 1", QYZ)
    rng = random.Random(f"wide divisor:{cap}")
    for _ in range(6):
        small = rand_gens(rng, QYZ, 2, 2)
        f = rand_gens(rng, QYZ, 1, 6)[0] * parse_poly("Y^2 + Z", QYZ)
        basis = [*small, big]
        qs, r = divide(f, basis, order, Budget(max_degree=cap))
        assert r == reference_normal_form(f, basis, order)
        assert sum((q * g for q, g in zip(qs, basis)), r) == f
        assert (qs, r) == divide(f, basis, order)
        assert normal_form(f, basis, order, Budget(max_degree=cap)) == r
        assert qs[-1].is_zero()


@pytest.mark.parametrize("degree", [63, 64])
def test_pairs_whose_tails_reach_twice_the_bound(degree):
    """Under an elimination order an S- or G-polynomial of two polynomials of
    degree D carries the exponent 2*D in one variable: it matches the
    textbook one, the engine rejects it under the budget D with its degree,
    and computes the basis under a budget of 2*D."""
    D = degree
    zt = ZX.extend_aux("_T0")
    order = BlockElim(("_T0",))
    # variables (X, _T0): f = 2*_T0 + X^D, g = 2*X^D
    f, g = Polynomial(zt, {(0, 1): 2, (D, 0): 1}), Polynomial(zt, {(D, 0): 2})
    assert s_polynomial(f, g, order) == reference_s_polynomial(f, g, order)
    assert g_polynomial(f, g, order) == reference_g_polynomial(f, g, order)
    assert s_polynomial(f, g, order).total_degree() == 2 * D
    with pytest.raises(BudgetExceededError, match=rf"^degree budget {D} exceeded \(term of degree {2 * D}\)$"):
        groebner_basis([f, g], order, Budget(max_degree=D))
    for cap in (2 * D, 500):
        gb = groebner_basis([f, g], order, Budget(max_degree=cap))
        assert list(gb.elements) == reference_strong_groebner([f, g], order)
    # over QQ the leading monomials are coprime, so the engine drops the pair
    qt = QYZ.extend_aux("_T0")
    # variables (Y, Z, _T0): f = _T0 - Z^D, g = Z^D
    one = qt.domain.one
    f, g = Polynomial(qt, {(0, 0, 1): one, (0, D, 0): -one}), Polynomial(qt, {(0, D, 0): one})
    assert s_polynomial(f, g, order) == reference_s_polynomial(f, g, order)
    assert s_polynomial(f, g, order).total_degree() == 2 * D
    gb = groebner_basis([f, g], order, Budget(max_degree=D))
    assert list(gb.elements) == reference_groebner([f, g], order)


@st.composite
def fractional_polys(draw, ring, max_terms=4, max_deg=3, nonzero=False):
    """Polynomials with coefficients n/d (n only over ZZ), not monic in general."""
    dom = ring.domain
    exps = st.tuples(*(st.integers(0, max_deg) for _ in ring.variables))
    dens = st.just(None) if ring.is_int_mode else st.sampled_from([None, 2, 3, 4, 6])
    terms = draw(
        st.dictionaries(
            exps, st.tuples(st.integers(-9, 9), dens), min_size=int(nonzero), max_size=max_terms
        )
    )
    f = Polynomial(ring, {e: dom.literal(n, d) for e, (n, d) in terms.items()})
    assume(not (nonzero and f.is_zero()))
    return f


@pytest.mark.parametrize("ring", [QYZ, QABCD, F7ABC, ZX], ids=str)
def test_division_is_exact_and_matches_textbook_division(ring):
    """Fractional, non-monic dividends and divisors: f == sum(q_i*g_i) + r
    exactly, and r is the remainder of textbook division, which cancels the
    leading term of what is left with the first divisor that can."""

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        f=fractional_polys(ring, 6, 4),
        basis=st.lists(fractional_polys(ring, 3, 2, nonzero=True), min_size=1, max_size=3),
        lex=st.booleans(),
    )
    def check(f, basis, lex):
        order = Lex() if lex else Grevlex()
        qs, r = divide(f, basis, order)
        total = r
        for q, g in zip(qs, basis):
            total = total + q * g
        assert total == f
        assert r == reference_normal_form(f, basis, order)
        assert normal_form(f, basis, order) == r

    check()


@pytest.mark.parametrize("ring", [QYZ, F7ABC, ZX], ids=str)
def test_s_and_g_polynomials_match_the_textbook_ones(ring):
    """Exact S- (and over ZZ, G-) polynomials of fractional, non-monic
    inputs, also under lex, where their degree can exceed twice the inputs'."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        f=fractional_polys(ring, 4, 4, nonzero=True),
        g=fractional_polys(ring, 4, 4, nonzero=True),
        lex=st.booleans(),
    )
    def check(f, g, lex):
        order = Lex() if lex else Grevlex()
        assert s_polynomial(f, g, order) == reference_s_polynomial(f, g, order)
        if ring.is_int_mode:
            assert g_polynomial(f, g, order) == reference_g_polynomial(f, g, order)

    check()


@pytest.mark.parametrize("ring", [QYZW, QYZ.extend_aux("_T0")], ids=str)
def test_engine_matches_the_reference_on_rational_generators(ring):
    """Generators with fractional coefficients, which the engine clears to
    primitive integer polynomials: the same reduced basis as the textbook
    reference, which computes with fractions throughout."""
    v = ring.variables
    compared = fractional = 0
    for spec in ("grevlex", "lex", f"elim:{v[-1]}"):
        order = parse_order(spec)
        for seed in range(8):
            rng = random.Random(f"rational:{ring}:{spec}:{seed}")
            gens = rand_gens(rng, ring, rng.randint(2, 3), 3, 5, max_den=6)
            try:
                expected = reference_groebner(gens, order, max_pairs=150)
            except PairLimit:
                continue
            assert list(groebner_basis(gens, order).elements) == expected, (spec, seed)
            compared += 1
            fractional += any(c.denominator > 1 for g in gens for _, c in g.terms())
    assert compared >= 20 and fractional >= 18


def test_normal_form_reads_a_basis_through_its_reducers_within_their_bound(monkeypatch):
    """A basis computed under the default budget keeps reducers compiled for
    the 8-bit bound 63.  ``normal_form`` against it builds no reducers under
    any budget up to 63; under 64 and 200, and under another order, it
    builds them for each call.  Every answer, or error, is that of the
    same division by the list of the elements."""
    rng = random.Random("reducers:9")
    gens = rand_gens(rng, QYZW, 3, 3, 5, max_den=4)
    gb = groebner_basis(gens)
    probes = [rand_gens(rng, QYZW, 1, 4, 5, max_den=4)[0] for _ in range(10)]
    builds = []
    real = powerstable.groebner._divisors

    def counting(polys, order, budget):
        builds.append(order)
        return real(polys, order, budget)

    monkeypatch.setattr(powerstable.groebner, "_divisors", counting)

    def answer(f, basis, order, budget):
        try:
            return normal_form(f, basis, order, budget)
        except BudgetExceededError as exc:
            return str(exc)

    outcomes = set()
    for cap, order in [(0, None), (6, None), (60, None), (63, None), (64, None), (200, None), (60, Lex())]:
        budget = Budget(max_degree=cap)
        for f in probes:
            builds.clear()
            got = answer(f, gb, order, budget)
            assert len(builds) == (cap > 63 or order is not None), (cap, order)
            assert got == answer(f, list(gb.elements), order, budget), (cap, order)
            outcomes.add(type(got))
    assert outcomes == {str, Polynomial}


@pytest.mark.parametrize(
    "spec, gens",
    [
        ("ZZ[X]", ("X^3 - 3*X + 6", "4*X^2 + 2*X")),
        ("QQ[Y][X]", ("X^2 - Y^2 + 1/2*X", "Y*X^2 - 2*Y + 3")),
        ("Fp(7)[Y][X]", ("3*X^2 - Y*X + 1", "2*Y^2*X - Y")),
    ],
    ids=["ZZ[X]", "QQ[Y][X]", "Fp(7)[Y][X]"],
)
def test_reduction_keeps_no_history(spec, gens):
    """``normal_form`` against one cached basis gives each of 40 seeded
    polynomials the reference remainder whatever was reduced before it:
    visited forwards and backwards, the answers are the textbook division's
    by the basis elements."""
    ring = RingSpec.parse(spec)
    ideal = Ideal.from_texts(ring, gens)
    gb = ideal.groebner()
    probes = rand_gens(random.Random(f"history:{spec}"), ring, 40, 5, 9)
    want = [reference_normal_form(f, list(gb.elements), gb.order) for f in probes]
    assert sum(not r.is_zero() for r in want) >= 30
    forward = [normal_form(f, ideal.groebner()) for f in probes]
    backward = [normal_form(f, ideal.groebner()) for f in reversed(probes)][::-1]
    assert forward == want
    assert backward == want
    assert ideal.groebner() is gb


@pytest.mark.parametrize(
    "spec, gens, p, qq, zz",
    [
        ("ZZ[X]", ("X^2 - 2", "3*X"), 0, False, True),
        ("QQ[Y][X]", ("X^2 - Y", "Y*X"), 0, True, False),
        ("Fp(7)[Y][X]", ("3*X^2 - Y", "2*Y*X"), 7, False, False),
    ],
    ids=["ZZ[X]", "QQ[Y][X]", "Fp(7)[Y][X]"],
)
@pytest.mark.parametrize("order", [Grevlex(), BlockElim(("X",))], ids=["grevlex", "elim:X"])
def test_a_compiled_order_carries_its_ring(spec, gens, p, qq, zz, order):
    """A compiled order records its order, its ring and the ring's facts the
    engine branches on.  An equal ring parsed again gets the same compiled
    order, and a basis reads its ring, order and strength off the compiled
    order of its final reducers."""
    ring, again = RingSpec.parse(spec), RingSpec.parse(spec)
    assert again == ring and again is not ring
    cord = _compiled(order, ring, 60)
    assert (cord.order, cord.ring, cord.p, cord.qq, cord.zz) == (order, ring, p, qq, zz)
    assert zz == ring.is_int_mode
    assert _compiled(order, again, 60) is cord
    gb = groebner_basis([parse_poly(t, again) for t in gens], order)
    assert (gb.ring, gb.order, gb.strong, gb.reduced) == (ring, order, zz, True)
    assert gb._final.cord is cord


def _assert_self_consistent(terms: list, cord) -> None:
    """Keys strictly descend, coefficients are nonzero (residues in [1, p)
    over GF(p)), and each term (k, c, d) is the key of the monomial in its
    low bits, of total degree d."""
    keys = [k for k, _, _ in terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    for k, c, d in terms:
        assert 0 < c < cord.p if cord.p else c
        e = cord.fields(k & cord.mask)
        assert cord.key(e) == k and sum(e) == d


@pytest.mark.parametrize("bound", [60, 200], ids=["8-bit fields", "16-bit fields"])
@pytest.mark.parametrize("spec", ["grevlex", "elim:X"])
@pytest.mark.parametrize("ring", [ZX, QYZX, F7], ids=str)
def test_every_term_list_the_engine_forms_is_self_consistent(ring, spec, bound):
    """The engine forms of Polynomials, their products and S- (over ZZ also
    G-) polynomials, which reach twice the bound the order is compiled for,
    the remainders of reductions against a basis, and the basis's own
    reducers: every term list holds (key, coefficient, degree) terms whose
    monomial is the low bits of the key."""
    order = parse_order(spec)
    budget = Budget(max_pairs=200, max_degree=bound)
    cord = _compiled(order, ring, bound)
    den = 1 if ring.is_int_mode else 3
    reduced = 0
    for seed in range(4):
        rng = random.Random(f"terms:{ring}:{spec}:{bound}:{seed}")
        wide = [_engine_poly(f, cord)[0] for f in rand_gens(rng, ring, 3, bound, 9, max_den=den)]
        gens = rand_gens(rng, ring, 3, 3, 5, max_den=den)
        red = groebner_basis(gens, order, budget)._final
        assert red.cord is cord
        lists = [*wide, *red.polys]
        if not ring.is_int_mode:  # Buchberger pairs normalized elements
            lists = [_normalized(f, cord) for f in lists]
        formed = [_engine_poly(g, cord)[0] for g in gens]
        for i, f in enumerate(lists):
            for g in lists[i + 1 :]:
                formed.append(_product(f, g, cord))
                formed.append(_pair(f, g, cord, False))
                if cord.zz:
                    formed.append(_pair(f, g, cord, True))
        for h in [*wide, *formed, *red.polys]:
            _assert_self_consistent(h, cord)
            if max((d for _, _, d in h), default=0) <= bound:
                try:
                    r, _ = _reduce(h, red, bound)
                except BudgetExceededError:
                    continue
                _assert_self_consistent(r, cord)
                reduced += 1
    assert reduced >= 20


# -- term-list products and lazy bases ---------------------------------------------


@pytest.mark.parametrize("bound", [60, 200], ids=["8-bit fields", "16-bit fields"])
@pytest.mark.parametrize("ring", [ZX, QYZW, F7YZX], ids=str)
def test_term_list_products_equal_polynomial_products(ring, bound):
    """Oracle: the product of two engine term lists is the engine form of
    the Polynomial product, and over QQ its scale is the product of the
    factors' scales.  Factors reach degree ``bound``, so the products reach
    twice the bound the order is compiled for."""
    cord = _compiled(Grevlex(), ring, bound)
    assert cord.width == (8 if bound == 60 else 16)
    top = 0
    for k in range(25):
        rng = random.Random(f"product:{ring}:{bound}:{k}")
        f, g = rand_gens(rng, ring, 2, bound, 9, max_den=1 if ring.is_int_mode else 3)
        (fe, s), (ge, r) = _engine_poly(f, cord), _engine_poly(g, cord)
        h = _product(fe, ge, cord)
        assert h == _engine_poly(f * g, cord)[0], k
        assert _to_polynomial(cord, h, s * r) == f * g, k
        top = max(top, (f * g).total_degree())
    assert top > 3 * bound // 2


@pytest.mark.parametrize("ring", [ZX, QYX, F7], ids=str)
def test_a_basis_forms_its_elements_on_first_read(ring):
    """Oracle: a basis holds term lists until ``elements`` is first read,
    and reduces its tails only as far as a read needs.  Read first by
    equality, repr, hash or iteration, it equals a basis built eagerly from
    the reference's Polynomials; ``normal_form`` against it reads the
    reducers alone and forms no element.  A ``_free_heads`` read that comes
    first gives the reference's elements with an X-free leading monomial
    (under ``BlockElim`` the X-free elements) and, on some input, leaves an
    element unreduced; a later ``elements`` read gives the reference."""
    reference = reference_strong_groebner if ring.is_int_mode else reference_groebner
    compared = deferred = 0
    for order, seed in itertools.product((Grevlex(), BlockElim(("X",))), range(6)):
        rng = random.Random(f"lazy-elements:{ring}:{seed}")
        gens = rand_gens(rng, ring, rng.randint(2, 3), 3, 5, max_den=1 if ring.is_int_mode else 3)
        try:
            expected = reference(gens, order, max_pairs=150)
        except PairLimit:
            continue
        eager = GroebnerBasis(ring, order, tuple(expected), reduced=True, strong=ring.is_int_mode)
        for read in (
            lambda gb: gb == eager,
            lambda gb: repr(gb) == repr(eager),
            lambda gb: hash(gb) == hash(eager),
            lambda gb: list(gb) == expected,
        ):
            lazy = groebner_basis(gens, order)
            assert "elements" not in vars(lazy)
            assert read(lazy)
        lazy = groebner_basis(gens, order)
        assert all(normal_form(g, lazy).is_zero() for g in gens)
        assert "elements" not in vars(lazy)
        assert lazy.elements == eager.elements
        lazy = groebner_basis(gens, order)
        kept = [g for g in expected if not g.leading_term(order)[0][ring.index("X")]]
        assert lazy._free_heads(("X",)) == kept
        # under the elimination order these are the elements free of X
        assert order == Grevlex() or kept == [g for g in expected if g.free_of(["X"])]
        assert "elements" not in vars(lazy)
        deferred += "_minimal" in vars(lazy)
        assert list(lazy.elements) == expected and is_groebner(lazy)
        assert "_minimal" not in vars(lazy)
        compared += 1
    assert compared >= 8 and deferred >= 1
