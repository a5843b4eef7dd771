"""Groebner bases: field Buchberger, strong bases over ZZ, division, budgets."""

import random
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
    Lex,
    Polynomial,
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
from powerstable.coefficients import divmod_least
from powerstable.groebner import _compiled
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
                g.scale(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2])))
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
        order = parse_order(spec, ring)
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
                        assert divmod_least(c, lc)[0] == 0, (spec, format_poly(p))


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
        order = parse_order(spec, ring)
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


@pytest.fixture
def pair_calls(monkeypatch):
    """A list that grows by one per S- or G-polynomial the engine forms."""
    calls = []
    for name in ("s_polynomial", "g_polynomial"):
        real = getattr(powerstable.groebner, name)

        def counting(f, g, order=None, real=real):
            calls.append((f, g))
            return real(f, g, order)

        monkeypatch.setattr(powerstable.groebner, name, counting)
    return calls


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
    with pytest.raises(AlgebraError):
        groebner_basis([])
    with pytest.raises(AlgebraError):
        groebner_basis([Polynomial.zero(ZX)])


def test_pair_budget_exhaustion():
    rng = random.Random("budget:8")
    gens = rand_gens(rng, QYZW, 4, 3)
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, budget=Budget(max_pairs=1, max_degree=60))


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


def test_mixed_rings_rejected():
    with pytest.raises(AlgebraError):
        groebner_basis([parse_poly("X", ZX), parse_poly("X", QYX)])


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
        order = parse_order(spec, ring)
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


def test_normal_form_reuses_the_reducers_kept_on_a_basis():
    rng = random.Random("reducers:9")
    gens = rand_gens(rng, QYZW, 3, 3, 5, max_den=4)
    gb = groebner_basis(gens)
    kept = dict(gb._reducers)
    assert len(kept) == 1
    for _ in range(10):
        probe = rand_gens(rng, QYZW, 1, 4, 5, max_den=4)[0]
        assert normal_form(probe, gb) == normal_form(probe, list(gb.elements))
    assert gb._reducers == kept
    normal_form(gens[0], gb, budget=Budget(max_degree=20))
    assert len(gb._reducers) == 2
