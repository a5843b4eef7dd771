"""Polynomial arithmetic, parsing, formatting, and monomial orders."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerstable import (
    GF,
    QQ,
    ZZ,
    AlgebraError,
    BlockElim,
    CoefficientError,
    FpElement,
    Grevlex,
    Lex,
    NonExactDivisionError,
    ParseError,
    Polynomial,
    RingMismatchError,
    RingSpec,
    ZeroPolynomialError,
    evaluate_map,
    exact_divide,
    format_poly,
    parse_order,
    parse_poly,
    transport,
)
from powerstable.orders import key_function
from powerstable.polynomials import Exponents

from helpers import rand_poly
from oracles import eval_poly, grid_equal, naive_product, term_map

ZX = RingSpec.parse("ZZ[X]")
QYX = RingSpec.parse("QQ[Y][X]")
QYZW = RingSpec.parse("QQ[Y,Z,W]")
F5 = RingSpec.parse("Fp(5)[Y,Z][X]")
F32003 = RingSpec.parse("Fp(32003)[Y][X]")

RINGS = pytest.mark.parametrize("ring", [ZX, QYX, F5], ids=["ZZ[X]", "QQ[Y][X]", "F5[Y,Z][X]"])


def build(ring, triples):
    """Assemble a polynomial from (exponents, int coefficient) pairs."""
    out = Polynomial.zero(ring)
    for e, c in triples:
        t = Polynomial.constant(ring, c)
        for v, k in zip(ring.variables, e):
            if k:
                t = t * Polynomial.variable(ring, v) ** k
        out = out + t
    return out


@st.composite
def polys(draw, ring, max_terms=5, max_exp=3):
    n = len(ring.variables)
    exp = st.tuples(*(st.integers(0, max_exp) for _ in range(n)))
    triples = draw(st.lists(st.tuples(exp, st.integers(-9, 9)), max_size=max_terms))
    return build(ring, triples)


# -- arithmetic laws -----------------------------------------------------------


@RINGS
def test_polynomial_ring_laws(ring):
    @settings(max_examples=60, deadline=None)
    @given(f=polys(ring), g=polys(ring), h=polys(ring))
    def laws(f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + Polynomial.zero(ring) == f
        assert f * Polynomial.one(ring) == f
        assert (f - g) + g == f
        assert f + (-f) == Polynomial.zero(ring)

    laws()


@RINGS
def test_product_matches_naive_convolution(ring):
    @settings(max_examples=60, deadline=None)
    @given(f=polys(ring), g=polys(ring))
    def check(f, g):
        assert term_map(f * g) == naive_product(f, g)

    check()


@pytest.mark.parametrize("ring", [F5, F32003], ids=["F5[Y,Z][X]", "F32003[Y][X]"])
def test_prime_field_products_equal_their_fp_element_arithmetic(ring):
    """Oracle: a product over GF(p), formed on plain residues, equals the
    product formed term by term through ``FpElement`` multiplication and
    addition, coefficient for coefficient and in its text.  Over GF(5) many
    sums cancel, and some over GF(32003)."""
    rng = random.Random(f"fp-product:{ring}")
    cancelled = 0
    for _ in range(60):
        f, g = (rand_poly(rng, ring, 4, 8, 9) for _ in range(2))
        expected: dict = {}
        for ef, cf in f.terms():
            for eg, cg in g.terms():
                e = tuple(a + b for a, b in zip(ef, eg))
                expected[e] = expected[e] + cf * cg if e in expected else cf * cg
        cancelled += sum(not c for c in expected.values())
        got = f * g
        assert dict(got.terms()) == {e: c for e, c in expected.items() if c}
        assert all(type(c) is FpElement and 0 < c.residue < c.modulus for _, c in got.terms())
        assert format_poly(got) == format_poly(Polynomial(ring, expected))
    assert cancelled > 0


def test_power_matches_repeated_multiplication():
    f = parse_poly("X^2 - Y + 1", QYX)
    acc = Polynomial.one(QYX)
    for k in range(7):
        assert f**k == acc
        acc = acc * f
    with pytest.raises(AlgebraError):
        f ** (-1)


def test_syzygy_identity_three_ways():
    # (W^3 - YZ)^2 - (Y^2 - WZ)(Z^2 - W^2 Y) factors through W
    f1 = parse_poly("W^3 - Y*Z", QYZW)
    f2 = parse_poly("Y^2 - W*Z", QYZW)
    f3 = parse_poly("Z^2 - W^2*Y", QYZW)
    q = parse_poly("W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3", QYZW)
    w = Polynomial.variable(QYZW, "W")
    lhs = f1 * f1 - f2 * f3
    assert lhs == w * q
    assert term_map(lhs) == naive_product(w, q)
    assert grid_equal(lhs, w * q)


def test_evaluation_respects_arithmetic():
    rng = random.Random("eval:0")
    for _ in range(50):
        f = build(QYZW, [(tuple(rng.randint(0, 3) for _ in range(3)), rng.randint(-5, 5))])
        g = build(QYZW, [(tuple(rng.randint(0, 3) for _ in range(3)), rng.randint(-5, 5))])
        pt = tuple(rng.randint(-4, 4) for _ in range(3))
        assert eval_poly(f + g, pt) == eval_poly(f, pt) + eval_poly(g, pt)
        assert eval_poly(f * g, pt) == eval_poly(f, pt) * eval_poly(g, pt)


def test_ring_mismatch_refused():
    f = parse_poly("X", ZX)
    g = parse_poly("X", QYX)
    with pytest.raises(RingMismatchError):
        f + g
    with pytest.raises(RingMismatchError):
        f * g
    with pytest.raises(RingMismatchError):
        f + 1  # plain scalars never silently coerce


# -- inspection ------------------------------------------------------------------


def test_degrees_and_structure():
    f = parse_poly("2*Y^2*X^3 - X + 5", QYX)
    assert f.total_degree() == 5
    assert f.degree_in("X") == 3
    assert f.degree_in("Y") == 2
    assert Polynomial.zero(QYX).total_degree() == -1
    assert len(f.terms()) == 3
    assert not f.is_constant()
    assert parse_poly("7", QYX).is_constant()
    assert f.constant_value() == 5
    assert f.uses_var("X") and f.uses_var("Y")
    assert parse_poly("X", QYX).free_of(["Y"])
    assert not f.free_of(["Y"])


def test_coefficient_of_reassembles():
    f = parse_poly("2*Y^2*X^3 - Y*X + X - 3", QYX)
    x = Polynomial.variable(QYX, "X")
    total = Polynomial.zero(QYX)
    for d in range(f.degree_in("X") + 1):
        total = total + f.coefficient_of("X", d) * x**d
    assert total == f
    assert f.coefficient_of("X", 3) == parse_poly("2*Y^2", QYX)
    assert f.coefficient_of("X", 1) == parse_poly("1 - Y", QYX)


def test_leading_term():
    f = parse_poly("Y^2*Z - W^3", QYZW)
    e, c = f.leading_term()
    assert e == (2, 1, 0) and c == 1
    e, c = f.leading_term(Lex(("W", "Y", "Z")))
    assert e == (0, 0, 3) and c == -1
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(QYZW).leading_term()


# -- canonical representation ------------------------------------------------------


def test_canonical_under_shuffled_assembly():
    rng = random.Random("shuffle:1")
    triples = [((i % 4, (i * 7) % 3, i % 2), rng.randint(-9, 9)) for i in range(12)]
    reference = build(QYZW, triples)
    for _ in range(10):
        shuffled = triples[:]
        rng.shuffle(shuffled)
        again = build(QYZW, shuffled)
        assert again == reference
        assert hash(again) == hash(reference)
        assert format_poly(again) == format_poly(reference)


def test_cancellation_drops_terms():
    f = parse_poly("X^2 + Y", QYX)
    g = parse_poly("X^2 - Y", QYX)
    assert (f - g) == parse_poly("2*Y", QYX)
    assert (f - f).is_zero()
    assert not (f - f)


# -- exact division ------------------------------------------------------------------


@RINGS
def test_exact_divide_inverts_multiplication(ring):
    @settings(max_examples=40, deadline=None)
    @given(f=polys(ring, max_terms=4, max_exp=2), g=polys(ring, max_terms=3, max_exp=2))
    def check(f, g):
        if g.is_zero():
            return
        assert exact_divide(f * g, g) == f

    check()


def test_exact_divide_failures():
    x = parse_poly("X", QYX)
    y = parse_poly("Y", QYX)
    with pytest.raises(NonExactDivisionError):
        exact_divide(x, y)
    with pytest.raises(NonExactDivisionError):
        exact_divide(parse_poly("X + 1", QYX), x)
    with pytest.raises(ZeroPolynomialError):
        exact_divide(x, Polynomial.zero(QYX))
    # over ZZ the coefficients must divide too
    with pytest.raises(NonExactDivisionError):
        exact_divide(parse_poly("3X", ZX), parse_poly("2", ZX))
    assert exact_divide(parse_poly("4X", ZX), parse_poly("2", ZX)) == parse_poly("2X", ZX)
    assert exact_divide(Polynomial.zero(ZX), parse_poly("2", ZX)).is_zero()


@pytest.mark.parametrize("ring", [ZX, QYX], ids=["ZZ[X]", "QQ[Y][X]"])
def test_exact_divide_above_the_default_degree_budget(ring):
    # the division is bounded by deg f, not by Budget().max_degree = 60
    f = parse_poly("2*X^31 - X + 3", ring)
    g = parse_poly("X^30 + 5*X^2 - 1", ring) ** 2 * parse_poly("X + 1", ring)
    fg = f * g
    assert fg.total_degree() > 60
    assert exact_divide(fg, g) == f
    assert exact_divide(fg, f) == g
    with pytest.raises(NonExactDivisionError):
        exact_divide(fg + parse_poly("X", ring), g)
    with pytest.raises(NonExactDivisionError):
        exact_divide(fg, g * parse_poly("X - 1", ring))
    with pytest.raises(NonExactDivisionError):
        exact_divide(g, fg)


# -- parsing ---------------------------------------------------------------------------


def test_parse_grammar_basics():
    assert parse_poly("2X", ZX) == parse_poly("2*X", ZX)
    assert parse_poly("X^2-2", ZX) == parse_poly("-2 + X^2", ZX)
    assert parse_poly("- X + 3", ZX) == parse_poly("3 - X", ZX)
    assert parse_poly("X - - X", ZX) == parse_poly("2*X", ZX)
    assert parse_poly("0", ZX).is_zero()
    assert parse_poly("X^0", ZX) == Polynomial.one(ZX)
    assert parse_poly("1/2 * Y*X", QYX) == Polynomial.constant(QYX, Fraction(1, 2)) * parse_poly("Y*X", QYX)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("X + + Y", QYX)
    assert "column 5" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_poly("X Y", QYX)
    assert "missing '*'" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("", QYX)
    with pytest.raises(ParseError):
        parse_poly("X +", QYX)
    with pytest.raises(ParseError):
        parse_poly("X^", QYX)
    with pytest.raises(ParseError):
        parse_poly("X^-2", QYX)
    with pytest.raises(ParseError):
        parse_poly("3 $ X", QYX)


QYZX = RingSpec.parse("QQ[Y,Z][X]")

# One optional '-' after '+' or '-' (or at the start), implicit
# multiplication only in a term that opens with a number.
_PARSE_CASES = [
    ("2X Y", "2*Y*X"),
    ("2 X", "2*X"),
    ("2X*Y Z", "2*Y*Z*X"),
    ("X - -Y", "Y + X"),
    ("X + -Y", "-Y + X"),
    ("2/4X", "1/2*X"),
    ("+X", "unexpected '+' (line 1, column 1)"),
    ("--X", "unexpected '-' (line 1, column 2)"),
    ("X + --Y", "unexpected '-' (line 1, column 6)"),
    ("2*3", "expected a variable, found '3' (line 1, column 3)"),
    ("X*2", "expected a variable, found '2' (line 1, column 3)"),
    ("X Y", "missing '*' between variables (line 1, column 3)"),
]


@pytest.mark.parametrize("text, outcome", _PARSE_CASES, ids=[t for t, _ in _PARSE_CASES])
def test_parse_outcomes(text, outcome):
    try:
        got = format_poly(parse_poly(text, QYZX))
    except ParseError as err:
        got = str(err)
    assert got == outcome


@st.composite
def grammar_texts(draw, ring):
    """(text, polynomial): a sum written the way the module grammar allows,
    and the same sum built with Polynomial arithmetic."""
    dom = ring.domain
    names = st.sampled_from(ring.variables)
    text, total = "", Polynomial.zero(ring)
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "-"] if k == 0 else ["+", "-", "+ -", "- -"]))
        text += f" {sign} "
        negative = sign.count("-") % 2
        if draw(st.booleans()):  # opens with a number: later factors may be implicit
            num, den = draw(st.integers(0, 40)), draw(st.sampled_from([None, 1, 2, 3, 5, 6]))
            text += str(num) if den is None else f"{num}/{den}"
            a, b = dom.from_int(num), dom.from_int(den or 1)
            term = Polynomial.constant(ring, a * b.inverse() if isinstance(b, FpElement) else a / b)
            first, later, factors = ["*", " ", ""], ["*", " "], draw(st.integers(0, 3))
        else:  # opens with a variable: '*' joins the rest
            term, first, later, factors = Polynomial.one(ring), [""], ["*"], draw(st.integers(1, 3))
        for f in range(factors):
            joiner = draw(st.sampled_from(first if f == 0 else later))
            name, power = draw(names), draw(st.sampled_from([None, 0, 1, 2, 3]))
            text += joiner + (name if power is None else f"{name}^{power}")
            term = term * Polynomial.variable(ring, name) ** (1 if power is None else power)
        total = total - term if negative else total + term
    return text, total


@pytest.mark.parametrize("ring", [QYZX, RingSpec.parse("Fp(7)[Y][X]")], ids=["QQ[Y,Z][X]", "F7[Y][X]"])
def test_parse_matches_the_grammar(ring):
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=grammar_texts(ring))
    def check(case):
        text, expected = case
        assert parse_poly(text, ring) == expected

    check()


def test_parse_unknown_and_reserved_names():
    with pytest.raises(ParseError):
        parse_poly("Q", QYX)
    with pytest.raises(ParseError) as e:
        parse_poly("_t0 + X", QYX)
    assert "'_'" in str(e.value)


def test_fraction_over_zz_is_a_coefficient_error():
    with pytest.raises(CoefficientError) as e:
        parse_poly("1/2 * X", ZX)
    assert not isinstance(e.value, ParseError)
    assert parse_poly("4/2 * X", ZX) == parse_poly("2X", ZX)


def test_fp_coefficients_reduce():
    r = RingSpec.parse("Fp(5)[X]")
    assert parse_poly("7*X", r) == parse_poly("2*X", r)
    assert parse_poly("5*X", r).is_zero()
    assert parse_poly("1/2", r) == parse_poly("3", r)
    with pytest.raises(CoefficientError):
        parse_poly("1/5", r)


def test_constructors_take_only_coefficients_of_the_ring():
    """Polynomial(ring, terms) and Polynomial.constant convert ints and read
    a Fraction as a literal, as the parser does; a coefficient from outside
    the ring's domain, or an exponent that is not a non-negative int, raises
    before the polynomial reaches the engine."""
    f7 = RingSpec.parse("Fp(7)[Y][X]")
    assert Polynomial(f7, {(0, 1): 3, (1, 0): 1}) == parse_poly("3*X + Y", f7)
    assert Polynomial(f7, {(0, 1): Fraction(1, 2)}) == parse_poly("4*X", f7)
    assert Polynomial(f7, {(0, 1): GF(7).from_int(9)}) == parse_poly("2*X", f7)
    assert Polynomial(f7, {(0, 1): 7}).is_zero()
    assert Polynomial(QYX, {(0, 1): 2, (1, 0): Fraction(1, 3)}) == parse_poly("2*X + 1/3*Y", QYX)
    assert Polynomial(ZX, {(1,): Fraction(4, 2)}) == parse_poly("2*X", ZX)
    assert Polynomial.constant(QYX, 3) == parse_poly("3", QYX)
    assert Polynomial.constant(f7, 10) == parse_poly("3", f7)
    bad_coefficients = [
        (f7, GF(5).from_int(2)),
        (ZX, Fraction(1, 2)),
        (ZX, GF(5).from_int(2)),
        (QYX, GF(5).from_int(2)),
        (QYX, 0.5),
        (ZX, "1"),
        (f7, Fraction(1, 7)),
    ]
    for ring, c in bad_coefficients:
        one = (0,) * len(ring.variables)
        with pytest.raises(CoefficientError):
            Polynomial(ring, {one: c})
        with pytest.raises(CoefficientError):
            Polynomial.constant(ring, c)
    for e in [(2.0,), (-1,), (1, 0)]:
        with pytest.raises(AlgebraError):
            Polynomial(ZX, {e: 1})


# -- formatting -------------------------------------------------------------------------


def test_format_round_trip():
    rng = random.Random("fmt:2")
    for ring in (ZX, QYX, QYZW, F5):
        n = len(ring.variables)
        for _ in range(40):
            f = build(
                ring,
                [
                    (tuple(rng.randint(0, 3) for _ in range(n)), rng.randint(-7, 7))
                    for _ in range(rng.randint(0, 5))
                ],
            )
            assert parse_poly(format_poly(f), ring) == f


@st.composite
def wide_polys(draw, ring):
    """Polynomials with coefficients up to 10^30 in absolute value and, over
    QQ, denominators up to 10^6; the zero polynomial included."""
    n = len(ring.variables)
    exp = st.tuples(*(st.integers(0, 4) for _ in range(n)))
    coef = st.integers(-(10**30), 10**30)
    if ring.domain.name == "QQ":
        coef = st.builds(Fraction, coef, st.integers(1, 10**6))
    return build(ring, draw(st.lists(st.tuples(exp, coef), max_size=5)))


@pytest.mark.parametrize(
    "ring",
    [ZX, QYX, QYZW, F5, F32003],
    ids=["ZZ[X]", "QQ[Y][X]", "QQ[Y,Z,W]", "F5[Y,Z][X]", "F32003[Y][X]"],
)
def test_format_parse_round_trip_fuzzed(ring):
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(f=wide_polys(ring))
    @example(f=Polynomial.zero(ring))
    def check(f):
        text = format_poly(f)
        assert parse_poly(text, ring) == f
        assert format_poly(parse_poly(text, ring)) == text

    check()


def test_format_style():
    assert format_poly(parse_poly("2*X", ZX)) == "2*X"
    assert format_poly(parse_poly("-X + 2", ZX)) == "-X + 2"
    assert format_poly(Polynomial.zero(ZX)) == "0"
    assert format_poly(parse_poly("X^2 - 2", ZX)) == "X^2 - 2"
    assert format_poly(parse_poly("Y*X - 1/2", QYX)) == "Y*X - 1/2"
    assert format_poly(parse_poly("W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3", QYZW)) in (
        "W^5 - 3*Y*Z*W^2 + Y^3*W + Z^3",
        "W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3",
    )


# -- substitution and transport ------------------------------------------------------------


def test_evaluate_map_is_a_homomorphism():
    target = RingSpec.parse("QQ[T]")
    t = Polynomial.variable(target, "T")
    images = {"Y": t**4, "Z": t**5, "W": t**3}
    rng = random.Random("map:3")
    for _ in range(25):
        f = build(QYZW, [(tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(-4, 4))])
        g = build(QYZW, [(tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(-4, 4))])
        assert evaluate_map(f + g, images, target) == evaluate_map(
            f, images, target
        ) + evaluate_map(g, images, target)
        assert evaluate_map(f * g, images, target) == evaluate_map(
            f, images, target
        ) * evaluate_map(g, images, target)


def test_evaluate_map_requires_all_used_images():
    target = RingSpec.parse("QQ[T]")
    t = Polynomial.variable(target, "T")
    f = parse_poly("Y + Z", QYZW)
    with pytest.raises(AlgebraError):
        evaluate_map(f, {"Y": t}, target)
    with pytest.raises(RingMismatchError, match="cannot map coefficients from ZZ into QQ"):
        evaluate_map(parse_poly("X", ZX), {"X": t}, target)
    with pytest.raises(RingMismatchError, match=re.escape("image of Y lives in QQ[Y][X], expected QQ[T]")):
        evaluate_map(f, {"Y": parse_poly("Y", QYX)}, target)
    # unused variables need no image
    assert evaluate_map(parse_poly("Y^2", QYZW), {"Y": t}, target) == t**2


def test_transport_by_name():
    big = QYX.extend_aux("_u0")
    f = parse_poly("Y*X + 2", QYX)
    up = transport(f, big)
    assert up.ring == big
    assert transport(up, QYX) == f
    u = Polynomial.variable(big, "_u0")
    with pytest.raises(AlgebraError):
        transport(u, QYX)
    with pytest.raises(RingMismatchError):
        transport(parse_poly("X", ZX), QYX)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RingSpec(QQ, ("Y", "Y"), ("Y", "Y"), None), "duplicate variable names in ('Y', 'Y')"),
        (lambda: RingSpec(QQ, ("1Y",), ("1Y",), None), "bad variable name '1Y'"),
        (lambda: RingSpec(QQ, ("X",), ("X",), "X"), "main variable X is also a base variable"),
        (
            lambda: RingSpec(QQ, ("Y", "X"), ("Y",), None),
            "variables ('Y', 'X') do not match base ('Y',) + main None + aux ()",
        ),
        (
            lambda: RingSpec(ZZ, ("Y", "X"), ("Y",), "X"),
            "over ZZ the coefficient ring is ZZ itself: no base variables",
        ),
        (lambda: RingSpec(ZZ, (), (), None), "a ZZ ring needs a main variable"),
        (lambda: QYX.extend_aux("Y"), "auxiliary name Y already in use"),
        (lambda: ZX.base_ring(), "over ZZ the coefficient ring is not a polynomial ring"),
    ],
    ids=["duplicate", "bad-name", "main-in-base", "undeclared", "zz-base", "zz-no-main", "aux-in-use",
         "zz-base-ring"],
)
def test_ring_spec_invariants(make, message):
    with pytest.raises(AlgebraError, match=re.escape(message)):
        make()


# -- monomial orders -------------------------------------------------------------------------


def random_exponents(rng, n, hi=6):
    return tuple(rng.randint(0, hi) for _ in range(n))


ORDERS = [
    Lex(),
    Lex(("Z", "W", "Y")),
    Grevlex(),
    BlockElim(("Y",)),
    BlockElim(("Y", "W")),
    BlockElim(("Z",)),
]


@pytest.mark.parametrize("order", ORDERS, ids=[repr(o) for o in ORDERS])
def test_order_axioms(order):
    keyf = key_function(order, QYZW)
    rng = random.Random(f"orders:{order!r}")
    zero = (0, 0, 0)
    for _ in range(10_000):
        a = random_exponents(rng, 3)
        b = random_exponents(rng, 3)
        c = random_exponents(rng, 3)
        # totality with antisymmetry: equal keys only for equal monomials
        assert (keyf(a) == keyf(b)) == (a == b)
        # additivity gives multiplicativity of the induced order
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert (keyf(a) < keyf(b)) == (keyf(ac) < keyf(bc))
        # 1 is the least monomial, so the order is global
        assert keyf(zero) <= keyf(a)


def test_lex_and_grevlex_disagree_where_expected():
    lex = key_function(Lex(), QYZW)
    grev = key_function(Grevlex(), QYZW)
    y, z, w = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    yz, w2, y3 = (1, 1, 0), (0, 0, 2), (3, 0, 0)
    assert lex(y) > lex((0, 9, 9))  # lex ignores total degree
    assert grev((0, 9, 9)) > grev(y)
    assert grev(yz) > grev(w2)  # grevlex tie-break: later variables count against
    assert grev(y3) > grev((0, 0, 3))
    assert lex(z) > lex(w) and lex(y) > lex(z)


def test_elimination_property():
    rng = random.Random("elim:4")
    for front in (("Y",), ("W",), ("Y", "Z")):
        order = BlockElim(front)
        keyf = key_function(order, QYZW)
        fidx = [QYZW.index(v) for v in front]
        for _ in range(2000):
            a = random_exponents(rng, 3)
            b = random_exponents(rng, 3)
            a_has = any(a[i] for i in fidx)
            b_has = any(b[i] for i in fidx)
            if a_has and not b_has:
                assert keyf(a) > keyf(b)
            if b_has and not a_has:
                assert keyf(b) > keyf(a)


def test_order_validation():
    with pytest.raises(AlgebraError):
        key_function(Lex(("Y", "Z")), QYZW)  # permutation must cover all variables
    with pytest.raises(AlgebraError):
        key_function(BlockElim(("Q",)), QYZW)
    with pytest.raises(AlgebraError, match="unknown monomial order 'weighted'"):
        key_function("weighted", QYZW)


def test_parse_order_forms():
    assert parse_order("grevlex") == Grevlex()
    assert parse_order("lex") == Lex()
    assert parse_order("lex:Z,W,Y") == Lex(("Z", "W", "Y"))
    assert parse_order("elim:Y,Z") == BlockElim(("Y", "Z"))
    with pytest.raises(AlgebraError):
        parse_order("elim:")
    with pytest.raises(AlgebraError):
        parse_order("weighted")
