"""Ideal calculus: powers, intersection, quotient, saturation, elimination,
membership, radicals, and kernels of ring maps."""

import itertools
import math
import random
import re
import time

import pytest

import powerstable.groebner
import powerstable.ideals
from powerstable import (
    AlgebraError,
    BlockElim,
    Budget,
    BudgetExceededError,
    Grevlex,
    Ideal,
    Lex,
    Polynomial,
    RingMap,
    RingMismatchError,
    RingSpec,
    check_power_stable,
    contract_power,
    evaluate_map,
    example_3_12,
    exact_divide,
    format_poly,
    groebner_basis,
    hochster_P,
    hochster_toric_map,
    is_groebner,
    monic_certificate,
    normal_form,
    parse_poly,
    transport,
)
from powerstable.corpus import prime_corpus
from powerstable.groebner import _product, _to_polynomial

from helpers import rand_gens
from oracles import reference_saturation

ZX = RingSpec.parse("ZZ[X]")
QYX = RingSpec.parse("QQ[Y][X]")
QYZX = RingSpec.parse("QQ[Y,Z][X]")
QX = RingSpec.parse("QQ[X]")
QYZW = RingSpec.parse("QQ[Y,Z,W]")
QT = RingSpec.parse("QQ[T]")
F7YX = RingSpec.parse("Fp(7)[Y][X]")
F7YZW = RingSpec.parse("Fp(7)[Y,Z,W]")
F32003YZW = RingSpec.parse("Fp(32003)[Y,Z,W]")


def ideal(ring, *texts):
    return Ideal.from_texts(ring, list(texts))


# -- powers -------------------------------------------------------------------


def test_power_generators_are_all_products():
    I = ideal(ZX, "X^2 - 2", "X^3")
    sq = I.power(2)
    expected = {
        parse_poly("X^4 - 4*X^2 + 4", ZX),
        parse_poly("X^5 - 2*X^3", ZX),
        parse_poly("X^6", ZX),
    }
    assert set(sq.generators) == expected
    gadget = ideal(QYX, "X^2 - Y", "Y*X")
    expected = {
        parse_poly("X^4 - 2*Y*X^2 + Y^2", QYX),
        parse_poly("Y*X^3 - Y^2*X", QYX),
        parse_poly("Y^2*X^2", QYX),
    }
    assert set(gadget.power(2).generators) == expected
    # X * X*Y = X^2 * Y: equal products collapse, first occurrences in order;
    # Polynomials are equal when their maps of exponents to coefficients
    # are, so over QQ 2*X * Y and X * 2*Y collapse, and X * Y stays beside them
    coincide = [ideal(QYX, "X", "Y", "X^2", "X*Y"), ideal(QYZX, "X", "2*X", "Y", "2*Y")]
    for ring in (ZX, QYZX, F7YX):
        for k in range(3):
            rng = random.Random(f"power-gens:{ring}:{k}")
            gens = rand_gens(rng, ring, 3, 2, 4, max_den=1 if ring.is_int_mode else 3)
            coincide.append(Ideal(ring, gens))
    for I in coincide:
        want = {}
        for t in (2, 3, 4):
            distinct = []
            for combo in itertools.combinations_with_replacement(I.generators, t):
                prod = math.prod(combo[1:], start=combo[0])
                if prod not in distinct:
                    distinct.append(prod)
            want[t] = tuple(distinct)
            assert I.power(t).generators == want[t], (I, t)
        # a fresh copy reads I^4 first, which forms I^2 and I^3 on the way
        fresh = Ideal(I.ring, I.generators)
        for t in (4, 2, 3):
            assert fresh.power(t).generators == want[t], (I, t)
    for I in coincide[:2]:
        for t in (2, 3, 4):
            assert len(I.power(t).generators) < math.comb(len(I.generators) + t - 1, t)


def test_power_basics():
    I = ideal(QYX, "X^2 - Y", "Y*X")
    assert I.power(1) is I
    with pytest.raises(AlgebraError):
        I.power(0)
    cube = I.power(3)
    assert len(cube.generators) == 4  # multiset coefficient C(2+3-1, 3)
    for g in cube.generators:
        assert I.contains(g)
    zero = Ideal(ZX, [])
    assert zero.power(5).is_zero_ideal()


def test_power_over_the_degree_budget_raises_before_it_is_formed():
    # (X + Y + Z + 1)^t has degree t; forming it at t = 100 would multiply
    # out every product before any basis rejected it
    I = ideal(QYZX, "X + Y + Z + 1")
    started = time.perf_counter()
    message = r"^degree budget 60 exceeded \(term of degree 100\)$"
    with pytest.raises(BudgetExceededError, match=message):
        I.power(100)
    assert time.perf_counter() - started < 1
    # the cap is t times the top generator degree, here 2, and a cached
    # power is checked against the budget of each call
    J = ideal(QYX, "X^2 - Y", "Y*X")
    assert len(J.power(3, Budget(max_degree=6)).generators) == 4
    with pytest.raises(BudgetExceededError, match=r"degree budget 5 exceeded \(term of degree 6\)"):
        J.power(3, Budget(max_degree=5))
    assert J.power(1, Budget(max_degree=1)) is J  # I^1 is not formed
    assert Ideal(QYX, []).power(100).is_zero_ideal()


def test_power_multiplicativity_on_membership():
    I = ideal(QYX, "X^2 - Y", "Y*X")
    for s, t in ((1, 2), (2, 2)):
        left = I.power(s) * I.power(t)
        right = I.power(s + t)
        assert left.equals(right)


# -- bases of powers ----------------------------------------------------------------


@pytest.mark.parametrize("order", [Grevlex(), BlockElim(("X",))], ids=str)
@pytest.mark.parametrize("ring", [ZX, QYZX, F7YX], ids=str)
def test_power_basis_from_the_factor_bases_equals_the_generators_basis(ring, order):
    """Oracle: once I^(t-1) has a basis, I^t's basis, started from the
    products G_(t-1)·G_1, equals the basis of its generators element for
    element.  Over ZZ and over fields alike every such power starts from
    the products."""
    seeded = 0
    for k in range(8):
        rng = random.Random(f"power-basis:{ring}:{k}")
        I = Ideal(ring, rand_gens(rng, ring, rng.randint(2, 3), 3, coeff_bound=4))
        for t in range(2, 5):
            I.power(t - 1).groebner(order)
            seeded += I.power(t)._seed(order, Budget()) is not None
            got = I.power(t).groebner(order).elements
            assert got == groebner_basis(I.power(t).generators, order).elements, (k, t)
    assert seeded == 24


@pytest.fixture
def shared_factors(monkeypatch):
    """A list that grows by one per pair the shared-factor criterion settles."""
    settled = []
    real = powerstable.groebner._shared_factor

    def counting(a, b):
        shared = real(a, b)
        if shared:
            settled.append((a, b))
        return shared

    monkeypatch.setattr(powerstable.groebner, "_shared_factor", counting)
    return settled


@pytest.mark.parametrize("order", [Grevlex(), BlockElim(("X",))], ids=str)
@pytest.mark.parametrize("ring", [ZX, QYZX, F7YX], ids=str)
def test_power_bases_from_term_lists_reduce_the_pairs_of_polynomial_starts(
    ring, order, pair_calls, shared_factors, monkeypatch
):
    """Oracle: a power's basis, started from its generators or inside the
    engine from the term lists of the products of the reducers of G_(t-1)
    and G_1, equals the basis ``groebner_basis`` computes from the
    Polynomials of the same start in the same order.  With the shared-factor
    criterion off, a start from the products reduces exactly the pairs of
    its Polynomials, which carry no factors.  With it on, the start reduces
    no more than those, and no fewer than those less the pairs it settles:
    a settled pair is never formed, so it is counted even where it would
    have gone stale, or been a G-pair over ZZ that a leading term divides.
    Every seed where a count is off is reported, and the criterion must
    save some pair."""
    starts = {"seeded": 0, "generators": 0}
    differ, saved = [], 0
    for k in range(6):
        rng = random.Random(f"engine-start:{ring}:{order}:{k}")
        I = Ideal(ring, rand_gens(rng, ring, rng.randint(2, 4), 2, coeff_bound=4))
        if k % 2:
            I.groebner(order)  # odd k: G_1 lets powers start from G_(t-1)·G_1
        for t in (2, 3, 4):
            power = I.power(t)
            seed = power._seed(order, Budget())
            if seed is None:
                start, kind = power.generators, "generators"
            else:
                start, kind = [_to_polynomial(seed.cord, h) for h in seed.terms], "seeded"
            before, settled = len(pair_calls), len(shared_factors)
            got = power.groebner(order).elements
            middle, settled = len(pair_calls), len(shared_factors) - settled
            assert got == groebner_basis(start, order).elements, (k, t)
            reduced, polys = middle - before, len(pair_calls) - middle
            unsettled = polys
            if seed is not None:
                with monkeypatch.context() as patch:
                    patch.setattr(powerstable.groebner, "_shared_factor", lambda a, b: False)
                    before = len(pair_calls)
                    assert groebner_basis(seed, order).elements == got, (k, t)
                    unsettled = len(pair_calls) - before
            if not (unsettled == polys and reduced <= polys <= reduced + settled):
                differ.append((k, t, kind, reduced, settled, polys, unsettled))
            saved += polys - reduced
            starts[kind] += 1
    # (k, t, start, pairs reduced, pairs settled, pairs of the Polynomial
    # start, pairs reduced with the criterion off)
    assert differ == [], differ
    assert saved > 0, "the shared-factor criterion saved no pair"
    assert starts == {"seeded": 9, "generators": 9}, starts


def test_products_carry_the_index_pairs_of_their_factors():
    """G_1·G_1 carries every ordered (i, j) of G_1's elements: G_i·G_j and
    G_j·G_i are formed apart and merge as one product; G_2·G_1 carries
    (index into G_2, index into G_1).  Each product is the product of each
    of its factor pairs, and the products ascend by leading term.  Two
    products share a factor when a left index or a right index agrees; an
    element that is not a start product, given as None, shares none."""
    I = ideal(QYX, "X^2 - Y", "Y*X", "Y^2*X - Y^3")
    lefts = rights = I.groebner()._reduced().polys
    for t in (2, 3):
        seed = I.power(t)._seed(Grevlex(), Budget())
        pairs = [pair for got in seed.factors for pair in got]
        assert sorted(pairs) == list(itertools.product(range(len(lefts)), range(len(rights)))), t
        for h, got in zip(seed.terms, seed.factors):
            assert all(h == _product(lefts[i], rights[j], seed.cord) for i, j in got), t
        keys = [h[0][0] for h in seed.terms]
        assert keys == sorted(keys), t
        lefts = I.power(2).groebner()._reduced().polys
    shared = powerstable.groebner._shared_factor
    assert shared([(0, 1)], [(0, 2)]) and shared([(0, 1)], [(2, 1)])
    assert shared([(3, 4), (0, 1)], [(2, 3), (5, 1)])
    assert not shared([(0, 1)], [(1, 0)]) and not shared([(0, 1), (2, 3)], [(1, 2), (3, 0)])
    assert not shared(None, [(0, 1)]) and not shared([(0, 1)], None) and not shared(None, None)


@pytest.mark.parametrize("order", [Grevlex(), BlockElim(("X",))], ids=str)
@pytest.mark.parametrize("ring", [ZX, QYZX, F7YX], ids=str)
def test_the_shared_factor_criterion_keeps_every_power_basis(ring, order, pair_calls, monkeypatch):
    """Oracle: the basis of a power started from G_(t-1)·G_1 is the same
    with the shared-factor criterion on and patched off, ``is_groebner``,
    which applies no criterion, accepts it, and it equals the basis of the
    power's generators; no power reduces more pairs with the criterion on,
    and together they reduce fewer.  Over ZZ the first ideal has products
    that reduce on entry and so lose their factor pairs: a criterion that
    kept them would miss a pair of its square."""
    saved = 0
    ideals = [ideal(ZX, "-10*X^4 - 15*X", "25*X^4 - 20*X^3 + 21")] if ring == ZX else []
    for k in range(6):
        rng = random.Random(f"shared-factor:{ring}:{order}:{k}")
        ideals.append(Ideal(ring, rand_gens(rng, ring, rng.randint(2, 3), 3, coeff_bound=4)))
    for k, I in enumerate(ideals):
        I.groebner(order)
        for t in (2, 3, 4):
            power = I.power(t)
            seed = power._seed(order, Budget())
            assert seed is not None, (k, t)
            before = len(pair_calls)
            on = groebner_basis(seed, order)
            middle = len(pair_calls)
            with monkeypatch.context() as patch:
                patch.setattr(powerstable.groebner, "_shared_factor", lambda a, b: False)
                off = groebner_basis(seed, order)
            assert on.elements == off.elements, (k, t)
            assert on.elements == groebner_basis(power.generators, order).elements, (k, t)
            assert is_groebner(on), (k, t)
            reduced, unskipped = middle - before, len(pair_calls) - middle
            assert reduced <= unskipped, (k, t, reduced, unskipped)
            saved += unskipped - reduced
            power.groebner(order)  # G_t seeds the next power
    assert saved > 0


def test_contractions_start_each_power_from_the_previous_basis(pair_calls):
    """Contracting I^1..I^3 reduces 35 pairs when every power starts from
    its generators; from G_(t-1)·G_1 it reduces 12, and the generators of
    the powers are never formed."""
    I = example_3_12(3)
    for t in (1, 2, 3):
        contract_power(I, t)
    assert len(pair_calls) <= 12
    assert I.power(2)._generators is None and I.power(3)._generators is None


def test_power_basis_over_the_budget_from_products_starts_from_generators():
    """G_1 holds Y^3, so the products G_1·G_1 reach degree 6 and their
    pairs degree 7.  Under a cap below 6 the square starts from its
    generators, which reach degree 4, and under 6 or more from the
    products.  Under every cap the answer, or the error, is that of the
    start from the generators of I^2."""
    gens = ("X^2", "Y^2 + 2*Y*X + 2*X^2", "2*X^2", "Y^2 + 2*Y*X + 3*X^2")
    order = BlockElim(("X",))
    answered = []
    for cap in (4, 5, 6, 8):
        budget = Budget(max_degree=cap)
        I = ideal(QYX, *gens)
        assert max(g.total_degree() for g in I.groebner(order, budget)) == 3
        square = I.power(2, budget)
        assert (square._seed(order, budget) is not None) == (cap >= 6), cap
        try:
            want = groebner_basis(square.generators, order, budget).elements
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError, match=f"^{re.escape(str(exc))}$"):
                square.groebner(order, budget)
        else:
            assert square.groebner(order, budget).elements == want
            answered.append(cap)
    assert answered == [6, 8]


def test_power_basis_from_factor_bases_of_a_larger_budget():
    """G_1 has degree 3.  Computed under a degree budget of 200 (16-bit
    fields), its reducers serve every cap below, so its square starts from
    the products G_1·G_1 under a cap of 6 or more, under G_1's own compiled
    order, and from its generators under a smaller cap.  Computed under 60
    (8-bit fields, bound 63), G_1 does not serve a cap of 64: the square
    starts from its generators, and G_1's tails stay unreduced.  Either way
    the answer, or the error, is that of the start from the generators of
    I^2."""
    gens = ("X^2", "Y^2 + 2*Y*X + 2*X^2", "2*X^2", "Y^2 + 2*Y*X + 3*X^2")
    order = BlockElim(("X",))
    compiled = powerstable.groebner._compiled
    answered = []
    for factor_cap in (200, 60):
        for cap in (2, 4, 6, 8, 64):
            budget = Budget(max_degree=cap)
            I = ideal(QYX, *gens)
            G_1 = I.groebner(order, Budget(max_degree=factor_cap))
            square = I.power(2)
            seed = square._seed(order, budget)
            served = cap <= compiled(order, QYX, factor_cap).bound
            assert (seed is not None) == (served and cap >= 6), (factor_cap, cap)
            assert ("_minimal" in vars(G_1)) == (not served), (factor_cap, cap)
            if seed is not None:
                assert seed.cord is compiled(order, QYX, factor_cap)
            assert max(g.total_degree() for g in G_1) == 3
            try:
                want = groebner_basis(square.generators, order, budget).elements
            except BudgetExceededError as exc:
                with pytest.raises(BudgetExceededError, match=f"^{re.escape(str(exc))}$"):
                    square.groebner(order, budget)
            else:
                assert square.groebner(order, budget).elements == want
                answered.append((factor_cap, cap))
    assert answered == [(200, 6), (200, 8), (200, 64), (60, 6), (60, 8), (60, 64)]


def test_budgets_of_one_field_width_share_one_compiled_order():
    """Every budget of a field width shares one compiled order, compiled for
    the largest bound the width holds: 63 for 8-bit fields and 16383 for
    16-bit ones.  Factor bases on 8-bit fields do not serve a budget of 64:
    the square starts from its generators, and the factor's tails stay
    unreduced; under the default budget it starts from their products under
    their order."""
    compiled = powerstable.groebner._compiled
    for ring in (ZX, QYZX, F7YX):
        for order in (Grevlex(), BlockElim(("X",))):
            narrow, wide = compiled(order, ring, 0), compiled(order, ring, 64)
            assert narrow.bound == 63 and wide.bound == 16383
            assert all(compiled(order, ring, b) is narrow for b in range(64))
            assert compiled(order, ring, 200) is wide
    power = ideal(QYX, "Y^2 - X*Y", "X^2 + 2*Y").power(3)
    assert len(power.generators) == 4
    power.groebner()
    I = ideal(ZX, "X^2 - 6", "4*X")
    G_1 = I.groebner()
    square, wide_budget = I.power(2), Budget(max_degree=64)
    assert square._seed(Grevlex(), wide_budget) is None
    assert G_1._reducers(wide_budget) is None and "_minimal" in vars(G_1)
    assert G_1._reducers(Budget()).cord is compiled(Grevlex(), ZX, 60)
    assert square._seed(Grevlex(), Budget()).cord is compiled(Grevlex(), ZX, 60)
    want = groebner_basis(square.generators, Grevlex(), wide_budget).elements
    assert square.groebner(Grevlex(), wide_budget).elements == want


def test_a_power_seeds_from_factor_bases_of_another_field_width():
    """G_1 and G_2, computed under a degree budget of 64, lie on 16-bit
    fields, which serve the default budget: the cube under it starts from
    their products under their own compiled order and answers within 40
    pairs, as its generators do with no cap on the pairs.  Computed under
    the default budget, on 8-bit fields, they do not serve a budget of 64:
    the cube starts from its generators, and G_2's tails stay unreduced
    (G_1's were read for the start of the square).  With G_1 on 8-bit fields
    and G_2 on 16-bit ones both serve the default budget, but under two
    compiled orders, so the cube starts from its generators, and the orders
    are compared before either basis reduces a tail."""
    compiled = powerstable.groebner._compiled
    wide, narrow = Budget(max_degree=64), Budget()
    for g1, g2, budget, seeded, unread in (
        (wide, wide, Budget(max_pairs=40), True, (False, False)),
        (narrow, narrow, wide, False, (False, True)),
        (narrow, wide, narrow, False, (True, True)),
    ):
        I = ideal(ZX, "-6*X^2 - 3*X - 1", "-4*X", "4*X^2 + 2")
        G_1 = I.groebner(budget=g1)
        G_2 = I.power(2).groebner(budget=g2)
        cube = I.power(3)
        seed = cube._seed(Grevlex(), budget)
        assert (seed is not None) is seeded
        assert tuple("_minimal" in vars(G) for G in (G_1, G_2)) == unread
        if seeded:
            assert seed.cord is compiled(Grevlex(), ZX, 64)
        got = cube.groebner(Grevlex(), budget).elements
        assert got == groebner_basis(cube.generators, Grevlex(), wide).elements
        assert [format_poly(g) for g in got] == ["8", "4*X + 4", "2*X^2 + 6", "X^3 + X^2 + 3*X + 3"]


@pytest.mark.parametrize("curve", [(3, 4, 5), (3, 5, 7), (4, 5, 6)], ids=str)
def test_toric_prime_powers_over_a_prime_field_start_from_the_factor_bases(curve):
    """A toric prime has few generators and a large basis.  Over GF(32003)
    its powers still start from the products G_(t-1)·G_1, under the
    elimination order of its contractions and under grevlex, and their
    bases equal the bases started from the generators of the powers."""
    source = RingSpec.parse("Fp(32003)[Y,Z,W]")
    target = RingSpec.parse("Fp(32003)[T]")
    main = RingSpec.parse("Fp(32003)[Y,Z][W]")
    t_var = Polynomial.variable(target, "T")
    images = {v: t_var**e for v, e in zip("WYZ", curve)}
    kernel = RingMap(source, target, images).kernel()
    P = Ideal(main, [transport(g, main) for g in kernel.generators])
    assert check_power_stable(P, 3).records  # bases of P, P^2, P^3 under BlockElim(W)
    for order in (BlockElim(("W",)), Grevlex()):
        for t in (2, 3):
            P.power(t - 1).groebner(order)
            power = P.power(t)
            assert power._seed(order, Budget()) is not None, (order, t)
            want = groebner_basis(power.generators, order).elements
            assert power.groebner(order).elements == want, (order, t)


# -- sums and products -----------------------------------------------------------


def test_sum_and_product_generators():
    A = ideal(QYX, "X")
    B = ideal(QYX, "Y")
    assert set((A + B).generators) == {parse_poly("X", QYX), parse_poly("Y", QYX)}
    assert set((A * B).generators) == {parse_poly("Y*X", QYX)}
    with pytest.raises(RingMismatchError):
        A + ideal(ZX, "X")


# -- intersection ------------------------------------------------------------------


def test_intersect_constants_over_zz():
    assert ideal(ZX, "2").intersect(ideal(ZX, "3")).equals(ideal(ZX, "6"))
    assert ideal(ZX, "4").intersect(ideal(ZX, "6")).equals(ideal(ZX, "12"))


def test_intersect_principal_over_field():
    meet = ideal(QYX, "X").intersect(ideal(QYX, "Y"))
    assert meet.equals(ideal(QYX, "Y*X"))


def test_intersect_comaximal_pair_is_the_product():
    A = ideal(ZX, "2", "X - 1")
    B = ideal(ZX, "3", "X")
    meet = A.intersect(B)
    assert meet.contains(parse_poly("6", ZX))
    assert meet.contains(parse_poly("X^2 - X", ZX))
    assert meet.equals(A * B)  # comaximal: intersection equals product
    assert not meet.contains(parse_poly("2", ZX))


def test_intersect_allocates_a_tag_that_avoids_a_used_name():
    # the ring already holds the auxiliary _t0, so the tag variable is _t1
    ext = QYX.extend_aux("_t0")
    assert ext.fresh_aux("t") == "_t1"
    meet = ideal(ext, "X^2 - Y").intersect(ideal(ext, "Y*X"))
    assert [format_poly(g) for g in meet.generators] == ["Y*X^3 - Y^2*X"]
    plain = ideal(QYX, "X^2 - Y").intersect(ideal(QYX, "Y*X"))
    assert [transport(g, QYX) for g in meet.generators] == list(plain.generators)


def test_intersect_laws():
    rng = random.Random("meet:0")
    for _ in range(6):
        I = Ideal(QYX, rand_gens(rng, QYX, 2, 2))
        J = Ideal(QYX, rand_gens(rng, QYX, 2, 2))
        meet = I.intersect(J)
        assert meet.equals(J.intersect(I))
        assert I.intersect(I).equals(I)
        for g in meet.generators:
            assert I.contains(g) and J.contains(g)
    zero = Ideal(QYX, [])
    assert Ideal(QYX, rand_gens(rng, QYX, 1, 2)).intersect(zero).is_zero_ideal()


# -- quotient -------------------------------------------------------------------------


def test_quotient_examples():
    assert ideal(QYX, "Y*X").quotient(parse_poly("X", QYX)).equals(ideal(QYX, "Y"))
    assert ideal(QYX, "X").quotient(parse_poly("Y", QYX)).equals(ideal(QYX, "X"))
    I = ideal(QYX, "X^2 - Y", "Y*X")
    assert I.quotient(Polynomial.one(QYX)).equals(I)
    unit = I.quotient(Polynomial.zero(QYX))
    assert unit.contains(Polynomial.one(QYX))


_ZERO_COLONS = [
    # over a field: the tag route, the homogenized route, a constant
    (QYX, ("X + 2", "X", "-1/2*X", "3")),
    # over ZZ every divisor takes the tag route
    (ZX, ("X + 2", "X", "2*X", "3")),
]


@pytest.mark.parametrize("ring, divisors", _ZERO_COLONS, ids=[str(r) for r, _ in _ZERO_COLONS])
def test_colons_of_the_zero_ideal_and_by_zero(ring, divisors):
    """(0 : f) and (0 : f^infinity) stay zero for f != 0, on every route of
    the colon; saturating by 0 gives the unit ideal, as (I : 0) does, for
    I = 0 too."""
    zero = Ideal(ring, [])
    for text in divisors:
        f = parse_poly(text, ring)
        for J in (zero.quotient(f), zero.saturate(f)):
            assert J.ring == ring and J.is_zero_ideal(), text
    for I in (ideal(ring, "X^2 - 2"), zero):
        assert I.saturate(Polynomial.zero(ring)).contains(Polynomial.one(ring))


def test_quotient_laws():
    rng = random.Random("colon:1")
    for _ in range(6):
        I = Ideal(QYX, rand_gens(rng, QYX, 2, 2))
        f = rand_gens(rng, QYX, 1, 2)[0]
        Q = I.quotient(f)
        for g in I.generators:
            assert Q.contains(g)  # I is always inside (I : f)
        for g in Q.generators:
            assert I.contains(g * f)  # and the colon property holds exactly


def test_quotient_detects_hochster_cofactor():
    P = hochster_P()
    w = parse_poly("W", QYZW)
    q = parse_poly("W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3", QYZW)
    colon = P.power(2).quotient(w)
    assert colon.contains(q)
    assert not P.power(2).contains(q)


def _tag_route(I, f):
    """(I : f) as the intersection with (f), then exact division by f."""
    return tuple(exact_divide(g, f) for g in I.intersect(Ideal(I.ring, [f])).generators)


def _seeded_ideals(rng, ring, count):
    """Seeded ideals of 1-3 generators, one divisible by a variable so that
    some colons grow."""
    for _ in range(count):
        gens = rand_gens(rng, ring, rng.randint(1, 3), 2)
        gens[0] = Polynomial.variable(ring, rng.choice(ring.variables)) * gens[0]
        yield Ideal(ring, gens)


def _variable_colons(ring, units, count, seed):
    """Seeded ideals, each with every variable times every unit."""
    for I in _seeded_ideals(random.Random(seed), ring, count):
        for v in ring.variables:
            for u in units:
                yield I, parse_poly(f"{u}*{v}", ring)


def _hochster_colons():
    P = hochster_P()
    for t in (2, 3):
        for v in QYZW.variables:
            yield P.power(t), parse_poly(v, QYZW)


@pytest.mark.parametrize(
    "cases",
    [
        lambda: _variable_colons(QYZX, ("1", "-1", "2", "1/2"), 6, "colon-route:QQ"),
        lambda: _variable_colons(F7YX, ("1", "3"), 6, "colon-route:GF(7)"),
        lambda: _variable_colons(F32003YZW, ("1", "3"), 6, "colon-route:GF(32003)"),
        _hochster_colons,
    ],
    ids=["QQ[Y,Z][X]", "Fp(7)[Y][X]", "Fp(32003)[Y,Z,W]", "hochster_P^t"],
)
def test_colon_by_a_variable_equals_the_tag_route(cases):
    """Over a field the colon by a unit times a variable, computed from the
    homogenized grevlex basis, is the reduced grevlex basis of the tag
    route's generators, tuple for tuple, and each of them times f lies in I."""
    cases = list(cases())
    grown = 0
    for I, f in cases:
        colon = I.quotient(f)
        reduced = groebner_basis(list(_tag_route(I, f)), Grevlex()).elements
        assert colon.generators == reduced, (I, f)
        for q in colon.generators:
            assert I.contains(f * q), (I, f, q)
        grown += not all(I.contains(q) for q in colon.generators)
    assert grown >= len(cases) // 4  # the cases are not mostly I : f = I


_ANSWER_RINGS = [ZX, QYX, QYZX, F7YX, F7YZW]


def _answers(ring, seed):
    """Ideal answers over ``ring`` from seeded ideals: colons by every
    variable times 1, -1, 2 and 3, by a nonzero constant and by a random
    polynomial, and a saturation, an intersection and an elimination."""
    for I, f in _variable_colons(ring, ("1", "-1", "2", "3"), 3, seed):
        yield I.quotient(f)
    rng = random.Random(seed)
    for I in _seeded_ideals(rng, ring, 3):
        yield I.quotient(parse_poly("-2", ring))
        f = rand_gens(rng, ring, 1, 1)[0]
        yield I.quotient(f)
        yield I.saturate(f)
        yield I.intersect(Ideal(ring, rand_gens(rng, ring, rng.randint(1, 2), 2)))
        yield I.eliminate([rng.choice(ring.variables)])


@pytest.mark.parametrize("ring", _ANSWER_RINGS, ids=str)
def test_ideal_answers_are_their_reduced_grevlex_bases(ring):
    """Every colon, saturation, intersection and elimination answers with
    its reduced grevlex basis (strong over ZZ): a fixed point of
    ``groebner_basis``, whatever unit the divisor carries."""
    for J in _answers(ring, f"answers:{ring}"):
        if not J.is_zero_ideal():
            assert groebner_basis(list(J.generators), Grevlex()).elements == J.generators, J


_UNITS = [(ZX, ("-1",)), (F7YX, ("3",)), (F7YZW, ("3",))]
_UNITS += [(QYX, ("-1", "2", "-1/3")), (QYZX, ("-1", "2", "-1/3"))]


@pytest.mark.parametrize("ring, units", _UNITS, ids=[str(r) for r, _ in _UNITS])
def test_a_colon_does_not_depend_on_the_unit_of_its_divisor(ring, units, pair_calls):
    """(I : u*f) prints the generators of (I : f) for every unit u, by a
    variable, by a random polynomial and by 1.  Over a field a colon by a
    constant is I itself: with the grevlex basis of I cached it forms no
    pair."""
    rng = random.Random(f"colon-unit:{ring}")
    for I in _seeded_ideals(rng, ring, 3):
        divisors = [Polynomial.variable(ring, v) for v in ring.variables]
        for f in divisors + rand_gens(rng, ring, 1, 1) + [Polynomial.one(ring)]:
            for u in units:
                uf = parse_poly(u, ring) * f
                assert I.quotient(uf).generators == I.quotient(f).generators, (I, f, u)
        if not ring.is_int_mode:
            gb = I.groebner()
            before = len(pair_calls)
            for u in units:
                assert I.quotient(parse_poly(u, ring)).generators == gb.elements, (I, u)
            assert len(pair_calls) == before, I


@pytest.mark.parametrize(
    "gens, by, stages",
    [
        (("Y^2 - Z*W", "Y*Z - W^3", "Z^2 - Y*W^2"), "W", 1),
        (("Y^2*W + 3*Y*W^2 + 3*Z*W", "6*Y^2 - 3*Y - 3*W"), "Z", 2),
    ],
)
def test_colon_by_a_variable_raises_over_its_budget(monkeypatch, gens, by, stages):
    """Under ``Budget(max_pairs=0)``, and under a ``max_degree`` below the
    generators, the colon raises.  With the basis of I cached, each of the
    two computations of the route, the basis of the homogenized ideal and
    that of the colon, is capped on its own: under every cap the colon
    either answers in full or raises.  In the second case each computation
    raises under some cap; in the first the colon's basis needs no more
    pairs than that of the homogenized ideal."""
    w = parse_poly(by, F32003YZW)
    full = ideal(F32003YZW, *gens).quotient(w).generators
    with pytest.raises(BudgetExceededError, match="pair budget 0 exhausted"):
        ideal(F32003YZW, *gens).quotient(w, Budget(max_pairs=0))
    with pytest.raises(BudgetExceededError, match="degree budget 2 exceeded"):
        ideal(F32003YZW, *gens).quotient(w, Budget(max_degree=2))
    raised_in = set()
    real = powerstable.ideals.groebner_basis

    def recording(polys, order, budget):
        try:
            return real(polys, order, budget)
        except BudgetExceededError:
            raised_in.add(polys[0].ring.variables)
            raise

    monkeypatch.setattr(powerstable.ideals, "groebner_basis", recording)
    I = ideal(F32003YZW, *gens)
    I.groebner()
    for budget in [Budget(max_pairs=k) for k in range(12)] + [
        Budget(max_degree=d) for d in range(8)
    ]:
        try:
            got = I.quotient(w, budget).generators
        except BudgetExceededError:
            continue
        assert got == full, budget
    assert len(raised_in) == stages, raised_in


# -- saturation ----------------------------------------------------------------------


def test_saturate_examples_over_field():
    x = parse_poly("X", QYX)
    assert ideal(QYX, "X^2*Y").saturate(x).equals(ideal(QYX, "Y"))
    sat = ideal(QYX, "X^2").saturate(x)
    assert sat.contains(Polynomial.one(QYX))


def test_saturate_examples_over_zz():
    two = parse_poly("2", ZX)
    assert ideal(ZX, "4*X").saturate(two).equals(ideal(ZX, "X"))
    assert ideal(ZX, "3*X").saturate(two).equals(ideal(ZX, "3*X"))
    # seventy quotient steps away from stable: one elimination all the same
    assert ideal(ZX, f"{2**70}*X").saturate(two).equals(ideal(ZX, "X"))


@pytest.mark.parametrize("ring", [ZX, QYX], ids=["ZZ[X]", "QQ[Y][X]"])
def test_saturate_matches_the_quotient_chain(ring):
    """One elimination of 1 - y*f equals the limit of (I : f^k), over ZZ
    as over a field."""
    rng = random.Random(f"sat-chain:{ring}")
    const = [parse_poly(c, ring) for c in ("2", "6", "-3")]
    for _ in range(24):
        if ring.is_int_mode and rng.random() < 0.4:
            f = rng.choice(const)
        else:
            f = rand_gens(rng, ring, 1, 1)[0]
        # generators divisible by powers of f, so that the chain is not flat
        hs = rand_gens(rng, ring, rng.randint(1, 2), 1, coeff_bound=6)
        gens = [f ** rng.randint(1, 3) * h for h in hs]
        gens += rand_gens(rng, ring, rng.randint(0, 1), 2, coeff_bound=6)
        I = Ideal(ring, gens)
        assert I.saturate(f).equals(reference_saturation(I, f)), (I, f)


def test_saturate_laws():
    rng = random.Random("sat:2")
    for ring in (QYX, ZX):
        for _ in range(4):
            I = Ideal(ring, rand_gens(rng, ring, 2, 2))
            f = rand_gens(rng, ring, 1, 1)[0]
            sat = I.saturate(f)
            for g in I.generators:
                assert sat.contains(g)
            for g in I.quotient(f).generators:
                assert sat.contains(g)
            assert sat.saturate(f).equals(sat)


# -- elimination ----------------------------------------------------------------------


def test_eliminate_gadget_contraction():
    I = ideal(QYX, "X^2 - Y", "Y*X")
    down = I.eliminate(["X"])
    assert down.equals(ideal(QYX, "Y^2"))
    for g in down.generators:
        assert g.free_of(["X"])
    assert not I.contains(parse_poly("Y", QYX))


def test_eliminate_edge_cases():
    I = ideal(QYX, "X^2 - Y")
    # no variable eliminated: the reduced grevlex basis, not the generators
    assert I.eliminate([]).generators == I.groebner().elements
    J = Ideal.from_texts(QX, ["X^2", "X^2 + X"]).eliminate(())
    assert [format_poly(g) for g in J.generators] == ["X"]
    with pytest.raises(AlgebraError):
        I.eliminate(["Q"])
    assert Ideal(QYX, []).eliminate(["X"]).is_zero_ideal()


@pytest.mark.parametrize(
    "ring, texts, front",
    [
        (ZX, ("X^2 - 2", "X^3"), ("X", "X")),
        (ZX, (), ("X", "X")),
        (QYZX, ("X - Y", "X - Z"), ("X", "Y", "Z", "Y")),
        (QYZX, ("X - Y", "X - Z"), ("Y", "X", "Y")),
        (QYZX, (), ("Y", "Y")),
    ],
    ids=str,
)
def test_eliminate_rejects_a_repeated_variable(ring, texts, front):
    # every route gives BlockElim's message: all the variables (grevlex),
    # some of them (BlockElim) and the zero ideal
    with pytest.raises(AlgebraError, match=re.escape(f"bad elimination block {front} for ring {ring}")):
        ideal(ring, *texts).eliminate(front)


def test_eliminating_every_variable_keeps_the_block_elimination_constants():
    # with every variable in front, eliminate reads the constants of the
    # grevlex basis; the X-free part of the BlockElim basis is the same
    rng = random.Random("elim-all:0")
    F7YZ = RingSpec.parse("Fp(7)[Y,Z]")
    for ring, count, deg in ((ZX, 2, 3), (QX, 2, 3), (F7YZ, 3, 2)):
        front = ring.variables
        for _ in range(8):
            I = Ideal(ring, rand_gens(rng, ring, count, deg))
            block = [g for g in I.groebner(BlockElim(front)).elements if g.free_of(front)]
            assert list(I.eliminate(front).generators) == block, I


def test_eliminate_keeps_only_front_free_members():
    rng = random.Random("elim:3")
    for _ in range(5):
        I = Ideal(QYZW, rand_gens(rng, QYZW, 2, 2))
        down = I.eliminate(["W"])
        for g in down.generators:
            assert g.free_of(["W"])
            assert I.contains(g)


@pytest.mark.parametrize(
    "ring, texts, front",
    [
        (ZX, ("X^2 - 2", "X^3", "6*X"), ("X",)),
        (QYZX, ("X^2 - Y", "Y*X - Z", "Z*X^2 + 1"), ("X",)),
        (F7YX, ("X^3 - Y", "Y^2*X - 1"), ("X",)),
        (QYZW, ("Y^2 - Z*W", "Y*Z - W^3", "Z^2 - Y*W^2"), ("W",)),
    ],
    ids=str,
)
def test_elimination_converts_only_the_elements_it_keeps(monkeypatch, ring, texts, front):
    """Oracle: ``eliminate`` keeps the basis elements whose leading monomial
    is free of the eliminated variables, which are the elements free of
    them, and converts those alone out of the engine."""
    converted = []
    real = powerstable.groebner._to_polynomial

    def counting(cord, terms, scale=1):
        converted.append(terms)
        return real(cord, terms, scale)

    monkeypatch.setattr(powerstable.groebner, "_to_polynomial", counting)
    I = ideal(ring, *texts)
    order = Grevlex() if set(front) >= set(ring.variables) else BlockElim(front)
    gb = I.groebner(order)
    kept = I.eliminate(front).generators
    assert "elements" not in vars(gb)
    assert len(converted) == len(kept)
    assert kept == tuple(g for g in gb.elements if g.free_of(front))
    assert 0 < len(kept) < len(gb.elements)


# -- membership --------------------------------------------------------------------------


def test_membership_facts_for_the_toric_prime():
    P = hochster_P()
    w = parse_poly("W", QYZW)
    q = parse_poly("W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3", QYZW)
    assert not P.contains(w)
    assert P.power(2).contains(w * q)
    assert not P.power(2).contains(q)
    assert P.contains(q)  # q = w^2*(w^3 - yz) + y(y^2 - wz)... a member of P itself


def test_the_zero_ideal_has_the_empty_basis():
    """The reduced basis of (0) is empty under every order: it passes
    ``is_groebner``, and every polynomial is its own normal form."""
    orders = (Grevlex(), Lex(), BlockElim(("X",)))
    for ring, order in itertools.product((QYX, F7YX, QYZX), orders):
        gb = Ideal(ring, []).groebner(order)
        assert (gb.ring, gb.order, gb.elements) == (ring, order, ()), (ring, order)
        assert is_groebner(gb)
        f = parse_poly("Y^2*X - 1/3*X + 5", ring)
        assert normal_form(f, gb) == f


def test_membership_edges():
    I = ideal(QYX, "X")
    assert I.contains(Polynomial.zero(QYX))
    assert not I.contains(Polynomial.one(QYX))
    zero = Ideal(QYX, [])
    assert zero.contains(Polynomial.zero(QYX))
    assert not zero.contains(parse_poly("X", QYX))


_LISTED = ("X^2 + Y*X + 1", "Y^3 - X*Y", "Y^2*X - 1")


def test_a_generator_is_a_member_without_a_basis(bases):
    I = ideal(QYX, *_LISTED)
    assert all(I.contains(parse_poly(t, QYX)) for t in _LISTED)
    assert bases == []
    # any other candidate, a multiple of a generator too, takes the basis route
    assert I.contains(parse_poly("Y^3*X - Y*X^2", QYX))
    assert bases == [QYX]


def test_a_monic_presentation_by_the_own_generators_verifies_without_a_basis(bases):
    I = ideal(QYX, "Y^2", "X^2 + Y*X + 1")
    cert = monic_certificate(I)
    assert cert is not None and cert.verify()
    assert bases == []


def test_a_lazy_power_answers_for_one_of_its_products(bases):
    I = ideal(F7YX, "X^2 - Y", "Y*X + 1", "Y^3")
    f, g, h = I.generators
    cube = I.power(3)
    assert cube.contains(f * g * h) and cube.contains(g**3)
    assert bases == []


def test_a_generator_answers_under_a_zero_pair_budget():
    I = ideal(QYX, *_LISTED)
    none = Budget(max_pairs=0)
    assert I.contains(parse_poly("Y^3 - X*Y", QYX), none)
    with pytest.raises(BudgetExceededError, match="pair budget 0"):
        I.contains(parse_poly("Y^3*X - Y*X^2", QYX), none)


def test_a_generator_over_the_degree_budget_raises():
    I = ideal(QYX, *_LISTED)
    message = re.escape("degree budget 1 exceeded (term of degree 2)")
    with pytest.raises(BudgetExceededError, match=message):
        I.contains(parse_poly("X^2 + Y*X + 1", QYX), Budget(max_degree=1))


@pytest.mark.parametrize("ring", [ZX, QYX, F7YX], ids=str)
def test_every_generator_reduces_to_zero_by_the_basis(ring):
    # membership of a generator no longer runs the engine, so the engine's
    # normal form of each generator, of an ideal and of its square, is
    # checked here
    rng = random.Random(f"generators:{ring}")
    for _ in range(8):
        I = Ideal(ring, rand_gens(rng, ring, rng.randint(1, 3), 3))
        for J in (I, I.power(2)):
            gb = J.groebner()
            for g in J.generators:
                assert normal_form(g, gb).is_zero(), (ring, J.generators, g)


# -- radical membership ---------------------------------------------------------------------


def test_radical_membership_over_zz():
    I = ideal(ZX, "X^2 - 2", "X^3")
    assert I.radical_contains(parse_poly("2", ZX)) is True  # 2^2 = X^4 - (X^2 - 2)(X^2 + 2)
    assert I.radical_contains(parse_poly("X", ZX)) is True
    assert I.radical_contains(parse_poly("3", ZX)) is False  # exact: 3 is a unit mod sqrt(I) = (2, X)


def test_radical_membership_over_field():
    I = ideal(QYX, "X^2")
    assert I.radical_contains(parse_poly("X", QYX)) is True
    assert ideal(QYX, "X").radical_contains(parse_poly("Y", QYX)) is False
    assert ideal(QYX, "Y^3*X^2").radical_contains(parse_poly("Y*X", QYX)) is True


def test_radical_membership_finds_high_nilpotency_orders():
    # powers far beyond a small search: X^13 in (X^13), 2^20 in (2^20)
    assert ideal(ZX, "X^13").radical_contains(parse_poly("X", ZX))
    assert ideal(ZX, str(2**20)).radical_contains(parse_poly("2", ZX))
    assert not ideal(ZX, str(2**20)).radical_contains(parse_poly("X", ZX))
    assert ideal(F7YX, "Y^15", "X^2 - Y").radical_contains(parse_poly("X", F7YX))


# Candidates for the oracle test below: units, primes of ZZ, linear and
# quadratic forms, and products of them.
_RADICAL_CANDIDATES = [
    "1", "2", "3", "6", "X", "X + 1", "X^2 + 1", "X^2 - 2", "2*X + 3", "X^2 + X + 1", "5*X^2 + 10",
]


def test_radical_membership_matches_known_radicals():
    # sqrt(P^k) = P for a prime P, and sqrt(P*Q) = P ∩ Q for primes P, Q, so
    # f lies in the radical iff f lies in P (in P and in Q); membership in a
    # prime is plain ideal membership, decided by a strong basis
    primes = [P for _, P in prime_corpus()]
    fs = [parse_poly(t, ZX) for t in _RADICAL_CANDIDATES]
    for P in primes:
        inside = [P.contains(f) for f in fs]
        for k in (1, 2, 3):
            Pk = P.power(k)
            assert [Pk.radical_contains(f) for f in fs] == inside, (P.generators, k)
    for P, Q in itertools.combinations(primes[::3], 2):
        PQ = P * Q
        expected = [P.contains(f) and Q.contains(f) for f in fs]
        assert [PQ.radical_contains(f) for f in fs] == expected, (P.generators, Q.generators)


def test_radical_membership_edges(bases):
    """0 lies in every radical, the zero ideal's too, under every cap: the
    trick ideal I + (1 - y*0) holds the generator 1, a member at once, so
    no basis is computed."""
    zero = Polynomial.zero(QYX)
    assert ideal(QYX, "X").radical_contains(zero)
    assert ideal(QYX, "X^5").radical_contains(zero, Budget(max_degree=0))
    assert Ideal(QYX, []).radical_contains(zero)
    assert bases == []
    assert not Ideal(QYX, []).radical_contains(parse_poly("X", QYX))


# -- ideal equality ---------------------------------------------------------------------------


def test_ideal_equal_is_presentation_independent():
    I = ideal(ZX, "X^2 - 2", "X^3")
    J = ideal(ZX, "4", "2*X", "X^2 + 2")
    assert I.equals(J)
    assert not I.equals(ideal(ZX, "4", "2*X"))
    assert ideal(ZX, "2", "3").equals(ideal(ZX, "1"))
    assert ideal(QYX, "X", "Y").equals(ideal(QYX, "X + Y", "Y"))


# -- kernels of ring maps ------------------------------------------------------------------------


def test_kernel_of_injective_map_is_zero():
    t = Polynomial.variable(QT, "T")
    m = RingMap(RingSpec.parse("QQ[W]"), QT, {"W": t**3})
    assert m.kernel().is_zero_ideal()


def test_kernel_of_a_collapse():
    src = RingSpec.parse("QQ[Y,W]")
    t = Polynomial.variable(QT, "T")
    m = RingMap(src, QT, {"Y": t, "W": t})
    k = m.kernel()
    assert k.equals(Ideal.from_texts(src, ["Y - W"]))


def test_kernel_of_the_toric_map():
    m = hochster_toric_map()
    k = m.kernel()
    assert k.equals(hochster_P())
    for g in k.generators:
        assert m.apply(g).is_zero()


def _eliminated_kernel(m: RingMap) -> Ideal:
    """The kernel by elimination, built here: the target variables, under
    fresh auxiliary names in the joint ring, eliminated from (v - image(v)),
    and what is left read back in the source ring."""
    joint = m.source
    for _ in m.target.variables:
        joint = joint.extend_aux(joint.fresh_aux("k"))
    aux = joint.variables[len(m.source.variables) :]
    renamed = {v: Polynomial.variable(joint, a) for v, a in zip(m.target.variables, aux)}
    gens = [
        Polynomial.variable(joint, v) - evaluate_map(m.images[v], renamed, joint)
        for v in m.source.variables
    ]
    kept = Ideal(joint, gens).eliminate(aux).generators
    return Ideal(m.source, [transport(g, m.source) for g in kept])


def _monomial_maps():
    """Seeded monomial maps over QQ and GF(p), 2-4 source and 1-2 target
    variables, images c*S^a*T^b with exponents up to 3, and the edges named:
    a constant image, repeated images, a target variable no image uses, and
    injective maps, whose kernel is zero."""
    maps = []
    for domain in ("QQ", "Fp(7)", "Fp(32003)"):
        target = RingSpec.parse(f"{domain}[S,T]")
        S, T = (Polynomial.variable(target, v) for v in "ST")

        def c(k):
            return Polynomial.constant(target, k)

        edges = [
            ("B,C,D", {"B": c(3), "C": c(2) * T**2, "D": c(5) * T**3}),
            ("B,C,D", {"B": T**2, "C": T**2, "D": c(4) * T**2}),
            ("B,C,D", {"B": c(2) * T**3, "C": c(3) * T**5, "D": T**4}),
            ("B,C", {"B": c(3) * S, "C": c(2) * T}),
            ("B,C", {"B": S**2 * T, "C": c(6) * S * T**3}),
            ("B,C,D,E", {"B": S, "C": T, "D": c(2) * S * T, "E": c(3)}),
        ]
        for names, images in edges:
            maps.append(RingMap(RingSpec.parse(f"{domain}[{names}]"), target, images))
    rng = random.Random("lattice-kernel:36")
    for k in range(36):
        domain = ("QQ", "Fp(7)", "Fp(32003)")[k % 3]
        names = "BCDE"[: rng.randint(2, 4)]
        target = RingSpec.parse(f"{domain}[{'S,T'[: 3 - 2 * rng.randint(0, 1)]}]")
        images = {}
        for v in names:
            if images and rng.random() < 0.2:
                images[v] = rng.choice(list(images.values()))
                continue
            e = tuple(rng.randint(0, 3) for _ in target.variables)
            images[v] = Polynomial(target, {e: target.domain.from_int(rng.randint(1, 6))})
        maps.append(RingMap(RingSpec.parse(f"{domain}[{','.join(names)}]"), target, images))
    return maps


def test_kernels_of_monomial_maps_take_the_lattice_route_and_equal_the_elimination(monkeypatch):
    """Over a field a map whose images are single terms takes the lattice
    route, one saturation of the binomials of a reduced lattice basis.  On
    every seeded map its kernel equals, generator for generator and text for
    text, the elimination of the target variables, and every generator maps
    to zero."""
    reductions = []
    real = powerstable.ideals.lll
    monkeypatch.setattr(powerstable.ideals, "lll", lambda basis: reductions.append(basis) or real(basis))
    maps = _monomial_maps()
    zero = 0
    for m in maps:
        got = m.kernel()
        want = _eliminated_kernel(m)
        assert got.generators == want.generators, m
        assert [format_poly(g) for g in got.generators] == [format_poly(g) for g in want.generators]
        assert all(m.apply(g).is_zero() for g in got.generators)
        zero += got.is_zero_ideal()
    assert len(reductions) == len(maps)
    assert 2 <= zero < len(maps)


def test_kernels_of_other_maps_eliminate_the_target_variables(monkeypatch):
    """A map over ZZ, or with an image 0 or of two terms, eliminates."""
    reductions = []
    monkeypatch.setattr(powerstable.ideals, "lll", reductions.append)
    t = Polynomial.variable(QT, "T")
    zt = RingSpec.parse("ZZ[T]")
    maps = [
        RingMap(RingSpec.parse("QQ[Y,W]"), QT, {"Y": t**2, "W": t**3 + t}),
        RingMap(RingSpec.parse("QQ[Y,W]"), QT, {"Y": t**2, "W": Polynomial.zero(QT)}),
        RingMap(ZX, zt, {"X": Polynomial.variable(zt, "T") * Polynomial.constant(zt, 2)}),
    ]
    for m in maps:
        assert m.kernel().generators == _eliminated_kernel(m).generators
    assert reductions == []
    assert [format_poly(g) for g in maps[1].kernel().generators] == ["W"]


def test_a_kernel_into_a_ring_without_variables_is_a_reduced_basis():
    """Constant images into a ring with no variables: every vector is in
    the lattice, and the kernel comes back as its reduced grevlex basis,
    as every kernel does, not as the list (v - c_v)."""
    empty = RingSpec(QX.domain, (), (), None)
    images = {"Y": Polynomial.constant(empty, 2), "Z": Polynomial.constant(empty, 3)}
    k = RingMap(RingSpec.parse("QQ[Y,Z]"), empty, images).kernel()
    assert [format_poly(g) for g in k.generators] == ["Z - 3", "Y - 2"]
    # a zero image takes the elimination route, which eliminates no variable
    images["Y"] = Polynomial.zero(empty)
    k = RingMap(RingSpec.parse("QQ[Y,Z]"), empty, images).kernel()
    assert [format_poly(g) for g in k.generators] == ["Z - 3", "Y"]


def test_a_kernel_binomial_over_the_degree_budget_raises():
    """(T, T, T^12): the reduced lattice basis is (1, -1, 0), (6, 6, -1),
    and the second binomial, of degree 12, raises under a degree budget of
    11 rather than leaving a partial kernel; the kernel's reduced basis
    holds Z^12 - W too.  Under 12 the kernel answers."""
    t = Polynomial.variable(QT, "T")
    m = RingMap(RingSpec.parse("QQ[Y,Z,W]"), QT, {"Y": t, "Z": t, "W": t**12})
    with pytest.raises(BudgetExceededError, match=re.escape("degree budget 11 exceeded (term of degree 12)")):
        m.kernel(Budget(max_degree=11))
    got = m.kernel(Budget(max_degree=12))
    assert [format_poly(g) for g in got.generators] == ["Y - Z", "Z^12 - W"]


def test_ring_map_validation():
    t = Polynomial.variable(QT, "T")
    with pytest.raises(AlgebraError):
        RingMap(RingSpec.parse("QQ[Y,W]"), QT, {"Y": t})  # W lacks an image
    with pytest.raises(RingMismatchError):
        RingMap(ZX, QT, {"X": t})  # coefficient domains differ
    with pytest.raises(AlgebraError, match="'Q', which is not a source variable"):
        RingMap(RingSpec.parse("QQ[W]"), QT, {"W": t, "Q": t})
    with pytest.raises(RingMismatchError, match=re.escape("image of W lives in QQ[Y][X], not QQ[T]")):
        RingMap(RingSpec.parse("QQ[W]"), QT, {"W": parse_poly("X", QYX)})
    m = RingMap(RingSpec.parse("QQ[W]"), QT, {"W": t**2})
    with pytest.raises(RingMismatchError):
        m.apply(parse_poly("X", QYX))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda I, f: Ideal(QYX, [f]), RingMismatchError, "generator in ZZ[X], expected QQ[Y][X]"),
        (lambda I, f: I.contains(f), RingMismatchError, "membership candidate in ZZ[X], expected QQ[Y][X]"),
        (lambda I, f: I.quotient(f), RingMismatchError, "quotient divisor in ZZ[X], expected QQ[Y][X]"),
        (lambda I, f: I.saturate(f), RingMismatchError, "saturation divisor in ZZ[X], expected QQ[Y][X]"),
        (lambda I, f: I.radical_contains(f), RingMismatchError, "radical candidate in ZZ[X], expected QQ[Y][X]"),
        (lambda I, f: I + f, TypeError, "expected an Ideal, got Polynomial"),
    ],
    ids=["Ideal", "contains", "quotient", "saturate", "radical_contains", "add"],
)
def test_ideal_operations_refuse_a_polynomial_from_another_ring(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(ideal(QYX, "X^2 - Y"), parse_poly("X", ZX))


def test_kernel_when_source_and_target_share_names():
    src, tgt = RingSpec.parse("QQ[X,Y]"), RingSpec.parse("QQ[X]")
    x = Polynomial.variable(tgt, "X")
    k = RingMap(src, tgt, {"X": x, "Y": x**2}).kernel()
    assert [format_poly(g) for g in k.generators] == ["X^2 - Y"]
    # the target's X is not the source's X: (X, Y) -> (X^2, X)
    k = RingMap(src, tgt, {"X": x**2, "Y": x}).kernel()
    assert k.equals(Ideal.from_texts(src, ["Y^2 - X"]))
