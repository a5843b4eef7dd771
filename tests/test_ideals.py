"""Ideal calculus: powers, intersection, quotient, saturation, elimination,
membership, radicals, and kernels of ring maps."""

import itertools
import math
import random
import time

import pytest

from powerstable import (
    AlgebraError,
    BlockElim,
    Budget,
    BudgetExceededError,
    Ideal,
    Polynomial,
    RingMap,
    RingMismatchError,
    RingSpec,
    format_poly,
    hochster_P,
    hochster_toric_map,
    parse_poly,
    transport,
)

from helpers import rand_gens
from oracles import reference_saturation

ZX = RingSpec.parse("ZZ[X]")
QYX = RingSpec.parse("QQ[Y][X]")
QYZX = RingSpec.parse("QQ[Y,Z][X]")
QX = RingSpec.parse("QQ[X]")
QYZW = RingSpec.parse("QQ[Y,Z,W]")
QT = RingSpec.parse("QQ[T]")


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
    # X * X*Y = X^2 * Y: equal products collapse, first occurrences in order
    coincide = ideal(QYX, "X", "Y", "X^2", "X*Y")
    for t in (2, 3, 4):
        distinct = []
        for combo in itertools.combinations_with_replacement(coincide.generators, t):
            prod = math.prod(combo[1:], start=combo[0])
            if prod not in distinct:
                distinct.append(prod)
        assert coincide.power(t).generators == tuple(distinct), t
        assert len(distinct) < math.comb(len(coincide.generators) + t - 1, t)


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
    assert I.eliminate([]) is I
    with pytest.raises(AlgebraError):
        I.eliminate(["Q"])
    assert Ideal(QYX, []).eliminate(["X"]).is_zero_ideal()


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


# -- membership --------------------------------------------------------------------------


def test_membership_facts_for_the_toric_prime():
    P = hochster_P()
    w = parse_poly("W", QYZW)
    q = parse_poly("W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3", QYZW)
    assert not P.contains(w)
    assert P.power(2).contains(w * q)
    assert not P.power(2).contains(q)
    assert P.contains(q)  # q = w^2*(w^3 - yz) + y(y^2 - wz)... a member of P itself


def test_zero_ideal_has_no_groebner_basis():
    with pytest.raises(AlgebraError):
        Ideal(QYX, []).groebner()


def test_membership_edges():
    I = ideal(QYX, "X")
    assert I.contains(Polynomial.zero(QYX))
    assert not I.contains(Polynomial.one(QYX))
    zero = Ideal(QYX, [])
    assert zero.contains(Polynomial.zero(QYX))
    assert not zero.contains(parse_poly("X", QYX))


# -- radical membership ---------------------------------------------------------------------


def test_radical_membership_over_zz():
    I = ideal(ZX, "X^2 - 2", "X^3")
    r = I.radical_contains(parse_poly("2", ZX))
    assert r and r.power == 2 and not r.capped
    r = I.radical_contains(parse_poly("X", ZX))
    assert r and r.power == 3
    r = I.radical_contains(parse_poly("3", ZX))
    assert not r and r.capped  # only a bounded search over ZZ


def test_radical_membership_over_field():
    I = ideal(QYX, "X^2")
    assert I.radical_contains(parse_poly("X", QYX))
    r = ideal(QYX, "X").radical_contains(parse_poly("Y", QYX))
    assert not r and not r.capped  # field mode is exact, not capped
    assert ideal(QYX, "Y^3*X^2").radical_contains(parse_poly("Y*X", QYX))


def test_radical_membership_edges():
    I = ideal(QYX, "X")
    assert I.radical_contains(Polynomial.zero(QYX))
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


def test_ring_map_validation():
    t = Polynomial.variable(QT, "T")
    with pytest.raises(AlgebraError):
        RingMap(RingSpec.parse("QQ[Y,W]"), QT, {"Y": t})  # W lacks an image
    with pytest.raises(RingMismatchError):
        RingMap(ZX, QT, {"X": t})  # coefficient domains differ
    m = RingMap(RingSpec.parse("QQ[W]"), QT, {"W": t**2})
    with pytest.raises(RingMismatchError):
        m.apply(parse_poly("X", QYX))
