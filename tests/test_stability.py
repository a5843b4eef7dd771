"""Power stability: contractions, verdicts, the graded criterion, and
certificates (monic, regular image, primary obstruction)."""

import random

import pytest

import powerstable.ideals
from powerstable import (
    AlgebraError,
    BaseIdeal,
    Ideal,
    MonicCertificate,
    Polynomial,
    RingSpec,
    certify_stable,
    check_power_stable,
    contract_power,
    example_3_12,
    gadget_3_14,
    graded_criterion,
    hochster_P,
    monic_certificate,
    parse_poly,
    primary_obstruction,
    regular_image_certificate,
    transport,
)
from powerstable.corpus import prime_corpus, radical_corpus, stability_corpus

from oracles import macaulay_member

ZX = RingSpec.parse("ZZ[X]")
QYX = RingSpec.parse("QQ[Y][X]")
QYZW = RingSpec.parse("QQ[Y,Z,W]")
F7 = RingSpec.parse("Fp(7)[Y][X]")


def ideal(ring, *texts):
    return Ideal.from_texts(ring, list(texts))


# -- contraction --------------------------------------------------------------


def test_contraction_of_the_square_root_of_two_ideal():
    for p in (2, 3, 5):
        I = example_3_12(p)
        c1 = contract_power(I, 1)
        assert c1.generators() == (p * p,)
        c2 = contract_power(I, 2)
        assert c2.generators() == (p**3,)
        assert I.power(2).contains(parse_poly(str(p**3), ZX))


def test_contraction_of_the_gadget():
    I = gadget_3_14()
    base = I.ring.base_ring()
    c1 = contract_power(I, 1)
    assert c1.ideal.equals(Ideal.from_texts(base, ["Y^2"]))
    c2 = contract_power(I, 2)
    y3 = parse_poly("Y^3", base)
    assert c2.ideal.contains(y3)
    assert not c1.power(2).contains(y3)


def test_contraction_of_monic_pair():
    I = ideal(QYX, "Y", "X^2 + X + 1")
    base = QYX.base_ring()
    c3 = contract_power(I, 3)
    assert c3.ideal.equals(Ideal.from_texts(base, ["Y^3"]))


def test_contraction_modes_and_edges():
    with pytest.raises(AlgebraError):
        contract_power(Ideal(QYZW, [parse_poly("Y", QYZW)]), 1)  # no main variable
    zero = Ideal(ZX, [])
    assert contract_power(zero, 2).is_zero()
    unit = ideal(ZX, "1")
    assert contract_power(unit, 3).generators() == (1,)


def test_zz_contraction_is_the_constant_of_the_grevlex_basis():
    # the route contract_power replaced: read the constant of the reduced
    # strong basis of I^t (0 when it has none)
    items = stability_corpus() + prime_corpus() + radical_corpus()
    zz = [(name, I) for name, I in items if I.ring.is_int_mode]
    assert len(zz) > 20
    for name, I in zz:
        for t in (1, 2, 3):
            pw = Ideal(I.ring, I.power(t).generators)  # a fresh ideal, no cached basis
            constants = [g for g in pw.groebner().elements if g.is_constant()]
            assert len(constants) <= 1, (name, t)
            want = abs(int(constants[0].constant_value())) if constants else 0
            assert contract_power(I, t).integer == want, (name, t)


def test_contraction_containment_half_always_holds():
    # (I ∩ R)^t ⊆ I^t ∩ R for every ideal and exponent
    for name, I in stability_corpus():
        c1 = contract_power(I, 1)
        for t in (2, 3, 4, 5):
            ct = contract_power(I, t)
            for g in c1.power(t).generators():
                assert ct.contains(g), f"{name} at t={t}"


@pytest.mark.parametrize(
    "ring, texts, check_bases, new_bases",
    [
        (QYX, ("X^2 - Y", "Y*X"), 4, 3),
        (ZX, ("X^2 - 2", "X^3"), 2, 0),
        (QYX, ("Y", "X^2 + X + 1"), 5, 4),
    ],
    ids=["QQ[Y][X]", "ZZ[X]", "QQ[Y][X]-stable"],
)
def test_contractions_come_from_the_ideal_caches(
    monkeypatch, ring, texts, check_bases, new_bases
):
    """The basis that contracts I^t is computed once per ideal and exponent:
    a repeated contraction reuses the basis cached on the power ideal.
    Contractions themselves are not cached, so each call builds a fresh
    ideal of R.  Every basis is counted, in R[X], in R and in rings extended
    by a tag variable.

    Comparisons are one-sided: only the smaller side, (I ∩ R)^t or J^(n+1),
    needs a basis, so a contraction that equals it is never given one.  The
    stable pair needs 5 bases for t <= 3 and 4 more for the graded levels,
    two for the meets and two for the powers of the rebuilt J."""
    computed = []
    real = powerstable.ideals.groebner_basis

    def counting(gens, order=None, budget=None):
        computed.append(gens[0].ring)
        return real(gens, order, budget)

    monkeypatch.setattr(powerstable.ideals, "groebner_basis", counting)
    I = ideal(ring, *texts)
    first = contract_power(I, 2)
    assert contract_power(I, 2).texts() == first.texts()
    assert computed == [ring]

    I = ideal(ring, *texts)
    before = len(computed)
    check_power_stable(I, 3)
    assert len(computed) - before == check_bases
    before = len(computed)
    graded_criterion(I, 2)
    # over QQ[Y] the graded levels rebuild J = I ∩ R, so J^(n+1) needs its
    # basis again, and each level adds the elimination basis of its
    # intersection; the gadget fails at level 1, and re-verifying its
    # witness in the meet adds one more; over ZZ the grevlex bases of the
    # powers are cached on I, so no basis at all
    new = computed[before:]
    assert len(new) == new_bases
    assert ring not in new


# -- bounded verdicts -------------------------------------------------------------


def test_unstable_at_two_with_integer_witness():
    for p in (2, 3, 5):
        report = check_power_stable(example_3_12(p), 4)
        assert not report.is_stable()
        assert str(report.verdict) == "UNSTABLE_AT(2)"
        assert report.witness == p**3
        assert report.records[0].equal and not report.records[1].equal
        # witness honesty: in I^2 ∩ ZZ, outside (I ∩ ZZ)^2
        assert report.records[1].contraction.contains(report.witness)
        assert not report.records[1].expected.contains(report.witness)


def test_unstable_gadget_with_polynomial_witness():
    report = check_power_stable(gadget_3_14(), 4)
    assert str(report.verdict) == "UNSTABLE_AT(2)"
    base = report.ideal.ring.base_ring()
    assert report.witness == parse_poly("Y^3", base)


def test_stable_verdicts():
    assert check_power_stable(ideal(QYX, "X - Y"), 5).is_stable()
    assert check_power_stable(ideal(QYX, "Y", "X^2 + X + 1"), 4).is_stable()
    assert check_power_stable(ideal(ZX, "4", "X^2 + X + 1"), 4).is_stable()
    assert check_power_stable(ideal(ZX, "2", "X"), 4).is_stable()
    report = check_power_stable(ideal(QYX, "Y^2", "X^2 + Y*X + 1", "Y^2*X"), 4)
    assert report.is_stable()
    assert report.witness is None
    assert all(r.equal for r in report.records)
    with pytest.raises(AlgebraError):
        check_power_stable(ideal(ZX, "X"), 0)


def test_stability_verdict_is_definitionally_consistent():
    # stable up to 2T implies the square is stable up to T
    for name, I in stability_corpus():
        if check_power_stable(I, 4).is_stable():
            assert check_power_stable(I.power(2), 2).is_stable(), name


def test_one_sided_comparisons_skip_only_a_containment_that_holds():
    """The bounded check and the graded criterion test the larger side
    against the smaller one only.  The other direction, never computed,
    holds on every graded level (test_contraction_containment_half_always_holds
    covers (I ∩ R)^t), and each one-sided flag is the two-sided answer."""
    for name, I in stability_corpus():
        for rec in check_power_stable(I, 3).records:
            assert rec.equal == rec.contraction.equals(rec.expected), f"{name} at t={rec.t}"
        for rec in graded_criterion(I, 3).records:
            for g in rec.target.generators():
                assert rec.meet.contains(g), f"{name} at level {rec.n}"
            assert rec.holds == rec.meet.equals(rec.target), f"{name} at level {rec.n}"


def _certified_in_power(w, I, t):
    """The least degree bound, from deg w up to 8, at which the Macaulay
    oracle finds w in I^t, or None.  w is an int over ZZ or a polynomial of
    the base ring or of I's own ring."""
    ring = I.ring
    if isinstance(w, Polynomial):
        f = transport(w, ring)
    else:
        f = Polynomial.constant(ring, ring.domain.literal(w))
    gens = I.power(t).generators
    for bound in range(f.total_degree(), 9):
        if macaulay_member(f, gens, bound):
            return bound
    return None


def test_witnesses_are_certified_by_the_macaulay_oracle():
    """Every reported witness lies in the power it was taken from, checked
    by linear algebra rather than by a Groebner basis: a stability witness
    at t in I^t, a graded-criterion witness at level n in I^(n+1)."""
    found = {}
    for name, I in stability_corpus():
        report = check_power_stable(I, 4)
        if report.witness is not None:
            t = report.verdict.t
            found[name, "check"] = _certified_in_power(report.witness, I, t)
        graded = graded_criterion(I, 3)
        if graded.witness is not None:
            n = graded.failure_n
            found[name, "graded"] = _certified_in_power(graded.witness, I, n + 1)
    assert len(found) == 6
    assert None not in found.values(), found


def test_obstruction_product_is_certified_by_the_macaulay_oracle():
    P = hochster_P()
    cert = primary_obstruction(P, 2)
    assert _certified_in_power(cert.witness * cert.cofactor, P, 2) is not None


# -- graded criterion ---------------------------------------------------------------


def test_graded_criterion_matches_bounded_stability():
    # levels 0..N-1 control exponents 1..N
    for name, I in stability_corpus():
        graded = graded_criterion(I, 3)
        direct = check_power_stable(I, 4)
        assert graded.holds == direct.is_stable(), name


def _seeded_graded_family(rng, i):
    """(X^a + c*X - p, X^b) over ZZ[X], c often 0; (X^a - Y^c, Y^d*X^e),
    sometimes with Y^3, over QQ[Y][X] and GF(7)[Y][X].  Plain random
    generators are almost always stable, these families often are not."""
    if i % 3 == 0:
        a, b, p = rng.randint(2, 3), rng.randint(3, 5), rng.choice((2, 3, 5))
        c = rng.choice((0, 0, rng.randint(1, 4)))
        return ideal(ZX, f"X^{a} + {c}*X - {p}", f"X^{b}")
    ring = QYX if i % 3 == 1 else F7
    a, c, d, e = rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
    gens = [f"X^{a} - Y^{c}", f"Y^{d}*X^{e}"]
    if rng.random() < 0.3:
        gens.append("Y^3")
    return ideal(ring, *gens)


def test_graded_criterion_matches_bounded_stability_on_seeded_families():
    rng = random.Random("graded-families")
    outcomes = set()
    for i in range(60):
        I = _seeded_graded_family(rng, i)
        graded = graded_criterion(I, 2)
        direct = check_power_stable(I, 3)
        assert graded.holds == direct.is_stable(), I
        if not direct.is_stable():
            assert graded.failure_n + 1 == direct.verdict.t, I
        outcomes.add((I.ring, str(direct.verdict)))
    # in every ring: stable up to 3, unstable at 2 and unstable at 3
    assert len(outcomes) == 9


def test_graded_failure_level_and_witness():
    report = graded_criterion(example_3_12(2), 3)
    assert not report.holds
    assert report.failure_n == 1
    assert report.witness == 8
    rec = report.records[-1]
    assert rec.n == 1 and not rec.holds
    # meet = J ∩ (I^2 ∩ ZZ) = lcm(4, 8) = (8); target = J^2 = (16)
    assert rec.meet.generators() == (8,)
    assert rec.target.generators() == (16,)
    assert report.records[0].holds  # level 0 is trivial


def test_graded_criterion_holds_for_monic_pair():
    report = graded_criterion(ideal(QYX, "Y", "X^2 + X + 1"), 3)
    assert report.holds and report.failure_n is None
    assert len(report.records) == 4


def test_graded_bound_zero_is_trivially_true():
    assert graded_criterion(example_3_12(2), 0).holds
    with pytest.raises(AlgebraError):
        graded_criterion(example_3_12(2), -1)


# -- monic certificates -----------------------------------------------------------------


def test_monic_certificate_found_and_verified():
    I = ideal(QYX, "Y^2", "X^2 + Y*X + 1", "Y^2*X")
    cert = monic_certificate(I)
    assert cert is not None and cert.kind == "monic"
    assert cert.monic == parse_poly("X^2 + Y*X + 1", QYX)
    assert set(cert.base_gens) == {parse_poly("Y^2", QYX)}
    assert cert.verify()


def test_monic_certificate_requires_ideal_equality():
    # X^3 is monic but (X^3) alone misses the rest of the ideal
    assert monic_certificate(ideal(ZX, "X^2 - 2", "X^3")) is None
    assert monic_certificate(ideal(QYX, "Y")) is None
    bogus = MonicCertificate(
        ideal(QYX, "Y", "X^2 + 1"), parse_poly("X^2 + 1", QYX), ()
    )
    assert not bogus.verify()
    nonmonic = MonicCertificate(
        ideal(QYX, "Y*X"), parse_poly("Y*X", QYX), ()
    )
    assert not nonmonic.verify()


def test_monic_certificate_over_zz():
    cert = monic_certificate(ideal(ZX, "4", "X^2 + X + 1"))
    assert cert is not None
    assert cert.verify()


# -- regular image certificates ----------------------------------------------------------


def test_regular_image_certificate_found():
    cert = regular_image_certificate(ideal(ZX, "4", "X^2 + X + 1"))
    assert cert is not None and cert.kind == "regular_image"
    assert cert.modulus == 4 and cert.lcm_value == 4
    assert cert.verify()
    cert = regular_image_certificate(ideal(ZX, "2", "X"))
    assert cert is not None and cert.verify()


def test_regular_image_certificate_rejects_zero_divisors():
    # 2*(X + 1) has image annihilated by 2 mod 4
    assert regular_image_certificate(ideal(ZX, "4", "2*X + 2")) is None
    # principal presentation: d = 0
    cert = regular_image_certificate(ideal(ZX, "3*X + 1"))
    assert cert is not None and cert.modulus == 0
    assert cert.verify()
    assert regular_image_certificate(ideal(QYX, "Y")) is None  # ZZ mode only


def test_certify_stable_prefers_monic():
    cert = certify_stable(ideal(ZX, "4", "X^2 + X + 1"))
    assert cert is not None and cert.kind == "monic"
    cert = certify_stable(ideal(ZX, "4", "2*X + 1"))
    assert cert is not None and cert.kind == "regular_image"
    assert certify_stable(example_3_12(2)) is None
    assert certify_stable(ideal(QYX, "Y")) is None


def test_certificates_imply_bounded_stability():
    for name, I in stability_corpus():
        cert = certify_stable(I)
        if cert is not None:
            assert cert.verify(), name
            assert check_power_stable(I, 4).is_stable(), name


# -- primary obstructions ------------------------------------------------------------------


def test_obstruction_for_the_toric_prime_with_explicit_witnesses():
    P = hochster_P()
    w = parse_poly("W", QYZW)
    witnesses = [w, parse_poly("Y", QYZW), parse_poly("Z", QYZW)]
    cert = primary_obstruction(P, 2, witnesses)
    assert cert is not None and cert.kind == "primary_obstruction"
    assert cert.witness == w
    assert cert.cofactor == parse_poly("W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3", QYZW)
    assert cert.verify()
    assert P.power(2).contains(cert.witness * cert.cofactor)
    assert not P.power(2).contains(cert.cofactor)
    assert not P.contains(cert.witness)


def test_obstruction_default_witnesses_are_the_variables():
    cert = primary_obstruction(hochster_P(), 2)
    assert cert is not None
    assert cert.witness == parse_poly("Y", QYZW)  # declaration order tries Y first
    assert cert.verify()


def test_no_obstruction_for_primary_powers():
    assert primary_obstruction(ideal(QYX, "X"), 2, [parse_poly("Y", QYX)]) is None
    I = ideal(QYX, "Y", "X")
    assert primary_obstruction(I, 2, [parse_poly("X + 1", QYX)]) is None
    with pytest.raises(AlgebraError):
        primary_obstruction(I, 0)


def test_obstruction_witnesses_inside_the_ideal_are_skipped():
    P = hochster_P()
    inside = parse_poly("Y^2 - W*Z", QYZW)
    assert primary_obstruction(P, 2, [inside]) is None


# -- corpus-wide properties ---------------------------------------------------------------


def test_prime_corpus_is_stable():
    for name, I in prime_corpus()[:5]:
        assert check_power_stable(I, 3).is_stable(), name


def test_radical_corpus_is_stable():
    for name, I in radical_corpus()[:2]:
        assert check_power_stable(I, 3).is_stable(), name


def test_comaximal_intersections_stay_stable():
    from powerstable import comaximal_pair

    for seed in (0, 1, 2):
        A, B = comaximal_pair(seed)
        one = Polynomial.one(A.ring)
        assert (A + B).contains(one)
        assert check_power_stable(A, 3).is_stable()
        assert check_power_stable(B, 3).is_stable()
        assert check_power_stable(A.intersect(B), 3).is_stable()


# -- base ideal arithmetic -------------------------------------------------------------------


def test_base_ideal_invariants():
    with pytest.raises(AlgebraError):
        BaseIdeal(ZX)
    with pytest.raises(AlgebraError):
        BaseIdeal(ZX, integer=-4)
    d = BaseIdeal(ZX, integer=6)
    assert d.power(2).generators() == (36,)
    assert d.intersect(BaseIdeal(ZX, integer=4)).generators() == (12,)
    assert d.contains(12) and not d.contains(3)
    assert BaseIdeal(ZX, integer=0).is_zero()
    assert d.texts() == ("6",)
