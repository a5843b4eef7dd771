"""Power stability: contractions, verdicts, the graded criterion, and
certificates (monic, regular image, primary obstruction)."""

import random
import re

import pytest

from powerstable import (
    AlgebraError,
    BaseIdeal,
    Ideal,
    MonicCertificate,
    ObstructionCertificate,
    Polynomial,
    RegularImageCertificate,
    RingMismatchError,
    RingSpec,
    certify_stable,
    check_power_stable,
    contract_power,
    example_3_12,
    format_poly,
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

from helpers import rand_gens, rand_poly
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
        (QYX, ("Y", "X^2 + X + 1"), 3, 2),
    ],
    ids=["QQ[Y][X]", "ZZ[X]", "QQ[Y][X]-stable"],
)
def test_contractions_come_from_the_ideal_caches(bases, ring, texts, check_bases, new_bases):
    """The basis that contracts I^t is computed once per ideal and exponent:
    a repeated contraction reuses the basis cached on the power ideal, and
    the first one computes the basis of its factor I first.  Contractions
    themselves are not cached, so each call builds a fresh ideal of R.
    Every basis is counted, in R[X], in R and in rings extended by a tag
    variable.

    Comparisons are one-sided: only the smaller side, (I ∩ R)^t or J^(n+1),
    may need a basis, so a contraction that equals it is never given one.
    Nor is the smaller side when each generator asked about is one of its
    own: (Y)^t is generated by Y^t, the one generator of I^t ∩ R, so the
    stable pair needs only the 3 elimination bases of I^t for t <= 3, and 2
    more for the meets of its graded levels.  The gadget's (I ∩ R)^2 needs
    a basis, so the basis of its factor I ∩ R comes first."""
    I = ideal(ring, *texts)
    first = contract_power(I, 2)
    assert contract_power(I, 2).texts() == first.texts()
    assert bases == [ring, ring]

    I = ideal(ring, *texts)
    before = len(bases)
    check_power_stable(I, 3)
    assert len(bases) - before == check_bases
    before = len(bases)
    graded_criterion(I, 2)
    # over QQ[Y] each graded level adds the elimination basis of its
    # intersection; the gadget fails at level 1, where finding its witness
    # Y^3 outside J^2 = (Y^4) needs the bases of J and J^2; over ZZ the grevlex
    # bases of the powers are cached on I, so no basis at all
    new = bases[before:]
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
    assert report.records[0].holds  # level 0 compares J with itself


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


def test_monic_certificate_base_generators_avoid_the_main_variable():
    # the presented ideal equals I, but its base part Y*X uses X
    I = ideal(QYX, "Y*X", "X^2 + 1")
    cert = MonicCertificate(I, parse_poly("X^2 + 1", QYX), (parse_poly("Y*X", QYX),))
    assert not cert.verify()


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
    # the lcm is the modulus: a fourth argument is accepted and dropped
    assert RegularImageCertificate(cert.ideal, 4, cert.image, 4) == cert
    with pytest.raises(AttributeError):
        cert.lcm_value = 2
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


def test_regular_image_certificate_with_zero_modulus():
    """d = 0 presents the principal ideal (h), which is regular only when h
    is nonzero; the zero modulus is the zero polynomial, not a generator."""
    h = parse_poly("2*X + 4", ZX)
    principal = Ideal(ZX, [h])
    assert RegularImageCertificate(principal, 0, h).verify()
    for I in (principal, Ideal(ZX, [])):
        assert not RegularImageCertificate(I, 0, Polynomial.zero(ZX)).verify()


def test_certify_stable_prefers_monic():
    cert = certify_stable(ideal(ZX, "4", "X^2 + X + 1"))
    assert cert is not None and cert.kind == "monic"
    cert = certify_stable(ideal(ZX, "4", "2*X + 1"))
    assert cert is not None and cert.kind == "regular_image"
    assert certify_stable(example_3_12(2)) is None
    assert certify_stable(ideal(QYX, "Y")) is None


# -- certificate searches -------------------------------------------------------------


def _monic_candidates(I):
    main = I.ring.require_main()
    base = tuple(g for g in I.generators if not g.uses_var(main))
    return [MonicCertificate(I, f, base) for f in I.generators]


def _regular_candidates(I):
    moduli = [abs(int(g.constant_value())) for g in I.generators if g.is_constant()]
    others = [g for g in I.generators if not g.is_constant()]
    return [RegularImageCertificate(I, d, h) for d in [*moduli, 0] for h in others]


def _search_ideals():
    """Seeded ideals whose generators put candidates that ``verify()``
    turns away before one it accepts: over every ring 2·f + b·X (not monic)
    and f·(X + 1) (monic, but with b short of I) before b and the monic f;
    over ZZ, with d = b, also p·h for a prime p dividing d (its McCoy lcm is
    not d) and h·(X + 1) (regular, but with d short of I) before h, h with
    leading coefficient 3 and constant term 1.  Half of them shuffled, and
    plain random ideals besides."""
    out = []
    for ring in (ZX, QYX, F7):
        X = Polynomial.variable(ring, "X")
        two, three, one = (Polynomial.constant(ring, c) for c in (2, 3, 1))
        for i in range(6):
            rng = random.Random(f"search:{ring}:{i}")
            f = X ** rng.randint(1, 3)
            f = f + rand_poly(rng, ring, f.total_degree() - 1)
            if ring is ZX:
                b, p = (Polynomial.constant(ring, c) for c in rng.choice([(2, 2), (4, 2), (6, 3), (9, 3)]))
            else:
                b = transport(rand_poly(rng, ring.base_ring(), 2), ring)
            presentations = [[two * f + b * X, f * (X + one), b, f]]
            if ring is ZX:
                h = three * X ** rng.randint(1, 3) + X * rand_poly(rng, ring, 1) + one
                presentations.append([b, p * h, h * (X + one), h])
            presentations.append(rand_gens(rng, ring, rng.randint(1, 3), max_deg=2))
            for gens in presentations:
                if i % 2:
                    rng.shuffle(gens)
                out.append(Ideal(ring, gens))
    return out


@pytest.mark.parametrize("I", _search_ideals())
def test_a_search_returns_the_first_candidate_its_verify_accepts(I):
    for search, candidates in (
        (monic_certificate, _monic_candidates),
        (regular_image_certificate, _regular_candidates),
    ):
        if search is regular_image_certificate and I.ring is not ZX:
            assert search(I) is None
            continue
        expected = next((c for c in candidates(I) if c.verify()), None)
        found = search(I)
        assert found == expected
        assert found is None or found.verify()
    assert certify_stable(I) == (monic_certificate(I) or regular_image_certificate(I))


def test_a_candidate_that_verify_turns_away_costs_no_basis(bases, pair_calls):
    # no generator is monic in X
    assert monic_certificate(ideal(QYX, "2*X^2 + Y", "Y*X", "Y")) is None
    assert bases == [] and pair_calls == []
    # (4, 2*X + 2) is not regular mod 4, so only the principal (2*X + 2) is compared
    assert regular_image_certificate(ideal(ZX, "4", "2*X + 2")) is None
    searched = len(bases)
    principal = RegularImageCertificate(ideal(ZX, "4", "2*X + 2"), 0, parse_poly("2*X + 2", ZX))
    assert not principal.verify()
    assert len(bases) == 2 * searched > 0


_FIRST_LEVEL = [
    (ZX, ("X^2 - 2", "X^3")),
    (ZX, ("4", "X^2 + X + 1")),
    (QYX, ("X^2 - Y", "Y*X")),
    (QYX, ("Y", "X^2 + X + 1")),
    (QYX, ("X - Y",)),
    (F7, ("X^2 - Y", "Y*X")),
    *(
        (ring, tuple(map(format_poly, rand_gens(random.Random(f"level:{ring}:{i}"), ring, 2, 2))))
        for ring in (ZX, QYX, F7)
        for i in range(3)
    ),
]


@pytest.mark.parametrize("ring, texts", _FIRST_LEVEL, ids=str)
def test_the_first_level_costs_only_its_contraction(pair_calls, bases, ring, texts):
    """Level 1 of the bounded check and level 0 of the graded criterion
    compare I ∩ R with itself.  Its generators are listed members of it (over
    ZZ, d divides itself), so the comparison forms no pair and no basis."""
    contract_power(ideal(ring, *texts), 1)
    cost = (list(pair_calls), list(bases))
    for check, bound in ((check_power_stable, 1), (graded_criterion, 0)):
        pair_calls.clear()
        bases.clear()
        check(ideal(ring, *texts), bound)
        assert (pair_calls, bases) == cost


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


def test_obstruction_certificate_rejects_a_witness_in_p_or_a_cofactor_in_p_t():
    # each product lies in P^2, so only the witness or cofactor check rejects
    P = hochster_P()
    inside = parse_poly("Y^2 - W*Z", QYZW)
    w = parse_poly("W", QYZW)
    assert not ObstructionCertificate(P, 2, inside, inside).verify()
    assert not ObstructionCertificate(P, 2, w, inside**2).verify()


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
    with pytest.raises(
        RingMismatchError, match=re.escape("witness candidate in ZZ[X], expected QQ[Y][X]")
    ):
        primary_obstruction(I, 2, [parse_poly("X", ZX)])
    # (0)^2 : w = (0) has no generator, on the homogenized and the tag route
    for ring in (QYX, ZX):
        assert primary_obstruction(Ideal(ring, []), 2) is None


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
    with pytest.raises(AlgebraError, match="powers need t >= 1, got 0"):
        d.power(0)
    assert d.intersect(BaseIdeal(ZX, integer=4)).generators() == (12,)
    assert d.contains(12) and not d.contains(3)
    assert BaseIdeal(ZX, integer=0).is_zero()
    assert d.texts() == ("6",)
