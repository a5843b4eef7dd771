"""Ten end-to-end acceptance checks, each with a wall-clock cap.

Every check exercises one advertised capability at full scale.  Outcomes
land in acceptance_log and are echoed as one ACCEPTANCE line apiece in the
terminal summary; a miss on substance or on the clock fails the test.
"""

import functools
import random
import time
from fractions import Fraction

from acceptance_log import record
from helpers import rand_gens, rand_poly
from oracles import macaulay_member

from powerstable import (
    BaseIdeal,
    Ideal,
    Polynomial,
    RingSpec,
    check_power_stable,
    comaximal_pair,
    contract_power,
    divide,
    example_3_12,
    extension_JX,
    gadget_3_14,
    graded_criterion,
    groebner_basis,
    hochster_P,
    hochster_toric_map,
    is_groebner,
    monic_certificate,
    normal_form,
    parse_poly,
    primary_obstruction,
    principal,
    transport,
)
from powerstable.corpus import prime_corpus, radical_corpus, stability_corpus

ZX = RingSpec.parse("ZZ[X]")
QYZ = RingSpec.parse("QQ[Y,Z]")
QYZX = RingSpec.parse("QQ[Y,Z][X]")
QYZW = RingSpec.parse("QQ[Y,Z,W]")


def criterion(n: int, label: str, cap: float):
    """Record the ACCEPTANCE line and enforce the wall-clock cap."""

    def deco(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                record(n, label, False, time.perf_counter() - t0)
                raise
            dt = time.perf_counter() - t0
            record(n, label, dt < cap, dt)
            assert dt < cap, f"criterion {n} took {dt:.2f}s, cap {cap:.0f}s"

        return run

    return deco


@criterion(1, "square-root-of-p instability", 3.0)
def test_acceptance_01_square_root_of_p():
    for p in (2, 3, 5):
        t0 = time.perf_counter()
        I = example_3_12(p)
        assert contract_power(I, 1).equals(BaseIdeal(I.ring, integer=p * p))
        assert I.power(2).contains(Polynomial.constant(I.ring, p**3))
        rep = check_power_stable(I, 4)
        assert rep.verdict.kind == "UNSTABLE_AT" and rep.verdict.t == 2
        assert rep.witness == p**3
        assert time.perf_counter() - t0 < 1.0, f"p={p} over the 1s cap"


@criterion(2, "toric kernel and primary obstruction", 10.0)
def test_acceptance_02_toric_prime():
    P = hochster_P()
    ring = P.ring
    assert hochster_toric_map().kernel().equals(P)
    w = Polynomial.variable(ring, "W")
    y = Polynomial.variable(ring, "Y")
    z = Polynomial.variable(ring, "Z")
    q = parse_poly("W^5 + Y^3*W - 3*Y*Z*W^2 + Z^3", ring)
    P2 = P.power(2)
    assert not P.contains(w)
    assert P.contains(q)
    assert not P2.contains(q)
    assert P2.contains(w * q)
    cert = primary_obstruction(P, 2, witnesses=[w, y, z])
    assert cert is not None and cert.witness == w
    assert P2.contains(cert.witness * cert.cofactor)
    assert not P2.contains(cert.cofactor)
    assert cert.verify()


def _monic_instance(seed: int) -> Ideal:
    rng = random.Random(f"monic:{seed}")
    x = Polynomial.variable(QYZX, "X")
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = rand_poly(rng, QYZ, max_deg=3, max_terms=2, coeff_bound=3)
        if not g.is_zero():
            gens.append(transport(g, QYZX))
    d = rng.randint(1, 3)
    f = x**d
    for i in range(d):
        c = rand_poly(rng, QYZ, max_deg=2, max_terms=2, coeff_bound=2)
        if not c.is_zero():
            f = f + transport(c, QYZX) * x**i
    gens.append(f)
    return Ideal(QYZX, gens)


@criterion(3, "seeded monic family certified stable", 120.0)
def test_acceptance_03_monic_family():
    for seed in range(50):
        I = _monic_instance(seed)
        rep = check_power_stable(I, 4)
        assert rep.verdict.kind == "STABLE_UP_TO" and rep.verdict.t == 4, f"seed {seed}"
        cert = monic_certificate(I)
        assert cert is not None and cert.verify(), f"seed {seed}"


@criterion(4, "principal and extended ideals stable to five", 60.0)
def test_acceptance_04_principal_and_extension():
    for seed in range(20):
        rep = check_power_stable(principal(seed), 5)
        assert rep.verdict.kind == "STABLE_UP_TO" and rep.verdict.t == 5
    for seed in range(20):
        I = extension_JX(seed)
        rep = check_power_stable(I, 5)
        assert rep.verdict.kind == "STABLE_UP_TO" and rep.verdict.t == 5
        ring = I.ring
        if ring.is_int_mode:
            J = BaseIdeal(ring, integer=abs(int(I.generators[0].constant_value())))
        else:
            low = ring.base_ring()
            J = BaseIdeal(ring, ideal=Ideal(low, [transport(g, low) for g in I.generators]))
        # the contraction of I^t recovers J^t on the nose
        for rec in rep.records:
            assert rec.contraction.equals(J.power(rec.t))


@criterion(5, "gadget instability with polynomial witness", 1.0)
def test_acceptance_05_gadget():
    I = gadget_3_14()
    low = I.ring.base_ring()
    y_sq = BaseIdeal(I.ring, ideal=Ideal(low, [parse_poly("Y^2", low)]))
    assert contract_power(I, 1).equals(y_sq)
    assert I.power(2).contains(parse_poly("Y^3", I.ring))
    rep = check_power_stable(I, 4)
    assert rep.verdict.kind == "UNSTABLE_AT" and rep.verdict.t == 2
    assert rep.witness == parse_poly("Y^3", low)


@criterion(6, "graded criterion matches bounded stability", 30.0)
def test_acceptance_06_graded_criterion():
    for name, I in stability_corpus():
        assert graded_criterion(I, 3).holds == check_power_stable(I, 4).is_stable(), name
    rep = graded_criterion(example_3_12(2), 3)
    assert not rep.holds and rep.failure_n == 1
    assert rep.records[0].holds
    last = rep.records[-1]
    assert last.n == 1 and not last.holds
    assert rep.witness == 8
    assert last.meet.contains(8) and not last.target.contains(8)


@criterion(7, "comaximal intersections stay stable", 60.0)
def test_acceptance_07_comaximal():
    for seed in range(10):
        A, B = comaximal_pair(seed)
        assert check_power_stable(A, 3).is_stable()
        assert check_power_stable(B, 3).is_stable()
        assert check_power_stable(A.intersect(B), 3).is_stable(), f"seed {seed}"


@criterion(8, "basis checks, uniqueness, and the matrix oracle", 120.0)
def test_acceptance_08_groebner_cross_checks():
    rng = random.Random("acceptance:gb")
    # reduced bases do not depend on how the ideal is presented
    for _ in range(20):
        gens = rand_gens(rng, QYZW, rng.randint(2, 3), 2, coeff_bound=4)
        gb0 = groebner_basis(gens)
        assert is_groebner(gb0)
        for _ in range(5):
            alt = list(gens)
            rng.shuffle(alt)
            scale = Fraction(rng.choice((1, 2, 3, -1, 5)), rng.choice((1, 2, 3)))
            alt = [g * Polynomial.constant(QYZW, scale) for g in alt]
            gb = groebner_basis(alt)
            assert is_groebner(gb)
            assert gb.elements == gb0.elements
    # membership agrees with the dense matrix oracle in both modes
    for ring in (ZX, QYZ):
        for _ in range(5):
            gens = rand_gens(rng, ring, rng.randint(1, 2), 2)
            gb = groebner_basis(gens)
            assert is_groebner(gb)
            probe = rand_gens(rng, ring, 1, 2)[0]
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


@criterion(9, "prime ideals stable to three", 60.0)
def test_acceptance_09_primes():
    for name, I in prime_corpus():
        assert check_power_stable(I, 3).is_stable(), name


@criterion(10, "radical intersections stable to three", 60.0)
def test_acceptance_10_radicals():
    for name, I in radical_corpus():
        assert check_power_stable(I, 3).is_stable(), name
