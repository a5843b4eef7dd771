"""Power stability of ideals in R[X].

An ideal I of R[X] is power stable when I^t ∩ R = (I ∩ R)^t for every
t >= 1.  The bounded checker verifies the equation for t = 1..T and
returns an explicit witness when it first fails; certificates are the only
route to an all-t claim:

* monic presentation: I = (J, f) with J from R and f monic in X,
* regular image (over ZZ): I = (d, h) with h a non-zerodivisor mod d,
* primary obstruction: a pair (w, q) with w*q in P^t, w not in P and q not
  in P^t, refuting that P^t is P-primary.

Contractions land in the coefficient ring R, which is ZZ (principal
ideals, plain integers) or K[Y...] (a base-ring Ideal); BaseIdeal wraps the
two shapes behind one interface.

Both comparisons are one-sided.  (I ∩ R)^t ⊆ I^t ∩ R and
J^(n+1) ⊆ J^n ∩ (I^(n+1) ∩ R) hold for every ideal, so equality is decided
by testing the larger side's generators against the smaller side alone,
and the first generator that fails is the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import AlgebraError
from .groebner import Budget
from .ideals import Ideal
from .polynomials import Polynomial, format_poly, transport
from .rings import RingSpec


@dataclass(frozen=True)
class BaseIdeal:
    """An ideal of the coefficient ring R of R[X].

    Exactly one representation is active: ``integer`` d >= 0 for the
    principal ideal (d) of ZZ, or ``ideal`` over the base polynomial ring
    in field mode.
    """

    ring: RingSpec
    integer: int | None = None
    ideal: Ideal | None = None

    def __post_init__(self):
        if (self.integer is None) == (self.ideal is None):
            raise AlgebraError("BaseIdeal needs exactly one of integer, ideal")
        if self.integer is not None and self.integer < 0:
            raise AlgebraError("principal integer ideals are kept non-negative")

    def is_zero(self) -> bool:
        if self.integer is not None:
            return self.integer == 0
        return self.ideal.is_zero_ideal()

    def power(self, t: int, budget: Budget | None = None) -> "BaseIdeal":
        if t < 1:
            raise AlgebraError(f"powers need t >= 1, got {t}")
        if self.integer is not None:
            return BaseIdeal(self.ring, integer=self.integer**t)
        return BaseIdeal(self.ring, ideal=self.ideal.power(t, budget))

    def intersect(self, other: "BaseIdeal", budget: Budget | None = None) -> "BaseIdeal":
        if self.integer is not None:
            return BaseIdeal(self.ring, integer=math.lcm(self.integer, other.integer))
        return BaseIdeal(self.ring, ideal=self.ideal.intersect(other.ideal, budget))

    def equals(self, other: "BaseIdeal", budget: Budget | None = None) -> bool:
        if self.integer is not None:
            return self.integer == other.integer
        return self.ideal.equals(other.ideal, budget)

    def contains(self, element, budget: Budget | None = None) -> bool:
        if self.integer is not None:
            n = int(element)
            return n == 0 if self.integer == 0 else n % self.integer == 0
        return self.ideal.contains(element, budget)

    def generators(self) -> tuple:
        if self.integer is not None:
            return () if self.integer == 0 else (self.integer,)
        return self.ideal.generators

    def texts(self) -> tuple[str, ...]:
        if self.integer is not None:
            return () if self.integer == 0 else (str(self.integer),)
        return tuple(format_poly(g) for g in self.ideal.generators)


# -- contraction ------------------------------------------------------------------


def contract_power(ideal: Ideal, t: int, budget: Budget | None = None) -> BaseIdeal:
    """Contract I^t to the coefficient ring: the ideal I^t ∩ R, which is
    the elimination of the main variable from I^t, over every R.

    Over ZZ the reduced strong basis keeps at most one constant, and it
    generates I^t ∩ ZZ (none: the zero ideal).  In field mode the kept
    generators are re-expressed over R.
    """
    ring = ideal.ring
    main = ring.require_main()
    kept = ideal.power(t, budget).eliminate((main,), budget).generators
    if ring.is_int_mode:
        return BaseIdeal(ring, integer=abs(int(kept[0].constant_value())) if kept else 0)
    base = ring.base_ring()
    return BaseIdeal(ring, ideal=Ideal(base, [transport(g, base) for g in kept]))


# -- bounded stability check -------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str  # "STABLE_UP_TO" or "UNSTABLE_AT"
    t: int

    def __str__(self) -> str:
        return f"{self.kind}({self.t})"


@dataclass(frozen=True)
class StabilityRecord:
    """One exponent's comparison: I^t ∩ R against (I ∩ R)^t."""

    t: int
    contraction: BaseIdeal
    expected: BaseIdeal
    equal: bool


@dataclass(frozen=True)
class StabilityReport:
    ideal: Ideal
    bound: int
    verdict: Verdict
    records: tuple[StabilityRecord, ...]
    witness: object | None  # int over ZZ, base-ring Polynomial in field mode

    def is_stable(self) -> bool:
        return self.verdict.kind == "STABLE_UP_TO"


def _failure_witness(larger: BaseIdeal, smaller: BaseIdeal, budget: Budget | None):
    """The first generator of ``larger`` outside ``smaller``, or None when
    the two are equal.

    Callers pass a pair with ``smaller`` ⊆ ``larger`` by construction
    ((I ∩ R)^t in I^t ∩ R, J^(n+1) in J^n ∩ (I^(n+1) ∩ R)), so the ideals are
    equal exactly when every generator of the larger lies in the smaller,
    and the other direction is never computed.  A witness is re-verified in
    its own ideal before being reported.
    """
    for g in larger.generators():
        if not smaller.contains(g, budget):
            if not larger.contains(g, budget):
                raise AlgebraError("internal: witness fell outside its own contraction")
            return g
    return None


def check_power_stable(
    ideal: Ideal, bound: int = 4, budget: Budget | None = None
) -> StabilityReport:
    """Decide I^t ∩ R = (I ∩ R)^t for t = 1..bound.

    Returns STABLE_UP_TO(bound) when every exponent agrees; otherwise
    UNSTABLE_AT(t) for the first failure, with a witness element.  A
    bounded STABLE verdict is not an all-t claim; certificates are.
    """
    if bound < 1:
        raise AlgebraError(f"stability bound must be >= 1, got {bound}")
    records: list[StabilityRecord] = []
    for t in range(1, bound + 1):
        ct = contract_power(ideal, t, budget)
        if t == 1:
            base1 = ct
        expected = base1.power(t, budget)
        # at t = 1 both sides are I ∩ R itself
        w = _failure_witness(ct, expected, budget) if t > 1 else None
        records.append(StabilityRecord(t, ct, expected, w is None))
        if w is not None:
            return StabilityReport(ideal, bound, Verdict("UNSTABLE_AT", t), tuple(records), w)
    return StabilityReport(ideal, bound, Verdict("STABLE_UP_TO", bound), tuple(records), None)


# -- graded criterion ------------------------------------------------------------


@dataclass(frozen=True)
class GradedRecord:
    """One level of the graded comparison: J^n ∩ (I^(n+1) ∩ R) vs J^(n+1)."""

    n: int
    meet: BaseIdeal
    target: BaseIdeal
    holds: bool


@dataclass(frozen=True)
class GradedCriterionReport:
    ideal: Ideal
    bound: int
    records: tuple[GradedRecord, ...]
    holds: bool
    failure_n: int | None
    witness: object | None


def graded_criterion(
    ideal: Ideal, bound: int = 3, budget: Budget | None = None
) -> GradedCriterionReport:
    """Check J^n ∩ (I^(n+1) ∩ R) = J^(n+1) for n = 0..bound, J = I ∩ R.

    Level n controls stability at exponent n+1: the criterion holding for
    all n < N is equivalent to I^t ∩ R = J^t for all t <= N.  Level 0 is
    J ∩ ... trivially J and always holds.
    """
    if bound < 0:
        raise AlgebraError(f"graded bound must be >= 0, got {bound}")
    records: list[GradedRecord] = []
    for n in range(bound + 1):
        c_next = contract_power(ideal, n + 1, budget)
        if n == 0:
            J = meet = c_next
        else:
            meet = J.power(n, budget).intersect(c_next, budget)
        target = J.power(n + 1, budget)
        # at level 0 both sides are J itself
        w = _failure_witness(meet, target, budget) if n > 0 else None
        records.append(GradedRecord(n, meet, target, w is None))
        if w is not None:
            return GradedCriterionReport(ideal, bound, tuple(records), False, n, w)
    return GradedCriterionReport(ideal, bound, tuple(records), True, None, None)


# -- certificates ------------------------------------------------------------------


@dataclass(frozen=True)
class MonicCertificate:
    """I = (base ideal from R) + (f) with f monic in the main variable.

    Such presentations are power stable for every t, so this certificate
    upgrades a bounded verdict to an all-t claim.
    """

    ideal: Ideal
    monic: Polynomial
    base_gens: tuple[Polynomial, ...]

    @property
    def kind(self) -> str:
        return "monic"

    def verify(self, budget: Budget | None = None) -> bool:
        ring = self.ideal.ring
        main = ring.require_main()
        if not _is_monic_in(self.monic, main):
            return False
        if any(g.uses_var(main) for g in self.base_gens):
            return False
        return self.ideal.equals(Ideal(ring, (*self.base_gens, self.monic)), budget)


def _is_monic_in(f: Polynomial, main: str) -> bool:
    d = f.degree_in(main)
    if d < 1:
        return False
    lead = f.coefficient_of(main, d)
    return lead == Polynomial.one(f.ring)


def monic_certificate(ideal: Ideal, budget: Budget | None = None) -> MonicCertificate | None:
    """Search the generators for a monic presentation; None if there is none
    visible.  A miss is not a refutation, only the absence of a certificate."""
    ring = ideal.ring
    main = ring.require_main()
    base_gens = tuple(g for g in ideal.generators if not g.uses_var(main))
    candidates = [g for g in ideal.generators if _is_monic_in(g, main)]
    for f in candidates:
        cert = MonicCertificate(ideal, f, base_gens)
        if cert.verify(budget):
            return cert
    return None


@dataclass(frozen=True)
class RegularImageCertificate:
    """I = (d, h) in ZZ[X] with the image of h regular mod d.

    Regularity of h in (ZZ/d)[X] is decided coefficientwise: with
    L = lcm over the coefficients c of h of d/gcd(d, c), the image is a
    non-zerodivisor iff L = d (and any 0 < c' < d with L | c' kills h
    otherwise).  d = 0 presents a principal ideal; regular then just means
    h is nonzero.  Either way the presentation is power stable for all t.
    """

    ideal: Ideal
    modulus: int
    image: Polynomial
    lcm_value: int

    @property
    def kind(self) -> str:
        return "regular_image"

    def verify(self, budget: Budget | None = None) -> bool:
        ring = self.ideal.ring
        if not ring.is_int_mode:
            return False
        gens = [self.image]
        if self.modulus:
            gens.insert(0, Polynomial.constant(ring, self.modulus))
        if not self.ideal.equals(Ideal(ring, gens), budget):
            return False
        if self.modulus == 0:
            return not self.image.is_zero()
        return _mccoy_lcm(self.modulus, self.image) == self.modulus


def _mccoy_lcm(d: int, h: Polynomial) -> int:
    """lcm over the coefficients c of h of d / gcd(d, c); equals d exactly
    when no nonzero residue annihilates h mod d."""
    out = 1
    for _, c in h.terms():
        out = math.lcm(out, d // math.gcd(d, int(c)))
    return out


def regular_image_certificate(
    ideal: Ideal, budget: Budget | None = None
) -> RegularImageCertificate | None:
    """Search the generators for a presentation (d, h) or (h) with regular
    image.  ZZ mode only; None means no certificate was found."""
    ring = ideal.ring
    if not ring.is_int_mode:
        return None
    constants = [g for g in ideal.generators if g.is_constant()]
    others = [g for g in ideal.generators if not g.is_constant()]
    for dpoly in constants:
        d = abs(int(dpoly.constant_value()))
        for h in others:
            if _mccoy_lcm(d, h) != d:
                continue
            cert = RegularImageCertificate(ideal, d, h, d)
            if cert.verify(budget):
                return cert
    for h in others:
        cert = RegularImageCertificate(ideal, 0, h, 0)
        if cert.verify(budget):
            return cert
    return None


@dataclass(frozen=True)
class ObstructionCertificate:
    """A refutation that P^t is P-primary: w*q lands in P^t although w
    avoids P and q avoids P^t."""

    ideal: Ideal
    t: int
    witness: Polynomial
    cofactor: Polynomial

    @property
    def kind(self) -> str:
        return "primary_obstruction"

    def verify(self, budget: Budget | None = None) -> bool:
        pt = self.ideal.power(self.t, budget)
        if self.ideal.contains(self.witness, budget):
            return False
        if pt.contains(self.cofactor, budget):
            return False
        return pt.contains(self.witness * self.cofactor, budget)


def primary_obstruction(
    ideal: Ideal,
    t: int,
    witnesses: Sequence[Polynomial] | None = None,
    budget: Budget | None = None,
) -> ObstructionCertificate | None:
    """Search for an obstruction pair at exponent t.

    Candidate witnesses default to the ring variables; for each w outside
    P the colon ideal (P^t : w) is inspected for a generator outside P^t.
    None means the search found nothing, not that P^t is primary.
    """
    if t < 1:
        raise AlgebraError(f"obstruction exponent must be >= 1, got {t}")
    ring = ideal.ring
    if witnesses is None:
        witnesses = [
            Polynomial.variable(ring, v) for v in ring.variables if v not in ring.aux_vars
        ]
    pt = None  # formed once a witness outside P needs it
    for w in witnesses:
        if w.ring != ring:
            raise AlgebraError(f"witness candidate in {w.ring}, expected {ring}")
        if ideal.contains(w, budget):
            continue
        pt = pt or ideal.power(t, budget)
        colon = pt.quotient(w, budget)
        for q in colon.generators:
            if not pt.contains(q, budget):
                cert = ObstructionCertificate(ideal, t, w, q)
                if not cert.verify(budget):
                    raise AlgebraError("internal: obstruction candidate failed verification")
                return cert
    return None


def certify_stable(ideal: Ideal, budget: Budget | None = None):
    """Try the all-t certificates in order: monic, then regular image."""
    cert = monic_certificate(ideal, budget)
    if cert is not None:
        return cert
    return regular_image_certificate(ideal, budget)
