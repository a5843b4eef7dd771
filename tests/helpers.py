"""Small shared builders for randomized test instances."""

from __future__ import annotations

import random

from powerstable import Polynomial, RingSpec


def rand_poly(
    rng: random.Random,
    ring: RingSpec,
    max_deg: int = 3,
    max_terms: int = 4,
    coeff_bound: int = 5,
    max_den: int = 1,
) -> Polynomial:
    """A random polynomial with bounded total degree; may be zero.  With
    ``max_den`` > 1 (fields only) coefficients are fractions c/d, 1 <= d <= max_den."""
    out = Polynomial.zero(ring)
    nvars = len(ring.variables)
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff_bound, coeff_bound)
        if not c:
            continue
        d = rng.randint(1, max_den) if max_den > 1 else None
        term = Polynomial.constant(ring, ring.domain.literal(c, d))
        left = max_deg
        for v in ring.variables:
            k = rng.randint(0, left)
            left -= k
            if k:
                term = term * Polynomial.variable(ring, v) ** k
        out = out + term
    return out


def rand_gens(
    rng: random.Random,
    ring: RingSpec,
    count: int,
    max_deg: int = 3,
    coeff_bound: int = 5,
    max_den: int = 1,
) -> list[Polynomial]:
    """A list of `count` nonzero random polynomials."""
    gens: list[Polynomial] = []
    while len(gens) < count:
        f = rand_poly(rng, ring, max_deg, coeff_bound=coeff_bound, max_den=max_den)
        if not f.is_zero():
            gens.append(f)
    return gens
