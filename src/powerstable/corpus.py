"""Built-in example ideals.

Each builder is deterministic: fixed name and parameters always produce the
identical ideal, and the seeded families derive every coefficient from a
seeded generator, so corpus output is reproducible byte for byte.  The
suite helpers at the bottom bundle instances for the property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .coefficients import is_prime_u64
from .errors import CorpusError
from .groebner import Budget, _divide
from .ideals import Ideal, RingMap
from .orders import Grevlex
from .polynomials import Polynomial, parse_poly
from .rings import RingSpec

_ZX = RingSpec.parse("ZZ[X]")
_QYX = RingSpec.parse("QQ[Y][X]")
_QYZX = RingSpec.parse("QQ[Y,Z][X]")
_QYZW = RingSpec.parse("QQ[Y,Z,W]")
_QT = RingSpec.parse("QQ[T]")


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _random_base_poly(rng: random.Random, ring: RingSpec, vars_: Sequence[str], deg: int) -> Polynomial:
    """Nonzero random polynomial in the named variables, total degree <= deg."""
    out = Polynomial.zero(ring)
    for _ in range(rng.randint(2, 4)):
        term = Polynomial.constant(ring, rng.randint(-4, 4))
        budget = deg
        for v in vars_:
            k = rng.randint(0, budget)
            budget -= k
            if k:
                term = term * Polynomial.variable(ring, v) ** k
        out = out + term
    if out.is_zero():
        out = Polynomial.constant(ring, 1) + Polynomial.variable(ring, vars_[0])
    return out


def principal(seed: int = 0) -> Ideal:
    """A seeded principal ideal: over ZZ[X] for even seeds, QQ[Y][X] for odd."""
    rng = _rng("principal", seed)
    if seed % 2 == 0:
        deg = rng.randint(1, 3)
        coeffs = [rng.randint(-4, 4) for _ in range(deg)]
        lead = rng.randint(1, 4)
        x = Polynomial.variable(_ZX, "X")
        f = Polynomial.constant(_ZX, lead) * x**deg
        for i, c in enumerate(coeffs):
            f = f + Polynomial.constant(_ZX, c) * x**i
        return Ideal(_ZX, [f])
    f = _random_base_poly(rng, _QYX, ("Y", "X"), 3)
    return Ideal(_QYX, [f])


def extension_JX(seed: int = 0) -> Ideal:
    """J extended to R[X]: generators from the coefficient ring only.

    Even seeds give (d) over ZZ[X]; odd seeds give 1 or 2 generators from
    QQ[Y,Z] viewed inside QQ[Y,Z][X]."""
    rng = _rng("extension_JX", seed)
    if seed % 2 == 0:
        d = rng.randint(2, 30)
        return Ideal(_ZX, [Polynomial.constant(_ZX, d)])
    gens = [
        _random_base_poly(rng, _QYZX, ("Y", "Z"), 2)
        for _ in range(rng.randint(1, 2))
    ]
    return Ideal(_QYZX, gens)


def example_3_12(p: int = 2) -> Ideal:
    """(X^2 - p, X^3) over ZZ[X] for a prime p: contracts to (p^2) at t = 1
    but p^3 already lies in I^2, so stability fails at t = 2."""
    if not is_prime_u64(p):
        raise CorpusError(f"example_3_12 needs a prime p, got {p}")
    x = Polynomial.variable(_ZX, "X")
    return Ideal(_ZX, [x * x - Polynomial.constant(_ZX, p), x**3])


def hochster_P() -> Ideal:
    """The prime (W^3 - YZ, Y^2 - WZ, Z^2 - W^2*Y) of QQ[Y,Z,W]: the kernel
    of the monomial map W, Y, Z -> T^3, T^4, T^5.  Its square is not
    primary, which primary_obstruction exhibits at t = 2."""
    gens = ["W^3 - Y*Z", "Y^2 - W*Z", "Z^2 - W^2*Y"]
    return Ideal(_QYZW, [parse_poly(t, _QYZW) for t in gens])


def hochster_toric_map() -> RingMap:
    """The monomial map QQ[Y,Z,W] -> QQ[T] with W -> T^3, Y -> T^4, Z -> T^5."""
    t = Polynomial.variable(_QT, "T")
    return RingMap(_QYZW, _QT, {"W": t**3, "Y": t**4, "Z": t**5})


def gadget_3_14() -> Ideal:
    """(X^2 - Y, Y*X) in QQ[Y][X]: contracts to (Y^2) but Y^3 lies in the
    square, the minimal instability gadget over a polynomial base."""
    return Ideal(_QYX, [parse_poly("X^2 - Y", _QYX), parse_poly("Y*X", _QYX)])


_COMAX_PRIMES = (2, 3, 5, 7, 11, 13)


def comaximal_pair(seed: int = 0) -> tuple[Ideal, Ideal]:
    """Two comaximal ideals: (p, f), (q, g) over ZZ[X] with distinct primes
    and mod-p/mod-q irreducible monic f, g for even seeds; (Y - a, f),
    (Y - b, g) with a != b over QQ[Y][X] for odd seeds."""
    rng = _rng("comaximal_pair", seed)
    if seed % 2 == 0:
        p, q = rng.sample(_COMAX_PRIMES, 2)
        f = _random_monic_irreducible(rng, p)
        g = _random_monic_irreducible(rng, q)
        left = Ideal(_ZX, [Polynomial.constant(_ZX, p), f])
        right = Ideal(_ZX, [Polynomial.constant(_ZX, q), g])
        return left, right
    a = rng.randint(-5, 5)
    b = a + rng.randint(1, 5)
    y = Polynomial.variable(_QYX, "Y")
    x = Polynomial.variable(_QYX, "X")
    f = x + Polynomial.constant(_QYX, rng.randint(-3, 3))
    g = x * x + Polynomial.constant(_QYX, rng.randint(-3, 3)) * x + Polynomial.constant(
        _QYX, rng.randint(-3, 3)
    )
    left = Ideal(_QYX, [y - Polynomial.constant(_QYX, a), f])
    right = Ideal(_QYX, [y - Polynomial.constant(_QYX, b), g])
    return left, right


def _random_monic_irreducible(rng: random.Random, p: int) -> Polynomial:
    """Monic polynomial of degree 1 or 2, irreducible mod p."""
    x = Polynomial.variable(_ZX, "X")
    while True:
        deg = rng.randint(1, 2)
        coeffs = [rng.randint(0, p - 1) for _ in range(deg)]
        f = x**deg
        for i, c in enumerate(coeffs):
            f = f + Polynomial.constant(_ZX, c) * x**i
        if _irreducible_mod_p(f, p):
            return f


# -- mod-p irreducibility (validation for the radical corpus) ---------------------


def _irreducible_mod_p(f: Polynomial, p: int) -> bool:
    """Brute-force irreducibility of f in ZZ[X] over GF(p), degree at most 6.

    Maps f into GF(p)[X] and divides it by every monic candidate divisor of
    degree 1..deg/2, under the degree bound deg f, which no step of such a
    division exceeds; the search space stays tiny at desk scale (p <= 13,
    degree <= 6)."""
    ring = RingSpec.parse(f"Fp({p})[X]")
    gf = ring.domain
    f_p = Polynomial(ring, {e: gf.from_int(int(c)) for e, c in f.terms()})
    deg = f_p.total_degree()
    if deg < 1:
        return False
    if deg > 6:
        raise CorpusError(f"irreducibility check limited to degree 6, got {deg}")
    for k in range(1, deg // 2 + 1):
        for code in range(p**k):
            low = {(i,): gf.from_int(code // p**i % p) for i in range(k)}
            g = Polynomial(ring, {**low, (k,): gf.one})
            if _divide(f_p, [g], Grevlex(), deg)[1].is_zero():
                return False
    return True


def radical_zx(pairs: Sequence[tuple[int, object]], budget: Budget | None = None) -> Ideal:
    """Intersection of maximal ideals (p, f) of ZZ[X].

    Each pair must have p prime and f irreducible mod p with its leading
    coefficient a unit mod p, so that (p, f) really is maximal; the pairs
    are intersected left to right, each intersection under ``budget``."""
    if not pairs:
        raise CorpusError("radical_zx needs at least one (p, f) pair")
    parts: list[Ideal] = []
    for p, f in pairs:
        if not is_prime_u64(p):
            raise CorpusError(f"radical_zx modulus must be prime, got {p}")
        poly = f if isinstance(f, Polynomial) else parse_poly(str(f), _ZX)
        if poly.is_zero() or int(poly.leading_term()[1]) % p == 0:
            raise CorpusError(
                f"radical_zx polynomial {f} drops degree mod {p}; pick a unit leading coefficient"
            )
        if not _irreducible_mod_p(poly, p):
            raise CorpusError(f"radical_zx polynomial {f} is reducible mod {p}")
        parts.append(Ideal(_ZX, [Polynomial.constant(_ZX, p), poly]))
    budget = budget or Budget()
    out = parts[0]
    for nxt in parts[1:]:
        out = out.intersect(nxt, budget)
    return out


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    params: str
    description: str
    builder: Callable


REGISTRY: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "principal",
        "seed (default 0)",
        "seeded principal ideal; power stable at every exponent",
        principal,
    ),
    CorpusEntry(
        "extension_JX",
        "seed (default 0)",
        "base ideal J extended to R[X]; contractions recover the powers of J",
        extension_JX,
    ),
    CorpusEntry(
        "example_3_12",
        "p prime (default 2)",
        "(X^2 - p, X^3) over ZZ[X]; contracts to (p^2) yet p^3 lies in the square",
        example_3_12,
    ),
    CorpusEntry(
        "hochster_P",
        "none",
        "kernel prime of the monomial map T^3, T^4, T^5; its square is not primary",
        hochster_P,
    ),
    CorpusEntry(
        "hochster_toric_map",
        "none",
        "the monomial ring map QQ[Y,Z,W] -> QQ[T] itself",
        hochster_toric_map,
    ),
    CorpusEntry(
        "gadget_3_14",
        "none",
        "(X^2 - Y, Y*X) in QQ[Y][X]; instability appears at the square",
        gadget_3_14,
    ),
    CorpusEntry(
        "comaximal_pair",
        "seed (default 0)",
        "two comaximal ideals whose intersection stays power stable",
        comaximal_pair,
    ),
    CorpusEntry(
        "radical_zx",
        "pairs (p, f); f irreducible mod p",
        "intersection of maximal ideals (p, f) of ZZ[X]; radical, hence stable",
        radical_zx,
    ),
)

_BY_NAME = {entry.name: entry for entry in REGISTRY}


def corpus(name: str, params: dict | None = None):
    """Build a corpus item by name; params mirror the builder signature."""
    entry = _BY_NAME.get(name)
    if entry is None:
        known = ", ".join(sorted(_BY_NAME))
        raise CorpusError(f"unknown corpus name {name!r}; known: {known}")
    return entry.builder(**(params or {}))


# -- bundled suites ------------------------------------------------------------------


def stability_corpus() -> list[tuple[str, Ideal]]:
    """Ideals in R[X] shape used by the cross-checking property suites;
    mixes stable and unstable, ZZ and field coefficients."""
    items: list[tuple[str, Ideal]] = [
        ("principal(0)", principal(0)),
        ("principal(1)", principal(1)),
        ("extension_JX(0)", extension_JX(0)),
        ("extension_JX(1)", extension_JX(1)),
        ("example_3_12(2)", example_3_12(2)),
        ("example_3_12(3)", example_3_12(3)),
        ("gadget_3_14", gadget_3_14()),
        ("monic_pair", Ideal(_QYX, [parse_poly(t, _QYX) for t in ("Y", "X^2+X+1")])),
        ("mccoy_pair", Ideal(_ZX, [parse_poly(t, _ZX) for t in ("4", "X^2+X+1")])),
        ("remark_maximal", Ideal(_ZX, [parse_poly(t, _ZX) for t in ("2", "X")])),
    ]
    return items


def prime_corpus() -> list[tuple[str, Ideal]]:
    """15 prime ideals of ZZ[X]: maximal (p, f), primitive irreducible (f),
    and constant primes (p)."""
    maximal = [
        (2, "X"),
        (2, "X^2+X+1"),
        (3, "X+1"),
        (3, "X^2+1"),
        (5, "X^2+2"),
        (7, "X+3"),
        (11, "X^2+1"),
    ]
    items: list[tuple[str, Ideal]] = []
    for p, f in maximal:
        ideal = Ideal(_ZX, [Polynomial.constant(_ZX, p), parse_poly(f, _ZX)])
        items.append((f"({p}, {f})", ideal))
    for f in ("X^2+1", "X^2-2", "X^3+X+1", "2X+3", "X^2+X+1"):
        items.append((f"({f})", Ideal(_ZX, [parse_poly(f, _ZX)])))
    for p in (2, 5, 13):
        items.append((f"({p})", Ideal(_ZX, [Polynomial.constant(_ZX, p)])))
    return items


def radical_corpus() -> list[tuple[str, Ideal]]:
    """8 radical_zx intersections."""
    specs: list[list[tuple[int, str]]] = [
        [(2, "X")],
        [(2, "X^2+X+1")],
        [(3, "X+1"), (5, "X+2")],
        [(2, "X"), (3, "X")],
        [(5, "X^2+2")],
        [(2, "X^3+X+1"), (7, "X+2")],
        [(3, "X^2+1"), (2, "X+1")],
        [(11, "X+5"), (13, "X+1")],
    ]
    out = []
    for spec in specs:
        label = " ∩ ".join(f"({p}, {f})" for p, f in spec)
        out.append((label, radical_zx(spec)))
    return out
