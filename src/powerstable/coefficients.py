"""Exact coefficient arithmetic over ZZ, QQ, and prime fields GF(p).

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always in lowest terms with positive denominator),
and prime-field elements are immutable ``FpElement`` values that refuse to
mix moduli.  Everything is a pure function over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CoefficientError

Coefficient = Union[int, Fraction, "FpElement"]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (d, s, t) with d = gcd(a, b) >= 0 and d = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# Deterministic Miller-Rabin witness set: the first 12 primes as bases are
# proven sufficient below psi_12 ~ 3.18e23, hence for every n < 2**64
# (3.3e24 is the bound for the first 13).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic primality test for n < 2**64; larger n are refused
    rather than answered by a test that is not proven for them."""
    if n >= 1 << 64:
        raise CoefficientError(f"{n} exceeds the 2^64 bound of the primality test")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class FpElement:
    """A residue modulo a prime p.  Arithmetic checks that moduli match."""

    residue: int
    modulus: int

    def _peer(self, other: "FpElement") -> None:
        if not isinstance(other, FpElement):
            raise CoefficientError(f"cannot combine GF({self.modulus}) element with {other!r}")
        if other.modulus != self.modulus:
            raise CoefficientError(
                f"modulus mismatch: GF({self.modulus}) vs GF({other.modulus})"
            )

    def __add__(self, other: "FpElement") -> "FpElement":
        self._peer(other)
        return FpElement((self.residue + other.residue) % self.modulus, self.modulus)

    def __sub__(self, other: "FpElement") -> "FpElement":
        self._peer(other)
        return FpElement((self.residue - other.residue) % self.modulus, self.modulus)

    def __mul__(self, other: "FpElement") -> "FpElement":
        self._peer(other)
        return FpElement((self.residue * other.residue) % self.modulus, self.modulus)

    def __neg__(self) -> "FpElement":
        return FpElement(-self.residue % self.modulus, self.modulus)

    def inverse(self) -> "FpElement":
        if self.residue == 0:
            raise CoefficientError(f"0 has no inverse in GF({self.modulus})")
        return FpElement(pow(self.residue, -1, self.modulus), self.modulus)

    def __bool__(self) -> bool:
        return self.residue != 0

    def __str__(self) -> str:
        return str(self.residue)


class CoefficientDomain:
    """Shared interface of the three coefficient domains."""

    name: str

    def from_int(self, n: int) -> Coefficient:
        raise NotImplementedError

    def literal(self, num: int, den: int | None = None) -> Coefficient:
        """Build a coefficient from parsed literal parts (num, optional /den)."""
        raise NotImplementedError

    def is_negative(self, c: Coefficient) -> bool:
        """Display-level sign; prime fields have no signs."""
        return False

    def to_json(self):
        raise NotImplementedError

    @property
    def zero(self) -> Coefficient:
        return self.from_int(0)

    @property
    def one(self) -> Coefficient:
        return self.from_int(1)


@dataclass(frozen=True, slots=True)
class IntegerDomain(CoefficientDomain):
    name = "ZZ"

    def from_int(self, n: int) -> int:
        return n

    def literal(self, num: int, den: int | None = None) -> int:
        if den is None:
            return num
        if den != 0 and num % den == 0:
            return num // den
        raise CoefficientError(f"{num}/{den} is not an integer coefficient")

    def is_negative(self, c: int) -> bool:
        return c < 0

    def to_json(self) -> str:
        return "ZZ"


@dataclass(frozen=True, slots=True)
class RationalDomain(CoefficientDomain):
    name = "QQ"

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def literal(self, num: int, den: int | None = None) -> Fraction:
        if den == 0:
            raise CoefficientError(f"{num}/0 has a zero denominator")
        return Fraction(num) if den is None else Fraction(num, den)

    def is_negative(self, c: Fraction) -> bool:
        return c < 0

    def to_json(self) -> str:
        return "QQ"


@dataclass(frozen=True, slots=True)
class PrimeField(CoefficientDomain):
    p: int
    name = "Fp"

    def __post_init__(self):
        if not is_prime_u64(self.p):
            raise CoefficientError(f"{self.p} is not prime")

    def from_int(self, n: int) -> FpElement:
        return FpElement(n % self.p, self.p)

    def literal(self, num: int, den: int | None = None) -> FpElement:
        c = self.from_int(num)
        if den is None:
            return c
        if den % self.p == 0:
            raise CoefficientError(f"denominator {den} vanishes in GF({self.p})")
        return c * self.from_int(den).inverse()

    def to_json(self) -> dict:
        return {"Fp": self.p}


ZZ = IntegerDomain()
QQ = RationalDomain()


def GF(p: int) -> PrimeField:
    """The prime field with p elements (p prime, p < 2^64)."""
    return PrimeField(p)
