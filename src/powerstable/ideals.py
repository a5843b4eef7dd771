"""Ideal arithmetic: powers, sums, products, intersection, quotients,
saturation, elimination, membership, and kernels of ring maps.

Every operation is exact and deterministic.  Constructions that need an
auxiliary variable (intersection by a tag variable, radical membership by
the trick polynomial 1 - y*f) allocate names prefixed with '_' which the
polynomial parser refuses, so user input can never collide with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import AlgebraError, RingMismatchError
from .groebner import Budget, GroebnerBasis, _check_degree, exact_divide, groebner_basis, normal_form
from .orders import BlockElim, Grevlex, MonomialOrder
from .polynomials import Polynomial, evaluate_map, format_poly, transport
from .rings import RingSpec

# Over ZZ, radical membership tries the powers f, f^2, ..., f^cap.
_RADICAL_POWER_CAP = 12


class Ideal:
    """An ideal of R[X] given by a finite generating set.

    Zero generators are discarded and duplicates collapse, so the empty
    list is the zero ideal.  Groebner bases and powers are cached on the
    instance, bases per monomial order.  Elimination (and with it
    intersection, saturation, kernels and contractions of powers) computes
    its basis through the same per-order cache, and each of these is one
    route over ZZ, QQ and GF(p) alike.
    """

    __slots__ = ("ring", "generators", "_gb", "_powers")

    def __init__(self, ring: RingSpec, generators: Iterable[Polynomial]):
        gens: list[Polynomial] = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError(f"generator in {g.ring}, expected {ring}")
            if g.is_zero() or g in gens:
                continue
            gens.append(g)
        self.ring = ring
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._gb: dict[MonomialOrder, GroebnerBasis] = {}
        self._powers: dict[int, "Ideal"] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_texts(cls, ring: RingSpec, texts: Sequence[str]) -> "Ideal":
        from .polynomials import parse_poly

        return cls(ring, [parse_poly(t, ring) for t in texts])

    def __repr__(self) -> str:
        inner = ", ".join(format_poly(g) for g in self.generators) or "0"
        return f"Ideal({self.ring}; {inner})"

    def is_zero_ideal(self) -> bool:
        return not self.generators

    # -- Groebner machinery --------------------------------------------------

    def groebner(
        self, order: MonomialOrder | None = None, budget: Budget | None = None
    ) -> GroebnerBasis:
        order = order or Grevlex()
        got = self._gb.get(order)
        if got is None:
            got = groebner_basis(self.generators, order, budget)
            self._gb[order] = got
        return got

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError(f"membership candidate in {f.ring}, expected {self.ring}")
        if f.is_zero():
            return True
        if not self.generators:
            return False
        gb = self.groebner(budget=budget)
        return normal_form(f, gb, budget=budget).is_zero()

    # -- arithmetic -----------------------------------------------------------

    def power(self, t: int, budget: Budget | None = None) -> "Ideal":
        """I^t, generated by all products of t generators (with repetition).

        Built as I^k = I^(k-1) * I, one factor at a time from the highest
        power already cached, and every I^k is cached.  A product whose new
        factor comes before the last factor of its I^(k-1) generator has
        already appeared, and equal products collapse, so the generators come
        out in the order of ``itertools.combinations_with_replacement``, each
        distinct product once.  Over domains I^t has a generator of degree t
        times the top one, which any basis of I^t rejects over the degree
        budget, so such a power raises before it is formed.
        """
        if t < 1:
            raise AlgebraError(f"ideal powers need t >= 1, got {t}")
        if t == 1 or not self.generators:
            return self
        top = max(g.total_degree() for g in self.generators)
        _check_degree((budget or Budget()).max_degree, t * top)
        got = self._powers.get(t)
        if got is None:
            k = max((s for s in self._powers if s < t), default=1)
            got = self._powers.get(k, self)
            for k in range(k + 1, t + 1):
                got = self._powers[k] = got * self
        return got

    def __add__(self, other: "Ideal") -> "Ideal":
        self._peer(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._peer(other)
        return Ideal(
            self.ring,
            [f * g for f in self.generators for g in other.generators],
        )

    def _peer(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal):
            raise TypeError(f"expected an Ideal, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError(f"ideals live in {self.ring} and {other.ring}")

    # -- intersection and friends ---------------------------------------------

    def intersect(self, other: "Ideal", budget: Budget | None = None) -> "Ideal":
        """I ∩ J via a tag variable u: (u*I + (1-u)*J) ∩ R[X]."""
        self._peer(other)
        if self.is_zero_ideal() or other.is_zero_ideal():
            return Ideal(self.ring, [])
        ring = self.ring
        tag = ring.fresh_aux("t")
        ext = ring.extend_aux(tag)
        u = Polynomial.variable(ext, tag)
        one = Polynomial.one(ext)
        gens = [u * transport(g, ext) for g in self.generators]
        gens += [(one - u) * transport(g, ext) for g in other.generators]
        front_free = Ideal(ext, gens).eliminate((tag,), budget)
        return Ideal(ring, [transport(g, ring) for g in front_free.generators])

    def quotient(self, f: Polynomial, budget: Budget | None = None) -> "Ideal":
        """The colon ideal (I : f) = {g : g*f in I}."""
        if f.ring != self.ring:
            raise RingMismatchError(f"quotient divisor in {f.ring}, expected {self.ring}")
        if f.is_zero():
            return Ideal(self.ring, [Polynomial.one(self.ring)])
        if self.is_zero_ideal():
            return self
        meet = self.intersect(Ideal(self.ring, [f]), budget)
        return Ideal(self.ring, [exact_divide(g, f) for g in meet.generators])

    def saturate(self, f: Polynomial, budget: Budget | None = None) -> "Ideal":
        """(I : f^infinity) = (I + (1 - y*f)) ∩ R[X], one elimination of the
        trick variable y.  The identity holds over any coefficient ring A,
        because A[X][y]/(1 - y*f) is the localization at f, and strong bases
        eliminate over ZZ as Groebner bases do over a field."""
        if f.ring != self.ring:
            raise RingMismatchError(f"saturation divisor in {f.ring}, expected {self.ring}")
        if f.is_zero() or self.is_zero_ideal():
            return self.quotient(f, budget) if f.is_zero() else self
        trick, tag = self._trick(f)
        front_free = trick.eliminate((tag,), budget)
        return Ideal(self.ring, [transport(g, self.ring) for g in front_free.generators])

    def eliminate(self, front: Sequence[str], budget: Budget | None = None) -> "Ideal":
        """I ∩ R', where R' drops the listed variables: generators of the
        elimination ideal, still expressed in the ambient ring."""
        front = tuple(front)
        for v in front:
            self.ring.index(v)
        if not front or self.is_zero_ideal():
            return self
        # A (strong) Groebner basis under an elimination order restricts to
        # a basis of the elimination ideal, over fields and over ZZ alike;
        # without variables left, the constants of any basis generate it.
        order = Grevlex() if set(front) >= set(self.ring.variables) else BlockElim(front)
        gb = self.groebner(order, budget)
        return Ideal(self.ring, [g for g in gb.elements if g.free_of(front)])

    def radical_contains(self, f: Polynomial, budget: Budget | None = None) -> "RadicalMembership":
        """Is some power of f in I?

        Over a field coefficient ring the answer is exact: f is in the
        radical iff 1 lies in I + (1 - y*f).  Over ZZ powers f, f^2, ... are
        tested up to _RADICAL_POWER_CAP; a negative answer is then marked capped.
        """
        if f.ring != self.ring:
            raise RingMismatchError(f"radical candidate in {f.ring}, expected {self.ring}")
        if f.is_zero():
            return RadicalMembership(True, capped=False, power=1)
        if self.is_zero_ideal():
            return RadicalMembership(False, capped=False)
        ring = self.ring
        if ring.is_int_mode:
            fk = f
            for k in range(1, _RADICAL_POWER_CAP + 1):
                if self.contains(fk, budget):
                    return RadicalMembership(True, capped=False, power=k)
                fk = fk * f
            return RadicalMembership(False, capped=True)
        trick, _ = self._trick(f)
        return RadicalMembership(trick.contains(Polynomial.one(trick.ring), budget), capped=False)

    def _trick(self, f: Polynomial) -> tuple["Ideal", str]:
        """I + (1 - y*f) in the ring extended by a fresh auxiliary y; returns y too."""
        tag = self.ring.fresh_aux("y")
        ext = self.ring.extend_aux(tag)
        y = Polynomial.variable(ext, tag)
        gens = [transport(g, ext) for g in self.generators]
        gens.append(Polynomial.one(ext) - y * transport(f, ext))
        return Ideal(ext, gens), tag

    def equals(self, other: "Ideal", budget: Budget | None = None) -> bool:
        self._peer(other)
        return all(other.contains(g, budget) for g in self.generators) and all(
            self.contains(g, budget) for g in other.generators
        )


@dataclass(frozen=True, slots=True)
class RadicalMembership:
    """Answer to a radical membership query.  ``capped`` marks a negative
    that only rules out powers up to the search cap (ZZ mode)."""

    value: bool
    capped: bool
    power: int | None = None

    def __bool__(self) -> bool:
        return self.value


# -- ring maps ----------------------------------------------------------------


@dataclass(frozen=True)
class RingMap:
    """A coefficient-preserving ring map determined by variable images."""

    source: RingSpec
    target: RingSpec
    images: Mapping[str, Polynomial]

    def __post_init__(self):
        if self.source.domain != self.target.domain:
            raise RingMismatchError(
                f"map must preserve coefficients: {self.source.domain.name} "
                f"vs {self.target.domain.name}"
            )
        for v in self.source.variables:
            img = self.images.get(v)
            if img is None:
                raise AlgebraError(f"no image given for source variable {v!r}")
            if img.ring != self.target:
                raise RingMismatchError(f"image of {v} lives in {img.ring}, not {self.target}")

    def apply(self, f: Polynomial) -> Polynomial:
        if f.ring != self.source:
            raise RingMismatchError(f"argument in {f.ring}, expected {self.source}")
        return evaluate_map(f, self.images, self.target)

    def kernel(self, budget: Budget | None = None) -> Ideal:
        """Kernel computed in the joint ring: eliminate the target variables
        from (v - image(v) : v a source variable)."""
        joint = self.source.extend_aux(*self.target.variables)
        gens = [
            Polynomial.variable(joint, v) - transport(self.images[v], joint)
            for v in self.source.variables
        ]
        kept = Ideal(joint, gens).eliminate(self.target.variables, budget)
        return Ideal(self.source, [transport(g, self.source) for g in kept.generators])
