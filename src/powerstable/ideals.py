"""Ideal arithmetic: powers, sums, products, intersection, quotients,
saturation, elimination, membership, and kernels of ring maps.

Every operation is exact and deterministic.  Constructions that need an
auxiliary variable (intersection by a tag variable, radical membership by
the trick polynomial 1 - y*f) allocate names prefixed with '_' which the
polynomial parser refuses, so user input can never collide with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import AlgebraError, BudgetExceededError, RingMismatchError
from .groebner import (
    Budget,
    GroebnerBasis,
    _check_degree,
    _compiled,
    _engine_poly,
    _product,
    _Start,
    _to_polynomial,
    exact_divide,
    groebner_basis,
    normal_form,
)
from .orders import BlockElim, Grevlex, MonomialOrder
from .polynomials import Polynomial, evaluate_map, format_poly, transport
from .rings import RingSpec


class Ideal:
    """An ideal of R[X] given by a finite generating set.

    Zero generators are discarded and duplicates collapse, so the empty
    list is the zero ideal.  Groebner bases and powers are cached on the
    instance, bases per monomial order.  A power I^t keeps its factors
    I^(t-1) and I instead of its generators.  Its products of t generators
    of I are formed on term lists inside the engine (``_walk``), once per
    compiled order; the generators are converted from them on their first
    read, and its basis under an order starts from the walk's term lists or
    from the bases of the factors (see ``groebner``).  Elimination (and with
    it intersection, saturation, kernels and contractions of powers)
    computes its basis through the same per-order cache, and each of these
    is one route over ZZ, QQ and GF(p) alike.
    """

    __slots__ = ("ring", "_generators", "_factors", "_walks", "_gb", "_powers")

    def __init__(self, ring: RingSpec, generators: Iterable[Polynomial]):
        gens: list[Polynomial] = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError(f"generator in {g.ring}, expected {ring}")
            if g.is_zero() or g in gens:
                continue
            gens.append(g)
        self.ring = ring
        self._generators: tuple[Polynomial, ...] | None = tuple(gens)
        # of a power: (t, I^(t-1) or None for I itself, gens(I), the bases
        # of I, t times the top degree of gens(I))
        self._factors: tuple | None = None
        # of a power: its product walk per compiled order
        self._walks: dict = {}
        self._gb: dict[MonomialOrder, GroebnerBasis] = {}
        self._powers: dict[int, "Ideal"] = {}

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        """The generators; of I^t, every distinct product of t generators of
        I, in the order of ``itertools.combinations_with_replacement``.

        A power's generators are the products of its walk under grevlex,
        compiled for the power's own degree t·top, converted on first read.
        Within the budget that is the walk a grevlex basis starts from.
        """
        if self._generators is None:
            cord = _compiled(Grevlex(), self.ring, self._factors[4])
            products, _, _ = self._walk(cord)
            self._generators = tuple(_to_polynomial(cord, h, s) for h, s in products)
        return self._generators

    def _walk(self, cord) -> tuple[list, list, list]:
        """The distinct products of a power I^t as term lists under ``cord``,
        cached per compiled order: (products, last factors, factors).  A
        product or a factor is a pair (terms, s), terms the engine form of
        the Polynomial times s (see ``_engine_poly``); the factors are the
        generators of I, and a last factor is an index into them.

        I^t extends each product of I^(t-1) by the generators of I from its
        last factor on: a product whose new factor comes earlier equals one
        that came before it, and equal products collapse.  Over QQ two
        products are equal when their terms and scales are, which is exact,
        since the engine form is primitive and, by Gauss's lemma, so is a
        product of engine forms.  Levels are formed bottom-up, from the
        highest lower power walked under ``cord``, so a long chain of powers
        costs no recursion.  Products are exact up to degree twice the bound
        ``cord`` is compiled for.
        """
        chain, power = [], self
        while power is not None and cord not in power._walks:
            chain.append(power)
            power = power._factors[1]
        for power in reversed(chain):
            _, prev, base, _, _ = power._factors
            if prev is None:
                factors = [_engine_poly(g, cord) for g in base]
                lefts, lasts = factors, range(len(factors))
            else:
                lefts, lasts, factors = prev._walks[cord]
            out: dict = {}
            for (f, s), i in zip(lefts, lasts):
                for j in range(i, len(factors)):
                    g, r = factors[j]
                    h = _product(f, g, cord)
                    scale = s * r if cord.qq else 1
                    out.setdefault((tuple(h), scale), (h, scale, j))
            products = [(h, scale) for h, scale, _ in out.values()]
            power._walks[cord] = (products, [j for _, _, j in out.values()], factors)
        return self._walks[cord]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_texts(cls, ring: RingSpec, texts: Sequence[str]) -> "Ideal":
        from .polynomials import parse_poly

        return cls(ring, [parse_poly(t, ring) for t in texts])

    def __repr__(self) -> str:
        inner = ", ".join(format_poly(g) for g in self.generators) or "0"
        return f"Ideal({self.ring}; {inner})"

    def is_zero_ideal(self) -> bool:
        # only a non-zero ideal has powers of its own, and R[X] is a domain
        return self._factors is None and not self._generators

    # -- Groebner machinery --------------------------------------------------

    def groebner(
        self, order: MonomialOrder | None = None, budget: Budget | None = None
    ) -> GroebnerBasis:
        """The reduced (over ZZ strong) basis under ``order``, cached per order.

        A power I^t whose factors have bases cached under ``order``, G_(t-1)
        of I^(t-1) and G_1 of I, starts Buchberger from their distinct
        products G_(t-1)·G_1 (``_seed``): over ZZ always, over a field when
        there are fewer of them than the C(n+t-1, t) products of the n
        generators of I.  Every other ideal starts from its generators, a
        power from the term lists of its walk (``_start``).  A start from the
        products that runs over the budget starts again from the generators:
        the products form other pairs than the generators do, and factor
        bases that a larger budget computed may hold terms above this one,
        while a budget that fits the generators' route still answers.
        Reduced bases are unique, so both starts give the same basis.
        """
        order = order or Grevlex()
        got = self._gb.get(order)
        if got is None:
            budget = budget or Budget()
            seed = self._seed(order, budget)
            try:
                got = groebner_basis(seed or self._start(order, budget), order, budget)
            except BudgetExceededError:
                if seed is None:
                    raise
                got = groebner_basis(self._start(order, budget), order, budget)
            self._gb[order] = got
        return got

    def _start(self, order: MonomialOrder, budget: Budget) -> _Start | tuple[Polynomial, ...]:
        """The generators, as ``groebner`` starts from them.  Of a power
        they are the walk's term lists under ``order`` compiled for the
        budget or, when the power's degree t·top is above the budget, for
        t·top; ``groebner_basis`` then rejects the start with the error of
        any generating set over the budget."""
        if self._factors is None:
            return self.generators
        cord = _compiled(order, self.ring, max(budget.max_degree, self._factors[4]))
        return _Start(cord, [h for h, _ in self._walk(cord)[0]])

    def _seed(self, order: MonomialOrder, budget: Budget) -> _Start | None:
        """The distinct products G_(t-1)·G_1 that ``groebner`` starts a power
        from, or None where it starts from the generators.

        Over ZZ the products save pairs, because a strong basis already
        carries the gcds of its leading coefficients.  Over a field they
        saved pairs on monic ideals and cost pairs on toric primes, which
        have few generators and large bases; the size rule tells them apart.
        The factors are the final reducers of G_(t-1) and G_1, multiplied
        when both share one compiled order whose bound covers the budget.
        """
        if self._factors is None:
            return None
        t, prev, base, base_gb, _ = self._factors
        left = (base_gb if prev is None else prev._gb).get(order)
        right = base_gb.get(order)
        if left is None or right is None:
            return None
        lefts, rights = left._final.polys, right._final.polys
        cord = left._final.cord
        if right._final.cord is not cord or cord.bound < budget.max_degree:
            return None
        if not cord.zz and len(lefts) * len(rights) >= math.comb(len(base) + t - 1, t):
            return None
        products = dict.fromkeys(tuple(_product(f, g, cord)) for f in lefts for g in rights)
        return _Start(cord, list(products))

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        """Whether f lies in the ideal: the normal form of f by the grevlex
        basis is zero.

        One of the generators, within the degree budget, is a member at
        once, with no basis and no normal form; reading the generators forms
        those of a lazy power.  A generator above ``budget.max_degree`` takes
        the basis route, and so raises as any candidate over the cap does.
        """
        if f.ring != self.ring:
            raise RingMismatchError(f"membership candidate in {f.ring}, expected {self.ring}")
        if f.is_zero():
            return True
        if self.is_zero_ideal():
            return False
        if f in self.generators and f.total_degree() <= (budget or Budget()).max_degree:
            return True
        gb = self.groebner(budget=budget)
        return normal_form(f, gb, budget=budget).is_zero()

    # -- arithmetic -----------------------------------------------------------

    def power(self, t: int, budget: Budget | None = None) -> "Ideal":
        """I^t, generated by all products of t generators (with repetition).

        Every I^k up to t is cached, each built on I^(k-1) and I and formed
        lazily: the generators on first read, the basis per order from the
        bases of the two factors where ``groebner`` can.  Over domains I^t
        has a generator of degree t times the top one, which any basis of
        I^t rejects over the degree budget, so such a power raises before it
        is formed.
        """
        if t < 1:
            raise AlgebraError(f"ideal powers need t >= 1, got {t}")
        if t == 1 or self.is_zero_ideal():
            return self
        top = max(g.total_degree() for g in self.generators)
        _check_degree((budget or Budget()).max_degree, t * top)
        for k in range(2, t + 1):
            if k not in self._powers:
                power = Ideal(self.ring, ())
                power._generators = None
                # the factors name I by its parts, so that I^k and I form no cycle
                power._factors = (k, self._powers.get(k - 1), self.generators, self._gb, k * top)
                self._powers[k] = power
        return self._powers[t]

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
        return Ideal(ext, gens)._restrict((tag,), ring, budget)

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
        if f.is_zero():
            return self.quotient(f, budget)
        if self.is_zero_ideal():
            return self
        trick, tag = self._trick(f)
        return trick._restrict((tag,), self.ring, budget)

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
        return Ideal(self.ring, gb._free_heads(front))

    def _restrict(self, aux: Sequence[str], ring: RingSpec, budget: Budget | None) -> "Ideal":
        """Eliminate the auxiliary variables ``aux``, and transport what is
        left into ``ring``, the ring without them."""
        kept = self.eliminate(aux, budget)
        return Ideal(ring, [transport(g, ring) for g in kept.generators])

    def radical_contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        """Is some power of f in I?  Exactly when 1 lies in I + (1 - y*f):
        that ideal is the unit ideal iff f is nilpotent modulo I, over any
        coefficient ring, by the localization identity ``saturate`` uses."""
        if f.ring != self.ring:
            raise RingMismatchError(f"radical candidate in {f.ring}, expected {self.ring}")
        if f.is_zero():
            return True
        if self.is_zero_ideal():
            return False
        trick, _ = self._trick(f)
        return trick.contains(Polynomial.one(trick.ring), budget)

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
        for v in self.images:
            if v not in self.source.variables:
                raise AlgebraError(f"image given for {v!r}, which is not a source variable")
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
        from (v - image(v) : v a source variable).  In the joint ring the
        target variables get fresh auxiliary names, so source and target may
        share names."""
        joint = self.source
        for _ in self.target.variables:
            joint = joint.extend_aux(joint.fresh_aux("k"))
        aux = joint.variables[len(self.source.variables) :]
        renamed = {v: Polynomial.variable(joint, a) for v, a in zip(self.target.variables, aux)}
        gens = [
            Polynomial.variable(joint, v) - evaluate_map(self.images[v], renamed, joint)
            for v in self.source.variables
        ]
        return Ideal(joint, gens)._restrict(aux, self.source, budget)
