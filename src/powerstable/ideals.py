"""Ideal arithmetic: powers, sums, products, intersection, quotients,
saturation, elimination, membership, and kernels of ring maps.

Every operation is exact and deterministic.  Constructions that need an
auxiliary variable (intersection by a tag variable, radical membership by
the trick polynomial 1 - y*f, the homogenizing variable of a colon by a
variable) allocate names prefixed with '_' which the polynomial parser
refuses, so user input can never collide with them.  A colon ideal I : f
starts from the intersection by a tag variable divided by f, except over a
field: there a colon by a constant c is I, and one by c*w starts from a
homogenized grevlex basis divided by w (see ``Ideal.quotient``).  The
kernel of a monomial map over a field is one saturation of the binomials of
a reduced lattice basis (see ``RingMap.kernel``).  Intersections, quotients,
saturations, eliminations and kernels answer with the reduced grevlex basis
of their ideal, strong over ZZ.  A public method called without a budget
builds one ``Budget`` and passes it to every computation it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import AlgebraError, RingMismatchError
from .groebner import (
    Budget,
    GroebnerBasis,
    _check_degree,
    _factor_start,
    exact_divide,
    groebner_basis,
    normal_form,
)
from .lattice import kernel_basis, lll
from .orders import BlockElim, Grevlex, MonomialOrder
from .polynomials import Polynomial, evaluate_map, format_poly, parse_poly, transport
from .rings import RingSpec


class Ideal:
    """An ideal of R[X] given by a finite generating set.

    Zero generators are discarded and duplicates collapse, so the empty list
    is the zero ideal, which takes every operation's general route; its
    reduced basis is empty.  Groebner bases and powers are cached on the
    instance, bases per monomial order.  A power I^t keeps its factors
    I^(t-1) and I instead of its generators, and forms its products of t
    generators of I as Polynomials on their first read.  Its basis under an
    order starts from the products of the bases of the factors where they
    fit the degree budget, else from its generators (see ``groebner``).
    Elimination (and with it intersection, saturation, kernels and
    contractions of powers) computes its basis through the same per-order
    cache, and each of these is one route over ZZ, QQ and GF(p) alike.
    """

    __slots__ = ("ring", "_generators", "_factors", "_lasts", "_gb", "_powers")

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
        # of a power: (I^(t-1) or None for I itself, gens(I), the bases of I)
        self._factors: tuple | None = None
        # of a formed power: per generator, the index in gens(I) of its last factor
        self._lasts: list[int] | None = None
        self._gb: dict[MonomialOrder, GroebnerBasis] = {}
        self._powers: dict[int, "Ideal"] = {}

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        """The generators; of I^t, every distinct product of t generators of
        I, in the order of ``itertools.combinations_with_replacement``.

        A power's generators are formed on first read, level by level from
        the highest lower power already formed, so a long chain of powers
        costs no recursion.  I^t extends each generator of I^(t-1) by the
        generators of I from its last factor on: a product whose new factor
        comes earlier equals one that came before it, and equal products
        collapse, the first one kept.
        """
        if self._generators is None:
            chain, power = [], self
            while power is not None and power._generators is None:
                chain.append(power)
                power = power._factors[0]
            for power in reversed(chain):
                prev, base, _ = power._factors
                if prev is None:
                    lefts, lasts = base, range(len(base))
                else:
                    lefts, lasts = prev._generators, prev._lasts
                out: dict[Polynomial, int] = {}
                for f, i in zip(lefts, lasts):
                    for j in range(i, len(base)):
                        out.setdefault(f * base[j], j)
                power._generators, power._lasts = tuple(out), list(out.values())
        return self._generators

    # -- construction ------------------------------------------------------

    @classmethod
    def from_texts(cls, ring: RingSpec, texts: Sequence[str]) -> "Ideal":
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
        of I^(t-1) and G_1 of I, that serve the budget (``_seed``) starts
        Buchberger from their products G_(t-1)·G_1, over ZZ and over fields
        alike; a pair of two products that share a factor is settled before
        it is formed.  Every other ideal starts from its generators, the
        zero ideal from the zero polynomial.  Reduced bases are unique, so
        both starts give the same basis.
        """
        order = order or Grevlex()
        got = self._gb.get(order)
        if got is None:
            budget = budget or Budget()
            start = self._seed(order, budget) or self.generators or (Polynomial.zero(self.ring),)
            got = self._gb[order] = groebner_basis(start, order, budget)
        return got

    def _seed(self, order: MonomialOrder, budget: Budget):
        """The start that ``groebner`` begins a power from: the products
        G_(t-1)·G_1 of the bases of its factors I^(t-1) and I under
        ``order`` (``groebner._factor_start``); or None where it starts from
        the generators: a factor basis is not cached under ``order``, the
        two are not served under one compiled order, or the products do not
        fit ``budget.max_degree``.  Of I^2 both factors are G_1.
        """
        if self._factors is None:
            return None
        prev, _, base_gb = self._factors
        left = (base_gb if prev is None else prev._gb).get(order)
        right = base_gb.get(order)
        if left is None or right is None:
            return None
        return _factor_start(left, right, budget)

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
        budget = budget or Budget()
        if f.is_zero():
            return True
        if f in self.generators and f.total_degree() <= budget.max_degree:
            return True
        gb = self.groebner(budget=budget)
        return normal_form(f, gb, budget=budget).is_zero()

    # -- arithmetic -----------------------------------------------------------

    def power(self, t: int, budget: Budget | None = None) -> "Ideal":
        """I^t, generated by all products of t generators (with repetition).

        Every I^k up to t is cached, each built on I^(k-1) and I and formed
        lazily: the generators on first read, from those of I^(k-1), the
        basis per order from the products of the bases of the two factors
        where ``groebner`` can.  Over domains I^t has a generator of degree
        t times the top one, which any basis of I^t rejects over the degree
        budget, so such a power raises before it is formed.
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
                power._factors = (self._powers.get(k - 1), self.generators, self._gb)
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
        budget = budget or Budget()
        ring = self.ring
        tag = ring.fresh_aux("t")
        ext = ring.extend_aux(tag)
        u = Polynomial.variable(ext, tag)
        one = Polynomial.one(ext)
        gens = [u * transport(g, ext) for g in self.generators]
        gens += [(one - u) * transport(g, ext) for g in other.generators]
        return Ideal(ext, gens)._restrict((tag,), ring, budget)

    def quotient(self, f: Polynomial, budget: Budget | None = None) -> "Ideal":
        """The colon ideal (I : f) = {g : g*f in I}, given by its reduced
        grevlex basis, strong over ZZ, so the unit of f does not show.

        Over ZZ, and by any f that is not a constant or a constant times one
        variable, the basis starts from (I ∩ (f)) / f, the intersection by a
        tag variable.  Over a field I : c = I, and by f = c*w the basis
        starts from the homogenized grevlex basis divided by w
        (``_colon_by_variable``), with no tag variable.
        """
        if f.ring != self.ring:
            raise RingMismatchError(f"quotient divisor in {f.ring}, expected {self.ring}")
        budget = budget or Budget()
        if f.is_zero():
            return Ideal(self.ring, [Polynomial.one(self.ring)])
        (e, _), *more = f.terms()
        field_term = not self.ring.is_int_mode and not more
        if field_term and sum(e) == 0:
            return Ideal(self.ring, self.groebner(budget=budget).elements)
        if field_term and sum(e) == 1:
            gens = self._colon_by_variable(self.ring.variables[e.index(1)], budget)
        else:
            meet = self.intersect(Ideal(self.ring, [f]), budget)
            gens = [exact_divide(g, f) for g in meet.generators]
        return Ideal(self.ring, Ideal(self.ring, gens).groebner(budget=budget).elements)

    def _colon_by_variable(self, w: str, budget: Budget) -> list[Polynomial]:
        """Generators of I : w over a field, from the reduced grevlex basis G
        of I.

        The homogenizations of G by a fresh h generate I^h, because G is a
        basis under a degree order.  In a ring whose variables are R's with
        h and then w last, the reduced grevlex basis of the homogeneous I^h,
        each element that w divides divided by w, is a basis of I^h : w
        (Bayer and Stillman 1987; Eisenbud, Commutative Algebra, Prop.
        15.12), since an element is homogeneous and so w divides it exactly
        when w divides its leading term.  Setting h = 1 maps I^h : w onto
        I : w, and the homogeneous elements lose no term to each other.
        Besides G, cached on the ideal, one Groebner computation runs under
        ``budget``: the basis of I^h.  Homogenizing keeps each degree, and
        dividing by w and setting h = 1 only lower them.
        """
        ring = self.ring
        gb = self.groebner(budget=budget)
        h = ring.fresh_aux("h")
        names = tuple(v for v in ring.variables if v != w) + (h, w)
        aux = ring.aux_vars + (h,)
        hom = RingSpec(ring.domain, names, tuple(v for v in names if v not in aux), None, aux)
        # where each of hom's variables but h sits in R, and each of R's in hom
        pos = [ring.index(v) for v in names[:-2]]
        iw = ring.index(w)
        back = [names.index(v) for v in ring.variables]
        homs = []
        for g in gb.elements:
            d = g.total_degree()
            terms = {(*(e[i] for i in pos), d - sum(e), e[iw]): x for e, x in g.terms()}
            homs.append(Polynomial._make(hom, terms))
        colon = []
        for g in Ideal(hom, homs).groebner(budget=budget).elements:
            shift = int(all(e[-1] for e, _ in g.terms()))
            terms = {tuple((*e[:-1], e[-1] - shift)[j] for j in back): x for e, x in g.terms()}
            colon.append(Polynomial._make(ring, terms))
        return colon

    def saturate(self, f: Polynomial, budget: Budget | None = None) -> "Ideal":
        """(I : f^infinity) = (I + (1 - y*f)) ∩ R[X], one elimination of the
        trick variable y.  The identity holds over any coefficient ring A,
        because A[X][y]/(1 - y*f) is the localization at f, and strong bases
        eliminate over ZZ as Groebner bases do over a field."""
        if f.ring != self.ring:
            raise RingMismatchError(f"saturation divisor in {f.ring}, expected {self.ring}")
        budget = budget or Budget()
        if f.is_zero():
            return self.quotient(f, budget)
        trick, tag = self._trick(f)
        return trick._restrict((tag,), self.ring, budget)

    def eliminate(self, front: Sequence[str], budget: Budget | None = None) -> "Ideal":
        """I ∩ R', where R' drops the listed variables: generators of the
        elimination ideal, still expressed in the ambient ring."""
        budget = budget or Budget()
        front = tuple(front)
        for v in front:
            self.ring.index(v)
        if len(set(front)) < len(front):
            raise AlgebraError(f"bad elimination block {front} for ring {self.ring}")
        # A (strong) Groebner basis under an elimination order restricts to
        # a basis of the elimination ideal, over fields and over ZZ alike;
        # without variables left, the constants of any basis generate it,
        # and with none eliminated, every element of the grevlex basis.
        order = BlockElim(front) if 0 < len(front) < len(self.ring.variables) else Grevlex()
        gb = self.groebner(order, budget)
        return Ideal(self.ring, gb._free_heads(front))

    def _restrict(self, aux: Sequence[str], ring: RingSpec, budget: Budget) -> "Ideal":
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
        budget = budget or Budget()
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
        budget = budget or Budget()
        return all(other.contains(g, budget) for g in self.generators) and all(
            self.contains(g, budget) for g in other.generators
        )


# -- ring maps ----------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class RingMap:
    """A coefficient-preserving ring map determined by variable images.
    The images are copied into a read-only mapping, so neither the caller's
    mapping nor the map's own ``images`` can change it afterwards."""

    source: RingSpec
    target: RingSpec
    images: Mapping[str, Polynomial]

    def __post_init__(self):
        object.__setattr__(self, "images", MappingProxyType(dict(self.images)))
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

    def __hash__(self) -> int:
        # equality compares the images as dicts, which ignore their order
        return hash((self.source, self.target, frozenset(self.images.items())))

    def __repr__(self) -> str:
        return f"RingMap(source={self.source!r}, target={self.target!r}, images={dict(self.images)!r})"

    def __reduce__(self):
        # a read-only mapping can be neither pickled nor deep-copied
        return RingMap, (self.source, self.target, dict(self.images))

    def apply(self, f: Polynomial) -> Polynomial:
        if f.ring != self.source:
            raise RingMismatchError(f"argument in {f.ring}, expected {self.source}")
        return evaluate_map(f, self.images, self.target)

    def kernel(self, budget: Budget | None = None) -> Ideal:
        """The kernel, given by its reduced grevlex basis.

        A monomial map over a field, every image one nonzero term c_v*T^a_v
        (a constant image counts), takes the lattice route.  Its kernel is
        the lattice ideal of L = ker_ZZ(A), A the integer matrix with the
        columns a_v, twisted by the c_v: for any basis B of L it is I_B :
        (x_1*...*x_n)^infinity, I_B generated by one binomial per u in B
        (Sturmfels, "Groebner Bases and Convex Polytopes", 1996, Lemma 12.2;
        the twist is the automorphism x_v -> c_v*x_v).  B is the LLL
        reduction of a basis by column operations (see ``lattice``), whose
        short vectors give binomials of low degree, and one ``saturate`` by
        the product of the source variables answers.  Every other map, over
        ZZ or with an image 0 or of two or more terms, eliminates the target
        variables from (v - image(v) : v a source variable) in the joint
        ring, where they get fresh auxiliary names, so source and target may
        share names.  Either route answers with the free heads of a
        ``BlockElim`` basis whose back block is grevlex on the source
        variables, so both give the same basis, and both run under
        ``budget``.
        """
        budget = budget or Budget()
        source = self.source
        images = [self.images[v] for v in source.variables]
        if source.is_int_mode or any(len(img.terms()) != 1 for img in images):
            joint = source
            for _ in self.target.variables:
                joint = joint.extend_aux(joint.fresh_aux("k"))
            aux = joint.variables[len(source.variables) :]
            renamed = {v: Polynomial.variable(joint, a) for v, a in zip(self.target.variables, aux)}
            gens = [
                Polynomial.variable(joint, v) - evaluate_map(img, renamed, joint)
                for v, img in zip(source.variables, images)
            ]
            return Ideal(joint, gens)._restrict(aux, source, budget)
        terms = [next(iter(img.terms())) for img in images]
        rows = [[e[i] for e, _ in terms] for i in range(len(self.target.variables))]
        binomials = [_binomial(source, terms, u, budget) for u in lll(kernel_basis(rows, len(terms)))]
        if not binomials:
            return Ideal(source, ())
        product = Polynomial._make(source, {(1,) * len(terms): source.domain.one})
        return Ideal(source, binomials).saturate(product, budget)


def _binomial(ring: RingSpec, terms: list, u: list[int], budget: Budget) -> Polynomial:
    """c^(u-)*x^(u+) - c^(u+)*x^(u-), for the images c_v*T^a_v given as
    ``terms`` and a vector u of ker_ZZ(A): c^(u-) times the binomial
    x^(u+) - kappa*x^(u-), kappa = c^(u+)/c^(u-), with the same image
    c^(u+)*c^(u-)*T^(A u+) of both terms, so it maps to zero.  A binomial
    above ``budget.max_degree`` raises before it is formed."""
    plus = tuple(max(k, 0) for k in u)
    minus = tuple(max(-k, 0) for k in u)
    _check_degree(budget.max_degree, max(sum(plus), sum(minus)))
    one = ring.domain.one
    cp = math.prod((c for (_, c), k in zip(terms, plus) for _ in range(k)), start=one)
    cm = math.prod((c for (_, c), k in zip(terms, minus) for _ in range(k)), start=one)
    return Polynomial._make(ring, {plus: cm, minus: -cp})
