"""Monomial orders: lex, graded reverse lex, and block elimination.

An order is a small frozen value; ``key_function(order, ring)`` compiles it
into a function mapping an exponent tuple to a flat tuple of ints whose
lexicographic comparison realizes the order.  Keys are additive in the
exponents, which gives multiplicativity for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from .errors import AlgebraError

if TYPE_CHECKING:
    from .rings import RingSpec

Exponents = tuple[int, ...]
KeyFunction = Callable[[Exponents], tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class Lex:
    """Lexicographic order.  ``vars`` is the significance permutation,
    most significant first; None means the ring's declaration order."""

    vars: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class Grevlex:
    """Graded reverse lexicographic order over the ring's declaration order."""


@dataclass(frozen=True, slots=True)
class BlockElim:
    """Elimination order: ``front`` variables dominate everything else.

    Any monomial containing a front variable is larger than every monomial
    free of them, so a Groebner basis under this order intersects cleanly
    with the subring in the remaining variables.  Both blocks are ordered by
    grevlex, which is degree-compatible and keeps reduction degrees bounded.
    """

    front: tuple[str, ...]


MonomialOrder = Lex | Grevlex | BlockElim


def _lex_key(indices: list[int]) -> KeyFunction:
    def key(e: Exponents) -> tuple[int, ...]:
        return tuple(e[i] for i in indices)

    return key


def _grevlex_key(indices: list[int]) -> KeyFunction:
    rev = list(reversed(indices))

    def key(e: Exponents) -> tuple[int, ...]:
        return (sum(e[i] for i in indices), *(-e[i] for i in rev))

    return key


def key_function(order: MonomialOrder, ring: "RingSpec") -> KeyFunction:
    """Compile ``order`` against ``ring`` into an exponent-tuple key function."""
    if isinstance(order, Grevlex):
        return _grevlex_key(list(range(len(ring.variables))))
    if isinstance(order, Lex):
        names = order.vars if order.vars is not None else ring.variables
        if sorted(names) != sorted(ring.variables):
            raise AlgebraError(
                f"lex permutation {names} does not match ring variables {ring.variables}"
            )
        return _lex_key([ring.index(v) for v in names])
    if isinstance(order, BlockElim):
        front = list(order.front)
        if len(set(front)) != len(front) or not set(front) <= set(ring.variables):
            raise AlgebraError(f"bad elimination block {order.front} for ring {ring}")
        front_idx = [ring.index(v) for v in front]
        back_idx = [i for i, v in enumerate(ring.variables) if v not in set(front)]
        fk = _grevlex_key(front_idx)
        bk = _grevlex_key(back_idx)

        def key(e: Exponents) -> tuple[int, ...]:
            return fk(e) + bk(e)

        return key
    raise AlgebraError(f"unknown monomial order {order!r}")


def parse_order(text: str) -> MonomialOrder:
    """Parse a CLI order spec: ``lex``, ``grevlex``, ``lex:X,Y``, ``elim:X,Y``."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    names = tuple(v.strip() for v in rest.split(",") if v.strip()) if rest else ()
    if head == "grevlex" and not names:
        return Grevlex()
    if head == "lex":
        return Lex(vars=names or None)
    if head == "elim" and names:
        return BlockElim(front=names)
    raise AlgebraError(f"cannot parse monomial order {text!r}")
