"""Ring descriptors.

A ``RingSpec`` names the coefficient domain, the ordered variable tuple, and
the split between base variables (spanning the coefficient ring R) and the
distinguished main variable X of R[X].  Over ZZ the base is empty and R = ZZ.
Auxiliary variables (tag and Rabinowitsch variables, the homogenizing
variable of a colon by a variable, or the target variables of a ring map
during kernel computation) are tracked so that results can be restricted
back to the ring the caller started from.

Text notation, also used by the CLI:

    ZZ[X]         integers, main variable X
    QQ[Y,Z,W]     rationals, base ring QQ[Y,Z,W] itself (no main variable)
    QQ[Y][X]      R = QQ[Y], ambient R[X]
    Fp(7)[Y][X]   R = GF(7)[Y], ambient R[X]
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coefficients import CoefficientDomain, IntegerDomain, PrimeField, QQ, ZZ
from .errors import AlgebraError, ParseError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_RING_RE = re.compile(r"\s*(ZZ|QQ|Fp\(\s*(\d+)\s*\))\s*((?:\[[^\[\]]*\]\s*)+)\Z")


@dataclass(frozen=True)
class RingSpec:
    domain: CoefficientDomain
    variables: tuple[str, ...]
    base_vars: tuple[str, ...]
    main_var: str | None
    aux_vars: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.variables
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate variable names in {names}")
        aux = set(self.aux_vars)
        for v in names:
            if v in aux:
                continue
            if not _NAME_RE.match(v):
                raise AlgebraError(f"bad variable name {v!r}")
        declared = set(self.base_vars) | aux
        if self.main_var is not None:
            if self.main_var in self.base_vars:
                raise AlgebraError(f"main variable {self.main_var} is also a base variable")
            declared.add(self.main_var)
        if declared != set(names):
            raise AlgebraError(
                f"variables {names} do not match base {self.base_vars} "
                f"+ main {self.main_var} + aux {self.aux_vars}"
            )
        if isinstance(self.domain, IntegerDomain):
            if self.base_vars:
                raise AlgebraError("over ZZ the coefficient ring is ZZ itself: no base variables")
            if self.main_var is None:
                raise AlgebraError("a ZZ ring needs a main variable")

    # -- structure helpers ------------------------------------------------

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise AlgebraError(f"unknown variable {var!r} in ring {self}") from None

    @property
    def is_int_mode(self) -> bool:
        return isinstance(self.domain, IntegerDomain)

    def require_main(self) -> str:
        if self.main_var is None:
            raise AlgebraError(f"ring {self} has no distinguished main variable")
        return self.main_var

    def extend_aux(self, *names: str) -> "RingSpec":
        for n in names:
            if n in self.variables:
                raise AlgebraError(f"auxiliary name {n} already in use")
        return RingSpec(
            self.domain,
            self.variables + tuple(names),
            self.base_vars,
            self.main_var,
            self.aux_vars + tuple(names),
        )

    def fresh_aux(self, prefix: str) -> str:
        k = 0
        while f"_{prefix}{k}" in self.variables:
            k += 1
        return f"_{prefix}{k}"

    def base_ring(self) -> "RingSpec":
        """The coefficient ring R = K[base_vars] as a RingSpec (field mode only)."""
        if self.is_int_mode:
            raise AlgebraError("over ZZ the coefficient ring is not a polynomial ring")
        return RingSpec(self.domain, self.base_vars, self.base_vars, None)

    # -- text forms --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_int_mode:
            head = "ZZ"
        elif isinstance(self.domain, PrimeField):
            head = f"Fp({self.domain.p})"
        else:
            head = "QQ"
        if self.main_var is None:
            return f"{head}[{','.join(self.base_vars)}]"
        if self.base_vars:
            return f"{head}[{','.join(self.base_vars)}][{self.main_var}]"
        return f"{head}[{self.main_var}]"

    def to_json(self) -> dict:
        return {
            "coefficients": self.domain.to_json(),
            "base_vars": list(self.base_vars),
            "main_var": self.main_var,
        }

    @staticmethod
    def parse(text: str) -> "RingSpec":
        m = _RING_RE.match(text)
        if not m:
            raise ParseError(f"cannot parse ring notation {text!r}")
        head, p_str, groups_str = m.group(1), m.group(2), m.group(3)
        if head == "ZZ":
            domain: CoefficientDomain = ZZ
        elif head == "QQ":
            domain = QQ
        else:
            domain = PrimeField(int(p_str))
        groups = re.findall(r"\[([^\[\]]*)\]", groups_str)
        parsed = []
        for g in groups:
            names = tuple(v.strip() for v in g.split(",") if v.strip())
            parsed.append(names)
        if any(not n for n in parsed) or not parsed:
            raise ParseError(f"empty variable group in ring notation {text!r}")
        for names in parsed:
            for v in names:
                if not _NAME_RE.match(v):
                    raise ParseError(f"bad variable name {v!r} in ring notation")
        if len(parsed) == 1:
            names = parsed[0]
            if isinstance(domain, IntegerDomain):
                if len(names) != 1:
                    raise ParseError("ZZ rings take exactly one variable, e.g. ZZ[X]")
                return RingSpec(domain, names, (), names[0])
            return RingSpec(domain, names, names, None)
        if len(parsed) == 2:
            base, main = parsed
            if len(main) != 1:
                raise ParseError("the second variable group must hold a single main variable")
            if isinstance(domain, IntegerDomain):
                raise ParseError("ZZ rings do not take base variables")
            return RingSpec(domain, base + main, base, main[0])
        raise ParseError(f"too many variable groups in ring notation {text!r}")
