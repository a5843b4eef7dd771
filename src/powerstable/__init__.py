"""Exact ideal arithmetic in R[X] and power-stability checking.

R is ZZ or a polynomial ring over QQ / GF(p).  The library computes reduced
Groebner bases (strong over ZZ), the full ideal calculus (powers,
intersections, quotients, saturation, elimination, kernels), and decides
power stability I^t ∩ R = (I ∩ R)^t up to a bound with witnesses, plus
certificates that upgrade bounded verdicts to all-t claims.
"""

from .coefficients import GF, QQ, ZZ, FpElement, ext_gcd, is_prime_u64
from .errors import (
    AlgebraError,
    BudgetExceededError,
    CoefficientError,
    CorpusError,
    NonExactDivisionError,
    ParseError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .groebner import (
    Budget,
    GroebnerBasis,
    divide,
    exact_divide,
    groebner_basis,
    is_groebner,
    normal_form,
    s_polynomial,
    g_polynomial,
)
from .ideals import Ideal, RingMap
from .orders import BlockElim, Grevlex, Lex, parse_order
from .polynomials import (
    Polynomial,
    evaluate_map,
    format_poly,
    parse_poly,
    transport,
)
from .rings import RingSpec
from .stability import (
    BaseIdeal,
    GradedCriterionReport,
    GradedRecord,
    MonicCertificate,
    ObstructionCertificate,
    RegularImageCertificate,
    StabilityRecord,
    StabilityReport,
    Verdict,
    certify_stable,
    check_power_stable,
    contract_power,
    graded_criterion,
    monic_certificate,
    primary_obstruction,
    regular_image_certificate,
)
from .corpus import (
    corpus,
    comaximal_pair,
    example_3_12,
    extension_JX,
    gadget_3_14,
    hochster_P,
    hochster_toric_map,
    principal,
    radical_zx,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "BaseIdeal",
    "BlockElim",
    "Budget",
    "BudgetExceededError",
    "CoefficientError",
    "CorpusError",
    "FpElement",
    "GF",
    "GradedCriterionReport",
    "GradedRecord",
    "GroebnerBasis",
    "Grevlex",
    "Ideal",
    "Lex",
    "MonicCertificate",
    "NonExactDivisionError",
    "ObstructionCertificate",
    "ParseError",
    "Polynomial",
    "QQ",
    "RegularImageCertificate",
    "RingMap",
    "RingMismatchError",
    "RingSpec",
    "StabilityRecord",
    "StabilityReport",
    "Verdict",
    "ZZ",
    "ZeroPolynomialError",
    "certify_stable",
    "check_power_stable",
    "comaximal_pair",
    "contract_power",
    "corpus",
    "divide",
    "evaluate_map",
    "exact_divide",
    "example_3_12",
    "ext_gcd",
    "extension_JX",
    "format_poly",
    "g_polynomial",
    "gadget_3_14",
    "graded_criterion",
    "groebner_basis",
    "hochster_P",
    "hochster_toric_map",
    "is_groebner",
    "is_prime_u64",
    "monic_certificate",
    "normal_form",
    "parse_order",
    "parse_poly",
    "primary_obstruction",
    "principal",
    "radical_zx",
    "regular_image_certificate",
    "s_polynomial",
    "transport",
]
