"""The public API: the names ``powerstable`` exports, pinned so that an
addition or removal shows up as a diff of this file; and no module of the
package imports a name it does not use."""

import ast
from pathlib import Path

import powerstable

PUBLIC_NAMES = [
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
    "Grevlex",
    "GroebnerBasis",
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


def test_public_names_are_pinned():
    assert sorted(powerstable.__all__) == PUBLIC_NAMES
    assert all(hasattr(powerstable, name) for name in PUBLIC_NAMES)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never uses as a name, as the base of an
    attribute, or inside a quoted annotation."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _names(tree)
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for ann in filter(None, annotations):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _names(ast.parse(c.value, mode="eval"))
    return [name for name in imported if name not in used]


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_import_check_sees_names_attributes_and_quoted_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re\nfrom typing import Any, Sequence\n"
        "def f(x: 'Sequence[int]'):\n    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["re", "Any"]


def test_modules_import_only_names_they_use():
    # __init__.py imports in order to re-export
    package = Path(powerstable.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text()) == [], path.name
