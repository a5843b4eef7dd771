"""The public API: the names ``powerstable`` exports, pinned so that an
addition or removal shows up as a diff of this file; the value semantics of
the exported classes; and no module of the package imports a name it does
not use."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import powerstable
from powerstable import (
    GF,
    QQ,
    ZZ,
    BaseIdeal,
    BlockElim,
    Budget,
    FpElement,
    GradedCriterionReport,
    GradedRecord,
    Grevlex,
    GroebnerBasis,
    Ideal,
    Lex,
    MonicCertificate,
    ObstructionCertificate,
    RegularImageCertificate,
    RingMap,
    RingSpec,
    StabilityRecord,
    StabilityReport,
    Verdict,
    groebner_basis,
    parse_poly,
)

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


# -- value semantics -------------------------------------------------------------------

ZX = RingSpec.parse("ZZ[X]")
QYX = RingSpec.parse("QQ[Y][X]")
QYZ = RingSpec.parse("QQ[Y,Z]")
QT = RingSpec.parse("QQ[T]")
F = parse_poly("X^2 + X + 1", ZX)
FOUR = parse_poly("4", ZX)
# shared parts: an Ideal compares by identity, so the records that hold one
# are built twice around the same instance
I = Ideal(ZX, [FOUR, F])
J = Ideal(QYX.base_ring(), [parse_poly("Y^2", QYX.base_ring())])
P = Ideal(QYZ, [parse_poly("Y^3 - Z^2", QYZ)])
B4 = BaseIdeal(ZX, integer=4)
IMAGES = {"Y": parse_poly("T^2", QT), "Z": parse_poly("T^3", QT)}

_ZX = "RingSpec(domain=IntegerDomain(), variables=('X',), base_vars=(), main_var='X', aux_vars=())"
_B4 = f"BaseIdeal(ring={_ZX}, integer=4, ideal=None)"
_STABILITY_RECORD = f"StabilityRecord(t=1, contraction={_B4}, expected={_B4}, equal=True)"
_GRADED_RECORD = f"GradedRecord(n=0, meet={_B4}, target={_B4}, holds=True)"
_I = "Ideal(ZZ[X]; 4, X^2 + X + 1)"
_GB = (
    f"GroebnerBasis(ring={_ZX}, order=Grevlex(), "
    "elements=(<4 over ZZ[X]>, <X^2 + X + 1 over ZZ[X]>), reduced=True, strong=True)"
)

# (name, build, repr, two builds equal, hash: "equal" when two builds hash
# alike, "own" when each hashes as itself, None when unhashable, setting an
# attribute raises); build makes a fresh instance from the shared parts
_VALUES = [
    ("Verdict", lambda: Verdict("UNSTABLE_AT", 2), "Verdict(kind='UNSTABLE_AT', t=2)", True, "equal", True),
    ("StabilityRecord", lambda: StabilityRecord(1, B4, B4, True), _STABILITY_RECORD, True, "equal", True),
    (
        "StabilityReport",
        lambda: StabilityReport(I, 1, Verdict("STABLE_UP_TO", 1), (StabilityRecord(1, B4, B4, True),), None),
        f"StabilityReport(ideal={_I}, bound=1, verdict=Verdict(kind='STABLE_UP_TO', t=1), "
        f"records=({_STABILITY_RECORD},), witness=None)",
        True, "equal", True,
    ),
    ("GradedRecord", lambda: GradedRecord(0, B4, B4, True), _GRADED_RECORD, True, "equal", True),
    (
        "GradedCriterionReport",
        lambda: GradedCriterionReport(I, 0, (GradedRecord(0, B4, B4, True),), True, None, None),
        f"GradedCriterionReport(ideal={_I}, bound=0, records=({_GRADED_RECORD},), holds=True, "
        "failure_n=None, witness=None)",
        True, "equal", True,
    ),
    (
        "MonicCertificate",
        lambda: MonicCertificate(I, F, (FOUR,)),
        f"MonicCertificate(ideal={_I}, monic=<X^2 + X + 1 over ZZ[X]>, base_gens=(<4 over ZZ[X]>,))",
        True, "equal", True,
    ),
    (
        "RegularImageCertificate",
        lambda: RegularImageCertificate(I, 4, F),
        f"RegularImageCertificate(ideal={_I}, modulus=4, image=<X^2 + X + 1 over ZZ[X]>)",
        True, "equal", True,
    ),
    (
        "ObstructionCertificate",
        lambda: ObstructionCertificate(P, 2, parse_poly("Y", QYZ), parse_poly("Z", QYZ)),
        "ObstructionCertificate(ideal=Ideal(QQ[Y,Z]; Y^3 - Z^2), t=2, witness=<Y over QQ[Y,Z]>, "
        "cofactor=<Z over QQ[Y,Z]>)",
        True, "equal", True,
    ),
    (
        "GroebnerBasis",
        lambda: GroebnerBasis(ZX, Grevlex(), (FOUR, F), reduced=True, strong=True),
        _GB, True, "equal", True,
    ),
    # a computed basis converts its elements on their first read
    ("GroebnerBasis", lambda: groebner_basis([F, FOUR]), _GB, True, "equal", True),
    ("Budget", lambda: Budget(5, 7), "Budget(max_pairs=5, max_degree=7)", True, "equal", True),
    (
        "RingSpec",
        lambda: RingSpec.parse("QQ[Y][X]"),
        "RingSpec(domain=RationalDomain(), variables=('Y', 'X'), base_vars=('Y',), main_var='X', aux_vars=())",
        True, "equal", True,
    ),
    ("Lex", lambda: Lex(("X",)), "Lex(vars=('X',))", True, "equal", True),
    ("Grevlex", Grevlex, "Grevlex()", True, "equal", True),
    ("BlockElim", lambda: BlockElim(("X",)), "BlockElim(front=('X',))", True, "equal", True),
    ("FpElement", lambda: FpElement(3, 7), "FpElement(residue=3, modulus=7)", True, "equal", True),
    ("BaseIdeal", lambda: BaseIdeal(ZX, integer=4), _B4, True, "equal", True),
    (
        "BaseIdeal",
        lambda: BaseIdeal(QYX, ideal=J),
        "BaseIdeal(ring=RingSpec(domain=RationalDomain(), variables=('Y', 'X'), base_vars=('Y',), "
        "main_var='X', aux_vars=()), integer=None, ideal=Ideal(QQ[Y]; Y^2))",
        True, "equal", True,
    ),
    # the images are a dict, hashed as the set of its items
    (
        "RingMap",
        lambda: RingMap(QYZ, QT, IMAGES),
        "RingMap(source=RingSpec(domain=RationalDomain(), variables=('Y', 'Z'), base_vars=('Y', 'Z'), "
        "main_var=None, aux_vars=()), target=RingSpec(domain=RationalDomain(), variables=('T',), "
        "base_vars=('T',), main_var=None, aux_vars=()), "
        "images={'Y': <T^2 over QQ[T]>, 'Z': <T^3 over QQ[T]>})",
        True, "equal", True,
    ),
    # an ideal is a mutable cache of bases and powers, equal only to itself
    ("Ideal", lambda: Ideal(ZX, [FOUR, F]), _I, False, "own", False),
    ("Ideal", lambda: Ideal(ZX, []), "Ideal(ZZ[X]; 0)", False, "own", False),
    # a polynomial's ring and terms decide its hash, so neither can be reassigned
    ("Polynomial", lambda: parse_poly("X^2 + X + 1", ZX), "<X^2 + X + 1 over ZZ[X]>", True, "equal", True),
    ("IntegerDomain", lambda: ZZ, "IntegerDomain()", True, "equal", True),
    ("RationalDomain", lambda: QQ, "RationalDomain()", True, "equal", True),
    ("PrimeField", lambda: GF(7), "PrimeField(p=7)", True, "equal", True),
]


def test_every_exported_class_has_its_value_semantics_pinned():
    exported = {
        name for name in powerstable.__all__
        if isinstance(getattr(powerstable, name), type)
        and not issubclass(getattr(powerstable, name), Exception)
    }
    assert exported <= {name for name, *_ in _VALUES}


@pytest.mark.parametrize(
    "name, build, text, equal, hashing, frozen", _VALUES, ids=[row[0] for row in _VALUES]
)
def test_value_semantics_of_the_public_classes(name, build, text, equal, hashing, frozen):
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text
    # a pickled or deep-copied value reads as the row's; reprs, not ==,
    # since the rows that hold an Ideal compare by identity
    for again in (pickle.loads(pickle.dumps(build())), copy.deepcopy(build())):
        assert repr(again) == text
    assert a == a and (a == b) is equal and (a != b) is not equal
    if hashing is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    elif hashing == "equal":
        assert hash(a) == hash(b)
    else:
        assert hash(a) == hash(a) and len({a, a, b}) == 2
    # the first field, or a new name on a class that has none
    fields = getattr(type(a), "__dataclass_fields__", None) or dict.fromkeys(getattr(a, "__slots__", ()))
    attr = next(iter(fields), "extra")
    value = getattr(a, attr, None)
    if frozen:
        with pytest.raises((AttributeError, TypeError)):
            setattr(a, attr, value)
    else:
        setattr(a, attr, value)
        assert repr(a) == text


def test_a_ring_map_hashes_as_it_compares():
    """Two maps whose image dicts list the variables in another order are
    equal, so they hash alike and key one entry; another image makes
    another map."""
    swapped = RingMap(QYZ, QT, dict(reversed(IMAGES.items())))
    other = RingMap(QYZ, QT, {**IMAGES, "Z": parse_poly("T^5", QT)})
    assert swapped == RingMap(QYZ, QT, IMAGES) and hash(swapped) == hash(RingMap(QYZ, QT, IMAGES))
    assert len({RingMap(QYZ, QT, IMAGES), swapped, other}) == 2
    assert other != swapped


def test_a_ring_map_keeps_its_images_when_the_callers_dict_changes():
    """The map copies the images it is given into a read-only mapping: a
    later change to the caller's dict moves neither its hash, its equality
    nor its kernel, and its own ``images`` refuse changes.  Pickling and
    deep copies give an equal map."""
    images = dict(IMAGES)
    ring_map = RingMap(QYZ, QT, images)
    held, before = {ring_map}, hash(ring_map)
    images["Z"] = parse_poly("T^5", QT)
    assert hash(ring_map) == before and ring_map in held
    assert ring_map == RingMap(QYZ, QT, IMAGES) and ring_map.images == IMAGES
    del images["Y"]
    assert ring_map.kernel().equals(P)
    assert repr(ring_map) == repr(RingMap(QYZ, QT, IMAGES))
    with pytest.raises(TypeError):
        ring_map.images["Z"] = parse_poly("T^5", QT)
    with pytest.raises(TypeError):
        del ring_map.images["Y"]
    assert hash(ring_map) == before and ring_map in held
    assert ring_map.kernel().equals(P)
    for again in (pickle.loads(pickle.dumps(ring_map)), copy.deepcopy(ring_map)):
        assert again == ring_map and hash(again) == before


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


def test_the_ideal_layer_reads_no_engine_term_lists():
    """``ideals.py`` takes from the engine its public functions, the budget
    check and the start from two factor bases, and none of the helpers that
    build or read term lists, so one module knows the engine's term format."""
    allowed = {
        "Budget", "GroebnerBasis", "exact_divide", "groebner_basis", "normal_form",
        "_check_degree", "_factor_start",
    }
    tree = ast.parse((Path(powerstable.__file__).parent / "ideals.py").read_text())
    imported = [
        a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "groebner" and node.level == 1
        for a in node.names
    ]
    assert imported and set(imported) <= allowed, sorted(set(imported) - allowed)


def test_only_a_basis_reduces_its_tails():
    """``_tail_reduce`` is called from ``GroebnerBasis`` alone, which reduces
    its tails on read, and never from ``groebner_basis``, which stops at the
    minimal basis: every call, by name or as an attribute, sits in the
    top-level definition named ``GroebnerBasis``."""
    callers = []
    for path in sorted(Path(powerstable.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "_tail_reduce":
                        callers.append((path.name, getattr(top, "name", None)))
    assert callers and set(callers) == {("groebner.py", "GroebnerBasis")}, callers


def test_a_top_level_call_builds_one_budget(monkeypatch):
    """A public entry called without a budget builds one ``Budget`` and
    passes it down explicitly; called with one it builds none.  Counted on
    fresh inputs, whose bases are not cached, for the stability checks and
    searches, both routes of ``RingMap.kernel`` and ``Ideal.contains``."""
    built = []
    real = Budget.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Budget, "__post_init__", counting)
    zx, qyx = RingSpec.parse("ZZ[X]"), RingSpec.parse("QQ[Y][X]")
    qt = RingSpec.parse("QQ[T]")
    t = parse_poly("T", qt)
    calls = {
        "check_power_stable": lambda b: powerstable.check_power_stable(Ideal.from_texts(zx, ["X^2 - 2", "X^3"]), 3, b),
        "graded_criterion": lambda b: powerstable.graded_criterion(Ideal.from_texts(qyx, ["X^2 - Y", "Y^3"]), 2, b),
        "certify_stable": lambda b: powerstable.certify_stable(Ideal.from_texts(zx, ["4", "2*X + 1"]), b),
        "primary_obstruction": lambda b: powerstable.primary_obstruction(powerstable.hochster_P(), 2, None, b),
        "kernel (lattice)": lambda b: powerstable.hochster_toric_map().kernel(b),
        "kernel (elimination)": lambda b: RingMap(RingSpec.parse("QQ[Y,W]"), qt, {"Y": t**2, "W": t**3 + t}).kernel(b),
        "contains": lambda b: Ideal.from_texts(qyx, ["X^2 - Y", "Y^3"]).contains(parse_poly("X^6", qyx), b),
    }
    for name, call in calls.items():
        built.clear()
        call(None)
        assert len(built) == 1, name
        budget = Budget()
        built.clear()
        call(budget)
        assert built == [], name
