"""Built-in example ideals: determinism, validation, and advertised shapes."""

import pytest

from powerstable import (
    CorpusError,
    Ideal,
    Polynomial,
    RingMap,
    comaximal_pair,
    corpus,
    example_3_12,
    extension_JX,
    gadget_3_14,
    hochster_P,
    hochster_toric_map,
    parse_poly,
    principal,
    radical_zx,
)
from powerstable.corpus import REGISTRY, prime_corpus, radical_corpus, stability_corpus


def test_seeded_builders_are_deterministic():
    for builder in (principal, extension_JX):
        for seed in range(6):
            assert builder(seed).generators == builder(seed).generators
    for seed in range(4):
        a = comaximal_pair(seed)
        b = comaximal_pair(seed)
        assert a[0].generators == b[0].generators
        assert a[1].generators == b[1].generators
    assert principal(0).generators != principal(2).generators


def test_principal_shapes():
    for seed in range(8):
        I = principal(seed)
        assert len(I.generators) == 1
        if seed % 2 == 0:
            assert str(I.ring) == "ZZ[X]"
            _, lc = I.generators[0].leading_term()
            assert lc > 0
        else:
            assert str(I.ring) == "QQ[Y][X]"


def test_extension_shapes():
    for seed in range(8):
        I = extension_JX(seed)
        if seed % 2 == 0:
            assert str(I.ring) == "ZZ[X]"
            (g,) = I.generators
            assert g.is_constant()
            assert 2 <= int(g.constant_value()) <= 30
        else:
            assert str(I.ring) == "QQ[Y,Z][X]"
            assert all(g.free_of(["X"]) for g in I.generators)


def test_example_3_12_validates_primality():
    I = example_3_12(5)
    assert set(I.generators) == {
        parse_poly("X^2 - 5", I.ring),
        parse_poly("X^3", I.ring),
    }
    for bad in (0, 1, 4, 9, -3):
        with pytest.raises(CorpusError):
            example_3_12(bad)


def test_fixed_entries():
    P = hochster_P()
    assert str(P.ring) == "QQ[Y,Z,W]"
    assert len(P.generators) == 3
    m = hochster_toric_map()
    for g in P.generators:
        assert m.apply(g).is_zero()
    G = gadget_3_14()
    assert set(G.generators) == {
        parse_poly("X^2 - Y", G.ring),
        parse_poly("Y*X", G.ring),
    }


def test_comaximal_pairs_are_comaximal():
    for seed in range(6):
        A, B = comaximal_pair(seed)
        assert A.ring == B.ring
        assert (A + B).contains(Polynomial.one(A.ring))


def test_radical_zx_validation():
    I = radical_zx([(2, "X^2+X+1"), (3, "X+1")])
    assert I.contains(parse_poly("6", I.ring))
    # the two maximal components both contain the intersection
    for g in I.generators:
        assert Ideal.from_texts(I.ring, ["2", "X^2+X+1"]).contains(g)
        assert Ideal.from_texts(I.ring, ["3", "X+1"]).contains(g)
    with pytest.raises(CorpusError):
        radical_zx([])
    with pytest.raises(CorpusError):
        radical_zx([(4, "X+1")])  # composite modulus
    with pytest.raises(CorpusError):
        radical_zx([(2, "X^2+1")])  # (X+1)^2 mod 2
    with pytest.raises(CorpusError):
        radical_zx([(3, "3*X+1")])  # leading coefficient vanishes mod 3
    with pytest.raises(CorpusError):
        radical_zx([(5, "X^7+X+1")])  # degree beyond the brute-force window


def test_registry_dispatch():
    names = [e.name for e in REGISTRY]
    assert names == [
        "principal",
        "extension_JX",
        "example_3_12",
        "hochster_P",
        "hochster_toric_map",
        "gadget_3_14",
        "comaximal_pair",
        "radical_zx",
    ]
    assert corpus("example_3_12", {"p": 3}).generators == example_3_12(3).generators
    assert isinstance(corpus("hochster_toric_map"), RingMap)
    left, right = corpus("comaximal_pair", {"seed": 1})
    assert isinstance(left, Ideal) and isinstance(right, Ideal)
    with pytest.raises(CorpusError) as err:
        corpus("mystery")
    assert "principal" in str(err.value)  # the error lists the known names


def test_bundled_suites_have_documented_shapes():
    stab = stability_corpus()
    assert len(stab) == 10
    assert [name for name, _ in stab][:2] == ["principal(0)", "principal(1)"]
    for name, I in stab:
        assert isinstance(I, Ideal)
        I.ring.require_main()
    primes = prime_corpus()
    assert len(primes) == 15
    assert any(name == "(2X+3)" or "2X+3" in name for name, _ in primes)
    rads = radical_corpus()
    assert len(rads) == 8
    for name, I in rads:
        assert str(I.ring) == "ZZ[X]"
