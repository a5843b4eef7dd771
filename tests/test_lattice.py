"""Integer lattices: the kernel basis by column operations and integral LLL,
checked by exact rational linear algebra that shares no code with them."""

import itertools
import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerstable.lattice import kernel_basis, lll


def _rank(rows):
    """The rank of an integer matrix, by Gaussian elimination over QQ."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _det(m):
    """The determinant of a square matrix, by cofactor expansion."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(len(m))
    )


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _gram_schmidt(basis):
    """The squared lengths |b*_i|^2 and the coefficients mu[i][j], over QQ."""
    stars, norms, mu = [], [], []
    for i, b in enumerate(basis):
        row = [_dot(b, stars[j]) / norms[j] for j in range(i)]
        star = [Fraction(x) for x in b]
        for j in range(i):
            star = [s - row[j] * t for s, t in zip(star, stars[j])]
        stars.append(star)
        norms.append(_dot(star, star))
        mu.append(row)
    return norms, mu


def _change_of_basis(new, old):
    """The rational matrix C with new = C old, rows as vectors, for old of
    full row rank: C = new old^T (old old^T)^-1."""
    r = len(old)
    gram = [[Fraction(_dot(a, b)) for b in old] for a in old]
    inv = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for col in range(r):
        pivot = next(i for i in range(col, r) if gram[i][col])
        gram[col], gram[pivot] = gram[pivot], gram[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = gram[col][col]
        gram[col] = [x / p for x in gram[col]]
        inv[col] = [x / p for x in inv[col]]
        for i in range(r):
            if i != col and gram[i][col]:
                f = gram[i][col]
                gram[i] = [a - f * b for a, b in zip(gram[i], gram[col])]
                inv[i] = [a - f * b for a, b in zip(inv[i], inv[col])]
    proj = [[_dot(v, b) for b in old] for v in new]
    return [[sum(p[k] * inv[k][j] for k in range(r)) for j in range(r)] for p in proj]


def _is_lll_reduced(basis):
    norms, mu = _gram_schmidt(basis)
    size = all(abs(m) <= Fraction(1, 2) for row in mu for m in row)
    lovasz = all(
        norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1] for k in range(1, len(basis))
    )
    return size and lovasz


def _matrices(m, n, low, high):
    return st.lists(
        st.lists(st.integers(low, high), min_size=n, max_size=n), min_size=m, max_size=m
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), m=st.integers(1, 2), n=st.integers(2, 4))
def test_the_kernel_basis_and_its_reduction_are_bases_of_the_integer_kernel(data, m, n):
    """The column-operation basis has n - rank(A) vectors in ker(A), and the
    gcd of its maximal minors is 1, so it spans the whole integer kernel,
    not a sublattice.  Its LLL reduction lies in ker(A), spans the same
    lattice (the change of basis is an integer matrix of determinant +-1),
    and meets the size and Lovász conditions."""
    rows = data.draw(_matrices(m, n, 0, 9))
    basis = kernel_basis(rows, n)
    assert len(basis) == n - _rank(rows)
    assert all(len(u) == n and all(_dot(row, u) == 0 for row in rows) for u in basis)
    if not basis:
        assert lll(basis) == []
        return
    minors = [_det([[u[j] for j in cols] for u in basis]) for cols in itertools.combinations(range(n), len(basis))]
    assert math.gcd(*minors) == 1
    reduced = lll(basis)
    assert all(all(_dot(row, u) == 0 for row in rows) for u in reduced)
    change = _change_of_basis(reduced, basis)
    assert all(c.denominator == 1 for row in change for c in row)
    assert abs(_det(change)) == 1
    assert _is_lll_reduced(reduced)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), r=st.integers(1, 4))
def test_lll_reduces_any_independent_basis_of_the_same_lattice(data, r):
    """r independent vectors of ZZ^4 with entries up to 40 in size: the
    reduction is a basis of the lattice they span and is LLL-reduced."""
    basis = data.draw(_matrices(r, 4, -40, 40))
    assume(_rank(basis) == r)
    reduced = lll(basis)
    change = _change_of_basis(reduced, basis)
    assert all(c.denominator == 1 for row in change for c in row)
    assert abs(_det(change)) == 1
    assert _is_lll_reduced(reduced)


def test_a_monomial_curve_has_a_short_reduced_kernel_basis():
    """The curve (T^3, T^4, T^5): column operations give (4, -3, 0) and
    (1, -2, 1), and LLL replaces the first by the shorter (2, 1, -2)."""
    basis = kernel_basis([[3, 4, 5]], 3)
    assert basis == [[4, -3, 0], [1, -2, 1]]
    assert lll(basis) == [[1, -2, 1], [2, 1, -2]]
    # no rows: every vector is in the kernel, and the unit vectors are reduced
    assert kernel_basis([], 2) == [[1, 0], [0, 1]] == lll([[1, 0], [0, 1]])
