"""Integer lattices for the kernels of monomial maps (see ``RingMap.kernel``).

``kernel_basis`` returns a basis of the integer kernel ker_ZZ(A) of an
integer matrix A, found by unimodular column operations, and ``lll``
reduces a lattice basis with the integral LLL algorithm.  Both work on plain
ints only: no ``Fraction`` and no float (Cohen, "A Course in Computational
Algebraic Number Theory", 1993, Algs. 2.4.10 and 2.6.7; Lenstra, Lenstra
and Lovász, "Factoring polynomials with rational coefficients", 1982).
"""

from __future__ import annotations

from operator import mul
from typing import Sequence


def kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """A basis of ker_ZZ(A) = {u in ZZ^n : A u = 0}, A the integer matrix
    with the given rows of length n.

    Each column of A is stacked on the matching column of the n x n
    identity U, and one column operation acts on both, so U stays unimodular
    and the top of each column stays A times its bottom.  Row by row,
    Euclid's algorithm on the columns that are not yet pivots leaves one
    nonzero entry, whose column becomes the next pivot; entries in earlier
    rows stay zero, since those columns were zero there.  After the last row
    the non-pivot columns of A U are zero and its pivot columns independent,
    so the bottoms of the non-pivot columns are a basis of the kernel.
    """
    m = len(rows)
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    k = 0  # the columns before k are the pivots
    for i in range(m):
        while True:
            live = [j for j in range(k, n) if cols[j][i]]
            if not live:
                break
            p = min(live, key=lambda j: abs(cols[j][i]))
            if len(live) == 1:
                cols[k], cols[p] = cols[p], cols[k]
                k += 1
                break
            a, pivot = cols[p][i], cols[p]
            for j in live:
                if j != p:
                    q = cols[j][i] // a
                    cols[j] = [x - q * y for x, y in zip(cols[j], pivot)]
    return [col[m:] for col in cols[k:]]


def lll(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """The LLL reduction, with delta = 3/4, of linearly independent integer
    vectors: a basis of the same lattice whose Gram-Schmidt coefficients
    mu_(k,j) are at most 1/2 in size and whose consecutive vectors meet the
    Lovász condition |b*_k|^2 >= (3/4 - mu_(k,k-1)^2) |b*_(k-1)|^2.

    Integral LLL (Cohen, Alg. 2.6.7) keeps d_i, the Gram determinant of the
    first i vectors, and lambda_(k,j) = d_j mu_(k,j), which are integers, in
    place of the rational Gram-Schmidt data; every division below is exact.
    Indices run from 1, as in Cohen, with d_0 = 1.
    """
    r = len(basis)
    b = [[], *(list(v) for v in basis)]
    d = [1] * (r + 1)
    lam = [[0] * (r + 1) for _ in range(r + 1)]

    def dot(u, v):
        return sum(map(mul, u, v))

    def reduce(k, l):
        # size-reduce b_k by b_l: subtract the nearest integer to mu_(k,l) times b_l
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        B = (d[k - 2] * d[k] + lk * lk) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lk * t) // d[k - 1]
            lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k]
        d[k - 1] = B

    if r:
        d[1] = dot(b[1], b[1])
    k, kmax = 2, 1
    while k <= r:
        if k > kmax:
            # incremental Gram-Schmidt for the new vector b_k
            kmax = k
            for j in range(1, k + 1):
                u = dot(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
        reduce(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                reduce(k, l)
            k += 1
    return b[1:]
