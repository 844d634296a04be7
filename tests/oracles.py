"""Exact oracles shared by the test modules, independent of the library routes
they check."""

from itertools import permutations

from mvbessel.partitions import Partition
from mvbessel.polyalg import MultiPoly, SymPoly, accumulate, collect_symmetric, divide_exact


def schur(lam: Partition, n: int) -> SymPoly:
    """Bialternant determinant divided by the Vandermonde, as an exact oracle."""
    exps = [lam.part(i) + n - i for i in range(1, n + 1)]
    det = MultiPoly.zero(n)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        det = det + MultiPoly.monomial(n, [exps[perm[i]] for i in range(n)], sign)
    vand = MultiPoly.constant(n, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vand = vand * (MultiPoly.variable(n, i) - MultiPoly.variable(n, j))
    return collect_symmetric(divide_exact(det, vand))


def peel(f, basis) -> dict:
    """Coefficients of f on a triangular basis, one Fraction at a time:
    basis(mu) has its graded-lex leading term at mu, and the leading term of
    the remainder is peeled off until nothing is left."""
    out = {}
    rest = dict(f.coeffs)
    while rest:
        mu = max(rest)
        b = basis(mu)
        f._check(b)
        c = rest[mu] / b.coeff(mu)
        out[mu] = c
        for nu, v in b.coeffs.items():
            accumulate(rest, nu, -c * v)
    return out
