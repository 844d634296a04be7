"""The Bessel operator, its commuting higher-order tower, and eigenvalue maps.

D^B is available in two independent representations (direct differential
application and the Jack-basis action); the higher operators D^B_d are built
by a 2d-stage recursion through non-symmetric intermediates whose
denominators stay within products of x_i and (x_i - x_j) factors, so all
arithmetic remains exact.  The recursion pairs a +i and a -i intermediate
for each variable; on symmetric input the -i one is (-1)^stage times the
+i one, so only the +i values are carried (the two-branch form is the
test oracle).  Being linear, D^B_d is applied to a polynomial as a sum of
cached images of the monomial symmetric functions m_mu.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import diffops, jack
from .bessel import BesselParams, bessel_expand, rho_vector
from .errors import NotProportional
from .jack import JackExpansion
from .partitions import Partition, partitions_in_box, partitions_up_to
from .polyalg import (
    ONE,
    ZERO,
    FactoredFraction,
    MultiPoly,
    SymPoly,
    accumulate,
    collect_symmetric,
)

__all__ = [
    "apply_DB_direct",
    "apply_DB_jack",
    "apply_higher",
    "eigenvalue_of",
    "commutator_check",
    "gamma_poly",
    "separation_check",
    "rho_vector",
]


def apply_DB_direct(f: SymPoly, p: BesselParams) -> SymPoly:
    """Apply D^B to a symmetric polynomial by direct differentiation."""
    return diffops.apply_bessel_sym(f, p.a, p.kappa)


def apply_DB_jack(v: JackExpansion, p: BesselParams) -> JackExpansion:
    """Apply D^B in the Jack basis: D^B = D_2 + a E_1 + 2 E_0."""
    if v.n != p.n or v.kappa != p.kappa:
        raise ValueError("JackExpansion context does not match parameters")
    out = jack.apply_basic("D2", v)
    out = out + jack.apply_basic("E1", v).scale(p.a)
    out = out + jack.apply_basic("E0", v).scale(2)
    return out


def _recursion_stage(
    old: list[FactoredFraction], flipped: bool, p: BesselParams
) -> list[FactoredFraction]:
    """One step of the non-symmetric recursion on the +i intermediates.

    The recursion pairs each +i intermediate with a -i one.  On symmetric
    input old_{-i} = s old_{+i}, with s = -1 after an odd number of stages
    (flipped) and s = +1 after an even number, so only the +i values are
    carried:

    new_{+i} = x_i d_i old_{+i} + (1/2)(a - 1 + 2/x_i)(old_{+i} - old_{-i})
               + (kappa/2) sum_{j != i} ((x_i+x_j)/(x_i-x_j))(old_{+i} - old_{+j})
               + (kappa/2) sum_{j != i} (old_{+i} - old_{-j}),

    where the (a - 1 + 2/x_i) term vanishes when s = +1 and becomes
    (a - 1) old_{+i} + 2 old_{+i}/x_i when s = -1.
    """
    n = p.n
    half_kappa = p.kappa / 2
    new = []
    for i in range(1, n + 1):
        mine = old[i - 1]
        total = mine.deriv(i).mul_var(i)
        if flipped:
            total = total + mine * (p.a - 1) + (mine * 2).div_var(i)
        xi = MultiPoly.variable(n, i)
        for j in range(1, n + 1):
            if j == i:
                continue
            other = old[j - 1]
            xj = MultiPoly.variable(n, j)
            total = total + ((mine - other) * (xi + xj)).div_pair(i, j) * half_kappa
            total = total + (mine + other if flipped else mine - other) * half_kappa
        new.append(total)
    return new


def apply_higher(d: int, f: SymPoly, p: BesselParams) -> SymPoly:
    """Apply the order-2d commuting operator D^B_d to a symmetric polynomial.

    D^B_d is linear, so the image is the sum of c_mu times the image of
    m_mu over the terms of f; each monomial image comes from the full
    recursion (_higher_recursion) once per (d, mu, p) and is then cached.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if f.n != p.n:
        raise ValueError("variable count mismatch")
    out: dict[Partition, Fraction] = {}
    for mu, c in f.coeffs.items():
        for nu, v in _higher_on_monomial(d, mu, p):
            accumulate(out, nu, c * v)
    result = SymPoly(p.n)
    result.coeffs = out
    return result


@functools.lru_cache(maxsize=4096)
def _higher_on_monomial(
    d: int, mu: Partition, p: BesselParams
) -> tuple[tuple[Partition, Fraction], ...]:
    """D^B_d m_mu as immutable (partition, coefficient) pairs."""
    return tuple(_higher_recursion(d, SymPoly(p.n, {mu: ONE}), p).coeffs.items())


def _higher_recursion(d: int, f: SymPoly, p: BesselParams) -> SymPoly:
    """D^B_d f by the recursion itself.

    Runs the recursion for 2d stages from the constant seed.  After an even
    number of stages the -i intermediates equal the +i ones, so the image
    is the sum of the +i values, which must reduce exactly to a symmetric
    polynomial.
    """
    seed = FactoredFraction.from_poly(f.expand())
    plus = [seed] * p.n
    for stage in range(2 * d):
        plus = _recursion_stage(plus, stage % 2 == 1, p)
    total = plus[0]
    for g in plus[1:]:
        total = total + g
    return collect_symmetric(total.to_poly())


def eigenvalue_of(d: int, lam: Partition, p: BesselParams) -> Fraction:
    """The D^B_d eigenvalue on Y_lambda, by proportionality assertion."""
    Y = bessel_expand(lam, p).to_sym()
    img = apply_higher(d, Y, p)
    e = img.coeff(lam)
    if not (img - Y.scale(e)).is_zero():
        raise NotProportional(
            f"D_{d} Y_{lam.parts} is not proportional to Y_{lam.parts}"
        )
    return e


def commutator_check(d: int, e: int, m: int, p: BesselParams) -> bool:
    """True iff D^B_d and D^B_e commute on all m_lambda with |lambda| <= m."""
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    for lam in partitions_up_to(m, p.n):
        f = SymPoly(p.n, {lam: ONE})
        de = apply_higher(d, apply_higher(e, f, p), p)
        ed = apply_higher(e, apply_higher(d, f, p), p)
        if not (de - ed).is_zero():
            return False
    return True


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve an overdetermined but consistent linear system exactly.

    Gaussian elimination over the rationals; raises ValueError when the
    system is underdetermined or inconsistent.
    """
    m = len(rows)
    cols = len(rows[0])
    aug = [row[:] + [rhs[k]] for k, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, m) if aug[k][c] != 0), None)
        if pivot is None:
            raise ValueError("interpolation system is underdetermined; enlarge grid")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for k in range(m):
            if k != r and aug[k][c] != 0:
                factor = aug[k][c]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if len(pivots) < cols:
        raise ValueError("interpolation system is underdetermined; enlarge grid")
    for k in range(r, m):
        if aug[k][cols] != 0:
            raise ValueError("interpolation system is inconsistent")
    return [aug[i][cols] for i in range(cols)]


def _monomials_upto(n: int, total: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, remaining, pos):
        if pos == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], total, 0)
    out.sort()
    return out


def gamma_poly(
    d: int,
    p: BesselParams,
    grid: list[Partition] | None = None,
    eigenvalue_fn=None,
) -> tuple[dict[tuple[int, ...], Fraction], bool]:
    """The eigenvalue polynomial of D^B_d in the shifted coordinates.

    Returns (coefficient map, flag): the unique polynomial g of total degree
    <= 2d with g(lambda + rho) equal to the D^B_d eigenvalue on Y_lambda for
    every partition lambda in the grid, and whether g is invariant under
    sign flips and permutations of its arguments.  The default grid is all
    partitions in a (2d+1) x n box; eigenvalue_fn defaults to the
    proportionality-asserting eigenvalue extraction.
    """
    n = p.n
    if grid is None:
        grid = partitions_in_box(2 * d + 1, n)
    if eigenvalue_fn is None:
        eigenvalue_fn = lambda lam: eigenvalue_of(d, lam, p)
    rho = rho_vector(p)
    monos = _monomials_upto(n, 2 * d)
    rows = []
    rhs = []
    for lam in grid:
        z = [rho[i] + lam.part(i + 1) for i in range(n)]
        row = []
        for e in monos:
            val = ONE
            for zi, ei in zip(z, e):
                val *= zi**ei
            row.append(val)
        rows.append(row)
        rhs.append(eigenvalue_fn(lam))
    sol = _solve_exact(rows, rhs)
    coeffs = {e: c for e, c in zip(monos, sol) if c != 0}
    even = all(all(ei % 2 == 0 for ei in e) for e in coeffs)
    symmetric = True
    for e, c in coeffs.items():
        if coeffs.get(tuple(sorted(e, reverse=True)), ZERO) != c:
            symmetric = False
            break
    return coeffs, even and symmetric


def separation_check(m: int, p: BesselParams) -> bool:
    """True iff the joint eigenvalue tuples separate partitions up to weight m.

    The tuple (e_1(lambda), ..., e_n(lambda)) determines, and is determined
    by, the multiset {(lambda_i + rho_i)^2}: the eigenvalue polynomials are
    even symmetric polynomials in lambda + rho with triangular power-sum
    leading terms.  The check therefore compares sorted squared multisets.
    """
    rho = rho_vector(p)
    seen: dict[tuple, Partition] = {}
    for lam in partitions_up_to(m, p.n):
        key = tuple(sorted((lam.part(i + 1) + rho[i]) ** 2 for i in range(p.n)))
        if key in seen and seen[key] != lam:
            return False
        seen[key] = lam
    return True
