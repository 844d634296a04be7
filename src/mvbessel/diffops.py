"""Direct differential-operator kernels on expanded polynomials.

An interaction term sum_{i != j} w(x_i)/(x_i - x_j) d/dx_i, with w(x) = x^k
(Sutherland) or t(t - 1) (BC Jacobi), is evaluated pairwise: for symmetric
input the combination w(x_i) df/dx_i - w(x_j) df/dx_j is antisymmetric
under i <-> j and therefore exactly divisible by x_i - x_j, so no fractions
ever appear.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotDivisible, NotSymmetric
from .polyalg import MultiPoly, SymPoly, collect_symmetric, divide_exact


def _pairwise_quotients(f: MultiPoly, weights: list[MultiPoly]) -> MultiPoly:
    """sum_{i < j} (w_i df/dx_i - w_j df/dx_j)/(x_i - x_j) for symmetric f,
    with w_i = weights[i - 1]; raises NotSymmetric when a division fails."""
    n = f.n
    g = [f.deriv(i) * w for i, w in enumerate(weights, 1)]
    out = MultiPoly.zero(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi_minus_xj = MultiPoly.variable(n, i) - MultiPoly.variable(n, j)
            try:
                q = divide_exact(g[i - 1] - g[j - 1], xi_minus_xj)
            except NotDivisible as exc:
                raise NotSymmetric("pairwise division failed; input is not symmetric") from exc
            out = out + q
    return out


def _powers(n: int, k: int) -> list[MultiPoly]:
    """x_1^k, ..., x_n^k."""
    return [MultiPoly.monomial(n, [k if m == i else 0 for m in range(n)]) for i in range(n)]


def pairwise_interaction(f: MultiPoly, k: int, kappa: Fraction) -> MultiPoly:
    """2*kappa * sum_{i != j} x_i^k/(x_i - x_j) df/dx_i for symmetric f."""
    return _pairwise_quotients(f, _powers(f.n, k)).scale(2 * Fraction(kappa))


def sutherland_op(f: MultiPoly, k: int, kappa: Fraction) -> MultiPoly:
    """sum_i x_i^k d^2/dx_i^2 + 2*kappa*sum_{i != j} x_i^k/(x_i-x_j) d/dx_i."""
    out = MultiPoly.zero(f.n)
    for i, w in enumerate(_powers(f.n, k), 1):
        out = out + f.deriv(i).deriv(i) * w
    return out + pairwise_interaction(f, k, kappa)


def bessel_op(f: MultiPoly, a: Fraction, kappa: Fraction) -> MultiPoly:
    """x_i^2 second-order Sutherland operator plus the (a x_i + 2) drift."""
    n = f.n
    out = sutherland_op(f, 2, kappa)
    for i in range(1, n + 1):
        g = f.deriv(i)
        out = out + g * MultiPoly.variable(n, i) * Fraction(a) + g.scale(2)
    return out


def apply_sutherland_sym(f: SymPoly, k: int, kappa: Fraction) -> SymPoly:
    return collect_symmetric(sutherland_op(f.expand(), k, kappa))


def apply_bessel_sym(f: SymPoly, a: Fraction, kappa: Fraction) -> SymPoly:
    return collect_symmetric(bessel_op(f.expand(), a, kappa))


def jacobi_bc_op(f: MultiPoly, k1: Fraction, k2: Fraction, k3: Fraction) -> MultiPoly:
    """The BC-type operator in algebraic coordinates t_i:

    sum t_i(t_i-1) d^2/dt_i^2 - sum (k1+k2+1/2 - (k1+2k2+1) t_i) d/dt_i
    + 2*k3 * sum_{i != j} t_i(t_i-1)/(t_i-t_j) d/dt_i.
    """
    n = f.n
    k1, k2, k3 = Fraction(k1), Fraction(k2), Fraction(k3)
    ts = [MultiPoly.variable(n, i) for i in range(1, n + 1)]
    weights = [t * t - t for t in ts]
    out = MultiPoly.zero(n)
    for i, (t, w) in enumerate(zip(ts, weights), 1):
        out = out + f.deriv(i).deriv(i) * w
        out = out + f.deriv(i) * (t * (k1 + 2 * k2 + 1) - MultiPoly.constant(n, k1 + k2 + Fraction(1, 2)))
    return out + _pairwise_quotients(f, weights).scale(2 * k3)
