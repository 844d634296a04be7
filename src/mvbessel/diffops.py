"""Direct differential-operator kernels on expanded polynomials.

The Sutherland-type interaction term sum_{i != j} x_i^k/(x_i - x_j) d/dx_i
is evaluated pairwise: for symmetric input the combination
x_i^k df/dx_i - x_j^k df/dx_j is antisymmetric under i <-> j and therefore
exactly divisible by x_i - x_j, so no fractions ever appear.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotDivisible, NotSymmetric
from .polyalg import MultiPoly, SymPoly, collect_symmetric, divide_exact


def pairwise_interaction(f: MultiPoly, k: int, kappa: Fraction) -> MultiPoly:
    """2*kappa * sum_{i != j} x_i^k/(x_i - x_j) df/dx_i for symmetric f."""
    n = f.n
    out = MultiPoly.zero(n)
    for i in range(1, n + 1):
        gi = f.deriv(i)
        for _ in range(k):
            gi = gi * MultiPoly.variable(n, i)
        for j in range(i + 1, n + 1):
            gj = f.deriv(j)
            for _ in range(k):
                gj = gj * MultiPoly.variable(n, j)
            try:
                q = divide_exact(gi - gj, MultiPoly.variable(n, i) - MultiPoly.variable(n, j))
            except NotDivisible as exc:
                raise NotSymmetric("pairwise division failed; input is not symmetric") from exc
            out = out + q
    return out.scale(2 * Fraction(kappa))


def sutherland_op(f: MultiPoly, k: int, kappa: Fraction) -> MultiPoly:
    """sum_i x_i^k d^2/dx_i^2 + 2*kappa*sum_{i != j} x_i^k/(x_i-x_j) d/dx_i."""
    n = f.n
    out = MultiPoly.zero(n)
    for i in range(1, n + 1):
        g = f.deriv(i).deriv(i)
        for _ in range(k):
            g = g * MultiPoly.variable(n, i)
        out = out + g
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
    out = MultiPoly.zero(n)
    for i in range(1, n + 1):
        ti = MultiPoly.variable(n, i)
        tt = ti * ti - ti
        out = out + f.deriv(i).deriv(i) * tt
        out = out + f.deriv(i) * (ti * (k1 + 2 * k2 + 1) - MultiPoly.constant(n, k1 + k2 + Fraction(1, 2)))
    # pairwise part with numerator t_i(t_i - 1)
    acc = MultiPoly.zero(n)
    for i in range(1, n + 1):
        ti = MultiPoly.variable(n, i)
        gi = f.deriv(i) * (ti * ti - ti)
        for j in range(i + 1, n + 1):
            tj = MultiPoly.variable(n, j)
            gj = f.deriv(j) * (tj * tj - tj)
            q = divide_exact(gi - gj, ti - tj)
            acc = acc + q
    return out + acc.scale(2 * k3)
