"""Direct differential operators on the monomial symmetric basis: each is a
list of groups (scale, terms) that polyalg.apply_equivariant applies to one
exponent per partition.  They are the oracle that the Jack, operators and
bessel routes are checked against.
"""

from __future__ import annotations

from fractions import Fraction

from .polyalg import SymPoly, apply_equivariant, rational


def apply_sutherland_sym(f: SymPoly, k: int, kappa: Fraction) -> SymPoly:
    """sum_i x_i^k d^2/dx_i^2 + 2*kappa*sum_{i != j} x_i^k/(x_i-x_j) d/dx_i."""
    return apply_equivariant(f, [(1, [("d2", k, 1)]), (2 * rational(kappa), [("pair", k, 1)])])


def apply_bessel_sym(f: SymPoly, a: Fraction, kappa: Fraction) -> SymPoly:
    """x_i^2 second-order Sutherland operator plus the (a x_i + 2) drift."""
    one, drift, pair = [("d2", 2, 1), ("d1", 0, 2)], [("d1", 1, 1)], [("pair", 2, 1)]
    return apply_equivariant(f, [(1, one), (a, drift), (2 * rational(kappa), pair)])


def apply_jacobi_bc_sym(f: SymPoly, k1: Fraction, k2: Fraction, k3: Fraction) -> SymPoly:
    """The BC-type operator in algebraic coordinates t_i:

    sum t_i(t_i-1) d^2/dt_i^2 - sum (k1+k2+1/2 - (k1+2k2+1) t_i) d/dt_i
    + 2*k3 * sum_{i != j} t_i(t_i-1)/(t_i-t_j) d/dt_i.
    """
    free = [("d2", 2, 2), ("d2", 1, -2), ("d1", 1, 2), ("d1", 0, -1)]  # twice the k-free part
    drift1, drift2 = [("d1", 1, 1), ("d1", 0, -1)], [("d1", 1, 2), ("d1", 0, -1)]
    pair = [("pair", 2, 1), ("pair", 1, -1)]
    groups = [(Fraction(1, 2), free), (k1, drift1), (k2, drift2), (2 * rational(k3), pair)]
    return apply_equivariant(f, groups)
