"""Direct differential-operator kernels on expanded polynomials.

An operator is a list of groups (scale, terms); each term is ("d2", k, w)
for w sum_i x_i^k d^2/dx_i^2, ("d1", k, w) for w sum_i x_i^k d/dx_i or
("pair", k, w) for w sum_{i != j} x_i^k/(x_i - x_j) d/dx_i, w an integer.
One pass over f's terms, in integers over their common denominator, fills
one integer map per group; each output term is then one Fraction.  For f
symmetric in (x_i, x_j), c x^alpha and its swapped partner give the pair
term c alpha_i Q(alpha_i + k - 1, alpha_j) times the other variables, with
Q(p, q) = (x_i^p x_j^q - x_i^q x_j^p)/(x_i - x_j) written down as its
geometric sum; a partner with another coefficient raises NotSymmetric.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotSymmetric
from .polyalg import MultiPoly, SymPoly, collect_symmetric


def _apply(f: MultiPoly, groups: list[tuple[Fraction, list[tuple[str, int, int]]]]) -> MultiPoly:
    """sum over groups (scale, terms) of scale * (the terms applied to f)."""
    n = f.n
    den = math.lcm(*(c.denominator for c in f.coeffs.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in f.coeffs.items()}
    accs: list[dict] = [{} for _ in groups]
    flat = [(kind, k, w, acc) for (_, terms), acc in zip(groups, accs) for kind, k, w in terms]
    singles = [(kind == "d2", k, w, acc) for kind, k, w, acc in flat if kind != "pair"]
    pairs = [(k - 1, w, acc) for kind, k, w, acc in flat if kind == "pair"]
    for e, c in ints.items():
        x = list(e)
        for i, ai in enumerate(e):
            for second, k, w, acc in singles:
                if ai > second:
                    x[i] = ai - 1 - second + k
                    key = tuple(x)
                    acc[key] = acc.get(key, 0) + w * c * ai * (ai - 1 if second else 1)
            x[i] = ai
            for j in range(i + 1, n):
                aj = e[j]
                if ai != aj and ints.get(e[:i] + (aj,) + e[i + 1 : j] + (ai,) + e[j + 1 :]) != c:
                    raise NotSymmetric(f"f is not symmetric in x_{i + 1}, x_{j + 1}")
                if not ai:
                    continue
                for shift, w, acc in pairs:
                    p = ai + shift
                    lo, hi, v = (aj, p, w * c * ai) if p > aj else (p, aj, -w * c * ai)
                    for t in range(lo, hi):
                        x[i], x[j] = t, p + aj - 1 - t
                        key = tuple(x)
                        acc[key] = acc.get(key, 0) + v
                x[i], x[j] = ai, aj
    scales = [Fraction(s) for s, _ in groups]
    q = math.lcm(*(s.denominator for s in scales))
    nums = [s.numerator * (q // s.denominator) for s in scales]
    out = MultiPoly(n)
    for key in {key for acc in accs for key in acc}:
        total = sum(m * acc.get(key, 0) for m, acc in zip(nums, accs))
        if total:
            out.coeffs[key] = Fraction(total, q * den)
    return out


def pairwise_interaction(f: MultiPoly, k: int, kappa: Fraction) -> MultiPoly:
    """2*kappa * sum_{i != j} x_i^k/(x_i - x_j) df/dx_i for symmetric f."""
    return _apply(f, [(2 * Fraction(kappa), [("pair", k, 1)])])


def sutherland_op(f: MultiPoly, k: int, kappa: Fraction) -> MultiPoly:
    """sum_i x_i^k d^2/dx_i^2 + 2*kappa*sum_{i != j} x_i^k/(x_i-x_j) d/dx_i."""
    return _apply(f, [(1, [("d2", k, 1)]), (2 * Fraction(kappa), [("pair", k, 1)])])


def bessel_op(f: MultiPoly, a: Fraction, kappa: Fraction) -> MultiPoly:
    """x_i^2 second-order Sutherland operator plus the (a x_i + 2) drift."""
    one, drift, pair = [("d2", 2, 1), ("d1", 0, 2)], [("d1", 1, 1)], [("pair", 2, 1)]
    return _apply(f, [(1, one), (a, drift), (2 * Fraction(kappa), pair)])


def apply_sutherland_sym(f: SymPoly, k: int, kappa: Fraction) -> SymPoly:
    return collect_symmetric(sutherland_op(f.expand(), k, kappa))


def apply_bessel_sym(f: SymPoly, a: Fraction, kappa: Fraction) -> SymPoly:
    return collect_symmetric(bessel_op(f.expand(), a, kappa))


def jacobi_bc_op(f: MultiPoly, k1: Fraction, k2: Fraction, k3: Fraction) -> MultiPoly:
    """The BC-type operator in algebraic coordinates t_i:

    sum t_i(t_i-1) d^2/dt_i^2 - sum (k1+k2+1/2 - (k1+2k2+1) t_i) d/dt_i
    + 2*k3 * sum_{i != j} t_i(t_i-1)/(t_i-t_j) d/dt_i.
    """
    free = [("d2", 2, 2), ("d2", 1, -2), ("d1", 1, 2), ("d1", 0, -1)]  # twice the k-free part
    drift1, drift2 = [("d1", 1, 1), ("d1", 0, -1)], [("d1", 1, 2), ("d1", 0, -1)]
    pair = [("pair", 2, 1), ("pair", 1, -1)]
    return _apply(f, [(Fraction(1, 2), free), (k1, drift1), (k2, drift2), (2 * Fraction(k3), pair)])
