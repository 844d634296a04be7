"""Direct differential-operator kernels on the monomial symmetric basis.

An operator is a list of groups (scale, terms); each term is ("d2", k, w)
for w sum_i x_i^k d^2/dx_i^2, ("d1", k, w) for w sum_i x_i^k d/dx_i or
("pair", k, w) for w sum_{i != j} x_i^k/(x_i - x_j) d/dx_i, w an integer.
Each operator D commutes with S_n, so for f = sum_mu c_mu m_mu, with O(mu)
the S_n orbit of mu, [x^lambda] D f = sum_mu c_mu (|O(mu)|/|O(lambda)|)
sum_{beta in O(lambda)} [x^beta] D x^mu: D is applied to the one exponent
mu of each partition, and the image is regrouped by sorted exponent.  The
pair term is polynomial only on a symmetric sum, so each ordered pair
i != j takes its equivariant half, 1/2 mu_i Q(mu_i + k - 1, mu_j) times the
other variables, with Q(p, q) = (x_i^p x_j^q - x_i^q x_j^p)/(x_i - x_j)
written down as its geometric sum.  One pass, in integers over a common
denominator, fills one integer map per group; each output coefficient is
then one Fraction.  SymPoly goes in and SymPoly comes out.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polyalg import Partition, SymPoly, orbit_size


def _apply(f: SymPoly, groups: list[tuple[Fraction, list[tuple[str, int, int]]]]) -> SymPoly:
    """sum over groups (scale, terms) of scale * (the terms applied to f)."""
    n = f.n
    den = math.lcm(*(c.denominator for c in f.coeffs.values()))
    accs: list[dict] = [{} for _ in groups]
    flat = [(kind, k, w, acc) for (_, terms), acc in zip(groups, accs) for kind, k, w in terms]
    # every count is doubled, so that the pair term's half stays an integer
    singles = [(kind == "d2", k, 2 * w, acc) for kind, k, w, acc in flat if kind != "pair"]
    pairs = [(k - 1, w, acc) for kind, k, w, acc in flat if kind == "pair"]
    for mu, c in f.coeffs.items():
        c = c.numerator * (den // c.denominator) * orbit_size(mu, n)
        e = mu.parts + (0,) * (n - mu.length())
        x = list(e)
        for i, ai in enumerate(mu.parts):
            for second, k, w, acc in singles:
                if ai > second:
                    x[i] = ai - 1 - second + k
                    key = tuple(sorted(x, reverse=True))
                    acc[key] = acc.get(key, 0) + w * c * ai * (ai - 1 if second else 1)
            x[i] = ai
            for j, aj in enumerate(e):
                if j == i:
                    continue
                for shift, w, acc in pairs:
                    p = ai + shift
                    lo, hi, v = (aj, p, w * c * ai) if p > aj else (p, aj, -w * c * ai)
                    for t in range(lo, hi):
                        x[i], x[j] = t, p + aj - 1 - t
                        key = tuple(sorted(x, reverse=True))
                        acc[key] = acc.get(key, 0) + v
                x[i], x[j] = ai, aj
    scales = [Fraction(s) for s, _ in groups]
    q = math.lcm(*(s.denominator for s in scales))
    nums = [s.numerator * (q // s.denominator) for s in scales]
    out = SymPoly(n)
    for key in {key for acc in accs for key in acc}:
        total = sum(m * acc.get(key, 0) for m, acc in zip(nums, accs))
        if total:
            lam = Partition(key)
            out.coeffs[lam] = Fraction(total, 2 * q * den * orbit_size(lam, n))
    return out


def apply_sutherland_sym(f: SymPoly, k: int, kappa: Fraction) -> SymPoly:
    """sum_i x_i^k d^2/dx_i^2 + 2*kappa*sum_{i != j} x_i^k/(x_i-x_j) d/dx_i."""
    return _apply(f, [(1, [("d2", k, 1)]), (2 * Fraction(kappa), [("pair", k, 1)])])


def apply_bessel_sym(f: SymPoly, a: Fraction, kappa: Fraction) -> SymPoly:
    """x_i^2 second-order Sutherland operator plus the (a x_i + 2) drift."""
    one, drift, pair = [("d2", 2, 1), ("d1", 0, 2)], [("d1", 1, 1)], [("pair", 2, 1)]
    return _apply(f, [(1, one), (a, drift), (2 * Fraction(kappa), pair)])


def apply_jacobi_bc_sym(f: SymPoly, k1: Fraction, k2: Fraction, k3: Fraction) -> SymPoly:
    """The BC-type operator in algebraic coordinates t_i:

    sum t_i(t_i-1) d^2/dt_i^2 - sum (k1+k2+1/2 - (k1+2k2+1) t_i) d/dt_i
    + 2*k3 * sum_{i != j} t_i(t_i-1)/(t_i-t_j) d/dt_i.
    """
    free = [("d2", 2, 2), ("d2", 1, -2), ("d1", 1, 2), ("d1", 0, -1)]  # twice the k-free part
    drift1, drift2 = [("d1", 1, 1), ("d1", 0, -1)], [("d1", 1, 2), ("d1", 0, -1)]
    pair = [("pair", 2, 1), ("pair", 1, -1)]
    return _apply(f, [(Fraction(1, 2), free), (k1, drift1), (k2, drift2), (2 * Fraction(k3), pair)])
