"""Pieri-type recurrences and norm formulas for the Bessel family.

Everything here is built from two scalar coefficient functions,

    v(z) = (kappa + z)/z,    w(z) = ((a-1)/2 + z) / (2z(2z+1)),

and from ratios of the product functions Delta_+/Delta_-.  Their Gamma
quotients obey the difference equations

    d_{v,+}(z+1) =  v(z)   d_{v,+}(z),   d_{v,-}(z+1) =  v(-z-1) d_{v,-}(z),
    d_{w,+}(z+1) =  w(z)   d_{w,+}(z),   d_{w,-}(z+1) = -w(-z-1) d_{w,-}(z),

so Delta_sign(rho + lambda)/Delta_sign(rho) is one finite product of the
step factors of v and w, one per unit of each non-negative shift.  The
renormalized polynomials Ytilde_lambda = Y_lambda / (2^{|lambda|}
Delta_+(rho+lambda)/Delta_+(rho)) are the basis of the Pieri expansions.
The Delta ratios, both norm routes and the Pieri coefficients are lists of
polyalg.Affine factors along the line (a + t, kappa + t), taken at t = 0 by
polyalg.limit_at_zero.  Except in norm_ratio_product, the independent
second route, that line is scaled to integers (_rho_line).  Which Pieri
moves E_r makes, and which factor groups each term multiplies, depend on n
and r alone: one cached table of tuples of group keys (_moves).  What they
are worth at (lambda, p) is one cached read-only mapping, every factor
group built at once beside its leading term (_factor_groups).  So a
coefficient with no term of negative order is its order-0 integer leads
summed, and only the rest go through limit_at_zero.  The oracle peels onto
Ytilde in integers (jack.peel).

Absolute Gamma values never materialize; the lone transcendental scale
2^{(a-1)n} Gamma(1-a)^n of the norm formulas is carried implicitly.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from fractions import Fraction
from math import factorial, lcm
from types import MappingProxyType

from .errors import ConvergenceError, PoleError
from .partitions import Partition
from .polyalg import ONE, Affine, SymPoly, elementary, join, leading_term, limit_at_zero
from .bessel import (
    BesselParams,
    bessel_expand,
    square_integrability_bound,
)
from .jack import JackExpansion, peel, rising_factorial, sym_to_jack


def v_factors(z, kappa):
    """v(z) = (kappa + z)/z as (numerator factors, denominator factors)."""
    return (kappa + z,), (z,)


def w_factors(z, h, D: int):
    """w(z) = (h + z)/(2z(2z+1)), h = (a-1)/2, on the line scaled by D: D(h+z)/(2z(2z+D))."""
    return (Affine(D, 0), h + z), (2 * z, 2 * z + D)


def _rho_line(p: BesselParams):
    """(rho, kappa, h, D) along (a + t, kappa + t), h = (a-1)/2, all times
    D = 2 lcm(den a, den kappa): Affines with integer constant and slope,
    on which a unit step is D.  Every v or w step has as many factors up
    as down, so D cancels."""
    D = 2 * lcm(p.a.denominator, p.kappa.denominator)
    kappa = Affine(D // p.kappa.denominator * p.kappa.numerator, D)
    h = Affine(D // 2 // p.a.denominator * (p.a.numerator - p.a.denominator), D // 2)
    return tuple(kappa * (p.n - i) + h for i in range(1, p.n + 1)), kappa, h, D


def delta_factors(sign: str, lam: Partition, p: BesselParams):
    """The v and w step factors of Delta_sign(rho + lambda)/Delta_sign(rho)
    along (a + t, kappa + t); for '-' the product carries a further sign
    (-1)^{|lambda|}.

    Each v or w factor of Delta_sign, at rho-combination z0 with shift m
    (lambda_i - lambda_j, lambda_i + lambda_j or lambda_i, all >= 0 since
    lambda is a partition), contributes the steps at u = z0 + t,
    t = 0..m-1: v(u) and w(u) for '+', v(-u-1) and -w(-u-1) for '-'.
    """
    n = p.n
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    z, kappa, h, D = _rho_line(p)
    if sign == "+":
        at = lambda z0, t: z0 + t * D
    elif sign == "-":
        at = lambda z0, t: -z0 - (t + 1) * D
    else:
        raise ValueError("sign must be '+' or '-'")
    m = [lam.part(i) for i in range(1, n + 1)]
    groups = []
    for i in range(n):
        for j in range(i + 1, n):
            for z0, shift in ((z[i] - z[j], m[i] - m[j]), (z[i] + z[j], m[i] + m[j])):
                groups += [v_factors(at(z0, t), kappa) for t in range(shift)]
        groups += [w_factors(at(z[i], t), h, D) for t in range(m[i])]
    return join(*groups)


def delta_ratio(sign: str, lam: Partition, p: BesselParams) -> Fraction:
    """Delta_sign(rho + lambda)/Delta_sign(rho), the limit of its step
    factors along (a + t, kappa + t).

    At kappa = 0 with generic a every vanishing factor is a multiple of
    kappa, so the value does not depend on the line; where a 0/0 also
    involves a (the step v(z_i + z_j + s) at kappa = 0 and a = 1 - s, say)
    it is the limit along this line, the convention of pieri_expand.
    """
    value = limit_at_zero(
        [delta_factors(sign, lam, p)], f"Delta_{sign} ratio at {lam!r} hits a pole of v or w"
    )
    return -value if sign == "-" and lam.weight() % 2 else value


@functools.lru_cache(maxsize=4096)
def renormalized_jack(lam: Partition, p: BesselParams) -> JackExpansion:
    """Ytilde_lambda on the Jack basis: Y_lambda divided by 2^{|lambda|}
    times the plus-type shifted-factor ratio at rho + lambda over rho, so
    that its constant term is one.  Y_lambda is built first, so a degenerate
    eigenvalue is refused before a vanishing ratio."""
    Y = bessel_expand(lam, p)
    ratio = delta_ratio("+", lam, p)
    if ratio == 0:
        raise PoleError(f"normalization ratio vanished for {lam!r}")
    return Y.scale(Fraction(1, 2 ** lam.weight()) / ratio)


def E_hat_r(r: int, n: int) -> SymPoly:
    """((-1)^{r+1}/2^r) e_r, the normalized elementary symmetric polynomial."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return elementary(r, n).scale(Fraction((-1) ** (r + 1), 2**r))


@functools.lru_cache(maxsize=4096)
def _factor_groups(lam: Partition, p: BesselParams) -> Mapping:
    """Every factor group of the Pieri calls at z = rho + lambda, built at
    once from v_factors/w_factors, each beside its polyalg.leading_term; the
    cache holds a read-only view of a plain dict, so an absent key is a KeyError.

    Keys name 1-based rows and signs e = +-1 (pairs i < i2, crosses j != i):

        ("w", i, e)                        w(e z_i)
        ("pair", i, e, i2, e2, reflected)  v(u) v(u'),  u = e z_i + e2 z_i2,
                                           u' = -u-1 if reflected else u+1
        ("cross", i, e, j)                 v(e z_i + z_j) v(e z_i - z_j)
    """
    z, kappa, h, D = _rho_line(p)
    v = lambda u: v_factors(u, kappa)
    ez = {(i, e): e * (zi + lam.part(i) * D) for i, zi in enumerate(z, start=1) for e in (1, -1)}
    groups = {("w", *key): w_factors(x, h, D) for key, x in ez.items()}
    for (i, e), x in ez.items():
        for (j, e2), y in ez.items():
            if i < j:
                u = x + y
                groups["pair", i, e, j, e2, False] = join(v(u), v(u + D))
                groups["pair", i, e, j, e2, True] = join(v(u), v(-u - D))
            if i != j and e2 == 1:
                groups["cross", i, e, j] = join(v(x + y), v(x - y))
    return MappingProxyType({key: (g, leading_term(*g)) for key, g in groups.items()})


def _move_keys(I, signs, rows, reflected: bool) -> tuple:
    """The factor groups of

        prod_{i in I} w(eps_i z_i) prod_{i < i' in I} v(u) v(u')
        prod_{i in I, j in rows - I} v(eps_i z_i + z_j) v(eps_i z_i - z_j),

    with eps the signs on I, u = eps_i z_i + eps_i' z_i' and u' = -u-1 if
    reflected else u+1, as a tuple of _factor_groups keys.
    """
    eps = dict(zip(I, signs))
    return (
        *(("w", i, eps[i]) for i in I),
        *(("pair", i, eps[i], i2, eps[i2], reflected) for i, i2 in itertools.combinations(I, 2)),
        *(("cross", i, eps[i], j) for i in I for j in rows if j not in eps),
    )


@functools.lru_cache(maxsize=64)
def _moves(n: int, r: int) -> tuple:
    """The moves of E_r at n, which depend on neither lambda nor p: per row
    set I, |I| <= r, q = r - |I|, the sign (-1)^{r+1} (-1)^q; the key tuples
    of the terms of U_{I^c, q}, the reflected move groups of every signed
    q-subset K of I^c crossed with the rest of I^c; and per sign vector eps
    on I, its row shift, the key tuple of V_{eps I, I^c} and the (signs, I)
    label of the pole message, the same objects at every r.  Tuples only,
    and equal keys are one object.  The U*V data expands (1/2^r) e_r Ytilde
    and E_hat_r carries (-1)^{r+1}, hence the sign (the polynomial oracle
    rules out the sign-free one at r = 2).
    """
    known = {moves[0][2][1]: moves for *_, moves in (_moves(n, r - 1) if r > 1 else ())}
    shared = {k: k for moves in known.values() for _, v, _ in moves for k in v}
    keys = lambda *move: tuple(shared.setdefault(k, k) for k in _move_keys(*move))
    signs = lambda q: itertools.product((1, -1), repeat=q)
    rows, table = range(1, n + 1), []
    for I in itertools.chain(*(itertools.combinations(rows, size) for size in range(r + 1))):
        Ic, q = tuple(j for j in rows if j not in I), r - len(I)
        U = [keys(K, s, Ic, True) for K in itertools.combinations(Ic, q) for s in signs(q)]
        moves = known.get(I) or tuple(
            (tuple(dict(zip(I, s)).get(i, 0) for i in rows), keys(I, s, rows, False), (s, I))
            for s in signs(len(I))
        )
        table.append(((-1) ** (r + 1 + q), tuple(U), moves))
    return tuple(table)


def _lead(keys, groups: Mapping) -> tuple[int, int, int]:
    """The leading term of a product of groups: orders add, leads multiply."""
    order, top, bottom = 0, 1, 1
    for key in keys:
        o, t, b = groups[key][1]
        order, top, bottom = order + o, top * t, bottom * b
    return order, top, bottom


def pieri_expand(r: int, lam: Partition, p: BesselParams) -> dict[Partition, Fraction]:
    """Expand E_hat_r * Ytilde_lambda over targets lam + e_{eps I}, |I| <= r.

    The coefficient of the (eps, I) move is U_{I^c, r-|I|} * V_{eps I, I^c},
    both evaluated at z = rho + lambda; moves leaving the partition lattice
    are omitted (their coefficients vanish identically).  Each move reaches
    a distinct target, so the result maps target -> nonzero coefficient.

    The coefficients are rational functions of (a, kappa) that can hit
    removable 0/0 cancellations at special rational parameters (for
    instance kappa = 1); they are therefore built from Affine factors along
    the perturbed line (a + t, kappa + t), and their value at t = 0 is the
    sum of the order-0 terms' leads, or limit_at_zero's where a term has
    negative order.  A genuine pole raises PoleError.
    """
    n = p.n
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    groups = _factor_groups(lam, p)
    parts = lam.parts + (0,) * (n - lam.length())
    out: dict[Partition, Fraction] = {}
    for sign, u_keys, moves in _moves(n, r):
        u_sums = None
        for shift, v_keys, move in moves:
            target = tuple(x + d for x, d in zip(parts, shift))
            if target[-1] < 0 or any(x < y for x, y in zip(target, target[1:])):
                continue
            if u_sums is None:
                u_sums = {}  # the U leads by order, summed as integer pairs
                for o, t, b in (_lead(keys, groups) for keys in u_keys):
                    top, bottom = u_sums.get(o, (0, 1))
                    u_sums[o] = (top * b + t * bottom, bottom * b)
            order, top, bottom = _lead(v_keys, groups)
            if order + min(u_sums) >= 0 and bottom and all(b for _, b in u_sums.values()):
                u_top, u_bottom = u_sums.get(-order, (0, 1))
                value = Fraction(top * u_top, bottom * u_bottom)
            else:  # a negative order or a dead denominator: the Laurent route
                value = limit_at_zero(
                    [join(*(groups[k][0] for k in itertools.chain(u, v_keys))) for u in u_keys],
                    f"Pieri coefficient has a genuine pole at move {move}",
                )
            c = sign * value  # (-1)^{r+1} (-1)^q U_{I^c, q} V_{eps I, I^c}
            if c:
                out[Partition(target)] = c
    return out


def pieri_verify(r: int, lam: Partition, p: BesselParams) -> bool:
    """Oracle check: multiply out E_hat_r * Ytilde_lambda and re-expand it
    in the renormalized basis by triangular peeling; compare exactly with
    pieri_expand."""
    lhs = E_hat_r(r, p.n) * renormalized_jack(lam, p).to_sym()
    expanded = peel(sym_to_jack(lhs, p.kappa), lambda mu: renormalized_jack(mu, p))
    coeffs = pieri_expand(r, lam, p)
    # a target without a Ytilde (an eigenvalue collision) can merge with a
    # smaller one in the limit, so it raises here rather than compare unequal
    for mu in coeffs:
        renormalized_jack(mu, p)
    return expanded == coeffs


# -- squared norms -------------------------------------------------------------


def norm_ratio(lam: Partition, p: BesselParams) -> Fraction:
    """N_lambda / N_(0) = (-4)^{|lambda|} times the product of both Delta
    ratios, as one limit, so that a pole of one may cancel a zero of the
    other; the (-1)^{|lambda|} of Delta_- makes the prefactor 4^{|lambda|}."""
    factors = join(delta_factors("+", lam, p), delta_factors("-", lam, p))
    return 4 ** lam.weight() * limit_at_zero([factors], f"Delta ratios at {lam!r} hit a pole")


def norm_ratio_product(lam: Partition, p: BesselParams) -> Fraction:
    """N_lambda / N_(0) assembled from the explicit rising/falling factorial
    products (the second, independently evaluated route), along the same
    line (a + t, kappa + t)."""
    a, kappa, n = Affine(p.a, ONE), Affine(p.kappa, ONE), p.n
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    rising = lambda x, m: [x + t for t in range(m)]
    falling = lambda x, m: [x - t for t in range(m)]
    num: list = []
    den: list = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = lam.part(i) - lam.part(j)
            s = lam.part(i) + lam.part(j)
            num += rising(kappa * (j - i + 1), d) + rising(kappa * (j - i - 1) + 1, d)
            den += rising(kappa * (j - i), d) + rising(kappa * (j - i) + 1, d)
            num += falling(-a - kappa * (2 * n - i - j + 1) + 1, s)
            num += falling(-a - kappa * (2 * n - i - j - 1), s)
            den += falling(-a - kappa * (2 * n - i - j) + 1, s)
            den += falling(-a - kappa * (2 * n - i - j), s)
    for i in range(1, n + 1):
        li = lam.part(i)
        num += rising(kappa * (n - i) + 1, li) + falling(-a - kappa * (n - i) + 1, li)
        den += falling(-a - 2 * kappa * (n - i) + 1, 2 * li)
        den += falling(-a - 2 * kappa * (n - i), 2 * li)
    return 4 ** lam.weight() * limit_at_zero(
        [(num, den)], "vanishing denominator in the norm product formula"
    )


@functools.lru_cache(maxsize=64)
def norm_n0_reduced(p: BesselParams) -> Fraction:
    """N_(0) divided by the transcendental scale 2^{(a-1)n} Gamma(1-a)^n,
    cached by parameters since every N_lambda of a Gram check scales it.

    Requires kappa to be a non-negative integer so every Gamma quotient is
    a finite rational product:

        N_(0)/scale = 2^{kappa n(n-1)} n!
                      prod_i [Gamma(i kappa)/Gamma(kappa)]
                             [Gamma(1-a-kappa(n+i-2))/Gamma(1-a)],

    with Gamma(i kappa)/Gamma(kappa) = (kappa+1)_{(i-1)kappa} / i, which
    also holds as the limit 1/i at kappa = 0.
    """
    a, kappa, n = p.a, p.kappa, p.n
    if kappa.denominator != 1 or kappa < 0:
        raise ValueError("reduced norms need kappa a non-negative integer")
    k = int(kappa)
    val = Fraction(2) ** (k * n * (n - 1)) * factorial(n)
    for i in range(1, n + 1):
        val *= rising_factorial(kappa + 1, (i - 1) * k) / i
        for t in range(1, k * (n + i - 2) + 1):
            d = 1 - a - t
            if d == 0:
                raise PoleError("Gamma shift hit a pole in the reduced norm")
            val /= d
    return val


def norm_full_reduced(lam: Partition, p: BesselParams) -> Fraction:
    """N_lambda divided by 2^{(a-1)n} Gamma(1-a)^n, as an exact rational."""
    bound = square_integrability_bound(lam.weight(), p)
    if p.a >= bound:
        raise ConvergenceError(f"norm undefined: need a < {bound}")
    return norm_n0_reduced(p) * norm_ratio(lam, p)
