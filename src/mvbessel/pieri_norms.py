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

Absolute Gamma values never materialize; the lone transcendental scale
2^{(a-1)n} Gamma(1-a)^n of the norm formulas is carried implicitly.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial, prod

from .errors import ConvergenceError, PoleError
from .partitions import Partition
from .polyalg import ONE, ZERO, SymPoly, elementary
from .bessel import (
    BesselParams,
    BesselPolynomial,
    bessel_expand,
    rho_vector,
    square_integrability_bound,
)
from .jack import JackExpansion, peel, rising_factorial, sym_to_jack


def falling_factorial(alpha: Fraction, m: int) -> Fraction:
    val = ONE
    alpha = Fraction(alpha)
    for t in range(m):
        val *= alpha - t
    return val


class Affine:
    """c + s*t, one factor of a Pieri coefficient along the perturbed line.

    Closed under the sums and scalar multiples that v and w are built from.
    """

    __slots__ = ("c", "s")

    def __init__(self, c, s=ZERO):
        self.c = c
        self.s = s

    def __add__(self, other):
        if isinstance(other, Affine):
            return Affine(self.c + other.c, self.s + other.s)
        return Affine(self.c + other, self.s)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.c, -self.s)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, k):
        return Affine(self.c * k, self.s * k)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return Affine(self.c / k, self.s / k)

    def __repr__(self) -> str:
        return f"Affine({self.c}, {self.s})"


def v_factors(z, kappa):
    """v(z) = (kappa + z)/z as (numerator factors, denominator factors)."""
    return (kappa + z,), (z,)


def w_factors(z, a):
    """w(z) = ((a-1)/2 + z)/(2z(2z+1)) as (numerator factors, denominator factors)."""
    return ((a - 1) / 2 + z,), (2 * z, 2 * z + 1)


def _ratio(factors, pole: str) -> Fraction:
    num, den = factors
    if 0 in den:
        raise PoleError(pole)
    return prod(num, start=ONE) / prod(den, start=ONE)


def delta_ratio(sign: str, lam: Partition, p: BesselParams) -> Fraction:
    """Delta_sign(rho + lambda)/Delta_sign(rho).

    Each v or w factor of Delta_sign, at rho-combination z0 with shift m
    (lambda_i - lambda_j, lambda_i + lambda_j or lambda_i, all >= 0 since
    lambda is a partition), contributes the steps at u = z0 + t,
    t = 0..m-1: v(u) and w(u) for '+', v(-u-1) and -w(-u-1) for '-'.
    """
    n = p.n
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    if sign == "+":
        at = lambda z0, t: z0 + t
    elif sign == "-":
        at = lambda z0, t: -z0 - t - 1
    else:
        raise ValueError("sign must be '+' or '-'")
    z = rho_vector(p)
    m = [lam.part(i) for i in range(1, n + 1)]
    num: list = []
    den: list = []

    def take(factors) -> None:
        num.extend(factors[0])
        den.extend(factors[1])

    for i in range(n):
        for j in range(i + 1, n):
            for z0, shift in ((z[i] - z[j], m[i] - m[j]), (z[i] + z[j], m[i] + m[j])):
                for t in range(shift):
                    take(v_factors(at(z0, t), p.kappa))
        for t in range(m[i]):
            take(w_factors(at(z[i], t), p.a))
        if sign == "-":
            num.append((-1) ** m[i])
    return _ratio((num, den), f"Delta_{sign} ratio at {lam!r} hits a pole of v or w")


def renormalize(Y: BesselPolynomial) -> BesselPolynomial:
    """The unit-constant-term normalization of Y_lambda.

    Divides by 2^{|lambda|} times the plus-type shifted-factor ratio at
    rho + lambda over rho.
    """
    ratio = delta_ratio("+", Y.lam, Y.params)
    if ratio == 0:
        raise PoleError(f"normalization ratio vanished for {Y.lam!r}")
    c = Fraction(1, 2 ** Y.lam.weight()) / ratio
    return BesselPolynomial(Y.lam, Y.params, Y.jack_coeffs.scale(c))


@functools.lru_cache(maxsize=4096)
def _renormalized_coeffs(
    lam: Partition, p: BesselParams
) -> tuple[tuple[Partition, Fraction], ...]:
    """The Jack coefficients of Ytilde_lambda as immutable (Partition, Fraction) pairs."""
    return tuple(renormalize(bessel_expand(lam, p)).jack_coeffs.sorted_coeffs())


def renormalized_jack(lam: Partition, p: BesselParams) -> JackExpansion:
    """Ytilde_lambda on the Jack basis: a fresh vector, which callers may modify."""
    return JackExpansion(p.n, p.kappa, dict(_renormalized_coeffs(lam, p)))


def E_hat_r(r: int, n: int) -> SymPoly:
    """((-1)^{r+1}/2^r) e_r, the normalized elementary symmetric polynomial."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return elementary(r, n).scale(Fraction((-1) ** (r + 1), 2**r))


def _constant_ratio(num, den) -> Fraction:
    """prod(f.c for f in num) / prod(f.c for f in den), multiplied out over
    the integers and reduced once."""
    top = bottom = 1
    for f in num:
        top *= f.c.numerator
        bottom *= f.c.denominator
    for f in den:
        top *= f.c.denominator
        bottom *= f.c.numerator
    return Fraction(top, bottom)


def limit_at_zero(terms) -> Fraction:
    """The value at t = 0 of a sum of products of Affine factors.

    Each term is a pair (numerator factors, denominator factors).  A term
    with no zero-constant factor on either side is regular at t = 0 and
    contributes the plain product of its constants.  A term with v more
    zero-constant factors upstairs than downstairs is t^v R(t) with
    R(0) != 0, so R is expanded only to degree -v; the Laurent
    coefficients of t^-m ... t^0 are summed over all terms.  Raises
    PoleError if a negative-order coefficient survives the sum.
    """
    laurent: dict[int, Fraction] = {0: ZERO}
    for num, den in terms:
        zeros_up = sum(not f.c for f in num)
        zeros_down = sum(not f.c for f in den)
        if not zeros_up and not zeros_down:
            laurent[0] += _constant_ratio(num, den)
            continue
        order = zeros_up - zeros_down
        if order > 0:
            continue
        series = [ONE] + [ZERO] * -order
        for f in num:
            if f.c == 0:
                series = [x * f.s for x in series]
            else:
                series = [f.c * x + f.s * y for x, y in zip(series, [ZERO] + series)]
        for f in den:
            if f.c == 0:
                series = [x / f.s for x in series]
            else:
                quotient: list[Fraction] = []
                for x in series:
                    quotient.append((x - f.s * quotient[-1]) / f.c if quotient else x / f.c)
                series = quotient
        for k, x in enumerate(series, start=order):
            laurent[k] = laurent.get(k, ZERO) + x
    if any(x for k, x in laurent.items() if k < 0):
        raise PoleError("pole at t = 0")
    return laurent[0]


def _join(*groups):
    """One (numerator, denominator) factor group from several."""
    return tuple(f for g in groups for f in g[0]), tuple(f for g in groups for f in g[1])


class _FactorTable(dict):
    """The factor groups of one Pieri call at z, each built from
    v_factors/w_factors on first use and shared by every term after that.

    Keys name 1-based rows and signs e = +-1 (pairs i < i2, crosses j != i):

        ("w", i, e)                        w(e z_i)
        ("pair", i, e, i2, e2, reflected)  v(u) v(u'),  u = e z_i + e2 z_i2,
                                           u' = -u-1 if reflected else u+1
        ("cross", i, e, j)                 v(e z_i + z_j) v(e z_i - z_j)
    """

    def __init__(self, z: tuple, a, kappa):
        super().__init__()
        self.a, self.kappa = a, kappa
        self.ez = {(i, e): e * zi for i, zi in enumerate(z, start=1) for e in (1, -1)}

    def __missing__(self, key):
        kind, i, e, *rest = key
        x = self.ez[i, e]
        if kind == "w":
            group = w_factors(x, self.a)
        elif kind == "pair":
            i2, e2, reflected = rest
            u = x + self.ez[i2, e2]
            step = -u - 1 if reflected else u + 1
            group = _join(v_factors(u, self.kappa), v_factors(step, self.kappa))
        else:
            zj = self.ez[rest[0], 1]
            group = _join(v_factors(x + zj, self.kappa), v_factors(x - zj, self.kappa))
        self[key] = group
        return group


def _move_factors(eps, I, J, table: _FactorTable, reflected: bool):
    """Numerator and denominator factors of

        prod_{i in I} w(eps_i z_i) prod_{i < i' in I} v(u) v(u')
        prod_{i in I, j in J} v(eps_i z_i + z_j) v(eps_i z_i - z_j),

    with u = eps_i z_i + eps_i' z_i' and u' = -u-1 if reflected else u+1:
    a concatenation of the call's shared factor groups.
    """
    groups = [table["w", i, eps[i]] for i in I]
    groups += [
        table["pair", i, eps[i], i2, eps[i2], reflected]
        for i, i2 in itertools.combinations(I, 2)
    ]
    groups += [table["cross", i, eps[i], j] for i in I for j in J]
    return [f for g in groups for f in g[0]], [f for g in groups for f in g[1]]


def _coefficient_terms(eps, I, Ic, p: int, table: _FactorTable) -> list:
    """The terms of (-1)^p U_{I^c, p} V_{eps I, I^c}: V is the unreflected
    move factor of (eps, I), and U sums the reflected move factors of
    every signed p-subset of I^c."""
    v_num, v_den = _move_factors(eps, I, Ic, table, reflected=False)
    terms = []
    for K in itertools.combinations(Ic, p):
        rest = tuple(j for j in Ic if j not in K)
        for signs in itertools.product((1, -1), repeat=p):
            num, den = _move_factors(dict(zip(K, signs)), K, rest, table, reflected=True)
            terms.append((num + v_num, den + v_den))
    return terms


def _shift_target(lam: Partition, n: int, I, eps) -> Partition | None:
    parts = [lam.part(i) for i in range(1, n + 1)]
    for i in I:
        parts[i - 1] += eps[i]
    if any(x < 0 for x in parts):
        return None
    if any(parts[i] < parts[i + 1] for i in range(n - 1)):
        return None
    return Partition(tuple(parts))


def pieri_expand(r: int, lam: Partition, p: BesselParams) -> dict[Partition, Fraction]:
    """Expand E_hat_r * Ytilde_lambda over targets lam + e_{eps I}, |I| <= r.

    The coefficient of the (eps, I) move is U_{I^c, r-|I|} * V_{eps I, I^c},
    both evaluated at z = rho + lambda; moves leaving the partition lattice
    are omitted (their coefficients vanish identically).  Each move reaches
    a distinct target, so the result maps target -> nonzero coefficient.

    The coefficients are rational functions of (a, kappa) that can hit
    removable 0/0 cancellations at special rational parameters (for
    instance kappa = 1); they are therefore built from Affine factors along
    the perturbed line (a + t, kappa + t) and their value taken at t = 0 by
    limit_at_zero.  A genuine pole raises PoleError.
    """
    n = p.n
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    rho = rho_vector(p)
    # rho_i(t) = (kappa+t)(n-i) + (a+t-1)/2, so the slope at index i is n-i+1/2
    z = tuple(
        Affine(rho[i] + lam.part(i + 1), Fraction(2 * (n - i - 1) + 1, 2))
        for i in range(n)
    )
    table = _FactorTable(z, Affine(p.a, ONE), Affine(p.kappa, ONE))
    out: dict[Partition, Fraction] = {}
    for size in range(r + 1):
        for I in itertools.combinations(range(1, n + 1), size):
            Ic = tuple(j for j in range(1, n + 1) if j not in I)
            for signs in itertools.product((1, -1), repeat=size):
                eps = dict(zip(I, signs))
                target = _shift_target(lam, n, I, eps)
                if target is None:
                    continue
                q = r - size
                try:
                    value = limit_at_zero(_coefficient_terms(eps, I, Ic, q, table))
                except PoleError:
                    raise PoleError(
                        f"Pieri coefficient has a genuine pole at move {(signs, I)}"
                    ) from None
                # The U*V data expands (1/2^r) e_r * Ytilde; with E_hat_r
                # carrying the extra (-1)^{r+1} the coefficients pick it up
                # too (verified against the polynomial oracle, which rules
                # out the sign-free transcription at r = 2).
                c = (-1) ** (r + 1) * (-1) ** q * value
                if c:
                    out[target] = c
    return out


def pieri_verify(r: int, lam: Partition, p: BesselParams) -> bool:
    """Oracle check: multiply out E_hat_r * Ytilde_lambda and re-expand it
    in the renormalized basis by triangular peeling; compare exactly with
    pieri_expand."""
    lhs = E_hat_r(r, p.n) * renormalized_jack(lam, p).to_sym()
    expanded = peel(sym_to_jack(lhs, p.kappa), lambda mu: renormalized_jack(mu, p))
    return expanded == pieri_expand(r, lam, p)


# -- squared norms -------------------------------------------------------------


def norm_ratio(lam: Partition, p: BesselParams) -> Fraction:
    """N_lambda / N_(0) = (-4)^{|lambda|} times the product of both Delta ratios."""
    return (
        Fraction(-4) ** lam.weight()
        * delta_ratio("+", lam, p)
        * delta_ratio("-", lam, p)
    )


def norm_ratio_product(lam: Partition, p: BesselParams) -> Fraction:
    """N_lambda / N_(0) assembled from the explicit rising/falling factorial
    products (the second, independently evaluated route)."""
    a, kappa, n = p.a, p.kappa, p.n
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    val = Fraction(4) ** lam.weight()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = lam.part(i) - lam.part(j)
            s = lam.part(i) + lam.part(j)
            num = rising_factorial(kappa * (j - i + 1), d) * rising_factorial(
                kappa * (j - i - 1) + 1, d
            )
            den = rising_factorial(kappa * (j - i), d) * rising_factorial(
                kappa * (j - i) + 1, d
            )
            num *= falling_factorial(-a - kappa * (2 * n - i - j + 1) + 1, s)
            num *= falling_factorial(-a - kappa * (2 * n - i - j - 1), s)
            den *= falling_factorial(-a - kappa * (2 * n - i - j) + 1, s)
            den *= falling_factorial(-a - kappa * (2 * n - i - j), s)
            if den == 0:
                raise PoleError("vanishing denominator in the norm product formula")
            val *= num / den
    for i in range(1, n + 1):
        li = lam.part(i)
        num = rising_factorial(kappa * (n - i) + 1, li) * falling_factorial(
            -a - kappa * (n - i) + 1, li
        )
        den = falling_factorial(-a - 2 * kappa * (n - i) + 1, 2 * li) * falling_factorial(
            -a - 2 * kappa * (n - i), 2 * li
        )
        if den == 0:
            raise PoleError("vanishing denominator in the norm product formula")
        val *= num / den
    return val


def norm_n0_reduced(p: BesselParams) -> Fraction:
    """N_(0) divided by the transcendental scale 2^{(a-1)n} Gamma(1-a)^n.

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
