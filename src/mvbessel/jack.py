"""Jack polynomials and the scalar data attached to them.

P_lambda is computed from its definition: the monic, dominance-triangular
eigenfunction of the degree-preserving Sutherland operator, obtained by a
triangular linear solve over the dominance class of lambda.  Hook products,
principal specializations and co-cover data come from explicit products;
the product formulas from the literature are kept as cross-checkable
secondary routes (see *_product functions) because their printed index
ranges disagree with the values forced by the operator actions.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import DegenerateEigenvalue, PoleError
from .partitions import Partition, dominance_leq, partitions_of, partitions_up_to
from .polyalg import ONE, ZERO, PartitionVector, SymPoly, accumulate

def eigenvalue_d(lam: Partition, kappa: Fraction, n: int) -> Fraction:
    """sum_i lam_i (lam_i - 1 + 2 kappa (n - i))."""
    kappa = Fraction(kappa)
    total = ZERO
    for i in range(1, lam.length() + 1):
        li = lam.part(i)
        total += li * (li - 1 + 2 * kappa * (n - i))
    return total


def raising_weights(mu: Partition) -> dict[Partition, int]:
    """Off-diagonal row mu of the Sutherland operator's matrix on the m basis.

    The coefficient of m_mu in D_2 m_nu, for nu != mu, is 2 kappa times
    the weight of nu returned here.  On one pair of rows,

        (x_i^2 d_i - x_j^2 d_j)(x_i^p x_j^q + x_i^q x_j^p)/(x_i - x_j)

    with p > q has coefficient p - q on every x_i^c x_j^{p+q-c} with
    q < c < p, so each nu comes from mu by pushing two parts
    mu_i >= mu_j apart to p > mu_i and mu_i + mu_j - p, with weight
    2p - mu_i - mu_j (Stanley, Adv. Math. 77 (1989), Thm 3.1).  Pairs with
    a zero part give nothing, so the number of variables does not enter;
    the endpoint terms c in {p, q} are the diagonal, eigenvalue_d.
    """
    parts = mu.parts
    out: dict[Partition, int] = {}
    for i, j in combinations(range(len(parts)), 2):
        bi, bj = parts[i], parts[j]
        for p in range(bi + 1, bi + bj + 1):
            raised = list(parts)
            raised[i], raised[j] = p, bi + bj - p
            nu = Partition(sorted(raised, reverse=True))
            out[nu] = out.get(nu, 0) + 2 * p - bi - bj
    return out


def triangular_solve(
    top: Partition,
    top_coeff: Fraction,
    below: Iterable[Partition],
    eigen: Callable[[Partition], Fraction],
    feed: Callable[[Partition, dict[Partition, Fraction]], Fraction],
) -> dict[Partition, Fraction]:
    """Coefficients u of a triangular eigenvector with u[top] = top_coeff.

    Each mu in `below` is solved in decreasing graded-lex order, which
    refines both dominance and containment, from

        (eigen(top) - eigen(mu)) u[mu] = feed(mu, u),

    where feed couples mu to the coefficients already in u; zero
    coefficients are left out of u.  Raises DegenerateEigenvalue when
    eigen(mu) = eigen(top).
    """
    e_top = eigen(top)
    u = {top: Fraction(top_coeff)}
    for mu in sorted(below, reverse=True):
        e_mu = eigen(mu)
        if e_mu == e_top:
            raise DegenerateEigenvalue(
                f"eigenvalue of {mu.parts} equals that of {top.parts} = {e_top}"
            )
        val = feed(mu, u) / (e_top - e_mu)
        if val:
            u[mu] = val
    return u


def peel(f, basis: Callable) -> dict[Partition, Fraction]:
    """Coefficients of f (a SymPoly or JackExpansion) on a triangular basis.

    basis(mu) has its graded-lex leading term at mu.  The leading term of
    the remainder is peeled off until nothing is left, so each subtraction
    only introduces strictly smaller partitions.
    """
    out: dict[Partition, Fraction] = {}
    rest = f
    while not rest.is_zero():
        mu = max(rest.coeffs)
        b = basis(mu)
        c = rest.coeff(mu) / b.coeff(mu)
        out[mu] = c
        rest = rest - b.scale(c)
    return out


def jack_in_monomials(lam: Partition, kappa: Fraction, n: int) -> SymPoly:
    """The monic Jack polynomial P_lambda in the m basis, for n variables.

    Triangular solve: P = m_lam + sum u_mu m_mu over mu strictly below lam
    in dominance, determined by the eigen-equation for the k=2 Sutherland
    operator, whose action on the m basis is read off raising_weights.
    Raises DegenerateEigenvalue on an eigenvalue collision.  Returns a
    fresh SymPoly each call, so callers may modify it.
    """
    kappa = Fraction(kappa)
    if lam.length() > n:
        raise ValueError(f"{lam!r} needs more than {n} variables")
    res = SymPoly(n)
    res.coeffs = dict(_jack_coeffs(lam, kappa, n))
    return res


@functools.lru_cache(maxsize=4096)
def _jack_coeffs(
    lam: Partition, kappa: Fraction, n: int
) -> tuple[tuple[Partition, Fraction], ...]:
    """The m-basis coefficients of P_lambda as immutable pairs."""
    below = [mu for mu in partitions_of(lam.weight(), n) if mu != lam and dominance_leq(mu, lam)]

    def feed(mu: Partition, u: dict[Partition, Fraction]) -> Fraction:
        return 2 * kappa * sum(
            (w * u[nu] for nu, w in raising_weights(mu).items() if nu in u), ZERO
        )

    return tuple(
        triangular_solve(lam, ONE, below, lambda mu: eigenvalue_d(mu, kappa, n), feed).items()
    )


def hook_products(lam: Partition, kappa: Fraction) -> tuple[Fraction, Fraction]:
    """(h_lam, h^lam): the lower and upper hook products of lambda.

    h_lam   = prod over cells (lam_i - j + kappa (lam'_j - i) + 1)
    h^lam   = prod over cells (lam_i - j + kappa (lam'_j - i + 1))
    """
    kappa = Fraction(kappa)
    conj = lam.conjugate()
    lower = upper = ONE
    for i in range(1, lam.length() + 1):
        for j in range(1, lam.part(i) + 1):
            arm = lam.part(i) - j
            leg = conj.part(j) - i
            lower *= arm + kappa * leg + 1
            upper *= arm + kappa * (leg + 1)
    return lower, upper


def principal_spec(lam: Partition, kappa: Fraction, n: int) -> Fraction:
    """P_lambda(1,...,1) via the hook-quotient product formula."""
    kappa = Fraction(kappa)
    if lam.length() > n:
        return ZERO
    if kappa == 0:
        raise PoleError("principal specialization needs kappa != 0")
    alpha = 1 / kappa
    conj = lam.conjugate()
    val = ONE
    for i in range(1, lam.length() + 1):
        for j in range(1, lam.part(i) + 1):
            num = n - (i - 1) + alpha * (j - 1)
            den = conj.part(j) - i + 1 + alpha * (lam.part(i) - j)
            if den == 0:
                raise PoleError(f"hook denominator vanished at cell ({i},{j})")
            val *= num / den
    return val


def psi_prime(lam: Partition, i: int, kappa: Fraction) -> Fraction:
    """Coefficient of P_{lam + e_i} in p_1 * P_lam (the one-box Pieri weight)."""
    kappa = Fraction(kappa)
    if lam.add_box(i) is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    val = ONE
    li = lam.part(i)
    for j in range(1, i):
        lj = lam.part(j)
        d1 = kappa * (j - i) + li - lj
        d2 = kappa * (j - i) + li - lj + 1
        if d1 == 0 or d2 == 0:
            raise PoleError("psi' denominator vanished")
        val *= (kappa * (j - i + 1) + li - lj) / d1
        val *= (kappa * (j - i - 1) + li - lj + 1) / d2
    return val


def binomial_cocover(lam: Partition, i: int, kappa: Fraction) -> Fraction:
    """Generalized binomial coefficient binom(lam + e_i, lam).

    Computed as psi' * h_{lam+e_i} / h_lam, the value forced by combining
    the p_1-multiplication and constant-differentiation actions on the
    Jack basis.
    """
    kappa = Fraction(kappa)
    up = lam.add_box(i)
    if up is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    h_lam, _ = hook_products(lam, kappa)
    if h_lam == 0:
        raise PoleError(f"hook product of {lam!r} vanished")
    h_up, _ = hook_products(up, kappa)
    return psi_prime(lam, i, kappa) * h_up / h_lam


def binomial_cocover_product(
    lam: Partition, i: int, kappa: Fraction, corrected: bool = True
) -> Fraction:
    """binom(lam + e_i, lam) from the closed product formula.

    With corrected=True the row-count prefactor uses the length of
    lam + e_i and the product runs over rows j <= len(lam + e_i), j != i;
    with corrected=False the formula is evaluated exactly as printed in the
    literature (prefactor uses len(lam), product over all j != i up to n is
    read as j <= len(lam)), which disagrees with the operator-forced values.
    """
    kappa = Fraction(kappa)
    up = lam.add_box(i)
    if up is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    ell = up.length() if corrected else lam.length()
    li = lam.part(i)
    val = li + 1 + kappa * (ell - i)
    for j in range(1, ell + 1):
        if j == i:
            continue
        lj = lam.part(j)
        den = li - lj + 1 + kappa * (j - i)
        if den == 0:
            raise PoleError("binomial product denominator vanished")
        val *= (li - lj + 1 + kappa * (j - i - 1)) / den
    return val


def spec_ratio_cocover(lam: Partition, i: int, kappa: Fraction, n: int) -> Fraction:
    """P_{lam+e_i}(1^n) / P_lam(1^n)."""
    up = lam.add_box(i)
    if up is None or up.length() > n:
        raise ValueError(f"row {i} of {lam!r} cannot grow within {n} variables")
    den = principal_spec(lam, kappa, n)
    if den == 0:
        raise PoleError("principal specialization vanished")
    return principal_spec(up, kappa, n) / den


def lower_weight(mu: Partition, i: int, kappa: Fraction, n: int) -> Fraction:
    """The one-box lowering weight: the coefficient of P_mu in E0 P_{mu+e_i}."""
    return spec_ratio_cocover(mu, i, kappa, n) * binomial_cocover(mu, i, kappa)


def spec_ratio_product(
    lam: Partition, i: int, kappa: Fraction, n: int, corrected: bool = True
) -> Fraction:
    """P_{lam+e_i}(1^n)/P_lam(1^n) from the closed product formula.

    corrected=True drops the leading kappa factor, replaces len(lam) by
    len(lam + e_i) and restricts both products to rows j <= len(lam + e_i);
    corrected=False follows the printed formula verbatim.
    """
    kappa = Fraction(kappa)
    up = lam.add_box(i)
    if up is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    li = lam.part(i)
    if corrected:
        ell = up.length()
        val = ONE
    else:
        ell = lam.length()
        val = kappa
    den0 = li + kappa * (ell - i + 1)
    if den0 == 0:
        raise PoleError("specialization-ratio denominator vanished")
    val *= (li + kappa * (n - i + 1)) / den0
    jmax = ell if corrected else n
    for j in range(1, jmax + 1):
        if j == i:
            continue
        lj = lam.part(j)
        if j < i:
            den = li - lj + 1 + kappa * (j - i - 1)
            if den == 0:
                raise PoleError("specialization-ratio denominator vanished")
            val *= (li - lj + 1 + kappa * (j - i)) / den
        else:
            den = li - lj + kappa * (j - i)
            if den == 0:
                raise PoleError("specialization-ratio denominator vanished")
            val *= (li - lj + kappa * (j - i + 1)) / den
    return val


# -- expansions in the Jack basis ---------------------------------------------


class JackExpansion(PartitionVector):
    """A vector of coefficients on the monic Jack basis {P_mu}."""

    __slots__ = ("kappa",)
    _mismatch = "mismatched Jack expansion contexts"
    _prefix = "P"

    def __init__(self, n: int, kappa: Fraction, coeffs: Mapping[Partition, Fraction] | None = None):
        self.kappa = Fraction(kappa)
        super().__init__(n, coeffs)

    def _context(self) -> tuple:
        return (self.n, self.kappa)

    def truncate(self, maxdeg: int) -> "JackExpansion":
        return self._new({lam: c for lam, c in self.coeffs.items() if lam.weight() <= maxdeg})

    def to_sym(self) -> SymPoly:
        total = SymPoly.zero(self.n)
        for lam, c in self.coeffs.items():
            total = total + jack_in_monomials(lam, self.kappa, self.n).scale(c)
        return total


def sym_to_jack(f: SymPoly, kappa: Fraction) -> JackExpansion:
    """Expand a symmetric polynomial in the monic Jack basis.

    Peels leading monomial coefficients; each P_lam is monic with leading
    term m_lam in graded-lex order, which refines dominance.
    """
    kappa = Fraction(kappa)
    return JackExpansion(f.n, kappa, peel(f, lambda lam: jack_in_monomials(lam, kappa, f.n)))


# -- the five basic operator actions ------------------------------------------

BASIC_OPS = ("E0", "E1", "D1", "D2", "MUL_P1")


def apply_basic(opid: str, v: JackExpansion) -> JackExpansion:
    """Action of one of the basic operators on a Jack-basis vector.

    E1 and D2 are diagonal; E0 and D1 remove one box; MUL_P1 adds one box.
    """
    if opid not in BASIC_OPS:
        raise ValueError(f"unknown operator {opid!r}")
    n, kappa = v.n, v.kappa
    out: dict[Partition, Fraction] = {}
    for lam, c in v.coeffs.items():
        if opid == "E1":
            accumulate(out, lam, c * lam.weight())
        elif opid == "D2":
            accumulate(out, lam, c * eigenvalue_d(lam, kappa, n))
        elif opid == "MUL_P1":
            for i in range(1, n + 1):
                up = lam.add_box(i)
                if up is not None:
                    accumulate(out, up, c * psi_prime(lam, i, kappa))
        else:  # E0 or D1: one-box lowering
            for i in range(1, lam.length() + 1):
                mu = lam.remove_box(i)
                if mu is None:
                    continue
                w = lower_weight(mu, i, kappa, n)
                if opid == "D1":
                    w *= lam.part(i) - 1 + kappa * (n - i)
                accumulate(out, mu, c * w)
    return v._new(out)


# -- generalized Pochhammer symbols and hypergeometric series ------------------


def rising_factorial(alpha: Fraction, m: int) -> Fraction:
    val = ONE
    alpha = Fraction(alpha)
    for t in range(m):
        val *= alpha + t
    return val


def gen_pochhammer(alpha: Fraction, lam: Partition, kappa: Fraction) -> Fraction:
    """prod_i [alpha - kappa (i-1)]_{lam_i} (rising factorials)."""
    alpha, kappa = Fraction(alpha), Fraction(kappa)
    val = ONE
    for i in range(1, lam.length() + 1):
        val *= rising_factorial(alpha - kappa * (i - 1), lam.part(i))
    return val


def hyperg_trunc(
    upper: list,
    lower: list,
    scale: Fraction,
    kappa: Fraction,
    n: int,
    maxdeg: int,
) -> JackExpansion:
    """Truncated hypergeometric series sum over |lam| <= maxdeg of

        prod [a_i]_lam / prod [b_j]_lam * scale^{|lam|} * P_lam / h_lam.

    The scale implements the substitution x -> scale*x, which multiplies the
    degree-|lam| term by scale^{|lam|}.  Raises PoleError when a lower
    parameter Pochhammer vanishes for a contributing partition.
    """
    kappa = Fraction(kappa)
    scale = Fraction(scale)
    upper = [Fraction(u) for u in upper]
    lower = [Fraction(b) for b in lower]
    out: dict[Partition, Fraction] = {}
    for lam in partitions_up_to(maxdeg, n):
        num = ONE
        for u in upper:
            num *= gen_pochhammer(u, lam, kappa)
        den = ONE
        for b in lower:
            den *= gen_pochhammer(b, lam, kappa)
        if den == 0:
            if num == 0:
                raise PoleError(f"indeterminate 0/0 term at {lam!r}")
            raise PoleError(f"lower-parameter Pochhammer vanished at {lam!r}")
        h_lam, _ = hook_products(lam, kappa)
        c = num / den * scale ** lam.weight() / h_lam
        if c:
            out[lam] = c
    return JackExpansion(n, kappa, out)
