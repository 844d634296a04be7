"""Jack polynomials and the scalar data attached to them.

P_lambda is the monic, dominance-triangular eigenfunction of the degree-
preserving Sutherland operator, from a triangular solve over the dominance
class of lambda.  The closed product formulas from the literature are affine
factor lists in kappa, taken by polyalg.limit_at_zero at a point (the
*_product functions, whose printed index ranges the ledger compares) or along
kappa + t (principal_spec and lower_weight, finite at kappa = 0 and where a
hook product vanishes whenever the limit is); the hook quotients stay the
independent, authoritative route.  A Jack-basis operator is
D_2 + D1 D_1 + E1 E_1 + E0 E_0 for three weights: apply_basic applies one,
and lowering_solve, behind the Bessel and Jacobi expansions, inverts one;
both read its diagonal and one-box lowering entries from one place each.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from itertools import combinations
from math import gcd
from types import MappingProxyType

from .errors import DegenerateEigenvalue, PoleError
from .partitions import Partition, co_covers, dominance_leq, partitions_of, partitions_up_to
from .polyalg import (
    ONE, ZERO, Affine, PartitionVector, SymPoly, accumulate, common_denominator, join,
    limit_at_zero, rational,
)

def eigenvalue_d(lam: Partition, kappa: Fraction, n: int) -> Fraction:
    """sum_i lam_i (lam_i - 1 + 2 kappa (n - i)): two integer sums, one Fraction step."""
    parts = lam.parts
    return sum(li * (li - 1) for li in parts) + 2 * rational(kappa) * sum(
        li * (n - i) for i, li in enumerate(parts, start=1)
    )


@functools.lru_cache(maxsize=4096)
def raising_weights(mu: Partition) -> Mapping[Partition, int]:
    """Off-diagonal row mu of the Sutherland operator's matrix on the m basis.

    The coefficient of m_mu in D_2 m_nu, for nu != mu, is 2 kappa times
    the weight of nu returned here.  On one pair of rows,

        (x_i^2 d_i - x_j^2 d_j)(x_i^p x_j^q + x_i^q x_j^p)/(x_i - x_j)

    with p > q has coefficient p - q on every x_i^c x_j^{p+q-c} with
    q < c < p, so each nu comes from mu by pushing two parts
    mu_i >= mu_j apart to p > mu_i and mu_i + mu_j - p, with weight
    2p - mu_i - mu_j (Stanley, Adv. Math. 77 (1989), Thm 3.1).  Pairs with
    a zero part give nothing, so the number of variables does not enter;
    the endpoint terms c in {p, q} are the diagonal, eigenvalue_d.  The row
    depends on mu alone, so it is cached, as a read-only mapping, for the
    solves of every lambda above mu.
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
    return MappingProxyType(out)


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
    u = {top: rational(top_coeff)}
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
    only introduces strictly smaller partitions.  The remainder and each
    basis vector are integers over their own common_denominator; a step
    scales the remainder by |lead|/gcd(rest[mu], lead), so it subtracts an
    integer multiple of the basis vector.
    """
    out: dict[Partition, Fraction] = {}
    d, nums = common_denominator(f.coeffs.values())
    rest = dict(zip(f.coeffs, nums))
    while rest:
        mu = max(rest)
        b = basis(mu)
        f._check(b)
        db, nums = common_denominator(b.coeffs.values())
        terms = dict(zip(b.coeffs, nums))
        lead = terms[mu]
        k = abs(lead // gcd(rest[mu], lead))
        if k != 1:
            d *= k
            rest = {nu: x * k for nu, x in rest.items()}
        c = rest[mu] // lead
        out[mu] = Fraction(c * db, d)
        for nu, x in terms.items():
            rest[nu] = rest.get(nu, 0) - c * x
            if not rest[nu]:
                del rest[nu]
    return out


@functools.lru_cache(maxsize=4096)
def jack_in_monomials(lam: Partition, kappa: Fraction, n: int) -> SymPoly:
    """The monic Jack polynomial P_lambda in the m basis, for n variables.

    Triangular solve: P = m_lam + sum u_mu m_mu over mu strictly below lam
    in dominance, determined by the eigen-equation for the k=2 Sutherland
    operator, whose action on the m basis is read off raising_weights.
    Raises DegenerateEigenvalue on an eigenvalue collision.
    """
    kappa = rational(kappa)
    if lam.length() > n:
        raise ValueError(f"{lam!r} needs more than {n} variables")
    below = [mu for mu in partitions_of(lam.weight(), n) if mu != lam and dominance_leq(mu, lam)]

    def feed(mu: Partition, u: dict[Partition, Fraction]) -> Fraction:
        return 2 * kappa * sum(
            (w * u[nu] for nu, w in raising_weights(mu).items() if nu in u), ZERO
        )

    solved = triangular_solve(lam, ONE, below, lambda mu: eigenvalue_d(mu, kappa, n), feed)
    return SymPoly(n, solved)


def hook_products(lam: Partition, kappa: Fraction) -> tuple[Fraction, Fraction]:
    """(h_lam, h^lam): the lower and upper hook products of lambda.

    h_lam   = prod over cells (lam_i - j + kappa (lam'_j - i) + 1)
    h^lam   = prod over cells (lam_i - j + kappa (lam'_j - i + 1))
    """
    kappa = rational(kappa)
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
    """P_lambda(1,...,1) via the hook-quotient product formula, each cell
    factor scaled by kappa: the product over cells of
    (kappa(n-i+1) + j-1) / (kappa(lam'_j-i+1) + lam_i-j), taken along
    kappa + t, so kappa = 0 gives m_lambda(1^n) = n!/((n-l)! prod_i m_i!)."""
    if lam.length() > n:
        return ZERO
    line = Affine(rational(kappa), ONE)
    conj = lam.conjugate()
    cells = [(i, j) for i in range(1, lam.length() + 1) for j in range(1, lam.part(i) + 1)]
    num = [line * (n - i + 1) + j - 1 for i, j in cells]
    den = [line * (conj.part(j) - i + 1) + lam.part(i) - j for i, j in cells]
    return limit_at_zero([(num, den)], "principal specialization has a pole")


def psi_prime(lam: Partition, i: int, kappa: Fraction) -> Fraction:
    """Coefficient of P_{lam + e_i} in p_1 * P_lam (the one-box Pieri weight),
    from its product over rows j < i as factors in kappa."""
    kappa = Affine(rational(kappa))
    if lam.add_box(i) is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    rows = [(j - i, lam.part(i) - lam.part(j)) for j in range(1, i)]
    num = [kappa * (k + 1) + d for k, d in rows] + [kappa * (k - 1) + d + 1 for k, d in rows]
    den = [kappa * k + d for k, d in rows] + [kappa * k + d + 1 for k, d in rows]
    return limit_at_zero([(num, den)], "psi' denominator vanished")


def binomial_cocover(lam: Partition, i: int, kappa: Fraction) -> Fraction:
    """Generalized binomial coefficient binom(lam + e_i, lam).

    Computed as psi' * h_{lam+e_i} / h_lam, the value forced by combining
    the p_1-multiplication and constant-differentiation actions on the
    Jack basis.
    """
    kappa = rational(kappa)
    up = lam.add_box(i)
    if up is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    h_lam, _ = hook_products(lam, kappa)
    if h_lam == 0:
        raise PoleError(f"hook product of {lam!r} vanished")
    h_up, _ = hook_products(up, kappa)
    return psi_prime(lam, i, kappa) * h_up / h_lam


def _binomial_factors(lam: Partition, i: int, kappa: Affine, corrected: bool):
    """binom(lam + e_i, lam) from the closed product formula, as factors in kappa.

    With corrected=True the row-count prefactor uses the length of
    lam + e_i and the product runs over rows j <= len(lam + e_i), j != i;
    with corrected=False the formula is evaluated exactly as printed in the
    literature (prefactor uses len(lam), product over all j != i up to n is
    read as j <= len(lam)), which disagrees with the operator-forced values.
    """
    up = lam.add_box(i)
    if up is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    ell = up.length() if corrected else lam.length()
    li = lam.part(i)
    rows = [(j, li - lam.part(j) + 1) for j in range(1, ell + 1) if j != i]
    num = [kappa * (ell - i) + li + 1] + [kappa * (j - i - 1) + d for j, d in rows]
    return num, [kappa * (j - i) + d for j, d in rows]


def binomial_cocover_product(
    lam: Partition, i: int, kappa: Fraction, corrected: bool = True
) -> Fraction:
    """_binomial_factors evaluated at kappa."""
    factors = _binomial_factors(lam, i, Affine(rational(kappa)), corrected)
    return limit_at_zero([factors], "binomial product denominator vanished")


def spec_ratio_cocover(lam: Partition, i: int, kappa: Fraction, n: int) -> Fraction:
    """P_{lam+e_i}(1^n) / P_lam(1^n)."""
    up = lam.add_box(i)
    if up is None or up.length() > n:
        raise ValueError(f"row {i} of {lam!r} cannot grow within {n} variables")
    den = principal_spec(lam, kappa, n)
    if den == 0:
        raise PoleError("principal specialization vanished")
    return principal_spec(up, kappa, n) / den


@functools.lru_cache(maxsize=4096)
def lower_weight(mu: Partition, i: int, kappa: Fraction, n: int) -> Fraction:
    """The one-box lowering weight: the coefficient of P_mu in E0 P_{mu+e_i}.

    The corrected spec-ratio and binomial factors as one list, taken along
    kappa + t.  Where the lower hook product h_mu vanishes the hook-quotient
    route has a pole, but the limit along the line is often finite (at
    kappa = -2, n = 2 the weight of mu = (2,1), i = 2 is 2); only a
    surviving negative order is a pole.  It involves neither a nor lambda,
    so every expansion in a suite asks for the same weights again; cached
    as an immutable Fraction.
    """
    line = Affine(rational(kappa), ONE)
    factors = join(_spec_ratio_factors(mu, i, line, n, True), _binomial_factors(mu, i, line, True))
    return limit_at_zero([factors], f"lowering weight at {mu!r}, row {i} has a pole")


def _spec_ratio_factors(lam: Partition, i: int, kappa: Affine, n: int, corrected: bool):
    """P_{lam+e_i}(1^n)/P_lam(1^n) from the closed product formula, as factors in kappa.

    corrected=True drops the leading kappa factor, replaces len(lam) by
    len(lam + e_i) and restricts both products to rows j <= len(lam + e_i);
    corrected=False follows the printed formula verbatim.
    """
    up = lam.add_box(i)
    if up is None:
        raise ValueError(f"adding a box in row {i} of {lam!r} is not a partition")
    li = lam.part(i)
    ell = up.length() if corrected else lam.length()
    num = [kappa * (n - i + 1) + li] + ([] if corrected else [kappa])
    den = [kappa * (ell - i + 1) + li]
    for j in range(1, (ell if corrected else n) + 1):
        d = li - lam.part(j)
        if j < i:
            num.append(kappa * (j - i) + d + 1)
            den.append(kappa * (j - i - 1) + d + 1)
        elif j > i:
            num.append(kappa * (j - i + 1) + d)
            den.append(kappa * (j - i) + d)
    return num, den


def spec_ratio_product(
    lam: Partition, i: int, kappa: Fraction, n: int, corrected: bool = True
) -> Fraction:
    """_spec_ratio_factors evaluated at kappa."""
    factors = _spec_ratio_factors(lam, i, Affine(rational(kappa)), n, corrected)
    return limit_at_zero([factors], "specialization-ratio denominator vanished")


# -- expansions in the Jack basis ---------------------------------------------


class JackExpansion(PartitionVector):
    """A vector of coefficients on the monic Jack basis {P_mu}."""

    __slots__ = ("kappa",)
    _mismatch = "mismatched Jack expansion contexts"
    _prefix = "P"

    def __init__(self, n: int, kappa: Fraction, coeffs: Mapping[Partition, Fraction] | None = None):
        object.__setattr__(self, "kappa", rational(kappa))
        super().__init__(n, coeffs)

    def _context(self) -> tuple:
        return (self.n, self.kappa)

    def truncate(self, maxdeg: int) -> "JackExpansion":
        return self._new({lam: c for lam, c in self.coeffs.items() if lam.weight() <= maxdeg})

    def to_sym(self) -> SymPoly:
        out: dict[Partition, Fraction] = {}
        for lam, c in self.coeffs.items():
            for mu, v in jack_in_monomials(lam, self.kappa, self.n).coeffs.items():
                accumulate(out, mu, c * v)
        return SymPoly(self.n, out)


def sym_to_jack(f: SymPoly, kappa: Fraction) -> JackExpansion:
    """Expand a symmetric polynomial in the monic Jack basis.

    Peels leading monomial coefficients; each P_lam is monic with leading
    term m_lam in graded-lex order, which refines dominance.
    """
    kappa = rational(kappa)
    return JackExpansion(f.n, kappa, peel(f, lambda lam: jack_in_monomials(lam, kappa, f.n)))


# -- the Jack-basis operators D_2 + D1 D_1 + E1 E_1 + E0 E_0 -------------------


def _diagonal(mu: Partition, kappa: Fraction, n: int, E1) -> Fraction:
    """The coefficient of P_mu in the image of P_mu: d_mu + E1 |mu|."""
    return eigenvalue_d(mu, kappa, n) + E1 * mu.weight()


def _lowering(mu: Partition, i: int, kappa: Fraction, n: int, E0, D1) -> Fraction:
    """The coefficient of P_mu in the image of P_{mu+e_i}: E_0 gives
    lower_weight(mu, i), and D_1 that times mu_i + kappa (n - i)."""
    w = E0 + D1 * (mu.part(i) + kappa * (n - i)) if D1 else E0
    return lower_weight(mu, i, kappa, n) * w


def apply_basic(v: JackExpansion, E1=0, E0=0, D1=0) -> JackExpansion:
    """D_2 + D1 D_1 + E1 E_1 + E0 E_0 applied to v in one pass.

    D_2 and E_1 are diagonal; D_1 and E_0 take P_lam to multiples of the
    P_mu with mu = lam - e_i.
    """
    n, kappa = v.n, v.kappa
    out: dict[Partition, Fraction] = {}
    for lam, c in v.coeffs.items():
        accumulate(out, lam, c * _diagonal(lam, kappa, n, E1))
        if D1 or E0:
            for i, mu in co_covers(lam, n, "down"):
                accumulate(out, mu, c * _lowering(mu, i, kappa, n, E0, D1))
    return v._new(out)


def lowering_solve(
    lam: Partition, top: Fraction, n: int, kappa: Fraction, E1=0, E0=0, D1=0
) -> JackExpansion:
    """The eigenvector of D_2 + D1 D_1 + E1 E_1 + E0 E_0 with coefficient top on P_lam.

    Only D_1 and E_0 couple P_mu to its co-covers mu + e_i, so the solve runs
    over the partitions inside lam.  The lower_weight of every co-cover inside
    lam is evaluated, also where its coefficient is zero, so a pole is never
    multiplied away.
    """
    if lam.length() > n:
        raise ValueError(f"{lam!r} needs more than {n} variables")
    inside = [mu for mu in partitions_up_to(lam.weight(), n) if mu != lam and lam.contains(mu)]
    rows = range(1, min(n, lam.length()) + 1)

    def feed(mu: Partition, u: dict[Partition, Fraction]) -> Fraction:
        rhs = ZERO
        for i in rows:
            up = mu.add_box(i)
            if up is not None and lam.contains(up):
                rhs += _lowering(mu, i, kappa, n, E0, D1) * u.get(up, ZERO)
        return rhs

    return JackExpansion(
        n, kappa, triangular_solve(lam, top, inside, lambda mu: _diagonal(mu, kappa, n, E1), feed)
    )


# -- generalized Pochhammer symbols and hypergeometric series ------------------


def rising_factorial(alpha: Fraction, m: int) -> Fraction:
    val = ONE
    alpha = rational(alpha)
    for t in range(m):
        val *= alpha + t
    return val


def gen_pochhammer(alpha: Fraction, lam: Partition, kappa: Fraction) -> Fraction:
    """prod_i [alpha - kappa (i-1)]_{lam_i} (rising factorials)."""
    alpha, kappa = rational(alpha), rational(kappa)
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
    parameter Pochhammer or the hook product h_lam vanishes for a partition
    up to maxdeg.
    """
    kappa = rational(kappa)
    scale = rational(scale)
    upper = [rational(u) for u in upper]
    lower = [rational(b) for b in lower]
    out: dict[Partition, Fraction] = {}
    for lam in partitions_up_to(maxdeg, n):
        num = [Affine(gen_pochhammer(u, lam, kappa)) for u in upper]
        den = [Affine(gen_pochhammer(b, lam, kappa)) for b in lower]
        den.append(Affine(hook_products(lam, kappa)[0]))
        pole = f"lower-parameter Pochhammer or hook product vanished at {lam!r}"
        c = limit_at_zero([(num, den)], pole) * scale ** lam.weight()
        if c:
            out[lam] = c
    return JackExpansion(n, kappa, out)
