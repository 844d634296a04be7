"""Exact moment integration, Gram matrices, and the two-variable functional.

The weight x^{a-2} e^{-2/x} on (0, infinity) has moments that reduce, after
dividing out the fixed transcendental scale 2^{a-1} Gamma(1-a), to rational
functions of a.  For non-negative integer kappa the pair interaction
prod |x_i - x_j|^{2 kappa} is a polynomial, so every inner product of
symmetric polynomials is a finite sum of products of one-dimensional
reduced moments and stays exactly rational.  This gives an independent
oracle for orthogonality and for the closed norm formulas.

The one-variable moments are read from one cached prefix table per a.  The
moment functional L(x^alpha) = prod_i mom(alpha_i) and Delta^{2 kappa} are
both symmetric, so T(delta) = L(x^delta Delta^{2 kappa}) depends only on
the sorted delta, and the monomial pairing <m_nu, m_mu> is a short sum of
T values.  Each T sums integers: the moments are put over their common
denominator by polyalg.common_denominator, and T divides once.
Delta^{2 kappa}, T and the pairing are cached under immutable keys, so
Delta^{2 kappa} is built once per (n, 2 kappa).

Every pairing of polynomials goes through one bilinear helper,
bilinear_matrix: given coefficient maps and a cached pairing of basis
elements, it contracts each column once, so each entry is one dot product.
inner_product is that helper on a single pair and gram_matrix on the whole
basis, both over the monomial pairing; functional_matrix is the same helper
over the two-variable functional's pairing F(m_nu m_rho).

For n = 2 the same structure is packaged as a linear functional on the
polynomial ring in the elementary symmetric polynomials e1, e2, with its
moments generated by two recurrences.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .bessel import BesselParams, bessel_expand, square_integrability_bound
from .errors import ConvergenceError, DegenerateRecurrence
from .operators import apply_higher
from .partitions import FrozenRecord, Partition, partitions_up_to
from .polyalg import SymPoly, common_denominator, orbit, orbit_size, rational


def check_L2_condition(m: int, p: BesselParams) -> bool:
    """Whether degree-m polynomials are square-integrable: a < -2(m + kappa(n-1)) + 1."""
    if p.kappa < 0:
        raise ValueError("kappa must be non-negative")
    return p.a < square_integrability_bound(m, p)


def moment_1d(p: int, a: Fraction) -> Fraction:
    """Reduced moment of x^p: integral of x^{p+a-2} e^{-2/x} over (0, infinity)
    equals 2^{a-1} Gamma(1-a) times 2^p / prod_{j=0}^{p-1} (-a - j).

    Requires p < 1 - a for convergence.
    """
    return _moments(p, a)[p]


def _moments(top: int, a: Fraction) -> tuple[Fraction, ...]:
    """The reduced moments of x^0, ..., x^top, and possibly a few more.

    Raises as moment_1d does when x^top has no moment.  The table sizes are
    powers of two capped at the number of convergent moments, so each a
    keeps a handful of tables however many exponents are asked for.
    """
    a = rational(a)
    if top < 0:
        raise ValueError("exponent must be non-negative")
    if top >= 1 - a:
        raise ConvergenceError(f"moment of x^{top} diverges at a = {a}")
    return _moment_table(a, min(1 << top.bit_length(), math.ceil(1 - a)))


@functools.lru_cache(maxsize=256)
def _moment_table(a: Fraction, size: int) -> tuple[Fraction, ...]:
    """mom(0), ..., mom(size - 1) by mom(0) = 1, mom(k) = mom(k-1) 2 / (-a - k + 1)."""
    moms = [Fraction(1)]
    for k in range(1, size):
        moms.append(moms[-1] * 2 / (-a - k + 1))
    return tuple(moms)


def bilinear_matrix(fs: list[dict], gs: list[dict], pair) -> list[list[Fraction]]:
    """[B(f, g) for g in gs] for f in fs, with B(f, g) = sum_{nu, rho} f_nu
    g_rho pair(nu, rho) over coefficient maps f and g.

    Each column w_g[nu] = sum_rho g_rho pair(nu, rho) is contracted once over
    the union of the row supports, so every entry is one dot product
    sum_nu f_nu w_g[nu].  pair is asked only for nu in a row support and rho
    in a column support, once per entry of a column, so callers cache it.
    """
    support = set().union(*fs)
    cols = [{nu: sum(c * pair(nu, rho) for rho, c in g.items()) for nu in support} for g in gs]
    return [[sum(c * w[nu] for nu, c in f.items()) for w in cols] for f in fs]


def _oracle_two_kappa(polys: list[SymPoly], p: BesselParams) -> int:
    """2 kappa, once kappa is a non-negative integer and every polynomial has
    p.n variables; checked before any pairing."""
    if p.kappa.denominator != 1 or p.kappa < 0:
        raise ValueError("moment oracle needs kappa a non-negative integer")
    counts = [f.n for f in polys] + [p.n]
    if len(set(counts)) > 1:
        raise ValueError("variable count mismatch: " + ", ".join(map(str, counts)))
    return 2 * int(p.kappa)


def inner_product(f: SymPoly, g: SymPoly, p: BesselParams) -> Fraction:
    """The inner product of f and g divided by the fixed scale
    2^{(a-1)n} Gamma(1-a)^n, as sum_{nu, mu} f_nu g_mu <m_nu, m_mu>.

    Requires kappa to be a non-negative integer.  The x_1-degree adds over
    products, so the largest exponent in f*g*Delta^{2 kappa} is D = max nu_1(f)
    + max nu_1(g) + 2 kappa (n - 1); when x^D has no moment the whole
    computation raises ConvergenceError, naming the first exponent without
    one, before any sum is taken.
    """
    two_kappa = _oracle_two_kappa([f, g], p)
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    top = max(lam.part(1) for lam in f.coeffs) + max(lam.part(1) for lam in g.coeffs)
    top += two_kappa * (p.n - 1)
    first_divergent = max(0, math.ceil(1 - p.a))  # x^k has a moment iff k < 1 - a
    if top >= first_divergent:
        moment_1d(first_divergent, p.a)  # raises ConvergenceError
    return _monomial_form([f], [g], p, two_kappa)[0][0]


def _monomial_form(
    fs: list[SymPoly], gs: list[SymPoly], p: BesselParams, two_kappa: int
) -> list[list[Fraction]]:
    """bilinear_matrix over the m-coefficients and the monomial pairing."""
    return bilinear_matrix(
        [f.coeffs for f in fs],
        [g.coeffs for g in gs],
        # the pairing is symmetric, so both orders share one cache entry
        lambda nu, rho: _monomial_pairing(*sorted((nu, rho)), p.n, p.a, two_kappa),
    )


@functools.lru_cache(maxsize=4096)
def _monomial_pairing(
    nu: Partition, mu: Partition, n: int, a: Fraction, two_kappa: int
) -> Fraction:
    """<m_nu, m_mu> = |S_n nu| sum_{beta in S_n mu} T(sort(nu + beta)).

    Every monomial of the orbit of nu pairs with m_mu alike, because m_mu
    and the weight are symmetric.
    """
    padded = nu.parts + (0,) * (n - nu.length())
    pair = sum(
        _weighted_moment(tuple(sorted(map(sum, zip(padded, beta)), reverse=True)), a, two_kappa)
        for beta in orbit(mu, n)
    )
    return orbit_size(nu, n) * pair


@functools.lru_cache(maxsize=4096)
def _weighted_moment(delta: tuple[int, ...], a: Fraction, two_kappa: int) -> Fraction:
    """T(delta) = L(x^delta * Delta^{two_kappa}) = sum_gamma Delta_gamma
    prod_i mom(delta_i + gamma_i), with Delta = prod_{i<j} (x_i - x_j).

    Delta^{two_kappa} is symmetric, so T depends only on the sorted delta.
    The moments are put over their common denominator (common_denominator),
    so the sum runs over integers.  Every exponent must have a moment.
    """
    n = len(delta)
    top = max(delta) + two_kappa * (n - 1)
    common, nums = common_denominator(_moments(top, a)[: top + 1])
    rows = [nums[d:] for d in delta]
    total = 0
    for exps, h in _vandermonde_power(n, two_kappa):
        for row, e in zip(rows, exps):
            h *= row[e]
        total += h
    return Fraction(total, common**n)


@functools.lru_cache(maxsize=8)
def _vandermonde_power(n: int, two_kappa: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """prod_{i<j} (x_i - x_j)^{two_kappa} as integer terms, variables 0-based."""
    terms = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(two_kappa):
                terms = _times_difference(terms, i, j)
    return tuple(terms.items())


def _times_difference(terms: dict, i: int, j: int) -> dict:
    """The integer polynomial terms * (x_i - x_j), variables 0-based."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        up = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
        out[up] = out.get(up, 0) + c
        up = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
        out[up] = out.get(up, 0) - c
    return {e: c for e, c in out.items() if c}


def gram_matrix(m: int, p: BesselParams) -> list[list[Fraction]]:
    """Gram matrix of {Y_lambda : |lambda| <= m} under the inner product,
    each entry divided by the fixed scale 2^{(a-1)n} Gamma(1-a)^n.

    Basis ordered by graded lexicographic partition order.  Diagonal, with
    diagonal entries given by the closed norm formula; this function computes
    the entries from moments and leaves the comparison to callers.  The
    entries are those of inner_product, taken together by bilinear_matrix
    over the monomial pairing, so each basis element is contracted once.
    """
    if not check_L2_condition(m, p):
        raise ConvergenceError(
            f"square-integrability fails: need a < {square_integrability_bound(m, p)}"
        )
    basis = [bessel_expand(lam, p).to_sym() for lam in partitions_up_to(m, p.n)]
    return _monomial_form(basis, basis, p, _oracle_two_kappa(basis, p))


def symmetry_check(d: int, f: SymPoly, g: SymPoly, p: BesselParams) -> bool:
    """Whether the order-d eigenoperator is symmetric on the pair (f, g)."""
    lhs = inner_product(apply_higher(d, f, p), g, p)
    rhs = inner_product(f, apply_higher(d, g, p), p)
    return lhs == rhs


class MomentTable2(FrozenRecord):
    """Moments I[n, m] of e1^n e2^m under the two-variable functional, I[0,0]=1.

    I is a read-only mapping, compared and hashed as its set of items.
    """

    __slots__ = ("a", "kappa", "maxdeg", "I")

    def __init__(
        self, a: Fraction, kappa: Fraction, maxdeg: int, I: Mapping[tuple[int, int], Fraction]
    ):
        super().__init__(a, kappa, maxdeg, MappingProxyType(dict(I)))

    def _values(self) -> tuple:
        return self.a, self.kappa, self.maxdeg, frozenset(self.I.items())

    def value(self, n: int, m: int) -> Fraction:
        key = (n, m)
        if key not in self.I:
            raise ValueError(f"moment I[{n},{m}] exceeds table degree {self.maxdeg}")
        return self.I[key]


def moments2_table(maxdeg: int, a: Fraction, kappa: Fraction) -> MomentTable2:
    """Fill the two-variable moment table up to total degree maxdeg (deg e1^n e2^m
    = n + 2m) from the recurrences

        (n + m + 2 kappa + a) I[n+1, m] = 2 n I[n-1, m+1] - 4 I[n, m],
        (n + 2m + 2 (kappa + a)) I[n, m+1] = -2 I[n+1, m].

    Degree-D entries with m >= 1 come from the second recurrence (from degree
    D-1), then I[D, 0] from the first (which consumes the just-filled
    I[D-2, 1]).  A vanishing leading coefficient raises DegenerateRecurrence.
    Every instance of the first recurrence inside the table is re-validated.
    """
    a, kappa = rational(a), rational(kappa)
    I: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for D in range(1, maxdeg + 1):
        for m in range(1, D // 2 + 1):
            n = D - 2 * m
            lead = n + 2 * (m - 1) + 2 * (kappa + a)
            if lead == 0:
                raise DegenerateRecurrence(
                    f"second recurrence degenerates at I[{n},{m}]"
                )
            I[(n, m)] = -2 * I[(n + 1, m - 1)] / lead
        lead = (D - 1) + 2 * kappa + a
        if lead == 0:
            raise DegenerateRecurrence(f"first recurrence degenerates at I[{D},0]")
        rhs = -4 * I[(D - 1, 0)]
        if D >= 2:
            rhs += 2 * (D - 1) * I[(D - 2, 1)]
        I[(D, 0)] = rhs / lead
    # Cross-validate the first recurrence everywhere it closes inside the table.
    for (n, m), v in I.items():
        if (n + 1, m) in I and (n == 0 or (n - 1, m + 1) in I):
            lhs = (n + m + 2 * kappa + a) * I[(n + 1, m)]
            rhs = -4 * v + (2 * n * I[(n - 1, m + 1)] if n else 0)
            if lhs != rhs:
                raise DegenerateRecurrence(
                    f"moment recurrences inconsistent at I[{n},{m}]"
                )
    return MomentTable2(a, kappa, maxdeg, I)


def functional_apply(f: SymPoly, table: MomentTable2) -> Fraction:
    """Apply the two-variable moment functional to a symmetric polynomial in
    two variables: rewrite f exactly in the basis e1^p e2^q and contract.

    The leading m_(p+q, q) is peeled by e1^p e2^q, whose coefficient on
    m_(r1, r2) with r1 + r2 = p + 2q is C(p, r1 - q); each row only reaches
    partitions of the same weight with a smaller first part.
    """
    if f.n != 2:
        raise ValueError("the moment functional is defined for n = 2 only")
    rest = {(lam.part(1), lam.part(2)): c for lam, c in f.coeffs.items()}
    total = Fraction(0)
    for w in range(f.degree(), -1, -1):
        for r1 in range(w, (w - 1) // 2, -1):
            c = rest.get((r1, w - r1))
            if not c:
                continue
            q = w - r1
            total += c * table.value(r1 - q, q)
            for s1 in range(r1 - 1, (w - 1) // 2, -1):
                key = (s1, w - s1)
                rest[key] = rest.get(key, 0) - c * math.comb(r1 - q, s1 - q)
    return total


def functional_matrix(fs: list[SymPoly], table: MomentTable2) -> list[list[Fraction]]:
    """[F(f g) for g in fs] for f in fs under the two-variable functional F.

    F is linear, so F(f g) = sum_{nu, rho} f_nu g_rho F(m_nu m_rho); each
    pairing F(m_nu m_rho) = functional_apply(m_nu m_rho, table) is computed
    once per unordered pair in this call and bilinear_matrix contracts the
    rest.
    """
    if any(f.n != 2 for f in fs):
        raise ValueError("the moment functional is defined for n = 2 only")
    memo: dict[tuple[Partition, Partition], Fraction] = {}

    def pair(nu: Partition, rho: Partition) -> Fraction:
        value = memo.get((nu, rho))
        if value is None:
            product = SymPoly(2, {nu: 1}) * SymPoly(2, {rho: 1})
            value = memo[nu, rho] = memo[rho, nu] = functional_apply(product, table)
        return value

    coeffs = [f.coeffs for f in fs]
    return bilinear_matrix(coeffs, coeffs, pair)
