"""Exact moment integration, Gram matrices, and the two-variable functional.

The weight x^{a-2} e^{-2/x} on (0, infinity) has moments that reduce, after
dividing out the fixed transcendental scale 2^{a-1} Gamma(1-a), to rational
functions of a.  For non-negative integer kappa the pair interaction
prod |x_i - x_j|^{2 kappa} is a polynomial, so every inner product of
symmetric polynomials is a finite sum of products of one-dimensional
reduced moments and stays exactly rational.  This gives an independent
oracle for orthogonality and for the closed norm formulas.

For n = 2 the same structure is packaged as a linear functional on the
polynomial ring in the elementary symmetric polynomials e1, e2, with its
moments generated by two recurrences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .bessel import BesselParams, bessel_expand
from .errors import ConvergenceError, DegenerateRecurrence
from .operators import apply_higher
from .partitions import Partition, partitions_up_to
from .polyalg import MultiPoly, SymPoly, rat, rat_str


@dataclass(frozen=True)
class ReducedValue:
    """A moment divided by the fixed scale 2^{(a-1)n} Gamma(1-a)^n."""

    value: Fraction

    SCALE = "2^((a-1)n)*Gamma(1-a)^n"


def check_L2_condition(m: int, p: BesselParams) -> bool:
    """Whether degree-m polynomials are square-integrable: a < -2(m + kappa(n-1)) + 1."""
    if p.kappa < 0:
        raise ValueError("kappa must be non-negative")
    return p.a < -2 * (m + p.kappa * (p.n - 1)) + 1


def moment_1d(p: int, a: Fraction) -> Fraction:
    """Reduced moment of x^p: integral of x^{p+a-2} e^{-2/x} over (0, infinity)
    equals 2^{a-1} Gamma(1-a) times 2^p / prod_{j=0}^{p-1} (-a - j).

    Requires p < 1 - a for convergence.
    """
    a = rat(a)
    if p < 0:
        raise ValueError("exponent must be non-negative")
    if p >= 1 - a:
        raise ConvergenceError(f"moment of x^{p} diverges at a = {a}")
    val = Fraction(2) ** p
    for j in range(p):
        val /= -a - j
    return val


@functools.lru_cache(maxsize=64)
def _vandermonde_power(n: int, two_kappa: int) -> MultiPoly:
    """prod_{i<j} (x_i - x_j)^{two_kappa}; cached, so callers must only read it."""
    out = MultiPoly.constant(n, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            diff = MultiPoly.variable(n, i) - MultiPoly.variable(n, j)
            for _ in range(two_kappa):
                out = out * diff
    return out


def inner_product(f: SymPoly, g: SymPoly, p: BesselParams) -> ReducedValue:
    """The reduced inner product of f and g: expand f*g*prod(x_i-x_j)^{2 kappa}
    into monomials and integrate termwise with moment_1d.

    Requires kappa to be a non-negative integer.  Any divergent term aborts
    the whole computation with ConvergenceError.
    """
    if p.kappa.denominator != 1 or p.kappa < 0:
        raise ValueError("moment oracle needs kappa a non-negative integer")
    poly = f.expand() * g.expand() * _vandermonde_power(p.n, 2 * int(p.kappa))
    # Check every term before summing so divergence is all-or-nothing.
    factors = {}
    for exps, _ in poly.terms.items():
        for e in exps:
            if e not in factors:
                factors[e] = moment_1d(e, p.a)
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = c
        for e in exps:
            term *= factors[e]
        total += term
    return ReducedValue(total)


def gram_matrix(m: int, p: BesselParams) -> list[list[ReducedValue]]:
    """Gram matrix of {Y_lambda : |lambda| <= m} under the reduced inner product.

    Basis ordered by graded lexicographic partition order.  Diagonal, with
    diagonal entries given by the closed norm formula; this function computes
    the entries from moments and leaves the comparison to callers.
    """
    if not check_L2_condition(m, p):
        raise ConvergenceError(
            f"degree {m} violates the square-integrability bound at a = {p.a}"
        )
    basis = [bessel_expand(lam, p).to_sym() for lam in partitions_up_to(m, p.n)]
    rows = []
    for f in basis:
        rows.append([inner_product(f, g, p) for g in basis])
    return rows


def gram_to_json(rows: list[list[ReducedValue]]) -> dict:
    return {
        "scale": ReducedValue.SCALE,
        "entries": [[rat_str(v.value) for v in row] for row in rows],
    }


def symmetry_check(d: int, f: SymPoly, g: SymPoly, p: BesselParams) -> bool:
    """Whether the order-d eigenoperator is symmetric on the pair (f, g)."""
    lhs = inner_product(apply_higher(d, f, p), g, p)
    rhs = inner_product(f, apply_higher(d, g, p), p)
    return lhs.value == rhs.value


@dataclass
class MomentTable2:
    """Moments I[n, m] of e1^n e2^m under the two-variable functional, I[0,0]=1."""

    a: Fraction
    kappa: Fraction
    maxdeg: int
    I: dict[tuple[int, int], Fraction]

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
    a, kappa = rat(a), rat(kappa)
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
    two variables: rewrite f exactly in the basis e1^n e2^m and contract."""
    if f.n != 2:
        raise ValueError("the moment functional is defined for n = 2 only")
    e1 = MultiPoly.variable(2, 1) + MultiPoly.variable(2, 2)
    e2 = MultiPoly.variable(2, 1) * MultiPoly.variable(2, 2)
    g = f.expand()
    total = Fraction(0)
    while not g.is_zero():
        exps, c = g.leading()
        p1, p2 = exps
        if p1 < p2:
            raise ValueError("input is not symmetric")
        total += c * table.value(p1 - p2, p2)
        mono = MultiPoly.constant(2, c)
        for _ in range(p1 - p2):
            mono = mono * e1
        for _ in range(p2):
            mono = mono * e2
        g = g - mono
    return total
