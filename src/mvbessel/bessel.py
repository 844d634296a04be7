"""Multivariable Bessel polynomials Y_lambda.

Y_lambda is the unique symmetric-polynomial eigenfunction of the Bessel
operator

    D^B = sum_i x_i^2 d_i^2 + sum_i (a x_i + 2) d_i
          + 2 kappa sum_{i != j} x_i^2 / (x_i - x_j) d_i

that is triangular on the monic Jack basis with top coefficient one.  The
coefficients are filled by a one-box-lowering recurrence and cross-checked
by an explicit sum over chains of partitions; rectangular shapes also admit
a terminating hypergeometric form.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateEigenvalue, PoleError
from .partitions import HashedRecord, Partition, skew_standard_chains
from .polyalg import ONE, ZERO, rational
from . import jack
from .jack import JackExpansion


class BesselParams(HashedRecord):
    """Parameter triple (a, kappa, n) for the Bessel operator, a cache key."""

    __slots__ = ("a", "kappa", "n")

    def __init__(self, a: Fraction, kappa: Fraction, n: int):
        super().__init__(rational(a), rational(kappa), n)
        if n < 1:
            raise ValueError("n must be a positive integer")


def rho_vector(p: BesselParams) -> tuple[Fraction, ...]:
    """rho_i = kappa (n - i) + (a - 1)/2, for i = 1..n."""
    return tuple(p.kappa * (p.n - i) + (p.a - 1) / 2 for i in range(1, p.n + 1))


def bessel_eigenvalue(lam: Partition, p: BesselParams) -> Fraction:
    """e_lambda = d_lambda + a |lambda|."""
    if lam.length() > p.n:
        raise ValueError(f"{lam!r} needs more than {p.n} variables")
    return jack.eigenvalue_d(lam, p.kappa, p.n) + p.a * lam.weight()


def jack_weights(p: BesselParams) -> dict[str, Fraction]:
    """D^B = D_2 + a E_1 + 2 E_0 on the Jack basis: the weights besides D_2's."""
    return {"E1": p.a, "E0": 2}


def square_integrability_bound(m: int, p: BesselParams) -> Fraction:
    """-2(m + kappa (n-1)) + 1: degree-m polynomials are square-integrable,
    and eigenvalues up to degree m distinct, when a lies below it."""
    return -2 * (m + p.kappa * (p.n - 1)) + 1


def bessel_expand(lam: Partition, p: BesselParams) -> JackExpansion:
    """Y_lambda on the monic Jack basis, by the triangular eigenvector recurrence.

    u_{lambda lambda} = 1 and, for mu strictly inside lambda,
        (e_lambda - e_mu) u_{lambda mu}
            = 2 sum_i spec_ratio(mu, i) binom(mu+e_i, mu) u_{lambda, mu+e_i},
    the sum running over rows i with mu + e_i still contained in lambda.
    """
    return jack.lowering_solve(lam, ONE, p.n, p.kappa, **jack_weights(p))


def bessel_coeff_tableau(lam: Partition, mu: Partition, p: BesselParams) -> Fraction:
    """The coefficient u_{lambda mu} as an explicit sum over one-box chains.

    Each chain lam = nu_0 ⊃ nu_1 ⊃ ... ⊃ nu_r = mu contributes

        2^r prod_{i=1}^r [spec_ratio * binom at the step nu_i -> nu_{i-1}]
                         / (a i + d_lambda - d_{nu_i}),

    which is the recurrence above unrolled chain by chain.  Raises
    DegenerateEigenvalue when a chain denominator vanishes.
    """
    if not lam.contains(mu):
        return ZERO
    d_lam = jack.eigenvalue_d(lam, p.kappa, p.n)
    total = ZERO
    for chain in skew_standard_chains(lam, mu):
        term = ONE
        for i in range(1, len(chain)):
            lower = chain[i]
            upper = chain[i - 1]
            row = next(
                r
                for r in range(1, upper.length() + 1)
                if lower.add_box(r) == upper
            )
            den = p.a * i + d_lam - jack.eigenvalue_d(lower, p.kappa, p.n)
            if den == 0:
                raise DegenerateEigenvalue(
                    f"chain denominator vanished at step {i} below {lam.parts}"
                )
            term *= 2 * jack.lower_weight(lower, row, p.kappa, p.n) / den
        total += term
    return total


def rectangular_2F0(k: int, p: BesselParams) -> JackExpansion:
    """Y_{(k^n)} as a terminating 2F0 hypergeometric series.

    Y_{(k^n)} = C * 2F0(-k, beta; x -> -x/2) with beta = k + a - 1 + kappa (n-1)
    and

        C = (-2)^{kn} h_{(k^n)} / ([-k]_{(k^n)} [beta]_{(k^n)}),

    asserted equal to the recurrence construction.  The row-i factor of
    [beta]_{(k^n)} is then the rising factorial of k + a - 1 + kappa (n-i);
    published statements of this identity place the kappa shift with the
    opposite sign, which only coincides with the operator-forced
    coefficients when n = 1.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    lam = Partition((k,) * p.n)
    beta = k + p.a - 1 + p.kappa * (p.n - 1)
    series = jack.hyperg_trunc([-k, beta], [], Fraction(-1, 2), p.kappa, p.n, k * p.n)
    den = jack.gen_pochhammer(-k, lam, p.kappa) * jack.gen_pochhammer(beta, lam, p.kappa)
    if den == 0:
        raise PoleError(f"Pochhammer denominator vanished for k={k}, {p}")
    h_lam, _ = jack.hook_products(lam, p.kappa)
    C = Fraction(-2) ** (k * p.n) * h_lam / den
    result = series.scale(C)
    if result != bessel_expand(lam, p):
        raise AssertionError(
            f"hypergeometric and recurrence forms of Y_{lam.parts} disagree"
        )
    return result
