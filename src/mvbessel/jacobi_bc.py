"""BC_n Jacobi polynomials in the t-coordinate Jack basis.

These serve as an independent cross-check family: the eigenoperator is one set
of Jack-basis weights (jack_weights) for jack.apply_basic and jack.lowering_solve,
the expansion is triangular with leading coefficient (-4)^{|lambda|}, and the
constant term has a closed product formula (Opdam's specialisation), evaluated
on the Delta_+ ratio of the Bessel family at a = k1 + 2 k2 + 1, kappa = k3,
which shares rho, the eigenvalue and the v/w step factors.  That ratio is the
limit along the Bessel line (a + t, kappa + t), here (k1 + t, k2, k3 + t), so
a removable 0/0 of the step factors is taken as its limit and only a surviving
pole raises PoleError.  The parameter map limit_params is the specialisation
under which this family degenerates to the Bessel family.
"""

from __future__ import annotations

from fractions import Fraction

from . import jack
from .bessel import BesselParams, bessel_eigenvalue, rho_vector
from .jack import JackExpansion, rising_factorial
from .partitions import FrozenRecord, Partition
from .pieri_norms import delta_ratio
from .polyalg import rational


class JacobiParams(FrozenRecord):
    """Parameter triple (k1, k2, k3) and variable count n."""

    __slots__ = ("k1", "k2", "k3", "n")

    def __init__(self, k1: Fraction, k2: Fraction, k3: Fraction, n: int):
        super().__init__(rational(k1), rational(k2), rational(k3), n)
        if n < 1:
            raise ValueError("n must be a positive integer")


def _bessel_params(jp: JacobiParams) -> BesselParams:
    """The Bessel parameters a = k1 + 2 k2 + 1, kappa = k3 with the same rho,
    rho_i = k3 (n - i) + (k1 + 2 k2)/2, eigenvalue and step factors."""
    return BesselParams(jp.k1 + 2 * jp.k2 + 1, jp.k3, jp.n)


def jacobi_eigenvalue(lam: Partition, jp: JacobiParams) -> Fraction:
    """e_lambda = d_lambda (with kappa = k3) + (k1 + 2 k2 + 1)|lambda|."""
    return bessel_eigenvalue(lam, _bessel_params(jp))


def jack_weights(jp: JacobiParams) -> dict[str, Fraction]:
    """D^BC = D_2 - D_1 + (k1+2k2+1) E_1 - (k1+k2+1/2) E_0: the weights besides D_2's."""
    return {"D1": -1, "E1": jp.k1 + 2 * jp.k2 + 1, "E0": -(jp.k1 + jp.k2 + Fraction(1, 2))}


def apply_DBC_jack(v: JackExpansion, jp: JacobiParams) -> JackExpansion:
    """Apply D^BC in the Jack basis."""
    if v.n != jp.n or v.kappa != jp.k3:
        raise ValueError("JackExpansion context does not match parameters")
    return jack.apply_basic(v, **jack_weights(jp))


def jacobi_expand(lam: Partition, jp: JacobiParams) -> JackExpansion:
    """The Jacobi polynomial for lambda as a Jack-basis expansion.

    Triangular with support on mu contained in lambda, leading coefficient
    (-4)^{|lambda|} on P_lambda, eigenfunction of apply_DBC_jack.  Only the
    D1 and E0 parts of that operator lower a box; from P_{mu+e_i} they give
    P_mu with weight -lower_weight(mu, i) (mu_i + k3 (n-i) + k1 + k2 + 1/2).
    """
    return jack.lowering_solve(lam, Fraction(-4) ** lam.weight(), jp.n, jp.k3, **jack_weights(jp))


def jacobi_constant_term(lam: Partition, jp: JacobiParams) -> Fraction:
    """The constant term of jacobi_expand(lam) from the closed product formula.

    2^{2|lambda|} times the plus-type shifted-factor ratio at rho + lambda
    over rho.  The BC w step is the Bessel w step at a = k1 + 2 k2 + 1
    times ((k1+1)/2 + z), so this is the Bessel Delta_+ ratio times one
    rising factorial ((k1+1)/2 + rho_i)_{lambda_i} per row.  Delta_+ is
    taken along (a + t, kappa + t), which is the line (k1 + t, k2, k3 + t)
    of the BC family, so a removable 0/0 there is its limit, not a pole.
    """
    p = _bessel_params(jp)
    val = Fraction(4) ** lam.weight() * delta_ratio("+", lam, p)
    for i, rho_i in enumerate(rho_vector(p), start=1):
        val *= rising_factorial((jp.k1 + 1) / 2 + rho_i, lam.part(i))
    return val


def limit_params(a: Fraction, kappa: Fraction, E: Fraction, n: int) -> JacobiParams:
    """Jacobi parameters whose degeneration reproduces the Bessel family.

    k1 = (a - 1 + 2E)/2, k2 = (a - 1 - 2E)/4, k3 = kappa; the combination
    k1 + 2 k2 = a - 1 holds identically, so both families share rho.
    """
    a, kappa, E = rational(a), rational(kappa), rational(E)
    if E <= 0:
        raise ValueError("E must be positive")
    return JacobiParams((a - 1 + 2 * E) / 2, (a - 1 - 2 * E) / 4, kappa, n)
