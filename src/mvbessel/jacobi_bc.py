"""BC_n Jacobi polynomials in the t-coordinate Jack basis.

These serve as an independent cross-check family: the eigenoperator acts on
the Jack basis through the same five basic actions, the expansion is
triangular with leading coefficient (-4)^{|lambda|}, and the constant term
has a closed product formula (Opdam's specialisation) evaluated here as an
exact ratio of shifted-factorial products.  The parameter map limit_params
is the specialisation under which this family degenerates to the Bessel
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import jack
from .errors import PoleError
from .jack import JackExpansion
from .partitions import Partition, partitions_up_to
from .polyalg import ZERO, rat


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple (k1, k2, k3) and variable count n."""

    k1: Fraction
    k2: Fraction
    k3: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "k1", rat(self.k1))
        object.__setattr__(self, "k2", rat(self.k2))
        object.__setattr__(self, "k3", rat(self.k3))
        if self.n < 1:
            raise ValueError("n must be a positive integer")


def rho_bc(jp: JacobiParams) -> tuple[Fraction, ...]:
    """rho_i = k3 (n - i) + (k1 + 2 k2)/2."""
    return tuple(
        jp.k3 * (jp.n - i) + (jp.k1 + 2 * jp.k2) / 2 for i in range(1, jp.n + 1)
    )


def jacobi_eigenvalue(lam: Partition, jp: JacobiParams) -> Fraction:
    """e_lambda = d_lambda (with kappa = k3) + (k1 + 2 k2 + 1)|lambda|."""
    if lam.length() > jp.n:
        raise ValueError(f"{lam!r} needs more than {jp.n} variables")
    return jack.eigenvalue_d(lam, jp.k3, jp.n) + (jp.k1 + 2 * jp.k2 + 1) * lam.weight()


def apply_DBC_jack(v: JackExpansion, jp: JacobiParams) -> JackExpansion:
    """Apply D_2 - D_1 + (k1+2k2+1) E_1 - (k1+k2+1/2) E_0 in the Jack basis."""
    if v.n != jp.n or v.kappa != jp.k3:
        raise ValueError("JackExpansion context does not match parameters")
    out = jack.apply_basic("D2", v) - jack.apply_basic("D1", v)
    out = out + jack.apply_basic("E1", v).scale(jp.k1 + 2 * jp.k2 + 1)
    out = out - jack.apply_basic("E0", v).scale(jp.k1 + jp.k2 + Fraction(1, 2))
    return out


def jacobi_expand(lam: Partition, jp: JacobiParams) -> JackExpansion:
    """The Jacobi polynomial for lambda as a Jack-basis expansion.

    Triangular with support on mu contained in lambda, leading coefficient
    (-4)^{|lambda|} on P_lambda, eigenfunction of apply_DBC_jack.  Only the
    D1 and E0 parts of that operator lower a box; from P_{mu+e_i} they give
    P_mu with weight -lower_weight(mu, i) (mu_i + k3 (n-i) + k1 + k2 + 1/2).
    """
    if lam.length() > jp.n:
        raise ValueError(f"{lam!r} needs more than {jp.n} variables")
    inside = [mu for mu in partitions_up_to(lam.weight(), jp.n) if mu != lam and lam.contains(mu)]
    shift = jp.k1 + jp.k2 + Fraction(1, 2)

    def feed(mu: Partition, u: dict[Partition, Fraction]) -> Fraction:
        rhs = ZERO
        for i in range(1, min(jp.n, lam.length()) + 1):
            up = mu.add_box(i)
            if up in u:  # only co-covers already holding a nonzero coefficient
                w = jack.lower_weight(mu, i, jp.k3, jp.n)
                rhs -= u[up] * w * (mu.part(i) + jp.k3 * (jp.n - i) + shift)
        return rhs

    top = Fraction(-4) ** lam.weight()
    u = jack.triangular_solve(lam, top, inside, lambda mu: jacobi_eigenvalue(mu, jp), feed)
    return JackExpansion(jp.n, jp.k3, u)


def _w_step_bc(z: Fraction, jp: JacobiParams) -> Fraction:
    den = 2 * z * (2 * z + 1)
    if den == 0:
        raise PoleError("constant-term w-factor has a pole")
    return ((jp.k1 + 2 * jp.k2) / 2 + z) * ((jp.k1 + 1) / 2 + z) / den


def _v_step_bc(z: Fraction, jp: JacobiParams) -> Fraction:
    if z == 0:
        raise PoleError("constant-term v-factor has a pole")
    return (jp.k3 + z) / z


def jacobi_constant_term(lam: Partition, jp: JacobiParams) -> Fraction:
    """The constant term of jacobi_expand(lam) from the closed product formula.

    2^{2|lambda|} times the plus-type shifted-factor ratio at rho + lambda
    over rho, with each Gamma quotient collapsed to a finite product by the
    difference equations of the step functions.
    """
    n = jp.n
    rho = rho_bc(jp)
    m = tuple(lam.part(i) for i in range(1, n + 1))
    val = Fraction(2) ** (2 * lam.weight())
    for i in range(n):
        for j in range(i + 1, n):
            for z0, shift in (
                (rho[i] - rho[j], m[i] - m[j]),
                (rho[i] + rho[j], m[i] + m[j]),
            ):
                for t in range(shift):
                    val *= _v_step_bc(z0 + t, jp)
        for t in range(m[i]):
            val *= _w_step_bc(rho[i] + t, jp)
    return val


def limit_params(a: Fraction, kappa: Fraction, E: Fraction, n: int) -> JacobiParams:
    """Jacobi parameters whose degeneration reproduces the Bessel family.

    k1 = (a - 1 + 2E)/2, k2 = (a - 1 - 2E)/4, k3 = kappa; the combination
    k1 + 2 k2 = a - 1 holds identically, so rho_bc equals the Bessel rho.
    """
    a, kappa, E = rat(a), rat(kappa), rat(E)
    if E <= 0:
        raise ValueError("E must be positive")
    return JacobiParams((a - 1 + 2 * E) / 2, (a - 1 - 2 * E) / 4, kappa, n)
