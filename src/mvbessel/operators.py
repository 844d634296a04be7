"""The Bessel operator, its commuting higher-order tower, and eigenvalue maps.

D^B is available in two independent representations (direct differential
application and the Jack-basis action); the higher operators D^B_d are built
by a 2d-stage recursion through non-symmetric intermediates.  The recursion
pairs a +i and a -i intermediate for each variable; on symmetric input the
-i one is (-1)^stage times the +i one, and the +j one is the +1 one with
x_1 and x_j swapped, so a single Laurent polynomial g = old_{+1} is carried
(the two-branch form is the test oracle), as one coefficient sum per orbit
of S_{n-1}, under which g is invariant.  Each (x_1 - x_j) quotient is
written down term by term, so no division is ever carried out.  The sums
are integers: polyalg.common_denominator puts f over den(f) and the stage
weights over D, so after s stages the sums hold g / (den(f) D^s), and the
image is read off with one division per output partition.  Being linear,
D^B_d is applied to a polynomial as a sum of cached images of the monomial
symmetric functions m_mu, each cached as integers over one denominator and
composed over their common denominator, one Fraction per output.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from . import diffops, jack
from .bessel import BesselParams, bessel_expand, jack_weights, rho_vector
from .errors import NotDivisible, NotProportional
from .jack import JackExpansion
from .partitions import Partition, partitions_in_box, partitions_up_to
from .polyalg import (
    ONE,
    ZERO,
    SymPoly,
    common_denominator,
    orbit_size,
)


def apply_DB_direct(f: SymPoly, p: BesselParams) -> SymPoly:
    """Apply D^B to a symmetric polynomial by direct differentiation."""
    return diffops.apply_bessel_sym(f, p.a, p.kappa)


def apply_DB_jack(v: JackExpansion, p: BesselParams) -> JackExpansion:
    """Apply D^B in the Jack basis: D^B = D_2 + a E_1 + 2 E_0."""
    if v.n != p.n or v.kappa != p.kappa:
        raise ValueError("JackExpansion context does not match parameters")
    return jack.apply_basic(v, **jack_weights(p))


def _stage_weights(p: BesselParams) -> tuple[int, int, int, int]:
    """(D, D kappa/2, D shift_even, D shift_odd), the stage weights over
    their common denominator D, which is lcm(den(kappa/2), den(a)); shift is
    the weight on e itself besides e_1: kappa/2 per j != 1, and a - 1 after
    an odd number of stages."""
    half_kappa = p.kappa / 2
    shift = (p.n - 1) * half_kappa
    D, weights = common_denominator([half_kappa, shift, shift + p.a - 1])
    return D, *weights


def _recursion_stage(
    g: dict[tuple[int, ...], int], flipped: bool, weights: tuple[int, int, int, int]
) -> dict[tuple[int, ...], int]:
    """One recursion step on g = old_{+1}, a Laurent polynomial held as
    S_{n-1} representative -> integer orbit sum (exponents may be negative).
    The weights are _stage_weights(p), so the step multiplies by D: after s
    steps from a seed scaled by den(f), the true sums are g / (den(f) D^s).

    new_{+i} = x_i d_i old_{+i} + (1/2)(a - 1 + 2/x_i)(old_{+i} - old_{-i})
               + (kappa/2) sum_{j != i} ((x_i+x_j)/(x_i-x_j))(old_{+i} - old_{+j})
               + (kappa/2) sum_{j != i} (old_{+i} - old_{-j}).

    On symmetric input old_{-i} = s old_{+i}, with s = -1 after an odd
    number of stages (flipped) and +1 after an even number, and old_{+j} =
    s_{1j} g, s_{1j} swapping x_1 and x_j, since the map commutes with
    permutations.  So only new_{+1} is formed.  On x_1^u x_j^v the pair
    quotient ((x_1+x_j)/(x_1-x_j))(x_1^u x_j^v - x_1^v x_j^u) is
    sign(u - v) sum_k w_k x_1^k x_j^{u+v-k} over min(u,v) <= k <= max(u,v),
    with w_k = 1 at both ends and 2 inside (Stanley 1989, Thm 3.1, as in
    jack.raising_weights): no division is carried out.  Each term is filed
    under its S_{n-1} representative (e_1; e_2 >= ... >= e_n); the stage
    commutes with S_{n-1}, so the regrouped image holds the next orbit sums.
    The j with equal e_j give equal representatives, so each distinct e_j is
    taken once, times its multiplicity.
    """
    D, half_kappa, shift_even, shift_odd = weights
    shift = shift_odd if flipped else shift_even
    new: dict[tuple[int, ...], int] = {}
    for e, c in g.items():
        e1, rest = e[0], e[1:]
        new[e] = new.get(e, 0) + (D * e1 + shift) * c
        if flipped:
            key = (e1 - 1, *rest)
            new[key] = new.get(key, 0) + 2 * D * c
        for ej in set(rest):
            hc = half_kappa * c * rest.count(ej)
            i = rest.index(ej)
            others = rest[:i] + rest[i + 1 :]
            key = (ej, *sorted(others + (e1,), reverse=True))
            new[key] = new.get(key, 0) + (hc if flipped else -hc)
            if e1 == ej:
                continue
            lo, hi = min(e1, ej), max(e1, ej)
            step = hc if e1 > ej else -hc
            for k in range(lo, hi + 1):
                key = (k, *sorted(others + (e1 + ej - k,), reverse=True))
                new[key] = new.get(key, 0) + (step if k == lo or k == hi else 2 * step)
    return {e: c for e, c in new.items() if c}


def apply_higher(d: int, f: SymPoly, p: BesselParams) -> SymPoly:
    """Apply the order-2d commuting operator D^B_d to a symmetric polynomial.

    D^B_d is linear, so the image is the sum of c_mu times the image of
    m_mu over the terms of f; each monomial image comes from the full
    recursion (_higher_recursion) once per (d, mu, p) and is then cached as
    integers over one denominator den_mu.  The weights c_mu / den_mu are put
    over their common denominator Q, so the images are summed as integers,
    one Fraction per output.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if f.n != p.n:
        raise ValueError("variable count mismatch")
    images = [_higher_on_monomial(d, mu, p) for mu in f.coeffs]
    q, weights = common_denominator(c / den for c, (den, _) in zip(f.coeffs.values(), images))
    sums: dict[Partition, int] = {}
    for w, (_, image) in zip(weights, images):
        for nu, v in image:
            sums[nu] = sums.get(nu, 0) + w * v
    return f._new({nu: Fraction(s, q) for nu, s in sums.items() if s})


@functools.lru_cache(maxsize=4096)
def _higher_on_monomial(
    d: int, mu: Partition, p: BesselParams
) -> tuple[int, tuple[tuple[Partition, int], ...]]:
    """D^B_d m_mu as an immutable (den, ((nu, integer), ...)): the image is
    the sum of integer/den m_nu."""
    image = _higher_recursion(d, SymPoly(p.n, {mu: ONE}), p).coeffs
    den, nums = common_denominator(image.values())
    return den, tuple(zip(image, nums))


def _higher_recursion(d: int, f: SymPoly, p: BesselParams) -> SymPoly:
    """D^B_d f by the recursion itself.

    Runs the recursion for 2d stages on the S_{n-1} orbit sums of f: m_lambda
    holds one orbit (v; lambda minus one v), of size orbit_size(lambda minus
    v, n - 1), per distinct part v of lambda padded to n parts.  The sums are
    integers: the seed is scaled by den(f), the lcm of f's denominators, and
    each stage scales by one more D (see _recursion_stage).  After an even
    number of stages the -i intermediates equal the +i ones, so the image is
    sum_i s_{1i} g, whose S_n orbit sums are n times g's:
    [m_lambda] = n/(den(f) D^{2d} |S_n lambda|) sum_{r sorting to lambda} g[r],
    one division per partition.  It must be a polynomial (no negative
    exponent left).
    """
    den, nums = common_denominator(f.coeffs.values())
    g: dict[tuple[int, ...], int] = {}
    for lam, c in zip(f.coeffs, nums):
        e = lam.parts + (0,) * (p.n - lam.length())
        for i in map(e.index, set(e)):
            g[(e[i], *e[:i], *e[i + 1 :])] = c * orbit_size(Partition(e[:i] + e[i + 1 :]), p.n - 1)
    weights = _stage_weights(p)
    for stage in range(2 * d):
        g = _recursion_stage(g, stage % 2 == 1, weights)
    sums: dict[tuple[int, ...], int] = {}
    for e, c in g.items():
        key = tuple(sorted(e, reverse=True))
        sums[key] = sums.get(key, 0) + c
    scale = den * weights[0] ** (2 * d)
    out = {}
    for e, c in sums.items():
        if not c:
            continue
        if e[-1] < 0:
            raise NotDivisible(f"D_{d} image keeps a negative exponent")
        lam = Partition(e)
        out[lam] = Fraction(p.n * c, scale * orbit_size(lam, p.n))
    return SymPoly(p.n, out)


def eigenvalue_of(d: int, lam: Partition, p: BesselParams) -> Fraction:
    """The D^B_d eigenvalue on Y_lambda, by proportionality assertion."""
    Y = bessel_expand(lam, p).to_sym()
    img = apply_higher(d, Y, p)
    e = img.coeff(lam)
    if not (img - Y.scale(e)).is_zero():
        raise NotProportional(
            f"D_{d} Y_{lam.parts} is not proportional to Y_{lam.parts}"
        )
    return e


def commutator_check(d: int, e: int, m: int, p: BesselParams) -> bool:
    """True iff D^B_d and D^B_e commute on all m_lambda with |lambda| <= m."""
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    for lam in partitions_up_to(m, p.n):
        f = SymPoly(p.n, {lam: ONE})
        de = apply_higher(d, apply_higher(e, f, p), p)
        ed = apply_higher(e, apply_higher(d, f, p), p)
        if de != ed:
            return False
    return True


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve an overdetermined but consistent linear system exactly.

    Gaussian elimination over the rationals; raises ValueError when the
    system is underdetermined or inconsistent.
    """
    m = len(rows)
    cols = len(rows[0])
    aug = [row[:] + [rhs[k]] for k, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, m) if aug[k][c] != 0), None)
        if pivot is None:
            raise ValueError("interpolation system is underdetermined")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for k in range(m):
            if k != r and aug[k][c] != 0:
                factor = aug[k][c]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if len(pivots) < cols:
        raise ValueError("interpolation system is underdetermined")
    for k in range(r, m):
        if aug[k][cols] != 0:
            raise ValueError("interpolation system is inconsistent")
    return [aug[i][cols] for i in range(cols)]


def _monomials_upto(n: int, total: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= total, in lexicographic order."""
    return [e for e in itertools.product(range(total + 1), repeat=n) if sum(e) <= total]


def gamma_poly(d: int, p: BesselParams) -> tuple[dict[tuple[int, ...], Fraction], bool]:
    """The eigenvalue polynomial of D^B_d in the shifted coordinates.

    Returns (coefficient map, flag): the unique polynomial g of total degree
    <= 2d with g(lambda + rho) equal to eigenvalue_of(d, lambda) for every
    partition lambda in a (2d+1) x n box, and whether g is invariant under
    sign flips and permutations of its arguments.
    """
    n = p.n
    rho = rho_vector(p)
    monos = _monomials_upto(n, 2 * d)
    rows = []
    rhs = []
    for lam in partitions_in_box(2 * d + 1, n):
        z = [rho[i] + lam.part(i + 1) for i in range(n)]
        row = []
        for e in monos:
            val = ONE
            for zi, ei in zip(z, e):
                val *= zi**ei
            row.append(val)
        rows.append(row)
        rhs.append(eigenvalue_of(d, lam, p))
    sol = _solve_exact(rows, rhs)
    coeffs = {e: c for e, c in zip(monos, sol) if c != 0}
    even = all(all(ei % 2 == 0 for ei in e) for e in coeffs)
    symmetric = True
    for e, c in coeffs.items():
        if coeffs.get(tuple(sorted(e, reverse=True)), ZERO) != c:
            symmetric = False
            break
    return coeffs, even and symmetric


def separation_check(m: int, p: BesselParams) -> bool:
    """True iff the joint eigenvalue tuples separate partitions up to weight m.

    The tuple (e_1(lambda), ..., e_n(lambda)) determines, and is determined
    by, the multiset {(lambda_i + rho_i)^2}: the eigenvalue polynomials are
    even symmetric polynomials in lambda + rho with triangular power-sum
    leading terms.  The check therefore compares sorted squared multisets.
    """
    rho = rho_vector(p)
    seen: dict[tuple, Partition] = {}
    for lam in partitions_up_to(m, p.n):
        key = tuple(sorted((lam.part(i + 1) + rho[i]) ** 2 for i in range(p.n)))
        if key in seen and seen[key] != lam:
            return False
        seen[key] = lam
    return True
