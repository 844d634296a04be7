import hashlib
from fractions import Fraction

import pytest

from mvbessel.bessel import BesselParams, bessel_eigenvalue, bessel_expand, rho_vector
from mvbessel.jack import JackExpansion
from mvbessel.operators import (
    _higher_on_monomial,
    _higher_recursion,
    apply_DB_direct,
    apply_DB_jack,
    apply_higher,
    commutator_check,
    eigenvalue_of,
    gamma_poly,
    separation_check,
)
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.polyalg import SymPoly

P2 = BesselParams(Fraction(-20), Fraction(1), 2)
P2G = BesselParams(Fraction(-31, 2), Fraction(5, 3), 2)


def test_two_routes_agree():
    for p in (P2, P2G):
        for lam in partitions_up_to(3, p.n):
            v = JackExpansion(p.n, p.kappa, {lam: Fraction(1)})
            assert apply_DB_jack(v, p).to_sym() == apply_DB_direct(v.to_sym(), p)


def test_bessel_eigenfunction():
    for p in (P2, P2G):
        for lam in partitions_up_to(3, p.n):
            f = bessel_expand(lam, p).to_sym()
            assert apply_DB_direct(f, p) == f.scale(bessel_eigenvalue(lam, p))


def test_first_tower_operator_is_DB():
    for lam in partitions_up_to(4, 2):
        f = SymPoly(2, {lam: Fraction(1)})
        assert apply_higher(1, f, P2) == apply_DB_direct(f, P2)


def test_higher_eigenvalues_even_symmetric_in_rho_shift():
    # e_d(lambda) is a symmetric even polynomial in lambda + rho: check that
    # gamma_poly evaluated at lambda + rho reproduces eigenvalue_of.
    p = P2
    rho = rho_vector(p)
    for d in (1, 2):
        coeffs, even_sym = gamma_poly(d, p)
        assert even_sym
        for lam in partitions_up_to(3, p.n):
            z = [lam.part(i + 1) + rho[i] for i in range(p.n)]
            val = Fraction(0)
            for exps, c in coeffs.items():
                term = c
                for zi, e in zip(z, exps):
                    term *= zi**e
                val += term
            assert val == eigenvalue_of(d, lam, p), (d, lam)


def test_gamma_poly_degree_one_closed_form():
    coeffs, even_sym = gamma_poly(1, P2)
    rho = rho_vector(P2)
    const = -sum(r * r for r in rho)
    assert even_sym
    assert coeffs[(2, 0)] == 1 and coeffs[(0, 2)] == 1
    assert coeffs[(0, 0)] == const


def test_commuting_tower():
    assert commutator_check(1, 2, 3, P2)
    assert commutator_check(1, 2, 2, P2G)


def test_separation():
    assert separation_check(3, P2)
    # kappa = -2, a = 1: (3,0) and (1,0) share the squared shifted multiset
    bad = BesselParams(Fraction(1), Fraction(-2), 2)
    assert not separation_check(3, bad)


def test_apply_higher_returns_a_fresh_polynomial():
    f = SymPoly(2, {Partition((2, 1)): Fraction(3), Partition((1,)): Fraction(-2, 7)})
    first = apply_higher(2, f, P2G)
    want = _higher_recursion(2, f, P2G)
    assert first == want
    first.coeffs.clear()
    first.coeffs[Partition(())] = Fraction(99)
    assert apply_higher(2, f, P2G) == want
    assert _higher_on_monomial.cache_info().maxsize is not None


def test_apply_higher_rejects_bad_input_on_the_zero_polynomial():
    with pytest.raises(ValueError, match="positive integer"):
        apply_higher(0, SymPoly.zero(2), P2)
    with pytest.raises(ValueError, match="variable count"):
        apply_higher(1, SymPoly.zero(3), P2)


def test_commutator_check_rejects_negative_degree():
    with pytest.raises(ValueError, match="non-negative"):
        commutator_check(1, 2, -1, P2)


# sha256 of the repr of every image D_d m_mu over n <= 3, d <= 3, |mu| <= 2
# at P2G's and P2's (a, kappa), recorded before the recursion carried only
# the +i branch; the verify commute digests pin only pass/fail.
TOWER_IMAGES_SHA256 = "2358be25b3d67f4afb63de4c38b3e321d413c00a66cc1398d4c4002c970289ff"

# The same over n = 4 (d <= 2, |mu| <= 2) and n = 2 (d = 4, |mu| <= 3) at a
# kappa = 0 and a negative-kappa point, recorded before the recursion carried
# one Laurent polynomial per stage.
WIDE_TOWER_IMAGES_SHA256 = "913c388ff51863f2e90b2d30e30c140f6aeb52954427cf4b3d14b7710499e4d4"

# The same over n = 5 (d <= 3) and n = 6 (d <= 2), |mu| <= 4, where the
# S_{n-1} orbits the recursion carries are large, recorded before the
# recursion carried one coefficient sum per S_{n-1} orbit.
LARGE_ORBIT_TOWER_IMAGES_SHA256 = "3880ecaf208b1992e54cc87139df164656cb1d6211f57343871e9ba1c2ca6eb5"


def _images_digest(points, cases):
    h = hashlib.sha256()
    for a, kappa in points:
        for n, ds, max_weight in cases:
            p = BesselParams(a, kappa, n)
            for d in ds:
                for mu in partitions_up_to(max_weight, n):
                    image = _higher_recursion(d, SymPoly(n, {mu: Fraction(1)}), p)
                    h.update(repr(image).encode() + b"\n")
    return h.hexdigest()


def test_tower_images_are_pinned():
    points = ((Fraction(-31, 2), Fraction(5, 3)), (Fraction(-20), Fraction(1)))
    cases = [(n, (1, 2, 3), 2) for n in (1, 2, 3)]
    assert _images_digest(points, cases) == TOWER_IMAGES_SHA256
    points = ((Fraction(3, 7), Fraction(0)), (Fraction(-5), Fraction(-3, 2)))
    cases = [(4, (1, 2), 2), (2, (4,), 3)]
    assert _images_digest(points, cases) == WIDE_TOWER_IMAGES_SHA256
    points = ((Fraction(-31, 2), Fraction(5, 3)), (Fraction(3, 7), Fraction(0)))
    cases = [(5, (1, 2, 3), 4), (6, (1, 2), 4)]
    assert _images_digest(points, cases) == LARGE_ORBIT_TOWER_IMAGES_SHA256
