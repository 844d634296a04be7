from fractions import Fraction

import pytest

from mvbessel import diffops
from mvbessel.bessel import BesselParams, bessel_expand, rectangular_2F0
from mvbessel.errors import PoleError
from mvbessel.jack import (
    JackExpansion,
    apply_basic,
    binomial_cocover,
    binomial_cocover_product,
    eigenvalue_d,
    hook_products,
    hyperg_trunc,
    jack_in_monomials,
    lower_weight,
    peel,
    principal_spec,
    psi_prime,
    raising_weights,
    spec_ratio_cocover,
    spec_ratio_product,
    sym_to_jack,
)
from mvbessel.partitions import Partition, co_covers, partitions_of, partitions_up_to
from mvbessel.polyalg import MultiPoly, SymPoly, collect_symmetric

from oracles import schur


def test_kappa_one_is_schur():
    for n in (1, 2, 3):
        for lam in partitions_up_to(5, n):
            assert jack_in_monomials(lam, Fraction(1), n) == schur(lam, n), lam


def test_zonal_coefficient():
    P = jack_in_monomials(Partition((2,)), Fraction(1, 2), 2)
    assert P.coeff(Partition((1, 1))) == Fraction(2, 3)


def test_jack_cache_returns_its_immutable_value():
    lam, kappa, target = Partition((2,)), Fraction(1, 2), Partition((1, 1))
    P = jack_in_monomials(lam, kappa, 2)
    assert jack_in_monomials(lam, kappa, 2) is P
    with pytest.raises(TypeError):
        P.coeffs[target] = Fraction(99)
    with pytest.raises(AttributeError):
        P.coeffs = {}
    assert jack_in_monomials(lam, kappa, 2).coeff(target) == Fraction(2, 3)
    assert jack_in_monomials.cache_info().maxsize == 4096


def test_lower_weight_cache_hits_and_keeps_its_values():
    # one expansion asks for each weight below lambda once; the next
    # expansion in the same variables asks for the shared ones again
    kappa, n = Fraction(5, 3), 3
    p = BesselParams(Fraction(-31, 2), kappa, n)
    lower_weight.cache_clear()
    Y = bessel_expand(Partition((2, 1)), p)
    assert lower_weight.cache_info().hits == 0
    bessel_expand(Partition((2, 2)), p)
    assert lower_weight.cache_info().hits > 0
    args = [
        (mu, i, kappa, n)
        for mu in partitions_up_to(2, n)
        for i in range(1, mu.length() + 2)
        if mu.add_box(i) is not None and i <= n
    ]
    cached = [lower_weight(*x) for x in args]
    assert cached == [lower_weight.__wrapped__(*x) for x in args]
    lower_weight.cache_clear()
    assert [lower_weight(*x) for x in args] == cached
    again = bessel_expand(Partition((2, 1)), p)
    assert again.sorted_coeffs() == Y.sorted_coeffs()


def test_lower_weight_is_finite_where_the_hook_product_vanishes():
    # h_(2,1) = 0 at kappa = -2, a pole of the hook-quotient route; in two
    # variables P_(2,2) = m_(2,2) and P_(2,1) = m_(2,1), and
    # E0 m_(2,2) = 2 x1 x2^2 + 2 x1^2 x2 = 2 m_(2,1)
    mu, kappa = Partition((2, 1)), Fraction(-2)
    assert hook_products(mu, kappa)[0] == 0
    assert lower_weight(mu, 2, kappa, 2) == 2


def test_raising_weights_match_direct_differentiation():
    kappa = Fraction(5, 3)
    for n in (1, 2, 3, 4):
        for nu in partitions_up_to(4, n):
            want = {nu: eigenvalue_d(nu, kappa, n)}
            for mu in partitions_of(nu.weight(), n):
                w = raising_weights(mu).get(nu, 0)
                if w:
                    want[mu] = 2 * kappa * w
            img = diffops.apply_sutherland_sym(SymPoly(n, {nu: Fraction(1)}), 2, kappa)
            assert img == SymPoly(n, want), (nu, n)


def test_raising_weights_row_is_cached_read_only():
    mu = Partition((2, 1, 1))
    row = raising_weights(mu)
    assert raising_weights(Partition((2, 1, 1))) is row
    # (2,1,1) -> (3,1) by two pairs (2,1) at weight 3 each, -> (2,2) by (1,1) at weight 2
    assert dict(row) == {Partition((3, 1)): 6, Partition((2, 2)): 2}
    with pytest.raises(TypeError):
        row[Partition((4,))] = 1
    assert raising_weights.cache_info().maxsize == 4096


def test_d2_eigenfunction_direct():
    for n in (1, 2, 3):
        for kappa in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 3)):
            for lam in partitions_up_to(4 if n < 3 else 3, n):
                P = jack_in_monomials(lam, kappa, n)
                img = diffops.apply_sutherland_sym(P, 2, kappa)
                assert img == P.scale(eigenvalue_d(lam, kappa, n)), (lam, kappa, n)


def test_binomial_three_routes_agree():
    kappa = Fraction(5, 3)
    for lam in partitions_up_to(5, 4):
        for i, up in co_covers(lam, 5, "up"):
            want = binomial_cocover(lam, i, kappa)
            assert binomial_cocover_product(lam, i, kappa, corrected=True) == want
            # route three: the coefficient of P_lam in E0 P_up, with E0 = sum_k d/dx_k
            # applied to the expanded Jack polynomial, over the spec ratio
            n = max(up.length(), 1)
            expanded = jack_in_monomials(up, kappa, n).expand()
            e0 = sum((expanded.deriv(k) for k in range(1, n + 1)), MultiPoly.zero(n))
            acted = sym_to_jack(collect_symmetric(e0), kappa)
            forced = acted.coeff(lam) / spec_ratio_cocover(lam, i, kappa, n)
            assert forced == want, (lam, i)


def test_binomial_n_stability():
    kappa = Fraction(3, 2)
    lam = Partition((3, 1))
    for i in (1, 2, 3):
        assert binomial_cocover(lam, i, kappa) == binomial_cocover(lam, i, kappa)


def test_binomial_vanishing_hook_product_is_a_pole():
    # h_(1,1) = kappa + 1 vanishes at kappa = -1
    with pytest.raises(PoleError):
        binomial_cocover(Partition((1, 1)), 1, Fraction(-1))


def test_spec_ratio_product_agrees():
    for kappa in (Fraction(1), Fraction(5, 3)):
        for n in (2, 3):
            for lam in partitions_up_to(3, n):
                for i, up in co_covers(lam, n, "up"):
                    assert spec_ratio_product(lam, i, kappa, n, corrected=True) == (
                        spec_ratio_cocover(lam, i, kappa, n)
                    )


def test_uncorrected_products_disagree():
    # adding a box that starts a new row: the verbatim product uses the
    # shorter row bound and disagrees with the operator-forced value
    kappa = Fraction(1)
    lam = Partition((1,))
    forced = binomial_cocover(lam, 2, kappa)
    assert binomial_cocover_product(lam, 2, kappa, corrected=True) == forced
    assert binomial_cocover_product(lam, 2, kappa, corrected=False) != forced


def test_mul_p1_matches_polynomial_multiplication():
    # p_1 P_lam = sum_i psi'(lam, i) P_{lam+e_i}
    kappa = Fraction(5, 3)
    n = 2
    p1 = SymPoly(n, {Partition((1,)): Fraction(1)})
    for lam in partitions_up_to(4, n):
        ups = {up: psi_prime(lam, i, kappa) for i, up in co_covers(lam, n, "up")}
        lhs = JackExpansion(n, kappa, ups).to_sym()
        rhs = p1 * jack_in_monomials(lam, kappa, n)
        assert lhs == rhs, lam


def test_psi_prime_pole_where_a_new_row_meets_row_one():
    # lam = (1), i = 2: psi' = (-1)/(-kappa - 1) * (-2 kappa)/(-kappa) = 2/(kappa + 1),
    # whose two denominators vanish at kappa = -1 and kappa = 0
    lam = Partition((1,))
    assert psi_prime(lam, 2, Fraction(5, 3)) == Fraction(3, 4)
    for kappa in (-1, 0):
        with pytest.raises(PoleError, match="psi' denominator vanished"):
            psi_prime(lam, 2, kappa)


def test_sym_to_jack_roundtrip():
    kappa = Fraction(5, 3)
    n = 3
    f = SymPoly(n, {Partition((2, 1)): Fraction(3), Partition((1,)): Fraction(-1, 2)})
    assert sym_to_jack(f, kappa).to_sym() == f


def test_peel_and_sym_to_jack_leave_their_input_unchanged():
    # the peel reduces one copy of its input's coefficients in place
    kappa, n = Fraction(5, 3), 3
    f = SymPoly(n, {Partition((3,)): 2, Partition((2, 1)): 3, Partition((1,)): Fraction(-1, 2)})
    before = f.sorted_coeffs()
    v = sym_to_jack(f, kappa)
    assert f.sorted_coeffs() == before
    jack_before = v.sorted_coeffs()
    # m_mu has leading term P_mu on the Jack basis, so peeling by it gives f back
    assert peel(v, lambda mu: sym_to_jack(SymPoly(n, {mu: 1}), kappa)) == f.coeffs
    assert v.sorted_coeffs() == jack_before


def test_hook_products_and_principal_spec():
    # single row: lower hook prod_{j=1..k} (k - j + kappa) etc.; anchor at schur
    lam = Partition((2, 1))
    lo, up = hook_products(lam, Fraction(1))
    assert lo == up  # kappa = 1 hooks are symmetric
    assert principal_spec(lam, Fraction(1), 3) == 8  # schur s_{21}(1,1,1)
    assert principal_spec(lam, Fraction(0), 3) == 6  # m_{21}(1,1,1)


def test_hyperg_trunc_basics():
    one = hyperg_trunc([], [], Fraction(1), Fraction(1), 1, 1)
    f = one.to_sym()
    assert f.coeff(Partition(())) == 1 and f.coeff(Partition((1,))) == 1
    a = Fraction(-20)
    g = hyperg_trunc([Fraction(-1), a], [], Fraction(-1, 2), Fraction(1), 1, 3).to_sym()
    assert g.coeff(Partition(())) == 1
    assert g.coeff(Partition((1,))) == a / 2
    assert g.coeff(Partition((2,))) == 0


def test_hyperg_lower_pole():
    with pytest.raises(PoleError):
        hyperg_trunc([Fraction(1)], [Fraction(0)], Fraction(1), Fraction(1), 2, 2)
    # h_(1,1,1) = (1 + 2 kappa)(1 + kappa) = 0 at kappa = -1/2
    with pytest.raises(PoleError, match=r"hook product vanished at Partition\(\[1, 1, 1\]\)"):
        hyperg_trunc([1], [], 1, Fraction(-1, 2), 3, 3)
    with pytest.raises(PoleError, match="hook product vanished"):
        rectangular_2F0(1, BesselParams(-20, Fraction(-1, 2), 3))


def test_2f1_differential_equation():
    # (D1 - D2)F + (b - kappa(n-1)) E0 F - (a1 + a2 + 1 - kappa(n-1)) E1 F
    #   = n a1 a2 F, up to one degree below the truncation order; the left
    #   side is minus (D2 - D1 + (a1 + a2 + 1 - kappa(n-1)) E1 - (b - kappa(n-1)) E0) F.
    kappa = Fraction(5, 3)
    n = 2
    a1, a2, b = Fraction(2), Fraction(-3, 2), Fraction(7, 3)
    maxdeg = 4
    F = hyperg_trunc([a1, a2], [b], Fraction(1), kappa, n, maxdeg)
    lhs = -apply_basic(F, E1=a1 + a2 + 1 - kappa * (n - 1), E0=-(b - kappa * (n - 1)), D1=-1)
    rhs = F.scale(n * a1 * a2)
    assert (lhs - rhs).truncate(maxdeg - 1).is_zero()
