from fractions import Fraction

import pytest

from mvbessel.bessel import BesselParams, bessel_expand
from mvbessel.errors import ConvergenceError, DegenerateRecurrence
from mvbessel.orthogonality import (
    _vandermonde_power,
    MomentTable2,
    ReducedValue,
    check_L2_condition,
    functional_apply,
    gram_matrix,
    gram_to_json,
    inner_product,
    moment_1d,
    moments2_table,
    symmetry_check,
)
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.pieri_norms import CoefficientContext, norm_full_reduced
from mvbessel.polyalg import SymPoly


def test_l2_condition():
    assert check_L2_condition(4, BesselParams(Fraction(-20), Fraction(2), 3))
    assert not check_L2_condition(4, BesselParams(Fraction(-15), Fraction(2), 3))
    assert check_L2_condition(0, BesselParams(Fraction(0), Fraction(1), 1))


def test_moment_1d_values():
    a = Fraction(-20)
    assert moment_1d(0, a) == 1
    assert moment_1d(1, a) == -2 / a
    assert moment_1d(2, a) == 4 / (a * (a + 1))


def test_moment_1d_convergence_boundary():
    # p < 1 - a exactly: at a = -20, p = 20 still converges, p = 21 does not
    a = Fraction(-20)
    assert moment_1d(20, a) != 0
    with pytest.raises(ConvergenceError):
        moment_1d(21, a)


def test_inner_product_anchors():
    a = Fraction(-20)
    p1 = BesselParams(a, Fraction(1), 1)
    one1 = SymPoly.constant(1, 1)
    assert inner_product(one1, one1, p1).value == 1
    y1 = bessel_expand(Partition((1,)), p1).to_sym()
    assert inner_product(y1, y1, p1).value == -4 / (a * a * (a + 1))
    p2 = BesselParams(a, Fraction(1), 2)
    one2 = SymPoly.constant(2, 1)
    assert inner_product(one2, one2, p2).value == -8 / (a * a * (a + 1))


def test_inner_product_rejects_fractional_kappa():
    p = BesselParams(Fraction(-20), Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        inner_product(SymPoly.constant(1, 1), SymPoly.constant(1, 1), p)


def test_inner_product_leaves_the_cached_vandermonde_power_unchanged():
    p = BesselParams(Fraction(-31), Fraction(2), 3)
    f = bessel_expand(Partition((2, 1)), p).to_sym()
    g = bessel_expand(Partition((1,)), p).to_sym()
    before = dict(_vandermonde_power(3, 4).terms)
    first = inner_product(f, g, p)
    assert inner_product(f, g, p) == first
    assert inner_product(f, f, p) == inner_product(f, f, p)
    assert _vandermonde_power(3, 4).terms == before
    assert _vandermonde_power.cache_info().hits >= 4


def test_gram_diagonal_and_norms():
    for a in (Fraction(-20), Fraction(-31)):
        for kappa in (Fraction(1), Fraction(2)):
            for n in (1, 2):
                p = BesselParams(a, kappa, n)
                m = 2
                if not check_L2_condition(m, p):
                    continue
                rows = gram_matrix(m, p)
                ctx = CoefficientContext(p)
                basis = partitions_up_to(m, n)
                for i, lam in enumerate(basis):
                    for j in range(len(basis)):
                        if i != j:
                            assert rows[i][j].value == 0, (lam, basis[j])
                    want = norm_full_reduced(lam, ctx)
                    assert rows[i][i].value == want and want > 0


def test_gram_json_shape():
    p = BesselParams(Fraction(-20), Fraction(1), 1)
    doc = gram_to_json(gram_matrix(1, p))
    assert doc["scale"] == ReducedValue.SCALE
    assert doc["entries"][1][1] == "1/1900"


def test_gram_inadmissible_raises():
    with pytest.raises(ConvergenceError):
        gram_matrix(4, BesselParams(Fraction(-15), Fraction(2), 3))


def test_symmetry_of_tower_operators():
    p = BesselParams(Fraction(-30), Fraction(1), 2)
    basis = [SymPoly(2, {lam: Fraction(1)}) for lam in partitions_up_to(2, 2)]
    for d in (1, 2):
        for f in basis:
            for g in basis:
                assert symmetry_check(d, f, g, p)


def test_moments2_anchors_and_consistency():
    a, kappa = Fraction(-20), Fraction(1)
    t = moments2_table(4, a, kappa)
    assert t.value(0, 0) == 1
    assert t.value(1, 0) == -4 / (a + 2 * kappa)
    assert t.value(0, 1) == 4 / ((2 * kappa + a) * (kappa + a))


def test_moments2_degenerate():
    with pytest.raises(DegenerateRecurrence):
        moments2_table(2, Fraction(-2), Fraction(1))


def test_functional_matches_measure():
    a, kappa = Fraction(-20), Fraction(1)
    p = BesselParams(a, kappa, 2)
    t = moments2_table(8, a, kappa)
    one = SymPoly.constant(2, 1)
    denom = inner_product(one, one, p).value
    for lam in partitions_up_to(4, 2):
        f = SymPoly(2, {lam: Fraction(1)})
        assert functional_apply(f, t) == inner_product(f, one, p).value / denom, lam


def test_functional_orthogonality():
    a, kappa = Fraction(-20), Fraction(1)
    p = BesselParams(a, kappa, 2)
    t = moments2_table(8, a, kappa)
    basis = partitions_up_to(2, 2)
    for lam in basis:
        for mu in basis:
            if lam != mu:
                f = bessel_expand(lam, p).to_sym() * bessel_expand(mu, p).to_sym()
                assert functional_apply(f, t) == 0, (lam, mu)


def test_functional_degree_overflow():
    t = moments2_table(2, Fraction(-20), Fraction(1))
    with pytest.raises(ValueError):
        functional_apply(SymPoly(2, {Partition((3,)): Fraction(1)}), t)
