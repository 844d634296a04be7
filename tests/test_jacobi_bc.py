import copy
import pickle
from fractions import Fraction

import pytest

from mvbessel import diffops
from mvbessel.bessel import BesselParams, bessel_eigenvalue
from mvbessel.errors import NotSymmetric
from mvbessel.jack import JackExpansion
from mvbessel.jacobi_bc import (
    JacobiParams,
    apply_DBC_jack,
    jacobi_constant_term,
    jacobi_eigenvalue,
    jacobi_expand,
    limit_params,
)
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.polyalg import MultiPoly, collect_symmetric

TRIPLES = [
    (Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(3, 2), Fraction(2), Fraction(5, 3)),
    (Fraction(2), Fraction(-1, 3), Fraction(2)),
]


def test_params_are_a_frozen_value_type():
    jp = JacobiParams(1, 2, Fraction(1, 2), 2)
    jq = JacobiParams(Fraction(1), Fraction(2), Fraction(1, 2), 2)
    assert jp == jq and hash(jp) == hash(jq)
    assert all(type(k) is Fraction for k in (jp.k1, jp.k2, jp.k3))
    assert jp != JacobiParams(1, 2, Fraction(1, 2), 3)
    assert jp != (jp.k1, jp.k2, jp.k3, jp.n)
    assert jp != BesselParams(1, 2, 2)
    assert JacobiParams(k1=1, k2=2, k3=Fraction(1, 2), n=2) == jp
    assert copy.copy(jp) == jp and pickle.loads(pickle.dumps(jp)) == jp
    for field in ("k1", "k2", "k3", "n"):
        with pytest.raises(AttributeError):
            setattr(jp, field, 0)
        with pytest.raises(AttributeError):
            delattr(jp, field)
    assert jp == jq
    with pytest.raises(ValueError, match="n must be a positive integer"):
        JacobiParams(1, 2, 3, 0)
    assert repr(jp) == (
        "JacobiParams(k1=Fraction(1, 1), k2=Fraction(2, 1), k3=Fraction(1, 2), n=2)"
    )


def test_leading_coefficient():
    jp = JacobiParams(Fraction(1), Fraction(1), Fraction(1), 2)
    for lam in partitions_up_to(3, 2):
        exp = jacobi_expand(lam, jp)
        assert exp.coeff(lam) == Fraction(-4) ** lam.weight()


def test_eigenfunction():
    for k1, k2, k3 in TRIPLES:
        for n in (1, 2):
            jp = JacobiParams(k1, k2, k3, n)
            for lam in partitions_up_to(3, n):
                exp = jacobi_expand(lam, jp)
                img = apply_DBC_jack(exp, jp)
                assert (img - exp.scale(jacobi_eigenvalue(lam, jp))).is_zero(), lam


def test_constant_term_two_routes():
    for k1, k2, k3 in TRIPLES:
        for n in (1, 2):
            jp = JacobiParams(k1, k2, k3, n)
            for lam in partitions_up_to(3, n):
                exp = jacobi_expand(lam, jp)
                assert exp.coeff(Partition(())) == jacobi_constant_term(lam, jp), lam


@pytest.mark.parametrize(
    "k1, k2, k3, n, parts, want",
    [
        (0, 1, 0, 2, (1,), 4),
        (-4, 2, 1, 1, (2,), 2),
        (Fraction(-3, 2), Fraction(3, 2), Fraction(-3, 2), 2, (2, 1), 0),
    ],
    ids=["k3=0", "n=1", "vanishing"],
)
def test_constant_term_takes_a_removable_zero_over_zero_as_its_limit(k1, k2, k3, n, parts, want):
    # Delta_+ meets 0/0 at each point; along (k1 + t, k2, k3 + t) the
    # closed product is finite and equals the expansion's constant term
    lam, jp = Partition(parts), JacobiParams(k1, k2, k3, n)
    assert jacobi_constant_term(lam, jp) == want
    assert jacobi_expand(lam, jp).coeff(Partition(())) == want


def test_one_variable_constant_term_sign():
    # the eigenvalue equation forces + here, not the - of the published example
    for k1, k2, k3 in TRIPLES:
        jp = JacobiParams(k1, k2, k3, 1)
        u0 = jacobi_expand(Partition((1,)), jp).coeff(Partition(()))
        assert u0 == 4 * (k1 + k2 + Fraction(1, 2)) / (k1 + 2 * k2 + 1)


def test_operator_matches_direct_form():
    jp = JacobiParams(Fraction(1), Fraction(1), Fraction(1), 2)
    for lam in partitions_up_to(3, 2):
        v = JackExpansion(2, jp.k3, {lam: Fraction(1)})
        lhs = apply_DBC_jack(v, jp).to_sym()
        rhs = diffops.apply_jacobi_bc_sym(v.to_sym(), jp.k1, jp.k2, jp.k3)
        assert lhs == rhs, lam


def test_collect_symmetric_rejects_non_symmetric_input():
    # the operators take SymPoly, so an expanded polynomial reaches them only
    # through collect_symmetric, which refuses one that is not symmetric
    # x_1^2 + x_1 x_2
    f = MultiPoly(2, {(2, 0): Fraction(1), (1, 1): Fraction(1)})
    # x_1^2 x_2 + x_1 x_2^2 + x_3: symmetric in (x_1, x_2) but not in (x_1, x_3)
    g = MultiPoly(3, {(2, 1, 0): Fraction(1), (1, 2, 0): Fraction(1), (0, 0, 1): Fraction(1)})
    for h in (f, g):
        with pytest.raises(NotSymmetric):
            collect_symmetric(h)


def test_limit_params_degeneration():
    a, kappa = Fraction(-20), Fraction(1)
    jp = limit_params(a, kappa, Fraction(3), 2)
    p = BesselParams(a, kappa, 2)
    assert jp.k1 + 2 * jp.k2 + 1 == a and jp.k3 == kappa
    for lam in partitions_up_to(4, 2):
        assert jacobi_eigenvalue(lam, jp) == bessel_eigenvalue(lam, p)


def test_limit_params_validation():
    with pytest.raises(ValueError):
        limit_params(Fraction(-20), Fraction(1), Fraction(0), 2)
