import copy
import pickle
from fractions import Fraction
from itertools import permutations

import pytest

from mvbessel import jack
from mvbessel.bessel import (
    BesselParams,
    bessel_coeff_tableau,
    bessel_eigenvalue,
    bessel_expand,
    jack_weights,
    rectangular_2F0,
    rho_vector,
    square_integrability_bound,
)
from mvbessel.errors import DegenerateEigenvalue, PoleError
from mvbessel.jacobi_bc import JacobiParams
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.pieri_norms import renormalized_jack
from mvbessel.polyalg import MultiPoly

SAMPLE = [
    BesselParams(Fraction(-20), Fraction(1), 2),
    BesselParams(Fraction(-20), Fraction(2), 3),
    BesselParams(Fraction(-31, 2), Fraction(5, 3), 2),
]


def test_params_are_a_frozen_value_type():
    p = BesselParams(-20, 1, 2)
    q = BesselParams(Fraction(-20), Fraction(1), 2)
    assert p == q and hash(p) == hash(q)
    assert type(p.a) is Fraction and type(p.kappa) is Fraction
    assert p != BesselParams(-20, 1, 3)
    assert p != (p.a, p.kappa, p.n)
    assert p != JacobiParams(-20, 1, 1, 2)
    assert BesselParams(a=-20, kappa=1, n=2) == p
    assert copy.copy(p) == p and pickle.loads(pickle.dumps(p)) == p
    for field in ("a", "kappa", "n"):
        with pytest.raises(AttributeError):
            setattr(p, field, 0)
        with pytest.raises(AttributeError):
            delattr(p, field)
    assert p == q
    with pytest.raises(ValueError, match="n must be a positive integer"):
        BesselParams(-20, 1, 0)
    assert repr(p) == "BesselParams(a=Fraction(-20, 1), kappa=Fraction(1, 1), n=2)"
    # the record's repr is part of the PoleError message
    with pytest.raises(PoleError) as err:
        rectangular_2F0(1, BesselParams(0, 1, 1))
    assert str(err.value) == (
        "Pochhammer denominator vanished for k=1, "
        "BesselParams(a=Fraction(0, 1), kappa=Fraction(1, 1), n=1)"
    )


def test_rho_vector():
    p = BesselParams(Fraction(-20), Fraction(1), 2)
    assert rho_vector(p) == (Fraction(-19, 2), Fraction(-21, 2))


def test_eigenvalue_and_nondegeneracy():
    p = BesselParams(Fraction(-20), Fraction(1), 2)
    # d_(1) = 2 kappa (n-1) = 2, plus a|lambda| = -20
    assert bessel_eigenvalue(Partition((1,)), p) == -18
    assert p.a < square_integrability_bound(Partition((2, 1)).weight(), p)
    assert bessel_expand(Partition((2, 1)), p).coeff(Partition((2, 1))) == 1
    bad = BesselParams(Fraction(-2), Fraction(1), 2)
    with pytest.raises(DegenerateEigenvalue):  # e_(1) = 0 = e_()
        bessel_expand(Partition((1,)), bad)


def test_to_sym_is_a_fresh_polynomial():
    # to_sym builds its polynomial from the cached Jack expansions, which no
    # caller can edit through it
    Y = bessel_expand(Partition((2, 1)), SAMPLE[0])
    before = Y.to_sym().sorted_coeffs()
    with pytest.raises(TypeError):
        del Y.to_sym().coeffs[Partition((2, 1))]
    assert Y.to_sym().sorted_coeffs() == before and before


def test_bessel_expand_is_the_lowering_solve_expansion():
    # Y_lambda is its Jack expansion: the immutable vector lowering_solve
    # builds, in the context (n, kappa) of its parameters
    p = SAMPLE[2]
    lam = Partition((2, 1))
    Y = bessel_expand(lam, p)
    assert type(Y) is jack.JackExpansion and (Y.n, Y.kappa) == (p.n, p.kappa)
    assert Y == jack.lowering_solve(lam, Fraction(1), p.n, p.kappa, **jack_weights(p))
    assert Y == bessel_expand(lam, p) and hash(Y) == hash(bessel_expand(lam, p))
    assert Y != bessel_expand(lam, SAMPLE[0])
    with pytest.raises(TypeError):
        Y.coeffs[Partition(())] = Fraction(1)


def test_a_record_hashes_its_values_once(monkeypatch):
    calls = []
    values = BesselParams._values

    def counting_values(record):
        calls.append(record)
        return values(record)

    monkeypatch.setattr(BesselParams, "_values", counting_values)
    p = BesselParams(Fraction(-41, 2), Fraction(5, 3), 3)
    first = hash(p)
    assert len(calls) == 1
    assert hash(p) == first and len(calls) == 1
    assert first == hash((Fraction(-41, 2), Fraction(5, 3), 3))


def test_params_refuse_floats():
    with pytest.raises(TypeError, match="float"):
        BesselParams(0.5, 1, 2)
    with pytest.raises(TypeError, match="float"):
        BesselParams(-20, 1.0, 2)
    with pytest.raises(TypeError, match="float"):
        JacobiParams(1, 0.5, 1, 2)
    assert BesselParams("-41/2", "5/3", 2) == BesselParams(Fraction(-41, 2), Fraction(5, 3), 2)


def test_one_variable_expansion():
    p = BesselParams(Fraction(-20), Fraction(1), 1)
    Y = bessel_expand(Partition((1,)), p)
    assert Y.coeff(Partition((1,))) == 1
    assert Y.coeff(Partition(())) == Fraction(2, -20)


def test_recurrence_equals_tableau():
    for p in SAMPLE:
        for lam in partitions_up_to(4, p.n):
            Y = bessel_expand(lam, p)
            for mu in partitions_up_to(lam.weight(), p.n):
                if lam.contains(mu):
                    assert Y.coeff(mu) == bessel_coeff_tableau(lam, mu, p), (lam, mu)


def test_degenerate_tableau_raises():
    p = BesselParams(Fraction(-2), Fraction(1), 2)
    with pytest.raises(DegenerateEigenvalue):
        bessel_coeff_tableau(Partition((1,)), Partition(()), p)


def test_renormalize_constant_term_one():
    for p in SAMPLE:
        for lam in partitions_up_to(3, p.n):
            Yt = renormalized_jack(lam, p)
            assert Yt.coeff(Partition(())) == 1, lam


def test_renormalized_one_variable_identity():
    # n = 1, lambda = (1): the renormalized polynomial is 1 + (a/2) x
    for a in (Fraction(-20), Fraction(-31, 2)):
        p = BesselParams(a, Fraction(1), 1)
        f = renormalized_jack(Partition((1,)), p).to_sym()
        assert f.coeff(Partition(())) == 1
        assert f.coeff(Partition((1,))) == a / 2


def test_rectangular_2F0():
    for n in (1, 2):
        for k in (1, 2, 3):
            for a, kappa in ((Fraction(-20), Fraction(1)), (Fraction(-31, 2), Fraction(5, 3))):
                p = BesselParams(a, kappa, n)
                Y = rectangular_2F0(k, p)  # internally asserts against bessel_expand
                lam = Partition((k,) * n)
                assert Y.coeff(lam) == 1


def _one_variable_bessel(k, a):
    """Coefficients of the monic y_k with x^2 y'' + (a x + 2) y' = k(k-1+a) y
    (Krall and Frink): the x^j coefficient gives
    (j - k)(j + k - 1 + a) c_j + 2(j + 1) c_{j+1} = 0."""
    c = [Fraction(0)] * k + [Fraction(1)]
    for j in range(k - 1, -1, -1):
        c[j] = -2 * (j + 1) * c[j + 1] / ((j - k) * (j + k - 1 + a))
    return c


@pytest.mark.parametrize("a", [Fraction(-20), Fraction(-31, 2), Fraction(3, 7), Fraction(5)])
def test_kappa_zero_is_the_symmetrised_one_variable_product(a):
    # at kappa = 0 the Bessel operator separates, so Y_lambda is the sum over
    # distinct permutations sigma of prod_i y_{lambda_sigma(i)}(x_i)
    for n in range(1, 5):
        for lam in partitions_up_to(4, n):
            oracle = MultiPoly.zero(n)
            for sigma in set(permutations(lam.part(i) for i in range(1, n + 1))):
                term = MultiPoly.constant(n, 1)
                for i, k in enumerate(sigma):
                    y = {
                        tuple(j if m == i else 0 for m in range(n)): c
                        for j, c in enumerate(_one_variable_bessel(k, a))
                    }
                    term = term * MultiPoly(n, y)
                oracle = oracle + term
            Y = bessel_expand(lam, BesselParams(a, Fraction(0), n))
            assert Y.to_sym().expand() == oracle, (n, lam)
