from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvbessel import pieri_norms
from mvbessel.bessel import BesselParams, bessel_expand, renormalize
from mvbessel.errors import PoleError
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.pieri_norms import (
    Affine,
    CoefficientContext,
    E_hat_r,
    delta_ratio,
    limit_at_zero,
    norm_full_reduced,
    norm_n0_reduced,
    norm_ratio,
    norm_ratio_product,
    pieri_expand,
    pieri_verify,
    v_hat,
    w_hat,
)

CTXS = [
    CoefficientContext(BesselParams(Fraction(-20), Fraction(1), 2)),
    CoefficientContext(BesselParams(Fraction(-20), Fraction(2), 3)),
    CoefficientContext(BesselParams(Fraction(-31, 2), Fraction(5, 3), 2)),
]


def test_step_function_poles():
    with pytest.raises(PoleError):
        v_hat(Fraction(0), Fraction(1))
    with pytest.raises(PoleError):
        w_hat(Fraction(0), Fraction(-20))
    with pytest.raises(PoleError):
        w_hat(Fraction(-1, 2), Fraction(-20))


T = Affine(Fraction(0), Fraction(1))


def test_limit_at_zero_removable_singularity():
    # (t^2 + 2t)/t -> 2
    assert limit_at_zero([([T, Affine(Fraction(2), Fraction(1))], [T])]) == 2


def test_limit_at_zero_genuine_pole():
    with pytest.raises(PoleError):
        limit_at_zero([([], [T])])


def test_limit_at_zero_pole_cancelled_across_terms():
    # 1/t - 1/t -> 0
    assert limit_at_zero([([], [T]), ([Affine(Fraction(-1))], [T])]) == 0


constants = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)
slopes = st.sampled_from([Fraction(k, 2) for k in (-3, -2, -1, 1, 2, 3)])
factors = st.builds(Affine, constants, slopes)
factor_terms = st.tuples(st.lists(factors, max_size=4), st.lists(factors, max_size=2))


def _limit_or_pole(terms):
    try:
        return limit_at_zero(terms)
    except PoleError:
        return PoleError


@settings(derandomize=True, deadline=None)
@given(st.lists(factor_terms, min_size=1, max_size=4))
def test_limit_at_zero_is_unchanged_by_doubling_every_slope(terms):
    # t -> 2t scales each Laurent coefficient of t^k by 2^k: the t^0
    # coefficient and which coefficients vanish both stay the same
    doubled = [
        ([Affine(f.c, 2 * f.s) for f in num], [Affine(f.c, 2 * f.s) for f in den])
        for num, den in terms
    ]
    assert _limit_or_pole(doubled) == _limit_or_pole(terms)


def test_pieri_genuine_pole_names_its_move():
    ctx = CoefficientContext(BesselParams(Fraction(0), Fraction(1), 2))
    with pytest.raises(PoleError, match=r"genuine pole at move \(\(1,\), \(1,\)\)"):
        pieri_expand(2, Partition(()), ctx)


def test_delta_ratio_one_variable_anchors():
    ctx = CoefficientContext(BesselParams(Fraction(-20), Fraction(1), 1))
    a = ctx.params.a
    # single box: the one-variable step is w((a-1)/2) = 1/a; the second box
    # contributes w((a+1)/2) = a/((a+1)(a+2))
    assert delta_ratio("+", Partition((1,)), ctx) == 1 / a
    assert delta_ratio("+", Partition((2,)), ctx) == 1 / ((a + 1) * (a + 2))


def test_ehat_normalization():
    e = E_hat_r(2, 3)
    assert e.coeff(Partition((1, 1))) == Fraction(-1, 4)


def test_pieri_oracle_all_sample_params():
    for ctx in CTXS:
        n = ctx.params.n
        for r in range(1, n + 1):
            for lam in partitions_up_to(3, n):
                assert pieri_verify(r, lam, ctx), (r, lam, ctx.params)


def test_pieri_verify_builds_each_basis_element_once(monkeypatch):
    calls = []

    def counting_bessel_expand(lam, p):
        calls.append(lam)
        return bessel_expand(lam, p)

    monkeypatch.setattr(pieri_norms, "bessel_expand", counting_bessel_expand)
    ctx = CoefficientContext(BesselParams(Fraction(-27, 2), Fraction(1), 3))
    for r in (1, 2, 3):
        for lam in partitions_up_to(2, 3):
            assert pieri_verify(r, lam, ctx)
    assert calls and len(calls) == len(set(calls))


def test_pieri_one_variable_hand_identity():
    # x/2 = (1/a)(Ytilde_(1) - Ytilde_()) at five rational values of a
    for a in (Fraction(-20), Fraction(-31, 2), Fraction(-7), Fraction(5, 2), Fraction(3)):
        p = BesselParams(a, Fraction(1), 1)
        ctx = CoefficientContext(p)
        exp = pieri_expand(1, Partition(()), ctx)
        coeffs = exp.by_target()
        assert coeffs[Partition((1,))] == 1 / a
        assert coeffs[Partition(())] == -1 / a
        y1 = renormalize(bessel_expand(Partition((1,)), p)).to_sym()
        y0 = renormalize(bessel_expand(Partition(()), p)).to_sym()
        half_x = (y1 - y0).scale(1 / a)
        assert half_x.coeff(Partition((1,))) == Fraction(1, 2)
        assert half_x.coeff(Partition(())) == 0


def test_pieri_coefficients_finite_at_special_kappa():
    # kappa = 1 puts removable singularities in every factor; the limit
    # along the parameter line must exist and satisfy the oracle.
    ctx = CoefficientContext(BesselParams(Fraction(-20), Fraction(1), 2))
    exp = pieri_expand(2, Partition((1,)), ctx)
    assert all(isinstance(c, Fraction) for _, c in exp.by_target().items())


def test_norm_ratio_two_routes():
    for ctx in CTXS:
        for lam in partitions_up_to(3, ctx.params.n):
            assert norm_ratio(lam, ctx) == norm_ratio_product(lam, ctx), lam


def test_norm_anchors():
    ctx1 = CoefficientContext(BesselParams(Fraction(-20), Fraction(1), 1))
    assert norm_full_reduced(Partition((1,)), ctx1) == Fraction(1, 1900)
    a = Fraction(-20)
    ctx2 = CoefficientContext(BesselParams(a, Fraction(1), 2))
    assert norm_n0_reduced(ctx2) == -8 / (a * a * (a + 1))


def test_norm_positivity_on_grid():
    for a in (Fraction(-20), Fraction(-31)):
        for kappa in (Fraction(1), Fraction(2)):
            for n in (1, 2, 3):
                ctx = CoefficientContext(BesselParams(a, kappa, n))
                for lam in partitions_up_to(3, n):
                    if a < -2 * (lam.weight() + kappa * (n - 1)) + 1:
                        assert norm_full_reduced(lam, ctx) > 0, (a, kappa, n, lam)
