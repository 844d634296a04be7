import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mvbessel import diffops, jack, jacobi_bc, orthogonality
from mvbessel.errors import NotDivisible, NotSymmetric
from mvbessel.jack import JackExpansion, principal_spec
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.polyalg import (
    FactoredFraction,
    MultiPoly,
    PartitionVector,
    SparseVector,
    SymPoly,
    collect_symmetric,
    common_denominator,
    divide_exact,
    elementary,
    orbit,
    orbit_size,
    power_sum,
    rat_str,
    rational,
)


def test_rat_parsing():
    assert rat_str(Fraction(-7, 2)) == "-7/2"
    assert rat_str(Fraction(3)) == "3"


@settings(derandomize=True, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=60), max_size=8))
@example([])
@example([Fraction(0), Fraction(-3, 4), Fraction(5, 6)])
def test_common_denominator_is_the_lcm_with_exact_numerators(values):
    d, nums = common_denominator(iter(values))
    assert d == math.lcm(*(v.denominator for v in values))
    assert len(nums) == len(values) and all(type(m) is int for m in nums)
    assert [Fraction(m, d) for m in nums] == values


def test_multipoly_arithmetic():
    x = MultiPoly.variable(2, 1)
    y = MultiPoly.variable(2, 2)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.deriv(1) == x.scale(2)
    assert f.evaluate([Fraction(3), Fraction(1)]) == 8
    assert (f - f).is_zero()


def test_divide_exact():
    x = MultiPoly.variable(2, 1)
    y = MultiPoly.variable(2, 2)
    num = x * x * x - y * y * y
    assert divide_exact(num, x - y) == x * x + x * y + y * y
    with pytest.raises(NotDivisible):
        divide_exact(x * x + y, x - y)


def test_divide_exact_zero_dividend():
    x = MultiPoly.variable(2, 1)
    y = MultiPoly.variable(2, 2)
    assert divide_exact(MultiPoly.zero(2), x - y).is_zero()


def test_divide_exact_late_remainder():
    # x^3 - y^3 + y: three quotient terms x^2, xy, y^2 reduce cleanly before
    # the remainder y, whose leading term x does not divide, is reached
    x = MultiPoly.variable(2, 1)
    y = MultiPoly.variable(2, 2)
    with pytest.raises(NotDivisible):
        divide_exact(x * x * x - y * y * y + y, x - y)
    g = x * x + x * y.scale(3) - MultiPoly.constant(2, 2)
    q = x * y + y * y.scale(Fraction(1, 2)) + MultiPoly.constant(2, 5)
    with pytest.raises(NotDivisible):
        divide_exact(q * g + y, g)


def test_divide_exact_through_cancelled_terms():
    # in (x - y)(x + y + z) the xy terms cancel, so the reduction passes
    # through an exponent that the dividend does not have
    x, y, z = (MultiPoly.variable(3, i) for i in (1, 2, 3))
    f = x * x + x * z - y * y - y * z
    assert divide_exact(f, x + y + z) == x - y


def sparse_polys(min_terms: int):
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=5).map(
        lambda terms: MultiPoly(3, terms)
    )


@settings(derandomize=True, deadline=None)
@given(sparse_polys(0), sparse_polys(2))
def test_divide_exact_round_trip(q, g):
    assert divide_exact(q * g, g) == q


@st.composite
def divisions_with_a_remainder(draw):
    # q, a non-constant g and a nonzero r with deg r < deg g: every multiple
    # of g has degree at least deg g, so g never divides q*g + r
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.builds(Fraction, st.sampled_from([k for k in range(-5, 6) if k]), st.integers(1, 4))
    q = MultiPoly(n, draw(st.dictionaries(exps, coeffs, max_size=5)))
    non_constant = st.dictionaries(exps, coeffs, min_size=1, max_size=5).filter(lambda t: any(map(any, t)))
    g = MultiPoly(n, draw(non_constant))
    r = {}
    for e in draw(st.lists(exps, min_size=1, max_size=5)):
        budget = g.degree() - 1
        lowered = []
        for x in e:
            lowered.append(min(x, budget))
            budget -= lowered[-1]
        r[tuple(lowered)] = draw(coeffs)
    return q, g, MultiPoly(n, r)


@settings(derandomize=True, deadline=None)
@given(divisions_with_a_remainder())
def test_divide_exact_refuses_a_remainder_of_lower_degree(case):
    q, g, r = case
    assert g.degree() > r.degree() and not r.is_zero()
    with pytest.raises(NotDivisible):
        divide_exact(q * g + r, g)


def _vectors():
    lam, mu = Partition((2,)), Partition((1, 1))
    return [
        SymPoly(2, {lam: Fraction(3), mu: Fraction(-1, 2)}),
        JackExpansion(2, Fraction(5, 3), {lam: Fraction(3), mu: Fraction(-1, 2)}),
        MultiPoly(2, {(2, 0): Fraction(3), (1, 1): Fraction(-1, 2)}),
        SymPoly(3),
    ]


def test_vectors_are_immutable():
    for v in _vectors() + [SymPoly(2, {Partition((2, 1)): 1}).expand()]:
        before = dict(v.coeffs)
        with pytest.raises(TypeError):
            v.coeffs[next(iter(before), Partition((1,)))] = Fraction(99)
        with pytest.raises(AttributeError, match="is immutable"):
            v.coeffs = {}
        with pytest.raises(AttributeError, match="is immutable"):
            v.n = 5
        with pytest.raises(AttributeError, match="is immutable"):
            del v.n
        assert dict(v.coeffs) == before
    with pytest.raises(AttributeError, match="JackExpansion is immutable"):
        _vectors()[1].kappa = Fraction(1)
    # the orbit table behind expand is unchanged by the refused edits
    assert SymPoly(2, {Partition((2, 1)): 1}).expand().coeff((2, 1)) == 1


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_keep_an_immutable_vector(clone):
    for v in _vectors():
        c = clone(v)
        assert type(c) is type(v) and c == v and hash(c) == hash(v)
        with pytest.raises(TypeError):
            c.coeffs[Partition(())] = Fraction(1)
        assert dict(c.coeffs) == dict(v.coeffs)


def test_floats_are_refused():
    with pytest.raises(TypeError, match="float"):
        SymPoly(1, {Partition((1,)): 0.1})
    with pytest.raises(TypeError, match="float"):
        MultiPoly(1, {(1,): 0.5})
    with pytest.raises(TypeError, match="float"):
        SymPoly(1, {Partition((1,)): 1}).scale(0.5)
    with pytest.raises(TypeError, match="float"):
        JackExpansion(1, 0.5)
    with pytest.raises(TypeError, match="float"):
        rational(0.25)
    assert rational("1/10") == Fraction(1, 10) and rational(3) == 3
    assert SymPoly(1, {Partition((1,)): "1/10"}).coeff(Partition((1,))) == Fraction(1, 10)


_ONE = Partition((1,))
_F = SymPoly(2, {_ONE: 1})
_FLOAT_CALLS = [
    (jack.eigenvalue_d, (_ONE, 0.5, 2)),
    (jack.triangular_solve, (_ONE, 0.5, [], lambda mu: 0, lambda mu, u: 0)),
    (jack.jack_in_monomials, (Partition((1, 1)), 0.1, 2)),
    (jack.hook_products, (_ONE, 0.5)),
    (jack.principal_spec, (_ONE, 0.5, 2)),
    (jack.psi_prime, (_ONE, 2, 0.5)),
    (jack.binomial_cocover, (_ONE, 2, 0.5)),
    (jack.binomial_cocover_product, (_ONE, 1, 0.5)),
    (jack.spec_ratio_product, (_ONE, 1, 0.5, 2)),
    (jack.lower_weight, (_ONE, 1, 0.5, 2)),
    (jack.sym_to_jack, (_F, 0.5)),
    (jack.rising_factorial, (0.5, 2)),
    (jack.gen_pochhammer, (0.5, _ONE, 1)),
    (jack.hyperg_trunc, ([1], [], 0.5, 1, 2, 1)),
    (jack.hyperg_trunc, ([0.5], [], 1, 1, 2, 1)),
    (diffops.apply_sutherland_sym, (_F, 2, 0.5)),
    (diffops.apply_bessel_sym, (_F, 0.5, 1)),
    (diffops.apply_bessel_sym, (_F, -20, 0.5)),
    (diffops.apply_jacobi_bc_sym, (_F, 1, 1, 0.5)),
    (diffops.apply_jacobi_bc_sym, (_F, 0.5, 1, 1)),
    (orthogonality.moment_1d, (1, -20.5)),
    (orthogonality.moments2_table, (1, -20.5, 1)),
    (orthogonality.moments2_table, (1, -20, 0.1)),
    (jacobi_bc.limit_params, (0.5, 1, 1, 2)),
    (jacobi_bc.limit_params, (1, 1, 0.5, 2)),
    (SymPoly.constant, (2, 0.5)),
    (MultiPoly.constant, (2, 0.5)),
    (MultiPoly.monomial, (2, (1, 0), 0.5)),
    (MultiPoly.variable(2, 1).evaluate, ([0.5, 1],)),
]


@pytest.mark.parametrize("function, args", _FLOAT_CALLS, ids=[f.__qualname__ for f, _ in _FLOAT_CALLS])
def test_functions_refuse_a_float(function, args):
    # a function that coerces its scalar takes it through rational, as the
    # constructors do, so a float never slips in as its binary value
    with pytest.raises(TypeError, match="float"):
        function(*args)


def test_monomial_symmetric_and_collect():
    m21 = SymPoly(2, {Partition((2, 1)): 1}).expand()
    assert m21.coeff((2, 1)) == 1 and m21.coeff((1, 2)) == 1
    s = collect_symmetric(m21)
    assert s.coeff(Partition((2, 1))) == 1 and len(s.coeffs) == 1
    with pytest.raises(NotSymmetric, match=r"^orbit of \(2, 1\) has inconsistent coefficients$"):
        collect_symmetric(MultiPoly.monomial(2, (2, 1)))


def test_orbit_size_is_m_lambda_at_ones():
    # m_lambda(1^n) = P_lambda(1^n) at kappa = 0, an independent closed form;
    # orbit_size counts the orbit that orbit lists
    for n in range(1, 7):
        for lam in partitions_up_to(6, n):
            size = principal_spec(lam, Fraction(0), n)
            assert len(orbit(lam, n)) == orbit_size(lam, n) == size, (lam, n)
    assert isinstance(orbit(Partition((2, 1)), 3), tuple)
    for count in (orbit, orbit_size):
        with pytest.raises(ValueError, match="more than 1 parts"):
            count(Partition((1, 1)), 1)


@st.composite
def sym_polys(draw):
    n = draw(st.integers(1, 5))
    lams = partitions_up_to(4, n)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return SymPoly(n, draw(st.dictionaries(st.sampled_from(lams), coeffs, max_size=6)))


@settings(derandomize=True, deadline=None)
@given(sym_polys())
def test_collect_symmetric_inverts_expand(f):
    assert collect_symmetric(f.expand()) == f


def test_vector_keys_are_validated():
    with pytest.raises(ValueError, match="not a Partition"):
        SymPoly(2, {(2, 1): 1})
    with pytest.raises(ValueError, match="not a Partition"):
        JackExpansion(2, Fraction(1), {(1,): 1})
    for exps in ((2, 1.5), (2, -1), (Fraction(1), 0)):
        with pytest.raises(ValueError, match="non-negative integers"):
            MultiPoly(2, {exps: 1})


def test_elementary_and_power_sum():
    e2 = elementary(2, 3)
    assert e2.expand().coeff((1, 1, 0)) == 1
    # Newton identity p2 = e1^2 - 2 e2
    e1 = elementary(1, 3)
    assert power_sum(2, 3).expand() == e1.expand() * e1.expand() - e2.expand().scale(2)


def test_sympoly_ring_operations():
    f = SymPoly(2, {Partition((1,)): Fraction(1)})
    g = f * f
    assert g.coeff(Partition((2,))) == 1 and g.coeff(Partition((1, 1))) == 2
    assert (g - g).is_zero()
    assert g.degree() == 2
    assert f.expand().evaluate([Fraction(2), Fraction(5)]) == 7


def test_evaluate_refuses_a_point_of_the_wrong_length():
    f = SymPoly(2, {Partition((1,)): Fraction(1)}).expand()
    for point in ([5], [1, 2, 3]):
        with pytest.raises(ValueError, match="expected 2"):
            f.evaluate(point)


@st.composite
def sym_poly_pairs(draw):
    n = draw(st.integers(1, 6))
    lams = partitions_up_to(4, n)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    pair = [draw(st.dictionaries(st.sampled_from(lams), coeffs, max_size=5)) for _ in range(2)]
    return tuple(SymPoly(n, terms) for terms in pair)


@settings(derandomize=True, deadline=None)
@given(sym_poly_pairs())
def test_product_on_the_m_basis_is_the_expanded_product(pair):
    # the kernel multiplies on one exponent per partition; the oracle
    # multiplies every monomial and collects the orbits
    f, g = pair
    for left, right in ((f, g), (f, SymPoly.zero(f.n)), (SymPoly.constant(f.n, Fraction(-2, 3)), g)):
        assert left * right == right * left == collect_symmetric(left.expand() * right.expand())
    with pytest.raises(ValueError, match="variable count mismatch"):
        f * SymPoly(f.n + 1)


def test_factored_fraction_roundtrip():
    x = MultiPoly.variable(2, 1)
    y = MultiPoly.variable(2, 2)
    f = FactoredFraction.from_poly(x * x - y * y)
    g = f.div_pair(1, 2)  # divide by (x1 - x2)
    assert g.to_poly() == x + y
    h = FactoredFraction.from_poly(x * y).div_var(1, 1)
    assert h.to_poly() == y


def test_factored_fraction_derivative_takes_the_quotient_rule():
    # d/dx_1 (x_2 / x_1) = -x_2 / x_1^2, read back as a polynomial after x_1^2
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    g = FactoredFraction.from_poly(x2).div_var(1).deriv(1)
    assert g.mul_var(1).mul_var(1).to_poly() == -x2
    assert FactoredFraction.from_poly(x1 * x2).div_var(1).deriv(2).to_poly() == MultiPoly.constant(2, 1)


def test_factored_fraction_cancels_a_divided_power_back():
    x, y = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    f = x * x * y + x * y * y + y
    g = FactoredFraction.from_poly(f * x * x).div_var(1, 3)
    assert g.var_pows == (1, 0) and g.numer == f
    h = g.mul_var(1).simplify()
    assert h.var_pows == (0, 0) and h.to_poly() == f
    # the unsimplified x_1 f / x_1 cancels too
    assert FactoredFraction(f * x, (1, 0)).simplify().to_poly() == f


def test_factored_fraction_pair_division_is_exact_at_the_call():
    x, y = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    with pytest.raises(NotDivisible):
        FactoredFraction.from_poly(x).div_pair(1, 2)
    for i, j in ((0, 1), (1, 1), (1, 3)):
        with pytest.raises(ValueError):
            FactoredFraction.from_poly(x).div_pair(i, j)
    # (x^2 - y^2)/y over (x - y) is (x + y)/y, and over (y - x) its negative
    f = FactoredFraction.from_poly(x * x - y * y).div_var(2)
    forward, backward = f.div_pair(1, 2), f.div_pair(2, 1)
    assert forward.numer == x + y and forward.var_pows == (0, 1)
    assert backward.numer == -(x + y) and backward.var_pows == (0, 1)


def test_equal_vectors_hash_alike():
    for v in _vectors():
        same = type(v)(*v._context(), dict(v.coeffs))
        assert same == v and hash(same) == hash(v) and same in {v} and v in {same: 1}
    # the edit that once left f unfindable in a set holding it is refused
    lam = Partition((1,))
    f = SymPoly(2, {lam: Fraction(1)})
    s = {f}
    with pytest.raises(TypeError):
        f.coeffs[Partition((2,))] = Fraction(1)
    assert f in s and (f + f).scale(Fraction(1, 2)) in s and f + f not in s
    # the context is part of the hash key, as it is of equality
    assert len({JackExpansion(2, Fraction(1), {lam: 1}), JackExpansion(2, Fraction(2), {lam: 1})}) == 2
    # FactoredFraction is test-oracle code with reassignable fields: unhashable
    with pytest.raises(TypeError):
        hash(FactoredFraction.from_poly(MultiPoly.variable(2, 1)))


def test_partition_vectors_share_arithmetic_but_not_equality():
    lam, mu = Partition((2,)), Partition((1, 1))
    sp = SymPoly(2, {lam: Fraction(3), mu: Fraction(-1, 2)})
    jx = JackExpansion(2, Fraction(5, 3), {lam: Fraction(3), mu: Fraction(-1, 2)})
    assert sp.coeffs == jx.coeffs
    assert sp != jx and jx != sp
    assert repr(sp) == "-1/2*m[1, 1] + 3*m[2]" and repr(jx) == "-1/2*P[1, 1] + 3*P[2]"
    assert list(sp.to_json().items()) == list(jx.to_json().items()) == [("[1,1]", "-1/2"), ("[2]", "3")]
    assert (sp - sp).is_zero() and (jx + jx.scale(-1)).is_zero()
    assert type(-jx) is JackExpansion and (-jx).kappa == jx.kappa
    assert jx.truncate(1).is_zero() and jx.truncate(2) == jx
    with pytest.raises(ValueError, match="variable count mismatch"):
        sp + SymPoly(3)
    with pytest.raises(ValueError, match="mismatched Jack expansion contexts"):
        jx + JackExpansion(2, Fraction(1))
    with pytest.raises(ValueError, match="more than 1 parts"):
        JackExpansion(1, Fraction(1), {mu: Fraction(1)})
    mp = MultiPoly(2, {(2, 0): Fraction(3), (1, 1): Fraction(-1, 2), (0, 0): 5, (0, 3): 1})
    assert repr(mp) == "5*1 + -1/2*x1^1*x2^1 + 3*x1^2 + 1*x2^3"
    assert list(mp.to_json().items()) == [("[0,0]", "5"), ("[1,1]", "-1/2"), ("[2,0]", "3"), ("[0,3]", "1")]
    assert mp.degree() == 3 and mp.leading() == ((0, 3), 1) and repr(MultiPoly(2)) == "0"
    same_map = SymPoly(2)._new(dict(mp.coeffs))
    assert mp != same_map and same_map != mp
    with pytest.raises(ValueError, match="variable count mismatch"):
        mp + MultiPoly(3)
    with pytest.raises(ValueError, match="variable count mismatch"):
        mp * same_map
    with pytest.raises(ValueError, match="length != 2"):
        MultiPoly(2, {(1,): Fraction(1)})


def test_one_base_holds_the_vector_arithmetic():
    shared = {"__add__", "__neg__", "__sub__", "scale", "is_zero", "degree", "__eq__"}
    shared |= {"sorted_coeffs", "__repr__", "to_json"}
    for cls in (MultiPoly, PartitionVector, SymPoly, JackExpansion):
        assert issubclass(cls, SparseVector)
        assert not shared & set(vars(cls)), cls
    assert shared <= set(vars(SparseVector))
