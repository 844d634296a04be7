import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from mvbessel.bessel import BesselParams, bessel_expand
from mvbessel.errors import (
    ConvergenceError,
    DegenerateEigenvalue,
    DegenerateRecurrence,
    PoleError,
)
from mvbessel import orthogonality
from mvbessel.operators import apply_higher
from mvbessel.orthogonality import (
    _moment_table,
    _moments,
    _monomial_pairing,
    _schur_pairing,
    _vandermonde_power,
    _weighted_moment,
    MomentTable2,
    bilinear_matrix,
    check_L2_condition,
    check_first_recurrence,
    functional_apply,
    functional_matrix,
    gram_matrix,
    inner_product,
    moment_1d,
    moments2_table,
    symmetry_check,
)
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.pieri_norms import norm_full_reduced
from mvbessel.polyalg import MultiPoly, SymPoly
from oracles import schur


def test_moment_table_is_a_frozen_record():
    t = moments2_table(2, Fraction(-20), Fraction(1))
    source = dict(t.I)
    u = MomentTable2(Fraction(-20), Fraction(1), 2, source)
    assert t == u and hash(t) == hash(u) and u in {t}
    assert t != (t.a, t.kappa, t.maxdeg, t.I)
    assert t != MomentTable2(Fraction(-20), Fraction(1), 3, dict(t.I))
    with pytest.raises(AttributeError):
        u.maxdeg = 3
    with pytest.raises(TypeError):
        u.I[(0, 0)] = Fraction(2)
    # the table holds its own copy, so editing the source dict does not reach it
    source[(0, 0)] = Fraction(2)
    assert t == u and u.value(0, 0) == 1
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(clone) is MomentTable2 and clone == t and hash(clone) == hash(t)
        assert clone.value(2, 0) == t.value(2, 0)
    assert repr(MomentTable2(Fraction(-20), Fraction(1), 0, {(0, 0): Fraction(1)})) == (
        "MomentTable2(a=Fraction(-20, 1), kappa=Fraction(1, 1), maxdeg=0, "
        "I=mappingproxy({(0, 0): Fraction(1, 1)}))"
    )


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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.fractions(min_value=-40, max_value=3, max_denominator=7))
def test_moment_table_is_the_closed_product(a):
    first_divergent = max(0, math.ceil(1 - a))
    for p in range(first_divergent):
        want = Fraction(2) ** p / math.prod((-a - j for j in range(p)), start=Fraction(1))
        assert moment_1d(p, a) == want, p
    for p in range(first_divergent, first_divergent + 3):
        with pytest.raises(ConvergenceError):
            moment_1d(p, a)
    with pytest.raises(ValueError):
        moment_1d(-1, a)


def test_moment_table_is_a_cached_tuple():
    a = Fraction(-31, 2)
    table = _moments(9, a)
    assert type(table) is tuple and len(table) >= 10
    with pytest.raises(TypeError):
        table[3] = Fraction(0)
    assert _moments(9, a) is table and moment_1d(3, a) == table[3]
    assert table == _moment_table.__wrapped__(a, len(table))
    assert 0 < _moment_table.cache_info().maxsize < 10**6


def test_bilinear_matrix_contracts_rows_against_columns():
    pair = {("x", "x"): 2, ("x", "y"): 3, ("y", "x"): 3, ("y", "y"): 5}
    rows = [{"x": 1}, {"x": 1, "y": -1}]
    cols = [{"y": 2}, {}]
    # B(f, g) = sum f_nu g_rho pair(nu, rho); an empty column pairs to 0
    assert bilinear_matrix(rows, cols, lambda nu, rho: pair[nu, rho]) == [[6, 0], [-4, 0]]


def test_bilinear_matrix_mirrors_a_symmetric_form_onto_its_lower_triangle():
    # given one list as rows and columns, only the entries on and above the
    # diagonal are dot products; the rest equal those of a full contraction
    pair = {("x", "x"): 2, ("x", "y"): 3, ("y", "x"): 3, ("y", "y"): Fraction(5, 7)}
    fs = [{"x": 1}, {"x": Fraction(1, 2), "y": -1}, {}, {"y": 4}]
    full = bilinear_matrix(fs, list(fs), lambda nu, rho: pair[nu, rho])
    assert bilinear_matrix(fs, fs, lambda nu, rho: pair[nu, rho]) == full
    assert full == [list(col) for col in zip(*full)] and full[1][3] == Fraction(22, 7)
    # the mirror reads the row above, so a non-symmetric pairing shows it
    skew = {**pair, ("y", "x"): 0}
    mirrored = bilinear_matrix(fs, fs, lambda nu, rho: skew[nu, rho])
    assert mirrored[1][0] == mirrored[0][1] == -2
    assert bilinear_matrix(fs, list(fs), lambda nu, rho: skew[nu, rho])[1][0] == 1


def test_inner_product_anchors():
    a = Fraction(-20)
    p1 = BesselParams(a, Fraction(1), 1)
    one1 = SymPoly.constant(1, 1)
    assert inner_product(one1, one1, p1) == 1
    y1 = bessel_expand(Partition((1,)), p1).to_sym()
    assert inner_product(y1, y1, p1) == -4 / (a * a * (a + 1))
    p2 = BesselParams(a, Fraction(1), 2)
    one2 = SymPoly.constant(2, 1)
    assert inner_product(one2, one2, p2) == -8 / (a * a * (a + 1))


def test_inner_product_rejects_fractional_kappa():
    p = BesselParams(Fraction(-20), Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        inner_product(SymPoly.constant(1, 1), SymPoly.constant(1, 1), p)


def test_inner_product_refuses_negative_kappa():
    # a negative kappa would otherwise pair with Delta^0 instead of refusing
    p = BesselParams(Fraction(-20), Fraction(-1), 2)
    one = SymPoly.constant(2, 1)
    with pytest.raises(ValueError, match="moment oracle needs kappa a non-negative integer"):
        inner_product(one, one, p)


def test_inner_product_names_the_first_exponent_without_a_moment():
    # m_(3) m_(3) Delta^2 reaches x^8, but x^4 is the first power without a moment
    p = BesselParams(Fraction(-3), Fraction(1), 2)
    f = SymPoly(2, {Partition((3,)): Fraction(1)})
    with pytest.raises(ConvergenceError, match=r"^moment of x\^4 diverges at a = -3$"):
        inner_product(f, f, p)


def test_inner_product_reuses_immutable_cached_pairings():
    p = BesselParams(Fraction(-31), Fraction(2), 3)
    f = bessel_expand(Partition((2, 1)), p).to_sym()
    g = bessel_expand(Partition((1,)), p).to_sym()
    first = inner_product(f, g, p)
    hits = _monomial_pairing.cache_info().hits
    assert inner_product(f, g, p) == first
    assert _monomial_pairing.cache_info().hits >= hits + len(f.coeffs) * len(g.coeffs)
    keys = {
        _monomial_pairing: [(nu, mu, 3, p.a, 4) for nu in f.coeffs for mu in g.coeffs],
        _weighted_moment: [((3, 1, 0), p.a, 4), ((2, 1, 1), p.a, 4), ((0, 0, 0), p.a, 4)],
        _vandermonde_power: [(3, 4), (3, 0)],
    }
    for cache, args in keys.items():
        cached = [cache(*k) for k in args]
        hash(tuple(cached))  # immutable all the way down: no caller can edit it in place
        assert cached == [cache.__wrapped__(*k) for k in args]
        cache.cache_clear()
        assert [cache(*k) for k in args] == cached
    # with the pairings gone, a repeated call rebuilds them from the cached T values
    hits = _weighted_moment.cache_info().hits
    _monomial_pairing.cache_clear()
    assert inner_product(f, g, p) == first
    assert _weighted_moment.cache_info().hits > hits


def test_mutating_an_input_does_not_reach_the_pairing_caches():
    # an input cannot be edited in place; a changed input is a new value,
    # which is paired afresh
    p = BesselParams(Fraction(-31), Fraction(2), 3)
    f = bessel_expand(Partition((1,)), p).to_sym()
    g = bessel_expand(Partition((1,)), p).to_sym()
    first = inner_product(f, g, p)
    with pytest.raises(TypeError):
        g.coeffs[Partition((1,))] += 1
    changed_g = g + SymPoly(3, {Partition((1,)): 1})
    changed = inner_product(f, changed_g, p)
    assert changed == _monomial_sum_oracle(f, changed_g, p) != first
    assert inner_product(f, g, p) == first


def test_inner_product_zero_argument_and_mismatch():
    p = BesselParams(Fraction(0), Fraction(1), 2)
    one = SymPoly.constant(2, 1)
    # at a = 0 the weight Delta^2 alone diverges, but a zero factor leaves nothing to integrate
    assert inner_product(SymPoly.zero(2), one, p) == 0
    assert inner_product(one, SymPoly.zero(2), p) == 0
    with pytest.raises(ConvergenceError):
        inner_product(one, one, p)
    with pytest.raises(ValueError):
        inner_product(SymPoly.constant(3, 1), SymPoly.constant(3, 1), p)


def _monomial_sum_oracle(f: SymPoly, g: SymPoly, p: BesselParams) -> Fraction:
    """The reduced inner product by brute force: expand f*g*prod(x_i-x_j)^{2 kappa}
    into monomials and integrate termwise; any divergent term aborts."""
    if p.kappa.denominator != 1 or p.kappa < 0:
        raise ValueError("moment oracle needs kappa a non-negative integer")
    vdm = MultiPoly.constant(p.n, 1)
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            diff = MultiPoly.variable(p.n, i) - MultiPoly.variable(p.n, j)
            for _ in range(2 * int(p.kappa)):
                vdm = vdm * diff
    poly = f.expand() * g.expand() * vdm
    factors = {}
    for exps in poly.coeffs:
        for e in exps:
            if e not in factors:
                factors[e] = moment_1d(e, p.a)
    total = Fraction(0)
    for exps, c in poly.coeffs.items():
        term = c
        for e in exps:
            term *= factors[e]
        total += term
    return total


def _value_or_divergent(fn, *args):
    try:
        return fn(*args)
    except ConvergenceError:
        return ConvergenceError


coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def moment_cases(draw):
    """Symmetric f, g (the zero polynomial included), integer kappa, and a
    rational a drawn around the convergence bound of f*g*Delta^{2 kappa}."""
    n = draw(st.integers(1, 3))
    shapes = partitions_up_to(3, n)

    def poly():
        if draw(st.integers(0, 7)) == 5:
            return SymPoly.zero(n)
        support = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=3))
        return SymPoly(n, {mu: draw(coefficients) or 1 for mu in support})

    f, g = poly(), poly()
    kappa = draw(st.sampled_from([0, 1, 2]))
    top = sum(max((mu.part(1) for mu in h.coeffs), default=0) for h in (f, g))
    bound = 1 - top - 2 * kappa * (n - 1)  # the product converges iff a < bound
    a = bound + draw(st.fractions(min_value=-6, max_value=2, max_denominator=4))
    return f, g, BesselParams(a, Fraction(kappa), n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(moment_cases())
def test_inner_product_matches_the_monomial_sum_oracle(case):
    f, g, p = case
    want = _value_or_divergent(_monomial_sum_oracle, f, g, p)
    assert _value_or_divergent(inner_product, f, g, p) == want


@settings(derandomize=True, deadline=None, max_examples=100)
@given(moment_cases(), st.data())
def test_weighted_moment_and_inner_product_are_symmetric(case, data):
    f, g, p = case
    two_kappa = 2 * int(p.kappa)
    delta = data.draw(st.lists(st.integers(0, 4), min_size=p.n, max_size=p.n))
    shuffled = data.draw(st.permutations(delta))
    want = _value_or_divergent(_weighted_moment, tuple(sorted(delta, reverse=True)), p.a, two_kappa)
    assert _value_or_divergent(_weighted_moment.__wrapped__, tuple(shuffled), p.a, two_kappa) == want
    assert _value_or_divergent(inner_product, f, g, p) == _value_or_divergent(inner_product, g, f, p)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(1, 2), moment_cases())
def test_symmetry_check_matches_the_monomial_sum_oracle(d, case):
    f, g, p = case

    def oracle():
        lhs = _monomial_sum_oracle(apply_higher(d, f, p), g, p)
        return lhs == _monomial_sum_oracle(f, apply_higher(d, g, p), p)

    assert _value_or_divergent(symmetry_check, d, f, g, p) == _value_or_divergent(oracle)


@st.composite
def schur_cases(draw):
    """n <= 4, partitions nu, rho of weight <= 3 in at most n parts, and a
    rational a inside the convergence bound of s_nu s_rho Delta^2."""
    n = draw(st.integers(1, 4))
    shapes = partitions_up_to(3, n)
    nu, rho = draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))
    bound = 1 - nu.part(1) - rho.part(1) - 2 * (n - 1)
    a = bound - draw(st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
    return nu, rho, BesselParams(a, Fraction(1), n)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(schur_cases())
def test_andreief_pairing_is_the_delta_squared_monomial_pairing(case):
    nu, rho, p = case
    want = inner_product(schur(nu, p.n), schur(rho, p.n), p)
    assert _schur_pairing.__wrapped__(nu, rho, p.n, p.a) == want
    assert _schur_pairing.__wrapped__(rho, nu, p.n, p.a) == want


@st.composite
def confluent_cases(draw):
    """A sorted delta of n <= 4 exponents up to 4, and a rational a inside
    the convergence bound of x^delta Delta^4."""
    n = draw(st.integers(1, 4))
    delta = sorted(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), reverse=True)
    bound = 1 - delta[0] - 4 * (n - 1)
    a = bound - draw(st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
    return tuple(delta), a


@settings(derandomize=True, deadline=None, max_examples=60)
@given(confluent_cases())
def test_confluent_vandermonde_sum_is_the_delta_fourth_expansion(case):
    delta, a = case
    want = sum(
        h * math.prod(moment_1d(d + e, a) for d, e in zip(delta, exps))
        for exps, h in _vandermonde_power(len(delta), 4)
    )
    assert _weighted_moment.__wrapped__(delta, a, 4) == want


def test_gram_diagonal_and_norms():
    for a in (Fraction(-20), Fraction(-31)):
        for kappa in (Fraction(1), Fraction(2)):
            for n in (1, 2):
                p = BesselParams(a, kappa, n)
                m = 2
                if not check_L2_condition(m, p):
                    continue
                rows = gram_matrix(m, p)
                basis = partitions_up_to(m, n)
                for i, lam in enumerate(basis):
                    for j in range(len(basis)):
                        if i != j:
                            assert rows[i][j] == 0, (lam, basis[j])
                    want = norm_full_reduced(lam, p)
                    assert rows[i][i] == want and want > 0


def test_gram_matrix_computes_each_unordered_pairing_once():
    _monomial_pairing.cache_clear()
    gram_matrix(3, BesselParams(Fraction(-20), Fraction(2), 3))
    # 7 partitions of weight <= 3 in at most 3 parts make 28 unordered pairs
    assert _monomial_pairing.cache_info().misses == 28


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


def test_first_recurrence_check_refuses_any_one_changed_moment():
    a, kappa = Fraction(-41, 2), Fraction(5, 3)
    I = dict(moments2_table(6, a, kappa).I)
    check_first_recurrence(I, a, kappa)
    for key in I:
        changed = {**I, key: I[key] + 1}
        with pytest.raises(DegenerateRecurrence, match=r"moment recurrences inconsistent at I\["):
            check_first_recurrence(changed, a, kappa)


def test_moments2_table_raises_when_its_recurrence_check_does(monkeypatch):
    def failing_check(I, a, kappa):
        raise DegenerateRecurrence("moment recurrences inconsistent at I[0,0]")

    monkeypatch.setattr(orthogonality, "check_first_recurrence", failing_check)
    with pytest.raises(DegenerateRecurrence, match=r"inconsistent at I\[0,0\]"):
        moments2_table(2, Fraction(-20), Fraction(1))


def test_functional_matches_measure():
    a, kappa = Fraction(-20), Fraction(1)
    p = BesselParams(a, kappa, 2)
    t = moments2_table(8, a, kappa)
    one = SymPoly.constant(2, 1)
    denom = inner_product(one, one, p)
    for lam in partitions_up_to(4, 2):
        f = SymPoly(2, {lam: Fraction(1)})
        assert functional_apply(f, t) == inner_product(f, one, p) / denom, lam


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


def test_functional_matrix_needs_two_variables():
    t = moments2_table(2, Fraction(-20), Fraction(1))
    with pytest.raises(ValueError, match="n = 2 only"):
        functional_matrix([SymPoly(3, {Partition((1,)): Fraction(1)})], t)


def test_functional_degree_overflow():
    t = moments2_table(2, Fraction(-20), Fraction(1))
    with pytest.raises(ValueError):
        functional_apply(SymPoly(2, {Partition((3,)): Fraction(1)}), t)


@st.composite
def functional_cases(draw):
    """Two-variable symmetric f, g of degree at most 3 and rational (a, kappa)
    whose moment table to degree 6 does not degenerate."""
    shapes = partitions_up_to(3, 2)

    def poly():
        support = draw(st.lists(st.sampled_from(shapes), max_size=4))
        return SymPoly(2, {mu: draw(coefficients) or 1 for mu in support})

    a, kappa = draw(coefficients), draw(coefficients)
    try:
        table = moments2_table(6, a, kappa)
    except DegenerateRecurrence:
        reject()
    return poly(), poly(), table


@settings(derandomize=True, deadline=None, max_examples=100)
@given(functional_cases())
def test_functional_matrix_matches_the_functional_of_the_product(case):
    f, g, table = case
    rows = functional_matrix([f, g], table)
    assert rows[0][1] == rows[1][0] == functional_apply(f * g, table)
    assert rows[0][0] == functional_apply(f * f, table)
    assert rows[1][1] == functional_apply(g * g, table)


@st.composite
def functional_measure_cases(draw):
    """Two-variable symmetric f, g of degree at most 3, integer kappa <= 2 and
    a rational a inside the square-integrability bound of degree 3."""
    shapes = partitions_up_to(3, 2)

    def poly():
        support = draw(st.lists(st.sampled_from(shapes), max_size=4))
        return SymPoly(2, {mu: draw(coefficients) or 1 for mu in support})

    kappa = Fraction(draw(st.sampled_from([0, 1, 2])))
    a = 1 - 2 * (3 + kappa) - draw(
        st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
    )
    try:
        table = moments2_table(6, a, kappa)
    except DegenerateRecurrence:
        reject()
    return poly(), poly(), BesselParams(a, kappa, 2), table


@settings(derandomize=True, deadline=None, max_examples=60)
@given(functional_measure_cases())
def test_functional_matrix_is_the_normalized_inner_product(case):
    # the e-basis functional against the monomial pairing over Delta^{2 kappa}
    f, g, p, table = case
    one = SymPoly.constant(2, 1)
    rows = functional_matrix([f, g], table)
    assert rows[0][1] == inner_product(f, g, p) / inner_product(one, one, p)


@st.composite
def gram_cases(draw):
    """n <= 3, degree m <= 2, integer kappa <= 2 and a rational a just inside
    the square-integrability bound."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    kappa = Fraction(draw(st.sampled_from([0, 1, 2])))
    bound = 1 - 2 * (m + kappa * (n - 1))
    a = bound - draw(st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
    return m, BesselParams(a, kappa, n)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gram_cases())
def test_gram_matrix_matches_inner_product_and_the_monomial_sum_oracle(case):
    m, p = case
    try:
        rows = gram_matrix(m, p)
        basis = [bessel_expand(lam, p).to_sym() for lam in partitions_up_to(m, p.n)]
    except (DegenerateEigenvalue, PoleError):
        reject()
    assert len(rows) == len(basis)
    for f, row in zip(basis, rows):
        for g, entry in zip(basis, row):
            assert entry == inner_product(f, g, p) == _monomial_sum_oracle(f, g, p)
