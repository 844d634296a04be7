"""Randomised cross-checks of the shared triangular solver, the integer
peel (against the Fraction peel of tests/oracles.py), the commuting tower
(against its two-branch recursion, and at n = 4 to 6 against the direct
operator and the Bessel eigenfunctions), the direct
differential operators (against MultiPoly products and exact division, and
up to n = 6 against the Jack-basis action), the Pieri expansion,
the two norm routes, the binomial coefficient routes, the lowering weight
against the hook-quotient route, the principal specialization at kappa = 0,
the Jacobi expansion against the direct BC operator and the Jacobi constant
term, and the unit constant term of the renormalized basis.

Parameters are drawn as arbitrary small rationals; a draw is rejected only
when it lands on a degenerate point (an eigenvalue collision or a pole),
so any other exception fails the test.  Where a property checks every
shape of degree <= 3 at each draw of (n, parameters), it skips a degenerate
shape instead, and the two norm routes must meet a pole at the same shapes.
"""

from fractions import Fraction
from itertools import permutations

from hypothesis import given, reject, settings, strategies as st

from mvbessel import diffops
from mvbessel.bessel import BesselParams, bessel_coeff_tableau, bessel_expand
from mvbessel.errors import DegenerateEigenvalue, NotDivisible, NotSymmetric, PoleError
from mvbessel.jack import (
    apply_basic,
    binomial_cocover,
    binomial_cocover_product,
    eigenvalue_d,
    jack_in_monomials,
    lower_weight,
    peel,
    principal_spec,
    spec_ratio_cocover,
    sym_to_jack,
)
from mvbessel.jacobi_bc import (
    JacobiParams,
    jacobi_constant_term,
    jacobi_eigenvalue,
    jacobi_expand,
)
from mvbessel.operators import (
    _higher_recursion,
    apply_DB_direct,
    apply_DB_jack,
    apply_higher,
    eigenvalue_of,
)
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.pieri_norms import (
    norm_ratio,
    norm_ratio_product,
    pieri_verify,
    renormalized_jack,
)
from mvbessel.polyalg import FactoredFraction, MultiPoly, SymPoly, collect_symmetric, divide_exact
import oracles

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
# kappa = 0, where Y_lambda is a symmetrised product of one-variable Bessel
# polynomials and every closed product meets 0/0, is drawn explicitly, and
# so are kappa = -1 and -2, where the Jack and Jacobi solves meet their poles
# (k3 = -1 is where a skipped pole once gave a wrong Jacobi expansion)
kappas = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(-2)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def _unless_degenerate(fn, *args):
    try:
        return fn(*args)
    except (DegenerateEigenvalue, PoleError):
        reject()


# every shape at each draw, so that which shapes a draw reaches does not
# depend on the draw order; a degenerate shape is skipped, not the draw
@settings(derandomize=True, deadline=None)
@given(st.integers(1, 3), rationals, kappas)
def test_bessel_recurrence_matches_tableau(n, a, kappa):
    p = BesselParams(a, kappa, n)
    for lam in partitions_up_to(3, n):
        try:
            Y = bessel_expand(lam, p)
        except (DegenerateEigenvalue, PoleError):
            continue
        # the chain denominators are the recurrence's, so the tableau is regular too
        for mu in partitions_up_to(lam.weight(), n):
            if lam.contains(mu):
                assert Y.coeff(mu) == bessel_coeff_tableau(lam, mu, p), (lam, mu)


@st.composite
def bessel_shapes(draw):
    n = draw(st.integers(1, 3))
    return n, draw(st.sampled_from(partitions_up_to(3, n)))


# one shape at each draw, rejected where Y_lambda or its normalization ratio
# is undefined; hypothesis fails a test that no draw satisfies
@settings(derandomize=True, deadline=None)
@given(bessel_shapes(), rationals, kappas)
def test_renormalized_constant_term_is_one(shape, a, kappa):
    n, lam = shape
    Yt = _unless_degenerate(renormalized_jack, lam, BesselParams(a, kappa, n))
    assert Yt.coeff(Partition(())) == 1


@settings(derandomize=True, deadline=None)
@given(rationals, kappas)
def test_renormalized_first_polynomial_in_one_variable(a, kappa):
    # Ytilde_(1) = 1 + (a/2) x; only a = 0, where e_(1) = e_(), is degenerate
    Yt = _unless_degenerate(renormalized_jack, Partition((1,)), BesselParams(a, kappa, 1))
    assert Yt.to_sym() == SymPoly(1, {Partition(()): 1, Partition((1,)): a / 2})


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 3), rationals, rationals, kappas)
def test_jacobi_expansion_is_an_eigenvector(n, k1, k2, k3):
    # every shape at each draw, so that a pole of one shape is reached whenever
    # its parameters are drawn (k3 = -1 at n = 2, lambda = (3), for one); a
    # degenerate shape is skipped, not the draw
    jp = JacobiParams(k1, k2, k3, n)
    for lam in partitions_up_to(3, n):
        try:
            f = jacobi_expand(lam, jp).to_sym()
        except (DegenerateEigenvalue, PoleError):
            continue
        # the direct operator, not apply_DBC_jack, which shares the solve's weights
        assert diffops.apply_jacobi_bc_sym(f, k1, k2, k3) == f.scale(jacobi_eigenvalue(lam, jp)), lam


@st.composite
def sym_polys(draw):
    n = draw(st.integers(1, 3))
    support = draw(st.lists(st.sampled_from(partitions_up_to(3, n)), max_size=4))
    return SymPoly(n, {mu: draw(rationals) for mu in support})


@settings(derandomize=True, deadline=None)
@given(sym_polys(), kappas)
def test_sym_to_jack_round_trip(f, kappa):
    assert _unless_degenerate(sym_to_jack, f, kappa).to_sym() == f


def _peels_agree(f, basis):
    # the integer peel against the Fraction oracle: the same coefficients,
    # peeled in the same order, or the same degenerate point
    expected = _unless_degenerate(oracles.peel, f, basis)
    got = peel(f, basis)
    assert got == expected and list(got) == list(expected)


@settings(derandomize=True, deadline=None)
@given(sym_polys(), kappas)
def test_integer_peel_on_the_monic_jack_basis(f, kappa):
    _peels_agree(f, lambda mu: jack_in_monomials(mu, kappa, f.n))


@settings(derandomize=True, deadline=None)
@given(sym_polys(), rationals, kappas)
def test_integer_peel_on_the_renormalized_basis(f, a, kappa):
    # Ytilde_mu on the Jack basis, with leading coefficients other than 1,
    # as in the Pieri oracle
    v = _unless_degenerate(sym_to_jack, f, kappa)
    _peels_agree(v, lambda mu: renormalized_jack(mu, BesselParams(a, kappa, f.n)))


@settings(derandomize=True, deadline=None)
@given(sym_polys(), kappas, st.fractions(min_value=-5, max_value=-1, max_denominator=4))
def test_integer_peel_on_a_basis_with_negative_leads(f, kappa, c):
    _peels_agree(f, lambda mu: jack_in_monomials(mu, kappa, f.n).scale(c))


@st.composite
def jack_shapes(draw):
    n = draw(st.integers(1, 4))
    return n, draw(st.sampled_from(partitions_up_to(4, n)))


@settings(derandomize=True, deadline=None)
@given(jack_shapes(), kappas)
def test_jack_is_a_direct_sutherland_eigenfunction(shape, kappa):
    # the solve uses the m-basis raising rule; diffops differentiates directly
    n, lam = shape
    try:
        P = jack_in_monomials(lam, kappa, n)
    except DegenerateEigenvalue:
        reject()
    assert diffops.apply_sutherland_sym(P, 2, kappa) == P.scale(eigenvalue_d(lam, kappa, n))


@st.composite
def multi_term_sym_polys(draw):
    n = draw(st.integers(1, 3))
    support = draw(st.lists(st.sampled_from(partitions_up_to(3, n)), min_size=2, max_size=4, unique=True))
    return SymPoly(n, {mu: draw(rationals) or 1 for mu in support})


# (a, kappa) for the tower, whose stages carry integers scaled by D =
# lcm(den(kappa/2), den(a)) each: a over 7 or 11 with kappa over 13 makes D,
# and so D^{2d}, large; a = 1 zeroes the a - 1 shift and kappa = 0 (drawn
# in kappas) the pair weight D kappa/2.
tower_points = st.one_of(
    st.tuples(
        st.builds(Fraction, st.integers(-150, 150), st.sampled_from([7, 11])),
        st.builds(Fraction, st.integers(-50, 50), st.just(13)),
    ),
    st.tuples(st.just(Fraction(1)), kappas),
    st.tuples(rationals, kappas),
)


# d is swept inside each draw, so that no draw order can leave a degree out
@settings(derandomize=True, deadline=None, max_examples=40)
@given(multi_term_sym_polys(), tower_points)
def test_apply_higher_is_the_recursion_applied_by_linearity(f, point):
    p = BesselParams(*point, f.n)
    for d in (1, 2, 3):
        assert apply_higher(d, f, p) == _higher_recursion(d, f, p), d


def _two_branch_stage(plus, minus, p):
    """One step of the recursion for both choices of sign.

    new_{+i} = x_i d_i old_{+i} + (1/2)(a - 1 + 2/x_i)(old_{+i} - old_{-i})
               + (kappa/2) sum_{j != i} ((x_i+x_j)/(x_i-x_j))(old_{+i} - old_{+j})
               + (kappa/2) sum_{j != i} (old_{+i} - old_{-j}),
    and new_{-i} is the same expression with all signs swapped and negated.
    """
    n = p.n
    a, kappa = p.a, p.kappa
    half = Fraction(1, 2)

    def step(sign, i):
        mine = plus[i - 1] if sign > 0 else minus[i - 1]
        mirror = minus[i - 1] if sign > 0 else plus[i - 1]
        total = mine.deriv(i).mul_var(i)
        diff = mine - mirror
        total = total + diff * ((a - 1) * half) + diff.div_var(i)
        for j in range(1, n + 1):
            if j == i:
                continue
            same = plus[j - 1] if sign > 0 else minus[j - 1]
            opp = minus[j - 1] if sign > 0 else plus[j - 1]
            xi = MultiPoly.variable(n, i)
            xj = MultiPoly.variable(n, j)
            total = total + ((mine - same) * (xi + xj)).div_pair(i, j) * (kappa * half)
            total = total + (mine - opp) * (kappa * half)
        return total if sign > 0 else -total

    new_plus = [step(+1, i) for i in range(1, n + 1)]
    new_minus = [step(-1, i) for i in range(1, n + 1)]
    return new_plus, new_minus


def _two_branch_recursion(d, f, p):
    """D^B_d f carrying the -i intermediates beside the +i ones.

    Asserts at every stage that the -i intermediate equals (-1)^stage times
    the +i one, then takes the half-sum over both branches.  This is the
    oracle for the production recursion, which carries only the +i branch
    and relies on that invariant.
    """
    seed = FactoredFraction.from_poly(f.expand())
    plus = [seed] * p.n
    minus = [seed] * p.n
    for stage in range(1, 2 * d + 1):
        plus, minus = _two_branch_stage(plus, minus, p)
        for i in range(p.n):
            expected = plus[i] if stage % 2 == 0 else -plus[i]
            if not (minus[i] - expected).numer.is_zero():
                raise NotSymmetric(f"stage-{stage} parity invariant failed at index {i + 1}")
    total = plus[0]
    for g in plus[1:]:
        total = total + g
    for g in minus:
        total = total + g
    return collect_symmetric((total * Fraction(1, 2)).to_poly())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(multi_term_sym_polys(), tower_points)
def test_plus_branch_recursion_matches_the_two_branch_oracle(f, point):
    p = BesselParams(*point, f.n)
    for d in (1, 2, 3):
        assert _higher_recursion(d, f, p) == _two_branch_recursion(d, f, p), d


def _pairwise_quotients(f, weights):
    """sum_{i < j} (w_i df/dx_i - w_j df/dx_j)/(x_i - x_j), each quotient by
    exact division, with w_i = weights[i - 1]."""
    n = f.n
    g = [f.deriv(i) * w for i, w in enumerate(weights, 1)]
    out = MultiPoly.zero(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi_minus_xj = MultiPoly.variable(n, i) - MultiPoly.variable(n, j)
            try:
                out = out + divide_exact(g[i - 1] - g[j - 1], xi_minus_xj)
            except NotDivisible as exc:
                raise NotSymmetric("pairwise division failed") from exc
    return out


def _powers(n, k):
    return [MultiPoly.monomial(n, [k if m == i else 0 for m in range(n)]) for i in range(n)]


def _pairwise_oracle(f, k, kappa):
    return _pairwise_quotients(f, _powers(f.n, k)).scale(2 * kappa)


def _sutherland_oracle(f, k, kappa):
    out = _pairwise_oracle(f, k, kappa)
    for i, w in enumerate(_powers(f.n, k), 1):
        out = out + f.deriv(i).deriv(i) * w
    return out


def _bessel_oracle(f, a, kappa):
    out = _sutherland_oracle(f, 2, kappa)
    for i in range(1, f.n + 1):
        g = f.deriv(i)
        out = out + g * MultiPoly.variable(f.n, i) * a + g.scale(2)
    return out


def _jacobi_bc_oracle(f, k1, k2, k3):
    n = f.n
    ts = [MultiPoly.variable(n, i) for i in range(1, n + 1)]
    weights = [t * t - t for t in ts]
    out = _pairwise_quotients(f, weights).scale(2 * k3)
    for i, (t, w) in enumerate(zip(ts, weights), 1):
        out = out + f.deriv(i).deriv(i) * w
        out = out + f.deriv(i) * (t * (k1 + 2 * k2 + 1) - MultiPoly.constant(n, k1 + k2 + Fraction(1, 2)))
    return out


@st.composite
def expanded_sym_polys(draw):
    n = draw(st.integers(1, 4))
    support = draw(st.lists(st.sampled_from(partitions_up_to(4, n)), max_size=5, unique=True))
    return SymPoly(n, {mu: draw(rationals) for mu in support}).expand()


with_zero = st.one_of(st.just(Fraction(0)), rationals)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(expanded_sym_polys(), with_zero, with_zero, with_zero, with_zero)
def test_direct_operators_match_the_division_oracle(f, a, kappa, k1, k2):
    g = collect_symmetric(f)
    for k in (0, 1, 2):
        assert diffops.apply_sutherland_sym(g, k, kappa).expand() == _sutherland_oracle(f, k, kappa)
    assert diffops.apply_bessel_sym(g, a, kappa).expand() == _bessel_oracle(f, a, kappa)
    assert diffops.apply_jacobi_bc_sym(g, k1, k2, kappa).expand() == _jacobi_bc_oracle(f, k1, k2, kappa)


@st.composite
def sym_polys_to_six_variables(draw):
    n = draw(st.integers(1, 6))
    support = draw(st.lists(st.sampled_from(partitions_up_to(5, n)), max_size=4, unique=True))
    return SymPoly(n, {mu: draw(rationals) for mu in support})


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sym_polys_to_six_variables(), rationals, kappas)
def test_direct_operators_match_the_jack_basis_action(f, a, kappa):
    # up to n = 6, where one S_n orbit has up to 720 monomials
    v = _unless_degenerate(sym_to_jack, f, kappa)
    p = BesselParams(a, kappa, f.n)
    # the image can reach a P_mu below f's support whose solve meets a collision
    db = _unless_degenerate(lambda: apply_DB_jack(v, p).to_sym())
    assert diffops.apply_bessel_sym(f, a, kappa) == db
    assert diffops.apply_sutherland_sym(f, 2, kappa) == apply_basic(v).to_sym()


def _pole_or_value(fn, *args):
    try:
        return fn(*args)
    except PoleError:
        return PoleError


# norm_ratio and pieri_expand scale the line by 2 lcm(den a, den kappa), so
# their draws reach denominators up to 12; kappa = 0 and kappa = 1, where
# their factors meet 0/0, are drawn explicitly (the tower checks below draw
# from the same)
line_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
line_kappas = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 3), line_rationals, line_kappas)
def test_norm_ratio_routes_agree(n, a, kappa):
    # the integer Delta route against the Fraction factorial route, at every shape
    p = BesselParams(a, kappa, n)
    for lam in partitions_up_to(3, n):
        assert _pole_or_value(norm_ratio, lam, p) == _pole_or_value(norm_ratio_product, lam, p), lam


@st.composite
def pieri_cases(draw):
    n = draw(st.integers(1, 3))
    return n, draw(st.sampled_from(partitions_up_to(2, n)))


@settings(derandomize=True, deadline=None)
@given(pieri_cases(), line_rationals, line_kappas)
def test_pieri_expansion_matches_the_polynomial_oracle(case, a, kappa):
    n, lam = case
    p = BesselParams(a, kappa, n)
    for r in range(1, n + 1):
        assert _unless_degenerate(pieri_verify, r, lam, p), r


@st.composite
def sym_polys_in_four_to_six_variables(draw):
    n = draw(st.integers(4, 6))
    support = draw(st.lists(st.sampled_from(partitions_up_to(4, n)), min_size=1, max_size=4, unique=True))
    return SymPoly(n, {mu: draw(line_rationals) or 1 for mu in support})


@settings(derandomize=True, deadline=None)
@given(sym_polys_in_four_to_six_variables(), line_rationals, line_kappas)
def test_first_tower_operator_is_the_direct_operator_to_six_variables(f, a, kappa):
    # the diffops kernel is a route apart from the tower's S_{n-1} orbit sums
    p = BesselParams(a, kappa, f.n)
    assert apply_higher(1, f, p) == apply_DB_direct(f, p)


@settings(derandomize=True, deadline=None)
@given(line_rationals, line_kappas)
def test_second_tower_operator_has_the_bessel_eigenfunctions_in_five_variables(a, kappa):
    # eigenvalue_of raises NotProportional unless D_2 Y_lambda is a multiple of Y_lambda
    p = BesselParams(a, kappa, 5)
    for lam in partitions_up_to(3, 5):
        _unless_degenerate(eigenvalue_of, 2, lam, p)


@st.composite
def cocovers(draw):
    lam = draw(st.sampled_from(partitions_up_to(4, 4)))
    return lam, draw(st.sampled_from([i for i in range(1, lam.length() + 2) if lam.add_box(i)]))


@settings(derandomize=True, deadline=None)
@given(cocovers(), kappas)
def test_binomial_routes_agree(cocover, kappa):
    lam, i = cocover
    forced = _unless_degenerate(binomial_cocover, lam, i, kappa)
    assert _unless_degenerate(binomial_cocover_product, lam, i, kappa, True) == forced


@st.composite
def weight_cases(draw):
    n = draw(st.integers(1, 5))
    mu = draw(st.sampled_from(partitions_up_to(5, n)))
    return n, mu, draw(st.sampled_from([i for i in range(1, n + 1) if mu.add_box(i)]))


@settings(derandomize=True, deadline=None)
@given(weight_cases(), kappas)
def test_lower_weight_matches_the_hook_route(case, kappa):
    n, mu, i = case
    hook = _unless_degenerate(
        lambda: spec_ratio_cocover(mu, i, kappa, n) * binomial_cocover(mu, i, kappa)
    )
    assert lower_weight(mu, i, kappa, n) == hook


@st.composite
def spec_shapes(draw):
    n = draw(st.integers(1, 5))
    return n, draw(st.sampled_from(partitions_up_to(6, n)))


@settings(derandomize=True, deadline=None)
@given(spec_shapes())
def test_principal_spec_at_kappa_zero_counts_monomials(shape):
    # P_lambda = m_lambda at kappa = 0, and m_lambda(1^n) counts the distinct
    # rearrangements of lambda padded with zeros to n parts
    n, lam = shape
    count = len(set(permutations(lam.part(i) for i in range(1, n + 1))))
    assert principal_spec(lam, Fraction(0), n) == count


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 3), rationals, rationals, kappas)
def test_jacobi_constant_term_matches_the_expansion(n, k1, k2, k3):
    # every shape at each draw; a degenerate expansion is skipped, and where the
    # expansion is regular the closed product must be too
    jp = JacobiParams(k1, k2, k3, n)
    for lam in partitions_up_to(3, n):
        try:
            constant = jacobi_expand(lam, jp).coeff(Partition(()))
        except (DegenerateEigenvalue, PoleError):
            continue
        assert constant == jacobi_constant_term(lam, jp), lam
