import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvbessel import pieri_norms
from mvbessel.bessel import BesselParams, bessel_expand
from mvbessel.errors import PoleError
from mvbessel.jacobi_bc import JacobiParams, jacobi_constant_term
from mvbessel.orthogonality import inner_product
from mvbessel.partitions import Partition, partitions_up_to
from mvbessel.pieri_norms import (
    Affine,
    E_hat_r,
    delta_ratio,
    leading_term,
    limit_at_zero,
    norm_full_reduced,
    norm_n0_reduced,
    norm_ratio,
    norm_ratio_product,
    pieri_expand,
    pieri_verify,
    renormalized_jack,
)
from mvbessel.polyalg import SymPoly, join

SAMPLE = [
    BesselParams(Fraction(-20), Fraction(1), 2),
    BesselParams(Fraction(-20), Fraction(2), 3),
    BesselParams(Fraction(-31, 2), Fraction(5, 3), 2),
]


def test_step_function_poles():
    # the first step of Delta_+ at lambda = (1) meets v(0) = 0/0 at (a, kappa, n)
    # = (-20, 0, 2), where rho_1 = rho_2: along the line it is 2, times v(-21) = 1
    # and w(-21/2) = -1/20; w(0) = 0/0 at (1, 1, 1), where rho_1 = 0, has the
    # limit 1 of the one-variable anchor 1/a; w(-1/2) at (0, 1, 1), where
    # rho_1 = -1/2, is a genuine pole
    delta = lambda a, kappa, n: delta_ratio(
        "+", Partition((1,)), BesselParams(Fraction(a), Fraction(kappa), n)
    )
    assert delta(-20, 0, 2) == Fraction(-1, 10)
    assert delta(1, 1, 1) == 1
    with pytest.raises(PoleError):
        delta(0, 1, 1)


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


@settings(derandomize=True, deadline=None)
@given(st.lists(factor_terms, min_size=1, max_size=4), st.integers(0, 3))
def test_identically_zero_denominator_is_a_pole(terms, k):
    # a slope-0 zero downstairs is the plain value 1/0 at a point: PoleError,
    # never ZeroDivisionError, whatever the other terms hold
    num, den = terms[k % len(terms)]
    terms[k % len(terms)] = (num, den + [Affine(Fraction(0), Fraction(0))])
    with pytest.raises(PoleError):
        limit_at_zero(terms)


@settings(derandomize=True, deadline=None)
@given(st.lists(factor_terms, min_size=1, max_size=4))
def test_plain_product_path_matches_the_series_path(terms):
    # T/T = 1 leaves each term's value and order unchanged, but a
    # zero-constant factor on both sides sends every term through the
    # Laurent series instead of the plain product of its constants
    forced = [(num + [T], den + [T]) for num, den in terms]
    assert _limit_or_pole(forced) == _limit_or_pole(terms)


def test_pieri_genuine_pole_names_its_move():
    p = BesselParams(Fraction(0), Fraction(1), 2)
    with pytest.raises(PoleError, match=r"genuine pole at move \(\(1,\), \(1,\)\)"):
        pieri_expand(2, Partition(()), p)


def test_delta_ratio_one_variable_anchors():
    p = BesselParams(Fraction(-20), Fraction(1), 1)
    a = p.a
    # single box: the one-variable step is w((a-1)/2) = 1/a; the second box
    # contributes w((a+1)/2) = a/((a+1)(a+2))
    assert delta_ratio("+", Partition((1,)), p) == 1 / a
    assert delta_ratio("+", Partition((2,)), p) == 1 / ((a + 1) * (a + 2))


def test_ehat_normalization():
    e = E_hat_r(2, 3)
    assert e.coeff(Partition((1, 1))) == Fraction(-1, 4)


def test_pieri_oracle_all_sample_params():
    for p in SAMPLE:
        for r in range(1, p.n + 1):
            for lam in partitions_up_to(3, p.n):
                assert pieri_verify(r, lam, p), (r, lam, p)


def test_pieri_verify_builds_each_basis_element_once(monkeypatch):
    calls = []

    def counting_bessel_expand(lam, p):
        calls.append(lam)
        return bessel_expand(lam, p)

    monkeypatch.setattr(pieri_norms, "bessel_expand", counting_bessel_expand)
    pieri_norms.renormalized_jack.cache_clear()
    p = BesselParams(Fraction(-27, 2), Fraction(1), 3)
    for r in (1, 2, 3):
        for lam in partitions_up_to(2, 3):
            assert pieri_verify(r, lam, p)
    assert calls and len(calls) == len(set(calls))


def test_factor_groups_are_built_once_for_every_r():
    # every r at one (lambda, p) reads one cached set of factor groups, and
    # each (n, r) one cached table of moves, which every further lambda or p
    # reads again; the table of r also reads that of r - 1
    pieri_norms._factor_groups.cache_clear()
    pieri_norms._moves.cache_clear()
    lam, p = Partition((2, 1)), BesselParams(Fraction(-27, 2), Fraction(1), 4)
    for r in range(1, p.n + 1):
        pieri_expand(r, lam, p)
    info = pieri_norms._factor_groups.cache_info()
    assert (info.misses, info.hits) == (1, p.n - 1)
    info = pieri_norms._moves.cache_info()
    assert (info.misses, info.hits) == (p.n, p.n - 1)
    for lam2, p2 in [(Partition((1,)), p), (lam, BesselParams(Fraction(-33, 2), Fraction(4, 3), 4))]:
        for r in range(1, p.n + 1):
            pieri_expand(r, lam2, p2)
    info = pieri_norms._moves.cache_info()
    assert (info.misses, info.hits) == (p.n, 3 * p.n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_moves_table_shape(n):
    # per (n, r): sum_{s <= r} C(n, s) 2^s moves, C(n-s, r-s) 2^{r-s} U terms
    # per row set of size s, tuples only, and one object per key; a row
    # set's moves are one object at every r
    def tuples_only(x):
        return type(x) in (int, str, bool) or type(x) is tuple and all(map(tuples_only, x))

    for r in range(1, n + 1):
        table = pieri_norms._moves(n, r)
        assert tuples_only(table) and pieri_norms._moves(n, r) is table
        assert len(table) == sum(math.comb(n, s) for s in range(r + 1))
        assert sum(len(moves) for *_, moves in table) == sum(
            math.comb(n, s) * 2**s for s in range(r + 1)
        )
        shared = {}
        for sign, U, moves in table:
            s = len(moves[0][2][1])
            assert sign == (-1) ** (s + 1) and len(moves) == 2**s
            assert len(U) == math.comb(n - s, r - s) * 2 ** (r - s)
            for shift, v, (signs, I) in moves:
                assert shift == tuple(dict(zip(I, signs)).get(i, 0) for i in range(1, n + 1))
                assert len(v) == s + math.comb(s, 2) + s * (n - s)
            for keys in U + tuple(v for _, v, _ in moves):
                assert all(shared.setdefault(key, key) is key for key in keys)
        if r < n:
            assert all(row[2] is up[2] for row, up in zip(table, pieri_norms._moves(n, r + 1)))


def _signed_subsets(rows, q):
    return [
        (K, signs)
        for K in itertools.combinations(rows, q)
        for signs in itertools.product((1, -1), repeat=q)
    ]


def _pieri_by_limits(r, lam, p):
    """pieri_expand with every coefficient taken by limit_at_zero over the
    joined factor lists of its terms, U's groups then V's; the moves and
    their lattice test are its own, not pieri_norms._moves."""
    n, groups = p.n, pieri_norms._factor_groups(lam, p)
    rows = tuple(range(1, n + 1))
    out = {}
    for size in range(r + 1):
        for I, signs in _signed_subsets(rows, size):
            parts = [lam.part(i) + dict(zip(I, signs)).get(i, 0) for i in rows]
            if min(parts) < 0 or parts != sorted(parts, reverse=True):
                continue
            Ic = tuple(j for j in rows if j not in I)
            v = pieri_norms._move_keys(I, signs, rows, reflected=False)
            terms = [
                join(*(groups[key][0] for key in pieri_norms._move_keys(K, s, Ic, True) + v))
                for K, s in _signed_subsets(Ic, r - size)
            ]
            pole = f"Pieri coefficient has a genuine pole at move {(signs, I)}"
            c = (-1) ** (size + 1) * limit_at_zero(terms, pole)
            if c:
                out[Partition(parts)] = c
    return out


def _pieri_or_pole(route, r, lam, p):
    try:
        return route(r, lam, p)
    except PoleError as exc:
        return str(exc)


pieri_points = st.one_of(st.integers(-30, 4).map(Fraction), st.fractions(-30, 4, max_denominator=6))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 4), pieri_points, st.one_of(st.just(Fraction(1)), pieri_points))
def test_pieri_expand_equals_the_limit_of_its_terms(n, a, kappa):
    # the leads of the cached groups give every coefficient, value or pole
    # message, that limit_at_zero gives on the joined factor lists; every
    # shape of degree <= 2 and every r at each draw
    p = BesselParams(a, kappa, n)
    for lam in partitions_up_to(2, n):
        for r in range(1, n + 1):
            expected = _pieri_or_pole(_pieri_by_limits, r, lam, p)
            assert _pieri_or_pole(pieri_expand, r, lam, p) == expected, (lam, r)


def _counting_limits(monkeypatch):
    calls = []

    def counting(terms, pole):
        calls.append(pole)
        return limit_at_zero(terms, pole)

    monkeypatch.setattr(pieri_norms, "limit_at_zero", counting)
    return calls


def test_pieri_negative_order_terms_with_a_finite_limit(monkeypatch):
    # at (a, kappa, n) = (-3, 2, 3) some terms of E_hat_3 Ytilde_(1) have
    # negative order in t, so those coefficients go through limit_at_zero;
    # their poles cancel across terms and the expansion meets the oracle
    calls = _counting_limits(monkeypatch)
    lam, p = Partition((1,)), BesselParams(Fraction(-3), Fraction(2), 3)
    coeffs = pieri_expand(3, lam, p)
    assert calls and len(coeffs) == 7
    assert coeffs == _pieri_by_limits(3, lam, p)
    assert pieri_verify(3, lam, p)


def test_pieri_negative_order_terms_with_a_genuine_pole(monkeypatch):
    # at (a, kappa, n) = (-6, 2, 3) a negative-order coefficient of
    # E_hat_3 Ytilde_(2) survives the sum: PoleError names its move
    calls = _counting_limits(monkeypatch)
    lam, p = Partition((2,)), BesselParams(Fraction(-6), Fraction(2), 3)
    message = r"^Pieri coefficient has a genuine pole at move \(\(1,\), \(2,\)\)$"
    with pytest.raises(PoleError, match=message):
        pieri_expand(3, lam, p)
    assert calls[-1] == "Pieri coefficient has a genuine pole at move ((1,), (2,))"


def test_pieri_zero_of_v_cancels_a_pole_of_the_u_sum(monkeypatch):
    # at (a, kappa, n) = (-3, 1/2, 3) the move of E_hat_3 Ytilde_(2) onto
    # (2, 1) has V of order 1 and a U term of order -1, so no product has
    # negative order: the coefficient is V's lead times the U leads of order
    # -1, with no Laurent expansion
    calls = _counting_limits(monkeypatch)
    lam, p = Partition((2,)), BesselParams(Fraction(-3), Fraction(1, 2), 3)
    groups = pieri_norms._factor_groups(lam, p)
    ((U, v),) = [
        (U, v) for _, U, moves in pieri_norms._moves(3, 3) for _, v, move in moves
        if move == ((1,), (2,))
    ]
    u_orders = [pieri_norms._lead(u, groups)[0] for u in U]
    assert pieri_norms._lead(v, groups)[0] == 1 and min(u_orders) == -1
    coeffs = pieri_expand(3, lam, p)
    assert not calls and coeffs[Partition((2, 1))] == Fraction(-1, 27)
    assert coeffs == _pieri_by_limits(3, lam, p)


@pytest.mark.parametrize(
    "r, key, move",
    [
        # w(z_1) is first read by a U term, at the move with I empty
        (1, ("w", 1, 1), ((), ())),
        # an unreflected pair is read only by V, first at I = (1, 2)
        (2, ("pair", 1, 1, 2, 1, False), ((1, 1), (1, 2))),
    ],
)
def test_pieri_dead_denominator_group_is_a_pole(monkeypatch, r, key, move):
    # no factor on the scaled line vanishes identically, so one is planted in
    # a group, beside a zero of t upstairs that keeps its order: the first
    # move whose terms read the group is a pole, named as today
    lam, p = Partition((1,)), BesselParams(Fraction(-27, 2), Fraction(1), 2)
    groups = dict(pieri_norms._factor_groups(lam, p))
    (num, den), lead = groups[key]
    dead = (num + (Affine(0, 1),), den + (Affine(0, 0),))
    assert leading_term(*dead)[::2] == (lead[0], 0)
    groups[key] = (dead, leading_term(*dead))
    monkeypatch.setattr(pieri_norms, "_factor_groups", lambda lam, p: groups)
    message = f"Pieri coefficient has a genuine pole at move {move}"
    assert _pieri_or_pole(_pieri_by_limits, r, lam, p) == message
    with pytest.raises(PoleError) as exc:
        pieri_expand(r, lam, p)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "key",
    [
        # read only by V of the move onto (2, -1), a negative last part
        ("pair", 1, 1, 2, -1, False),
        # read only by V of the move onto (0, 1), an increasing pair
        ("pair", 1, -1, 2, 1, False),
    ],
)
def test_pieri_off_lattice_move_is_never_evaluated(monkeypatch, key):
    # an off-lattice move's coefficient vanishes identically, so it is
    # dropped before its terms are read: a dead denominator planted in a
    # group that only such a move reads changes nothing
    lam, p = Partition((1,)), BesselParams(Fraction(-27, 2), Fraction(1), 2)
    before = pieri_expand(2, lam, p)
    groups = dict(pieri_norms._factor_groups(lam, p))
    (num, den), _ = groups[key]
    dead = (num, den + (Affine(0, 0),))
    groups[key] = (dead, leading_term(*dead))
    monkeypatch.setattr(pieri_norms, "_factor_groups", lambda lam, p: groups)
    assert pieri_expand(2, lam, p) == before == _pieri_by_limits(2, lam, p)


def test_affine_is_a_frozen_value():
    f = Affine(Fraction(3, 2), Fraction(-1))
    for clone in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(clone) is Affine and clone == f and hash(clone) == hash(f)
        assert (clone.c, clone.s) == (f.c, f.s)
    assert f != Affine(Fraction(3, 2)) and Affine(1) == Affine(1, 0)
    with pytest.raises(AttributeError, match="Affine is immutable"):
        Affine(1).c = 2
    with pytest.raises(AttributeError, match="Affine is immutable"):
        f.s += 1
    with pytest.raises(AttributeError, match="Affine is immutable"):
        del f.c
    assert (f.c, f.s) == (Fraction(3, 2), -1)


def test_cached_pieri_factors_cannot_be_edited():
    p = BesselParams(Fraction(-27, 2), Fraction(1), 3)
    lam = Partition((1,))
    before = pieri_expand(1, lam, p)

    def factors(group):
        # a group nests tuples of Affine factors to two or three levels
        return [group] if isinstance(group, Affine) else [f for g in group for f in factors(g)]

    groups = pieri_norms._factor_groups(lam, p)
    # each group is cached next to its leading term, a tuple of integers
    assert all(type(lead) is tuple and len(lead) == 3 for _, lead in groups.values())
    cached = factors([group for group, _ in groups.values()])
    assert cached
    for f in cached:
        with pytest.raises(AttributeError, match="Affine is immutable"):
            f.c += 7
    # nor can the groups be replaced or dropped
    w = sorted(key for key in groups if key[0] == "w")
    assert len(w) == 6
    with pytest.raises(TypeError):
        groups[w[0]] = groups[w[1]]
    with pytest.raises(TypeError):
        del groups[w[0]]
    # and no read fills them: all 2n w, 8 C(n, 2) pair and 2n(n-1) cross
    # groups are there from the start, and no call or absent key adds one
    keys = set(groups)
    assert len(keys) == 6 + 24 + 12
    for r in range(1, p.n + 1):
        pieri_expand(r, lam, p)
        assert set(groups) == keys
    with pytest.raises(KeyError):
        groups["cross", 1, 1, 1]
    assert set(groups) == keys
    assert pieri_norms._factor_groups(lam, p) is groups
    assert pieri_expand(1, lam, p) == before and before[Partition((2,))] == Fraction(-76, 255)


def test_renormalized_jack_cache_returns_its_immutable_value():
    p = BesselParams(Fraction(-27, 2), Fraction(1), 2)
    lam = Partition((1,))
    cached = renormalized_jack(lam, p)
    before = cached.sorted_coeffs()
    assert renormalized_jack(lam, p) is cached
    assert cached == renormalized_jack.__wrapped__(lam, p)
    assert cached == bessel_expand(lam, p).scale(1 / (2 * delta_ratio("+", lam, p)))
    with pytest.raises(TypeError):
        del cached.coeffs[lam]
    with pytest.raises(TypeError):
        cached.coeffs[Partition((2,))] = Fraction(5)
    assert renormalized_jack(lam, p).sorted_coeffs() == before
    assert renormalized_jack.cache_info().maxsize == 4096
    assert pieri_verify(1, lam, p) and pieri_verify(2, Partition(()), p)


def test_pieri_one_variable_hand_identity():
    # x/2 = (1/a)(Ytilde_(1) - Ytilde_()) at five rational values of a
    for a in (Fraction(-20), Fraction(-31, 2), Fraction(-7), Fraction(5, 2), Fraction(3)):
        p = BesselParams(a, Fraction(1), 1)
        coeffs = pieri_expand(1, Partition(()), p)
        assert coeffs[Partition((1,))] == 1 / a
        assert coeffs[Partition(())] == -1 / a
        y1 = renormalized_jack(Partition((1,)), p).to_sym()
        y0 = renormalized_jack(Partition(()), p).to_sym()
        half_x = (y1 - y0).scale(1 / a)
        assert half_x.coeff(Partition((1,))) == Fraction(1, 2)
        assert half_x.coeff(Partition(())) == 0


def test_pieri_coefficients_finite_at_special_kappa():
    # kappa = 1 puts removable singularities in every factor; the limit
    # along the parameter line must exist and satisfy the oracle.
    p = BesselParams(Fraction(-20), Fraction(1), 2)
    exp = pieri_expand(2, Partition((1,)), p)
    assert all(isinstance(c, Fraction) for c in exp.values())


def test_norm_ratio_two_routes():
    for p in SAMPLE:
        for lam in partitions_up_to(3, p.n):
            assert norm_ratio(lam, p) == norm_ratio_product(lam, p), lam


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: norm_ratio(Partition((2, 1)), BesselParams(Fraction(-20), Fraction(1), 1)),
        lambda: norm_ratio_product(Partition((2, 1)), BesselParams(Fraction(-20), Fraction(1), 1)),
        lambda: pieri_expand(1, Partition((2, 1)), BesselParams(Fraction(-20), Fraction(1), 1)),
        lambda: jacobi_constant_term(Partition((1, 1)), JacobiParams(1, 1, 1, 1)),
    ],
    ids=["norm_ratio", "norm_ratio_product", "pieri_expand", "jacobi_constant_term"],
)
def test_partition_with_more_than_n_parts_is_refused(evaluate):
    # norm_ratio, through delta_ratio, is the control; the others once cut
    # such a partition short to its first n parts and returned a value
    with pytest.raises(ValueError, match="has more than 1 parts"):
        evaluate()


def test_norm_anchors():
    p1 = BesselParams(Fraction(-20), Fraction(1), 1)
    assert norm_full_reduced(Partition((1,)), p1) == Fraction(1, 1900)
    a = Fraction(-20)
    p2 = BesselParams(a, Fraction(1), 2)
    assert norm_n0_reduced(p2) == -8 / (a * a * (a + 1))


def test_reduced_norm_of_one_is_computed_once_per_parameter_point():
    # every N_lambda of a Gram check scales N_(0); a refusal is not cached
    norm_n0_reduced.cache_clear()
    p = BesselParams(Fraction(-20), Fraction(1), 3)
    norms = [norm_full_reduced(lam, p) for lam in partitions_up_to(3, 3)]
    info = norm_n0_reduced.cache_info()
    assert len(norms) == 7 and (info.misses, info.hits) == (1, 6) and info.maxsize == 64
    for _ in range(2):
        with pytest.raises(PoleError, match="Gamma shift hit a pole"):
            norm_n0_reduced(BesselParams(0, 1, 2))
    assert norm_n0_reduced.cache_info().currsize == 1


def test_norm_positivity_on_grid():
    for a in (Fraction(-20), Fraction(-31)):
        for kappa in (Fraction(1), Fraction(2)):
            for n in (1, 2, 3):
                p = BesselParams(a, kappa, n)
                for lam in partitions_up_to(3, n):
                    if a < -2 * (lam.weight() + kappa * (n - 1)) + 1:
                        assert norm_full_reduced(lam, p) > 0, (a, kappa, n, lam)


def test_reduced_norm_of_one_matches_the_moment_route():
    # N_(0) is <1, 1>; at kappa = 0 the Gamma quotient Gamma(i kappa)/Gamma(kappa)
    # is the limit 1/i, so N_(0)/scale = 1
    for n in range(1, 5):
        one = SymPoly(n, {Partition(()): 1})
        for kappa in range(4):
            p = BesselParams(Fraction(-40), Fraction(kappa), n)
            assert norm_n0_reduced(p) == inner_product(one, one, p), (n, kappa)
