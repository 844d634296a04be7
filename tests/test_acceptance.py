"""Acceptance gate: eleven criteria, all exact rational equalities.

Each criterion is a single test that prints one pass/fail line.  Timing
bounds from the build contract are asserted where stated.
"""

import time
from fractions import Fraction

from mvbessel import diffops
from mvbessel.bessel import (
    BesselParams,
    bessel_coeff_tableau,
    bessel_eigenvalue,
    bessel_expand,
    rectangular_2F0,
)
from mvbessel.jacobi_bc import (
    JacobiParams,
    apply_DBC_jack,
    jacobi_constant_term,
    jacobi_eigenvalue,
    jacobi_expand,
)
from mvbessel.jack import (
    binomial_cocover,
    binomial_cocover_product,
    jack_in_monomials,
    spec_ratio_cocover,
    sym_to_jack,
)
from mvbessel.operators import apply_DB_direct, apply_higher, commutator_check
from mvbessel.orthogonality import (
    check_L2_condition,
    functional_apply,
    gram_matrix,
    inner_product,
    moments2_table,
    symmetry_check,
)
from mvbessel.partitions import Partition, co_covers, partitions_up_to
from mvbessel.pieri_norms import (
    norm_full_reduced,
    pieri_expand,
    pieri_verify,
    renormalized_jack,
)
from mvbessel.polyalg import MultiPoly, SymPoly, collect_symmetric

from oracles import schur

SAMPLE = [
    BesselParams(Fraction(-20), Fraction(1), 2),
    BesselParams(Fraction(-20), Fraction(2), 3),
    BesselParams(Fraction(-31, 2), Fraction(5, 3), 2),
]


def report(num, desc, ok, budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    line = f"[criterion {num:2d}] {status}: {desc}{timing}"
    print(line)
    assert ok, line
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.1f}s"


def test_criterion_01_eigenfunctions():
    t0 = time.time()
    ok = True
    for p in SAMPLE:
        for lam in partitions_up_to(4, p.n):
            f = bessel_expand(lam, p).to_sym()
            ok = ok and apply_DB_direct(f, p) == f.scale(bessel_eigenvalue(lam, p))
    report(1, "direct operator application reproduces every eigenvalue", ok, 30, time.time() - t0)


def test_criterion_02_dual_route_coefficients():
    t0 = time.time()
    ok = True
    for p in SAMPLE:
        for lam in partitions_up_to(4, p.n):
            Y = bessel_expand(lam, p)
            for mu in partitions_up_to(lam.weight(), p.n):
                if lam.contains(mu):
                    ok = ok and Y.coeff(mu) == bessel_coeff_tableau(lam, mu, p)
    report(2, "recurrence and tableau coefficient routes agree", ok, 60, time.time() - t0)


def test_criterion_03_commuting_tower():
    t0 = time.time()
    p2 = SAMPLE[0]
    ok = True
    for lam in partitions_up_to(4, p2.n):
        f = SymPoly(p2.n, {lam: Fraction(1)})
        ok = ok and apply_higher(1, f, p2) == apply_DB_direct(f, p2)
    for d in (1, 2, 3):
        for e in range(d + 1, 4):
            ok = ok and commutator_check(d, e, 3, p2)
    p3 = SAMPLE[1]
    ok = ok and commutator_check(1, 2, 3, p3)
    report(3, "tower starts at the defining operator and commutes", ok, 300, time.time() - t0)


def test_criterion_04_specialisation():
    ok = True
    for p in SAMPLE:
        for lam in partitions_up_to(3, p.n):
            ok = ok and renormalized_jack(lam, p).coeff(Partition(())) == 1
    p1 = BesselParams(Fraction(-20), Fraction(1), 1)
    f = renormalized_jack(Partition((1,)), p1).to_sym()
    ok = ok and f.coeff(Partition(())) == 1 and f.coeff(Partition((1,))) == Fraction(-10)
    report(4, "renormalized constant terms equal one; n=1 gives 1 + (a/2)x", ok)


def test_criterion_05_pieri():
    t0 = time.time()
    ok = True
    for p in SAMPLE:
        for r in range(1, p.n + 1):
            for lam in partitions_up_to(3, p.n):
                ok = ok and pieri_verify(r, lam, p)
    for a in (Fraction(-20), Fraction(-31, 2), Fraction(-7), Fraction(5, 2), Fraction(3)):
        coeffs = pieri_expand(1, Partition(()), BesselParams(a, Fraction(1), 1))
        ok = ok and coeffs[Partition((1,))] == 1 / a and coeffs[Partition(())] == -1 / a
    report(5, "Pieri expansions match the multiply-and-re-expand oracle", ok, 120, time.time() - t0)


def test_criterion_06_orthogonality_and_norms():
    t0 = time.time()
    ok = True
    for a in (Fraction(-20), Fraction(-31)):
        for kappa in (Fraction(1), Fraction(2)):
            for n in (1, 2, 3):
                p = BesselParams(a, kappa, n)
                if not check_L2_condition(3, p):
                    continue
                rows = gram_matrix(3, p)
                basis = partitions_up_to(3, n)
                for i, lam in enumerate(basis):
                    for j in range(len(basis)):
                        if i != j:
                            ok = ok and rows[i][j] == 0
                    want = norm_full_reduced(lam, p)
                    ok = ok and rows[i][i] == want and want > 0
    p1 = BesselParams(Fraction(-20), Fraction(1), 1)
    g = gram_matrix(1, p1)
    ok = ok and g[1][1] / g[0][0] == Fraction(1, 1900)
    report(6, "Gram matrices are diagonal with positive closed-form norms", ok, 180, time.time() - t0)


def test_criterion_07_symmetry():
    p = BesselParams(Fraction(-30), Fraction(1), 2)
    basis = [SymPoly(2, {lam: Fraction(1)}) for lam in partitions_up_to(2, 2)]
    ok = all(
        symmetry_check(d, f, g, p) for d in (1, 2) for f in basis for g in basis
    )
    report(7, "tower operators are symmetric for the inner product", ok)


def test_criterion_08_two_variable_functional():
    a, kappa = Fraction(-20), Fraction(1)
    t = moments2_table(8, a, kappa)
    ok = t.value(1, 0) == Fraction(-4) / (a + 2) and t.value(0, 1) == 4 / ((a + 2) * (a + 1))
    p = BesselParams(a, kappa, 2)
    basis = partitions_up_to(2, 2)
    for lam in basis:
        for mu in basis:
            if lam != mu:
                f = bessel_expand(lam, p).to_sym() * bessel_expand(mu, p).to_sym()
                ok = ok and functional_apply(f, t) == 0
    one = SymPoly.constant(2, 1)
    denom = inner_product(one, one, p)
    for lam in partitions_up_to(4, 2):
        f = SymPoly(2, {lam: Fraction(1)})
        ok = ok and functional_apply(f, t) == inner_product(f, one, p) / denom
    report(8, "moment functional is orthogonalizing and matches the integral oracle", ok)


def test_criterion_09_rectangular_identity():
    ok = True
    for n in (1, 2):
        for k in (1, 2, 3):
            for a, kappa in ((Fraction(-20), Fraction(1)), (Fraction(-31, 2), Fraction(5, 3))):
                p = BesselParams(a, kappa, n)
                Y = rectangular_2F0(k, p)  # raises internally on any mismatch
                ref = bessel_expand(Partition((k,) * n), p)
                for mu in partitions_up_to(k * n, n):
                    ok = ok and Y.coeff(mu) == ref.coeff(mu)
    report(9, "rectangular hypergeometric identity with corrected constant", ok)


def test_criterion_10_bc_cross_checks():
    ok = True
    for k1, k2, k3 in (
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(3, 2), Fraction(2), Fraction(5, 3)),
        (Fraction(2), Fraction(-1, 3), Fraction(2)),
    ):
        for n in (1, 2):
            jp = JacobiParams(k1, k2, k3, n)
            for lam in partitions_up_to(3, n):
                exp = jacobi_expand(lam, jp)
                diff = apply_DBC_jack(exp, jp) - exp.scale(jacobi_eigenvalue(lam, jp))
                ok = ok and diff.is_zero()
                ok = ok and exp.coeff(Partition(())) == jacobi_constant_term(lam, jp)
    report(10, "BC-type eigenfunctions with closed-form constant terms", ok)


def test_criterion_11_jack_sanity():
    ok = True
    for n in (1, 2, 3):
        for lam in partitions_up_to(5, n):
            ok = ok and jack_in_monomials(lam, Fraction(1), n) == schur(lam, n)
    kappa = Fraction(5, 3)
    for lam in partitions_up_to(5, 4):
        for i, up in co_covers(lam, 5, "up"):
            want = binomial_cocover(lam, i, kappa)
            ok = ok and binomial_cocover_product(lam, i, kappa, corrected=True) == want
            # E0 = sum_k d/dx_k on the expanded P_up, read back in the Jack basis
            n = max(up.length(), 1)
            expanded = jack_in_monomials(up, kappa, n).expand()
            e0 = sum((expanded.deriv(k) for k in range(1, n + 1)), MultiPoly.zero(n))
            acted = sym_to_jack(collect_symmetric(e0), kappa)
            forced = acted.coeff(lam) / spec_ratio_cocover(lam, i, kappa, n)
            ok = ok and forced == want
    report(11, "Jack polynomials reduce to Schur; binomial routes agree", ok)
