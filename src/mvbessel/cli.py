"""Command-line interface: construction, verification suites, and the
published-vs-implemented discrepancy ledger.

All numeric input is exact: integers or "p/q" strings.  Output is
deterministic JSON (iteration orders are fixed by graded lexicographic
partition order).  Exit codes: 0 success, 1 invalid input or inadmissible
parameters, 2 degenerate parameters (eigenvalue collision or pole),
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bessel, diffops, jack, jacobi_bc, operators, orthogonality, pieri_norms
from .errors import (
    ConvergenceError,
    DegenerateEigenvalue,
    DegenerateRecurrence,
    NotDivisible,
    NotProportional,
    NotSymmetric,
    PoleError,
)
from .partitions import Partition, partitions_up_to
from .polyalg import SymPoly, rat_str, rational

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGENERATE = 2
EXIT_VIOLATION = 3


def parse_rational(s: str) -> Fraction:
    s = s.strip()
    if any(ch in s for ch in ".eE"):
        raise ValueError(f"not an exact rational: {s!r} (use p/q or an integer)")
    try:
        return rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {s!r}") from exc


def parse_partition(s: str) -> Partition:
    try:
        parts = tuple(int(t) for t in s.split(",") if t.strip() != "")
    except ValueError as exc:
        raise ValueError(f"not a partition: {s!r}") from exc
    if any(p < 0 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise ValueError(f"not weakly decreasing non-negative: {s!r}")
    return Partition(parts)


def _int_at_least(s: str, low: int) -> int:
    n = int(s)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def positive_int(s: str) -> int:
    return _int_at_least(s, 1)


def non_negative_int(s: str) -> int:
    return _int_at_least(s, 0)


def ledger_n(s: str) -> int:
    # the ledger's examples grow row 1 of (2, 1), which needs two variables
    return _int_at_least(s, 2)


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        print(text)


def _key(lam: Partition) -> str:
    return "[" + ",".join(map(str, lam.parts)) + "]"


def _bessel_params(args) -> bessel.BesselParams:
    return bessel.BesselParams(parse_rational(args.a), parse_rational(args.kappa), args.n)


def _lambda_within_n(args) -> Partition:
    lam = parse_partition(args.lam)
    if lam.length() > args.n:
        raise ValueError(f"partition {args.lam} needs more than n={args.n} variables")
    return lam


def cmd_jack(args) -> int:
    lam = _lambda_within_n(args)
    kappa = parse_rational(args.kappa)
    P = jack.jack_in_monomials(lam, kappa, args.n)
    h_lo, h_up = jack.hook_products(lam, kappa)
    doc = {
        "lambda": list(lam.parts),
        "n": args.n,
        "kappa": rat_str(kappa),
        "monomial_coeffs": P.to_json(),
        "hook_lower": rat_str(h_lo),
        "hook_upper": rat_str(h_up),
        "principal_specialization": rat_str(jack.principal_spec(lam, kappa, args.n)),
        "eigenvalue_d": rat_str(jack.eigenvalue_d(lam, kappa, args.n)),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_bessel(args) -> int:
    lam = _lambda_within_n(args)
    p = _bessel_params(args)
    Y = (pieri_norms.renormalized_jack if args.renormalize else bessel.bessel_expand)(lam, p)
    f = Y.to_sym()
    e = bessel.bessel_eigenvalue(lam, p)
    eigencheck = (operators.apply_DB_direct(f, p) - f.scale(e)).is_zero()
    doc = {
        "lambda": list(lam.parts),
        "a": rat_str(p.a),
        "kappa": rat_str(p.kappa),
        "n": p.n,
        "jack_coeffs": Y.to_json(),
        "monomial_coeffs": f.to_json(),
        "eigenvalue": rat_str(e),
        "renormalized": bool(args.renormalize),
        "eigencheck": "pass" if eigencheck else "fail",
    }
    _emit(doc, args.out)
    return EXIT_OK if eigencheck else EXIT_VIOLATION


def _suite_eigen(args, checks) -> None:
    p = _bessel_params(args)
    for lam in partitions_up_to(args.max_degree, p.n):
        f = bessel.bessel_expand(lam, p).to_sym()
        diff = operators.apply_DB_direct(f, p) - f.scale(bessel.bessel_eigenvalue(lam, p))
        checks.append((f"eigen {_key(lam)}", diff.is_zero(), repr(diff)))


def _suite_commute(args, checks) -> None:
    p = _bessel_params(args)
    dmax = args.d_max
    for d in range(1, dmax + 1):
        for e in range(d + 1, dmax + 1):
            ok = operators.commutator_check(d, e, args.max_degree, p)
            checks.append((f"commute ({d},{e})", ok, ""))


def _suite_pieri(args, checks) -> None:
    p = _bessel_params(args)
    rs = range(1, p.n + 1) if args.r is None else [args.r]
    if args.lam is None:
        lams = partitions_up_to(args.max_degree, p.n)
    else:
        lams = [parse_partition(args.lam)]
    for r in rs:
        for lam in lams:
            # an r outside 1..n raises ValueError in E_hat_r
            ok = pieri_norms.pieri_verify(r, lam, p)
            checks.append((f"pieri r={r} {_key(lam)}", ok, ""))


def _suite_gram(args, checks) -> None:
    p = _bessel_params(args)
    m = args.max_degree
    rows = orthogonality.gram_matrix(m, p)
    basis = partitions_up_to(m, p.n)
    for i, lam in enumerate(basis):
        for j, mu in enumerate(basis):
            if i < j:
                checks.append(
                    (
                        f"gram off-diag {_key(lam)},{_key(mu)}",
                        rows[i][j] == 0,
                        rat_str(rows[i][j]),
                    )
                )
        want = pieri_norms.norm_full_reduced(lam, p)
        checks.append(
            (
                f"gram diag {_key(lam)} = norm formula",
                rows[i][i] == want and want > 0,
                f"{rat_str(rows[i][i])} vs {rat_str(want)}",
            )
        )


def _suite_moments2(args, checks) -> None:
    if args.n != 2:
        raise ValueError(f"moments2 is the two-variable functional: need n=2, got n={args.n}")
    p = _bessel_params(args)
    a, kappa = p.a, p.kappa
    m = args.max_degree
    table = orthogonality.moments2_table(max(2 * m, 2), a, kappa)
    checks.append(
        (
            "moments2 I[1,0]",
            table.value(1, 0) == -4 / (a + 2 * kappa),
            rat_str(table.value(1, 0)),
        )
    )
    checks.append(
        (
            "moments2 I[0,1]",
            table.value(0, 1) == 4 / ((2 * kappa + a) * (kappa + a)),
            rat_str(table.value(0, 1)),
        )
    )
    parts = partitions_up_to(m, 2)
    Y = [bessel.bessel_expand(lam, p).to_sym() for lam in parts]
    rows = orthogonality.functional_matrix(Y, table)
    for i, lam in enumerate(parts):
        for j in range(i + 1, len(parts)):
            val = rows[i][j]
            checks.append(
                (f"functional Y{_key(lam)}*Y{_key(parts[j])} = 0", val == 0, rat_str(val))
            )


def _suite_jacobi(args, checks) -> None:
    jp = jacobi_bc.JacobiParams(
        parse_rational(args.k1), parse_rational(args.k2), parse_rational(args.k3), args.n
    )
    for lam in partitions_up_to(args.max_degree, jp.n):
        exp = jacobi_bc.jacobi_expand(lam, jp)
        # the direct operator, not apply_DBC_jack, which shares the solve's weights
        f = exp.to_sym()
        e = jacobi_bc.jacobi_eigenvalue(lam, jp)
        ok = diffops.apply_jacobi_bc_sym(f, jp.k1, jp.k2, jp.k3) == f.scale(e)
        checks.append((f"jacobi eigen {_key(lam)}", ok, ""))
        ct = exp.coeff(Partition(()))
        want = jacobi_bc.jacobi_constant_term(lam, jp)
        checks.append(
            (
                f"jacobi constant term {_key(lam)}",
                ct == want,
                f"{rat_str(ct)} vs {rat_str(want)}",
            )
        )


_SUITES = {
    "eigen": _suite_eigen,
    "commute": _suite_commute,
    "pieri": _suite_pieri,
    "gram": _suite_gram,
    "moments2": _suite_moments2,
    "jacobi": _suite_jacobi,
}


def cmd_verify(args) -> int:
    checks: list[tuple[str, bool, str]] = []
    _SUITES[args.suite](args, checks)
    if not checks:
        raise ValueError("suite ran no checks")
    doc = {
        "suite": args.suite,
        "checks": [
            {"name": name, "status": "pass" if ok else "fail", "detail": detail}
            for name, ok, detail in checks
        ],
        "all_pass": all(ok for _, ok, _ in checks),
    }
    _emit(doc, args.out)
    return EXIT_OK if doc["all_pass"] else EXIT_VIOLATION


def cmd_ledger(args) -> int:
    """Print published-vs-implemented discrepancies, evaluated at the given
    parameters where a concrete value makes the difference visible."""
    a = parse_rational(args.a)
    kappa = parse_rational(args.kappa)
    n = args.n
    entries = []

    lam, i = Partition((2, 1)), 1
    entry = {
        "item": "co-cover binomial coefficient, closed product formula",
        "published": "row bounds taken from the smaller partition",
        "implemented": "row bounds taken from the grown partition",
        "example": {"lambda": list(lam.parts), "row": i, "kappa": rat_str(kappa)},
        "authoritative_value": rat_str(jack.binomial_cocover(lam, i, kappa)),
        "implemented_value": rat_str(
            jack.binomial_cocover_product(lam, i, kappa, corrected=True)
        ),
    }
    try:
        entry["published_value"] = rat_str(
            jack.binomial_cocover_product(lam, i, kappa, corrected=False)
        )
    except PoleError:
        entry["published_value"] = "pole"
    entries.append(entry)

    entry = {
        "item": "principal-specialization ratio, closed product formula",
        "published": "verbatim product with a leading kappa factor and n-row bounds",
        "implemented": "kappa factor dropped, rows bounded by the grown partition",
        "example": {"lambda": list(lam.parts), "row": i, "kappa": rat_str(kappa), "n": n},
        "authoritative_value": rat_str(jack.spec_ratio_cocover(lam, i, kappa, n)),
        "implemented_value": rat_str(
            jack.spec_ratio_product(lam, i, kappa, n, corrected=True)
        ),
    }
    try:
        entry["published_value"] = rat_str(
            jack.spec_ratio_product(lam, i, kappa, n, corrected=False)
        )
    except PoleError:
        entry["published_value"] = "pole"
    entries.append(entry)

    k = 2
    entries.append(
        {
            "item": "rectangular-partition hypergeometric identity",
            "published": "second parameter k + a - 1 - kappa(n-1); constant without the (-2)^{kn} normalization",
            "implemented": "second parameter k + a - 1 + kappa(n-1); constant (-2)^{kn} h / ([..][..])",
            "example": {"k": k, "a": rat_str(a), "kappa": rat_str(kappa), "n": n},
            "published_value": rat_str(k + a - 1 - kappa * (n - 1)),
            "implemented_value": rat_str(k + a - 1 + kappa * (n - 1)),
        }
    )

    table = orthogonality.moments2_table(2, a, kappa)
    entries.append(
        {
            "item": "two-variable moment recurrences",
            "published": "(n+m+2k+a) I[n+1,m] = 2n I[n-1,m+1] - I[n,m] with inconsistent signs/constants",
            "implemented": "(n+m+2k+a) I[n+1,m] = 2n I[n-1,m+1] - 4 I[n,m]; (n+2m+2(k+a)) I[n,m+1] = -2 I[n+1,m]",
            "example": {"a": rat_str(a), "kappa": rat_str(kappa)},
            "implemented_value": {
                "I[1,0]": rat_str(table.value(1, 0)),
                "I[0,1]": rat_str(table.value(0, 1)),
            },
        }
    )

    k1 = k2 = k3 = Fraction(1)
    jp = jacobi_bc.JacobiParams(k1, k2, k3, 1)
    u0 = jacobi_bc.jacobi_expand(Partition((1,)), jp).coeff(Partition(()))
    entries.append(
        {
            "item": "one-variable BC constant-term example",
            "published": "-4(k1+k2+1/2)/(k1+2k2+1)",
            "implemented": "+4(k1+k2+1/2)/(k1+2k2+1), forced by the eigenvalue equation",
            "example": {"k1": "1", "k2": "1", "k3": "1"},
            "published_value": rat_str(-u0),
            "implemented_value": rat_str(u0),
        }
    )

    entries.append(
        {
            "item": "Pieri expansion coefficients",
            "published": "sign-free transcription of the coefficient sum",
            "implemented": "global factor (-1)^{r+1}, forced by the polynomial oracle at r = 2",
            "example": {"r": 2},
            "published_value": "opposite sign on every coefficient",
            "implemented_value": "matches the multiply-and-re-expand oracle",
        }
    )

    _emit({"ledger": entries}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvbessel",
        description="Exact multivariable Bessel polynomials: construction and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pj = sub.add_parser("jack", help="Jack polynomial data")
    pj.add_argument("--n", type=positive_int, required=True)
    pj.add_argument("--kappa", required=True)
    pj.add_argument("--lambda", dest="lam", required=True)
    pj.add_argument("--out")
    pj.set_defaults(func=cmd_jack)

    pb = sub.add_parser("bessel", help="Bessel polynomial data")
    pb.add_argument("--n", type=positive_int, required=True)
    pb.add_argument("--a", required=True)
    pb.add_argument("--kappa", required=True)
    pb.add_argument("--lambda", dest="lam", required=True)
    pb.add_argument("--renormalize", action="store_true")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bessel)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(_SUITES))
    pv.add_argument("--n", type=positive_int, default=2)
    pv.add_argument("--a", default="-20")
    pv.add_argument("--kappa", default="1")
    pv.add_argument("--max-degree", type=non_negative_int, default=2)
    pv.add_argument("--d-max", type=int, default=2)
    pv.add_argument("--r", type=int)
    pv.add_argument("--lambda", dest="lam")
    pv.add_argument("--k1", default="1")
    pv.add_argument("--k2", default="1")
    pv.add_argument("--k3", default="1")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("ledger", help="published-vs-implemented discrepancy ledger")
    pl.add_argument("--n", type=ledger_n, default=2)
    pl.add_argument("--a", default="-20")
    pl.add_argument("--kappa", default="1")
    pl.add_argument("--out")
    pl.set_defaults(func=cmd_ledger)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (DegenerateEigenvalue, DegenerateRecurrence, PoleError) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NotDivisible, NotSymmetric, NotProportional, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
