import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvbessel import bessel, jack, polyalg
from mvbessel.cli import main
from mvbessel.errors import NotDivisible, NotProportional, NotSymmetric
from mvbessel.polyalg import MultiPoly, SymPoly


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_jack_schur_case(capsys):
    code, out, _ = run(["jack", "--n", "2", "--kappa", "1", "--lambda", "2,0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["monomial_coeffs"] == {"[1,1]": "1", "[2]": "1"}
    assert doc["principal_specialization"] == "3"


def test_jack_zonal_coefficient(capsys):
    code, out, _ = run(["jack", "--n", "2", "--kappa", "1/2", "--lambda", "2"], capsys)
    assert code == 0
    assert json.loads(out)["monomial_coeffs"]["[1,1]"] == "2/3"


def test_jack_invalid_partition(capsys):
    code, _, err = run(["jack", "--n", "2", "--kappa", "1", "--lambda", "2,3"], capsys)
    assert code == 1 and "not weakly decreasing" in err


def test_rational_parsing_rejects_floats(capsys):
    code, _, err = run(["jack", "--n", "2", "--kappa", "0.5", "--lambda", "1"], capsys)
    assert code == 1 and "exact rational" in err


def test_bessel_one_variable(capsys):
    code, out, _ = run(
        ["bessel", "--n", "1", "--a", "-20", "--kappa", "1", "--lambda", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["monomial_coeffs"] == {"[]": "-1/10", "[1]": "1"}
    assert doc["eigencheck"] == "pass"


def test_bessel_degenerate_exit_code(capsys):
    code, _, err = run(
        ["bessel", "--n", "2", "--a", "-2", "--kappa", "1", "--lambda", "1"], capsys
    )
    assert code == 2 and "degenerate" in err


@pytest.mark.parametrize("error", [NotDivisible, NotSymmetric, NotProportional, AssertionError])
def test_invariant_violation_exit_code(error, monkeypatch, capsys):
    def violate(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(jack, "jack_in_monomials", violate)
    code, out, err = run(["jack", "--n=2", "--kappa=1", "--lambda=2,1"], capsys)
    assert (code, out) == (3, "") and err.startswith("invariant violation: planted")


def test_bessel_renormalized_constant_term(capsys):
    code, out, _ = run(
        [
            "bessel",
            "--n",
            "2",
            "--a",
            "-20",
            "--kappa",
            "1",
            "--lambda",
            "2,1",
            "--renormalize",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["monomial_coeffs"]["[]"] == "1"


@pytest.mark.parametrize("suite", ["eigen", "pieri", "gram", "moments2", "jacobi"])
def test_verify_suites_pass(suite, capsys):
    code, out, _ = run(["verify", suite], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_commute(capsys):
    code, out, _ = run(["verify", "commute", "--max-degree", "2", "--d-max", "2"], capsys)
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_verify_gram_inadmissible(capsys):
    code, _, err = run(
        ["verify", "gram", "--a", "-15", "--kappa", "2", "--n", "3", "--max-degree", "4"],
        capsys,
    )
    assert code == 1 and "square-integrability" in err


@pytest.mark.parametrize(
    "kappa, message",
    [
        ("3/2", "error: moment oracle needs kappa a non-negative integer\n"),
        ("-1", "error: kappa must be non-negative\n"),
    ],
)
def test_verify_gram_refuses_kappa_outside_the_moment_oracle(kappa, message, capsys):
    code, out, err = run(
        ["verify", "gram", "--n=2", f"--kappa={kappa}", "--max-degree=2", "--a=-20"], capsys
    )
    assert (code, out, err) == (1, "", message)


def test_verify_gram_at_kappa_zero(capsys):
    code, out, _ = run(
        ["verify", "gram", "--n=2", "--a=-20", "--kappa=0", "--max-degree=0"], capsys
    )
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_deterministic_output(capsys):
    _, out1, _ = run(["verify", "eigen"], capsys)
    _, out2, _ = run(["verify", "eigen"], capsys)
    assert out1 == out2


def test_ledger(capsys):
    code, out, _ = run(["ledger"], capsys)
    assert code == 0
    doc = json.loads(out)
    items = {e["item"] for e in doc["ledger"]}
    assert any("binomial" in i for i in items)
    assert any("moment" in i for i in items)
    assert any("Pieri" in i for i in items)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "commute", "--d-max", "0"],
        ["verify", "commute", "--d-max", "1"],
    ],
)
def test_verify_empty_suite_is_not_a_pass(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == "" and "error: suite ran no checks" in err


@pytest.mark.parametrize("suite", ["eigen", "commute", "pieri", "gram", "moments2", "jacobi"])
def test_max_degree_below_zero_is_rejected(suite, capsys):
    code, out, err = run(["verify", suite, "--max-degree", "-1"], capsys)
    assert code == 1 and out == ""
    assert "error: argument --max-degree: must be at least 0" in err


def test_moments2_builds_each_bessel_polynomial_once(monkeypatch, capsys):
    calls = []
    expand = bessel.bessel_expand

    def counting_bessel_expand(lam, p):
        calls.append(lam)
        return expand(lam, p)

    monkeypatch.setattr(bessel, "bessel_expand", counting_bessel_expand)
    code, _, _ = run(["verify", "moments2", "--max-degree=3"], capsys)
    assert code == 0
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize(
    "argv",
    [
        ["jack", "--n", "0", "--lambda=", "--kappa", "1"],
        ["bessel", "--n", "0", "--a=-20", "--kappa", "1", "--lambda="],
        ["verify", "eigen", "--n", "0"],
        ["ledger", "--n", "0"],
        ["ledger", "--n=-2"],
    ],
)
def test_n_below_one_is_rejected(argv, capsys):
    code, out, err = run(argv, capsys)
    low = 2 if argv[0] == "ledger" else 1
    assert code == 1 and out == "" and f"argument --n: must be at least {low}" in err


def test_ledger_needs_two_variables(capsys):
    # its examples grow row 1 of (2, 1); n = 1 is an input error, not a
    # failure inside the ledger
    code, out, err = run(["ledger", "--n=1"], capsys)
    assert code == 1 and out == "" and "argument --n: must be at least 2, got 1" in err


def test_unwritable_out_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["ledger", "--out", str(target)], capsys)
    assert code == 1 and out == "" and err.startswith("error: cannot write")
    assert not target.exists()


def test_bessel_vanishing_hook_product_exit_code(capsys):
    # h_(2,1) vanishes at kappa = -2, but the lowering weight is its finite
    # limit there, so Y_(2,2) exists and is an eigenfunction
    code, out, _ = run(
        ["bessel", "--n=2", "--a=-20", "--kappa=-2", "--lambda=2,2"], capsys
    )
    assert code == 0 and json.loads(out)["eigencheck"] == "pass"


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--r=1"], ["pieri r=1 []", "pieri r=1 [1]", "pieri r=1 [1,1]", "pieri r=1 [2]"]),
        (["--lambda=1"], ["pieri r=1 [1]", "pieri r=2 [1]"]),
        (["--r=2", "--lambda=1"], ["pieri r=2 [1]"]),
    ],
)
def test_pieri_r_and_lambda_each_narrow_the_cases(flags, names, capsys):
    code, out, _ = run(["verify", "pieri", *flags], capsys)
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == names


@pytest.mark.parametrize("r", ["0", "3", "-1"])
def test_pieri_r_outside_one_to_n_is_rejected(r, capsys):
    code, out, err = run(["verify", "pieri", "--n=2", f"--r={r}"], capsys)
    assert code == 1 and out == "" and err.startswith("error: need 1 <= r <= n")


def test_pieri_vanishing_normalization_ratio_exit_code(capsys):
    # at kappa = -1/2, a = 2 the renormalization ratio of Y_(2) is 0, which
    # pieri_norms.renormalized_jack refuses before it divides by it
    code, out, err = run(
        ["verify", "pieri", "--max-degree=2", "--n=2", "--kappa=-1/2", "--a=2"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("degenerate: normalization ratio vanished")


def test_moments2_rejects_n_other_than_two(capsys):
    code, out, err = run(["verify", "moments2", "--n=3", "--max-degree=1"], capsys)
    assert code == 1 and out == "" and err.startswith("error:") and "n=2" in err


def _cli_process(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-m", "mvbessel.cli", *argv], env=env, capture_output=True
    )


def test_cli_as_a_process_matches_main(capsys):
    argv = ["jack", "--n=2", "--kappa=1", "--lambda=2,1"]
    code, out, _ = run(argv, capsys)
    proc = _cli_process(argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode()) and code == 0


def test_cli_process_exit_code_when_degenerate():
    proc = _cli_process(["bessel", "--n=2", "--a=-2", "--kappa=1", "--lambda=1"])
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"degenerate")


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("mvbessel"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


ORACLE_FREE = [
    "verify pieri --n=3 --max-degree=3 --kappa=4/3 --a=-33/2",
    "verify moments2 --a=-20 --kappa=3/2 --max-degree=3",
    "verify commute --n=3 --max-degree=3 --d-max=2",
    "verify eigen --n=3 --a=-31/2 --kappa=5/3 --max-degree=3",
    "bessel --n=3 --a=-31/2 --kappa=3/2 --lambda=2,1 --renormalize",
]


def test_no_command_expands_into_monomials(monkeypatch, capsys):
    # the expanded-polynomial arithmetic is the tests' oracle: with it made to
    # raise, and no cache left to answer from, each command prints the same
    unpatched = []
    for argv in ORACLE_FREE:
        _clear_package_caches()
        unpatched.append(run(argv.split(), capsys))

    def refuse(*args, **kwargs):
        raise AssertionError("a production path expanded into monomials")

    for cls, attr in ((MultiPoly, "__mul__"), (MultiPoly, "__rmul__"), (SymPoly, "expand")):
        monkeypatch.setattr(cls, attr, refuse)
    monkeypatch.setattr(polyalg, "collect_symmetric", refuse)
    for argv, (code, out, _) in zip(ORACLE_FREE, unpatched):
        _clear_package_caches()
        assert code == 0 and run(argv.split(), capsys)[:2] == (code, out), argv
