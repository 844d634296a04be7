"""Byte-identity gate: exit code and sha256 of stdout for small CLI runs.

Each digest pins the exact JSON a subcommand prints, so a change to how the
expansions are computed must leave every one of them unchanged.  The grid
covers each subcommand and verify suite, the removable 0/0 Pieri path at
kappa = 1 (including n = 3, where paired factors cancel), four degenerate
runs that exit 2 with empty stdout (one a Jacobi run whose eigenvalues
collide, one a Bessel run whose lowering weight has a pole at a co-cover
whose coefficient is zero, which the solve evaluates all the same), and a
Gram run refused by the square-integrability bound (exit 1, empty stdout).
Two Jacobi runs whose constant term meets a removable 0/0 of
the v or w steps take it as the limit along (k1 + t, k2, k3 + t) and pin
their digests and check counts.  The Pieri runs at n = 4, at a generic
kappa and at n = 5, degree 4 (where the products E_r Ytilde_lambda are
largest), the Jacobi run at n = 4, degree 5, the Gram run at n = 3, kappa = 2,
the two Gram runs at degree 4, the eigen runs at n = 5, degree 6 and at
n = 6, degree 8 (S_6 orbits of up to 720 monomials), and the moments2 runs
at degrees 0 and 8 also pin their check counts.  The gram,
pieri, eigen and jacobi runs at kappa = 0, where every closed product meets
0/0 and Y_lambda is taken as its limit, pin digests and check counts, and
the jack run there reports m_(2,1)(1,1,1) = 6.
"""

import hashlib
import json

import pytest

from mvbessel.cli import main

GOLDEN = [
    (
        "jack --n=3 --kappa=5/3 --lambda=3,1",
        0,
        "03307284531a00a724333e649b6042bf0c6d683f9737743d467124a46bdb2ecf",
    ),
    (
        "bessel --n=3 --a=-31/2 --kappa=3/2 --lambda=2,1 --renormalize",
        0,
        "ac966a1887e514a27fc1026f21d884ce8156bfe04c4256b7c4d1838a330c46e6",
    ),
    (
        "bessel --n=2 --a=-2 --kappa=1 --lambda=1",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "bessel --n=2 --a=1 --kappa=-1 --lambda=3",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "verify eigen --n=3 --a=-31/2 --kappa=5/3 --max-degree=3",
        0,
        "fb2a4b310fb13b736699ffe9738b133444f4ac3cf40ddf3aabe5583c39c89aa8",
    ),
    (
        "verify eigen --n=5 --max-degree=6 --kappa=5/3 --a=-20",
        0,
        "e2015cfebcdcf90e4242125e608dc4c485b580bc0c985709db4020ce9fe94d48",
    ),
    (
        "verify eigen --n=6 --max-degree=8 --kappa=5/3 --a=-40",
        0,
        "b09011f61a68edb1964fa7941429d58387c31f19dfb88f330f6f8f4b42c52c60",
    ),
    (
        "bessel --n=5 --lambda=2,2,1 --renormalize --a=-20 --kappa=3/2",
        0,
        "1b5131499eb29cec5b6424fbef7e22a52119b27b956e98ece63756dc3e950866",
    ),
    (
        "verify jacobi --n=3 --k1=1/3 --k2=5/7 --k3=3/2 --max-degree=3",
        0,
        "e09488b027e33ff295ba0e506380d8150ae743b56859e1b3d8a1e7139d834399",
    ),
    (
        "verify jacobi --n=4 --max-degree=5 --k1=1 --k2=1/2 --k3=3/2",
        0,
        "984e309b3d4e75bed28f9f16a786c508163a3d144b637fb4ffc1a06cf17cb388",
    ),
    (
        "verify jacobi --n=1 --k1=-3 --k2=1 --k3=1 --max-degree=2",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "verify jacobi --n=1 --k1=-4 --k2=2 --k3=1 --max-degree=2",
        0,
        "76cae8f901ba7bc090ca01d06713dcd85191de1456802b968c057cf22c9f4412",
    ),
    (
        "verify jacobi --n=2 --k1=-3/2 --k2=3/2 --k3=-3/2 --max-degree=3",
        0,
        "ad7b3c4e9a1d1b2bec73c8598daa9518c7a317e51918e97497b5ae7dfee126aa",
    ),
    (
        "verify pieri --n=2 --a=-20 --kappa=1 --max-degree=2",
        0,
        "7fc404004a0ec377fb4b6e732bcd5d3fd2cb56c3ec6cfa0d666a6a149a7ea3ce",
    ),
    (
        "verify pieri --n=3 --a=-27/2 --kappa=1 --max-degree=2",
        0,
        "3535021aacb34962f21ae5c8a2ba557ed7354a0113cf6901cce1ae57208f7551",
    ),
    (
        "verify pieri --n=4 --max-degree=3 --kappa=1 --a=-27/2",
        0,
        "f3b87b7c35dc921515aee6c214768f8d7d38de68f3230837c6c1353db229916d",
    ),
    (
        "verify pieri --n=3 --max-degree=3 --kappa=4/3 --a=-33/2",
        0,
        "06ac608d352cb7544e5506f769c657476bc176c3a8e1b1635ed63df56775ebff",
    ),
    (
        "verify pieri --n=5 --max-degree=4 --kappa=5/3 --a=-41/2",
        0,
        "a632cbb9ad4b9150e61135ba8252c39aef184a2223d67e44fb85ff9040755dc7",
    ),
    (
        "verify pieri --n=2 --a=0 --kappa=1 --max-degree=2",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "verify gram --n=2 --a=-20 --kappa=1 --max-degree=2",
        0,
        "18b573c07fa9150a6122d4dca3770593e4e41006697891dc783f96391ef1522c",
    ),
    (
        "verify gram --n=4 --a=-31/2 --kappa=1 --max-degree=3",
        0,
        "0679257c18e1a679676b1e6dab86142ca27f604e7ad9cd331905fbedc27614cd",
    ),
    (
        "verify gram --n=3 --a=-20 --kappa=2 --max-degree=3",
        0,
        "c1f57f0f26d1bccb101a3110c52b1c860fb3625473b982f22ebba0c2549ff0b2",
    ),
    (
        "verify gram --n=5 --max-degree=4 --kappa=1 --a=-30",
        0,
        "ee733cd5517c502db7be40802a4947d68572905cf0d428c1c5ab7a93c03710c7",
    ),
    (
        "verify gram --n=4 --max-degree=4 --kappa=2 --a=-40",
        0,
        "dca8cf432735d1fe0fd2c86a49767ebd4f9f1b79764e2f1a9cde18f147a9409a",
    ),
    (
        "verify gram --n=3 --a=-10 --kappa=2 --max-degree=3",
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "verify moments2 --a=-43 --kappa=2 --max-degree=6",
        0,
        "62313f03d45304b2ae507a483a7bfed0b92b7a70a59ed2be9d961db1ddb3ead4",
    ),
    (
        "verify moments2 --a=-20 --kappa=3/2 --max-degree=3",
        0,
        "1517491fa13e4c88a1d7e67cf24d25fdbf7b014078c150d66577b08e80c87e00",
    ),
    (
        "verify moments2 --max-degree=8 --a=-40 --kappa=1",
        0,
        "a726b4f785bf0d3eaa665df910b5727c1e9f3056d2fc79354107d309598c84ac",
    ),
    (
        "verify commute --n=2 --a=-20 --kappa=1 --max-degree=2 --d-max=2",
        0,
        "2fa730ff02a7d1aa69efdc9fba77c3e09206c20a6ecb8a07bebc8edd6a9f3d7b",
    ),
    (
        "ledger --n=3 --a=-31/2 --kappa=5/3",
        0,
        "d58ad0ad62283e8b72959f5013d90c49df1cae5abf8cdeceb22671e80d9e60d8",
    ),
    (
        "verify gram --n=3 --max-degree=3 --kappa=0",
        0,
        "462e043292239ee78cfba6601cd9aec285bbe9d971d53633136d2fe5e6df243d",
    ),
    (
        "verify pieri --n=3 --max-degree=3 --kappa=0",
        0,
        "06ac608d352cb7544e5506f769c657476bc176c3a8e1b1635ed63df56775ebff",
    ),
    (
        "verify eigen --n=3 --max-degree=4 --kappa=0",
        0,
        "4f022273e1b43c7b510d81e4a13101a0de647040b0a67c94f3847f4f098f6081",
    ),
    (
        "verify jacobi --n=2 --k1=0 --k2=1 --k3=0 --max-degree=3",
        0,
        "a4cf15e045d5fd7343801228e814eee742422a063128d80db0fe52b38dbb884c",
    ),
    (
        "jack --n=3 --lambda=2,1 --kappa=0",
        0,
        "f8b575d62cc216c39b15dc0cd6c88bd1c7daeff20a1b46048882aaa36bb6aabb",
    ),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_is_pinned(argv, code, digest, capsys):
    assert main(argv.split()) == code
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CHECK_COUNTS = {
    "verify eigen --n=5 --max-degree=6 --kappa=5/3 --a=-20": 29,
    "verify eigen --n=6 --max-degree=8 --kappa=5/3 --a=-40": 64,
    "verify pieri --n=4 --max-degree=3 --kappa=1 --a=-27/2": 28,
    "verify pieri --n=3 --max-degree=3 --kappa=4/3 --a=-33/2": 21,
    "verify pieri --n=5 --max-degree=4 --kappa=5/3 --a=-41/2": 60,
    "verify jacobi --n=4 --max-degree=5 --k1=1 --k2=1/2 --k3=3/2": 36,
    "verify gram --n=3 --a=-20 --kappa=2 --max-degree=3": 28,
    "verify moments2 --max-degree=0": 2,
    "verify moments2 --max-degree=8 --a=-40 --kappa=1": 302,
    "verify gram --n=5 --max-degree=4 --kappa=1 --a=-30": 78,
    "verify gram --n=4 --max-degree=4 --kappa=2 --a=-40": 78,
    "verify gram --n=3 --max-degree=3 --kappa=0": 28,
    "verify pieri --n=3 --max-degree=3 --kappa=0": 21,
    "verify eigen --n=3 --max-degree=4 --kappa=0": 11,
    "verify jacobi --n=1 --k1=-4 --k2=2 --k3=1 --max-degree=2": 6,
    "verify jacobi --n=2 --k1=-3/2 --k2=3/2 --k3=-3/2 --max-degree=3": 12,
    "verify jacobi --n=2 --k1=0 --k2=1 --k3=0 --max-degree=3": 12,
}


@pytest.mark.parametrize("argv, count", CHECK_COUNTS.items(), ids=list(CHECK_COUNTS))
def test_check_count_is_pinned(argv, count, capsys):
    assert main(argv.split()) == 0
    out, _ = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert len(checks) == count and all(c["status"] == "pass" for c in checks)


def test_kappa_zero_principal_specialization_is_the_monomial_count(capsys):
    assert main("jack --n=3 --lambda=2,1 --kappa=0".split()) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out)["principal_specialization"] == "6"
