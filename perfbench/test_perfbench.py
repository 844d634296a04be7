"""Tests of the benchmark itself: argv building, failure detection, the
golden pool, the reference task, and tracer transparency.

    python3 -m pytest perfbench -q

The transparency tests run one traced session per workload (about 20 s
in all on a 2-core machine).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import jobs
import reference
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mvbessel import cli  # noqa: E402

# Functions each workload must reach: where the layer table in README.md
# predicts the function matters.
PREDICTED = {
    "construct": [
        "polyalg.divide_exact",
        "polyalg.collect_symmetric",
        "diffops.apply_sutherland_sym",
        "diffops.apply_bessel_sym",
        "jack.jack_in_monomials",
        "jack.apply_basic",
        "jacobi_bc.jacobi_expand",
    ],
    "pieri": [
        "pieri_norms.pieri_expand",
        "pieri_norms.pieri_verify",
        "jack.sym_to_jack",
        "jack.jack_in_monomials",
        "bessel.bessel_expand",
    ],
    "gram": [
        "polyalg.mul",
        "orthogonality.inner_product",
        "orthogonality.functional_apply",
        "bessel.bessel_expand",
        "jack.jack_in_monomials",
    ],
    "tower": [
        "operators.apply_higher",
        "polyalg.simplify",
        "polyalg.divide_exact",
        "polyalg.collect_symmetric",
    ],
}
EVERYWHERE = ["partitions.partitions_up_to", "partitions.partitions_of", "cli.main"]


def fake_result(stdout: bytes, returncode: int = 0) -> jobs.JobResult:
    return jobs.JobResult(returncode, 0.1, 0.1, 20.0, stdout, b"")


def test_argv_passes_negative_rationals_with_equals():
    job = jobs.WORKLOADS["construct"][3]
    argv = jobs.build_argv(job, {"a": "-31/2", "kappa": "5/3"})
    assert "--a=-31/2" in argv
    args = cli.build_parser().parse_args(argv)
    assert (args.a, args.kappa, args.n, args.max_degree) == ("-31/2", "5/3", 4, 4)
    # The separate form is read as an option and refused.
    assert cli.main(["verify", "eigen", "--a", "-31/2"]) == cli.EXIT_INVALID


def test_empty_verify_suite_is_a_failure():
    job = jobs.WORKLOADS["construct"][3]
    empty = json.dumps({"suite": "eigen", "checks": [], "all_pass": True}).encode()
    assert jobs.inspect_output(job, fake_result(empty)) == (0, "verify suite ran no checks")


def test_wrong_check_count_and_digest_are_failures():
    job = jobs.WORKLOADS["tower"][0]
    out = json.dumps({"suite": "commute", "checks": [{"status": "pass"}], "all_pass": True}).encode()
    point = jobs.golden_point({"a": "-20"}, 1, out)
    assert jobs.validate(job, point, fake_result(out)) is None
    assert jobs.validate(job, {**point, "checks": 3}, fake_result(out)) == "1 checks, expected 3"
    assert jobs.validate(job, point, fake_result(out + b" ")) == "stdout differs from the golden digest"
    assert jobs.validate(job, point, fake_result(out, 2)).startswith("exit code 2")


def test_degenerate_point_is_refused(tmp_path):
    # e_(1) = e_(4,1) at n=5, a=-31/2, kappa=5/3: the CLI exits 2.
    job = jobs.Job("eigen-n5-d5", ("verify", "eigen"), (("n", "5"), ("max-degree", "5")))
    argv = jobs.build_argv(job, {"a": "-31/2", "kappa": "5/3"})
    res = jobs.run_child(jobs.job_command(argv), jobs.child_env(ROOT), tmp_path)
    count, why = jobs.inspect_output(job, res)
    assert res.returncode == cli.EXIT_DEGENERATE
    assert why.startswith("exit code 2")


def test_pool_has_golden_points_for_every_job():
    pool = jobs.load_pool()
    for workload in jobs.WORKLOADS.values():
        for job in workload:
            assert pool[job.id], job.id
            for point in pool[job.id]:
                assert re.fullmatch("[0-9a-f]{64}", point["sha256"])
                assert (point["checks"] > 0) == job.is_verify


def test_seed_picks_the_same_session():
    pool = jobs.load_pool()
    assert jobs.pick_session("gram", 7, pool, 2) == jobs.pick_session("gram", 7, pool, 2)


def test_sessions_cycle_through_every_pool_point():
    pool = jobs.load_pool()
    for workload, job_list in jobs.WORKLOADS.items():
        for i, job in enumerate(job_list):
            k = len(pool[job.id])
            seen = [jobs.pick_session(workload, 3, pool, index)[i][1] for index in range(2 * k)]
            assert sorted(map(str, seen[:k])) == sorted(map(str, pool[job.id])), job.id
            assert seen[k:] == seen[:k]


def test_reference_task_prints_its_checksum(tmp_path):
    assert reference.main() == reference.EXPECTED
    assert run.reference_time(jobs.child_env(ROOT), tmp_path) > 0


def test_aggregate_self_and_total_time():
    names = ["cli.main", "polyalg.divide_exact", "polyalg.mul"]
    # main [0, 10] > divide [1, 6] > mul [2, 3]; divide [6, 9] > divide [7, 8] (recursive)
    spans = [
        (0, 0.0, 10.0, -1, False),
        (1, 1.0, 6.0, 0, False),
        (2, 2.0, 3.0, 1, False),
        (1, 6.0, 9.0, 0, False),
        (1, 7.0, 8.0, 3, True),
    ]
    out = tracer.aggregate([{"names": names, "spans": spans, "repeats": {"polyalg.mul": 0}}])
    assert out["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 2.0, "repeats": 0}
    assert out["polyalg.divide_exact"] == {"calls": 3, "total_s": 8.0, "self_s": 7.0, "repeats": 0}
    assert out["polyalg.mul"]["self_s"] == 1.0


@pytest.fixture(scope="module", params=sorted(PREDICTED))
def traced_session(request, tmp_path_factory):
    """One traced session at seed 0: (workload, session, per-job records and span files)."""
    tmp = tmp_path_factory.mktemp(request.param)
    session = jobs.pick_session(request.param, 0, jobs.load_pool())
    env = jobs.child_env(ROOT)
    records, docs = run.run_session(session, env, tmp, traced=True)
    return request.param, session, records, docs


def test_traced_stdout_matches_untraced_golden(traced_session):
    _, session, records, docs = traced_session
    assert [r["failure"] for r in records] == [None] * len(session)
    assert len(docs) == len(session)


def test_predicted_layers_are_reached(traced_session):
    workload, _, _, docs = traced_session
    layers = tracer.aggregate(docs)
    missed = [name for name in PREDICTED[workload] + EVERYWHERE if layers[name]["calls"] == 0]
    assert missed == []


def test_self_times_fit_inside_cli_main(traced_session):
    _, _, _, docs = traced_session
    for doc in docs:
        layers = tracer.aggregate([doc])
        total_self = sum(row["self_s"] for row in layers.values())
        assert layers["cli.main"]["calls"] == 1
        assert total_self <= layers["cli.main"]["total_s"] * (1 + 1e-9), doc["job"]
