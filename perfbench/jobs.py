"""Workload definitions, the vetted parameter pool, and the job runner.

A job is one ``python -m mvbessel.cli ...`` child process.  Its fixed
arguments (sizes) live in ``WORKLOADS``; the varying parameter point
(``a``, ``kappa`` or ``k1, k2, k3``) comes, in an order drawn by seed,
from the vetted pool in ``pool.json``, which also records each point's
expected check count and the sha256 of its stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "pool.json"
TRACED_CLI = HERE / "traced_cli.py"

# A single job never needs more than a minute on the reference machine; a
# hung child is killed after this and counted as failed.
JOB_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Job:
    id: str
    command: tuple[str, ...]
    fixed: tuple[tuple[str, str], ...]
    flags: tuple[str, ...] = ()

    @property
    def is_verify(self) -> bool:
        return self.command[0] == "verify"


def _job(id: str, command: str, flags: tuple[str, ...] = (), **fixed) -> Job:
    return Job(id, tuple(command.split()), tuple((k, str(v)) for k, v in fixed.items()), flags)


# Sizes are chosen so that one session takes 2 to 4 s on the reference
# machine: a run then replays seven or more sessions within its time budget,
# and each job's median rests on as many timings.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Jack solve and the direct differential oracle.
    "construct": (
        _job("jack-n6-7", "jack", n=6, **{"lambda": "7"}),
        _job("jack-n5-7", "jack", n=5, **{"lambda": "7"}),
        _job("bessel-n5-221", "bessel", ("renormalize",), n=5, **{"lambda": "2,2,1"}),
        _job("eigen-n4-d4", "verify eigen", n=4, **{"max-degree": 4}),
        _job("jacobi-n4-d5", "verify jacobi", n=4, **{"max-degree": 5}),
    ),
    # Pieri expansions through the perturbed-line limit.
    "pieri": (
        _job("pieri-n3-d3-k1", "verify pieri", n=3, kappa=1, **{"max-degree": 3}),
        _job("pieri-n3-d2", "verify pieri", n=3, **{"max-degree": 2}),
    ),
    # Moment inner products and the two-variable functional.
    "gram": (
        _job("gram-n3-d3-k2", "verify gram", n=3, kappa=2, **{"max-degree": 3}),
        _job("gram-n4-d2-k1", "verify gram", n=4, kappa=1, **{"max-degree": 2}),
        _job("moments2-d5", "verify moments2", **{"max-degree": 5}),
    ),
    # The commuting tower D_d.
    "tower": (
        _job("commute-n3-d2-e3", "verify commute", n=3, **{"max-degree": 2, "d-max": 3}),
        _job("commute-n4-d2-e2", "verify commute", n=4, **{"max-degree": 2, "d-max": 2}),
        _job("commute-n2-d3-e4", "verify commute", n=2, **{"max-degree": 3, "d-max": 4}),
    ),
}


def build_argv(job: Job, params: dict[str, str]) -> list[str]:
    """CLI arguments for ``job`` at ``params``.

    Every value is passed as ``--flag=value``: argparse reads a separate
    ``-31/2`` as an option, so ``--a -31/2`` would be refused.
    """
    argv = list(job.command)
    argv += [f"--{k}={v}" for k, v in job.fixed]
    argv += [f"--{k}={v}" for k, v in params.items()]
    argv += [f"--{f}" for f in job.flags]
    return argv


def load_pool(path: Path = POOL_FILE) -> dict[str, list[dict]]:
    with open(path) as fh:
        return json.load(fh)


def pick_session(workload: str, seed: int, pool: dict[str, list[dict]], index: int = 0) -> list[tuple[Job, dict]]:
    """Session ``index`` of a run of ``workload``: each job with one pool point.

    ``seed`` fixes, for each job, the order in which successive sessions cycle
    through the job's pool points.  A run of a few sessions thus meets every
    point, and the work of a run depends little on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    session = []
    for job in WORKLOADS[workload]:
        order = rng.sample(pool[job.id], len(pool[job.id]))
        session.append((job, order[index % len(order)]))
    return session


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Fixed string hashing keeps set and dict layouts, and so timings,
    # the same from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class JobResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(cmd: list[str], env: dict[str, str], tmpdir: Path, timeout: float = JOB_TIMEOUT_S) -> JobResult:
    """Run ``cmd`` to completion and return its exit code, wall time and
    resource usage.  Output goes through files so that the child can be
    reaped with ``wait4``, which gives its own peak RSS and CPU time."""
    out_path, err_path = tmpdir / "stdout", tmpdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def job_command(argv: list[str], spans_file: Path | None = None, job_id: str = "") -> list[str]:
    if spans_file is None:
        return [sys.executable, "-m", "mvbessel.cli", *argv]
    return [sys.executable, str(TRACED_CLI), str(spans_file), job_id, *argv]


def inspect_output(job: Job, res: JobResult) -> tuple[int | None, str | None]:
    """Check count of a job's output, and why it failed (None if it did not).

    A ``verify`` job must report a nonzero number of checks, all passing:
    ``all_pass`` alone is true for an empty suite.
    """
    if res.returncode != 0:
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"exit code {res.returncode}: {' '.join(tail)}"
    try:
        doc = json.loads(res.stdout)
    except ValueError:
        return None, "stdout is not JSON"
    if job.is_verify:
        checks = doc.get("checks")
        if not isinstance(checks, list) or not checks:
            return 0, "verify suite ran no checks"
        if doc.get("all_pass") is not True or any(c.get("status") != "pass" for c in checks):
            return len(checks), "a check failed"
        return len(checks), None
    if job.command[0] == "bessel" and doc.get("eigencheck") != "pass":
        return 0, "bessel eigencheck failed"
    return 0, None


def golden_point(params: dict[str, str], checks: int, stdout: bytes) -> dict:
    return {"params": params, "checks": checks, "sha256": hashlib.sha256(stdout).hexdigest()}


def validate(job: Job, point: dict, res: JobResult) -> str | None:
    """Why ``res`` is not the golden output of ``job`` at ``point`` (None if it is)."""
    count, why = inspect_output(job, res)
    if why:
        return why
    if count != point["checks"]:
        return f"{count} checks, expected {point['checks']}"
    if hashlib.sha256(res.stdout).hexdigest() != point["sha256"]:
        return "stdout differs from the golden digest"
    return None
