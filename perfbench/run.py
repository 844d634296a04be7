"""mvbessel benchmark: replay a fixed session of CLI jobs in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-pool [--record]

Run from the root of a source checkout.  Each job is a fresh
``python -m mvbessel.cli`` child, started only after the previous one ends;
successive sessions cycle through each job's vetted parameter points in an
order drawn by ``--seed``, and every job's stdout is checked against the
pool's golden sha256 and check count.

With ``--trace 0`` the sessions run untraced, each job followed by the
reference task (``reference.py``), and the end-to-end metrics are reported;
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
With ``--trace 1`` untraced and traced sessions alternate; the
per-layer metrics come from the spans of the traced sessions, and
``trace.overhead_ratio`` is traced over untraced session wall time.

The last line of stdout is the result object; the lines before it carry the
run header and one line per job run untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import reference
import tracer

# After each untraced session, this many fresh interpreters import
# ``mvbessel.cli``; spreading them over the run keeps one slow stretch of the
# shared machine from setting the median.
SETUP_SPAWNS_PER_SESSION = 2
RUN_SECONDS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
# An untraced run replays at least this many sessions, so that each job's
# median rests on at least three timings.
MIN_SESSIONS = 3
EXIT_NO_SOURCE = 2
REFERENCE = Path(__file__).resolve().parent / "reference.py"


def check_import(root: Path, env: dict[str, str]) -> None:
    """Confirm that children import ``mvbessel`` from this checkout.  The
    spawn also writes the bytecode cache, so that no timed spawn does."""
    probe = [sys.executable, "-c", "import mvbessel.cli, sys; sys.stdout.write(mvbessel.cli.__file__)"]
    first = subprocess.run(probe, env=env, capture_output=True, check=True, text=True)
    expected = (root / "src" / "mvbessel" / "cli.py").resolve()
    if Path(first.stdout).resolve() != expected:
        raise RuntimeError(f"mvbessel.cli imported from {first.stdout}, expected {expected}")


def import_time(env: dict[str, str], tmp: Path) -> float:
    """Wall time of a fresh interpreter importing ``mvbessel.cli`` and exiting."""
    return jobs.run_child([sys.executable, "-c", "import mvbessel.cli"], env, tmp).wall_s


def reference_time(env: dict[str, str], tmp: Path) -> float:
    """Wall time of one run of the reference task, checked for its output."""
    res = jobs.run_child([sys.executable, str(REFERENCE)], env, tmp)
    if res.returncode != 0 or res.stdout.decode() != reference.EXPECTED:
        raise RuntimeError(f"reference task failed: exit {res.returncode}, stdout {res.stdout!r}")
    return res.wall_s


def run_session(session, env, tmp: Path, traced: bool, ref_times: list[float] | None = None):
    """Run every job of ``session`` once, in order; with ``ref_times``, run
    the reference task after each job and append its wall time there.

    Returns one record per job and, for a traced session, the span files."""
    records, span_docs = [], []
    for job, point in session:
        argv = jobs.build_argv(job, point["params"])
        spans_file = tmp / "spans.json" if traced else None
        res = jobs.run_child(jobs.job_command(argv, spans_file, job.id), env, tmp)
        why = jobs.validate(job, point, res)
        records.append(
            {
                "job": job.id,
                "argv": argv,
                "wall_s": res.wall_s,
                "cpu_s": res.cpu_s,
                "maxrss_mb": res.maxrss_mb,
                "failure": why,
            }
        )
        if traced and res.returncode == 0:
            with open(spans_file) as fh:
                span_docs.append(json.load(fh))
        if ref_times is not None:
            ref_times.append(reference_time(env, tmp))
    return records, span_docs


def job_medians(sessions: list[list[dict]], key: str) -> list[float]:
    """Median of ``key`` for each job, over the sessions of a run.

    Taking the median per job, before summing over the session, keeps a
    slowdown of the shared machine during one job of one session out of the
    result.  The least time would instead depend on whether the run happened
    to catch a fast stretch of the machine (see README.md, Noise)."""
    return [statistics.median(s[i][key] for s in sessions) for i in range(len(sessions[0]))]


def layer_metrics(span_docs: list[dict], sessions: int) -> dict[str, dict]:
    """Per-layer metrics from the traced sessions, per session."""
    out = {}
    for name, row in tracer.aggregate(span_docs).items():
        out[f"{name}.calls"] = {"value": row["calls"] / sessions, "unit": "count"}
        out[f"{name}.total_s"] = {"value": row["total_s"] / sessions, "unit": "s"}
        out[f"{name}.self_s"] = {"value": row["self_s"] / sessions, "unit": "s"}
        if name in tracer.REPEAT_COUNTED:
            ratio = row["repeats"] / row["calls"] if row["calls"] else 0.0
            out[f"{name}.repeat_ratio"] = {"value": ratio, "unit": "ratio"}
    return out


def bench(args, root: Path, tmp: Path) -> int:
    env = jobs.child_env(root)
    pool = jobs.load_pool()
    check_import(root, env)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    plain, traced, span_docs, setup, ref_times = [], [], [], [], []
    start = time.perf_counter()
    min_sessions = 1 if args.trace else MIN_SESSIONS
    while len(plain) < min_sessions or time.perf_counter() - start < args.seconds:
        session = jobs.pick_session(args.workload, args.seed, pool, len(plain))
        plain.append(run_session(session, env, tmp, traced=False, ref_times=None if args.trace else ref_times)[0])
        if args.trace:
            records, docs = run_session(session, env, tmp, traced=True)
            traced.append(records)
            span_docs += docs
        else:
            setup += [import_time(env, tmp) for _ in range(SETUP_SPAWNS_PER_SESSION)]

    all_records = [r for s in plain + traced for r in s]
    failures = [r for r in all_records if r["failure"]]
    wall = job_medians(plain, "wall_s")
    if args.trace:
        metrics = layer_metrics(span_docs, len(traced))
        overhead = sum(job_medians(traced, "wall_s")) / sum(wall)
        header["trace_overhead"] = overhead
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        metrics["process.cpu_s"] = {"value": sum(job_medians(plain, "cpu_s")), "unit": "s"}
    else:
        ref_s = statistics.median(ref_times)
        header.update(wall_s=sum(wall), job_max_s=max(wall), reference_s=ref_s)
        metrics = {
            "wall_ref": {"value": sum(wall) / ref_s, "unit": "ref"},
            "job_max_ref": {"value": max(wall) / ref_s, "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(job_medians(plain, "maxrss_mb")), "unit": "MB"},
        }
    header["sessions"] = len(plain) + len(traced)
    print(json.dumps({"header": header}))
    for i, s in enumerate(plain):
        for r in s:
            print(json.dumps({"job": {"session": i, **r}}))
    for r in failures:
        print(f"failed: {r['job']} {' '.join(r['argv'])}: {r['failure']}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def check_pool(args, root: Path, tmp: Path) -> int:
    """Rerun every pool point.  With ``record``, rewrite the golden check
    counts and digests, refusing (dropping) any point whose job fails."""
    env = jobs.child_env(root)
    pool = jobs.load_pool()
    bad = 0
    for workload in jobs.WORKLOADS.values():
        for job in workload:
            kept = []
            for point in pool[job.id]:
                argv = jobs.build_argv(job, point["params"])
                res = jobs.run_child(jobs.job_command(argv), env, tmp)
                if args.record:
                    count, why = jobs.inspect_output(job, res)
                    if why is None:
                        kept.append(jobs.golden_point(point["params"], count, res.stdout))
                    status = "refused" if why else "ok"
                else:
                    why = jobs.validate(job, point, res)
                    status = "FAIL" if why else "ok"
                    bad += bool(why)
                print(f"{status:8s} {res.wall_s:7.2f}s {job.id} {' '.join(argv)}" + (f": {why}" if why else ""))
            if args.record:
                if not kept:
                    print(f"no admissible point left for {job.id}", file=sys.stderr)
                    return 1
                pool[job.id] = kept
    if args.record:
        with open(jobs.POOL_FILE, "w") as fh:
            json.dump(pool, fh, indent=1)
            fh.write("\n")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-pool", action="store_true", help="rerun every pool point against its golden output")
    ap.add_argument("--record", action="store_true", help="with --check-pool: rewrite the golden outputs")
    args = ap.parse_args()
    if not args.check_pool and not args.workload:
        ap.error("--workload is required")

    root = Path.cwd().resolve()
    if not (root / "src" / "mvbessel" / "cli.py").is_file():
        print(f"error: no mvbessel source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return EXIT_NO_SOURCE
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return check_pool(args, root, tmp) if args.check_pool else bench(args, root, tmp)
    finally:
        shutil.rmtree(tmp)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
