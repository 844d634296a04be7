"""A/B timing of the mvbessel CLI's frontier rows on two source trees.

Each pair runs every row once per tree, each run in a fresh interpreter
under PYTHONDONTWRITEBYTECODE=1 and PYTHONHASHSEED=0, and alternates which
tree goes first (the parent at an even pair index).  The child puts
time.process_time() around mvbessel.cli.main, reports that CPU time and its
own peak RSS on its last stderr line, and exits with main's code; this
script takes the sha256 of its stdout.  The peak RSS is VmHWM from
/proc/self/status: a spawned child's ru_maxrss starts at the high-water RSS
of its parent, so it cannot see a run smaller than this script.  The child
imports nothing that the CLI does not, so its VmHWM is the run's (hashlib
alone would add about 4 MB).  A pair whose two runs differ in exit code or
stdout digest is refused: the script stops with exit 1 and records
nothing, so no timing of changed output is ever written.

For each row it prints the median and quartiles of each side's CPU time and
peak RSS and the pairs the change wins (uses less); --bench writes them as
the "frontier" section of a BENCH_*.json record, creating the file or
keeping its other sections.  Linux only: the child reads /proc/self/status.

    python3 tools/frontier.py PARENT CHANGE             # rows of tools/frontier_rows.json, 5 pairs
    python3 tools/frontier.py PARENT CHANGE --pairs 10 --rows rows.json
    python3 tools/frontier.py PARENT CHANGE --bench BENCH_40.json --parent-commit SHA --change-commit SHA

PARENT and CHANGE are source trees, each with src/mvbessel (a `git archive`
of the parent commit and the checkout, say).  A rows file is a JSON list of
argv lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROWS = Path(__file__).resolve().with_name("frontier_rows.json")
SIDES = ("parent", "change")
METRICS = {"cpu_s": "s", "peak_rss_mb": "MB"}

CHILD = """
import os, sys, time
src = sys.argv[1]
sys.path.insert(0, src)
from mvbessel import cli
if not cli.__file__.startswith(os.path.join(src, "")):
    sys.exit(f"mvbessel.cli loaded from {cli.__file__}, not from {src}")
start = time.process_time()
code = cli.main(sys.argv[2:])
cpu = time.process_time() - start
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print("frontier:", cpu, hwm_kb, file=sys.stderr)
sys.exit(code)
"""


class Refused(Exception):
    """The two runs of a pair differ in exit code or stdout digest."""


def run_once(tree: Path, argv: list[str]) -> dict:
    """One fresh-interpreter run of cli.main(argv) on the tree's src."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    child = [sys.executable, "-c", CHILD, str(tree.resolve() / "src"), *argv]
    proc = subprocess.run(child, cwd=tree, env=env, capture_output=True)
    *_, last = proc.stderr.decode().splitlines() or [""]
    if not last.startswith("frontier: "):
        raise RuntimeError(f"{' '.join(argv)} on {tree} failed:\n{proc.stderr.decode()}")
    cpu, hwm_kb = last.split()[1:]
    return {
        "exit": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "cpu_s": float(cpu),
        "peak_rss_mb": int(hwm_kb) / 1024,
    }


def measure(trees: dict, rows: list, pairs: int) -> dict:
    """{row: {side: [run, ...]}} over the pairs; Refused on a differing pair."""
    runs = {" ".join(argv): {side: [] for side in SIDES} for argv in rows}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for argv in rows:
            name = " ".join(argv)
            got = {side: run_once(trees[side], argv) for side in order}
            seen = {side: (got[side]["exit"], got[side]["stdout_sha256"]) for side in SIDES}
            if seen["parent"] != seen["change"]:
                raise Refused(f"pair {pair} of {name}: (exit, stdout sha256) {seen}")
            for side in SIDES:
                runs[name][side].append(got[side])
    return runs


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    stats = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    return {**{k: round(v, 5) for k, v in stats.items()}, "runs": len(values)}


def summarize(runs: dict) -> dict:
    rows = {}
    for name, sides in runs.items():
        first = sides["parent"][0]
        row = {"exit": first["exit"], "stdout_sha256": first["stdout_sha256"], "metrics": {}}
        for metric, unit in METRICS.items():
            pairs = [[round(run[metric], 5) for run in pair] for pair in zip(sides["parent"], sides["change"])]
            parent, change = (spread([pair[k] for pair in pairs]) for k in (0, 1))
            row["metrics"][metric] = {
                "unit": unit,
                "parent": parent,
                "change": change,
                "change_wins": sum(c < p for p, c in pairs),
                "ratio_of_medians": round(change["median"] / parent["median"], 4),
                "pairs": pairs,
            }
        rows[name] = row
    return rows


def report(rows: dict) -> str:
    lines = []
    for name, row in rows.items():
        lines.append(f"{name}  (exit {row['exit']}, stdout {row['stdout_sha256'][:12]})")
        for metric, m in row["metrics"].items():
            p, c = m["parent"], m["change"]
            lines.append(
                f"  {metric:12} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
                f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
                f"  wins {m['change_wins']}/{len(m['pairs'])}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--rows", type=Path, default=ROWS, help="JSON list of argv lists")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--bench", type=Path, metavar="PATH", help="write the result as a section of this file")
    ap.add_argument("--parent-commit", default="unknown")
    ap.add_argument("--change-commit", default="unknown")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    rows = json.loads(args.rows.read_text())
    try:
        runs = measure({"parent": args.parent, "change": args.change}, rows, args.pairs)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs)
    print(report(summary))
    if args.bench:
        doc = json.loads(args.bench.read_text()) if args.bench.exists() else {}
        doc["frontier"] = {
            "command": "python3 tools/frontier.py PARENT CHANGE --pairs N: CPU of cli.main and VmHWM per "
            "fresh interpreter, PYTHONDONTWRITEBYTECODE=1, PYTHONHASHSEED=0, the parent first at even pair index",
            "quartiles": "statistics.quantiles(runs, n=4, method='inclusive'); iqr = q3 - q1",
            "parent_commit": args.parent_commit,
            "change_commit": args.change_commit,
            "python": platform.python_version(),
            "cores": len(os.sched_getaffinity(0)),
            "pairs": args.pairs,
            "rows": summary,
        }
        args.bench.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
