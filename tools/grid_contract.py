"""The argv-grid contract of the mvbessel CLI: exit codes and output over four grids.

Runs mvbessel.cli.main in process over four grids of argv, with R = {0, ±1,
±2, ±1/2, ±3/2, ±1/3, -2/3, -3, -5/2, -4/3}:

- bessel: `bessel` for 9 shapes of degree <= 4, plus `verify eigen
  --max-degree=3`, over n <= 3, kappa in R and a in R and -20 (7,200 argv);
- jacobi: `verify jacobi --max-degree=3` over n <= 3 and k1, k2, k3 in R
  (10,125 argv);
- pieri: `verify pieri --max-degree=2` over n <= 3, kappa in R and a in R
  and -20 (720 argv), which reaches the Affine factor limits and their
  pole exits;
- moments: `verify gram` for --max-degree 1 and 2 over n <= 3, kappa in
  {0, 1, 2} and a in R and ten more negative points A (450 argv), plus
  `verify moments2 --max-degree=3` over kappa in R and a in R and -20 (240
  argv), which reach the weighted moments and the two-variable functional.

Each grid is reduced to one sha256 over (argv, exit code, stdout sha256,
stderr text before the first ':') and the count of each exit code, and both
are compared with the recorded tools/grid_contract.json.

    python3 tools/grid_contract.py                   # compare; exit 1 on a difference
    python3 tools/grid_contract.py --record          # rewrite the recorded file
    python3 tools/grid_contract.py --table rows.tsv  # also write one row per argv
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mvbessel import cli  # noqa: E402

RECORD = ROOT / "tools" / "grid_contract.json"
R = ["0", "1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2", "1/3", "-1/3", "-2/3", "-3", "-5/2", "-4/3"]
A = ["-20", "-31/2", "-41/3", "-52/3", "-27/2", "-33/2", "-40", "-81/2", "-7", "-15/2"]
SHAPES = ["", "1", "2", "1,1", "3", "2,1", "1,1,1", "2,2", "4"]


def bessel_grid():
    commands = [["bessel", f"--lambda={shape}"] for shape in SHAPES]
    commands.append(["verify", "eigen", "--max-degree=3"])
    for n, kappa, a, command in itertools.product((1, 2, 3), R, R + ["-20"], commands):
        yield command + [f"--n={n}", f"--kappa={kappa}", f"--a={a}"]


def jacobi_grid():
    for n, k1, k2, k3 in itertools.product((1, 2, 3), R, R, R):
        yield ["verify", "jacobi", "--max-degree=3", f"--n={n}", f"--k1={k1}", f"--k2={k2}", f"--k3={k3}"]


def pieri_grid():
    for n, kappa, a in itertools.product((1, 2, 3), R, R + ["-20"]):
        yield ["verify", "pieri", "--max-degree=2", f"--n={n}", f"--kappa={kappa}", f"--a={a}"]


def moments_grid():
    for degree, n, kappa, a in itertools.product((1, 2), (1, 2, 3), ("0", "1", "2"), R + A):
        yield ["verify", "gram", f"--max-degree={degree}", f"--n={n}", f"--kappa={kappa}", f"--a={a}"]
    for kappa, a in itertools.product(R, R + ["-20"]):
        yield ["verify", "moments2", "--max-degree=3", f"--kappa={kappa}", f"--a={a}"]


GRIDS = {"bessel": bessel_grid, "jacobi": jacobi_grid, "pieri": pieri_grid, "moments": moments_grid}


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout sha256, stderr text before the first ':') of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue().split(":", 1)[0]


def summarize(grid, rows: list) -> dict:
    digest = hashlib.sha256()
    exits: Counter = Counter()
    for argv in grid():
        row = (" ".join(argv), *run(argv))
        digest.update(json.dumps(row).encode() + b"\n")
        exits[row[1]] += 1
        rows.append(row)
    return {"argv": sum(exits.values()), "sha256": digest.hexdigest(), "exits": {str(k): v for k, v in sorted(exits.items())}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true", help="rewrite tools/grid_contract.json")
    ap.add_argument("--table", metavar="PATH", help="write one tab-separated row per argv")
    args = ap.parse_args(argv)
    rows: list = []
    result = {name: summarize(grid, rows) for name, grid in GRIDS.items()}
    if args.table:
        Path(args.table).write_text("".join("\t".join(map(str, row)) + "\n" for row in rows))
    if args.record:
        RECORD.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result))
        return 0
    recorded = json.loads(RECORD.read_text())
    for name, summary in result.items():
        status = "ok" if summary == recorded.get(name) else "DIFFERS"
        print(f"{name}: {status} {json.dumps(summary)}")
    return 0 if result == recorded else 1


if __name__ == "__main__":
    sys.exit(main())
