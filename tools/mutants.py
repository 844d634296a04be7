"""A minimal mutation gate: each listed guard of mvbessel must be able to fail.

tools/mutants.json is a list of one-edit mutants.  An entry has "file" (a
path in the checkout), "old" (text that must occur exactly once in that
file), "new" (its replacement) and either "killed_by", the pytest node that
must fail on the mutant, or "equivalent", the reason no test can tell the
mutant from the original; the node named is the fastest test known to kill
it.

The checkout is copied once into a temporary directory, without .git and
caches, and is never written itself.  Every named test first runs on the
unmutated copy, in one pytest call, and must pass, so that a kill is the
mutant's doing.  Then each mutant is written into the copy, its one named
test runs with -x under PYTHONDONTWRITEBYTECODE=1, and the file is put
back.  A mutant is killed only when pytest reports a failed test (exit 1);
a usage or collection error is not a kill.  An equivalent entry is not run,
but its old text is still checked.

Exits 1 on a survivor, on an entry whose old text does not occur exactly
once, on an entry that names neither a test nor a reason, and when a named
test fails unmutated or pytest does not run it; else 0.

    python3 tools/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().with_name("mutants.json")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")


class Refused(Exception):
    """The list or the unmutated copy cannot back a verdict."""


def _pytest(copy: Path, nodes: list[str]) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def _label(entry: dict) -> str:
    return f"{entry['file']}: {entry['old'].strip().splitlines()[0]}"


def check_entries(entries: list, root: Path) -> None:
    """Refused unless each entry names one test or one reason and its old
    text occurs exactly once in its file."""
    for entry in entries:
        if ("killed_by" in entry) == ("equivalent" in entry):
            raise Refused(f"{entry.get('file')}: name either killed_by or equivalent")
        count = (root / entry["file"]).read_text().count(entry["old"])
        if count != 1:
            raise Refused(f"{_label(entry)}: old text occurs {count} times, not once")


def run(entries: list, root: Path = ROOT) -> list[str]:
    """The survivors' labels, after a line per entry on stdout."""
    check_entries(entries, root)
    nodes = sorted({entry["killed_by"] for entry in entries if "killed_by" in entry})
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=IGNORE)
        if nodes and _pytest(copy, nodes) != 0:
            raise Refused("a named test does not pass on the unmutated checkout")
        for entry in entries:
            if "equivalent" in entry:
                print(f"equivalent  {_label(entry)}")
                continue
            path = copy / entry["file"]
            original = path.read_text()
            path.write_text(original.replace(entry["old"], entry["new"]))
            start = time.perf_counter()
            try:
                code = _pytest(copy, [entry["killed_by"]])
            finally:
                path.write_text(original)
            took = time.perf_counter() - start
            if code == 0:
                survivors.append(_label(entry))
                print(f"SURVIVED    {_label(entry)}  ({entry['killed_by']}, {took:.1f} s)")
            elif code == 1:
                print(f"killed      {_label(entry)}  ({entry['killed_by']}, {took:.1f} s)")
            else:
                raise Refused(f"{_label(entry)}: pytest exited {code}, not a test failure")
    return survivors


def main() -> int:
    try:
        survivors = run(json.loads(MUTANTS.read_text()))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print(f"{len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
