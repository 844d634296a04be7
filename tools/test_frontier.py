"""tools/frontier.py on two copies of one source tree, and on a copy whose
stdout was changed on purpose.

Outside tier-1 (pytest's testpaths is tests/); run it with

    python3 -m pytest tools/test_frontier.py -q
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "src"))

import frontier  # noqa: E402
from mvbessel import cli  # noqa: E402

ROW = ["jack", "--n=2", "--kappa=1", "--lambda=2,1"]


def _tree(path: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "mvbessel", path / "src" / "mvbessel", ignore=ignore)
    return path


def _run(tmp_path: Path, parent: Path, change: Path) -> tuple[int, Path, str]:
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([ROW]))
    bench = tmp_path / "BENCH.json"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = frontier.main(
            [str(parent), str(change), "--rows", str(rows), "--pairs", "2", "--bench", str(bench),
             "--parent-commit", "p", "--change-commit", "c"]
        )
    return code, bench, err.getvalue()


def test_two_copies_of_one_tree_are_recorded(tmp_path):
    code, bench, _ = _run(tmp_path, _tree(tmp_path / "a"), _tree(tmp_path / "b"))
    assert code == 0
    section = json.loads(bench.read_text())["frontier"]
    assert {k: section[k] for k in ("parent_commit", "change_commit", "pairs")} == {
        "parent_commit": "p", "change_commit": "c", "pairs": 2,
    }
    assert section["python"] and section["cores"] >= 1
    row = section["rows"][" ".join(ROW)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(ROW) == row["exit"] == 0
    assert row["stdout_sha256"] == hashlib.sha256(out.getvalue().encode()).hexdigest()
    for metric in ("cpu_s", "peak_rss_mb"):
        m = row["metrics"][metric]
        assert len(m["pairs"]) == 2 and m["parent"]["runs"] == m["change"]["runs"] == 2
        assert all(x > 0 for pair in m["pairs"] for x in pair)


def test_a_pair_with_a_changed_stdout_is_refused(tmp_path):
    change = _tree(tmp_path / "b")
    source = change / "src" / "mvbessel" / "cli.py"
    text = source.read_text()
    planted = text.replace("json.dumps(doc, indent=2)", "json.dumps(doc, indent=1)")
    assert planted != text
    source.write_text(planted)
    code, bench, err = _run(tmp_path, _tree(tmp_path / "a"), change)
    assert code == 1
    assert err.startswith("refused: pair 0 of jack")
    assert not bench.exists()
