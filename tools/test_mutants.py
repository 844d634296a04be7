"""tools/mutants.py on one-entry lists: a mutant that its test kills, one
that survives, and one whose old text is not in its file.

Outside tier-1 (pytest's testpaths is tests/); run it with

    python3 -m pytest tools/test_mutants.py -q
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402

FILE = "src/mvbessel/polyalg.py"
TEST = "tests/test_polyalg.py::test_rat_parsing"
# rat_str's separator, which test_rat_parsing reads
KILLED = {"file": FILE, "old": 'f"{x.numerator}/{x.denominator}"', "new": 'f"{x.numerator}:{x.denominator}"'}
# rat_str's docstring, which no test reads
SURVIVES = {"file": FILE, "old": "Serialize a rational as", "new": "Write a rational as"}


def _run(tmp_path: Path, monkeypatch, entries: list) -> tuple[int, str, str]:
    listed = tmp_path / "mutants.json"
    listed.write_text(json.dumps(entries))
    monkeypatch.setattr(mutants, "MUTANTS", listed)
    before = hashlib.sha256((ROOT / FILE).read_bytes()).hexdigest()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mutants.main()
    assert hashlib.sha256((ROOT / FILE).read_bytes()).hexdigest() == before
    return code, out.getvalue(), err.getvalue()


def test_a_killed_mutant_passes(tmp_path, monkeypatch):
    code, out, _ = _run(tmp_path, monkeypatch, [{**KILLED, "killed_by": TEST}])
    assert code == 0
    assert out.startswith("killed ") and out.endswith("0 survived\n")


def test_a_surviving_mutant_exits_1(tmp_path, monkeypatch):
    code, out, _ = _run(tmp_path, monkeypatch, [{**SURVIVES, "killed_by": TEST}])
    assert code == 1
    assert out.startswith("SURVIVED ") and out.endswith("1 survived\n")


def test_an_equivalent_mutant_is_not_run(tmp_path, monkeypatch):
    code, out, _ = _run(tmp_path, monkeypatch, [{**SURVIVES, "equivalent": "a docstring"}])
    assert code == 0 and out.startswith("equivalent ")


def test_old_text_must_occur_exactly_once(tmp_path, monkeypatch):
    for old in ("no such text", "return"):
        code, out, err = _run(tmp_path, monkeypatch, [{**KILLED, "old": old, "killed_by": TEST}])
        assert code == 1 and not out
        assert err.startswith("refused: ") and "not once" in err


def test_an_entry_names_a_test_or_a_reason(tmp_path, monkeypatch):
    for extra in ({}, {"killed_by": TEST, "equivalent": "both"}):
        code, _, err = _run(tmp_path, monkeypatch, [{**KILLED, **extra}])
        assert code == 1 and "either killed_by or equivalent" in err


def test_a_named_test_must_pass_unmutated(tmp_path, monkeypatch):
    code, _, err = _run(tmp_path, monkeypatch, [{**KILLED, "killed_by": "tests/test_polyalg.py::no_such_test"}])
    assert code == 1 and "unmutated" in err
