"""Import layering: every module imports at top level only.

An import inside a function hides a dependency from the module header and
is how an import cycle between two modules gets papered over.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mvbessel").glob("*.py"))


def test_no_import_inside_a_function():
    assert SOURCES
    nested = [
        f"{path.name}:{node.lineno} in {fn.name}"
        for path in SOURCES
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, nested
