"""Source layout rules checked on the syntax tree of every module.

Every module imports at top level only: an import inside a function hides
a dependency from the module header and is how an import cycle between two
modules gets papered over.  Every cache is bounded: each use of
functools.lru_cache names an explicit, finite maxsize, and the unbounded
functools.cache is not used.  The direct differential operators in diffops
are the oracle that the Jack, operators and bessel routes are checked
against, so diffops imports from no package module but polyalg.
The one exact-limit mechanism, Affine and limit_at_zero, is defined in
polyalg alone, and jack, which evaluates its closed products with it,
imports from no package module but errors, partitions and polyalg.
Every S_n orbit of exponents comes from the one cached table,
polyalg.orbit, so no other function enumerates permutations.
Every CLI call is a fresh interpreter, so the CLI's import path stays light:
importing mvbessel.cli loads neither dataclasses nor typing, nor the
inspect, ast, dis and tokenize modules that dataclasses drags in.
Immutability has one implementation: partitions.FrozenRecord alone
defines __setattr__, __delattr__ and __reduce__, and every value type
derives from it.  Every scalar a function coerces goes through
polyalg.rational, which refuses a float, so no Fraction(x) of one bare
name is left anywhere else.
Putting rationals over their common denominator has one implementation,
polyalg.common_denominator: no other function takes the lcm of a starred
list of denominators or scales a numerator by d // denominator.
No cached value can fill itself on read: no class in src/ subclasses
dict or defines __missing__, so a read of a cached mapping returns what
was built or raises KeyError.
The span tracer of perfbench/tracer.py wraps each function it names
where the module or class defines it, in that owner's own __dict__, so
every name it traces stays defined there and not on a base class.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted((SRC / "mvbessel").glob("*.py"))


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


def _package_imports(module: str) -> set:
    """The package modules that module imports, by relative or absolute name."""
    path = next(p for p in SOURCES if p.name == f"{module}.py")
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            used |= {node.module} if node.module else {x.name for x in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [x.name for x in node.names]
            used |= {name for name in names if name.split(".")[0] == "mvbessel"}
    return used


def test_diffops_imports_only_polyalg():
    used = _package_imports("diffops")
    assert used == {"polyalg"}, used


def test_jack_imports_only_errors_partitions_and_polyalg():
    used = _package_imports("jack")
    assert used <= {"errors", "partitions", "polyalg"}, used


def test_the_exact_limit_is_defined_only_in_polyalg():
    defined = sorted(
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in ("Affine", "limit_at_zero")
    )
    assert defined == [("polyalg.py", "Affine"), ("polyalg.py", "limit_at_zero")], defined


def test_only_polyalg_orbit_enumerates_permutations():
    users = sorted(
        {
            (path.name, fn.name)
            for path in SOURCES
            for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if "permutations" in (getattr(node, "id", None), getattr(node, "attr", None))
        }
    )
    assert users == [("polyalg.py", "orbit")], users


def _trees() -> list:
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in SOURCES]


def test_only_the_one_value_base_refuses_edits_and_pickles():
    hooks = ("__delattr__", "__reduce__", "__setattr__")
    in_classes = sorted(
        (name, cls.name, node.name)
        for name, tree in _trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in hooks
    )
    anywhere = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in hooks
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in hooks
    ]
    assert in_classes == [("partitions.py", "FrozenRecord", hook) for hook in hooks], in_classes
    assert len(anywhere) == len(hooks), anywhere


def test_every_value_type_derives_from_the_one_base():
    base = importlib.import_module("mvbessel.partitions").FrozenRecord
    values = {
        "partitions": ["Partition"],
        "polyalg": ["SparseVector", "SymPoly", "MultiPoly", "Affine"],
        "jack": ["JackExpansion"],
        "bessel": ["BesselParams"],
        "jacobi_bc": ["JacobiParams"],
        "orthogonality": ["MomentTable2"],
    }
    loose = [
        f"{module}.{name}"
        for module, names in values.items()
        for name in names
        if not issubclass(getattr(importlib.import_module(f"mvbessel.{module}"), name), base)
    ]
    assert not loose, loose


def test_scalars_are_coerced_only_through_rational():
    trees = _trees()
    rational = next(
        node
        for node in dict(trees)["polyalg.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "rational"
    )
    bare = [
        (name, node.lineno)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Fraction"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Name)
    ]
    outside = [
        f"{name}:{line}"
        for name, line in bare
        if name != "polyalg.py" or not rational.lineno <= line <= rational.end_lineno
    ]
    assert len(bare) == 1 and not outside, outside


def test_only_the_primitive_takes_a_common_denominator():
    trees = _trees()
    primitive = next(
        node
        for node in dict(trees)["polyalg.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "common_denominator"
    )
    lcms = [
        (name, node.lineno)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "lcm" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and any(isinstance(arg, ast.Starred) for arg in node.args)
    ]
    # x.numerator * (d // x.denominator)
    scalings = [
        (name, node.lineno)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and getattr(node.left, "attr", None) == "numerator"
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.FloorDiv)
        and getattr(node.right.right, "attr", None) == "denominator"
    ]
    outside = [
        f"{name}:{line}"
        for name, line in lcms + scalings
        if name != "polyalg.py" or not primitive.lineno <= line <= primitive.end_lineno
    ]
    assert len(lcms) == len(scalings) == 1 and not outside, outside


def test_no_mapping_fills_itself_on_read():
    self_filling = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dict" in (getattr(base, "id", None), getattr(base, "attr", None)) for base in node.bases)
    ]
    self_filling += [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__missing__"
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "__missing__"
    ]
    assert not self_filling, self_filling


def _finite_maxsize(call: ast.Call) -> bool:
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return (
        len(sizes) == 1
        and isinstance(sizes[0], ast.Constant)
        and type(sizes[0].value) is int
        and sizes[0].value > 0
    )


def _names_a_cache(node: ast.AST) -> bool:
    """Whether node is lru_cache, functools.lru_cache or functools.cache."""
    if isinstance(node, ast.Name):
        return node.id == "lru_cache"
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("lru_cache", "cache")
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def test_every_cache_is_bounded():
    caches, unbounded = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [f"{path.name}:{node.lineno}" for x in node.names if x.name == "cache"]
            if not _names_a_cache(node):
                continue
            caches.append(f"{path.name}:{node.lineno}")
            call = calls.get(id(node))
            if getattr(node, "attr", None) == "cache" or call is None or not _finite_maxsize(call):
                unbounded.append(caches[-1])
    assert caches
    assert not unbounded, unbounded


def test_the_cli_import_path_leaves_out_heavy_modules():
    # -S keeps site from preloading modules the package never asks for
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    probe = f"import sys, mvbessel.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n", run.stdout


def test_every_traced_function_is_in_its_owners_own_namespace():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED"
    )
    assert traced
    unresolved = []
    for short, attr in traced.values():
        owner = importlib.import_module(f"mvbessel.{short}")
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if not callable(vars(owner).get(leaf)):
            unresolved.append(f"{short}.{attr}")
    assert not unresolved, unresolved
