"""Span tracing of mvbessel from outside the package.

``install`` replaces each function in ``TRACED`` with a wrapper that records
one span per call: name, start, end and parent span.  Module-level functions
are replaced in every ``mvbessel`` module that bound them by name (``diffops``
imports ``divide_exact`` and ``collect_symmetric`` directly); methods are
replaced on their class.  Spans stay in memory until ``Tracer.dump``.

``aggregate`` turns the spans of one or more jobs into per-function calls,
total time (outermost calls only, so recursion is not counted twice) and
self time (span minus its wrapped children).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# name -> (module, attribute path inside the module)
TRACED: dict[str, tuple[str, str]] = {
    "partitions.partitions_of": ("partitions", "partitions_of"),
    "partitions.partitions_up_to": ("partitions", "partitions_up_to"),
    "polyalg.mul": ("polyalg", "MultiPoly.__mul__"),
    "polyalg.divide_exact": ("polyalg", "divide_exact"),
    "polyalg.collect_symmetric": ("polyalg", "collect_symmetric"),
    "polyalg.simplify": ("polyalg", "FactoredFraction.simplify"),
    "diffops.apply_sutherland_sym": ("diffops", "apply_sutherland_sym"),
    "diffops.apply_bessel_sym": ("diffops", "apply_bessel_sym"),
    "jack.jack_in_monomials": ("jack", "jack_in_monomials"),
    "jack.apply_basic": ("jack", "apply_basic"),
    "jack.sym_to_jack": ("jack", "sym_to_jack"),
    "bessel.bessel_expand": ("bessel", "bessel_expand"),
    "operators.apply_higher": ("operators", "apply_higher"),
    "pieri_norms.pieri_expand": ("pieri_norms", "pieri_expand"),
    "pieri_norms.pieri_verify": ("pieri_norms", "pieri_verify"),
    "orthogonality.inner_product": ("orthogonality", "inner_product"),
    "orthogonality.functional_apply": ("orthogonality", "functional_apply"),
    "jacobi_bc.jacobi_expand": ("jacobi_bc", "jacobi_expand"),
    "cli.main": ("cli", "main"),
}

# Functions whose repeated argument values are counted: cache hits for a
# cached function, recomputation for an uncached one.
REPEAT_COUNTED = ("jack.jack_in_monomials", "bessel.bessel_expand", "operators.apply_higher")

# Span tuple fields.
NAME, START, END, PARENT, NESTED = range(5)


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}
        self.repeats: dict[str, int] = {}

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.depth[idx] = 0
        seen = set() if name in REPEAT_COUNTED else None
        self.repeats.setdefault(name, 0)
        spans, stack, depth, clock = self.spans, self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth[idx] > 0
            stack.append(sid)
            depth[idx] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[idx] -= 1
                stack.pop()
                spans[sid] = (idx, start, end, parent, nested)

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever ``mvbessel`` binds it."""
        modules = {
            short: importlib.import_module(f"mvbessel.{short}")
            for short in {mod for mod, _ in TRACED.values()}
        }
        # Importing ``cli`` loads every module, so all by-name bindings exist.
        loaded = [m for k, m in sys.modules.items() if k == "mvbessel" or k.startswith("mvbessel.")]
        for name, (short, attr) in TRACED.items():
            owner = modules[short]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self.wrap(name, original)
            # A class alias such as ``__rmul__ = __mul__`` is wrapped too.
            for holder in [owner, *loaded] if outer else loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def dump(self, path: str) -> None:
        doc = {
            "job": self.job_id,
            "names": self.names,
            "spans": self.spans,
            "repeats": self.repeats,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def aggregate(docs: list[dict]) -> dict[str, dict[str, float]]:
    """Per-function ``calls``, ``total_s``, ``self_s`` (and ``repeats``)
    summed over the span files ``docs``."""
    out: dict[str, dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "repeats": 0} for name in TRACED
    }
    for doc in docs:
        # A span's id is its index: spans are stored in call order.
        names, spans = doc["names"], doc["spans"]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        for i, s in enumerate(spans):
            row = out[names[s[NAME]]]
            dur = s[END] - s[START]
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            if not s[NESTED]:
                row["total_s"] += dur
        for name, n in doc["repeats"].items():
            out[name]["repeats"] += n
    return out
