"""Spans around calls into whk's public functions, recorded from outside.

A Tracer replaces each traced function with a wrapper in its own module
and in every other ``whk`` module that imported it by name, so calls made
inside the library are seen too.  Spans are kept in memory as tuples
``(name, start, end, parent, input_id, failed)`` and summarised at the
end: a span's self time is its duration minus the durations of its child
spans, and a name's total time counts only its outermost spans, so
recursion through one name is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced callable.
TRACED = (
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "solve_affine"),
    ("linalg", "invert"),
    ("algebra", "validate_algebra"),
    ("algebra", "jacobson_radical"),
    ("coalgebra", "validate_coalgebra"),
    ("coalgebra", "coradical_filtration"),
    ("coalgebra", "dual_radical_filtration"),
    ("weakhopf", "validate_wha"),
    ("weakhopf", "counital_data"),
    ("weakhopf", "counital_identities"),
    ("weakhopf", "antipode_props"),
    ("weakhopf", "is_quantum_commutative"),
    ("convolution", "convolve"),
    ("convolution", "ef_inverse_solution_space"),
    ("convolution", "ef_inverse_solve"),
    ("convolution", "ef_inverse_via_series"),
    ("actions", "validate_module_algebra"),
    ("actions", "inner_action_from"),
    ("actions", "inner_action_battery"),
    ("smash", "build_smash"),
    ("smash", "right_ht_action"),
    ("smash", "embeddings_check"),
    ("smash", "smash_inner_battery"),
    ("groupoid", "groupoid_algebra"),
    ("fileio", "dumps"),
    ("fileio", "load_path"),
    ("report", "ReportBuilder.record_failure"),
)

RREF = "linalg.rref"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.input_id: str | None = None
        self.rref_cells = 0
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.input_id, failed)

    def _wrapper(self, name: str, fn):
        if name == RREF:
            def wrapper(m, *args, **kwargs):
                self.rref_cells += m.rows * m.cols
                return self.span(name, fn, m, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every TRACED callable wherever whk bound it by name."""
        for module_name, _ in TRACED:
            importlib.import_module(f"whk.{module_name}")
        modules = [m for key, m in list(sys.modules.items()) if key == "whk" or key.startswith("whk.")]
        for module_name, path in TRACED:
            owner = sys.modules[f"whk.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrapper(f"{module_name}.{path}", original)
            self._rebind(owner, attr, wrapper)
            if outer:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        return summarize(self.spans, self.rref_cells)


def summarize(spans: list[tuple], rref_cells: int) -> dict:
    """Per span name: calls, self_s, total_s and failed; plus exact counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0})
    for idx, (name, start, end, parent, _, failed) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[idx]
        row["failed"] += failed
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += end - start
    return {"names": dict(out), "rref_cells": rref_cells}


def merge(summaries: list[dict]) -> dict:
    """Add summaries of separate processes (the CLI children) together."""
    names: dict[str, dict] = {}
    for s in summaries:
        for name, row in s["names"].items():
            acc = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0})
            for key, value in row.items():
                acc[key] += value
    return {"names": names, "rref_cells": sum(s["rref_cells"] for s in summaries)}
