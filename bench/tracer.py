"""In-memory span tracer installed around the package's public functions.

Modules import each other's functions by name (``cli.mc_exact``,
``randomized.alpha_star``, ``search.largest_mono_component``), so a wrapper
is installed under every module attribute that holds the original function,
not only in the owning module.  Spans (name, start, end, parent, operation
id) stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

# Layers named ``<module>.<function>`` after the module that owns the function.
LAYERS = (
    "search.mc_exact", "search.alpha_star", "search.independence_number",
    "core.validate_steiner", "core.is_steiner", "core.mono_components",
    "core.largest_mono_component", "core.verify_hole",
    "constructions.bose", "constructions.skolem", "constructions.infer_labels",
    "io.read_system", "io.write_system", "io.format_system", "io.parse_system",
    "colorings.bose_coloring", "colorings.skolem_coloring", "colorings.hole_coloring",
    "colorings.decompose_3coloring", "colorings.verify_decomposition",
    "randomized.triangle_removal", "randomized.random_sts",
    "randomized.binomial_3graph", "randomized.linearize",
)
SEARCH_LAYERS = ("search.mc_exact", "search.alpha_star", "search.independence_number")
# Spans opened by the benchmark itself around an in-process CLI command.
CLI_LAYERS = ("cli.analyze", "cli.discrepancy")
CASES = ("L1", "L2", "L3")


class Tracer:
    """Records spans and per-layer counters while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op_id = ""
        self.enabled = False
        self.nodes: dict[str, int] = {}
        self.exact: dict[str, int] = {}
        self.cases: dict[str, int] = {}
        self.stuck = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Keep the benchmark's own correctness checks out of the trace."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _count(self, name: str, result) -> None:
        if name in SEARCH_LAYERS:
            self.nodes[name] = self.nodes.get(name, 0) + result.budget_spent.nodes
            self.exact[name] = self.exact.get(name, 0) + bool(result.exact)
        elif name == "colorings.decompose_3coloring":
            self.cases[result.case] = self.cases.get(result.case, 0) + 1
        elif name == "randomized.triangle_removal":
            self.stuck += result.stuck

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every module-level reference to each layer function."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "stsramsey" or key.startswith("stsramsey.")]
        for name in LAYERS:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"stsramsey.{module}"), func)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for mod, attr, original in self._installed:
            setattr(mod, attr, original)
        self._installed.clear()

    # -- summaries ---------------------------------------------------------

    def reset_counters(self) -> None:
        self.nodes.clear()
        self.exact.clear()
        self.cases.clear()
        self.stuck = 0

    def layer_stats(self, first: int) -> dict[str, dict[str, float]]:
        """Per layer, over the spans from index ``first`` on: calls, inclusive
        busy time, and self time.

        Self time is a span's duration minus the durations of its direct
        children; busy time is the sum of the layer's outermost spans, so a
        function that reaches itself again is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i in range(first, len(spans)):
            name, start, end, parent, _ = spans[i]
            st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                st["busy_s"] += end - start
        return stats

    def dump(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["fields"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
