"""Outside-in tracing of majent's layers.

The tracer replaces names in the namespaces where majent's modules look
them up at call time (``search.run_check`` is bound by import in
``search``, ``lattice.meet`` is looked up on the module by ``properties``)
with wrappers that record a span per call.  Nothing inside ``src/`` changes.
A name that a later refactor removes is skipped, and its layer then reports
zero calls.

Per layer the tracer keeps the call count, the total span time and the part
of it covered by child spans, so self time is total minus children.  The
first ``span_cap`` spans are also kept in memory as (layer, start, end,
depth) and handed to the caller at the end.
"""
from __future__ import annotations

import builtins
import importlib
import sys
import time

#: Spans a run keeps in memory for its trace file.
SPAN_CAP = 4000

#: (module, attribute, layer) for the trial pipeline.
PIPELINE_TARGETS = (
    ("majent.search", "trial_stream", "search.trial_stream"),
    ("majent.search", "sample_simplex", "search.sample_simplex"),
    ("majent.search", "make_distribution", "simplex.make_distribution"),
    ("majent.search", "run_check", "properties.run_check"),
    ("majent.search", "sharma_mittal", "entropy.sharma_mittal"),
    ("majent.properties", "sharma_mittal", "entropy.sharma_mittal"),
    ("majent.lattice", "make_distribution", "simplex.make_distribution"),
    ("majent.lattice", "meet", "lattice.meet"),
    ("majent.lattice", "join", "lattice.join"),
    ("majent.lattice", "pre_join", "lattice.pre_join"),
    ("majent.lattice", "flatten", "lattice.flatten"),
)

#: What ``majent.cli`` calls, bound by import in its namespace.  Wrapping
#: them all leaves argument parsing and output as ``cli.main``'s self time.
CLI_TARGETS = (
    ("majent.cli", "run_check", "properties.run_check"),
    ("majent.cli", "sweep", "search.sweep"),
    ("majent.cli", "parse_sweep_config", "search.parse_sweep_config"),
    ("majent.cli", "verify_paper_counterexamples", "search.verify_paper_counterexamples"),
    ("majent.cli", "parse_distribution", "simplex.parse_distribution"),
    ("majent.cli", "compare", "simplex.compare"),
    ("majent.cli", "sharma_mittal", "entropy.sharma_mittal"),
)

#: Layers whose call counts and self times the benchmark reports per trial.
REPORTED_LAYERS = (
    "search.trial_stream",
    "search.sample_simplex",
    "simplex.make_distribution",
    "lattice.meet",
    "lattice.join",
    "lattice.pre_join",
    "lattice.flatten",
    "entropy.sharma_mittal",
    "properties.run_check",
)


def _needs_repair(pre_join_result) -> bool:
    """Whether a pre-join vector has an ascent, so flatten must average."""
    e = list(getattr(pre_join_result, "entries", pre_join_result))
    return any(a < b for a, b in zip(e, e[1:]))


class Tracer:
    def __init__(self, span_cap: int = 0) -> None:
        self.stats: dict[str, list[int]] = {}  # layer -> [calls, total_ns, child_ns]
        self.repairs = 0
        self.spans: list[tuple[str, int, int, int]] = []
        self._span_cap = span_cap
        self._stack: list[int] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``layer``."""
        stack = self._stack
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            child = stack.pop()
            duration = end - start
            st = self.stats.get(layer)
            if st is None:
                st = self.stats[layer] = [0, 0, 0]
            st[0] += 1
            st[1] += duration
            st[2] += child
            if stack:
                stack[-1] += duration
            if len(self.spans) < self._span_cap:
                self.spans.append((layer, start, end, len(stack)))

    def _wrap(self, layer: str, fn):
        if layer == "lattice.pre_join":

            def wrapper(*args, **kwargs):
                result = self.call(layer, fn, *args, **kwargs)
                mark = time.perf_counter_ns()
                if _needs_repair(result):
                    self.repairs += 1
                if self._stack:  # the check is tracing work, not the parent's
                    self._stack[-1] += time.perf_counter_ns() - mark
                return result

        else:

            def wrapper(*args, **kwargs):
                return self.call(layer, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> None:
        for module_name, attr, layer in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def time_import(self, package: str, layer: str) -> None:
        """Record the first import of ``package``, wherever it happens, as a
        span named ``layer``."""
        original = builtins.__import__

        def hooked(name, globals=None, locals=None, fromlist=(), level=0):
            if level == 0 and name.partition(".")[0] == package and package not in sys.modules:
                return self.call(layer, original, name, globals, locals, fromlist, level)
            return original(name, globals, locals, fromlist, level)

        builtins.__import__ = hooked

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        return {layer: tuple(st) for layer, st in self.stats.items()}


def delta(before: dict, after: dict) -> dict[str, tuple[int, int, int]]:
    """Per-layer (calls, total_ns, self_ns) between two snapshots."""
    out = {}
    for layer, (calls, total, child) in after.items():
        c0, t0, ch0 = before.get(layer, (0, 0, 0))
        out[layer] = (calls - c0, total - t0, (total - child) - (t0 - ch0))
    return out
