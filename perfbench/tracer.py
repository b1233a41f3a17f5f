"""Spans and counts around momentflow's public functions, from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``momentflow`` module that holds a reference to it, so calls made
between modules (``simulate`` -> ``step`` -> ``control_law`` ->
``build_adjacency``) all pass through the wrappers.  ``uninstall`` puts
the originals back.  Nothing under ``src/`` changes.

Per function the tracer keeps the call count, total time and self time
(time minus the time of traced callees).  It also counts caller -> callee
edges and keeps spans (name, parent, start, end) down to ``SPAN_DEPTH``
levels below the benchmark's own operation span; deeper calls are only
aggregated, which keeps memory flat on runs with millions of calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Public functions timed per layer, by module.  These are the layers the
# benchmark reports on; see README.md for which metric each should move.
TRACED = {
    "network": ("build_adjacency", "power_chain", "spectral_moments", "eigenvalues"),
    "gradient": ("control_law", "barrier_gradient", "cost", "barrier",
                 "finite_difference_gradient"),
    "dynamics": ("step", "feasibility_margin", "ensure_feasible", "simulate"),
    "scenarios": ("preset", "target_from_formation", "scenario_violations"),
    "cli": ("scenario_from_dict", "write_trajectory_csv", "build_report", "main"),
}
SPAN_DEPTH = 2
MAX_SPANS = 50_000


def _power_chain_flops(adjacency, max_power) -> int:
    # One dense n x n product per power, 2 n^3 flops each.
    return 2 * adjacency.n**3 * max_power


def _csv_bytes(record, path) -> int:
    return Path(path).stat().st_size


# Work measured from a call's arguments after it returns: (stat name, fn).
WORK = {
    "network.power_chain": ("flops", _power_chain_flops),
    "cli.write_trajectory_csv": ("bytes", _csv_bytes),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.edges = defaultdict(int)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped_spans = 0
        self._next_span = 0
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._patches = None

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> float:
        parent = self._stack[-1] if self._stack else None
        self.edges[(parent[0] if parent else None, name)] += 1
        span_id = -1
        if len(self._stack) <= SPAN_DEPTH:
            if self._next_span < MAX_SPANS:
                span_id = self._next_span
                self._next_span += 1
            else:
                self.dropped_spans += 1
        self._stack.append([name, 0.0, span_id])
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        end = time.perf_counter()
        name, child_s, span_id = self._stack.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child_s
        if self._stack:
            self._stack[-1][1] += elapsed
        if span_id >= 0:
            parent_id = self._stack[-1][2] if self._stack else -1
            self.spans.append((span_id, parent_id, name, start, end))

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one operation."""
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit
        work = WORK.get(name)
        if work is None:
            def traced(*args, **kwargs):
                start = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(start)
        else:
            stat, measure = work

            def traced(*args, **kwargs):
                start = enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(start)
                self.work[f"{name}.{stat}"] += measure(*args, **kwargs)
                return result
        return traced

    def _patch_list(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every traced reference."""
        if self._patches is None:
            self._patches = []
            modules = [m for key, m in list(sys.modules.items())
                       if key == "momentflow" or key.startswith("momentflow.")]
            for module_name, names in TRACED.items():
                home = sys.modules[f"momentflow.{module_name}"]
                for fn_name in names:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, attr, original, wrapper))
        return self._patches

    def install(self) -> None:
        for module, attr, _, wrapper in self._patch_list():
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patch_list():
            setattr(module, attr, original)

    def dump(self) -> dict:
        return {
            "functions": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "work": dict(self.work),
            "edges": [[a, b, n] for (a, b), n in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "span_depth": SPAN_DEPTH,
            "dropped_spans": self.dropped_spans,
            "spans": self.spans,
        }
