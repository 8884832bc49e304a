"""In-memory spans and per-operation call aggregates for the traced run.

The benchmark records a span around each call it makes into a layer, and
wraps the module attributes the library's own callers resolve (for example
``amparse.chart.type_combine``), so calls made inside the library are seen
too; no library source changes.  Functions called thousands of times per
operation are aggregated (calls, time, self time, non-None results) per
operation instead of getting a span per call.

Self time is a call's duration minus the time its traced children cover.
It is kept exact under nesting by one running total: each traced call
starts with zero coverage and, on return, adds its whole duration to its
caller's.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module whose attribute is replaced, attribute, traced name, aggregated)
WRAPPED = (
    ("amparse.chart", "type_combine", "types.type_combine", True),
    ("amparse.astar", "type_combine", "types.type_combine", True),
    ("amparse.trees", "type_combine", "types.type_combine", True),
    ("amparse.transitions", "type_combine", "types.type_combine", True),
    ("amparse.transitions", "apply_set", "types.apply_set", True),
    ("amparse.oracles", "apply_set", "types.apply_set", True),
    ("amparse.chart", "top_k_tags", "costs.top_k_tags", True),
    ("amparse.astar", "top_k_tags", "costs.top_k_tags", True),
    ("amparse.transitions", "legal_transitions", "transitions.legal_transitions", True),
    ("amparse.transitions", "apply_transition", "transitions.apply_transition", True),
    ("amparse.oracles", "apply_transition", "transitions.apply_transition", True),
    ("amparse.trees", "graph_apply", "graphs.graph_apply", True),
    ("amparse.trees", "graph_modify", "graphs.graph_modify", True),
    ("amparse.astar", "build_heuristic", "astar.build_heuristic", False),
    ("amparse.transitions", "tree_cost", "costs.tree_cost", False),
    ("amparse.oracles", "check_well_typed", "trees.check_well_typed", False),
)


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or None, op id, covered seconds, aggregates)
        self.spans: list = []
        self.open: list[int] = []
        self.covered = 0.0
        self.op = None
        # name -> [calls, seconds, self seconds, non-None results], for the current op
        self.current: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        outer, self.covered = self.covered, 0.0
        parent = self.open[-1] if self.open else None
        index = len(self.spans)
        self.spans.append(None)
        self.open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.open.pop()
            self.spans[index] = (name, start, end, parent, self.op, self.covered, None)
            self.covered = outer + (end - start)

    def run_op(self, op_id, fn, *args):
        """One operation as a span; the aggregates of its hot calls are attached to it."""
        self.op = op_id
        self.current.clear()
        index = len(self.spans)
        try:
            return self.call("op", fn, *args)
        finally:
            name, start, end, parent, op, covered, _ = self.spans[index]
            aggregates = {k: tuple(v) for k, v in self.current.items()}
            self.spans[index] = (name, start, end, parent, op, covered, aggregates)
            self.op = None

    def add_span(self, name, start, end, op_id) -> None:
        """A call timed elsewhere, with no traced children."""
        self.spans.append((name, start, end, None, op_id, 0.0, None))

    def aggregated(self, name, fn):
        current = self.current

        def wrapped(*args, **kwargs):
            outer, self.covered = self.covered, 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                agg = current[name]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - self.covered
                self.covered = outer + elapsed
            if result is not None:
                agg[3] += 1
            return result

        return wrapped

    def spanned(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def install(self) -> None:
        for module_name, attr, name, aggregate in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, (self.aggregated if aggregate else self.spanned)(name, fn))

    def uninstall(self) -> None:
        while self.saved:
            module, attr, fn = self.saved.pop()
            setattr(module, attr, fn)

    def totals(self) -> dict[str, list]:
        """name -> [calls, seconds, self seconds, non-None results], summed
        over every span and every operation's aggregates."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for name, start, end, _, _, covered, aggregates in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
            for agg_name, (calls, seconds, own, hits) in (aggregates or {}).items():
                row = out[agg_name]
                row[0] += calls
                row[1] += seconds
                row[2] += own
                row[3] += hits
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, covered, aggregates in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent, "op": op,
                    "self_s": end - start - covered, "aggregates": aggregates,
                }) + "\n")
