"""Span tracing at the turanlab layer boundaries, for the traced benchmark pass.

``Tracer.install()`` replaces each public function listed in ``TARGETS``
with a wrapper wherever that function object is bound: in its defining
module and in every ``turanlab`` module that imported it.  The four host
constructors are traced through their classes' ``__init__`` and
``FieldElement`` arithmetic is counted without spans.  Call sites look the
names up at call time, so the solver's inner calls to
``turanlab.solvers.pattern_through_edge`` go through the wrapper.

A span is ``(id, name, parent id, start ns, end ns, value)``.  ``value`` is
what the span adds to its layer's count: 1 for a pattern hit, the nodes a
solve explored, the edges a build produced, the bytes a dump wrote.  Spans
are appended whole when they end; ``list.append`` and ``next`` on an
``itertools.count`` are atomic under the interpreter lock, so the threads of
``harness.sweep`` can record side by side.  A span's parent is the open span
of the same thread; spans opened by pool threads are roots, and while two
threads share the interpreter lock each span also counts the time the other
thread ran.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, function, span name, value of a result)
TARGETS = (
    ("turanlab.cli", "dispatch", "cli.dispatch", None),
    ("turanlab.solvers", "ex_exact", "solvers.solve", lambda r: r.nodes_explored),
    ("turanlab.solvers", "z_exact", "solvers.solve", lambda r: r.nodes_explored),
    ("turanlab.solvers", "z_expansion_exact", "solvers.solve", lambda r: r.nodes_explored),
    ("turanlab.patterns", "pattern_through_edge", "patterns.through_edge", bool),
    ("turanlab.patterns", "expansion_through_triple", "patterns.through_triple", bool),
    ("turanlab.patterns", "find_in_graph", "patterns.find", None),
    ("turanlab.patterns", "find_ordered_bipartite", "patterns.find", None),
    ("turanlab.patterns", "find_expansion", "patterns.find", None),
    ("turanlab.patterns", "greedy_extend", "patterns.greedy", None),
    ("turanlab.patterns", "heavy_shadow_graph", "patterns.greedy", None),
    ("turanlab.ff", "make_field", "ff.make_field", None),
    ("turanlab.ff", "norm", "ff.norm", None),
    ("turanlab.ff", "norm_preimage_count", "ff.preimage", None),
    ("turanlab.constructions", "norm_graph", "constructions.build", lambda g: g.edge_count),
    ("turanlab.constructions", "bipartite_norm_graph", "constructions.build",
     lambda g: g.edge_count),
    ("turanlab.constructions", "composed_construction", "constructions.build",
     lambda c: c.hypergraph.edge_count),
    ("turanlab.constructions", "norm_ratio_count", "constructions.ratio_count", None),
    ("turanlab.hypergraph", "dumps_canonical", "hypergraph.dumps", len),
    ("turanlab.fullness", "extract_full", "fullness.extract", lambda r: r.deleted_edges),
    ("turanlab.fullness", "is_full", "fullness.is_full", None),
    ("turanlab.harness", "sweep", "harness.sweep", None),
    ("turanlab.harness", "boundedness_scan", "harness.scan", None),
    ("turanlab.harness", "decompose_3graph", "harness.decompose", None),
)

HOST_CLASSES = ("Graph", "BipartiteGraph", "ThreeGraph", "SemibipartiteThreeGraph")
ELEMENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse")

# Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("solvers.calls", "count"),
    ("solvers.nodes", "count"),
    ("solvers.nodes_per_s", "1/s"),
    ("solvers.self_s", "s"),
    ("patterns.through_edge.calls", "count"),
    ("patterns.through_edge.hits", "count"),
    ("patterns.through_edge.s", "s"),
    ("patterns.through_edge.hit_rate", "ratio"),
    ("patterns.through_triple.calls", "count"),
    ("patterns.through_triple.hits", "count"),
    ("patterns.through_triple.s", "s"),
    ("patterns.through_triple.hit_rate", "ratio"),
    ("patterns.find.calls", "count"),
    ("patterns.find.s", "s"),
    ("patterns.greedy.calls", "count"),
    ("patterns.greedy.s", "s"),
    ("ff.make_field.calls", "count"),
    ("ff.make_field.s", "s"),
    ("ff.norm.calls", "count"),
    ("ff.norm.s", "s"),
    ("ff.preimage.calls", "count"),
    ("ff.preimage.s", "s"),
    ("ff.elem_ops", "count"),
    ("constructions.build.calls", "count"),
    ("constructions.build.s", "s"),
    ("constructions.edges", "count"),
    ("constructions.ratio_count.calls", "count"),
    ("constructions.ratio_count.s", "s"),
    ("constructions.self_s", "s"),
    ("hypergraph.build.calls", "count"),
    ("hypergraph.build.s", "s"),
    ("hypergraph.dumps.calls", "count"),
    ("hypergraph.dumps.s", "s"),
    ("hypergraph.dumps.bytes", "bytes"),
    ("fullness.extract.calls", "count"),
    ("fullness.extract.s", "s"),
    ("fullness.is_full.s", "s"),
    ("fullness.deleted_edges", "count"),
    ("harness.scan.cells", "count"),
    ("harness.scan.s", "s"),
    ("harness.ex_calls", "count"),
    ("harness.decompose.s", "s"),
    ("cli.dispatch.calls", "count"),
    ("cli.dispatch.s", "s"),
    ("cli.self_s", "s"),
)


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus what its child spans cover.

    Children of one parent run one after another on the parent's thread,
    so the covered part is the sum of the direct children's durations.
    """
    own = {sid: end - start for sid, _, _, start, end, _ in spans}
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    """Records spans and counts at the turanlab layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.elem_ops = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, value_of):
        nid = self._name_id(name)
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            value = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = int(value_of(result))
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, nid, parent, start, end, value))

        return traced

    def _count(self, fn):
        lock = self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                self.elem_ops += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target wherever it is bound in a loaded turanlab module."""
        for modname, attr, name, value_of in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            traced = self._wrap(original, name, value_of)
            for mod in _turanlab_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)
        hypergraph = importlib.import_module("turanlab.hypergraph")
        for cls_name in HOST_CLASSES:
            cls = getattr(hypergraph, cls_name)
            cls.__init__ = self._wrap(cls.__init__, "hypergraph.build", None)
        element = importlib.import_module("turanlab.ff").FieldElement
        for op in ELEMENT_OPS:
            setattr(element, op, self._count(getattr(element, op)))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and seconds from the recorded spans."""
        own = self_times(self.spans)
        by_id = {s[0]: s for s in self.spans}
        scan_id = self._name_id("harness.scan")
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        selfs: dict[str, float] = {}
        values: dict[str, int] = {}
        ex_calls = 0
        for sid, nid, parent, start, end, value in self.spans:
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start) / 1e9
            selfs[name] = selfs.get(name, 0.0) + own[sid] / 1e9
            values[name] = values.get(name, 0) + value
            if name == "solvers.solve":
                while parent >= 0 and by_id[parent][1] != scan_id:
                    parent = by_id[parent][2]
                ex_calls += parent >= 0

        solve_s = total.get("solvers.solve", 0.0)
        out = {
            "solvers.calls": calls.get("solvers.solve", 0),
            "solvers.nodes": values.get("solvers.solve", 0),
            "solvers.nodes_per_s": values.get("solvers.solve", 0) / solve_s if solve_s else 0.0,
            "solvers.self_s": selfs.get("solvers.solve", 0.0),
            "ff.elem_ops": self.elem_ops,
            "constructions.edges": values.get("constructions.build", 0),
            "constructions.self_s": selfs.get("constructions.build", 0.0)
            + selfs.get("constructions.ratio_count", 0.0),
            "hypergraph.dumps.bytes": values.get("hypergraph.dumps", 0),
            "fullness.is_full.s": total.get("fullness.is_full", 0.0),
            "fullness.deleted_edges": values.get("fullness.extract", 0),
            "harness.scan.cells": calls.get("harness.scan", 0),
            # the scan phase's wall time; its cells run on pool threads
            "harness.scan.s": total.get("harness.sweep", 0.0),
            "harness.ex_calls": ex_calls,
            "harness.decompose.s": total.get("harness.decompose", 0.0),
            "cli.self_s": selfs.get("cli.dispatch", 0.0),
        }
        for name in ("patterns.through_edge", "patterns.through_triple"):
            out[f"{name}.hits"] = values.get(name, 0)
            out[f"{name}.hit_rate"] = values.get(name, 0) / calls[name] if calls.get(name) else 0.0
        for name in ("patterns.through_edge", "patterns.through_triple", "patterns.find",
                     "patterns.greedy", "ff.make_field", "ff.norm", "ff.preimage",
                     "constructions.build", "constructions.ratio_count", "hypergraph.build",
                     "hypergraph.dumps", "fullness.extract", "cli.dispatch"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = total.get(name, 0.0)
        return {key: out[key] for key, _ in LAYER_METRICS}

    def write(self, path) -> None:
        """Write the recorded spans out as JSON, ordered by span id."""
        spans = sorted(self.spans)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start_ns", "end_ns", "value"],
                       "names": self.names, "spans": spans}, fh, separators=(",", ":"))


def _turanlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "turanlab" or name.startswith("turanlab."))]
