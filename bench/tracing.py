"""Per-layer tracing, installed from outside the package at run time.

``Tracer.installed()`` replaces, for the duration of a ``with`` block:

* the names ``diskvar.harness`` and ``diskvar.cli`` imported from other
  modules, as they bind them (``substream``, ``_schur_tree``, the disk
  constructors, the bounds, ``make_extremal``...);
* each function-tree node class's ``jet``;
* the validators and ``jet_*`` helpers, as ``diskvar.functions`` binds them;
* ``branch_value``, as ``diskvar.extremal`` binds it;
* the harness suite entry points, chunk functions and process-pool map.

Each replacement records a span (name, start, end, parent, call index) and
adds its duration and self time (duration minus child spans) to per-name
totals.  Totals cover every span; the spans themselves are kept in memory
only up to KEEP_SPANS and written out at the end.  Pool workers are forked
with the tracer in place: each chunk traces itself and hands its totals back
to the parent attached to the chunk's result.
"""

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from diskvar import cli, extremal, functions, harness

NODE_CLASSES = (
    functions.Identity,
    functions.Constant,
    functions.Rotation,
    functions.MobiusT,
    functions.Product,
    functions.Compose,
    functions.Bracket,
)

# (module, attribute, layer span name)
_TARGETS = (
    (harness, "substream", "functions.substream"),
    (harness, "_schur_tree", "functions.tree_build"),
    (harness, "schur_parametrize", "functions.tree_build"),
    (harness, "dieudonne_parametrize", "functions.tree_build"),
    (functions, "require_finite", "moebius.validate"),
    (functions, "unit_disk_point", "moebius.validate"),
    (functions, "closed_disk_point", "moebius.validate"),
    (functions, "jet_compose", "moebius.jet_arith"),
    (functions, "jet_div", "moebius.jet_arith"),
    (functions, "jet_mul", "moebius.jet_arith"),
    (functions, "jet_scale", "moebius.jet_arith"),
    (harness, "second_derivative_disk", "disks"),
    (harness, "dieudonne_disk", "disks"),
    (harness, "mercer_disk", "disks"),
    (harness, "schwarz_pick_disk", "disks"),
    (harness, "second_order_dieudonne_disk", "disks"),
    (harness, "max_attaining_alpha", "disks"),
    (harness, "theorem31_bound", "bounds"),
    (extremal, "branch_value", "bounds"),
    (harness, "make_extremal", "extremal.make_extremal"),
    (harness, "branch_bound_for", "extremal.branch_bound_for"),
    (harness, "run_membership_suite", "harness"),
    (harness, "run_attainment_suite", "harness"),
    (harness, "run_tightness_search", "harness"),
    (cli, "second_derivative_disk", "disks"),
    (cli, "dieudonne_disk", "disks"),
    (cli, "mercer_disk", "disks"),
    (cli, "rogosinski_disk", "disks"),
    (cli, "schwarz_pick_disk", "disks"),
    (cli, "second_order_dieudonne_disk", "disks"),
    (cli, "theorem31_bound", "bounds"),
    (cli, "szasz_bound", "bounds"),
    (cli, "ruscheweyh_bound", "bounds"),
    (cli, "bound_comparison_table", "bounds"),
    (cli, "table_to_csv", "bounds"),
    (cli, "make_extremal", "extremal.make_extremal"),
    (cli, "branch_bound_for", "extremal.branch_bound_for"),
) + tuple((cls, "jet", "functions.jet") for cls in NODE_CLASSES)

_CHUNKS = ("_membership_chunk", "_tightness_chunk")
KEEP_SPANS = 20000


class ChunkResult(tuple):
    """A pool chunk's result tuple carrying the worker's span totals."""


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.call_index = None  # index of the benchmark call being traced
        self._reset()

    def _reset(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []
        self.span_count = 0
        self._stack = []  # open spans: [span id, time covered by children]

    def totals(self):
        return {"calls": dict(self.calls), "total_s": dict(self.total_s), "self_s": dict(self.self_s)}

    def merge(self, totals):
        self.calls.update(totals["calls"])
        for key in ("total_s", "self_s"):
            mine = getattr(self, key)
            for name, value in totals[key].items():
                mine[name] += value

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            self.span_count += 1
            frame = [self.span_count, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((frame[0], parent, name, start, end, self.call_index))

        return traced

    def _wrap_chunk(self, fn):
        traced = self.wrap("harness.chunk", fn)

        @functools.wraps(fn)
        def chunk(*args, **kwargs):
            if os.getpid() == self.pid:
                return traced(*args, **kwargs)
            # a forked pool worker: trace this chunk alone and send the totals back
            self._reset()
            result = ChunkResult(traced(*args, **kwargs))
            result.totals = self.totals()
            return result

        return chunk

    def _wrap_map_chunks(self, fn):
        traced = self.wrap("harness.pool", fn)

        @functools.wraps(fn)
        def map_chunks(chunk_fn, n, parallel):
            if not parallel:
                return fn(chunk_fn, n, parallel)
            parts = traced(chunk_fn, n, parallel)
            for part in parts:
                if isinstance(part, ChunkResult):
                    self.merge(part.totals)
            return parts

        return map_chunks

    def _wrap_chunk_ranges(self, fn):
        @functools.wraps(fn)
        def chunk_ranges(n, pieces):
            ranges = fn(n, pieces)
            self.calls["harness.pool.chunk"] += len(ranges)
            return ranges

        return chunk_ranges

    @contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for owner, attr, name in _TARGETS:
                patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
            for attr in _CHUNKS:
                patch(harness, attr, self._wrap_chunk(harness.__dict__[attr]))
            patch(harness, "_map_chunks", self._wrap_map_chunks(harness._map_chunks))
            patch(harness, "_chunk_ranges", self._wrap_chunk_ranges(harness._chunk_ranges))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def layer_metrics(self):
        """Per-layer totals under the benchmark's metric names (counts and seconds)."""
        c, s = self.calls, self.self_s
        node_evals = c["functions.jet"]
        return {
            "functions.substream.calls": c["functions.substream"],
            "functions.substream.self_s": s["functions.substream"],
            "functions.tree_build.calls": c["functions.tree_build"],
            "functions.tree_build.self_s": s["functions.tree_build"],
            "functions.jet.node_evals": node_evals,
            "functions.jet.self_s": s["functions.jet"],
            "functions.jet.ns_per_node": s["functions.jet"] / node_evals * 1e9 if node_evals else 0.0,
            "moebius.validate.calls": c["moebius.validate"],
            "moebius.validate.self_s": s["moebius.validate"],
            "moebius.jet_arith.calls": c["moebius.jet_arith"],
            "moebius.jet_arith.self_s": s["moebius.jet_arith"],
            "disks.calls": c["disks"],
            "disks.self_s": s["disks"],
            "bounds.calls": c["bounds"],
            "bounds.self_s": s["bounds"],
            "extremal.make_extremal.calls": c["extremal.make_extremal"],
            "extremal.make_extremal.self_s": s["extremal.make_extremal"],
            "extremal.branch_bound_for.calls": c["extremal.branch_bound_for"],
            "harness.self_s": s["harness"] + s["harness.chunk"],
            "harness.pool.chunks": c["harness.pool.chunk"],
            "harness.pool.wall_s": self.total_s["harness.pool"],
        }
