"""Spans recorded from outside the program, around its public calls.

:func:`install` replaces each call named in :data:`LAYERS` with a
wrapper that records a span: name, start, end, parent span, the request
(cell, session or instance) it served, and its self time.  Self time is
the span's duration minus the time its direct children took, kept on a
per-thread stack while the span is open; spans on one thread nest, so
nested and back-to-back children are both subtracted exactly once.

Spans live in one flat ``array`` (seven 64-bit fields each) and are only
turned into tables or Chrome trace-event JSON after the run.

Each layer span gives ``<span>.calls`` and ``<span>.self_pct`` (self time
as a share of the traced wall; the report also prints milliseconds).
What each layer metric should move, and on which workload:

=======================  ==============================  =================
layer metrics            end-to-end metric it moves      workload
=======================  ==============================  =================
graph.expand,            ops_per_s, latency_p50_ms       table1-lep (none
semantics.post,          (on-the-fly cells:              on serve)
semantics.delay_closure  ``table1.otf_s`` in the report)
semantics.pred,          same (exhaustive cells:         table1-lep
game.predt, solver.*     ``table1.exhaustive_s``)
dbm.constrained,         ops_per_s, latency_p50_ms       table1-lep
dbm.extrapolate,
dbm.minimal_key,
dbm.closures, stack.*,
federation.zones.*
semantics.estimate,      ops_per_s (instances/s)         fuzz-campaign (none
estimate.*, warm hits                                    on serve)
game.decide,             ops_per_s, latency_p50_ms       serve-smartlight
dbm.contains,            (``serve.reply_*`` in the       (none on table1)
testing.*                report)
server.wire.*,           ops_per_s, reply tail           serve-smartlight
server.frames_per_session
server.busy_share.*      session latency tail: rises     serve-smartlight
                         as busy share nears 1
par.*, gen.check.*       ops_per_s (instances/s)         fuzz-campaign
loadgen.busy_share       none: a lagging generator       serve-smartlight
                         makes a run invalid
trace.overhead           none                            all
=======================  ==============================  =================
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import json
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: layer span -> ``(module, class or None, attribute)`` wrapped for it.
#: Module-level functions are wrapped where their caller looks them up.
LAYERS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "graph.expand": [("repro.graph.explorer", "SimulationGraph", "expand")],
    "semantics.post": [("repro.semantics.system", "System", "post")],
    "semantics.delay_closure": [
        ("repro.semantics.system", "System", "delay_closure")
    ],
    "semantics.pred": [("repro.semantics.system", "System", "pred")],
    "semantics.estimate": [
        ("repro.semantics.compose", "StateEstimate", name)
        for name in ("observe", "observe_move", "advance", "max_quiescence")
    ],
    "game.predt": [("repro.game.solver", None, "predt_mixed")],
    "game.decide": [("repro.game.strategy", "DecisionEngine", "decide")],
    "dbm.constrained": [("repro.dbm.dbm", "DBM", "constrained")],
    "dbm.extrapolate": [("repro.dbm.dbm", "DBM", "extrapolate")],
    "dbm.minimal_key": [("repro.dbm.dbm", "DBM", "minimal_key")],
    "dbm.contains": [
        ("repro.dbm.dbm", "DBM", "contains"),
        ("repro.dbm.federation", "Federation", "contains"),
    ],
    "testing.session.step": [
        ("repro.testing.session", "TestSession", name)
        for name in ("start", "on_input_result", "on_output", "on_elapsed")
    ],
    "testing.monitor": [
        ("repro.testing.tioco", "SpecMonitorBase", "advance"),
        ("repro.testing.tioco", "SpecMonitorBase", "max_quiescence"),
        ("repro.testing.tioco", "TiocoMonitor", "observe"),
        ("repro.testing.rtioco", "RelativizedMonitor", "observe_move"),
        ("repro.testing.rtioco", "RelativizedMonitor", "observe_output"),
    ],
    "server.wire.encode": [("repro.server.server", None, "encode_frame")],
    "server.wire.decode": [("repro.server.server", None, "decode_frame")],
}

#: The eight differential checks, each a layer span of its own.
CHECK_NAMES = (
    "solvers", "semantics", "conformance", "composition",
    "estimate", "warmstart", "kernel", "faults",
)

#: Spans that start a request of their own: a session step serves the
#: session it steps, whichever connection's turn it is.
REQUEST_ROOTS = {"testing.session.step": lambda args: id(args[0])}

LAYER_NAMES = tuple(LAYERS) + tuple(f"gen.check.{c}" for c in CHECK_NAMES)

_FIELDS = 7  # sid, name id, start, end, parent sid, self ns, request


class Tracer:
    """In-memory span store; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.records = array("q")
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self, fn: Callable, name: str, request: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call.

        A span serves its parent's request, or the one ``request`` maps
        the call's positional arguments to.
        """
        nid = self._name_id(name)
        clock, ids, local, lock = self.clock, self._ids, self._local, self._lock
        records = self.records

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if request is not None:
                req = request(args)
            else:
                req = parent[2] if parent is not None else 0
            # One open span: [sid, child ns, request]; children add
            # their duration to the child ns of their parent.
            frame = [next(ids), 0, req]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                with lock:
                    records.extend((
                        frame[0], nid, start, end,
                        parent[0] if parent is not None else -1,
                        end - start - frame[1], req,
                    ))

        traced.__wrapped__ = fn
        return traced

    def patch(
        self, owner, attr: str, name: str, request: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`restore`."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # patch where it is defined
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, request))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, table: dict, key: str, name: str) -> None:
        """Replace ``table[key]`` by its traced form until :meth:`restore`."""
        original = table[key]
        table[key] = self.wrap(original, name)
        self._undo.append(lambda: table.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def span(self, name: str, request: int, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of request ``request``."""
        return self.wrap(fn, name, lambda _args: request)(*args)

    def dump(self, exported: Dict[str, Dict]) -> Dict[str, object]:
        """Spans plus a counter export, for another process to load."""
        return {"names": list(self.names), "records": self.records.tobytes(),
                "counters": exported}

    @classmethod
    def from_dump(cls, dumped: Dict[str, object]) -> "Tracer":
        tracer = cls()
        tracer.names = list(dumped["names"])
        tracer.records.frombytes(dumped["records"])
        return tracer

    # ------------------------------------------------------------------

    def spans(self):
        """Every recorded span as ``(name, start, end, parent, self, req)``."""
        r = self.records
        for i in range(0, len(r), _FIELDS):
            yield (self.names[r[i + 1]], r[i + 2], r[i + 3], r[i + 4],
                   r[i + 5], r[i + 6])

    def table(
        self, window: Optional[Tuple[int, int]] = None
    ) -> Dict[str, Dict[str, int]]:
        """Per span name: ``calls`` and ``self_ns``.

        With ``window``, only spans that start inside it count.
        """
        out: Dict[str, Dict[str, int]] = {}
        for name, start, _end, _parent, own, _req in self.spans():
            if window is not None and not window[0] <= start < window[1]:
                continue
            row = out.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += own
        return out

    def durations(self, names) -> Dict[str, List[int]]:
        """Durations (ns) of the spans of each of ``names``."""
        out: Dict[str, List[int]] = {name: [] for name in names}
        for name, start, end, *_ in self.spans():
            if name in out:
                out[name].append(end - start)
        return out

    def write_chrome(self, path: str, limit: int = 100_000) -> int:
        """Chrome trace-event JSON of the first ``limit`` spans by start.

        Returns the number of spans left out.  Opens in Perfetto.
        """
        kept = heapq.nsmallest(limit, self.spans(), key=lambda s: s[1])
        total = len(self.records) // _FIELDS
        origin = kept[0][1] if kept else 0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {"request": req, "self_us": own / 1000.0},
            }
            for name, start, end, _parent, own, req in kept
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": total - len(kept)}},
                      fh)
        return total - len(kept)


def install(tracer: Tracer) -> None:
    """Wrap every layer call of :data:`LAYERS` and the eight checks."""
    for name, targets in LAYERS.items():
        for module_name, cls, attr in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls) if cls else module
            tracer.patch(owner, attr, name, REQUEST_ROOTS.get(name))
    checks = importlib.import_module("repro.gen.differential").CHECKS
    for check in CHECK_NAMES:
        tracer.patch_item(checks, check, f"gen.check.{check}")


def layer_report(
    table: Dict[str, Dict], wall_ns: int
) -> Tuple[List[str], Dict[str, Tuple[float, str]]]:
    """Rendered rows and metrics of a per-layer breakdown.

    Layer self times plus ``unattributed`` add up to ``wall_ns``; request
    root spans are not layers, so their self time is unattributed.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    lines = [f"  {'layer':28s} {'calls':>9s} {'self_ms':>10s} {'share':>7s}"]
    attributed = 0
    for name in LAYER_NAMES:
        row = table.get(name, {"calls": 0, "self_ns": 0})
        attributed += row["self_ns"]
        pct = 100.0 * row["self_ns"] / wall_ns if wall_ns else 0.0
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_pct"] = (pct, "%")
        if row["calls"]:
            lines.append(f"  {name:28s} {row['calls']:9d} "
                         f"{row['self_ns'] / 1e6:10.1f} {pct:6.1f}%")
    rest = wall_ns - attributed
    pct = 100.0 * rest / wall_ns if wall_ns else 0.0
    metrics["unattributed.self_pct"] = (pct, "%")
    lines.append(f"  {'unattributed':28s} {'':9s} {rest / 1e6:10.1f} {pct:6.1f}%")
    lines.append(f"  {'traced wall':28s} {'':9s} {wall_ns / 1e6:10.1f}")
    return lines, metrics


#: Program counters read as per-layer counts (``repro.util.counters``).
COUNTERS = (
    "solver.updates", "solver.update_skipped", "solver.pred_cache_hits",
    "solver.pred_delta", "solver.warm_hits", "solver.warm_misses",
    "estimate.closures", "estimate.batched_groups", "estimate.scalar_groups",
    "dbm.closures", "stack.closures", "stack.closed_zones",
    "server.sessions", "server.verdicts", "server.bundle_builds",
    "server.bundle_hits", "server.evictions",
    "par.task_retries", "par.worker_deaths",
)

#: Per-layer numbers a workload measures itself; 0 where it has none.
EXTRAS = {
    "graph.nodes": "count",
    "server.frames_per_session": "frames",
    "server.busy_share.open": "ratio",
    "server.busy_share.closed": "ratio",
    "loadgen.busy_share": "ratio",
    "par.efficiency": "ratio",
    "trace.overhead": "ratio",
}


def per_layer(
    layer_metrics: Dict[str, Tuple[float, str]],
    exported: Dict[str, Dict],
    extras: Dict[str, Tuple[float, str]],
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, from spans, counters and the workload."""
    out = dict(layer_metrics)
    counts = exported.get("counts", {})
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    updates = counts.get("solver.updates", 0)
    skipped = counts.get("solver.update_skipped", 0)
    out["game.update_skip_ratio"] = (
        skipped / (updates + skipped) if updates + skipped else 0.0, "ratio")
    count, total, peak = exported.get("stats", {}).get(
        "federation.zones", (0, 0, 0))
    out["federation.zones.mean"] = (total / count if count else 0.0, "zones")
    out["federation.zones.max"] = (peak, "zones")
    for name, unit in EXTRAS.items():
        out[name] = extras.get(name, (0, unit))
    return out
