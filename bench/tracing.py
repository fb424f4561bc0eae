"""Outside-in tracing: spans recorded from the benchmark's own files.

``install()`` wraps the public functions named in :data:`PATCH_TABLE`
— class methods on the class, module-level functions at every
``repro.*`` module that imported them by name — and each call then
records one span: layer, name, start, end, the span that caused it and
the operation it belongs to.  Spans live in a list in memory and are
written out when the run ends.  Nothing here is imported by an
untraced pass, so end-to-end metrics never pay for a wrapper.

A layer's *self time* is its spans' duration minus the part of that
interval their child spans cover.  The closed loop keeps one operation
in flight, so a span that starts on another thread (the socket
transport's event loop and handler pool) with nothing open on that
thread is a child of whatever the generator thread has open.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) — one row per public function the
#: traced pass wraps.  ``Class.method`` patches the class; a bare name
#: patches the function wherever ``repro.*`` bound it.
PATCH_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("core.coordinator", "repro.core.coordinator", "Coordinator.new_request"),
    ("core.coordinator", "repro.core.coordinator", "Coordinator.job_completed"),
    ("browser", "repro.browser.browser", "Browser.visit"),
    ("core.addon", "repro.core.addon", "SheriffAddon.build_selection"),
    ("core.jobqueue", "repro.core.jobqueue", "QueuedMeasurementTier.submit"),
    ("core.jobqueue", "repro.core.jobqueue", "QueuedMeasurementTier.pump"),
    ("core.jobqueue", "repro.core.jobqueue", "QueuedMeasurementTier.result"),
    ("core.measurement", "repro.core.measurement", "MeasurementServer.submit"),
    ("core.measurement", "repro.core.measurement", "MeasurementServer.result"),
    ("clients.ipc", "repro.clients.ipc", "InfrastructureProxyClient.fetch_with_retry"),
    ("clients.ppc", "repro.clients.ppc", "PeerProxyClient.serve_remote_request"),
    ("web.store", "repro.web.store", "EStore.fetch"),
    ("web.html.render", "repro.web.html", "render"),
    ("web.html.parse", "repro.web.html", "parse"),
    ("core.tagspath", "repro.core.tagspath", "extract_price_text"),
    ("currency.detect", "repro.currency.detect", "detect_price"),
    ("core.diffstorage", "repro.core.diffstorage", "DiffStorage.store_reference"),
    ("core.diffstorage", "repro.core.diffstorage", "DiffStorage.store_response"),
    ("core.engine", "repro.core.engine", "PriceCheckEngine.submit"),
    ("core.engine", "repro.core.engine", "PriceCheckEngine.result"),
    ("core.detector", "repro.core.detector", "analyze_rows"),
    ("core.database", "repro.core.database", "DatabaseClient.sp_record_request"),
    ("core.database", "repro.core.database", "DatabaseClient.sp_record_responses"),
    ("core.database", "repro.core.database", "DatabaseClient.sp_responses_for_job"),
    ("core.database", "repro.core.database", "DatabaseServer.sp_record_request"),
    ("core.database", "repro.core.database", "DatabaseServer.sp_record_responses"),
    ("core.database", "repro.core.database", "DatabaseServer.sp_responses_for_job"),
    ("net.transport", "repro.net.transport", "SimTransport.call"),
    ("net.transport", "repro.net.socket_transport", "SocketTransport.call"),
    ("net.protocol", "repro.net.protocol", "encode"),
    ("net.protocol", "repro.net.protocol", "decode"),
    ("storage", "repro.storage.sharding", "ShardedDatabase.sp_record_request"),
    ("storage", "repro.storage.sharding", "ShardedDatabase.sp_record_responses"),
    ("storage", "repro.storage.sharding", "ShardedDatabase.sp_responses_for_job"),
    ("storage", "repro.storage.memory", "MemoryBackend.insert"),
    ("storage", "repro.storage.memory", "MemoryBackend.insert_many"),
    ("storage", "repro.storage.memory", "MemoryBackend.lookup"),
    ("storage", "repro.storage.sqlite", "SqliteBackend.insert"),
    ("storage", "repro.storage.sqlite", "SqliteBackend.insert_many"),
    ("storage", "repro.storage.sqlite", "SqliteBackend.lookup"),
    ("ops.supervisor", "repro.ops.supervisor", "Supervisor.tick"),
    ("core.aggregator", "repro.core.aggregator", "Aggregator.run_clustering"),
    ("crypto.secure_kmeans", "repro.crypto.secure_kmeans", "ProfileClient.encrypt_profile"),
    ("crypto.secure_kmeans", "repro.crypto.secure_kmeans",
     "KMeansCoordinator.distance_elements_batch"),
    ("crypto.secure_kmeans", "repro.crypto.secure_kmeans", "KMeansAggregator.mask_all"),
    ("crypto.secure_kmeans", "repro.crypto.secure_kmeans",
     "KMeansAggregator.choose_clusters"),
    ("crypto.secure_kmeans", "repro.crypto.secure_kmeans",
     "KMeansCoordinator.update_centroid"),
    ("profiles.doppelganger", "repro.profiles.doppelganger",
     "DoppelgangerManager.build_from_centroids"),
)

#: the layers, in the order the per-layer table prints them
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in PATCH_TABLE))

#: the root span the worker opens around each operation; its self time
#: is whatever no traced layer accounts for
OP_LAYER = "op"


def resolve(module: str, path: str):
    """Return ``(owner, attribute name, function)`` for one table row.

    Raises ``ImportError`` or ``AttributeError`` when the patch point is
    gone from the current ``src/``.
    """
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans; one instance per traced pass."""

    def __init__(self) -> None:
        #: (span id, parent id, op id, layer, name, start, end, thread, size)
        self.spans: List[tuple] = []
        self.op_id = -1
        self.unresolved: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, fn: Callable, layer: str, name: str,
             size_of: Optional[Callable] = None) -> Callable:
        """The recording wrapper for one function."""
        spans, ids, main = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = main[-1] if main else 0
            stack.append(span_id)
            size = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((span_id, parent, self.op_id, layer, name, t0, t1,
                              threading.get_ident(), size))

        return traced

    # -- the root span of one operation ------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_span = next(self._ids)
        self._main_stack.append(self._op_span)
        self._op_start = perf_counter()

    def end_op(self) -> None:
        t1 = perf_counter()
        self._main_stack.pop()
        self.spans.append((self._op_span, 0, self.op_id, OP_LAYER, "op",
                           self._op_start, t1, threading.get_ident(), 0))
        self.op_id = -1

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every row of the patch table that still resolves."""
        for layer, module, path in PATCH_TABLE:
            try:
                owner, name, fn = resolve(module, path)
            except (ImportError, AttributeError) as exc:
                self.unresolved.append(layer)
                print(f"warning: patch point {module}:{path} does not resolve "
                      f"({exc}); {layer} metrics will be null", file=sys.stderr)
                continue
            wrapper = self.wrap(fn, layer, path, _SIZE_OF.get((module, path)))
            if "." in path:
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, alias, wrapper)

    # -- analysis ----------------------------------------------------------
    def layer_totals(self, op_factor: Dict[int, float]) -> Dict[str, Dict[str, float]]:
        """Per layer: calibrated self time (ms), calls and payload bytes.

        ``op_factor`` maps an op id to its calibration factor; spans that
        belong to no timed op (set-up, warm-up) are skipped.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span[2] in op_factor and span[1]:
                children.setdefault(span[1], []).append((span[5], span[6]))
        totals: Dict[str, Dict[str, float]] = {}
        for span_id, _parent, op_id, layer, _name, t0, t1, _thread, size in self.spans:
            factor = op_factor.get(op_id)
            if factor is None:
                continue
            covered = _covered(children.get(span_id, ()), t0, t1)
            entry = totals.setdefault(layer, {"self_ms": 0.0, "calls": 0, "bytes": 0})
            entry["self_ms"] += (t1 - t0 - covered) * 1e3 * factor
            entry["calls"] += 1
            entry["bytes"] += size
        return totals

    def layer_metrics(self, op_factor: Dict[int, float], n_ops: int) -> Dict[str, object]:
        """The span-derived per-layer metrics, per op; ``None`` for a layer
        whose patch point no longer resolves."""
        totals = self.layer_totals(op_factor)
        empty = {"self_ms": 0.0, "calls": 0, "bytes": 0}
        metrics: Dict[str, object] = {}
        for layer in LAYERS:
            entry = totals.get(layer, empty)
            gone = layer in self.unresolved
            metrics[f"{layer}.self_ms"] = None if gone else entry["self_ms"] / n_ops
            metrics[f"{layer}.calls"] = None if gone else entry["calls"] / n_ops
        metrics["op.unattributed_ms"] = totals.get(OP_LAYER, empty)["self_ms"] / n_ops
        metrics["net.protocol.bytes_per_op"] = totals.get("net.protocol", empty)["bytes"] / n_ops
        return metrics

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, layer, name, t0, t1, thread, size in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op_id,
                    "layer": layer, "name": name,
                    "start_us": round((t0 - origin) * 1e6, 1),
                    "end_us": round((t1 - origin) * 1e6, 1),
                    "thread": thread, "bytes": size,
                }) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


#: payload size recorded with a span: the bytes ``encode`` produced and
#: the bytes ``decode`` consumed (``net.protocol.bytes_per_op``)
_SIZE_OF = {
    ("repro.net.protocol", "encode"): lambda args, result: len(result),
    ("repro.net.protocol", "decode"): lambda args, result: len(args[0]),
}
