"""Span recorder and the tracer that times each cie layer from outside.

The tracer replaces a layer's public functions at the names their callers
bind, so no file under ``src/`` changes: ``cie.engine`` imports
``instantiate``, ``refresh``, ``localize`` and the three loaders by name, so
those are wrapped in ``cie.engine``; the engine reaches
``inference.activate_symptoms`` and ``impact.blast_radius`` through their
modules, so those are wrapped there; ``serve`` calls ``handle`` and
``json.loads`` through ``cie.service``'s globals. ``Engine`` methods are
wrapped on the class. ``uninstall`` puts every original back.

Spans are kept in memory as ``(name, start, end, parent, request)`` tuples,
where ``parent`` is the index of the enclosing span (or -1) and ``request``
the id of the request in flight, ``"setup"`` during set-up, or None for the
writes between requests. Counts are taken at the same boundaries.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict
from pathlib import Path

import cie.engine
import cie.impact
import cie.inference
import cie.service
from cie.engine import Engine

# Layers timed on the request path, reported as self ms per request.
REQUEST_LAYERS = {
    "engine.snapshot": "engine.snapshot_ms",
    "causality.refresh": "causality.refresh_ms",
    "inference.activate": "inference.activate_ms",
    "inference.localize": "inference.localize_ms",
    "impact.blast_radius": "impact.blast_radius_ms",
    "impact.remediation": "impact.remediation_ms",
    "service.parse": "service.parse_ms",
}
# Layers timed during set-up, reported as self ms per set-up.
SETUP_LAYERS = {
    "topology.load": "topology.load_ms",
    "knowledge_base.load": "knowledge_base.load_ms",
    "attributes.load": "attributes.load_ms",
    "causality.instantiate": "causality.instantiate_ms",
}
# Writes between frames, reported as inclusive ms per call.
WRITE_LAYERS = {
    "engine.ingest": "engine.ingest_ms",
    "topology.mutation": "topology.mutation_ms",
}
HANDLE = "service.handle."


class SpanRecorder:
    """In-memory spans and counts; knows which request is in flight."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request: object = None
        self._stack: list[int] = []
        self._last_snapshot = None

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as a span called ``name`` (or ``name(args)``)."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            label = name(args) if callable(name) else name
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, self.request)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def snapshot_taken(self, snapshot):
        if isinstance(self.request, int):
            self.counts["engine.request_snapshots"] += 1
            if snapshot is self._last_snapshot:
                self.counts["engine.snapshot_reuse"] += 1
            self._last_snapshot = snapshot

    def write_out(self, path: Path):
        """Write every span as one JSON line: [name, start, end, parent, request]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]


def _count_instantiate(recorder, args, graph):
    recorder.counts["causality.edges"] = len(graph.edges)
    recorder.counts["causality.truncations"] = len(graph.truncations)


def _count_activate(recorder, args, active):
    if isinstance(recorder.request, int):
        recorder.counts["inference.activate_calls"] += 1
        recorder.counts["inference.observations_replayed"] += len(args[1])


def _count_localize(recorder, args, diagnosis):
    if isinstance(recorder.request, int):
        recorder.counts["inference.localize_calls"] += 1
        recorder.counts["inference.candidates"] += len(diagnosis.ranked)


def _count_snapshot(recorder, args, snapshot):
    recorder.snapshot_taken(snapshot)


def _handle_name(args):
    raw = args[0]
    method = raw.get("method") if isinstance(raw, dict) else None
    return HANDLE + (method if method in cie.service.METHODS else "invalid")


class Tracer:
    """Installs and removes the span wrappers around cie's layers."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        wrap = recorder.wrap
        self._targets = [
            (cie.engine, "load_environment", lambda f: wrap("topology.load", f)),
            (cie.engine, "load_codebook", lambda f: wrap("knowledge_base.load", f)),
            (cie.engine, "load_attribute_graph", lambda f: wrap("attributes.load", f)),
            (cie.engine, "instantiate",
             lambda f: wrap("causality.instantiate", f, _count_instantiate)),
            (cie.engine, "refresh", lambda f: wrap("causality.refresh", f)),
            (cie.engine, "localize", lambda f: wrap("inference.localize", f, _count_localize)),
            (cie.inference, "activate_symptoms",
             lambda f: wrap("inference.activate", f, _count_activate)),
            (cie.impact, "blast_radius", lambda f: wrap("impact.blast_radius", f)),
            (cie.impact, "remediation_alignment", lambda f: wrap("impact.remediation", f)),
            (cie.service, "handle", lambda f: wrap(_handle_name, f)),
            (cie.service, "json", lambda m: types.SimpleNamespace(
                loads=wrap("service.parse", m.loads), dumps=m.dumps,
                JSONDecodeError=m.JSONDecodeError)),
            (Engine, "snapshot", lambda f: wrap("engine.snapshot", f, _count_snapshot)),
            (Engine, "ingest", lambda f: wrap("engine.ingest", f)),
        ] + [(Engine, name, lambda f: wrap("topology.mutation", f))
             for name in ("add_entity", "remove_entity", "add_relation", "remove_relation")]
        self._originals: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self):
        if self.installed:
            return
        for owner, name, make in self._targets:
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, make(original))

    def uninstall(self):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


def layer_metrics(recorder: SpanRecorder, setups: int, response_stamps: dict[int, float],
                  payload_bytes: dict[str, list[int]]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Request-path layers: self ms per traced request. Set-up layers (spans
    recorded while ``recorder.request == "setup"``): self ms per set-up.
    Writes between frames: inclusive ms per call. Handlers: self ms per call
    of each method. Serialization: from ``handle`` returning to the response
    write, per request.
    """
    totals: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    handle_end: dict[int, float] = {}
    for (name, start, end, _, request), own in zip(recorder.spans, recorder.self_times()):
        if isinstance(request, int):
            totals[name, "request"] += own
            calls[name] += 1
            if name.startswith(HANDLE):
                handle_end[request] = end
        elif request == "setup":
            totals[name, "setup"] += own
        elif name in WRITE_LAYERS:
            totals[name, "write"] += end - start
            calls[name] += 1
    requests = max(1, len({span[4] for span in recorder.spans if isinstance(span[4], int)}))

    metrics: dict[str, float] = {}
    for name, metric in SETUP_LAYERS.items():
        metrics[metric] = totals[name, "setup"] * 1000.0 / max(1, setups)
    for name, metric in REQUEST_LAYERS.items():
        metrics[metric] = totals[name, "request"] * 1000.0 / requests
    for name, metric in WRITE_LAYERS.items():
        metrics[metric] = totals[name, "write"] * 1000.0 / max(1, calls[name])
    for method in cie.service.METHODS:
        name = HANDLE + method
        metrics[f"service.handle_ms.{method}"] = (
            totals[name, "request"] * 1000.0 / max(1, calls[name]))
        responses, total = payload_bytes.get(method, (0, 0))
        metrics[f"service.payload_bytes.{method}"] = total / max(1, responses)
    metrics["service.handle_ms"] = sum(
        totals[HANDLE + method, "request"] for method in cie.service.METHODS) * 1000.0 / requests
    metrics["service.serialize_ms"] = sum(
        response_stamps[r] - end for r, end in handle_end.items()) * 1000.0 / requests
    counts = recorder.counts
    metrics["causality.edges"] = counts["causality.edges"]
    metrics["causality.truncations"] = counts["causality.truncations"]
    metrics["engine.snapshot_reuse_ratio"] = (
        counts["engine.snapshot_reuse"] / max(1, counts["engine.request_snapshots"]))
    metrics["inference.activate_calls"] = counts["inference.activate_calls"] / requests
    metrics["inference.observations_replayed"] = (
        counts["inference.observations_replayed"] / requests)
    metrics["inference.candidates"] = (
        counts["inference.candidates"] / max(1, counts["inference.localize_calls"]))
    return metrics
