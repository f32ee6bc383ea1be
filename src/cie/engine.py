"""Engine state: current topology, codebook, folded observations, warm snapshots.

The engine is the single writer; queries run against immutable snapshots.
Observations are validated once and folded into state when they are
ingested: the latest sample per (entity, attribute), the asserted symptom
events and the highest tick. No raw log is kept, so a query never replays
one. A snapshot binds one topology revision, the causality graph built from
it and the active symptom set at bind time, so a response can never mix
state from two revisions. The engine hands out the same snapshot until the
topology revision or the observation sequence moves; the causality graph
is replaced only when the revision moves. It compiles each cause's edge
block the first time a query reads it and keeps it for the revision, so
snapshots sharing the graph share that work; the memo adds only fully
built values, and a snapshot's answers never change.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from pathlib import Path

from . import causality, impact, inference
from .attributes import AttributeGraph, load_attribute_graph
from .causality import CausalityGraph, instance_id, instantiate, refresh
from .errors import DocumentError, EngineError
from .inference import (ActiveSymptomSet, Diagnosis, Observation, localize,
                        parse_observations)
from .knowledge_base import Codebook, SymptomDef, load_codebook
from .topology import Entity, EntityGraph, Relation, _parse_document, load_environment


class EngineSnapshot:
    """Immutable view of the engine at one revision; unscoped results cached.

    ``error`` is the (exception class, message) of the earliest stored
    observation that no longer validates against this revision; every
    query that reads observations raises it. The class and message are
    kept rather than the exception, whose traceback would pin old frames.
    """

    def __init__(self, topology: EntityGraph, codebook: Codebook,
                 causality_graph: CausalityGraph,
                 active_symptoms: Iterable[str],
                 attribute_graph: AttributeGraph | None,
                 leak: float, max_depth: int, *, as_of: int = 0,
                 error: tuple[type[EngineError], str] | None = None,
                 sequence: int = 0):
        self.topology = topology
        self.codebook = codebook
        self.causality = causality_graph
        self.attributes = attribute_graph
        self.leak = leak
        self.max_depth = max_depth
        self.sequence = sequence
        self._active = ActiveSymptomSet(symptoms=frozenset(active_symptoms), as_of=as_of)
        self._error = error
        # Scopes are unbounded, so only unscoped results are cached.
        self._diagnosis: Diagnosis | None = None
        self._radius: dict[str, impact.BlastRadius] = {}

    @property
    def revision(self) -> int:
        return self.topology.revision

    def active(self, scope: frozenset[str] | None = None) -> ActiveSymptomSet:
        if self._error is not None:
            error_class, message = self._error
            raise error_class(message)
        if scope is None:
            return self._active
        symptoms = self.causality.symptoms
        return ActiveSymptomSet(
            symptoms=frozenset(sid for sid in self._active.symptoms
                               if symptoms[sid].host_entity in scope),
            as_of=self._active.as_of)

    def diagnosis(self, scope: frozenset[str] | None = None) -> Diagnosis:
        if scope is not None:
            return localize(self.causality, self.active(scope), leak=self.leak)
        if self._diagnosis is None:
            self._diagnosis = localize(self.causality, self.active(), leak=self.leak)
        return self._diagnosis

    def best_cause(self, scope: frozenset[str] | None = None) -> str | None:
        best = self.diagnosis(scope).best
        return best.cause_id if best else None

    def blast_radius(self, cause_id: str) -> impact.BlastRadius:
        if cause_id not in self._radius:
            self._radius[cause_id] = impact.blast_radius(
                self.topology, self.causality, self.codebook, cause_id,
                max_depth=self.max_depth)
        return self._radius[cause_id]

    def remediation(self, cause_id: str, action_target: str) -> impact.RemediationVerdict:
        return impact.remediation_alignment(self.topology, self.causality,
                                            self.blast_radius(cause_id), action_target)


def _check_parameters(leak, max_depth):
    """Raise DocumentError unless 0 < leak < 1 and max_depth is an int >= 0."""
    if (isinstance(leak, bool) or not isinstance(leak, (int, float))
            or not 0.0 < leak < 1.0):
        raise DocumentError(f"leak must be a probability strictly between 0 and 1, "
                            f"got {leak!r}")
    if isinstance(max_depth, bool) or not isinstance(max_depth, int) or max_depth < 0:
        raise DocumentError(f"max_depth must be an integer >= 0, got {max_depth!r}")


class Engine:
    """Single-writer holder of the live model plus the folded observations."""

    def __init__(self, topology: EntityGraph, codebook: Codebook,
                 attribute_graph: AttributeGraph | None = None,
                 leak: float = inference.DEFAULT_LEAK,
                 max_depth: int = causality.DEFAULT_MAX_DEPTH):
        _check_parameters(leak, max_depth)
        self._lock = threading.Lock()
        self._topology = topology
        self._codebook = codebook
        self._attributes = attribute_graph
        self._leak = leak
        self._max_depth = max_depth
        self._causality = instantiate(topology, codebook, max_depth=max_depth)
        # Threshold symptoms by the (entity type, attribute) they read, so a
        # sample re-evaluates only the symptoms it can move.
        self._thresholds: dict[tuple[str, str], tuple[SymptomDef, ...]] = {}
        for sdef in codebook.symptoms:
            if sdef.activation.kind == "threshold":
                key = (sdef.applies_to, sdef.activation.attribute)
                self._thresholds[key] = self._thresholds.get(key, ()) + (sdef,)
        self._sequence = 0  # bumped by every ingest and clear, never reset
        self._snapshot: EngineSnapshot | None = None
        self._reset_observations()

    def _reset_observations(self):
        # Observation keys are (entity, attribute, symptom), as on Observation.
        # The first observation per key, in arrival order: re-validating these
        # raises the error a replay of the whole log would raise first.
        self._first: dict[tuple, Observation] = {}
        # Latest sample per sample key; the later tick wins, a tie goes to
        # the later arrival.
        self._latest: dict[tuple, tuple[int, float]] = {}
        self._as_of = 0
        self._dirty: set[tuple] = set()  # keys touched since the last bind
        self._active: set[str] = set()
        self._active_revision: int | None = None  # None forces a full re-evaluation
        self._error: tuple[type[EngineError], str] | None = None

    @classmethod
    def from_documents(cls, env_document, codebook_document, **kwargs) -> Engine:
        """The environment document is parsed once; both its loaders read the dict."""
        cb = load_codebook(codebook_document)
        env = _parse_document(env_document, "environment")
        graph = load_environment(env, codebook=cb)
        ag = load_attribute_graph(env, graph, cb)
        return cls(graph, cb, attribute_graph=ag, **kwargs)

    @classmethod
    def from_files(cls, env_path, codebook_path, observations_path=None, **kwargs) -> Engine:
        env_text = Path(env_path).read_text()
        cb_text = Path(codebook_path).read_text()
        engine = cls.from_documents(env_text, cb_text, **kwargs)
        if observations_path is not None:
            engine.ingest(parse_observations(Path(observations_path).read_text()))
        return engine

    @property
    def codebook(self) -> Codebook:
        return self._codebook

    @property
    def topology(self) -> EntityGraph:
        return self._topology

    @property
    def leak(self) -> float:
        return self._leak

    @property
    def max_depth(self) -> int:
        return self._max_depth

    def snapshot(self) -> EngineSnapshot:
        with self._lock:
            snap = self._snapshot
            if (snap is not None and snap.revision == self._topology.revision
                    and snap.sequence == self._sequence):
                return snap
            cg = self._current_causality()
            self._bind(cg)
            self._snapshot = EngineSnapshot(
                self._topology, self._codebook, cg, self._active, self._attributes,
                self._leak, self._max_depth, as_of=self._as_of, error=self._error,
                sequence=self._sequence)
            return self._snapshot

    def _current_causality(self) -> CausalityGraph:
        if self._causality.topology_revision != self._topology.revision:
            self._causality = refresh(self._causality, self._topology,
                                      self._codebook, max_depth=self._max_depth)
        return self._causality

    def _bind(self, cg: CausalityGraph):
        """Bring the active symptom set in line with the folded state and ``cg``."""
        if self._active_revision == cg.topology_revision:
            keys = self._dirty
        else:
            # The topology moved: every stored key is checked again, in
            # first-arrival order, and evaluated from scratch.
            self._error = None
            for obs in self._first.values():
                try:
                    inference.validate_observation(cg, obs)
                except EngineError as exc:
                    self._error = (type(exc), str(exc))
                    break
            self._active = set()
            self._active_revision = cg.topology_revision
            keys = self._first if self._error is None else ()
        active, first = self._active, self._first
        for key in keys:
            target, attribute, symptom = key
            if symptom is not None:
                active.add(instance_id(symptom, target))
                continue
            value = self._latest[key][1]
            for sdef in self._thresholds.get((cg.entity_types[target], attribute), ()):
                sid = instance_id(sdef.symptom_name, target)
                if (sdef.activation.holds(value)
                        or (target, None, sdef.symptom_name) in first):
                    active.add(sid)
                else:
                    active.discard(sid)
        self._dirty = set()

    def ingest(self, observations: list[Observation]):
        """Validate every observation, then fold them all, or none."""
        with self._lock:
            cg = self._current_causality()
            for obs in observations:
                inference.validate_observation(cg, obs)
            first, latest, dirty = self._first, self._latest, self._dirty
            if not first:
                # An empty store agrees with every revision: the keys about to
                # be stored were all validated against this one.
                self._active_revision = cg.topology_revision
            as_of = self._as_of
            for obs in observations:
                tick = obs.tick
                key = (obs.target, obs.attribute, obs.symptom)
                if key not in first:
                    first[key] = obs
                dirty.add(key)
                if tick > as_of:
                    as_of = tick
                if key[1] is not None:
                    prev = latest.get(key)
                    if prev is None or tick >= prev[0]:
                        latest[key] = (tick, obs.value)
            self._as_of = as_of
            self._sequence += 1

    def clear_observations(self):
        with self._lock:
            self._reset_observations()
            self._sequence += 1

    # -- topology mutations (serialized) -------------------------------------

    def add_entity(self, entity: Entity):
        with self._lock:
            if entity.entity_type not in self._codebook.type_names():
                raise DocumentError(f"unknown entity_type {entity.entity_type!r}")
            self._topology = self._topology.add_entity(entity)

    def remove_entity(self, entity_id: str):
        with self._lock:
            self._topology = self._topology.remove_entity(entity_id)

    def add_relation(self, relation: Relation):
        with self._lock:
            self._topology = self._topology.add_relation(relation)

    def remove_relation(self, relation: Relation):
        with self._lock:
            self._topology = self._topology.remove_relation(relation)
