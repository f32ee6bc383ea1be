"""Engine state: current topology, codebook, folded observations, warm snapshots.

The engine is the single writer; queries run against immutable snapshots.
Ingested observations are folded into one ``inference.ObservationState``;
no raw log is kept, so a query never replays one. A snapshot binds one
topology revision, the causality graph built from it and the active symptom
set at bind time, so a response can never mix state from two revisions.
The engine hands out the same snapshot until the topology revision or the
observation sequence moves; the causality graph is replaced only when the
revision moves. It compiles each cause's edge block the first time a query
reads it and keeps it for the revision, so snapshots sharing the graph
share that work; the memo adds only fully built values, and a snapshot's
answers never change."""

from __future__ import annotations

import threading
from collections.abc import Iterable
from pathlib import Path

from . import causality, impact, inference
from .attributes import load_attribute_graph
from .causality import CausalityGraph, instantiate, refresh
from .errors import DocumentError, EngineError, parse_document
from .inference import (ActiveSymptomSet, Diagnosis, Observation, ObservationState,
                        localize, parse_observations, threshold_index)
from .knowledge_base import Codebook, load_codebook
from .topology import Entity, EntityGraph, Relation, load_environment


class EngineSnapshot:
    """Immutable view of the engine at one revision; unscoped results cached.

    ``error``, the fifth positional parameter, is the (exception class,
    message) of the earliest stored observation that no longer validates
    against this revision, or None; every query that reads observations
    raises it. The class and message are kept rather than the exception,
    whose traceback would pin old frames.
    """

    def __init__(self, topology: EntityGraph, codebook: Codebook,
                 causality_graph: CausalityGraph,
                 active_symptoms: Iterable[str],
                 error: tuple[type[EngineError], str] | None,
                 leak: float, max_depth: int, *, as_of: int = 0,
                 sequence: int = 0):
        self.topology = topology
        self.codebook = codebook
        self.causality = causality_graph
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
                 leak: float = inference.DEFAULT_LEAK,
                 max_depth: int = causality.DEFAULT_MAX_DEPTH):
        _check_parameters(leak, max_depth)
        self._lock = threading.Lock()
        self._topology = topology
        self._codebook = codebook
        self._leak = leak
        self._max_depth = max_depth
        self._causality = instantiate(topology, codebook, max_depth=max_depth)
        self._thresholds = threshold_index(
            (sdef.applies_to, sdef.symptom_name, sdef.activation) for sdef in codebook.symptoms)
        self._sequence = 0  # bumped by every ingest and clear, never reset
        self._snapshot: EngineSnapshot | None = None
        self._observations = ObservationState(self._thresholds)

    @classmethod
    def from_documents(cls, env_document, codebook_document, **kwargs) -> Engine:
        """The environment is parsed once; its attribute section is checked, not kept."""
        cb = load_codebook(codebook_document)
        env = parse_document(env_document, "environment")
        graph = load_environment(env, codebook=cb)
        load_attribute_graph(env, graph, cb)
        return cls(graph, cb, **kwargs)

    @classmethod
    def from_files(cls, env_path, codebook_path, observations_path=None, **kwargs) -> Engine:
        env_text = Path(env_path).read_text()
        cb_text = Path(codebook_path).read_text()
        engine = cls.from_documents(env_text, cb_text, **kwargs)
        if observations_path is not None:
            engine.ingest(parse_observations(Path(observations_path).read_text(),
                                             engine._current_causality()))
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
            state = self._observations
            state.bind(cg)
            self._snapshot = EngineSnapshot(
                self._topology, self._codebook, cg, state.active, state.error,
                self._leak, self._max_depth, as_of=state.as_of, sequence=self._sequence)
            return self._snapshot

    def _current_causality(self) -> CausalityGraph:
        if self._causality.topology_revision != self._topology.revision:
            self._causality = refresh(self._causality, self._topology,
                                      self._codebook, max_depth=self._max_depth)
        return self._causality

    def ingest(self, observations: list[Observation]):
        """Validate every observation, then fold them all, or none."""
        with self._lock:
            self._observations.fold(self._current_causality(), observations)
            self._sequence += 1

    def clear_observations(self):
        with self._lock:
            self._observations = ObservationState(self._thresholds)
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
