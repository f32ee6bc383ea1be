"""Observations, symptom activation and abductive root-cause localization.

Symptom activation turns observations (attribute samples and asserted
symptom events) into the active symptom set, in one place: an
``ObservationState`` folds validated batches, and binding it to a causality
graph updates its active set. ``Engine`` holds one; ``activate_symptoms``
folds a stream into a fresh one. Localization ranks candidate causes, the
causes with an edge to at least one active symptom, by prior times the
independence product of per-symptom conditionals. A small leak probability
stands in for active symptoms a candidate has no edge to, so one
unexplained symptom dampens rather than zeroes a score; the leak never
makes a cause a candidate, so symptoms no cause explains yield an empty
diagnosis. Accumulation happens in log space; reported scores are
normalized across the candidate set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .causality import CausalityGraph, instance_id
from .errors import DocumentError, EngineError, UnknownIdError
from .knowledge_base import is_finite_number

DEFAULT_LEAK = 1e-3


@dataclass(frozen=True, slots=True)
class Observation:
    """One telemetry record: an attribute sample or a symptom event."""

    target: str
    tick: int
    attribute: str | None = None
    value: float | None = None
    symptom: str | None = None

    def __post_init__(self):
        if isinstance(self.tick, bool) or not isinstance(self.tick, int):
            raise DocumentError("'tick' must be an integer")
        is_sample = self.attribute is not None
        is_event = self.symptom is not None
        if is_sample == is_event:
            raise DocumentError(
                "observation must carry either attribute/value or symptom")
        if is_sample and self.value is None:
            raise DocumentError(f"attribute sample {self.attribute!r} has no value")
        if self.value is not None and not is_finite_number(self.value):
            raise DocumentError("'value' must be a finite number")


def attribute_sample(target: str, tick: int, attribute: str, value: float) -> Observation:
    return Observation(target=target, tick=tick, attribute=attribute, value=value)


def symptom_event(target: str, tick: int, symptom: str) -> Observation:
    return Observation(target=target, tick=tick, symptom=symptom)


@dataclass(frozen=True, slots=True)
class ActiveSymptomSet:
    symptoms: frozenset[str]
    as_of: int = 0


@dataclass(frozen=True, slots=True)
class DiagnosisEntry:
    cause_id: str
    score: float  # normalized across the candidate set
    log_score: float  # raw log(prior * product), before normalization
    explained: tuple[str, ...]  # the active symptoms it has an edge to, sorted


@dataclass(frozen=True, slots=True)
class Diagnosis:
    ranked: tuple[DiagnosisEntry, ...]
    symptoms: tuple[str, ...]  # the sorted active symptom ids it scored

    @property
    def best(self) -> DiagnosisEntry | None:
        return self.ranked[0] if self.ranked else None


def validate_key(cg: CausalityGraph, key: tuple):
    """Raise unless an observation keyed (entity, attribute, symptom) fits ``cg``."""
    target, attribute, symptom = key
    etype = cg.entity_types.get(target)
    if etype is None:
        raise UnknownIdError(f"observation targets unknown entity {target!r}")
    if attribute is not None and attribute not in cg.attribute_decls.get(etype, ()):
        raise DocumentError(f"attribute {attribute!r} not declared for type {etype!r}")
    if attribute is None and instance_id(symptom, target) not in cg.symptoms:
        raise DocumentError(f"symptom {symptom!r} is not instantiated on {target!r}")


def threshold_index(symptoms) -> dict[tuple[str, str], tuple]:
    """(name, activation) of the threshold symptoms by the (entity type,
    attribute) they read, from (entity type, name, activation) triples."""
    index: dict[tuple[str, str], dict] = {}
    for etype, name, activation in symptoms:
        if activation.kind == "threshold":
            index.setdefault((etype, activation.attribute), {})[name] = activation
    return {key: tuple(pairs.items()) for key, pairs in index.items()}


class ObservationState:
    """Observations folded into state, and the active symptom set they imply.

    ``latest`` maps each key (entity, attribute, symptom), in first-arrival
    order, to a sample's latest (tick, value), a tie going to the later
    arrival, or to None for an event. ``active`` and ``error``, the (class,
    message) of the first key that fails validation, hold as of ``bind``."""

    def __init__(self, thresholds: dict[tuple[str, str], tuple]):
        self.latest: dict[tuple, tuple[int, float] | None] = {}
        self.as_of = 0
        self.active: set[str] = set()
        self.error: tuple[type[EngineError], str] | None = None
        self._thresholds = thresholds
        self._dirty: set[tuple] = set()  # keys folded since the last bind
        self._revision: int | None = None  # None forces a full re-evaluation

    def fold(self, cg: CausalityGraph, observations: list[Observation]):
        """Validate every observation against ``cg``, then fold them all, or none."""
        for obs in observations:
            validate_key(cg, (obs.target, obs.attribute, obs.symptom))
        latest, dirty = self.latest, self._dirty
        if not latest:
            # An empty store agrees with every revision: the keys about to
            # be stored were all validated against this one.
            self._revision = cg.topology_revision
        as_of = self.as_of
        for obs in observations:
            tick = obs.tick
            key = (obs.target, obs.attribute, obs.symptom)
            dirty.add(key)
            if tick > as_of:
                as_of = tick
            if key[1] is None:
                latest[key] = None
            elif (prev := latest.get(key)) is None or tick >= prev[0]:
                latest[key] = (tick, obs.value)
        self.as_of = as_of

    def bind(self, cg: CausalityGraph):
        """Bring ``active`` and ``error`` in line with the folded state and ``cg``."""
        latest = self.latest
        if self._revision == cg.topology_revision:
            keys = self._dirty
        else:
            # The topology moved: check every key in arrival order, then re-evaluate.
            self.error = None
            for key in latest:
                try:
                    validate_key(cg, key)
                except EngineError as exc:
                    self.error = (type(exc), str(exc))
                    break
            self.active = set()
            self._revision = cg.topology_revision
            keys = latest if self.error is None else ()
        active = self.active
        for key in keys:
            target, attribute, symptom = key
            if symptom is not None:
                active.add(instance_id(symptom, target))
                continue
            value = latest[key][1]
            for name, activation in self._thresholds.get((cg.entity_types[target], attribute), ()):
                sid = instance_id(name, target)
                if activation.holds(value) or (target, None, name) in latest:
                    active.add(sid)
                else:
                    active.discard(sid)
        self._dirty = set()


def activate_symptoms(cg: CausalityGraph, observations: list[Observation],
                      scope: set[str] | None = None) -> ActiveSymptomSet:
    """Active symptom instances implied by the observations, within scope.

    An instance is active iff a symptom event names it, or its threshold
    predicate holds on the most recent attribute sample for its host.
    """
    symptoms = cg.symptoms
    state = ObservationState(threshold_index(
        (cg.entity_types[s.host_entity], s.symptom_name, s.activation)
        for s in symptoms.values()))
    state.fold(cg, observations)
    state.bind(cg)
    # A hand-built graph may lack an instance that the per-type index implies.
    return ActiveSymptomSet(
        symptoms=frozenset(sid for sid in state.active if sid in symptoms and (
            scope is None or symptoms[sid].host_entity in scope)),
        as_of=state.as_of)


def localize(cg: CausalityGraph, active: ActiveSymptomSet,
             leak: float = DEFAULT_LEAK) -> Diagnosis:
    """Rank explanatory causes for the active symptom set.

    Candidates are the causes with at least one active effect; when none
    qualifies the diagnosis is empty. A log score sums the log prior, then
    the sorted symptoms' terms, so insertion order never moves a digit.
    Ties break toward the higher prior, then the smaller cause id.
    """
    ordered = sorted(active.symptoms)
    candidates: set[str] = set()
    for sid in active.symptoms:
        candidates |= cg.causes_of(sid)
    if not candidates:
        return Diagnosis(ranked=(), symptoms=tuple(ordered))

    log_leak = math.log(leak)
    entries = []
    for cid in candidates:
        total = math.log(cg.cause(cid).prior)
        explained = []
        for sid in ordered:
            edge = cg.edge(cid, sid)
            if edge is None:
                total += log_leak
            else:
                total += math.log(edge.probability)
                explained.append(sid)
        entries.append((cid, total, tuple(explained)))

    entries.sort(key=lambda e: (-e[1], -cg.causes[e[0]].prior, e[0]))
    total = _logsumexp([e[1] for e in entries])
    ranked = tuple(DiagnosisEntry(cause_id=cid, score=math.exp(ls - total),
                                  log_score=ls, explained=explained)
                   for cid, ls, explained in entries)
    return Diagnosis(ranked=ranked, symptoms=tuple(ordered))


def _logsumexp(values: list[float]) -> float:
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


# -- observation stream files (JSON lines) ----------------------------------

def parse_observations(text: str) -> list[Observation]:
    """Parse a newline-delimited observation stream."""
    observations = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"malformed observation: {exc}",
                                location=f"line {lineno}") from None
        observations.append(observation_from_dict(raw, location=f"line {lineno}"))
    return observations


def observation_from_dict(raw: dict, location: str | None = None) -> Observation:
    if not isinstance(raw, dict) or "entity" not in raw or "tick" not in raw:
        raise DocumentError("observation requires 'entity' and 'tick'", location=location)
    if not isinstance(raw["entity"], str):
        raise DocumentError("'entity' must be a string", location=location)
    for key in ("attribute", "symptom"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise DocumentError(f"{key!r} must be a string", location=location)
    try:
        return Observation(target=raw["entity"], tick=raw["tick"],
                           attribute=raw.get("attribute"), value=raw.get("value"),
                           symptom=raw.get("symptom"))
    except DocumentError as exc:
        raise DocumentError(str(exc), location=location) from None
