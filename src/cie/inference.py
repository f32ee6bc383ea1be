"""Observations, symptom activation and abductive root-cause localization.

Symptom activation turns observations (attribute samples and asserted
symptom events) into the active symptom set. Localization ranks candidate
causes, the causes with an edge to at least one active symptom, by prior
times the independence product of per-symptom conditionals. A small leak
probability stands in for active symptoms a candidate has no edge to, so
one unexplained symptom dampens rather than zeroes a score; the leak never
makes a cause a candidate, so symptoms no cause explains yield an empty
diagnosis. Accumulation happens in log space; reported scores are
normalized across the candidate set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .causality import CausalityGraph, instance_id
from .errors import DocumentError, UnknownIdError
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

    def __bool__(self) -> bool:
        return bool(self.symptoms)


@dataclass(frozen=True, slots=True)
class DiagnosisEntry:
    cause_id: str
    score: float  # normalized across the candidate set
    log_score: float  # raw log(prior * product), before normalization
    explained: tuple[str, ...]
    unexplained: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Diagnosis:
    ranked: tuple[DiagnosisEntry, ...]

    @property
    def best(self) -> DiagnosisEntry | None:
        return self.ranked[0] if self.ranked else None


def validate_observation(cg: CausalityGraph, obs: Observation):
    etype = cg.entity_types.get(obs.target)
    if etype is None:
        raise UnknownIdError(f"observation targets unknown entity {obs.target!r}")
    if obs.attribute is not None:
        if obs.attribute not in cg.attribute_decls.get(etype, ()):
            raise DocumentError(
                f"attribute {obs.attribute!r} not declared for type {etype!r}")
    else:
        if instance_id(obs.symptom, obs.target) not in cg.symptoms:
            raise DocumentError(
                f"symptom {obs.symptom!r} is not instantiated on {obs.target!r}")


def activate_symptoms(cg: CausalityGraph, observations: list[Observation],
                      scope: set[str] | None = None) -> ActiveSymptomSet:
    """Active symptom instances implied by the observations, within scope.

    An instance is active iff a symptom event names it, or its threshold
    predicate holds on the most recent attribute sample for its host.
    """
    latest: dict[tuple[str, str], tuple[int, float]] = {}
    events: set[tuple[str, str]] = set()
    as_of = 0
    for obs in observations:
        validate_observation(cg, obs)
        as_of = max(as_of, obs.tick)
        if obs.attribute is not None:
            key = (obs.target, obs.attribute)
            prev = latest.get(key)
            if prev is None or obs.tick >= prev[0]:
                latest[key] = (obs.tick, obs.value)
        else:
            events.add((obs.target, obs.symptom))

    active: set[str] = set()
    for sid, inst in cg.symptoms.items():
        if scope is not None and inst.host_entity not in scope:
            continue
        if (inst.host_entity, inst.symptom_name) in events:
            active.add(sid)
            continue
        act = inst.activation
        if act.kind == "threshold":
            sample = latest.get((inst.host_entity, act.attribute))
            if sample is not None and act.holds(sample[1]):
                active.add(sid)
    return ActiveSymptomSet(symptoms=frozenset(active), as_of=as_of)


def log_score(cg: CausalityGraph, cause_id: str, active: ActiveSymptomSet,
              leak: float = DEFAULT_LEAK) -> float:
    """Unnormalized log posterior score log(P(active | cause) * P(cause))."""
    return _log_score(cg, cause_id, sorted(active.symptoms), math.log(leak))


def _log_score(cg: CausalityGraph, cause_id: str, ordered: list[str],
               log_leak: float) -> float:
    """Sum in the given (sorted) symptom order, so equal active sets built in
    different insertion orders score identically to the last digit."""
    total = math.log(cg.cause(cause_id).prior)
    for sid in ordered:
        edge = cg.edge(cause_id, sid)
        total += math.log(edge.probability) if edge is not None else log_leak
    return total


def localize(cg: CausalityGraph, active: ActiveSymptomSet,
             leak: float = DEFAULT_LEAK) -> Diagnosis:
    """Rank explanatory causes for the active symptom set.

    Candidates are the causes with at least one active effect; when none
    qualifies the diagnosis is empty. Ties break toward the higher prior,
    then the smaller cause id.
    """
    candidates: set[str] = set()
    for sid in active.symptoms:
        candidates |= cg.causes_of(sid)
    if not candidates:
        return Diagnosis(ranked=())

    ordered = sorted(active.symptoms)
    log_leak = math.log(leak)
    entries = []
    for cid in candidates:
        explained = tuple(s for s in ordered if cg.edge(cid, s) is not None)
        unexplained = tuple(s for s in ordered if cg.edge(cid, s) is None)
        entries.append((cid, _log_score(cg, cid, ordered, log_leak),
                        explained, unexplained))

    entries.sort(key=lambda e: (-e[1], -cg.causes[e[0]].prior, e[0]))
    total = _logsumexp([e[1] for e in entries])
    ranked = tuple(DiagnosisEntry(cause_id=cid, score=math.exp(ls - total),
                                  log_score=ls, explained=explained,
                                  unexplained=unexplained)
                   for cid, ls, explained, unexplained in entries)
    return Diagnosis(ranked=ranked)


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
    if not isinstance(raw["tick"], int) or isinstance(raw["tick"], bool):
        raise DocumentError("'tick' must be an integer", location=location)
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


def observation_to_dict(obs: Observation) -> dict:
    record: dict = {"tick": obs.tick, "entity": obs.target}
    if obs.attribute is not None:
        record["attribute"] = obs.attribute
        record["value"] = obs.value
    else:
        record["symptom"] = obs.symptom
    return record


def render_observations(observations: list[Observation]) -> str:
    return "".join(json.dumps(observation_to_dict(o), sort_keys=True) + "\n"
                   for o in observations)
