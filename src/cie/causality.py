"""Environment-specific causality graph.

Instantiates the codebook over a topology snapshot: one root-cause instance
and one symptom instance per matching (definition, entity) pair, plus direct
cause→symptom edges. Multi-hop symptom propagation is compiled into direct
edges whose probability is the local association probability multiplied by
one attenuation factor per rule hop; the hop chain is stored on the edge so
every probability can be recomputed and audited. When several derivations
reach the same (cause, symptom) pair the maximum-probability one is kept,
with fewest-hops-then-lexicographic tie-breaks for determinism. The rule
closure behind it (``rule_closure``) also serves the blast radius in
``impact``, ordered by hop count instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DocumentError, UnknownIdError
from .knowledge_base import ActivationSpec, Codebook
from .topology import EntityGraph

DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True)
class RootCauseInstance:
    id: str
    cause_name: str
    host_entity: str
    prior: float


@dataclass(frozen=True)
class SymptomInstance:
    id: str
    symptom_name: str
    host_entity: str
    activation: ActivationSpec


@dataclass(frozen=True)
class DerivationHop:
    rule_id: str
    source: str
    target: str
    kind: str


@dataclass(frozen=True)
class CausalEdge:
    cause_id: str
    symptom_id: str
    probability: float
    # Audit trail: probability == fold of local_probability over the hops'
    # attenuations, applied left to right.
    origin_symptom: str
    local_probability: float
    derivation: tuple[DerivationHop, ...] = ()


class CausalityGraph:
    """Bipartite cause→symptom snapshot tied to one topology revision."""

    def __init__(self, causes: dict[str, RootCauseInstance],
                 symptoms: dict[str, SymptomInstance],
                 edges: dict[tuple[str, str], CausalEdge],
                 topology_revision: int,
                 entity_types: dict[str, str],
                 attribute_decls: dict[str, tuple[str, ...]],
                 truncations: tuple[str, ...] = ()):
        self.causes = dict(causes)
        self.symptoms = dict(symptoms)
        self.edges = dict(edges)
        self.topology_revision = topology_revision
        self.entity_types = dict(entity_types)
        self.attribute_decls = dict(attribute_decls)
        self.truncations = tuple(truncations)
        self._out: dict[str, list[CausalEdge]] = {}
        self._in: dict[str, list[CausalEdge]] = {}
        for edge in self.edges.values():
            self._out.setdefault(edge.cause_id, []).append(edge)
            self._in.setdefault(edge.symptom_id, []).append(edge)

    def cause(self, cause_id: str) -> RootCauseInstance:
        try:
            return self.causes[cause_id]
        except KeyError:
            raise UnknownIdError(f"unknown root cause instance {cause_id!r}") from None

    def symptom(self, symptom_id: str) -> SymptomInstance:
        try:
            return self.symptoms[symptom_id]
        except KeyError:
            raise UnknownIdError(f"unknown symptom instance {symptom_id!r}") from None

    def effects(self, cause_id: str) -> set[str]:
        """Symptom instance ids with an edge from ``cause_id``."""
        self.cause(cause_id)
        return {edge.symptom_id for edge in self._out.get(cause_id, [])}

    def edge(self, cause_id: str, symptom_id: str) -> CausalEdge | None:
        return self.edges.get((cause_id, symptom_id))

    def edges_from(self, cause_id: str) -> list[CausalEdge]:
        return list(self._out.get(cause_id, []))

    def causes_of(self, symptom_id: str) -> set[str]:
        return {edge.cause_id for edge in self._in.get(symptom_id, [])}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalityGraph):
            return NotImplemented
        return (self.causes == other.causes and self.symptoms == other.symptoms
                and self.edges == other.edges
                and self.topology_revision == other.topology_revision
                and self.truncations == other.truncations)

    def __repr__(self) -> str:
        return (f"CausalityGraph(causes={len(self.causes)}, symptoms={len(self.symptoms)}, "
                f"edges={len(self.edges)}, revision={self.topology_revision})")


def instance_id(name: str, entity_id: str) -> str:
    return f"{name}@{entity_id}"


def rule_closure(graph: EntityGraph, cb: Codebook, entity_types: dict[str, str],
                 starts, max_depth: int, by_probability: bool):
    """The rule closure from ``starts``, a sequence of (symptom, entity,
    derivation) states: every (symptom, entity) state the codebook's rules
    reach over ``graph``, each settled once.

    ``by_probability`` pops states by (-relative probability, hops, entity,
    symptom), a max-product Dijkstra; otherwise by hop count, then discovery
    order. Hops count from 0 at every start; the relative probability is the
    product of the attenuations applied after the start. Returns ``(settled,
    truncated)``: ``settled`` maps each state, in pop order, to (relative
    probability, start derivation + the DerivationHops taken), and
    ``truncated`` holds the states whose expansion hit ``max_depth``.
    """
    heap = [((-1.0, 0, ent, sym, i) if by_probability else (0, i), 0, 1.0, sym, ent, hops)
            for i, (sym, ent, hops) in enumerate(starts)]
    heapq.heapify(heap)
    counter = len(heap)  # unique key tail keeps unorderable hop tuples out of comparisons
    settled: dict[tuple[str, str], tuple[float, tuple[DerivationHop, ...]]] = {}
    truncated: set[tuple[str, str]] = set()
    while heap:
        _, n_hops, prob, sym, ent, hops = heapq.heappop(heap)
        if (sym, ent) in settled:
            continue
        settled[(sym, ent)] = (prob, hops)
        for kind, rule, direction, target_type in cb.steps[sym]:
            for nbr in graph.adjacent(ent, kind, direction):
                if entity_types.get(nbr) != target_type or (rule.to_symptom, nbr) in settled:
                    continue
                if n_hops >= max_depth:
                    truncated.add((sym, ent))
                    continue
                if direction == "out":
                    hop = DerivationHop(rule.rule_id, ent, nbr, kind)
                else:
                    hop = DerivationHop(rule.rule_id, nbr, ent, kind)
                counter += 1
                p = prob * rule.attenuation
                key = ((-p, n_hops + 1, nbr, rule.to_symptom, counter) if by_probability
                       else (n_hops + 1, counter))
                heapq.heappush(heap, (key, n_hops + 1, p, rule.to_symptom, nbr, hops + (hop,)))
    return settled, truncated


def instantiate(graph: EntityGraph, cb: Codebook,
                max_depth: int = DEFAULT_MAX_DEPTH) -> CausalityGraph:
    """Apply the codebook to a topology snapshot.

    Deterministic: equal inputs yield equal graphs including derivations.
    Depth-limited rule application reports truncation as warnings on the
    returned graph rather than failing.
    """
    entities = graph.entities
    type_names = cb.type_names()
    for eid in sorted(entities):
        if entities[eid].entity_type not in type_names:
            raise DocumentError(
                f"entity {eid!r} has undeclared type {entities[eid].entity_type!r}")

    entity_types = {eid: e.entity_type for eid, e in entities.items()}

    causes: dict[str, RootCauseInstance] = {}
    symptoms: dict[str, SymptomInstance] = {}
    for eid in sorted(entities):
        etype = entity_types[eid]
        for cdef in cb.causes_for_type(etype):
            cid = instance_id(cdef.cause_name, eid)
            causes[cid] = RootCauseInstance(id=cid, cause_name=cdef.cause_name,
                                            host_entity=eid, prior=cdef.prior)
        for sdef in cb.symptoms_for_type(etype):
            sid = instance_id(sdef.symptom_name, eid)
            symptoms[sid] = SymptomInstance(id=sid, symptom_name=sdef.symptom_name,
                                            host_entity=eid, activation=sdef.activation)

    truncations: set[str] = set()
    reach_cache: dict[tuple[str, str], dict] = {}
    attenuation_by_rule = {r.rule_id: r.attenuation for r in cb.rules}
    edges: dict[tuple[str, str], CausalEdge] = {}
    for eid in sorted(entities):
        for cdef in cb.causes_for_type(entity_types[eid]):
            cid = instance_id(cdef.cause_name, eid)
            for s0, p0 in cdef.local_symptoms:
                reach = reach_cache.get((s0, eid))
                if reach is None:
                    reach, truncated = rule_closure(graph, cb, entity_types, [(s0, eid, ())],
                                                    max_depth, by_probability=True)
                    reach_cache[(s0, eid)] = reach
                    truncations.update(f"depth limit {max_depth} reached expanding "
                                       f"{s0}@{eid} at {sym}@{ent}" for sym, ent in truncated)
                for (sym, ent), (_, hops) in reach.items():
                    prob = p0
                    for hop in hops:
                        prob *= attenuation_by_rule[hop.rule_id]
                    sid = instance_id(sym, ent)
                    edge_key = (cid, sid)
                    candidate = CausalEdge(cause_id=cid, symptom_id=sid, probability=prob,
                                           origin_symptom=s0, local_probability=p0,
                                           derivation=hops)
                    existing = edges.get(edge_key)
                    if existing is None or candidate.probability > existing.probability:
                        edges[edge_key] = candidate

    return CausalityGraph(causes, symptoms, edges,
                          topology_revision=graph.revision,
                          entity_types=entity_types,
                          attribute_decls={t.type_name: t.attribute_decls for t in cb.types},
                          truncations=tuple(sorted(truncations)))


def refresh(cg: CausalityGraph, graph: EntityGraph, cb: Codebook,
            max_depth: int = DEFAULT_MAX_DEPTH) -> CausalityGraph:
    """Bring a causality snapshot in line with the current topology.

    Contract: the result equals instantiate(graph, cb) exactly; a full
    rebuild is the reference strategy, and incremental recomputation would
    have to match it.
    """
    if (cg.topology_revision == graph.revision
            and cg.entity_types == {eid: e.entity_type
                                    for eid, e in graph.entities.items()}):
        return cg
    return instantiate(graph, cb, max_depth=max_depth)


def recompute_edge_probability(edge: CausalEdge, cb: Codebook) -> float:
    """Re-fold an edge's probability from its stored derivation (audit path)."""
    attenuation_by_rule = {r.rule_id: r.attenuation for r in cb.rules}
    prob = edge.local_probability
    for hop in edge.derivation:
        prob *= attenuation_by_rule[hop.rule_id]
    return prob


def dump_graph(cg: CausalityGraph) -> dict:
    """JSON-friendly export of the full graph, probabilities and derivations
    included, for debugging and rubric audits."""
    return {
        "schema": "causality-dump/1",
        "topology_revision": cg.topology_revision,
        "causes": [{"id": c.id, "cause_name": c.cause_name, "entity": c.host_entity,
                    "prior": c.prior}
                   for c in sorted(cg.causes.values(), key=lambda c: c.id)],
        "symptoms": [{"id": s.id, "symptom_name": s.symptom_name, "entity": s.host_entity}
                     for s in sorted(cg.symptoms.values(), key=lambda s: s.id)],
        "edges": [{"cause": e.cause_id, "symptom": e.symptom_id,
                   "probability": e.probability, "origin_symptom": e.origin_symptom,
                   "local_probability": e.local_probability,
                   "derivation": [{"rule": h.rule_id, "source": h.source,
                                   "target": h.target, "kind": h.kind}
                                  for h in e.derivation]}
                  for e in sorted(cg.edges.values(), key=lambda e: (e.cause_id, e.symptom_id))],
        "truncations": list(cg.truncations),
    }
