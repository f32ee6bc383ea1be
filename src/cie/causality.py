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

Each cause's edges form one block, and every state its closure settles
becomes one of them, so the edges also record which entities the closure
visited. ``refresh`` uses that record after a topology change: only the
causes that visited a changed entity run their closure again, and every
other cause keeps its block (the dynamic shortest-path idea of Ramalingam
and Reps, 1996, over the precompiled codebook of Yemini et al., 1996).
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
    """Bipartite cause→symptom snapshot tied to one topology revision.

    The graph owns the dicts it is given and never copies them, so callers
    must not change them afterwards. ``blocks`` holds each cause's edges,
    keyed as in ``edges``. ``edges`` may be None when ``blocks`` is given;
    it is then built on first read, cause by cause. ``blocks`` and
    ``causes_by_symptom`` are derived from ``edges`` when not given.
    """

    def __init__(self, causes: dict[str, RootCauseInstance],
                 symptoms: dict[str, SymptomInstance],
                 edges: dict[tuple[str, str], CausalEdge] | None,
                 topology_revision: int,
                 entity_types: dict[str, str],
                 attribute_decls: dict[str, tuple[str, ...]],
                 truncations: tuple[str, ...] = (), *,
                 blocks: dict[str, dict[tuple[str, str], CausalEdge]] | None = None,
                 causes_by_symptom: dict[str, tuple[str, ...]] | None = None):
        self.causes = causes
        self.symptoms = symptoms
        self._edges = edges
        self.topology_revision = topology_revision
        self.entity_types = entity_types
        self.attribute_decls = attribute_decls
        self.truncations = tuple(truncations)
        if blocks is None:
            blocks = {}
            for key, edge in edges.items():
                blocks.setdefault(key[0], {})[key] = edge
        if causes_by_symptom is None:
            causes_by_symptom = _causes_by_symptom({}, (), blocks.items())
        self._out = blocks
        self._in = causes_by_symptom
        # What instantiate built this graph from, for refresh; None when the
        # graph was built by hand.
        self._source: tuple[EntityGraph, Codebook, int] | None = None
        self._truncations_by_cause: dict[str, frozenset[str]] = {}

    @property
    def edges(self) -> dict[tuple[str, str], CausalEdge]:
        if self._edges is None:
            edges: dict[tuple[str, str], CausalEdge] = {}
            for cid in self.causes:
                edges.update(self._out.get(cid, ()))
            self._edges = edges
        return self._edges

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
        return {sid for _, sid in self._out.get(cause_id, ())}

    def edge(self, cause_id: str, symptom_id: str) -> CausalEdge | None:
        block = self._out.get(cause_id)
        return None if block is None else block.get((cause_id, symptom_id))

    def edges_from(self, cause_id: str) -> list[CausalEdge]:
        return list(self._out.get(cause_id, {}).values())

    def causes_of(self, symptom_id: str) -> set[str]:
        return set(self._in.get(symptom_id, ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalityGraph):
            return NotImplemented
        return (self.causes == other.causes and self.symptoms == other.symptoms
                and self.edges == other.edges
                and self.topology_revision == other.topology_revision
                and self.truncations == other.truncations)

    def __repr__(self) -> str:
        return (f"CausalityGraph(causes={len(self.causes)}, symptoms={len(self.symptoms)}, "
                f"edges={sum(map(len, self._out.values()))}, "
                f"revision={self.topology_revision})")


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


# What a full build reuses.
_NOTHING = CausalityGraph({}, {}, {}, 0, {}, {}, blocks={}, causes_by_symptom={})


def instantiate(graph: EntityGraph, cb: Codebook,
                max_depth: int = DEFAULT_MAX_DEPTH) -> CausalityGraph:
    """Apply the codebook to a topology snapshot.

    Deterministic: equal inputs yield equal graphs including derivations.
    Depth-limited rule application reports truncation as warnings on the
    returned graph rather than failing.
    """
    return _assemble(graph, cb, max_depth, *_instances(graph, cb))


def _instances(graph: EntityGraph, cb: Codebook, previous: CausalityGraph = _NOTHING):
    """Entity types, then the cause and symptom instances in sorted entity
    order, reusing ``previous``'s instance objects under the same ids; raises
    DocumentError for an entity type the codebook lacks."""
    entities = graph.entities
    by_type = {t: (cb.causes_for_type(t), cb.symptoms_for_type(t)) for t in cb.type_names()}
    causes: dict[str, RootCauseInstance] = {}
    symptoms: dict[str, SymptomInstance] = {}
    for eid in sorted(entities):
        etype = entities[eid].entity_type
        if etype not in by_type:
            raise DocumentError(f"entity {eid!r} has undeclared type {etype!r}")
        cdefs, sdefs = by_type[etype]
        for cdef in cdefs:
            cid = instance_id(cdef.cause_name, eid)
            causes[cid] = previous.causes.get(cid) or RootCauseInstance(
                id=cid, cause_name=cdef.cause_name, host_entity=eid, prior=cdef.prior)
        for sdef in sdefs:
            sid = instance_id(sdef.symptom_name, eid)
            symptoms[sid] = previous.symptoms.get(sid) or SymptomInstance(
                id=sid, symptom_name=sdef.symptom_name, host_entity=eid,
                activation=sdef.activation)
    entity_types = {eid: e.entity_type for eid, e in entities.items()}
    return entity_types, causes, symptoms


def _assemble(graph: EntityGraph, cb: Codebook, max_depth: int,
              entity_types: dict[str, str], causes: dict[str, RootCauseInstance],
              symptoms: dict[str, SymptomInstance],
              previous: CausalityGraph = _NOTHING,
              stale: set[str] = frozenset()) -> CausalityGraph:
    """Compile the edge block of every cause. A cause of ``previous``
    outside ``stale`` keeps its block and truncation messages as they are;
    every other cause runs its rule closure."""
    dropped = stale | (previous.causes.keys() - causes.keys())
    blocks = dict(previous._out)
    messages_by_cause = dict(previous._truncations_by_cause)
    for cid in dropped:
        blocks.pop(cid, None)
        messages_by_cause.pop(cid, None)
    computed = [cid for cid in causes if cid in stale or cid not in previous.causes]
    rules = cb.rules_by_id
    closures: dict[tuple[str, str], tuple[dict, frozenset[str]]] = {}
    for cid in computed:
        eid = causes[cid].host_entity
        block, messages = {}, frozenset()
        for s0, p0 in cb.cause(causes[cid].cause_name).local_symptoms:
            closure = closures.get((s0, eid))
            if closure is None:
                reach, truncated = rule_closure(graph, cb, entity_types, [(s0, eid, ())],
                                                max_depth, by_probability=True)
                closure = closures[(s0, eid)] = (reach, frozenset(
                    f"depth limit {max_depth} reached expanding {s0}@{eid} "
                    f"at {sym}@{ent}" for sym, ent in truncated))
            reach, truncated_messages = closure
            messages |= truncated_messages
            for (sym, ent), (_, hops) in reach.items():
                prob = p0
                for hop in hops:
                    prob *= rules[hop.rule_id].attenuation
                key = (cid, instance_id(sym, ent))
                existing = block.get(key)
                if existing is None or prob > existing.probability:
                    block[key] = CausalEdge(cause_id=cid, symptom_id=key[1],
                                            probability=prob, origin_symptom=s0,
                                            local_probability=p0, derivation=hops)
        if block:
            blocks[cid] = block
        if messages:
            messages_by_cause[cid] = messages

    # Retract the blocks of stale and vanished causes, add the new ones.
    causes_by_symptom = _causes_by_symptom(
        dict(previous._in),
        [(cid, previous._out[cid]) for cid in dropped if cid in previous._out],
        [(cid, blocks[cid]) for cid in computed if cid in blocks])
    cg = CausalityGraph(causes, symptoms, None,
                        topology_revision=graph.revision,
                        entity_types=entity_types,
                        attribute_decls={t.type_name: t.attribute_decls for t in cb.types},
                        truncations=sorted(frozenset().union(*messages_by_cause.values())),
                        blocks=blocks, causes_by_symptom=causes_by_symptom)
    cg._source = (graph, cb, max_depth)
    cg._truncations_by_cause = messages_by_cause
    return cg


def _causes_by_symptom(index: dict[str, tuple[str, ...]], retracted, added):
    """``index`` (symptom -> cause ids) updated in place: the causes of the
    ``retracted`` (cause, block) pairs leave the symptoms of their blocks,
    and the causes of the ``added`` pairs join theirs."""
    gone = {cid for cid, _ in retracted}
    touched: dict[str, list[str]] = {}
    for _, block in retracted:
        for _, sid in block:
            touched.setdefault(sid, [])
    for cid, block in added:
        for _, sid in block:
            touched.setdefault(sid, []).append(cid)
    for sid, joined in touched.items():
        kept = [cid for cid in index.get(sid, ()) if cid not in gone]
        if kept or joined:
            index[sid] = tuple(kept + joined)
        else:
            del index[sid]
    return index


def refresh(cg: CausalityGraph, graph: EntityGraph, cb: Codebook,
            max_depth: int = DEFAULT_MAX_DEPTH) -> CausalityGraph:
    """Bring a causality snapshot in line with ``graph``, the current topology.

    Contract: the result equals ``instantiate(graph, cb, max_depth)``
    exactly, edge insertion order, derivations and truncations included.

    A cause's closure can change only if it settled a state on an entity
    whose view changed: an endpoint of an added or removed relation; an
    entity added, removed or replaced (same id, another record); or an old
    or new neighbour of one, since the closure checks neighbour types.
    Every settled state is an edge to a symptom on that entity, so the
    causes of those symptoms in ``cg`` are the stale ones. They and the new
    causes run their closures again through instantiate's own loop; every
    other cause keeps its edges and truncation messages. A graph built by
    hand, or from another codebook or ``max_depth``, is rebuilt in full.
    """
    if cg._source is None or cg._source[1] != cb or cg._source[2] != max_depth:
        return instantiate(graph, cb, max_depth=max_depth)
    old = cg._source[0]
    if old is graph:
        return cg
    changed_ids, changed_relations = graph.diff(old)
    touched = set(changed_ids)
    for rel in changed_relations:
        touched.update((rel.source, rel.target))
    for eid in changed_ids:
        for g in (old, graph):
            if eid in g:
                touched |= g.neighbors(eid)
    stale: set[str] = set()
    for eid in touched:
        if eid in cg.entity_types:
            for sdef in cb.symptoms_for_type(cg.entity_types[eid]):
                stale.update(cg._in.get(instance_id(sdef.symptom_name, eid), ()))
    instances = (_instances(graph, cb, cg) if changed_ids
                 else (cg.entity_types, cg.causes, cg.symptoms))
    return _assemble(graph, cb, max_depth, *instances, previous=cg, stale=stale)


def recompute_edge_probability(edge: CausalEdge, cb: Codebook) -> float:
    """Re-fold an edge's probability from its stored derivation (audit path)."""
    prob = edge.local_probability
    for hop in edge.derivation:
        prob *= cb.rules_by_id[hop.rule_id].attenuation
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
