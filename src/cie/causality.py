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

Each cause's edges form one block, compiled on demand: ``instantiate``
builds the instances only, and a block is compiled the first time it is
read and memoized on the graph. ``causes_of`` finds the causes of a symptom
by walking the rules backwards from it, so a query compiles only the blocks
of the causes that can explain what it asks about (demand-driven evaluation
of recursive rules, the magic sets of Bancilhon et al., 1986, over the
compiled codebook of Yemini et al., 1996). The memo only ever gains fully
built values, so a graph stays value-immutable: every reader gets the same
answers, whenever and from whichever thread it asks. A new topology
revision gets a fresh graph from ``instantiate``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DocumentError, UnknownIdError
from .knowledge_base import ActivationSpec, Codebook
from .topology import EntityGraph

DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True, slots=True)
class RootCauseInstance:
    id: str
    cause_name: str
    host_entity: str
    prior: float


@dataclass(frozen=True, slots=True)
class SymptomInstance:
    id: str
    symptom_name: str
    host_entity: str
    activation: ActivationSpec


@dataclass(frozen=True, slots=True)
class DerivationHop:
    rule_id: str
    source: str
    target: str
    kind: str


@dataclass(frozen=True, slots=True)
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
    must not change them afterwards. A graph given its ``edges`` holds them
    all from the start. ``instantiate`` passes None instead and records what
    it built the graph from; each cause's block is then compiled on first
    read, and ``edges`` and ``truncations`` compile every missing one.
    """

    def __init__(self, causes: dict[str, RootCauseInstance],
                 symptoms: dict[str, SymptomInstance],
                 edges: dict[tuple[str, str], CausalEdge] | None,
                 topology_revision: int,
                 entity_types: dict[str, str],
                 attribute_decls: dict[str, tuple[str, ...]],
                 truncations: tuple[str, ...] = ()):
        self.causes = causes
        self.symptoms = symptoms
        self.topology_revision = topology_revision
        self.entity_types = entity_types
        self.attribute_decls = attribute_decls
        self._edges = edges
        self._truncations = None if edges is None else tuple(truncations)
        # The memo: compiled blocks by cause, keyed as in ``edges``; the
        # truncation messages of the compiled blocks that have any; and the
        # causes of each symptom asked about. Each entry is written once,
        # fully built, messages before their block, so a reader in another
        # thread sees a block whole, with its messages, or not at all.
        self._out: dict[str, dict[tuple[str, str], CausalEdge]] = {}
        self._messages: dict[str, frozenset[str]] = {}
        self._in: dict[str, tuple[str, ...]] = {}
        # What instantiate built this graph from; None when given its edges.
        self._source: tuple[EntityGraph, Codebook, int] | None = None
        if edges is not None:
            causes_of: dict[str, list[str]] = {}
            for cid in causes:
                self._out[cid] = {}
            for key, edge in edges.items():
                self._out.setdefault(key[0], {})[key] = edge
                causes_of.setdefault(key[1], []).append(key[0])
            self._in = {sid: tuple(cids) for sid, cids in causes_of.items()}

    @property
    def edges(self) -> dict[tuple[str, str], CausalEdge]:
        if self._edges is None:
            edges: dict[tuple[str, str], CausalEdge] = {}
            for cid in self.causes:
                edges.update(self._block(cid))
            self._edges = edges
        return self._edges

    @property
    def truncations(self) -> tuple[str, ...]:
        """Every depth-limit message of every block, sorted."""
        if self._truncations is None:
            messages: set[str] = set()
            for cid in self.causes:
                self._block(cid)
                messages.update(self._messages.get(cid, ()))
            self._truncations = tuple(sorted(messages))
        return self._truncations

    def _block(self, cause_id: str) -> dict[tuple[str, str], CausalEdge]:
        """The edge block of ``cause_id``, compiled and memoized if missing."""
        block = self._out.get(cause_id)
        if block is None:
            cause = self.causes.get(cause_id)
            if cause is None or self._source is None:
                return {}
            graph, cb, max_depth = self._source
            block, messages = _compile(graph, cb, max_depth, self.entity_types, cause)
            if messages:
                self._messages[cause_id] = messages
            self._out[cause_id] = block
        return block

    def _candidates(self, symptom_id: str) -> dict[str, None]:
        """A superset of the causes of ``symptom_id``: those whose local
        symptom the rules reach within ``max_depth`` hops backwards from it.
        The closure behind a block only settles states within ``max_depth``
        hops of a local symptom, so no other cause's block can hold it."""
        inst = self.symptoms.get(symptom_id)
        if inst is None or self._source is None:
            return {}
        graph, cb, max_depth = self._source
        reach, _ = rule_closure(graph, cb, self.entity_types,
                                [(inst.symptom_name, inst.host_entity, ())],
                                max_depth, by_probability=False, steps=cb.back_steps)
        return {instance_id(cdef.cause_name, ent): None
                for sym, ent in reach for cdef in cb.local_causes[sym]}

    def cause(self, cause_id: str) -> RootCauseInstance:
        try:
            return self.causes[cause_id]
        except KeyError:
            raise UnknownIdError(f"unknown root cause instance {cause_id!r}") from None

    def effects(self, cause_id: str) -> set[str]:
        """Symptom instance ids with an edge from ``cause_id``."""
        self.cause(cause_id)
        return {sid for _, sid in self._block(cause_id)}

    def edge(self, cause_id: str, symptom_id: str) -> CausalEdge | None:
        block = self._out.get(cause_id)
        if block is None:
            block = self._block(cause_id)
        return block.get((cause_id, symptom_id))

    def edges_from(self, cause_id: str) -> list[CausalEdge]:
        return list(self._block(cause_id).values())

    def causes_of(self, symptom_id: str) -> set[str]:
        found = self._in.get(symptom_id)
        if found is None:
            found = tuple(cid for cid in self._candidates(symptom_id)
                          if (cid, symptom_id) in self._block(cid))
            if symptom_id in self.symptoms:
                self._in[symptom_id] = found
        return set(found)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalityGraph):
            return NotImplemented
        return (self.causes == other.causes and self.symptoms == other.symptoms
                and self.edges == other.edges
                and self.topology_revision == other.topology_revision
                and self.truncations == other.truncations)

    def __repr__(self) -> str:
        return (f"CausalityGraph(causes={len(self.causes)}, symptoms={len(self.symptoms)}, "
                f"compiled_blocks={len(self._out)}, revision={self.topology_revision})")


def instance_id(name: str, entity_id: str) -> str:
    return f"{name}@{entity_id}"


def rule_closure(graph: EntityGraph, cb: Codebook, entity_types: dict[str, str],
                 starts, max_depth: int, by_probability: bool, steps=None,
                 start_probability: float = 1.0):
    """The rule closure from ``starts``, a sequence of (symptom, entity,
    derivation) states: every (symptom, entity) state the codebook's rules
    reach over ``graph``, each settled once.

    ``by_probability`` pops states by (-probability, hops, entity, symptom),
    a max-product Dijkstra; otherwise by hop count, then discovery order.
    Hops count from 0 at every start; a state's probability is
    ``start_probability`` times the attenuations applied after the start,
    folded left to right. Returns ``(settled, truncated)``: ``settled`` maps
    each state, in pop order, to (probability, start derivation + the
    DerivationHops taken), and ``truncated`` holds the states whose
    expansion hit ``max_depth``.
    ``steps`` is ``cb.steps`` unless given; ``cb.back_steps`` walks the
    rules backwards, so a state is settled when the rules lead from it to
    a start.
    """
    if steps is None:
        steps = cb.steps
    p0 = start_probability
    heap = [((-p0, 0, ent, sym, i) if by_probability else (0, i), 0, p0, sym, ent, hops)
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
        for kind, rule, direction, next_type, next_sym in steps[sym]:
            for nbr in graph.adjacent(ent, kind, direction):
                if entity_types.get(nbr) != next_type or (next_sym, nbr) in settled:
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
                key = ((-p, n_hops + 1, nbr, next_sym, counter) if by_probability
                       else (n_hops + 1, counter))
                heapq.heappush(heap, (key, n_hops + 1, p, next_sym, nbr, hops + (hop,)))
    return settled, truncated


def instantiate(graph: EntityGraph, cb: Codebook,
                max_depth: int = DEFAULT_MAX_DEPTH) -> CausalityGraph:
    """Apply the codebook to a topology snapshot.

    Builds the cause and symptom instances, in sorted entity order; each
    cause's edge block is compiled when first read. Deterministic: equal
    inputs yield equal graphs including derivations. Depth-limited rule
    application reports truncation as warnings on the returned graph
    rather than failing. Raises DocumentError for an entity type the
    codebook lacks.
    """
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
            causes[cid] = RootCauseInstance(id=cid, cause_name=cdef.cause_name,
                                            host_entity=eid, prior=cdef.prior)
        for sdef in sdefs:
            sid = instance_id(sdef.symptom_name, eid)
            symptoms[sid] = SymptomInstance(id=sid, symptom_name=sdef.symptom_name,
                                            host_entity=eid, activation=sdef.activation)
    cg = CausalityGraph(causes, symptoms, None, topology_revision=graph.revision,
                        entity_types={eid: e.entity_type for eid, e in entities.items()},
                        attribute_decls={t.type_name: t.attribute_decls for t in cb.types})
    cg._source = (graph, cb, max_depth)
    return cg


def _compile(graph: EntityGraph, cb: Codebook, max_depth: int,
             entity_types: dict[str, str], cause: RootCauseInstance):
    """One cause's edge block and its truncation messages: a max-probability
    rule closure from each local symptom, the likelier edge kept where two
    reach the same symptom. Each closure starts at the local probability, so
    the order it settles states in and the probability it stores are the
    same float, the fold ``recompute_edge_probability`` audits."""
    eid = cause.host_entity
    block: dict[tuple[str, str], CausalEdge] = {}
    messages: set[str] = set()
    for s0, p0 in cb.cause(cause.cause_name).local_symptoms:
        reach, truncated = rule_closure(graph, cb, entity_types, [(s0, eid, ())],
                                        max_depth, by_probability=True, start_probability=p0)
        messages.update(f"depth limit {max_depth} reached expanding {s0}@{eid} "
                        f"at {sym}@{ent}" for sym, ent in truncated)
        for (sym, ent), (prob, hops) in reach.items():
            key = (cause.id, instance_id(sym, ent))
            existing = block.get(key)
            if existing is None or prob > existing.probability:
                block[key] = CausalEdge(cause_id=cause.id, symptom_id=key[1],
                                        probability=prob, origin_symptom=s0,
                                        local_probability=p0, derivation=hops)
    return block, frozenset(messages)


def refresh(cg: CausalityGraph, graph: EntityGraph, cb: Codebook,
            max_depth: int = DEFAULT_MAX_DEPTH) -> CausalityGraph:
    """``instantiate`` for ``graph``; ``cg`` is not read. The name and its four
    parameters stay only for the benchmark in ``perfbench``, which times and
    calls it; it goes once that benchmark calls ``instantiate`` instead."""
    return instantiate(graph, cb, max_depth=max_depth)


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
