"""Seeded random model generators and independent oracles for the test suite."""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from cie.attributes import (AttributeDependency, AttributeGraph, AttributeNode,
                            DependencyFunction)
from cie.causality import (DEFAULT_MAX_DEPTH, CausalEdge, CausalityGraph, RootCauseInstance,
                           SymptomInstance, instance_id, rule_closure)
from cie.inference import ActiveSymptomSet, Observation, validate_key
from cie.knowledge_base import (CODEBOOK_SCHEMA, ActivationSpec, Codebook, EntityTypeDef,
                                PropagationRule, RootCauseDef, SymptomDef)
from cie.topology import RELATION_KINDS, Entity, EntityGraph, Relation

SERVICE_UNIT = "u"


# -- codebook / topology -------------------------------------------------------

def random_codebook(rng: random.Random) -> Codebook:
    n_types = rng.randint(1, 4)
    types = []
    symptoms = []
    causes = []
    sym_counter = 0
    cause_counter = 0
    for t in range(n_types):
        type_name = f"t{t}"
        attrs = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
        types.append(EntityTypeDef(type_name=type_name, attribute_decls=attrs))
        type_symptoms = []
        for _ in range(rng.randint(1, 3)):
            name = f"sym{sym_counter}"
            sym_counter += 1
            if rng.random() < 0.7:
                activation = ActivationSpec(kind="threshold",
                                            attribute=rng.choice(attrs),
                                            comparator=rng.choice((">", "<", ">=", "<=")),
                                            threshold=rng.uniform(-5, 5))
            else:
                activation = ActivationSpec(kind="event")
            symptoms.append(SymptomDef(symptom_name=name, applies_to=type_name,
                                       activation=activation))
            type_symptoms.append(name)
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, len(type_symptoms))
            local = tuple((s, rng.uniform(0.05, 1.0))
                          for s in rng.sample(type_symptoms, k))
            causes.append(RootCauseDef(cause_name=f"cause{cause_counter}",
                                       applies_to=type_name, local_symptoms=local,
                                       prior=rng.uniform(0.005, 0.5)))
            cause_counter += 1

    rules = []
    symptom_names = [s.symptom_name for s in symptoms]
    for r in range(rng.randint(0, 6)):
        rules.append(PropagationRule(rule_id=f"rule{r}",
                                     from_symptom=rng.choice(symptom_names),
                                     over_relation=rng.choice(RELATION_KINDS),
                                     traversal=rng.choice(("forward", "reverse")),
                                     to_symptom=rng.choice(symptom_names),
                                     attenuation=rng.uniform(0.1, 1.0)))
    return Codebook(tuple(types), tuple(causes), tuple(symptoms), tuple(rules),
                    version="gen")


def render_codebook(cb: Codebook) -> dict:
    """Inverse of load_codebook: load_codebook(render_codebook(cb)) == cb."""
    def activation_dict(act: ActivationSpec) -> dict:
        if act.kind == "threshold":
            return {"kind": "threshold", "attribute": act.attribute,
                    "comparator": act.comparator, "threshold": act.threshold}
        return {"kind": act.kind}

    return {
        "schema": CODEBOOK_SCHEMA,
        "version": cb.version,
        "types": [{"name": t.type_name, "attributes": list(t.attribute_decls)}
                  for t in cb.types],
        "symptoms": [{"name": s.symptom_name, "applies_to": s.applies_to,
                      "activation": activation_dict(s.activation)} for s in cb.symptoms],
        "root_causes": [{"name": c.cause_name, "applies_to": c.applies_to,
                         "prior": c.prior,
                         "local_symptoms": [{"symptom": n, "probability": p}
                                            for n, p in c.local_symptoms]}
                        for c in cb.root_causes],
        "propagation_rules": [{"id": r.rule_id, "from_symptom": r.from_symptom,
                               "relation": r.over_relation, "traversal": r.traversal,
                               "to_symptom": r.to_symptom, "attenuation": r.attenuation}
                              for r in cb.rules],
    }


def random_topology(rng: random.Random, cb: Codebook,
                    n_entities: int | None = None) -> EntityGraph:
    if n_entities is None:
        n_entities = rng.randint(2, 10)
    type_names = sorted(cb.type_names())
    graph = EntityGraph()
    ids = []
    for i in range(n_entities):
        eid = f"e{i}"
        graph = graph.add_entity(Entity(id=eid, name=eid,
                                        entity_type=rng.choice(type_names)))
        ids.append(eid)
    if len(ids) >= 2:
        for _ in range(n_entities * 2):
            src, dst = rng.sample(ids, 2)
            rel = Relation(src, dst, rng.choice(RELATION_KINDS))
            if rel not in graph.relations:
                graph = graph.add_relation(rel)
    return graph


def random_mutation(rng: random.Random, graph: EntityGraph, cb: Codebook,
                    counter: list[int]) -> EntityGraph:
    """Apply one random structurally valid mutation. A replacement removes
    an entity and re-adds its id, with a random type, and its relations."""
    choices = ["add_entity"]
    if len(graph) > 1:
        choices += ["remove_entity", "add_relation", "replace_entity"]
    if graph.relations:
        choices.append("remove_relation")
    op = rng.choice(choices)
    if op == "add_entity":
        counter[0] += 1
        eid = f"m{counter[0]}"
        return graph.add_entity(Entity(id=eid, name=eid,
                                       entity_type=rng.choice(sorted(cb.type_names()))))
    if op == "remove_entity":
        return graph.remove_entity(rng.choice(sorted(graph.entity_ids())))
    if op == "replace_entity":
        eid = rng.choice(sorted(graph.entity_ids()))
        relations = sorted((r for r in graph.relations if eid in (r.source, r.target)),
                           key=lambda r: (r.source, r.target, r.kind))
        graph = graph.remove_entity(eid).add_entity(
            Entity(id=eid, name=eid, entity_type=rng.choice(sorted(cb.type_names()))))
        for rel in relations:
            graph = graph.add_relation(rel)
        return graph
    if op == "remove_relation":
        return graph.remove_relation(rng.choice(sorted(
            graph.relations, key=lambda r: (r.source, r.target, r.kind))))
    ids = sorted(graph.entity_ids())
    for _ in range(20):
        src, dst = rng.sample(ids, 2)
        rel = Relation(src, dst, rng.choice(RELATION_KINDS))
        if rel not in graph.relations:
            return graph.add_relation(rel)
    # relation slots saturated; fall back to a mutation that always exists
    counter[0] += 1
    eid = f"m{counter[0]}"
    return graph.add_entity(Entity(id=eid, name=eid,
                                   entity_type=rng.choice(sorted(cb.type_names()))))


def assert_same_causality(actual: CausalityGraph, expected: CausalityGraph):
    """Everything a reader of ``actual`` sees equals ``expected``, dict order
    included: instances, edges with their derivations, truncations, and the
    per-cause and per-symptom indexes agree with the edges."""
    assert actual.topology_revision == expected.topology_revision
    assert list(actual.causes.items()) == list(expected.causes.items())
    assert list(actual.symptoms.items()) == list(expected.symptoms.items())
    assert list(actual.edges.items()) == list(expected.edges.items())
    assert actual.truncations == expected.truncations
    assert actual.entity_types == expected.entity_types
    assert actual.attribute_decls == expected.attribute_decls
    edges_from: dict[str, list[CausalEdge]] = {}
    causes_of: dict[str, set[str]] = {}
    for (cid, sid), edge in actual.edges.items():
        edges_from.setdefault(cid, []).append(edge)
        causes_of.setdefault(sid, set()).add(cid)
    for cid in actual.causes:
        assert actual.edges_from(cid) == edges_from.get(cid, [])
    for sid in actual.symptoms:
        assert actual.causes_of(sid) == causes_of.get(sid, set())


def eager_causality(graph: EntityGraph, cb: Codebook,
                    max_depth: int = DEFAULT_MAX_DEPTH) -> CausalityGraph:
    """Reference build: every cause's edge block compiled up front, in
    cause order, one closure per (local symptom, entity, local probability)
    shared by the causes on that entity; the graph is given all its edges."""
    entities = graph.entities
    causes: dict[str, RootCauseInstance] = {}
    symptoms: dict[str, SymptomInstance] = {}
    for eid in sorted(entities):
        etype = entities[eid].entity_type
        for cdef in cb.causes_for_type(etype):
            cid = instance_id(cdef.cause_name, eid)
            causes[cid] = RootCauseInstance(id=cid, cause_name=cdef.cause_name,
                                            host_entity=eid, prior=cdef.prior)
        for sdef in cb.symptoms_for_type(etype):
            sid = instance_id(sdef.symptom_name, eid)
            symptoms[sid] = SymptomInstance(id=sid, symptom_name=sdef.symptom_name,
                                            host_entity=eid, activation=sdef.activation)
    entity_types = {eid: e.entity_type for eid, e in entities.items()}
    edges: dict[tuple[str, str], CausalEdge] = {}
    messages: set[str] = set()
    closures: dict[tuple[str, str, float], dict] = {}
    for cid, cause in causes.items():
        eid = cause.host_entity
        for s0, p0 in cb.cause(cause.cause_name).local_symptoms:
            reach = closures.get((s0, eid, p0))
            if reach is None:
                reach, truncated = rule_closure(graph, cb, entity_types, [(s0, eid, ())],
                                                max_depth, by_probability=True,
                                                start_probability=p0)
                closures[(s0, eid, p0)] = reach
                messages.update(f"depth limit {max_depth} reached expanding {s0}@{eid} "
                                f"at {sym}@{ent}" for sym, ent in truncated)
            for (sym, ent), (prob, hops) in reach.items():
                key = (cid, instance_id(sym, ent))
                existing = edges.get(key)
                if existing is None or prob > existing.probability:
                    edges[key] = CausalEdge(cause_id=cid, symptom_id=key[1],
                                            probability=prob, origin_symptom=s0,
                                            local_probability=p0, derivation=hops)
    return CausalityGraph(causes, symptoms, edges, graph.revision, entity_types,
                          {t.type_name: t.attribute_decls for t in cb.types},
                          truncations=tuple(sorted(messages)))


# -- synthetic bipartite graphs for inference tests ---------------------------

def random_inference_graph(rng: random.Random,
                           max_causes: int = 12,
                           max_symptoms: int = 20) -> CausalityGraph:
    n_causes = rng.randint(1, max_causes)
    n_symptoms = rng.randint(1, max_symptoms)
    hosts = [f"e{i}" for i in range(rng.randint(1, 6))]
    causes = {}
    for i in range(n_causes):
        cid = f"r{i}@{hosts[i % len(hosts)]}"
        causes[cid] = RootCauseInstance(id=cid, cause_name=f"r{i}",
                                        host_entity=cid.split("@")[1],
                                        prior=rng.uniform(0.001, 0.9))
    symptoms = {}
    for j in range(n_symptoms):
        sid = f"s{j}@{hosts[j % len(hosts)]}"
        symptoms[sid] = SymptomInstance(id=sid, symptom_name=f"s{j}",
                                        host_entity=sid.split("@")[1],
                                        activation=ActivationSpec(kind="event"))
    edges = {}
    for cid in causes:
        for sid in symptoms:
            if rng.random() < 0.35:
                p = rng.uniform(0.05, 1.0)
                edges[(cid, sid)] = CausalEdge(cause_id=cid, symptom_id=sid,
                                               probability=p,
                                               origin_symptom=symptoms[sid].symptom_name,
                                               local_probability=p)
    entity_types = {h: "svc" for h in hosts}
    return CausalityGraph(causes, symptoms, edges, topology_revision=0,
                          entity_types=entity_types, attribute_decls={"svc": ()})


def random_active_set(rng: random.Random, cg: CausalityGraph,
                      allow_empty: bool = True) -> ActiveSymptomSet:
    sids = sorted(cg.symptoms)
    low = 0 if allow_empty else 1
    k = rng.randint(low, len(sids))
    return ActiveSymptomSet(symptoms=frozenset(rng.sample(sids, k)), as_of=1)


def brute_force_ranking(cg: CausalityGraph, active: ActiveSymptomSet,
                        leak: float) -> list[tuple[str, float]]:
    """Independent oracle: direct float products over every cause with an
    edge to an active symptom. The leak scores a candidate's missing edges;
    it makes no cause a candidate, so symptoms no cause explains rank none."""
    candidates = {cid for (cid, sid) in cg.edges if sid in active.symptoms}
    scored = []
    for cid in candidates:
        product = cg.causes[cid].prior
        for sid in active.symptoms:
            edge = cg.edges.get((cid, sid))
            product *= edge.probability if edge is not None else leak
        scored.append((cid, product))
    scored.sort(key=lambda item: (-item[1], -cg.causes[item[0]].prior, item[0]))
    return scored


def replay_activation(cg: CausalityGraph, observations: list[Observation],
                      scope: set[str] | None = None) -> ActiveSymptomSet:
    """Raw-stream reference for symptom activation: replay every observation
    in order, then test each symptom instance. An instance is active iff a
    symptom event names it, or its threshold predicate holds on the most
    recent attribute sample for its host (a tick tie goes to the later one).
    Raises the error of the first observation that does not validate."""
    latest: dict[tuple[str, str], tuple[int, float]] = {}
    events: set[tuple[str, str]] = set()
    as_of = 0
    for obs in observations:
        validate_key(cg, (obs.target, obs.attribute, obs.symptom))
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


def observation_to_dict(obs: Observation) -> dict:
    record: dict = {"tick": obs.tick, "entity": obs.target}
    if obs.attribute is not None:
        record["attribute"] = obs.attribute
        record["value"] = obs.value
    else:
        record["symptom"] = obs.symptom
    return record


def render_observations(observations: list[Observation]) -> str:
    """Inverse of parse_observations: one sorted-key JSON line per observation."""
    return "".join(json.dumps(observation_to_dict(o), sort_keys=True) + "\n"
                   for o in observations)


# -- oracles over topology/codebook instantiation -----------------------------

def one_hop(graph: EntityGraph, cb: Codebook, sym: str, ent: str):
    """(rule, neighbour) pairs one rule hop from ``sym`` on ``ent``, found by
    scanning ``cb.rules`` and ``graph.relations``, not the step and adjacency
    tables the rule closure walks. A forward rule follows a relation from
    its source to its target; a reverse rule walks it back."""
    for rule in cb.rules:
        if rule.from_symptom != sym:
            continue
        for rel in graph.relations:
            if rel.kind != rule.over_relation:
                continue
            ends = (rel.source, rel.target)
            if rule.traversal == "reverse":
                ends = ends[::-1]
            if ends[0] == ent:
                yield rule, ends[1]


def enumerate_best_paths(graph: EntityGraph, cb: Codebook, start_symptom: str,
                         start_entity: str) -> dict[tuple[str, str], float]:
    """Exhaustive state-simple path enumeration for the max-product closure.

    Attenuations are <= 1, so dropping paths that revisit a (symptom, entity)
    state never loses the maximum.
    """
    entity_types = {eid: e.entity_type for eid, e in graph.entities.items()}
    applies_to = {s.symptom_name: s.applies_to for s in cb.symptoms}
    best: dict[tuple[str, str], float] = {}

    def visit(sym: str, ent: str, prob: float, seen: frozenset):
        state = (sym, ent)
        if prob > best.get(state, 0.0):
            best[state] = prob
        for rule, nbr in one_hop(graph, cb, sym, ent):
            nxt = (rule.to_symptom, nbr)
            if (entity_types[nbr] == applies_to[rule.to_symptom]
                    and nxt not in seen):
                visit(rule.to_symptom, nbr, prob * rule.attenuation, seen | {nxt})

    visit(start_symptom, start_entity, 1.0, frozenset({(start_symptom, start_entity)}))
    return best


def brute_force_edges(graph: EntityGraph, cb: Codebook) -> dict[tuple[str, str], float]:
    """Expected (cause_id, symptom_id) -> max probability, by enumeration."""
    expected: dict[tuple[str, str], float] = {}
    for eid, entity in graph.entities.items():
        for cdef in cb.causes_for_type(entity.entity_type):
            cid = f"{cdef.cause_name}@{eid}"
            for s0, p0 in cdef.local_symptoms:
                for (sym, ent), rel_prob in enumerate_best_paths(graph, cb, s0, eid).items():
                    key = (cid, f"{sym}@{ent}")
                    prob = p0 * rel_prob
                    if prob > expected.get(key, 0.0):
                        expected[key] = prob
    return expected


def blast_fixpoint(graph: EntityGraph, cb: Codebook, cg, cause_id: str) -> set[str]:
    """Iterative one-hop rule expansion of a cause's effects until fixpoint."""
    entity_types = cg.entity_types
    applies_to = {s.symptom_name: s.applies_to for s in cb.symptoms}
    states = set()
    for sid in cg.effects(cause_id):
        inst = cg.symptoms[sid]
        states.add((inst.symptom_name, inst.host_entity))
    changed = True
    while changed:
        changed = False
        for sym, ent in list(states):
            for rule, nbr in one_hop(graph, cb, sym, ent):
                state = (rule.to_symptom, nbr)
                if (entity_types.get(nbr) == applies_to[rule.to_symptom]
                        and state not in states):
                    states.add(state)
                    changed = True
    hosts = {ent for _, ent in states}
    hosts.add(cg.cause(cause_id).host_entity)
    return hosts


class Hop(NamedTuple):
    """One propagation step in effect direction (from_entity suffers first)."""

    rule_id: str
    from_entity: str
    to_entity: str
    kind: str


def derivation_to_hops(derivation, cb: Codebook) -> tuple[Hop, ...]:
    """Re-orient stored relation hops into effect direction using each rule's
    traversal: forward rules flow source->target, reverse rules the opposite."""
    rules = cb.rules_by_id
    return tuple(Hop(h.rule_id, h.source, h.target, h.kind)
                 if rules[h.rule_id].traversal == "forward"
                 else Hop(h.rule_id, h.target, h.source, h.kind)
                 for h in derivation)


def reference_paths(graph: EntityGraph, cg, cb: Codebook, cause_id: str,
                    max_depth: int) -> dict[str, tuple[Hop, ...]]:
    """Reference encoder, part one: the first, fewest-hop derivation of every
    entity in a cause's blast radius, re-oriented by rule traversal."""
    host = cg.cause(cause_id).host_entity
    effects = sorted(cg.edges_from(cause_id), key=lambda e: (len(e.derivation), e.symptom_id))
    settled, _ = rule_closure(
        graph, cb, cg.entity_types,
        [(cg.symptoms[e.symptom_id].symptom_name, cg.symptoms[e.symptom_id].host_entity,
          e.derivation) for e in effects],
        max_depth, by_probability=False)
    paths = {host: ()}
    for (_, ent), (_, derivation) in settled.items():
        if ent not in paths:
            paths[ent] = derivation_to_hops(derivation, cb)
    return paths


def reference_via(paths: dict[str, tuple[Hop, ...]]) -> dict[str, tuple[str, ...]]:
    """Reference encoder, part two: ``paths`` in the wire ``via`` form, the
    predecessor form wherever the predecessor's path is a prefix."""
    via = {}
    for ent, hops in paths.items():
        if not hops:
            continue
        last = hops[-1]
        if paths.get(last.from_entity) == hops[:-1]:
            via[ent] = (last.from_entity, last.rule_id)
        else:
            via[ent] = tuple(x for h in hops for x in (h.from_entity, h.rule_id))
    return via


def expand_via(via: dict, transitive, cb: Codebook, host: str) -> dict[str, tuple[Hop, ...]]:
    """Client-side decoder of a blast radius's wire ``via``: the full path
    of every transitive entity, as ``reference_paths`` builds it. An entry
    of length 2 is [from_entity, rule_id], the predecessor's path plus one
    hop; a longer one is the chain [e0, r1, e1, ..., e_{k-1}, r_k]. Each
    hop's relation kind is its rule's."""
    assert set(transitive) == set(via) | {host} and host not in via
    rules = cb.rules_by_id
    paths: dict[str, tuple[Hop, ...]] = {host: ()}
    for start in via:
        pending = [start]
        while pending:
            ent = pending[-1]
            if ent in paths:
                pending.pop()
                continue
            entry = via[ent]
            if len(entry) == 2:
                pred, rule_id = entry
                if pred not in paths:
                    assert pred not in pending, f"predecessor cycle through {pred}"
                    pending.append(pred)
                    continue
                path = paths[pred] + (Hop(rule_id, pred, ent, rules[rule_id].over_relation),)
            else:
                assert len(entry) % 2 == 0 and len(entry) > 2, entry
                chain = list(entry[0::2]) + [ent]
                path = tuple(Hop(rule_id, a, b, rules[rule_id].over_relation)
                             for rule_id, a, b in zip(entry[1::2], chain, chain[1:]))
            paths[ent] = path
            pending.pop()
    return paths


def decode_causes(ranked: list[dict], symptoms: list[str]) -> list[dict]:
    """Client-side decoder of tool/3 ranked causes to their tool/2 form:
    ``explained`` holds ascending indexes into ``symptoms``, the sorted
    active symptom ids, and ``unexplained`` is the complement, in the same
    order."""
    decoded = []
    for cause in ranked:
        indexes = cause["explained"]
        assert indexes == sorted(set(indexes)), indexes
        assert all(0 <= i < len(symptoms) for i in indexes), indexes
        explained = set(indexes)
        entry = {key: cause[key] for key in ("cause", "cause_name", "entity", "score")}
        entry["explained"] = [symptoms[i] for i in indexes]
        entry["unexplained"] = [sid for i, sid in enumerate(symptoms) if i not in explained]
        if "entity_name" in cause:
            entry["entity_name"] = cause["entity_name"]
        decoded.append(entry)
    return decoded


def decode_tool3(method: str, payload: dict) -> dict:
    """Client-side decoder of a tool/3 payload back to tool/2, key order
    included, so that the re-encoded line equals the tool/2 line.

    ``get_root_causes`` drops ``symptoms`` and expands ``best`` (a cause
    reference) to ``ranked[0]``; ``get_environment_health`` decodes its
    causes against ``active_symptoms``; ``get_topology`` gives every entity
    its ``metadata`` (``{}`` when absent) and spells out each
    ``[source, target, kind]`` triple. Other payloads are unchanged."""
    decoded = dict(payload)
    if method == "get_root_causes":
        symptoms = decoded.pop("symptoms")
        assert symptoms == sorted(set(symptoms)), symptoms
        decoded["ranked"] = decode_causes(payload["ranked"], symptoms)
        if payload["best"] is not None:
            best = decoded["ranked"][0]
            assert payload["best"] == {key: best[key]
                                       for key in ("cause", "cause_name", "entity")}
            decoded["best"] = best
    elif method == "get_environment_health":
        symptoms = [s["id"] for s in payload["active_symptoms"]]
        assert symptoms == sorted(set(symptoms)), symptoms
        decoded["root_causes"] = decode_causes(payload["root_causes"], symptoms)
    elif method == "get_topology":
        entities = []
        for entity in payload["entities"]:
            assert entity.get("metadata", True), "an empty metadata is omitted"
            full = {key: entity[key] for key in ("id", "type", "team")}
            full["metadata"] = entity.get("metadata", {})
            if "name" in entity:
                full["name"] = entity["name"]
            entities.append(full)
        assert payload["relations"] == sorted(payload["relations"])
        decoded["entities"] = entities
        decoded["relations"] = [{"source": s, "target": t, "kind": k}
                                for s, t, k in payload["relations"]]
    return decoded


# -- random attribute DAGs -----------------------------------------------------

def random_attribute_dag(rng: random.Random, max_nodes: int = 12) -> AttributeGraph:
    n = rng.randint(1, max_nodes)
    ag = AttributeGraph()
    for i in range(n):
        ag.add_node(AttributeNode(id=f"a{i}", host_entity="e",
                                  attribute_name=f"a{i}",
                                  value=rng.uniform(-10.0, 10.0), unit=SERVICE_UNIT))
    for j in range(1, n):
        upstream = list(range(j))
        k = rng.randint(0, min(3, len(upstream)))
        if k == 0:
            continue
        parents = rng.sample(upstream, k)
        if k == 1:
            form = rng.choice(("affine", "sum", "max", "table"))
        else:
            form = rng.choice(("sum", "max"))
        for p in parents:
            if form == "affine":
                fn = DependencyFunction(form="affine", a=rng.uniform(-3, 3),
                                        b=rng.uniform(-5, 5))
            elif form == "table":
                xs = sorted(rng.uniform(-20, 20) for _ in range(3))
                while len(set(xs)) < 3:
                    xs = sorted(rng.uniform(-20, 20) for _ in range(3))
                ys = sorted(rng.uniform(-5, 5) for _ in range(3))
                fn = DependencyFunction(form="table",
                                        points=tuple(zip(xs, ys)))
            else:
                fn = DependencyFunction(form=form)
            ag.add_dependency(AttributeDependency(parent=f"a{p}", dependent=f"a{j}",
                                                  function=fn))
    return ag


def recursive_evaluate(ag: AttributeGraph) -> dict[str, float]:
    """Independent recursive oracle for attribute evaluation."""
    memo: dict[str, float] = {}

    def value_of(aid: str) -> float:
        if aid in memo:
            return memo[aid]
        deps = ag.parents_of(aid)
        if not deps:
            memo[aid] = ag.nodes[aid].value
            return memo[aid]
        form = deps[0].function.form
        parent_vals = [value_of(d.parent) for d in sorted(deps, key=lambda d: d.parent)]
        if form == "sum":
            acc = 0.0
            for v in parent_vals:
                acc += v
            memo[aid] = acc
        elif form == "max":
            memo[aid] = max(parent_vals)
        elif form == "affine":
            memo[aid] = deps[0].function.a * parent_vals[0] + deps[0].function.b
        else:
            memo[aid] = deps[0].function.lookup(parent_vals[0])
        return memo[aid]

    return {aid: value_of(aid) for aid in ag.nodes}


def random_topological_order(rng: random.Random, ag: AttributeGraph) -> list[str]:
    indegree = {aid: len(ag.parents_of(aid)) for aid in ag.nodes}
    children: dict[str, list[str]] = {}
    for aid in ag.nodes:
        for dep in ag.parents_of(aid):
            children.setdefault(dep.parent, []).append(aid)
    ready = [aid for aid, d in indegree.items() if d == 0]
    order = []
    while ready:
        idx = rng.randrange(len(ready))
        aid = ready.pop(idx)
        order.append(aid)
        for child in children.get(aid, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return order
