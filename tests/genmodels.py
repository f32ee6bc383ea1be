"""Seeded random model generators and independent oracles for the test suite."""

from __future__ import annotations

import random

from cie.attributes import (AttributeDependency, AttributeGraph, AttributeNode,
                            DependencyFunction)
from cie.causality import (DEFAULT_MAX_DEPTH, CausalEdge, CausalityGraph, RootCauseInstance,
                           SymptomInstance, instance_id, rule_closure)
from cie.impact import ImpactHop
from cie.inference import ActiveSymptomSet
from cie.knowledge_base import (ActivationSpec, Codebook, EntityTypeDef,
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
    """Independent oracle: direct float products over every candidate cause."""
    if not active.symptoms:
        return []
    candidates = set()
    for sid in active.symptoms:
        for (cid, esid) in cg.edges:
            if esid == sid:
                candidates.add(cid)
    if not candidates:
        candidates = set(cg.causes)
    scored = []
    for cid in candidates:
        product = cg.causes[cid].prior
        for sid in active.symptoms:
            edge = cg.edges.get((cid, sid))
            product *= edge.probability if edge is not None else leak
        scored.append((cid, product))
    scored.sort(key=lambda item: (-item[1], -cg.causes[item[0]].prior, item[0]))
    return scored


# -- oracles over topology/codebook instantiation -----------------------------

def enumerate_best_paths(graph: EntityGraph, cb: Codebook, start_symptom: str,
                         start_entity: str) -> dict[tuple[str, str], float]:
    """Exhaustive state-simple path enumeration for the max-product closure.

    Attenuations are <= 1, so dropping paths that revisit a (symptom, entity)
    state never loses the maximum.
    """
    entity_types = {eid: e.entity_type for eid, e in graph.entities.items()}
    best: dict[tuple[str, str], float] = {}

    def visit(sym: str, ent: str, prob: float, seen: frozenset):
        state = (sym, ent)
        if prob > best.get(state, 0.0):
            best[state] = prob
        for kind in RELATION_KINDS:
            for rule in cb.rules_for(sym, kind):
                direction = "out" if rule.traversal == "forward" else "in"
                target_type = cb.symptom(rule.to_symptom).applies_to
                for nbr in graph.neighbors(ent, kind, direction):
                    if entity_types[nbr] != target_type:
                        continue
                    nxt = (rule.to_symptom, nbr)
                    if nxt in seen:
                        continue
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
    states = set()
    for sid in cg.effects(cause_id):
        inst = cg.symptoms[sid]
        states.add((inst.symptom_name, inst.host_entity))
    changed = True
    while changed:
        changed = False
        for sym, ent in list(states):
            for kind in RELATION_KINDS:
                for rule in cb.rules_for(sym, kind):
                    direction = "out" if rule.traversal == "forward" else "in"
                    target_type = cb.symptom(rule.to_symptom).applies_to
                    for nbr in graph.neighbors(ent, kind, direction):
                        if entity_types.get(nbr) != target_type:
                            continue
                        state = (rule.to_symptom, nbr)
                        if state not in states:
                            states.add(state)
                            changed = True
    hosts = {ent for _, ent in states}
    hosts.add(cg.cause(cause_id).host_entity)
    return hosts


def expand_via(via: dict, transitive, cb: Codebook, host: str) -> dict[str, tuple]:
    """Client-side decoder of a blast radius's wire ``via``: the full path
    of every transitive entity, as ``BlastRadius.paths`` holds it. An entry
    of length 2 is [from_entity, rule_id], the predecessor's path plus one
    hop; a longer one is the chain [e0, r1, e1, ..., e_{k-1}, r_k]. Each
    hop's relation kind is its rule's."""
    assert set(transitive) == set(via) | {host} and host not in via
    rules = cb.rules_by_id
    paths: dict[str, tuple[ImpactHop, ...]] = {host: ()}
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
                path = paths[pred] + (ImpactHop(rule_id, pred, ent,
                                                rules[rule_id].over_relation),)
            else:
                assert len(entry) % 2 == 0 and len(entry) > 2, entry
                chain = list(entry[0::2]) + [ent]
                path = tuple(ImpactHop(rule_id, a, b, rules[rule_id].over_relation)
                             for rule_id, a, b in zip(entry[1::2], chain, chain[1:]))
            paths[ent] = path
            pending.pop()
    return paths


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
