from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cie.errors import DocumentError, DuplicateIdError, UnknownIdError
from cie.topology import RELATION_KINDS, Entity, EntityGraph, Relation, load_environment

from genmodels import random_codebook, random_mutation, random_topology


def entity(eid, etype="service", team=None):
    return Entity(id=eid, name=eid, entity_type=etype, owner_team=team)


def test_empty_document_loads_empty_graph():
    graph = load_environment({"schema": "env/1", "entities": [], "relations": []})
    assert len(graph) == 0
    assert graph.relations == frozenset()
    assert graph.revision == 0


def test_shop_file_has_24_services_plus_layers(shop_env_path, shop_engine):
    doc = json.loads(shop_env_path.read_text())
    graph = load_environment(doc, codebook=shop_engine.codebook)
    infra_types = {"workload", "pod", "node"}
    services = [e for e in graph.entities.values() if e.entity_type not in infra_types]
    assert len(services) == 24
    assert any(e.entity_type == "workload" for e in graph.entities.values())
    assert any(e.entity_type == "pod" for e in graph.entities.values())


def test_dangling_relation_endpoint_is_named():
    doc = {"schema": "env/1",
           "entities": [{"id": "a", "type": "service"}],
           "relations": [{"source": "a", "target": "ghost", "kind": "conn"}]}
    with pytest.raises(DocumentError, match="ghost"):
        load_environment(doc)


def test_malformed_json_is_a_parse_error():
    with pytest.raises(DocumentError, match="malformed"):
        load_environment("{not json")


def test_schema_field_required():
    with pytest.raises(DocumentError, match="env/1"):
        load_environment({"entities": []})


def test_unknown_entity_type_rejected_with_codebook(shop_engine):
    doc = {"schema": "env/1", "entities": [{"id": "a", "type": "mainframe"}],
           "relations": []}
    with pytest.raises(DocumentError, match="mainframe"):
        load_environment(doc, codebook=shop_engine.codebook)


@pytest.mark.parametrize("entities, relations, message", [
    ([{"id": [1], "type": "service"}], [], "must be strings"),
    ([{"id": 7, "type": "service"}], [], "must be strings"),
    ([{"id": "a", "type": ["service"]}], [], "must be strings"),
    ([{"id": "a", "type": "service", "name": {"n": 1}}], [], "must be strings"),
    ([{"id": "a", "type": "service", "team": ["t"]}], [], "must be strings"),
    ([{"id": "a", "type": "service"}, {"id": "b", "type": "service"}],
     [{"source": ["a"], "target": "b", "kind": "conn"}], "is not a declared entity"),
    ([{"id": "a", "type": "service"}, {"id": "b", "type": "service"}],
     [{"source": "a", "target": {"b": 1}, "kind": "conn"}], "is not a declared entity"),
])
def test_malformed_fields_are_document_errors(entities, relations, message):
    doc = {"schema": "env/1", "entities": entities, "relations": relations}
    with pytest.raises(DocumentError, match=message) as err:
        load_environment(doc)
    assert err.value.location == ("relations[0]" if relations else "entities[0]")
    with pytest.raises(DocumentError, match=message):
        load_environment(json.dumps(doc))


def test_null_team_means_unowned():
    doc = {"schema": "env/1", "entities": [{"id": "a", "type": "service", "team": None}]}
    assert load_environment(doc).entity("a").owner_team is None


def test_add_entity_singleton():
    graph = EntityGraph().add_entity(entity("e1"))
    assert graph.entity_ids() == {"e1"}
    assert graph.revision == 1


def test_add_duplicate_entity_rejected():
    graph = EntityGraph().add_entity(entity("e1"))
    with pytest.raises(DuplicateIdError):
        graph.add_entity(entity("e1"))


def test_remove_sole_entity_empties_graph():
    graph = EntityGraph().add_entity(entity("e1")).remove_entity("e1")
    assert len(graph) == 0


def test_remove_unknown_entity():
    with pytest.raises(UnknownIdError):
        EntityGraph().remove_entity("nope")


def test_remove_entity_drops_incident_relations():
    graph = EntityGraph()
    for eid in ("a", "b", "c", "d"):
        graph = graph.add_entity(entity(eid))
    graph = (graph.add_relation(Relation("a", "b", "conn"))
                  .add_relation(Relation("c", "b", "conn"))
                  .add_relation(Relation("b", "d", "layer")))
    graph = graph.remove_entity("b")
    assert graph.relations == frozenset()


def test_remove_then_readd_restores_only_readded_relations():
    graph = EntityGraph()
    for eid in ("a", "b", "c"):
        graph = graph.add_entity(entity(eid))
    graph = (graph.add_relation(Relation("a", "b", "conn"))
                  .add_relation(Relation("b", "c", "conn")))
    graph = graph.remove_entity("b").add_entity(entity("b"))
    graph = graph.add_relation(Relation("a", "b", "conn"))

    # brute-force rebuild with only the re-added relation
    rebuilt = EntityGraph()
    for eid in ("a", "c", "b"):
        rebuilt = rebuilt.add_entity(entity(eid))
    rebuilt = rebuilt.add_relation(Relation("a", "b", "conn"))

    assert graph.relations == rebuilt.relations
    assert graph.adjacent("a", "conn", "out") == rebuilt.adjacent("a", "conn", "out") == ("b",)
    assert graph.adjacent("c", "conn", "in") == rebuilt.adjacent("c", "conn", "in") == ()


def test_neighbors_isolated_entity():
    graph = EntityGraph().add_entity(entity("solo"))
    assert all(graph.adjacent("solo", kind, direction) == ()
               for kind in RELATION_KINDS for direction in ("out", "in"))


def test_neighbors_reads_back_scenario_conn(shop_engine):
    topo = shop_engine.topology
    assert "payment" in topo.adjacent("checkout", "conn", "out")
    assert "checkout" in topo.adjacent("payment", "conn", "in")


def test_add_pod_under_workload_queryable(shop_engine):
    topo = shop_engine.topology
    topo = topo.add_entity(entity("payment-pod-9", etype="pod"))
    topo = topo.add_relation(Relation("payment-deployment", "payment-pod-9", "comp"))
    assert "payment-pod-9" in topo.adjacent("payment-deployment", "comp", "out")
    assert topo.adjacent("payment-pod-9", "comp", "in") == ("payment-deployment",)


def test_scope_identity():
    graph = EntityGraph().add_entity(entity("a")).add_entity(entity("b"))
    graph = graph.add_relation(Relation("a", "b", "conn"))
    assert graph.scope(graph.entity_ids()) == graph


def test_scope_singleton_has_no_relations(shop_engine):
    view = shop_engine.topology.scope({"payment"})
    assert view.entity_ids() == {"payment"}
    assert view.relations == frozenset()


def test_scope_induced_subgraph_keeps_internal_edge(shop_engine):
    view = shop_engine.topology.scope({"checkout", "payment"})
    assert view.relations == frozenset({Relation("checkout", "payment", "conn")})


def test_scope_unknown_id():
    with pytest.raises(UnknownIdError):
        EntityGraph().scope({"ghost"})


def test_scope_is_idempotent(shop_engine):
    ids = {"checkout", "payment", "frontend", "payment-deployment"}
    once = shop_engine.topology.scope(ids)
    assert once.scope(ids) == once


def test_self_relation_rejected():
    with pytest.raises(DocumentError):
        Relation("a", "a", "conn")


def test_duplicate_relation_rejected():
    graph = EntityGraph().add_entity(entity("a")).add_entity(entity("b"))
    graph = graph.add_relation(Relation("a", "b", "conn"))
    with pytest.raises(DuplicateIdError):
        graph.add_relation(Relation("a", "b", "conn"))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_referential_integrity_and_monotone_revision(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    counter = [0]
    last_revision = graph.revision
    for _ in range(rng.randint(1, 15)):
        graph = random_mutation(rng, graph, cb, counter)
        ids = graph.entity_ids()
        for rel in graph.relations:
            assert rel.source in ids and rel.target in ids
        assert graph.revision > last_revision
        last_revision = graph.revision
        # reads leave the revision alone
        if ids:
            graph.adjacent(sorted(ids)[0], "conn", "out")
        graph.scope(ids)
        assert graph.revision == last_revision


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_scope_equals_brute_force_induced_subgraph(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb, n_entities=rng.randint(0, 15))
    counter = [0]
    for _ in range(rng.randint(0, 3)):
        graph = random_mutation(rng, graph, cb, counter)
    ids = sorted(graph.entity_ids())
    for _ in range(5):
        subset = set(rng.sample(ids, rng.randint(0, len(ids))))
        expected = EntityGraph(
            {eid: graph.entity(eid) for eid in subset},
            frozenset(r for r in graph.relations
                      if r.source in subset and r.target in subset),
            graph.revision)
        assert graph.scope(subset) == expected
        ghosts = {f"ghost{i}" for i in range(rng.randint(1, 3))}
        with pytest.raises(UnknownIdError) as err:
            graph.scope(subset | ghosts)
        assert str(sorted(ghosts)) in str(err.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_adjacent_is_sorted_relation_scan(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    for eid in graph.entity_ids():
        for kind in RELATION_KINDS:
            assert graph.adjacent(eid, kind, "out") == tuple(sorted(
                r.target for r in graph.relations if r.source == eid and r.kind == kind))
            assert graph.adjacent(eid, kind, "in") == tuple(sorted(
                r.source for r in graph.relations if r.target == eid and r.kind == kind))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_adjacent_after_mutations_is_sorted_relation_scan(seed):
    # Mutators derive adjacency from the parent's; it must match a scan of
    # the relations after removals and replacements too.
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    counter = [0]
    for _ in range(rng.randint(1, 8)):
        graph = random_mutation(rng, graph, cb, counter)
    for eid in graph.entity_ids():
        for kind in RELATION_KINDS:
            assert graph.adjacent(eid, kind, "out") == tuple(sorted(
                r.target for r in graph.relations if r.source == eid and r.kind == kind))
            assert graph.adjacent(eid, kind, "in") == tuple(sorted(
                r.source for r in graph.relations if r.target == eid and r.kind == kind))
    assert graph._adjacency == EntityGraph(graph.entities, graph.relations)._adjacency


def _reference_adjacent(reference, eid, kind, direction):
    near, far = (0, 1) if direction == "out" else (1, 0)
    return tuple(sorted(r[far] for r in reference if r[near] == eid and r[2] == kind))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_relation_store_matches_a_reference_set_under_mutations(seed):
    # The adjacency is the one relation store; a plain set of (source,
    # target, kind) triples, edited alongside the graph, is the oracle.
    rng = random.Random(seed)
    ids = [f"e{i}" for i in range(rng.randint(2, 7))]
    reference = set()
    for _ in range(rng.randint(0, 12)):
        source, target = rng.sample(ids, 2)
        reference.add((source, target, rng.choice(RELATION_KINDS)))
    if rng.random() < 0.5:
        graph = EntityGraph({eid: entity(eid) for eid in ids},
                            frozenset(Relation(*r) for r in reference), rng.randint(0, 3))
    else:
        graph = load_environment({
            "schema": "env/1", "entities": [{"id": eid, "type": "service"} for eid in ids],
            "relations": [{"source": s, "target": t, "kind": k}
                          for s, t, k in sorted(reference)]})
    fresh = len(ids)
    for _ in range(rng.randint(1, 25)):
        present = sorted(graph.entity_ids())
        op = rng.randrange(4)
        if op == 0 or len(present) < 2:
            graph = graph.add_entity(entity(f"e{fresh}"))
            fresh += 1
        elif op == 1:
            eid = rng.choice(present)
            graph = graph.remove_entity(eid)
            reference = {r for r in reference if eid not in r[:2]}
        elif op == 2:
            if reference and rng.random() < 0.3:
                triple = rng.choice(sorted(reference))
                with pytest.raises(DuplicateIdError) as err:
                    graph.add_relation(Relation(*triple))
                assert str(err.value) == "duplicate relation ({}, {}, {})".format(*triple)
                continue
            triple = (*rng.sample(present, 2), rng.choice(RELATION_KINDS))
            if triple in reference:
                continue
            graph = graph.add_relation(Relation(*triple))
            reference.add(triple)
        else:
            if reference and rng.random() < 0.7:
                triple = rng.choice(sorted(reference))
                graph = graph.remove_relation(Relation(*triple))
                reference.discard(triple)
                continue
            triple = (*rng.sample(present, 2), rng.choice(RELATION_KINDS))
            if triple in reference:
                continue
            with pytest.raises(UnknownIdError) as err:
                graph.remove_relation(Relation(*triple))
            assert str(err.value) == "unknown relation ({}, {}, {})".format(*triple)
            continue
        assert graph.relations == {Relation(*r) for r in reference}
        assert graph == EntityGraph(graph.entities, graph.relations, graph.revision)
        for eid in graph.entity_ids():
            for kind in RELATION_KINDS:
                for direction in ("out", "in"):
                    assert graph.adjacent(eid, kind, direction) == _reference_adjacent(
                        reference, eid, kind, direction)


@pytest.mark.parametrize("relation, message", [
    ("a->b", "relation requires 'source', 'target', 'kind'"),
    ({"source": "a", "target": "b"}, "relation requires 'source', 'target', 'kind'"),
    ({"source": 5, "target": "b", "kind": "conn"}, "relation endpoint 5 is not a declared entity"),
    ({"source": "a", "target": "ghost", "kind": "conn"},
     "relation endpoint 'ghost' is not a declared entity"),
    ({"source": "a", "target": "b", "kind": "calls"}, "unknown relation kind 'calls'"),
    ({"source": "a", "target": "b", "kind": ["conn"]}, "unknown relation kind ['conn']"),
    ({"source": "a", "target": "a", "kind": "conn"}, "self-relation on 'a'"),
    ({"source": "b", "target": "c", "kind": "layer"}, "duplicate relation (b, c, layer)"),
])
def test_malformed_relation_is_named_with_its_location(relation, message):
    doc = {"schema": "env/1",
           "entities": [{"id": eid, "type": "service"} for eid in ("a", "b", "c")],
           "relations": [{"source": "a", "target": "b", "kind": "conn"},
                         {"source": "b", "target": "c", "kind": "layer"}, relation]}
    with pytest.raises(DocumentError) as err:
        load_environment(doc)
    assert err.value.location == "relations[2]"
    assert str(err.value) == f"relations[2]: {message}"


def test_loading_a_valid_document_builds_no_relation_objects(shop_env_path, monkeypatch):
    def refuse(self):
        raise AssertionError("Relation built during load")
    monkeypatch.setattr(Relation, "__post_init__", refuse)
    graph = load_environment(shop_env_path.read_text())
    assert graph.adjacent("checkout", "conn", "out")


@pytest.mark.parametrize("edit, location, message", [
    (lambda d: d.update(entities={"a": {"type": "service"}}), "entities",
     "'entities' must be an array"),
    (lambda d: d.update(relations="a->b"), "relations", "'relations' must be an array"),
    (lambda d: d["entities"][0].pop("id"), "entities[0]", "entity requires 'id' and 'type'"),
    (lambda d: d["entities"][1].pop("type"), "entities[1]", "entity requires 'id' and 'type'"),
    (lambda d: d["entities"].append("c"), "entities[2]", "entity requires 'id' and 'type'"),
    (lambda d: d["entities"].append({"id": "a", "type": "db"}), "entities[2]",
     "duplicate entity id 'a'"),
    (lambda d: d["entities"][0].update(metadata={"zone": 1}), "entities[0]",
     "metadata must map strings to strings"),
    (lambda d: d["entities"][0].update(metadata=["zone"]), "entities[0]",
     "metadata must map strings to strings"),
], ids=["entities-not-array", "relations-not-array", "entity-without-id",
        "entity-without-type", "entity-not-object", "duplicate-id", "metadata-value-number",
        "metadata-list"])
def test_environment_refusals_are_located(edit, location, message):
    doc = {"schema": "env/1",
           "entities": [{"id": "a", "type": "service"}, {"id": "b", "type": "service"}],
           "relations": [{"source": "a", "target": "b", "kind": "conn"}]}
    edit(doc)
    with pytest.raises(DocumentError) as err:
        load_environment(doc)
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


@pytest.mark.parametrize("relation", [Relation("a", "ghost", "conn"),
                                      Relation("ghost", "a", "conn")])
def test_add_relation_to_an_unknown_endpoint_is_refused(relation):
    graph = EntityGraph().add_entity(entity("a"))
    with pytest.raises(UnknownIdError, match="relation endpoint 'ghost' does not exist"):
        graph.add_relation(relation)
    assert graph.relations == frozenset()
