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
    before = {eid: graph.neighbors(eid) for eid in ("a", "c")}

    graph = graph.remove_entity("b").add_entity(entity("b"))
    graph = graph.add_relation(Relation("a", "b", "conn"))

    # brute-force rebuild with only the re-added relation
    rebuilt = EntityGraph()
    for eid in ("a", "c", "b"):
        rebuilt = rebuilt.add_entity(entity(eid))
    rebuilt = rebuilt.add_relation(Relation("a", "b", "conn"))

    assert graph.neighbors("a") == rebuilt.neighbors("a") == before["a"]
    assert graph.neighbors("c") == rebuilt.neighbors("c") == set()


def test_neighbors_isolated_entity():
    graph = EntityGraph().add_entity(entity("solo"))
    assert graph.neighbors("solo") == set()


def test_neighbors_reads_back_scenario_conn(shop_engine):
    topo = shop_engine.topology
    assert "payment" in topo.neighbors("checkout", "conn", "out")
    assert "checkout" in topo.neighbors("payment", "conn", "in")


def test_neighbors_both_is_union_of_out_and_in(shop_engine):
    topo = shop_engine.topology
    for eid in topo.entity_ids():
        for kind in RELATION_KINDS + ("all",):
            assert topo.neighbors(eid, kind, "both") == (
                topo.neighbors(eid, kind, "out") | topo.neighbors(eid, kind, "in"))


def test_add_pod_under_workload_queryable(shop_engine):
    topo = shop_engine.topology
    topo = topo.add_entity(entity("payment-pod-9", etype="pod"))
    topo = topo.add_relation(Relation("payment-deployment", "payment-pod-9", "comp"))
    assert "payment-pod-9" in topo.neighbors("payment-deployment", "comp", "out")
    assert "payment-deployment" in topo.neighbors("payment-pod-9", "comp", "in")


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
            graph.neighbors(sorted(ids)[0])
        graph.scope(ids)
        assert graph.revision == last_revision


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_neighbors_direction_union_property(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    for eid in graph.entity_ids():
        for kind in RELATION_KINDS + ("all",):
            both = graph.neighbors(eid, kind, "both")
            assert both == graph.neighbors(eid, kind, "out") | graph.neighbors(eid, kind, "in")


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
