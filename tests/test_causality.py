from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cie import data
from cie.causality import (CausalityGraph, dump_graph, instantiate,
                           recompute_edge_probability, refresh)
from cie.errors import DocumentError, UnknownIdError
from cie.knowledge_base import (ActivationSpec, Codebook, EntityTypeDef,
                                PropagationRule, RootCauseDef, SymptomDef, load_codebook)
from cie.topology import Entity, EntityGraph, Relation, load_environment

from genmodels import (assert_same_causality, brute_force_edges, eager_causality,
                       random_codebook, random_mutation, random_topology)

# deep enough that no random model in this file can hit the limit
UNBOUNDED = 64


def test_empty_topology_yields_empty_graph(chain_codebook):
    cg = instantiate(EntityGraph(), chain_codebook)
    assert not cg.causes and not cg.symptoms and not cg.edges


def test_single_entity_local_edge(chain_codebook):
    graph = EntityGraph().add_entity(Entity(id="B", name="B", entity_type="service"))
    cg = instantiate(graph, chain_codebook)
    assert set(cg.causes) == {"defect@B"}
    assert set(cg.symptoms) == {"high_error_rate@B"}
    edge = cg.edge("defect@B", "high_error_rate@B")
    assert edge.probability == 0.9
    assert edge.derivation == ()


def test_chain_propagation_hand_multiplied(chain_codebook):
    graph = EntityGraph()
    for eid in ("A", "B"):
        graph = graph.add_entity(Entity(id=eid, name=eid, entity_type="service"))
    graph = graph.add_relation(Relation("A", "B", "conn"))
    cg = instantiate(graph, chain_codebook)

    edge = cg.edge("defect@B", "high_error_rate@A")
    assert edge is not None
    assert edge.probability == pytest.approx(0.9 * 0.8, rel=1e-12)
    assert [h.rule_id for h in edge.derivation] == ["errors-to-callers"]

    # brute-force path enumeration agrees on every edge
    expected = brute_force_edges(graph, chain_codebook)
    actual = {key: e.probability for key, e in cg.edges.items()}
    assert actual == pytest.approx(expected)


def test_two_hop_chain(chain_codebook, chain_topology):
    cg = instantiate(chain_topology, chain_codebook)
    edge = cg.edge("defect@C", "high_error_rate@A")
    assert edge.probability == pytest.approx(0.9 * 0.8 * 0.8, rel=1e-12)
    assert len(edge.derivation) == 2


def test_undeclared_entity_type_fails(chain_codebook):
    graph = EntityGraph().add_entity(Entity(id="X", name="X", entity_type="mystery"))
    with pytest.raises(DocumentError, match="mystery"):
        instantiate(graph, chain_codebook)


def test_effects_empty_for_causeless_symptom():
    cb = Codebook(
        types=(EntityTypeDef("svc", ("x",)),),
        root_causes=(RootCauseDef("quiet", "svc", local_symptoms=(), prior=0.1),),
        symptoms=(SymptomDef("s", "svc", ActivationSpec(kind="event")),),
        rules=())
    graph = EntityGraph().add_entity(Entity(id="e", name="e", entity_type="svc"))
    cg = instantiate(graph, cb)
    assert cg.effects("quiet@e") == set()


def test_effects_unknown_cause(chain_codebook, chain_topology):
    cg = instantiate(chain_topology, chain_codebook)
    with pytest.raises(UnknownIdError):
        cg.effects("phantom@Z")


def test_scenario_payment_defect_effects_span_four_services(shop_engine):
    cg = shop_engine.snapshot().causality
    hosts = {cg.symptoms[sid].host_entity
             for sid in cg.effects("code_defect_transaction_rejection@payment")}
    assert hosts == {"payment", "checkout", "accounting", "shipping"}


def test_effects_equals_edge_scan(shop_engine):
    cg = shop_engine.snapshot().causality
    for cid in cg.causes:
        scan = {sid for (c, sid) in cg.edges if c == cid}
        assert cg.effects(cid) == scan


def test_refresh_is_identity_without_topology_change(chain_codebook, chain_topology):
    cg = instantiate(chain_topology, chain_codebook)
    assert refresh(cg, chain_topology, chain_codebook) is cg


def test_refresh_after_entity_removal(chain_codebook, chain_topology):
    cg = instantiate(chain_topology, chain_codebook)
    smaller = chain_topology.remove_entity("B")
    refreshed = refresh(cg, smaller, chain_codebook)
    assert refreshed == instantiate(smaller, chain_codebook)
    assert "defect@B" not in refreshed.causes
    assert all("B" not in key for key in refreshed.edges)


def test_refresh_after_adding_conn_edge(chain_codebook, chain_topology):
    cg = instantiate(chain_topology, chain_codebook)
    grown = chain_topology.add_relation(Relation("C", "A", "conn"))
    assert refresh(cg, grown, chain_codebook) == instantiate(grown, chain_codebook)


def test_depth_limit_truncates_with_warning(chain_codebook):
    graph = EntityGraph()
    n = 12
    for i in range(n):
        graph = graph.add_entity(Entity(id=f"s{i}", name=f"s{i}", entity_type="service"))
    for i in range(n - 1):
        graph = graph.add_relation(Relation(f"s{i}", f"s{i+1}", "conn"))
    cg = instantiate(graph, chain_codebook, max_depth=3)
    assert cg.truncations
    # cause on the chain tail reaches exactly 3 hops back, no further
    reached = {cg.symptoms[sid].host_entity for sid in cg.effects(f"defect@s{n-1}")}
    assert reached == {f"s{n-1}", f"s{n-2}", f"s{n-3}", f"s{n-4}"}

    unlimited = instantiate(graph, chain_codebook, max_depth=UNBOUNDED)
    assert not unlimited.truncations
    assert len(unlimited.effects(f"defect@s{n-1}")) == n


def test_dump_graph_contains_derivations(shop_engine):
    dump = dump_graph(shop_engine.snapshot().causality)
    assert dump["schema"] == "causality-dump/1"
    by_pair = {(e["cause"], e["symptom"]): e for e in dump["edges"]}
    edge = by_pair[("code_defect_transaction_rejection@payment",
                    "order_volume_drop@shipping")]
    assert [h["rule"] for h in edge["derivation"]] == [
        "payment-rejections-hit-callers", "order-failures-starve-shipping"]
    assert edge["probability"] == pytest.approx(0.98 * 0.9 * 0.85, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_instantiation_matches_path_enumeration_oracle(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb, max_depth=UNBOUNDED)
    assert not cg.truncations
    expected = brute_force_edges(graph, cb)
    actual = {key: edge.probability for key, edge in cg.edges.items()}
    assert set(actual) == set(expected)
    for key in expected:
        assert actual[key] == pytest.approx(expected[key], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_structural_invariants_on_random_models(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb)
    for (cid, sid), edge in cg.edges.items():
        assert cid in cg.causes and sid in cg.symptoms  # bipartite
        assert 0.0 < edge.probability <= 1.0
        assert edge.probability == recompute_edge_probability(edge, cb)  # exact


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_instantiate_deterministic(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    first = instantiate(graph, cb)
    second = instantiate(graph, cb)
    assert first == second
    assert first.edges == second.edges


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_refresh_equals_full_rebuild_after_mutations(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb)
    counter = [0]
    for _ in range(rng.randint(1, 5)):
        graph = random_mutation(rng, graph, cb, counter)
        cg = refresh(cg, graph, cb)
        assert cg == instantiate(graph, cb)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_refresh_equals_full_rebuild_after_mutation_batches(seed):
    # Several mutations between two refreshes, as Engine applies a pod
    # replacement; shallow depths make the truncations move too.
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    max_depth = rng.choice((0, 1, 2, 3, 8))
    cg = instantiate(graph, cb, max_depth=max_depth)
    counter = [0]
    for _ in range(rng.randint(1, 4)):
        for _ in range(rng.randint(1, 4)):
            graph = random_mutation(rng, graph, cb, counter)
        cg = refresh(cg, graph, cb, max_depth=max_depth)
        assert_same_causality(cg, instantiate(graph, cb, max_depth=max_depth))


def test_refresh_after_replacing_an_entity(chain_codebook, chain_topology):
    # Re-adding a removed id with another type and the same relations leaves
    # the relation set unchanged; only the records differ.
    cb = Codebook(types=chain_codebook.types + (EntityTypeDef("db", ("error_rate",)),),
                  root_causes=chain_codebook.root_causes, symptoms=chain_codebook.symptoms,
                  rules=chain_codebook.rules)
    cg = instantiate(chain_topology, cb)
    for entity_type in ("db", "service"):
        graph = chain_topology.remove_entity("B").add_entity(
            Entity(id="B", name="B", entity_type=entity_type))
        for rel in sorted(chain_topology.relations, key=lambda r: (r.source, r.target)):
            graph = graph.add_relation(rel)
        assert graph.relations == chain_topology.relations
        refreshed = refresh(cg, graph, cb)
        assert_same_causality(refreshed, instantiate(graph, cb))
        assert ("defect@C" in refreshed.causes_of("high_error_rate@A")) == (
            entity_type == "service")


def test_refresh_recomputes_every_cause_sharing_an_invalidated_closure():
    # Causes one and two on X share the local symptom a. The new call Y -> X
    # extends the closures from X to a@Y, so both causes gain an edge there
    # (two's through b, the likelier derivation) and neither may keep its
    # old block; the causes on Z are untouched.
    cb = Codebook(
        types=(EntityTypeDef("svc", ("x",)),),
        root_causes=(RootCauseDef("one", "svc", local_symptoms=(("a", 0.6),)),
                     RootCauseDef("two", "svc", local_symptoms=(("a", 0.3), ("b", 0.9)))),
        symptoms=(SymptomDef("a", "svc"), SymptomDef("b", "svc")),
        rules=(PropagationRule("a-up", "a", "conn", "reverse", "a", 0.8),
               PropagationRule("b-up", "b", "conn", "reverse", "a", 0.5)))
    graph = EntityGraph()
    for eid in ("X", "Y", "Z"):
        graph = graph.add_entity(Entity(id=eid, name=eid, entity_type="svc"))
    cg = instantiate(graph, cb)
    assert cg.causes_of("a@Y") == {"one@Y", "two@Y"}

    grown = graph.add_relation(Relation("Y", "X", "conn"))
    refreshed = refresh(cg, grown, cb)
    assert_same_causality(refreshed, instantiate(grown, cb))
    assert refreshed.causes_of("a@Y") == {"one@X", "two@X", "one@Y", "two@Y"}
    assert refreshed.edge("one@X", "a@Y").probability == 0.6 * 0.8
    assert refreshed.edge("two@X", "a@Y").origin_symptom == "b"
    assert refreshed.edges_from("one@Z") == cg.edges_from("one@Z")

    shrunk = refresh(refreshed, graph, cb)
    assert_same_causality(shrunk, instantiate(graph, cb))


def test_refresh_rebuilds_hand_built_graphs_and_other_parameters(chain_codebook,
                                                                 chain_topology):
    # Adding a lone entity touches no closure, so reusing any block here
    # would keep an answer a full build does not give: the hand-built graph
    # lacks defect@C's edges, and the other depth and codebook change them.
    cg = instantiate(chain_topology, chain_codebook)
    grown = chain_topology.add_entity(Entity(id="D", name="D", entity_type="service"))
    by_hand = CausalityGraph(dict(cg.causes), dict(cg.symptoms),
                             {key: e for key, e in cg.edges.items() if key[0] != "defect@C"},
                             cg.topology_revision, dict(cg.entity_types),
                             dict(cg.attribute_decls))
    assert_same_causality(refresh(by_hand, grown, chain_codebook),
                          instantiate(grown, chain_codebook))
    assert_same_causality(refresh(cg, grown, chain_codebook, max_depth=1),
                          instantiate(grown, chain_codebook, max_depth=1))
    (rule,) = chain_codebook.rules
    weaker = Codebook(chain_codebook.types, chain_codebook.root_causes,
                      chain_codebook.symptoms,
                      (PropagationRule(rule.rule_id, rule.from_symptom, rule.over_relation,
                                       rule.traversal, rule.to_symptom, 0.5),))
    assert_same_causality(refresh(cg, grown, weaker), instantiate(grown, weaker))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
# An edge here lost 1 ulp after a relation add while closures started at 1.0
# and edges refolded their probability from the local one afterwards.
@example(13676810)
def test_adding_relation_is_monotone(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    before = instantiate(graph, cb, max_depth=UNBOUNDED)
    ids = sorted(graph.entity_ids())
    if len(ids) < 2:
        return
    for _ in range(20):
        src, dst = rng.sample(ids, 2)
        rel = Relation(src, dst, rng.choice(("conn", "layer", "comp")))
        if rel not in graph.relations:
            break
    else:
        return
    after = instantiate(graph.add_relation(rel), cb, max_depth=UNBOUNDED)
    for key, edge in before.edges.items():
        assert key in after.edges
        assert after.edges[key].probability >= edge.probability


# -- on-demand compilation against the eager reference -------------------------

SHOP_CODEBOOK = load_codebook(data.path("astronomy_shop_codebook.json").read_text())
SHOP_TOPOLOGY = load_environment(data.path("astronomy_shop_env.json").read_text(),
                                 codebook=SHOP_CODEBOOK)


def check_reads_in_random_order(rng, graph, cb, max_depth, n_pairs):
    """On a fresh on-demand graph, a random share of point reads in random
    order, before any full read, then the full reads: all equal the eager
    reference. The backward walk's candidates contain every true cause."""
    expected = eager_causality(graph, cb, max_depth=max_depth)
    cg = instantiate(graph, cb, max_depth=max_depth)
    cids, sids = sorted(expected.causes) + ["phantom@e0"], sorted(expected.symptoms)
    reads = ([("causes_of", sid) for sid in sids + ["phantom@e0"]]
             + [("edges_from", cid) for cid in cids]
             + [("edge", rng.choice(cids), rng.choice(sids)) for _ in range(n_pairs)]
             + [("edge", *key) for key in rng.sample(list(expected.edges),
                                                     min(n_pairs, len(expected.edges)))])
    rng.shuffle(reads)
    for name, *args in reads[:rng.randint(0, len(reads))]:
        assert getattr(cg, name)(*args) == getattr(expected, name)(*args), (name, args)
    assert_same_causality(cg, expected)
    for sid in sids:
        assert set(cg._candidates(sid)) >= expected.causes_of(sid)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=8))
def test_on_demand_reads_equal_the_eager_build(seed, max_depth):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    check_reads_in_random_order(rng, random_topology(rng, cb), cb, max_depth, n_pairs=60)


@pytest.mark.parametrize("max_depth", range(9))
def test_on_demand_reads_equal_the_eager_build_on_the_shop(max_depth):
    check_reads_in_random_order(random.Random(max_depth), SHOP_TOPOLOGY, SHOP_CODEBOOK,
                                max_depth, n_pairs=300)


def test_threads_sharing_an_on_demand_graph_read_the_eager_answers():
    # Four readers race through one fresh graph's point reads; every block
    # and candidate tuple is memoized as one fully built value, so each
    # reader sees the reference answers whoever compiled them.
    expected = eager_causality(SHOP_TOPOLOGY, SHOP_CODEBOOK)
    want = ({sid: expected.causes_of(sid) for sid in expected.symptoms},
            {cid: expected.edges_from(cid) for cid in expected.causes})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            cg = instantiate(SHOP_TOPOLOGY, SHOP_CODEBOOK)
            start = threading.Barrier(4, timeout=30)
            results = []

            def read(seed, cg=cg, start=start, results=results):
                rng = random.Random(seed)
                sids, cids = list(cg.symptoms), list(cg.causes)
                rng.shuffle(sids)
                rng.shuffle(cids)
                start.wait()
                results.append(({sid: cg.causes_of(sid) for sid in sids},
                                 {cid: cg.edges_from(cid) for cid in cids}))

            threads = [threading.Thread(target=read, args=(round_ * 4 + i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 4
            assert all(result == want for result in results)
            assert_same_causality(cg, expected)
    finally:
        sys.setswitchinterval(interval)
