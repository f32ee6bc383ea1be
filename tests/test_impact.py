from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cie.causality import instantiate
from cie.errors import UnknownIdError
from cie.impact import blast_radius, impacted_entities, owner_teams, remediation_alignment
from cie.knowledge_base import (Codebook, EntityTypeDef, PropagationRule, RootCauseDef,
                                SymptomDef)
from cie.topology import Entity, EntityGraph, Relation

from genmodels import (blast_fixpoint, expand_via, random_codebook, random_topology,
                       reference_paths, reference_via)

UNBOUNDED = 64
PAYMENT_DEFECT = "code_defect_transaction_rejection@payment"


@pytest.fixture()
def shop(shop_engine):
    snap = shop_engine.snapshot()
    return snap.topology, snap.causality, shop_engine.codebook


def test_cause_with_only_local_symptoms_impacts_host_only(chain_codebook, chain_topology):
    lonely = chain_topology.remove_entity("A").remove_entity("B")
    cg = instantiate(lonely, chain_codebook)
    assert impacted_entities(cg, "defect@C") == {"C"}


def test_scenario_impacted_entities(shop):
    _, cg, _ = shop
    assert impacted_entities(cg, PAYMENT_DEFECT) == {
        "payment", "checkout", "accounting", "shipping"}


def test_impacted_entities_equals_edge_scan_oracle(shop):
    _, cg, _ = shop
    for cid in cg.causes:
        scan = {cg.symptoms[sid].host_entity
                for (c, sid) in cg.edges if c == cid}
        scan.add(cg.causes[cid].host_entity)
        assert impacted_entities(cg, cid) == scan


def test_impacted_entities_unknown_cause(shop):
    _, cg, _ = shop
    with pytest.raises(UnknownIdError):
        impacted_entities(cg, "phantom@x")


def test_blast_radius_no_rules_transitive_equals_direct(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, "broker_degradation@kafka")
    assert br.transitive_entities == br.direct_entities == frozenset({"kafka"})
    assert br.via == {}


def test_scenario_blast_radius_spans_multiple_teams(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    assert br.transitive_entities == frozenset(
        {"payment", "checkout", "accounting", "shipping"})
    assert br.impacted_teams == frozenset(
        {"team-payments", "team-storefront", "team-fulfillment"})
    assert len(br.impacted_teams) > 1
    # every transitive entity carries a recorded path; victims explain their hop chain
    paths = expand_via(br.via, br.transitive_entities, cb, "payment")
    assert len(paths["checkout"]) == 1
    assert (paths["checkout"][0].from_entity, paths["checkout"][0].to_entity) == (
        "payment", "checkout")
    assert [h.rule_id for h in paths["shipping"]] == [
        "payment-rejections-hit-callers", "order-failures-starve-shipping"]
    assert paths["shipping"][0].from_entity == "payment"
    assert paths["shipping"][1].to_entity == "shipping"


def test_blast_radius_depth_truncation_on_chain(chain_codebook):
    # s0 calls s1 calls ... s11; errors at s11 walk caller-ward.
    graph = EntityGraph()
    for i in range(12):
        graph = graph.add_entity(Entity(id=f"s{i}", name=f"s{i}", entity_type="service"))
    for i in range(11):
        graph = graph.add_relation(Relation(f"s{i}", f"s{i + 1}", "conn"))
    cg = instantiate(graph, chain_codebook, max_depth=3)
    br = blast_radius(graph, cg, chain_codebook, "defect@s11", max_depth=3)
    # the effects reach s8; each re-expands with a fresh budget of 3 hops
    assert br.transitive_entities == frozenset(f"s{i}" for i in range(5, 12))
    assert br.truncations == ("depth limit 3 reached at high_error_rate@s5",)
    paths = expand_via(br.via, br.transitive_entities, chain_codebook, "s11")
    for i in range(5, 12):
        hops = paths[f"s{i}"]
        assert len(hops) == 11 - i
        assert [(h.from_entity, h.to_entity) for h in hops] == [
            (f"s{j}", f"s{j - 1}") for j in range(11, i, -1)]


def test_causality_keeps_likeliest_chain_while_blast_path_keeps_fewest_hops():
    """err@X reaches err@Y by one weak comp hop (0.1) or by two strong
    caller-ward conn hops through M (0.9 * 0.9); the comp hop also carries
    lat to Y. The edge keeps the likelier chain, the blast path the shorter."""
    cb = Codebook(
        types=(EntityTypeDef(type_name="svc"),),
        root_causes=(RootCauseDef(cause_name="defect", applies_to="svc",
                                  local_symptoms=(("err", 0.9),)),),
        symptoms=(SymptomDef(symptom_name="err", applies_to="svc"),
                  SymptomDef(symptom_name="lat", applies_to="svc")),
        rules=(PropagationRule("callers", "err", "conn", "reverse", "err", 0.9),
               PropagationRule("shortcut-err", "err", "comp", "forward", "err", 0.1),
               PropagationRule("shortcut-lat", "err", "comp", "forward", "lat", 0.1)),
    )
    graph = EntityGraph()
    for eid in ("X", "M", "Y"):
        graph = graph.add_entity(Entity(id=eid, name=eid, entity_type="svc"))
    for rel in (Relation("M", "X", "conn"), Relation("Y", "M", "conn"),
                Relation("X", "Y", "comp")):
        graph = graph.add_relation(rel)
    cg = instantiate(graph, cb)

    edge = cg.edge("defect@X", "err@Y")
    assert edge.derivation[0::2] == ("callers", "callers")
    assert edge.probability == pytest.approx(0.9 * 0.9 * 0.9)
    assert cg.edge("defect@X", "lat@Y").derivation[0::2] == ("shortcut-lat",)

    br = blast_radius(graph, cg, cb, "defect@X")
    assert br.via == {"Y": ("X", "shortcut-lat"), "M": ("X", "callers")}


def test_ownership_checks_on_scenario(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    teams = owner_teams(topology, br.direct_entities)
    assert "team-payments" in teams
    assert "team-storefront" in teams  # checkout is direct
    assert "team-platform" not in teams
    assert "team-nobody" not in teams


def test_ownership_true_while_alignment_false_for_checkout(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    assert "team-storefront" in owner_teams(topology, br.direct_entities)
    verdict = remediation_alignment(topology, cg, br, "checkout")
    assert verdict.aligned is False


def test_remediation_target_host_aligned(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    verdict = remediation_alignment(topology, cg, br, "payment")
    assert verdict.aligned is True
    assert verdict.path == ("payment",)


def test_remediation_payment_pod_aligned_via_stack(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    for pod in ("payment-pod-0", "payment-pod-1"):
        verdict = remediation_alignment(topology, cg, br, pod)
        assert verdict.aligned is True
        assert verdict.path == ("payment", "payment-deployment", pod)


def test_remediation_checkout_cites_propagation_path(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    verdict = remediation_alignment(topology, cg, br, "checkout")
    assert verdict.aligned is False
    assert "payment -> checkout" in verdict.rationale
    assert "suppress symptoms" in verdict.rationale


def test_remediation_unrelated_entity_not_aligned(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    verdict = remediation_alignment(topology, cg, br, "grafana")
    assert verdict.aligned is False
    assert "outside the blast radius" in verdict.rationale


def test_remediation_unknown_entity(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    with pytest.raises(UnknownIdError):
        remediation_alignment(topology, cg, br, "ghost")


def test_remediation_host_missing_from_topology(shop):
    # A causality graph older than the topology can name a host that is gone.
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    without_host = topology.remove_entity("payment")
    with pytest.raises(UnknownIdError, match="unknown entity 'payment'"):
        remediation_alignment(without_host, cg, br, "checkout")


def test_remediation_total_over_scenario_entities(shop):
    topology, cg, cb = shop
    br = blast_radius(topology, cg, cb, PAYMENT_DEFECT)
    for eid in topology.entity_ids():
        verdict = remediation_alignment(topology, cg, br, eid)
        assert verdict.aligned in (True, False)
        assert verdict.rationale


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_blast_radius_invariants_on_random_models(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb, max_depth=UNBOUNDED)
    for cid in sorted(cg.causes):
        br = blast_radius(graph, cg, cb, cid, max_depth=UNBOUNDED)
        assert br.direct_entities <= br.transitive_entities
        assert cg.causes[cid].host_entity in br.transitive_entities
        assert set(br.via) == br.transitive_entities - {cg.causes[cid].host_entity}
        assert br.transitive_entities == frozenset(blast_fixpoint(graph, cb, cg, cid))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=3))
def test_blast_paths_follow_existing_relations_from_host(seed, max_depth):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb, max_depth=max_depth)
    rules = {r.rule_id: r for r in cb.rules}
    applies_to = {s.symptom_name: s.applies_to for s in cb.symptoms}
    for cid in sorted(cg.causes):
        host = cg.causes[cid].host_entity
        local = {name for name, _ in cb.cause(cg.causes[cid].cause_name).local_symptoms}
        br = blast_radius(graph, cg, cb, cid, max_depth=max_depth)
        paths = expand_via(br.via, br.transitive_entities, cb, host)
        for ent, hops in paths.items():
            assert (hops[-1].to_entity if hops else host) == ent
            if not hops:
                continue
            assert hops[0].from_entity == host
            assert rules[hops[0].rule_id].from_symptom in local
            for prev, hop in zip(hops, hops[1:]):
                assert hop.from_entity == prev.to_entity
                assert rules[hop.rule_id].from_symptom == rules[prev.rule_id].to_symptom
            for hop in hops:
                rule = rules[hop.rule_id]
                assert hop.kind == rule.over_relation
                ends = (hop.from_entity, hop.to_entity)
                if rule.traversal == "reverse":
                    ends = ends[::-1]
                assert Relation(*ends, hop.kind) in graph.relations
                assert cg.entity_types[hop.to_entity] == applies_to[rule.to_symptom]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=8))
def test_via_expands_to_the_paths_on_random_models(seed, max_depth):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb, max_depth=max_depth)
    for cid in sorted(cg.causes):
        br = blast_radius(graph, cg, cb, cid, max_depth=max_depth)
        paths = reference_paths(graph, cg, cb, cid, max_depth)
        assert br.via == reference_via(paths)
        assert expand_via(br.via, br.transitive_entities, cb,
                          cg.causes[cid].host_entity) == paths
        for ent, entry in br.via.items():
            # the chain form only where the predecessor form cannot say it
            pred = paths[ent][-1].from_entity
            assert (len(entry) == 2) == (paths.get(pred) == paths[ent][:-1])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=8))
def test_downstream_remediation_path_is_the_via_chain_on_random_models(seed, max_depth):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb, max_depth=max_depth)
    for cid in sorted(cg.causes):
        host = cg.causes[cid].host_entity
        br = blast_radius(graph, cg, cb, cid, max_depth=max_depth)
        paths = expand_via(br.via, br.transitive_entities, cb, host)
        for target in sorted(br.transitive_entities):
            verdict = remediation_alignment(graph, cg, br, target)
            if verdict.aligned:
                continue
            chain = (host,) + tuple(h.to_entity for h in paths[target])
            assert verdict.path == chain
            assert f"(propagation {' -> '.join(chain)})" in verdict.rationale


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_blast_radius_monotone_in_topology(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    cg = instantiate(graph, cb, max_depth=UNBOUNDED)
    if not cg.causes:
        return
    cid = sorted(cg.causes)[rng.randrange(len(cg.causes))]
    before = blast_radius(graph, cg, cb, cid, max_depth=UNBOUNDED)
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
    grown = graph.add_relation(rel)
    cg2 = instantiate(grown, cb, max_depth=UNBOUNDED)
    after = blast_radius(grown, cg2, cb, cid, max_depth=UNBOUNDED)
    assert before.transitive_entities <= after.transitive_entities


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_ownership_check_is_set_intersection(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = random_topology(rng, cb)
    # sprinkle teams over entities
    teams = ("alpha", "beta", None)
    rebuilt = graph
    for eid in sorted(graph.entity_ids()):
        entity = graph.entity(eid)
        rebuilt = rebuilt.remove_entity(eid).add_entity(
            type(entity)(id=entity.id, name=entity.name,
                         entity_type=entity.entity_type,
                         owner_team=rng.choice(teams)))
    cg = instantiate(rebuilt, cb)
    for cid in sorted(cg.causes):
        br = blast_radius(rebuilt, cg, cb, cid)
        for team in ("alpha", "beta", "gamma"):
            owned = {eid for eid, e in rebuilt.entities.items() if e.owner_team == team}
            expected = bool(br.direct_entities & owned)
            assert (team in owner_teams(rebuilt, br.direct_entities)) == expected
