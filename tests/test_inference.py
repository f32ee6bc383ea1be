from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cie.causality
from cie.causality import (CausalEdge, CausalityGraph, RootCauseInstance,
                           SymptomInstance, instantiate)
from cie.engine import Engine, EngineSnapshot
from cie.errors import DocumentError, UnknownIdError, located
from cie.inference import (ActiveSymptomSet, Observation, activate_symptoms,
                           attribute_sample, localize, observation_from_dict,
                           parse_observations, symptom_event)
from cie.knowledge_base import ActivationSpec
from cie.service import handle

from genmodels import (brute_force_ranking, eager_causality, random_active_set,
                       random_inference_graph, render_observations, replay_activation)

LEAK = 1e-3


def tiny_graph(associations: dict[str, dict[str, float]],
               priors: dict[str, float]) -> CausalityGraph:
    """associations: cause -> {symptom: P(s|r)}; hosts are synthetic."""
    symptom_names = sorted({s for edges in associations.values() for s in edges})
    causes = {f"{c}@h": RootCauseInstance(id=f"{c}@h", cause_name=c, host_entity="h",
                                          prior=priors[c])
              for c in associations}
    symptoms = {f"{s}@h": SymptomInstance(id=f"{s}@h", symptom_name=s, host_entity="h",
                                          activation=ActivationSpec(kind="event"))
                for s in symptom_names}
    edges = {}
    for c, targets in associations.items():
        for s, p in targets.items():
            edges[(f"{c}@h", f"{s}@h")] = CausalEdge(cause_id=f"{c}@h",
                                                     symptom_id=f"{s}@h",
                                                     probability=p, origin_symptom=s,
                                                     local_probability=p)
    return CausalityGraph(causes, symptoms, edges, topology_revision=0,
                          entity_types={"h": "svc"}, attribute_decls={"svc": ()})


# -- activation ---------------------------------------------------------------

def test_no_observations_nothing_active(shop_engine):
    cg = shop_engine.snapshot().causality
    assert activate_symptoms(cg, []).symptoms == frozenset()


def test_threshold_sample_activates_symptom(shop_engine):
    cg = shop_engine.snapshot().causality
    active = activate_symptoms(cg, [attribute_sample("frontend", 1, "error_rate", 0.35)])
    assert active.symptoms == {"http_error_spike@frontend"}


def test_threshold_uses_most_recent_sample(shop_engine):
    cg = shop_engine.snapshot().causality
    obs = [attribute_sample("frontend", 1, "error_rate", 0.35),
           attribute_sample("frontend", 5, "error_rate", 0.001)]
    assert activate_symptoms(cg, obs).symptoms == frozenset()
    assert activate_symptoms(cg, list(reversed(obs))).symptoms == frozenset()


def test_symptom_event_activates_directly(shop_engine):
    cg = shop_engine.snapshot().causality
    active = activate_symptoms(cg, [symptom_event("payment-pod-0", 3, "pod_crash_loop")])
    assert active.symptoms == {"pod_crash_loop@payment-pod-0"}
    assert active.as_of == 3


def test_scope_excludes_out_of_scope_symptoms(shop_engine):
    cg = shop_engine.snapshot().causality
    obs = [attribute_sample("frontend", 1, "error_rate", 0.35)]
    assert activate_symptoms(cg, obs, scope={"payment"}).symptoms == frozenset()


def test_activation_names_only_the_instances_a_hand_built_graph_holds():
    spike = ActivationSpec(kind="threshold", attribute="x", comparator=">", threshold=0.5)
    cg = CausalityGraph({}, {"s@h1": SymptomInstance(id="s@h1", symptom_name="s",
                                                     host_entity="h1", activation=spike)},
                        {}, topology_revision=0, entity_types={"h1": "svc", "h2": "svc"},
                        attribute_decls={"svc": ("x",)})
    obs = [attribute_sample("h1", 1, "x", 0.9), attribute_sample("h2", 1, "x", 0.9)]
    assert activate_symptoms(cg, obs) == replay_activation(cg, obs)
    assert activate_symptoms(cg, obs).symptoms == {"s@h1"}


def test_observation_validation(shop_engine):
    cg = shop_engine.snapshot().causality
    with pytest.raises(UnknownIdError):
        activate_symptoms(cg, [attribute_sample("ghost", 1, "error_rate", 0.5)])
    with pytest.raises(DocumentError):
        activate_symptoms(cg, [attribute_sample("frontend", 1, "bogus_attr", 0.5)])
    with pytest.raises(DocumentError):
        activate_symptoms(cg, [symptom_event("frontend", 1, "transaction_rejections")])


def test_observation_shape_validation():
    with pytest.raises(DocumentError):
        attribute_sample("e", 1, "a", None)


# -- score --------------------------------------------------------------------

def test_score_single_explained_symptom():
    cg = tiny_graph({"r1": {"s1": 0.9}}, {"r1": 0.5})
    active = ActiveSymptomSet(frozenset({"s1@h"}))
    (entry,) = localize(cg, active).ranked
    assert math.exp(entry.log_score) == pytest.approx(0.45, rel=1e-12)


def test_score_two_unexplained_symptoms_log_space_cross_check():
    # r0 is a candidate through s3 and leaks on s1 and s2, which it has no edge to.
    cg = tiny_graph({"r1": {"s1": 0.9, "s2": 0.9}, "r0": {"s3": 0.5}},
                    {"r1": 0.5, "r0": 0.01})
    active = ActiveSymptomSet(frozenset({"s1@h", "s2@h", "s3@h"}))
    (entry,) = [e for e in localize(cg, active, leak=1e-3).ranked if e.cause_id == "r0@h"]
    got = math.exp(entry.log_score)
    direct = 0.01 * 1e-3 * 1e-3 * 0.5
    assert got == pytest.approx(direct, rel=1e-9)
    assert got == pytest.approx(5e-9, rel=1e-9)
    assert entry.log_score == pytest.approx(math.log(direct), rel=1e-9)
    assert entry.explained == ("s3@h",)


# -- localize -----------------------------------------------------------------

def test_localize_empty_active_set_has_no_best():
    cg = tiny_graph({"r1": {"s1": 0.9}}, {"r1": 0.5})
    diagnosis = localize(cg, ActiveSymptomSet(frozenset()))
    assert diagnosis.best is None
    assert diagnosis.ranked == ()


def test_localize_prefers_cause_explaining_both_symptoms():
    cg = tiny_graph({"r1": {"s1": 0.9, "s2": 0.9}, "r2": {"s1": 0.8}},
                    {"r1": 1.0, "r2": 1.0})
    active = ActiveSymptomSet(frozenset({"s1@h", "s2@h"}))
    diagnosis = localize(cg, active, leak=1e-3)
    assert [e.cause_id for e in diagnosis.ranked] == ["r1@h", "r2@h"]
    assert math.exp(diagnosis.ranked[0].log_score) == pytest.approx(0.81, rel=1e-9)
    assert math.exp(diagnosis.ranked[1].log_score) == pytest.approx(0.0008, rel=1e-9)
    assert diagnosis.symptoms == ("s1@h", "s2@h")
    assert diagnosis.ranked[0].explained == ("s1@h", "s2@h")
    # the symptoms a cause leaves unexplained are the complement
    assert [s for s in diagnosis.symptoms if s not in diagnosis.ranked[1].explained] == ["s2@h"]


def test_localize_scenario_fault_points_at_payment_defect(shop_engine):
    from cie.harness import background_observations, inject_fault, load_scenario
    from cie import data

    scenario = load_scenario(data.scenario_path("active-fault"))
    cg = shop_engine.snapshot().causality
    obs = background_observations(scenario) + inject_fault(scenario)
    active = activate_symptoms(cg, obs)
    hosts = {cg.symptoms[s].host_entity for s in active.symptoms}
    assert hosts == {"payment", "checkout", "accounting", "shipping"}
    diagnosis = localize(cg, active)
    assert diagnosis.best.cause_id == "code_defect_transaction_rejection@payment"
    assert diagnosis.best.score > 0.9


def test_localize_scores_normalized():
    cg = tiny_graph({"r1": {"s1": 0.9}, "r2": {"s1": 0.7}, "r3": {"s1": 0.2}},
                    {"r1": 0.1, "r2": 0.2, "r3": 0.3})
    diagnosis = localize(cg, ActiveSymptomSet(frozenset({"s1@h"})))
    assert sum(e.score for e in diagnosis.ranked) == pytest.approx(1.0, abs=1e-9)
    assert all(e1.score >= e2.score for e1, e2 in zip(diagnosis.ranked,
                                                      diagnosis.ranked[1:]))


def test_localize_tie_break_prior_then_id():
    cg = tiny_graph({"ra": {"s1": 0.5}, "rb": {"s1": 0.5}, "rc": {"s1": 0.5}},
                    {"ra": 0.1, "rb": 0.1, "rc": 0.3})
    diagnosis = localize(cg, ActiveSymptomSet(frozenset({"s1@h"})))
    assert [e.cause_id for e in diagnosis.ranked] == ["rc@h", "ra@h", "rb@h"]


def test_localize_unexplained_symptoms_yield_no_candidates():
    cg = tiny_graph({"r1": {"s1": 0.9}, "r2": {"s2": 0.8}}, {"r1": 0.3, "r2": 0.1})
    # nothing explains s3: no cause has an edge to it, and the leak that
    # softens a candidate's missing edge makes no cause a candidate
    cg.symptoms["s3@h"] = SymptomInstance(id="s3@h", symptom_name="s3", host_entity="h",
                                          activation=ActivationSpec(kind="event"))
    assert localize(cg, ActiveSymptomSet(frozenset({"s3@h"}))).ranked == ()
    both = localize(cg, ActiveSymptomSet(frozenset({"s1@h", "s3@h"})))
    assert both.symptoms == ("s1@h", "s3@h")
    assert [(e.cause_id, [s for s in both.symptoms if s not in e.explained])
            for e in both.ranked] == [("r1@h", ["s3@h"])]


def test_orphan_symptom_answer_equal_on_demand_and_eager(shop_engine, monkeypatch):
    # No cause explains a crash loop on a -pod-0: both methods say degraded
    # with no root cause, and answering compiles no cause block.
    graph, cb = shop_engine.topology, shop_engine.codebook
    eager = eager_causality(graph, cb)
    sid = "pod_crash_loop@frontend-pod-0"
    assert not eager.causes_of(sid)
    compiled = []
    compile_block = cie.causality._compile
    monkeypatch.setattr(cie.causality, "_compile",
                        lambda *args: compiled.append(args[-1].id) or compile_block(*args))
    for method in ("get_root_causes", "get_environment_health"):
        answers = [handle({"id": 1, "method": method},
                          EngineSnapshot(graph, cb, cg, {sid}, None, LEAK,
                                         shop_engine.max_depth, as_of=1)).to_dict()
                   for cg in (instantiate(graph, cb), eager)]
        assert answers[0] == answers[1]
        assert answers[0]["status"] == "ok"
        payload = answers[0]["payload"]
        if method == "get_root_causes":
            assert payload["verdict"] == "no_active_root_cause"
            assert (payload["best"], payload["ranked"]) == (None, [])
        else:
            assert payload["verdict"] == "degraded"
            assert [s["id"] for s in payload["active_symptoms"]] == [sid]
            assert payload["root_causes"] == []
        assert payload["message"] == "no active root cause"
    assert compiled == []
    # the counter sees compiles: reading one block compiles exactly it
    instantiate(graph, cb).edges_from("code_defect_transaction_rejection@payment")
    assert compiled == ["code_defect_transaction_rejection@payment"]

# -- health semantics -------------------------------------------------------------

def _health(engine, observations, params=None) -> dict:
    engine.ingest(observations)
    response = handle({"id": 1, "method": "get_environment_health", "params": params},
                      engine.snapshot())
    assert response.status == "ok"
    return response.payload


@pytest.fixture()
def fresh_shop_engine(shop_env_path, shop_codebook_path):
    return Engine.from_files(shop_env_path, shop_codebook_path)


def test_healthy_report_is_explicit(fresh_shop_engine):
    payload = _health(fresh_shop_engine,
                      [attribute_sample("frontend", 1, "error_rate", 0.001)])
    assert payload["verdict"] == "healthy"
    assert payload["root_causes"] == []
    assert payload["active_symptoms"] == []
    assert payload["message"] == "no active root cause"


def test_degraded_report_lists_supported_causes(fresh_shop_engine):
    obs = [attribute_sample("payment", 1, "transaction_reject_rate", 0.99)]
    payload = _health(fresh_shop_engine, obs)
    assert payload["verdict"] == "degraded"
    supported = [c["cause"] for c in payload["root_causes"]]
    assert "code_defect_transaction_rejection@payment" in supported
    assert "message" not in payload


def test_scope_restriction_turns_report_healthy(fresh_shop_engine):
    obs = [attribute_sample("payment", 1, "transaction_reject_rate", 0.99)]
    payload = _health(fresh_shop_engine, obs, {"scope": ["frontend", "cart"]})
    assert payload["verdict"] == "healthy"
    assert payload["root_causes"] == []


# -- oracle properties ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_localize_matches_brute_force(seed):
    rng = random.Random(seed)
    cg = random_inference_graph(rng)
    active = random_active_set(rng, cg)
    diagnosis = localize(cg, active, leak=LEAK)
    oracle = brute_force_ranking(cg, active, LEAK)
    assert [e.cause_id for e in diagnosis.ranked] == [cid for cid, _ in oracle]
    for entry, (_, expected) in zip(diagnosis.ranked, oracle):
        assert math.exp(entry.log_score) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9),
       st.floats(min_value=0.01, max_value=50.0))
def test_argmax_invariant_under_prior_scaling(seed, scale):
    rng = random.Random(seed)
    cg = random_inference_graph(rng)
    active = random_active_set(rng, cg)
    scaled = CausalityGraph(
        {cid: RootCauseInstance(id=c.id, cause_name=c.cause_name,
                                host_entity=c.host_entity, prior=c.prior * scale)
         for cid, c in cg.causes.items()},
        cg.symptoms, cg.edges, cg.topology_revision, cg.entity_types,
        cg.attribute_decls)
    base = [e.cause_id for e in localize(cg, active, leak=LEAK).ranked]
    rescaled = [e.cause_id for e in localize(scaled, active, leak=LEAK).ranked]
    assert base == rescaled


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_adding_explained_symptom_never_demotes_explainer(seed):
    rng = random.Random(seed)
    cg = random_inference_graph(rng)
    explained_by = {}
    for (cid, sid) in cg.edges:
        explained_by.setdefault(sid, set()).add(cid)
    candidates = [(sid, cids) for sid, cids in explained_by.items() if cids]
    if not candidates:
        return
    sid, cids = sorted(candidates)[rng.randrange(len(candidates))]
    r = sorted(cids)[0]
    others = [c for c in cg.causes if c not in cids]
    if not others:
        return
    r_prime = sorted(others)[0]
    base_ids = set(cg.symptoms) - {sid}
    base = ActiveSymptomSet(frozenset(rng.sample(sorted(base_ids),
                                                 rng.randint(0, len(base_ids)))))
    extended = ActiveSymptomSet(base.symptoms | {sid})

    def rank_of(diag, cid):
        ids = [e.cause_id for e in diag.ranked]
        return ids.index(cid) if cid in ids else len(ids)

    before = localize(cg, base, leak=LEAK)
    after = localize(cg, extended, leak=LEAK)
    if rank_of(before, r) < rank_of(before, r_prime):
        assert rank_of(after, r) < rank_of(after, r_prime)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_normalization_sums_to_one(seed):
    rng = random.Random(seed)
    cg = random_inference_graph(rng)
    active = random_active_set(rng, cg, allow_empty=False)
    diagnosis = localize(cg, active, leak=LEAK)
    explained = any(sid in active.symptoms for _, sid in cg.edges)
    assert bool(diagnosis.ranked) == explained
    if explained:
        assert sum(e.score for e in diagnosis.ranked) == pytest.approx(1.0, abs=1e-9)


# -- instantiated end to end -----------------------------------------------------

def test_localize_over_instantiated_chain(chain_codebook, chain_topology):
    cg = instantiate(chain_topology, chain_codebook)
    obs = [attribute_sample("A", 1, "error_rate", 0.4),
           attribute_sample("B", 1, "error_rate", 0.3)]
    active = activate_symptoms(cg, obs)
    diagnosis = localize(cg, active)
    # B's defect explains both A's and B's errors; C's only explains them attenuated,
    # A's defect cannot explain B's symptom at all.
    assert diagnosis.best.cause_id == "defect@B"


# -- observation stream files -----------------------------------------------------

def test_observation_stream_round_trip():
    obs = [attribute_sample("payment", 1, "error_rate", 0.5),
           symptom_event("checkout", 2, "order_placement_failures")]
    assert parse_observations(render_observations(obs)) == obs


def test_observation_stream_parse_error_located():
    with pytest.raises(DocumentError, match="line 2"):
        parse_observations('{"tick": 1, "entity": "e", "symptom": "s"}\n{oops\n')


@pytest.mark.parametrize("fields, message", [
    ({"entity": ["payment"], "symptom": "transaction_rejections"}, "'entity' must be a string"),
    ({"entity": 7, "symptom": "transaction_rejections"}, "'entity' must be a string"),
    ({"entity": None, "symptom": "transaction_rejections"}, "'entity' must be a string"),
    ({"entity": "payment", "symptom": ["transaction_rejections"]},
     "'symptom' must be a string"),
    ({"entity": "payment", "attribute": {"a": 1}, "value": 1.0}, "'attribute' must be a string"),
    ({"entity": "payment", "attribute": "transaction_reject_rate", "value": math.nan},
     "'value' must be a finite number"),
    ({"entity": "payment", "attribute": "transaction_reject_rate", "value": -math.inf},
     "'value' must be a finite number"),
    ({"entity": "payment", "attribute": "transaction_reject_rate", "value": True},
     "'value' must be a finite number"),
    *[({"entity": "checkout", "tick": tick, "attribute": "error_rate", "value": 0.9},
       "'tick' must be an integer") for tick in (2.5, 2.0, "2", None, True, [2])],
])
def test_observation_fields_validated(fields, message):
    with pytest.raises(DocumentError, match=message):
        observation_from_dict({"tick": 1, **fields})
    with pytest.raises(DocumentError, match=f"line 1: {message}"):
        parse_observations(json.dumps({"tick": 1, **fields}) + "\n")


@pytest.mark.parametrize("raw, message", [
    ({"tick": 1, "entity": "e", "attribute": "a", "value": 1.0, "symptom": "s"},
     "observation must carry either attribute/value or symptom"),
    ({"tick": 1, "entity": "e"}, "observation must carry either attribute/value or symptom"),
    ({"tick": 1, "entity": "e", "value": 1.0},
     "observation must carry either attribute/value or symptom"),
    ({"tick": 1, "entity": "e", "attribute": "a"}, "attribute sample 'a' has no value"),
    ({"entity": "e", "symptom": "s"}, "observation requires 'entity' and 'tick'"),
    ({"tick": 1, "symptom": "s"}, "observation requires 'entity' and 'tick'"),
    (["e", 1, "s"], "observation requires 'entity' and 'tick'"),
], ids=["attribute-and-symptom", "neither", "value-without-attribute",
        "attribute-without-value", "no-tick", "no-entity", "not-object"])
def test_observation_refusals_are_located(raw, message):
    with pytest.raises(DocumentError) as info:
        located("observations[3]", observation_from_dict, raw)
    assert info.value.location == "observations[3]"
    assert str(info.value) == f"observations[3]: {message}"
    with pytest.raises(DocumentError) as info:
        parse_observations("\n" + json.dumps(raw) + "\n")
    assert str(info.value) == f"line 2: {message}"


def test_observation_built_directly_needs_attribute_or_symptom():
    with pytest.raises(DocumentError, match="^observation must carry either attribute/value"):
        Observation(target="e", tick=1)
    with pytest.raises(DocumentError, match="^observation must carry either attribute/value"):
        Observation(target="e", tick=1, attribute="a", value=1.0, symptom="s")


@pytest.mark.parametrize("fields, message", [
    ({"target": ["x"], "symptom": "s"}, "'entity' must be a string"),
    ({"target": None, "tick": "1", "symptom": "s"}, "'entity' must be a string"),
    ({"target": "x", "symptom": ["s"]}, "'symptom' must be a string"),
    ({"target": "x", "attribute": {"a": 1}, "value": 1.0}, "'attribute' must be a string"),
    ({"target": "x", "attribute": 7, "tick": 2.5}, "'attribute' must be a string"),
])
def test_observation_built_directly_needs_string_fields(fields, message):
    with pytest.raises(DocumentError, match=f"^{message}$"):
        Observation(**{"tick": 1, **fields})


def test_nan_sample_cannot_clear_an_active_symptom(fresh_shop_engine):
    engine = fresh_shop_engine
    engine.ingest(parse_observations(
        '{"tick": 1, "entity": "payment", "attribute": "transaction_reject_rate", '
        '"value": 0.99}\n'))
    assert len(engine.snapshot().active().symptoms) == 1
    with pytest.raises(DocumentError):
        parse_observations('{"tick": 2, "entity": "payment", '
                           '"attribute": "transaction_reject_rate", "value": NaN}\n')
    assert len(engine.snapshot().active().symptoms) == 1


def test_scores_independent_of_active_set_insertion_order(shop_engine):
    # Equal frozensets built in different insertion orders can iterate in
    # different orders; scores accumulate in sorted order, so the ranking
    # and every score agree to the last digit.
    cg = shop_engine.snapshot().causality
    rng = random.Random(7)
    sids = sorted(cg.symptoms)
    reordered = 0
    for _ in range(200):
        chosen = rng.sample(sids, 24)
        shuffled = rng.sample(chosen, len(chosen))
        first, second = frozenset(chosen), frozenset(shuffled)
        if list(first) == list(second):
            continue
        reordered += 1
        assert (localize(cg, ActiveSymptomSet(first, as_of=1))
                == localize(cg, ActiveSymptomSet(second, as_of=1)))
    assert reordered > 0
