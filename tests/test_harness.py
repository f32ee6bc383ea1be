from __future__ import annotations

import json

import pytest

from cie import data
from cie.engine import Engine
from cie.errors import DocumentError
from cie.harness import (_RUBRIC, background_observations, footprint_metrics,
                         format_rubric_table, inject_fault, load_scenario,
                         metrics_to_jsonl, rubric_report_dict, run_scenario)

from genmodels import render_observations


@pytest.fixture(scope="module")
def fault_scenario():
    return load_scenario(data.scenario_path("active-fault"))


@pytest.fixture(scope="module")
def healthy_scenario():
    return load_scenario(data.scenario_path("healthy"))


def test_load_scenario_resolves_relative_files(fault_scenario):
    assert fault_scenario.mode == "active_fault"
    assert fault_scenario.environment_path.exists()
    assert fault_scenario.codebook_path.exists()
    assert [q.query_id for q in fault_scenario.queries] == [
        "Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


def test_healthy_scenario_forbids_fault_block(tmp_path, healthy_scenario):
    doc = json.loads(data.scenario_path("healthy").read_text())
    doc["fault"] = {"cause": "x", "observations": []}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match="forbids"):
        load_scenario(bad)


def test_active_fault_scenario_requires_fault_block(tmp_path):
    doc = json.loads(data.scenario_path("active-fault").read_text())
    del doc["fault"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match="requires"):
        load_scenario(bad)


def test_unmapped_query_fails_loudly_at_load(tmp_path):
    doc = json.loads(data.scenario_path("healthy").read_text())
    doc["queries"][0]["use_case"] = "astrology"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match="no rubric rule"):
        load_scenario(bad)


def _set_query_field(key, value):
    def edit(doc):
        doc["queries"][0][key] = value
    return edit


def _set_expect(index, key, value):
    def edit(doc):
        expect = doc["queries"][index]["expect"]
        if value is None:
            del expect[key]
        else:
            expect[key] = value
    return edit


def _set_jitter(key, value):
    def edit(doc):
        doc["fault"]["observations"][1]["value"][key] = value
    return edit


@pytest.mark.parametrize("edit, location", [
    (lambda doc: [doc], None),
    (_set_query_field("request", 5), "queries[0]"),
    (_set_query_field("expect", ["verdict"]), "queries[0]"),
    (_set_query_field("id", ["a"]), "queries[0]"),
    (lambda doc: {**doc, "fault": "x"}, "fault"),
    (lambda doc: {**doc, "fault": {"observations": []}}, "fault"),
    (lambda doc: {**doc, "fault": {"cause": ["x"], "observations": []}}, "fault"),
    (_set_expect(2, "cause_name", None), "queries[2]"),
    (_set_expect(2, "entity", None), "queries[2]"),
    (_set_expect(4, "aligned", ["payment-pod-0"]), "queries[4]"),
    (_set_expect(5, "teams", "team-payments"), "queries[5]"),
    (_set_expect(5, "teams", [["team-payments"]]), "queries[5]"),
    (_set_expect(1, "impacted", 5), "queries[1]"),
    (_set_jitter("mean", "0.97"), "fault.observations[1]"),
    (_set_jitter("mean", None), "fault.observations[1]"),
    (_set_jitter("jitter", [0.005]), "fault.observations[1]"),
    (_set_jitter("jitter", True), "fault.observations[1]"),
    (lambda doc: {**doc, "background_observations": {"tick": 1}}, "background_observations"),
    (lambda doc: {**doc, "fault": {**doc["fault"], "observations": "x"}},
     "fault.observations"),
    (lambda doc: doc["background_observations"][2].update(entity=7),
     "background_observations[2]"),
    (lambda doc: doc["fault"]["observations"][0].update(tick="1"), "fault.observations[0]"),
    (lambda doc: doc["fault"]["observations"].insert(2, 5), "fault.observations[2]"),
], ids=["top-level-array", "request-not-object", "expect-not-object", "id-not-string",
        "fault-not-object", "fault-without-cause", "cause-not-string",
        "root-cause-without-cause-name", "root-cause-without-entity", "aligned-list",
        "teams-string", "teams-nested", "impacted-number", "jitter-mean-string",
        "jitter-mean-null", "jitter-list", "jitter-bool", "background-not-array",
        "fault-script-not-array", "background-entity-not-string",
        "fault-entry-tick-string", "fault-entry-not-object"])
def test_malformed_scenario_is_a_located_document_error(tmp_path, edit, location):
    doc = json.loads(data.scenario_path("active-fault").read_text())
    doc = edit(doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DocumentError) as info:
        scenario = load_scenario(bad)
        background_observations(scenario)
        inject_fault(scenario)
    assert info.value.location == (location or str(bad))


def test_inject_fault_healthy_mode_is_an_error(healthy_scenario):
    with pytest.raises(DocumentError, match="active_fault"):
        inject_fault(healthy_scenario)


def test_run_scenario_rejects_fault_cause_absent_from_model(tmp_path):
    doc = json.loads(data.scenario_path("active-fault").read_text())
    doc["fault"]["cause"] = "no_such_cause@nowhere"
    doc["environment"] = str(data.path("astronomy_shop_env.json"))
    doc["codebook"] = str(data.path("astronomy_shop_codebook.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match="absent"):
        run_scenario(load_scenario(bad))


def test_fault_stream_activates_expected_hosts(fault_scenario, shop_engine):
    from cie.inference import activate_symptoms

    cg = shop_engine.snapshot().causality
    obs = background_observations(fault_scenario) + inject_fault(fault_scenario)
    active = activate_symptoms(cg, obs)
    hosts = {cg.symptoms[s].host_entity for s in active.symptoms}
    assert hosts == {"payment", "checkout", "accounting", "shipping"}


def test_same_seed_yields_byte_identical_streams(fault_scenario):
    first = render_observations(inject_fault(fault_scenario, seed=42))
    second = render_observations(inject_fault(fault_scenario, seed=42))
    other = render_observations(inject_fault(fault_scenario, seed=43))
    assert first.encode() == second.encode()
    assert first != other  # the jittered samples actually move


def test_fault_scenario_scores_six_of_six(fault_scenario):
    result = run_scenario(fault_scenario)
    assert result.passed_count == 6
    assert result.all_passed
    assert result.totals() == {"health_assessment": (1, 1), "impact_analysis": (2, 2),
                               "root_cause": (2, 2), "remediation": (1, 1)}


def test_healthy_scenario_scores_three_of_three(healthy_scenario):
    result = run_scenario(healthy_scenario)
    assert result.passed_count == 3
    assert result.all_passed
    for query in result.per_query:
        assert "no" in query.reason  # explicit negatives, zero hallucinated incidents


def test_run_scenario_deterministic(fault_scenario):
    a = run_scenario(fault_scenario, seed=5)
    b = run_scenario(fault_scenario, seed=5)
    assert [(q.query_id, q.passed, q.reason) for q in a.per_query] == \
           [(q.query_id, q.passed, q.reason) for q in b.per_query]
    # metrics are reproducible too, wall-clock aside
    assert [(t.query_id, t.tool_calls, t.payload_bytes) for t in a.traces] == \
           [(t.query_id, t.tool_calls, t.payload_bytes) for t in b.traces]


def ablated_engine(fault_scenario, mutate):
    doc = json.loads(fault_scenario.codebook_path.read_text())
    mutate(doc)
    return Engine.from_documents(fault_scenario.environment_path.read_text(), doc)


def test_ablation_missing_rules_fails_impact_with_reason(fault_scenario):
    engine = ablated_engine(fault_scenario,
                            lambda doc: doc.update(propagation_rules=[]))
    result = run_scenario(fault_scenario, engine=engine)
    by_id = {q.query_id: q for q in result.per_query}
    assert not by_id["Q2"].passed
    assert "missing downstream entities" in by_id["Q2"].reason
    assert not result.all_passed


def test_ablation_deleted_defect_fails_root_cause(fault_scenario):
    def drop_defect(doc):
        doc["root_causes"] = [c for c in doc["root_causes"]
                              if c["name"] != "code_defect_transaction_rejection"]
    engine = ablated_engine(fault_scenario, drop_defect)
    result = run_scenario(fault_scenario, engine=engine)
    by_id = {q.query_id: q for q in result.per_query}
    assert not by_id["Q3"].passed
    assert "expected cause" in by_id["Q3"].reason


def test_each_rubric_query_costs_exactly_one_tool_call(fault_scenario, healthy_scenario):
    for scenario in (fault_scenario, healthy_scenario):
        metrics = footprint_metrics(run_scenario(scenario))
        assert all(q["tool_calls"] == 1 for q in metrics["queries"])
        assert metrics["totals"]["tool_calls"] == len(scenario.queries)


def test_healthy_total_calls_not_above_fault_total(fault_scenario, healthy_scenario):
    fault = footprint_metrics(run_scenario(fault_scenario))
    healthy = footprint_metrics(run_scenario(healthy_scenario))
    assert healthy["totals"]["tool_calls"] <= fault["totals"]["tool_calls"]


def test_metrics_round_trip_through_jsonl(fault_scenario):
    metrics = footprint_metrics(run_scenario(fault_scenario))
    header, *queries = [json.loads(line)
                        for line in metrics_to_jsonl(metrics).splitlines()]
    assert header.pop("record") == "header"
    assert all(q.pop("record") == "query" for q in queries)
    assert {**header, "queries": queries} == metrics
    assert metrics["token_proxy"] == "response payload bytes"


def test_rubric_report_formats(fault_scenario):
    result = run_scenario(fault_scenario)
    report = rubric_report_dict(result)
    assert report["all_passed"] is True
    assert report["passed"] == 6
    table = format_rubric_table(result)
    assert "6/6" in table
    assert "Q5" in table



_REF = {"cause": "x@payment", "cause_name": "x", "entity": "payment"}


@pytest.mark.parametrize("mode, use_case, payload, expect, reason", [
    ("healthy", "health_assessment", {"verdict": "degraded"}, {},
     "hallucinated incident: verdict 'degraded'"),
    ("healthy", "health_assessment", {"verdict": "healthy", "root_causes": [_REF]}, {},
     "healthy verdict but non-empty root cause list"),
    ("active_fault", "health_assessment", {"verdict": "healthy"}, {},
     "expected verdict 'degraded', got 'healthy'"),
    ("healthy", "impact_analysis", {"cause": None, "transitive": ["payment"]}, {},
     "impacted services reported on a healthy environment: ['payment']"),
    ("healthy", "impact_analysis", {"cause": _REF, "transitive": []}, {},
     "impacted services reported on a healthy environment: []"),
    ("active_fault", "impact_analysis", {"transitive": ["payment"]},
     {"impacted": ["payment", "checkout"]}, "missing downstream entities: ['checkout']"),
    ("active_fault", "impact_analysis", {"transitive": ["payment", "cart"]},
     {"impacted": ["payment"]}, "false positives: ['cart']"),
    ("active_fault", "impact_analysis", {"transitive": ["payment"], "teams": ["a"]},
     {"impacted": ["payment"], "teams": ["b"]}, "expected teams ['b'], got ['a']"),
    ("active_fault", "impact_analysis",
     {"transitive": ["payment"], "teams": ["a", "b"], "multi_team": False},
     {"impacted": ["payment"], "teams": ["a", "b"], "multi_team": True},
     "multi-team involvement flag wrong"),
    ("healthy", "root_cause", {"verdict": "localized"}, {},
     "expected explicit negative, got 'localized'"),
    ("active_fault", "root_cause", {"verdict": "localized"}, {"no_root_cause": True},
     "expected explicit negative, got 'localized'"),
    ("active_fault", "root_cause", {"best": None}, {"cause_name": "x", "entity": "payment"},
     "expected cause 'x', got None"),
    ("active_fault", "root_cause", {"best": _REF}, {"cause_name": "y", "entity": "payment"},
     "expected cause 'y', got 'x'"),
    ("active_fault", "root_cause", {"best": _REF}, {"cause_name": "x", "entity": "cart"},
     "expected entity 'cart', got 'payment'"),
    ("active_fault", "root_cause", {"best": _REF, "team": {"responsible": False}},
     {"cause_name": "x", "entity": "payment", "team_responsible": True},
     "expected team_responsible=True"),
    ("active_fault", "remediation", {"verdicts": [{"target": "cart", "aligned": True}]},
     {"aligned": {"payment": True}}, "no verdict for target 'payment'"),
    ("active_fault", "remediation", {"verdicts": [{"target": "payment", "aligned": False}]},
     {"aligned": {"payment": True}}, "target 'payment': expected aligned=True, got False"),
])
def test_rubric_rule_fails_a_wrong_answer_with_its_reason(mode, use_case, payload, expect,
                                                          reason):
    passed, got = _RUBRIC[use_case](mode, payload, expect)
    assert passed is False
    assert got == reason


def test_tool_error_fails_the_query_with_the_error(tmp_path):
    doc = json.loads(data.scenario_path("healthy").read_text())
    doc["queries"][0]["request"]["params"] = {"scope": ["ghost"]}
    doc["environment"] = str(data.path("astronomy_shop_env.json"))
    doc["codebook"] = str(data.path("astronomy_shop_codebook.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    first = run_scenario(load_scenario(bad)).per_query[0]
    assert first.passed is False
    assert first.reason == ("tool error: {'code': 'unknown_id', "
                            "'message': \"unknown entities in scope: ['ghost']\"}")
