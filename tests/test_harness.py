from __future__ import annotations

import json

import pytest

from cie import data
from cie.engine import Engine
from cie.errors import DocumentError
from cie.harness import (background_observations, build_engine, footprint_metrics,
                         format_rubric_table, inject_fault, load_scenario,
                         metrics_to_jsonl, rubric_report_dict, run_scenario)
from cie.inference import render_observations
from cie.knowledge_base import load_codebook, render_codebook


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


def test_inject_fault_healthy_mode_is_an_error(healthy_scenario):
    with pytest.raises(DocumentError, match="active_fault"):
        inject_fault(healthy_scenario)


def test_inject_fault_unknown_cause_is_an_error(fault_scenario, shop_engine):
    cg = shop_engine.snapshot().causality
    stripped = {cid: inst for cid, inst in cg.causes.items()
                if cid != fault_scenario.fault_cause}
    hollow = type(cg)(stripped, cg.symptoms, {}, cg.topology_revision,
                      cg.entity_types, cg.attribute_decls)
    with pytest.raises(DocumentError, match="absent"):
        inject_fault(fault_scenario, hollow)


def test_fault_stream_activates_expected_hosts(fault_scenario, shop_engine):
    from cie.inference import activate_symptoms

    cg = shop_engine.snapshot().causality
    obs = background_observations(fault_scenario) + inject_fault(fault_scenario, cg)
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
    cb = load_codebook(doc)
    env_doc = fault_scenario.environment_path.read_text()
    return Engine.from_documents(env_doc, render_codebook(cb))


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


def test_build_engine_uses_scenario_files(fault_scenario):
    engine = build_engine(fault_scenario)
    assert "payment" in engine.topology.entity_ids()
