from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

import cie.harness
import cie.service
from cie import data
from cie.cli import main
from cie.harness import inject_fault, load_scenario

from genmodels import render_observations


@pytest.fixture()
def runner():
    return CliRunner()


def test_scenario_run_active_fault_exits_zero(runner):
    result = runner.invoke(main, ["scenario", "run", "--scenario", "builtin:active-fault"])
    assert result.exit_code == 0, result.output
    assert "6/6" in result.output


def test_scenario_run_healthy_json_report(runner):
    result = runner.invoke(main, ["scenario", "run", "--scenario", "builtin:healthy",
                                  "--format", "json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["all_passed"] is True
    assert report["passed"] == 3


def test_scenario_run_writes_metrics(runner, tmp_path, monkeypatch):
    calls = []

    def counted(request, snapshot):
        calls.append(request["id"])
        return cie.service.handle(request, snapshot)

    monkeypatch.setattr(cie.harness, "handle", counted)
    metrics_path = tmp_path / "metrics.jsonl"
    result = runner.invoke(main, ["scenario", "run", "--scenario", "builtin:active-fault",
                                  "--metrics-out", str(metrics_path)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in metrics_path.read_text().splitlines()]
    assert lines[0]["record"] == "header"
    assert sum(1 for line in lines if line["record"] == "query") == 6
    # one scenario run: each query reaches the tool service once
    queries = [q.query_id for q in load_scenario(data.scenario_path("active-fault")).queries]
    assert calls == queries
    assert [line["query_id"] for line in lines if line["record"] == "query"] == queries


def test_scenario_run_failing_rubric_exits_nonzero(runner, tmp_path):
    doc = json.loads(data.scenario_path("active-fault").read_text())
    for query in doc["queries"]:
        if query["id"] == "Q3":
            query["expect"]["cause_name"] = "gremlins"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    # keep relative env/codebook references resolvable
    for name in ("astronomy_shop_env.json", "astronomy_shop_codebook.json"):
        (tmp_path / name).write_text(data.path(name).read_text())
    result = runner.invoke(main, ["scenario", "run", "--scenario", str(broken)])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_scenario_run_malformed_file_exits_cleanly(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    result = runner.invoke(main, ["scenario", "run", "--scenario", str(bad)])
    assert result.exit_code == 1
    assert "scenario document must be a JSON object" in result.output
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback


def test_scenario_run_unknown_fault_cause_exits_nonzero(runner, tmp_path):
    doc = json.loads(data.scenario_path("active-fault").read_text())
    doc["fault"]["cause"] = "no_such_cause@nowhere"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    for name in ("astronomy_shop_env.json", "astronomy_shop_codebook.json"):
        (tmp_path / name).write_text(data.path(name).read_text())
    result = runner.invoke(main, ["scenario", "run", "--scenario", str(broken)])
    assert result.exit_code == 1
    assert "fault: cause 'no_such_cause@nowhere' absent" in result.output
    assert "PASS" not in result.output


def test_scenario_unknown_builtin(runner):
    result = runner.invoke(main, ["scenario", "run", "--scenario", "builtin:nope"])
    assert result.exit_code != 0
    assert "unknown builtin scenario" in result.output


def test_query_health_without_observations_is_healthy(runner, shop_env_path,
                                                      shop_codebook_path):
    result = runner.invoke(main, ["query", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path),
                                  "--method", "get_environment_health"])
    assert result.exit_code == 0, result.output
    wire = json.loads(result.output)
    assert wire["status"] == "ok"
    assert wire["payload"]["verdict"] == "healthy"


def test_query_with_observation_stream(runner, shop_env_path, shop_codebook_path,
                                       tmp_path):
    scenario = load_scenario(data.scenario_path("active-fault"))
    stream = tmp_path / "obs.jsonl"
    stream.write_text(render_observations(inject_fault(scenario)))
    result = runner.invoke(main, ["query", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path),
                                  "--observations", str(stream),
                                  "--method", "get_root_causes"])
    assert result.exit_code == 0, result.output
    wire = json.loads(result.output)
    assert wire["payload"]["best"]["cause_name"] == "code_defect_transaction_rejection"


def test_query_table_format(runner, shop_env_path, shop_codebook_path):
    result = runner.invoke(main, ["query", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path),
                                  "--method", "get_environment_health",
                                  "--format", "table"])
    assert result.exit_code == 0, result.output
    assert "verdict: healthy" in result.output


def _table_query(runner, env, codebook, tmp_path, method):
    stream = tmp_path / "obs.jsonl"
    stream.write_text(render_observations(
        inject_fault(load_scenario(data.scenario_path("active-fault")))))
    result = runner.invoke(main, ["query", "--env", str(env), "--codebook", str(codebook),
                                  "--observations", str(stream), "--method", method,
                                  "--format", "table"])
    assert result.exit_code == 0, result.output
    return result.output.splitlines()


def test_query_table_lists_objects(runner, shop_env_path, shop_codebook_path, tmp_path):
    lines = _table_query(runner, shop_env_path, shop_codebook_path, tmp_path, "get_symptoms")
    start = lines.index("  symptoms: [6 items]")
    assert lines[start + 1:start + 5] == ["    id: checkout_request_errors@checkout",
                                          "    symptom_name: checkout_request_errors",
                                          "    entity: checkout",
                                          ""]
    assert lines.count("") == 6  # one blank line closes each object


def test_query_table_lists_strings(runner, shop_env_path, shop_codebook_path, tmp_path):
    lines = _table_query(runner, shop_env_path, shop_codebook_path, tmp_path,
                         "get_blast_radius")
    start = lines.index("  transitive: [4 items]")
    assert lines[start + 1:start + 5] == ["    - accounting", "    - checkout",
                                          "    - payment", "    - shipping"]
    assert "    checkout: [2 items]" in lines
    assert "  multi_team: True" in lines


def test_query_bad_params_json(runner, shop_env_path, shop_codebook_path):
    result = runner.invoke(main, ["query", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path),
                                  "--method", "get_symptoms", "--params", "{nope"])
    assert result.exit_code != 0
    assert "not valid JSON" in result.output


def test_query_error_response_exits_nonzero(runner, shop_env_path, shop_codebook_path):
    result = runner.invoke(main, ["query", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path),
                                  "--method", "get_blast_radius",
                                  "--params", '{"cause": "ghost@x"}'])
    assert result.exit_code == 1
    wire = json.loads(result.output)
    assert wire["error"]["code"] == "unknown_id"


def test_graph_dump(runner, shop_env_path, shop_codebook_path):
    result = runner.invoke(main, ["graph", "dump", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path)])
    assert result.exit_code == 0, result.output
    dump = json.loads(result.output)
    assert dump["schema"] == "causality-dump/1"
    assert any(c["id"] == "code_defect_transaction_rejection@payment"
               for c in dump["causes"])


def test_serve_over_stdio(runner, shop_env_path, shop_codebook_path):
    lines = json.dumps({"id": 1, "method": "get_environment_health", "params": {}}) + "\n"
    result = runner.invoke(main, ["serve", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path)],
                           input=lines)
    assert result.exit_code == 0, result.output
    out = [json.loads(line) for line in result.output.splitlines()]
    assert "hello" in out[0]
    assert out[1]["id"] == 1
    assert out[1]["payload"]["verdict"] == "healthy"


@pytest.mark.parametrize("command,option,value", [
    ("serve", "--leak", "0"),
    ("serve", "--max-depth", "-1"),
    ("query", "--leak", "1"),
    ("query", "--max-depth", "-3"),
])
def test_invalid_engine_parameters_rejected_at_start(runner, shop_env_path,
                                                     shop_codebook_path, command,
                                                     option, value):
    args = [command, "--env", str(shop_env_path), "--codebook", str(shop_codebook_path),
            option, value]
    if command == "query":
        args += ["--method", "get_root_causes"]
    lines = json.dumps({"id": 1, "method": "get_root_causes", "params": {}}) + "\n"
    result = runner.invoke(main, args, input=lines)
    assert result.exit_code != 0
    assert option.lstrip("-").replace("-", "_") in result.output
    assert "internal_error" not in result.output


@pytest.mark.parametrize("entity", [{"id": ["a"], "type": "web-service"},
                                    {"id": "a", "type": ["web-service"]}])
def test_serve_rejects_malformed_environment_cleanly(runner, shop_codebook_path, tmp_path,
                                                     entity):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"schema": "env/1", "entities": [entity], "relations": []}))
    result = runner.invoke(main, ["serve", "--env", str(env),
                                  "--codebook", str(shop_codebook_path)], input="")
    assert result.exit_code == 1
    assert "must be strings" in result.output
    assert not isinstance(result.exception, TypeError)


def test_serve_rejects_malformed_attribute_points_cleanly(runner, shop_env_path,
                                                        shop_codebook_path, tmp_path):
    doc = json.loads(shop_env_path.read_text())
    doc["attribute_dependencies"][0]["function"] = {"form": "table", "points": 5}
    env = tmp_path / "env.json"
    env.write_text(json.dumps(doc))
    result = runner.invoke(main, ["serve", "--env", str(env),
                                  "--codebook", str(shop_codebook_path)], input="")
    assert result.exit_code == 1
    assert "pairs of finite numbers" in result.output
    assert not isinstance(result.exception, TypeError)


@pytest.mark.parametrize("line", ['{"tick": 1, "entity": "payment", '
                                  '"attribute": "transaction_reject_rate", "value": NaN}',
                                  '{"tick": 1, "entity": ["payment"], "symptom": "s"}'])
def test_query_rejects_malformed_observations_cleanly(runner, shop_env_path,
                                                      shop_codebook_path, tmp_path, line):
    stream = tmp_path / "obs.jsonl"
    stream.write_text(line + "\n")
    result = runner.invoke(main, ["query", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path),
                                  "--observations", str(stream),
                                  "--method", "get_symptoms"])
    assert result.exit_code == 1
    assert "line 1" in result.output
    assert not isinstance(result.exception, TypeError)


def test_query_locates_an_observation_that_does_not_fit_the_model(runner, shop_env_path,
                                                                  shop_codebook_path,
                                                                  tmp_path):
    stream = tmp_path / "obs.jsonl"
    stream.write_text('{"tick": 1, "entity": "payment", "attribute": "error_rate", '
                      '"value": 0.001}\n\n{"tick": 2, "entity": "ghost", "symptom": "s"}\n')
    result = runner.invoke(main, ["query", "--env", str(shop_env_path),
                                  "--codebook", str(shop_codebook_path),
                                  "--observations", str(stream),
                                  "--method", "get_symptoms"])
    assert result.exit_code == 1
    assert "Error: line 3: observation targets unknown entity 'ghost'" in result.output
