"""Scenario harness: replay a modeled incident and score the engine's answers.

A scenario file binds an environment and codebook, an observation script
(background telemetry plus, in active-fault mode, the fault's symptom
closure), and an ordered query script. Each query maps to exactly one tool
call; answers are scored against per-use-case rubric rules with explicit
negatives expected in healthy mode. The harness also records a footprint
trace per query: tool calls, response payload bytes (the token stand-in,
since no language model is involved), and wall-clock time.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .engine import Engine
from .errors import DocumentError
from .inference import Observation, observation_from_dict
from .knowledge_base import is_finite_number
from .service import METHODS, handle
from .topology import _parse_document

SCENARIO_SCHEMA = "scenario/1"
USE_CASES = ("health_assessment", "impact_analysis", "root_cause", "remediation")


@dataclass(frozen=True, slots=True)
class ScenarioQuery:
    query_id: str
    use_case: str
    request: dict
    expect: dict


@dataclass
class Scenario:
    name: str
    mode: str  # "healthy" | "active_fault"
    environment_path: Path
    codebook_path: Path
    background: list[dict]
    fault_cause: str | None
    fault_observations: list[dict]
    queries: list[ScenarioQuery]


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; unmapped queries fail here, loudly."""
    path = Path(path)
    try:
        doc = _parse_document(path.read_text(), "scenario")
    except DocumentError as exc:
        raise DocumentError(str(exc), location=str(path)) from None
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise DocumentError(f"expected schema {SCENARIO_SCHEMA!r}, got {doc.get('schema')!r}",
                            location="schema")
    mode = doc.get("mode")
    if mode not in ("healthy", "active_fault"):
        raise DocumentError(f"mode must be 'healthy' or 'active_fault', got {mode!r}",
                            location="mode")
    fault = doc.get("fault")
    if mode == "active_fault" and not (isinstance(fault, dict)
                                       and isinstance(fault.get("cause"), str)):
        raise DocumentError("active_fault mode requires a 'fault' object with a 'cause' "
                            "string", location="fault")
    if mode == "healthy" and fault:
        raise DocumentError("healthy mode forbids a 'fault' block", location="fault")
    background = doc.get("background_observations", [])
    fault_script = fault.get("observations", []) if fault else []
    for key, script in (("background_observations", background),
                        ("fault.observations", fault_script)):
        if not isinstance(script, list):
            raise DocumentError("observation script must be an array", location=key)

    for key in ("environment", "codebook"):
        if not isinstance(doc.get(key), str):
            raise DocumentError(f"scenario requires a {key!r} file reference", location=key)
    if not isinstance(doc.get("queries", []), list):
        raise DocumentError("'queries' must be an array", location="queries")

    queries = []
    seen_ids: set[str] = set()
    for i, raw in enumerate(doc.get("queries", [])):
        loc = f"queries[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError("query must be an object", location=loc)
        for key, kind in (("id", str), ("use_case", str), ("request", dict), ("expect", dict)):
            if not isinstance(raw.get(key), kind):
                raise DocumentError(f"query {key!r} is missing or not "
                                    f"{'a string' if kind is str else 'an object'}", location=loc)
        if raw["id"] in seen_ids:
            raise DocumentError(f"duplicate query id {raw['id']!r}", location=loc)
        seen_ids.add(raw["id"])
        if raw["use_case"] not in USE_CASES:
            raise DocumentError(
                f"query {raw['id']} has no rubric rule for use case {raw['use_case']!r}",
                location=loc)
        method = raw["request"].get("method")
        if method not in METHODS:
            raise DocumentError(f"query {raw['id']} requests unknown method {method!r}",
                                location=loc)
        _check_expect(raw, mode, loc)
        queries.append(ScenarioQuery(query_id=raw["id"], use_case=raw["use_case"],
                                     request=raw["request"], expect=raw["expect"]))

    base = path.parent
    return Scenario(
        name=doc.get("name", path.stem),
        mode=mode,
        environment_path=base / doc["environment"],
        codebook_path=base / doc["codebook"],
        background=background,
        fault_cause=fault.get("cause") if fault else None,
        fault_observations=fault_script,
        queries=queries,
    )


def _check_expect(raw: dict, mode: str, loc: str):
    """Raise DocumentError unless the expect fields its rubric rule reads
    have the shapes that rule needs."""
    expect = raw["expect"]
    for key in ("impacted", "teams"):
        if key in expect and not (isinstance(expect[key], list)
                                  and all(isinstance(e, str) for e in expect[key])):
            raise DocumentError(f"expect {key!r} must be a list of entity or team names",
                                location=loc)
    if "aligned" in expect and not isinstance(expect["aligned"], dict):
        raise DocumentError("expect 'aligned' must be an object from target to verdict",
                            location=loc)
    if (raw["use_case"] == "root_cause" and mode == "active_fault"
            and not expect.get("no_root_cause")):
        for key in ("cause_name", "entity"):
            if not isinstance(expect.get(key), str):
                raise DocumentError(f"root-cause expect requires a {key!r} string",
                                    location=loc)


def _resolve_script(entries: list[dict], rng: random.Random, key: str) -> list[Observation]:
    observations = []
    for i, raw in enumerate(entries):
        loc = f"{key}[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError("observation must be an object", location=loc)
        record = dict(raw)
        value = record.get("value")
        if isinstance(value, dict):
            if "mean" not in value:
                raise DocumentError("jittered value requires 'mean'", location=loc)
            jitter = value.get("jitter", 0.0)
            if not (is_finite_number(value["mean"]) and is_finite_number(jitter)):
                raise DocumentError("jittered 'mean' and 'jitter' must be finite numbers",
                                    location=loc)
            record["value"] = value["mean"] + rng.uniform(-jitter, jitter)
        observations.append(observation_from_dict(record, location=loc))
    return observations


def background_observations(scenario: Scenario, seed: int = 0) -> list[Observation]:
    return _resolve_script(scenario.background, random.Random(seed),
                           "background_observations")


def inject_fault(scenario: Scenario, seed: int = 0) -> list[Observation]:
    """Materialize the fault's observation stream, deterministic per seed."""
    if scenario.mode != "active_fault":
        raise DocumentError("inject_fault requires an active_fault scenario")
    return _resolve_script(scenario.fault_observations, random.Random(seed),
                           "fault.observations")


# -- rubric -------------------------------------------------------------------

@dataclass
class QueryResult:
    query_id: str
    use_case: str
    passed: bool
    reason: str


@dataclass
class QueryTrace:
    query_id: str
    method: str
    tool_calls: int
    payload_bytes: int
    wall_ms: float


@dataclass
class RubricResult:
    scenario: str
    mode: str
    per_query: list[QueryResult]
    traces: list[QueryTrace] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(q.passed for q in self.per_query)

    @property
    def passed_count(self) -> int:
        return sum(1 for q in self.per_query if q.passed)

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per-use-case (passed, total)."""
        out: dict[str, tuple[int, int]] = {}
        for q in self.per_query:
            passed, total = out.get(q.use_case, (0, 0))
            out[q.use_case] = (passed + int(q.passed), total + 1)
        return out


def _check_health(mode: str, payload: dict, expect: dict) -> tuple[bool, str]:
    verdict = payload.get("verdict")
    if mode == "healthy":
        if verdict != "healthy":
            return False, f"hallucinated incident: verdict {verdict!r}"
        if payload.get("root_causes"):
            return False, "healthy verdict but non-empty root cause list"
        return True, "reports no active incidents"
    want = expect.get("verdict", "degraded")
    if verdict != want:
        return False, f"expected verdict {want!r}, got {verdict!r}"
    return True, "identifies an active incident"


def _check_impact(mode: str, payload: dict, expect: dict) -> tuple[bool, str]:
    actual = set(payload.get("transitive", []))
    if mode == "healthy":
        if payload.get("cause") is not None or actual:
            return False, f"impacted services reported on a healthy environment: {sorted(actual)}"
        return True, "reports no impacted services"
    expected = set(expect.get("impacted", []))
    missing = expected - actual
    extra = actual - expected
    if missing:
        return False, f"missing downstream entities: {sorted(missing)}"
    if extra:
        return False, f"false positives: {sorted(extra)}"
    if "teams" in expect:
        teams = set(payload.get("teams", []))
        if teams != set(expect["teams"]):
            return False, f"expected teams {sorted(expect['teams'])}, got {sorted(teams)}"
        if payload.get("multi_team") != expect.get("multi_team"):
            return False, "multi-team involvement flag wrong"
    return True, "enumerates the affected services exactly"


def _check_root_cause(mode: str, payload: dict, expect: dict) -> tuple[bool, str]:
    if mode == "healthy" or expect.get("no_root_cause"):
        if payload.get("verdict") != "no_active_root_cause":
            return False, f"expected explicit negative, got {payload.get('verdict')!r}"
        return True, "reports no root cause"
    best = payload.get("best") or {}
    if best.get("cause_name") != expect["cause_name"]:
        return False, (f"expected cause {expect['cause_name']!r}, "
                       f"got {best.get('cause_name')!r}")
    if best.get("entity") != expect["entity"]:
        return False, f"expected entity {expect['entity']!r}, got {best.get('entity')!r}"
    if "team_responsible" in expect:
        team = payload.get("team") or {}
        if team.get("responsible") != expect["team_responsible"]:
            return False, f"expected team_responsible={expect['team_responsible']}"
    return True, "localizes the defect"


def _check_remediation(mode: str, payload: dict, expect: dict) -> tuple[bool, str]:
    expected = expect.get("aligned", {})
    verdicts = {v["target"]: v.get("aligned") for v in payload.get("verdicts", [])}
    for target, want in expected.items():
        if target not in verdicts:
            return False, f"no verdict for target {target!r}"
        if verdicts[target] != want:
            return False, f"target {target!r}: expected aligned={want}, got {verdicts[target]}"
    return True, "assesses the mitigation correctly"


_RUBRIC = {
    "health_assessment": _check_health,
    "impact_analysis": _check_impact,
    "root_cause": _check_root_cause,
    "remediation": _check_remediation,
}


def run_scenario(scenario: Scenario, engine: Engine | None = None,
                 seed: int = 0) -> RubricResult:
    """Replay the scenario into an engine and score every query.

    Each scripted query is issued as a single tool call against a fresh
    snapshot; rubric rules judge the payload. The engine defaults to one
    built from the scenario's own environment and codebook, whose model must
    hold the fault's cause (an ablated engine may be passed in instead; the
    rubric will say what broke).
    """
    if engine is None:
        engine = Engine.from_files(scenario.environment_path, scenario.codebook_path)
        if (scenario.mode == "active_fault"
                and scenario.fault_cause not in engine.snapshot().causality.causes):
            raise DocumentError(f"cause {scenario.fault_cause!r} absent from causality graph",
                                location="fault")
    engine.clear_observations()
    engine.ingest(background_observations(scenario, seed=seed))
    if scenario.mode == "active_fault":
        engine.ingest(inject_fault(scenario, seed=seed))

    results: list[QueryResult] = []
    traces: list[QueryTrace] = []
    for query in scenario.queries:
        request = {"id": query.query_id, "method": query.request.get("method"),
                   "params": query.request.get("params", {})}
        started = time.perf_counter()
        response = handle(request, engine.snapshot())
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        wire = json.dumps(response.to_dict())
        if response.status != "ok":
            passed, reason = False, f"tool error: {response.error}"
        else:
            passed, reason = _RUBRIC[query.use_case](scenario.mode, response.payload,
                                                     query.expect)
        results.append(QueryResult(query.query_id, query.use_case, passed, reason))
        traces.append(QueryTrace(query.query_id, request["method"], tool_calls=1,
                                 payload_bytes=len(wire.encode()), wall_ms=elapsed_ms))
    return RubricResult(scenario=scenario.name, mode=scenario.mode,
                        per_query=results, traces=traces)


def footprint_metrics(result: RubricResult, seed: int = 0) -> dict:
    """Footprint metrics per query of a scored run: tool calls, payload bytes,
    wall-clock. Payload bytes stand in for tokens; no language model is
    driven here."""
    return {
        "schema": "metrics/1",
        "scenario": result.scenario,
        "mode": result.mode,
        "seed": seed,
        "token_proxy": "response payload bytes",
        "queries": [asdict(t) for t in result.traces],
        "totals": {
            "tool_calls": sum(t.tool_calls for t in result.traces),
            "payload_bytes": sum(t.payload_bytes for t in result.traces),
            "wall_ms": sum(t.wall_ms for t in result.traces),
        },
    }


def metrics_to_jsonl(metrics: dict) -> str:
    """One JSON record per query, header first."""
    header = {k: v for k, v in metrics.items() if k != "queries"}
    lines = [json.dumps({"record": "header", **header}, sort_keys=True)]
    lines += [json.dumps({"record": "query", **q}, sort_keys=True)
              for q in metrics["queries"]]
    return "\n".join(lines) + "\n"


def rubric_report_dict(result: RubricResult) -> dict:
    return {
        "schema": "rubric-report/1",
        "scenario": result.scenario,
        "mode": result.mode,
        "passed": result.passed_count,
        "total": len(result.per_query),
        "all_passed": result.all_passed,
        "per_query": [{"id": q.query_id, "use_case": q.use_case,
                       "result": "pass" if q.passed else "fail", "reason": q.reason}
                      for q in result.per_query],
        "totals_by_use_case": {uc: {"passed": p, "total": t}
                               for uc, (p, t) in sorted(result.totals().items())},
    }


def format_rubric_table(result: RubricResult) -> str:
    lines = [f"scenario: {result.scenario} ({result.mode})",
             f"score: {result.passed_count}/{len(result.per_query)}", ""]
    width = max((len(q.query_id) for q in result.per_query), default=2)
    for q in result.per_query:
        mark = "PASS" if q.passed else "FAIL"
        lines.append(f"  {q.query_id:<{width}}  {mark}  {q.use_case:<17} {q.reason}")
    lines.append("")
    for use_case, (passed, total) in sorted(result.totals().items()):
        lines.append(f"  {use_case:<17} {passed}/{total}")
    return "\n".join(lines)
