from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cie.impact
import cie.service
from cie import data
from cie.causality import DEFAULT_MAX_DEPTH, instantiate
from cie.engine import Engine, EngineSnapshot
from cie.harness import background_observations, inject_fault, load_scenario
from cie.errors import DocumentError, DuplicateIdError
from cie.inference import (DEFAULT_LEAK, ActiveSymptomSet, Observation, attribute_sample,
                           localize)
from cie.service import MAX_FRAME_CHARS, METHODS, handle, serve
from cie.topology import Entity, EntityGraph, Relation

from genmodels import (decode_tool3, expand_via, random_active_set, random_codebook,
                       random_topology, reference_paths)


@pytest.fixture()
def healthy_engine(shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    scenario = load_scenario(data.scenario_path("healthy"))
    engine.ingest(background_observations(scenario))
    return engine


@pytest.fixture()
def fault_engine(shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    scenario = load_scenario(data.scenario_path("active-fault"))
    engine.ingest(background_observations(scenario))
    engine.ingest(inject_fault(scenario))
    return engine


def call(engine, method, params=None, request_id="t1"):
    return handle({"id": request_id, "method": method, "params": params or {}},
                  engine.snapshot())


def test_health_on_healthy_state_is_explicit_negative(healthy_engine):
    response = call(healthy_engine, "get_environment_health")
    assert response.status == "ok"
    assert response.payload["verdict"] == "healthy"
    assert response.payload["root_causes"] == []
    assert response.payload["message"] == "no active root cause"


def test_health_on_fault_state(fault_engine):
    payload = call(fault_engine, "get_environment_health").payload
    assert payload["verdict"] == "degraded"
    assert payload["root_causes"][0]["cause_name"] == "code_defect_transaction_rejection"
    assert "message" not in payload


def test_root_causes_ranked_first_is_payment_defect(fault_engine):
    payload = call(fault_engine, "get_root_causes").payload
    assert payload["verdict"] == "localized"
    assert payload["best"] == {"cause": "code_defect_transaction_rejection@payment",
                               "cause_name": "code_defect_transaction_rejection",
                               "entity": "payment"}
    ranked = payload["ranked"]
    assert {key: ranked[0][key] for key in payload["best"]} == payload["best"]
    assert 0.9 < ranked[0]["score"] <= 1.0
    assert all(a["score"] >= b["score"] for a, b in zip(ranked, ranked[1:]))
    # explained symptoms are ascending indexes into the sorted active ids
    symptoms = payload["symptoms"]
    assert symptoms == sorted(fault_engine.snapshot().active().symptoms)
    assert [symptoms[i] for i in ranked[0]["explained"]] == symptoms
    assert "unexplained" not in ranked[0]


def test_root_causes_team_projection(fault_engine):
    payload = call(fault_engine, "get_root_causes", {"team": "team-payments"}).payload
    assert payload["team"] == {"team": "team-payments", "responsible": True}
    payload = call(fault_engine, "get_root_causes", {"team": "team-platform"}).payload
    assert payload["team"]["responsible"] is False


def test_root_causes_team_answer_builds_no_blast_radius(fault_engine, monkeypatch):
    calls = []
    real = cie.impact.blast_radius
    monkeypatch.setattr(cie.impact, "blast_radius",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    teams = ("team-payments", "team-fulfillment", "team-platform")
    responsible = [call(fault_engine, "get_root_causes", {"team": team}).payload["team"]
                   ["responsible"] for team in teams]
    assert calls == []
    # the same team rule as get_blast_radius
    assert responsible == [call(fault_engine, "get_blast_radius", {"team": team})
                           .payload["team"]["owns_impacted"] for team in teams]
    assert responsible == [True, True, False]


def test_symptoms_scoped(fault_engine):
    payload = call(fault_engine, "get_symptoms", {"scope": ["payment"]}).payload
    names = {s["symptom_name"] for s in payload["symptoms"]}
    assert names == {"transaction_rejections", "payment_error_spike"}
    assert payload["count"] == 2


def test_blast_radius_defaults_to_best_cause(fault_engine):
    payload = call(fault_engine, "get_blast_radius").payload
    assert payload["cause"]["cause_name"] == "code_defect_transaction_rejection"
    assert set(payload["transitive"]) == {"payment", "checkout", "accounting", "shipping"}
    assert payload["multi_team"] is True


def test_blast_radius_via_expands_to_the_paths_for_every_shop_cause(shop_engine):
    snapshot = shop_engine.snapshot()
    chains = []
    for cid in sorted(snapshot.causality.causes):
        response = handle({"id": 1, "method": "get_blast_radius", "params": {"cause": cid}},
                          snapshot)
        payload = json.loads(json.dumps(response.to_dict()))["payload"]
        paths = reference_paths(snapshot.topology, snapshot.causality, shop_engine.codebook,
                                cid, snapshot.max_depth)
        assert expand_via(payload["via"], payload["transitive"], shop_engine.codebook,
                          payload["cause"]["entity"]) == paths
        for ent, entry in payload["via"].items():
            if paths[paths[ent][-1].from_entity] != paths[ent][:-1]:
                chains.append((cid, ent))
                assert len(entry) == 2 * len(paths[ent]) > 2
    # the shop's paths are not a tree over entities: the chain form is needed
    assert chains == [(f"{name}@payment", ent)
                      for name in ("code_defect_transaction_rejection",
                                   "payment_provider_outage")
                      for ent in ("accounting", "shipping")]


def test_names_equal_to_ids_are_omitted(chain_codebook, chain_topology):
    graph = chain_topology.remove_entity("A").add_entity(
        Entity(id="A", name="Alpha", entity_type="service"))
    graph = graph.add_relation(Relation("A", "B", "conn"))
    engine = Engine(graph, chain_codebook)
    engine.ingest([attribute_sample("A", 1, "error_rate", 0.5),
                   attribute_sample("B", 1, "error_rate", 0.5)])
    topology = call(engine, "get_topology").payload
    assert [e.get("name") for e in topology["entities"]] == ["Alpha", None, None]
    health = call(engine, "get_environment_health").payload
    summaries = health["active_symptoms"] + health["root_causes"]
    assert {(s["entity"], s.get("entity_name")) for s in summaries} == {
        ("A", "Alpha"), ("B", None), ("C", None)}


def _relabelled(rng: random.Random, graph: EntityGraph) -> EntityGraph:
    """``graph`` with each entity's name, team and metadata drawn at random;
    a name may equal the id and a metadata may be empty."""
    labelled = EntityGraph()
    for eid in sorted(graph.entity_ids()):
        labelled = labelled.add_entity(Entity(
            id=eid, name=rng.choice((eid, f"{eid} named")),
            entity_type=graph.entity(eid).entity_type,
            owner_team=rng.choice(("a", "b", None)),
            metadata=rng.choice(({}, {"zone": rng.choice("xy")}, {"k": "v", "a": "b"}))))
    for rel in graph.relations:
        labelled = labelled.add_relation(rel)
    return labelled


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_tool3_answers_decode_to_the_model(seed):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    graph = _relabelled(rng, random_topology(rng, cb))
    cg = instantiate(graph, cb)
    active = random_active_set(rng, cg)
    snapshot = EngineSnapshot(graph, cb, cg, active.symptoms, None, DEFAULT_LEAK,
                              DEFAULT_MAX_DEPTH, as_of=1)
    ids = sorted(graph.entity_ids())
    scope = rng.sample(ids, rng.randint(1, len(ids))) if rng.random() < 0.5 else None
    params = {} if scope is None else {"scope": scope}
    kept = set(ids if scope is None else scope)

    def decoded(method):
        response = handle({"id": 1, "method": method, "params": params}, snapshot)
        assert response.status == "ok", response.error
        return decode_tool3(method, json.loads(json.dumps(response.to_dict()))["payload"])

    in_scope = {sid for sid in active.symptoms if cg.symptoms[sid].host_entity in kept}
    diagnosis = localize(cg, ActiveSymptomSet(frozenset(in_scope)), leak=DEFAULT_LEAK)
    expected = [(e.cause_id, e.score, list(e.explained), sorted(in_scope - set(e.explained)))
                for e in diagnosis.ranked]
    causes = decoded("get_root_causes")
    assert [(c["cause"], c["score"], c["explained"], c["unexplained"])
            for c in causes["ranked"]] == expected
    assert causes["best"] == (causes["ranked"][0] if expected else None)
    health = decoded("get_environment_health")
    assert health["root_causes"] == causes["ranked"]
    assert [s["id"] for s in health["active_symptoms"]] == sorted(in_scope)

    topology = decoded("get_topology")
    assert {Relation(**r) for r in topology["relations"]} == {
        r for r in graph.relations if r.source in kept and r.target in kept}
    assert [Entity(id=e["id"], name=e.get("name", e["id"]), entity_type=e["type"],
                   owner_team=e["team"], metadata=e["metadata"])
            for e in topology["entities"]] == [graph.entity(eid) for eid in sorted(kept)]


def test_blast_radius_healthy_reports_no_impact(healthy_engine):
    payload = call(healthy_engine, "get_blast_radius").payload
    assert payload["cause"] is None
    assert payload["transitive"] == []
    assert "no impacted services" in payload["message"]


def test_blast_radius_without_a_cause_has_the_keys_of_one_with_a_cause(healthy_engine,
                                                                        fault_engine):
    healthy = call(healthy_engine, "get_blast_radius", {"team": "payments"}).payload
    faulty = call(fault_engine, "get_blast_radius", {"team": "payments"}).payload
    assert healthy["truncated"] is False
    assert set(healthy) - {"message"} == set(faulty)


def test_check_remediation_multiple_targets(fault_engine):
    payload = call(fault_engine, "check_remediation",
                   {"action_targets": ["payment-pod-0", "checkout"]}).payload
    verdicts = {v["target"]: v for v in payload["verdicts"]}
    assert verdicts["payment-pod-0"]["aligned"] is True
    assert verdicts["checkout"]["aligned"] is False


def test_check_remediation_healthy_has_nothing_to_align(healthy_engine):
    payload = call(healthy_engine, "check_remediation",
                   {"action_target": "payment-pod-0"}).payload
    assert payload["cause"] is None
    assert payload["verdicts"][0]["aligned"] is None


def test_get_topology_scoped(fault_engine):
    payload = call(fault_engine, "get_topology", {"scope": ["checkout", "payment"]}).payload
    assert [e["id"] for e in payload["entities"]] == ["checkout", "payment"]
    assert payload["relations"] == [["checkout", "payment", "conn"]]


def test_unknown_method_error_code(healthy_engine):
    response = call(healthy_engine, "frobnicate")
    assert response.status == "error"
    assert response.error["code"] == "unknown_method"


def test_invalid_params_error_code(healthy_engine):
    response = call(healthy_engine, "get_environment_health", {"scope": "payment"})
    assert response.error["code"] == "invalid_params"
    response = call(healthy_engine, "check_remediation", {})
    assert response.error["code"] == "invalid_params"


def test_unknown_id_error_code(healthy_engine):
    response = call(healthy_engine, "get_environment_health", {"scope": ["ghost"]})
    assert response.error["code"] == "unknown_id"
    response = call(healthy_engine, "get_blast_radius", {"cause": "phantom@x"})
    assert response.error["code"] == "unknown_id"
    response = call(healthy_engine, "check_remediation", {"action_target": "ghost"})
    assert response.error["code"] == "unknown_id"


@pytest.mark.parametrize("method, params", [
    ("get_blast_radius", {"cause": 5}),
    ("check_remediation", {"action_target": "payment", "cause": ["x@payment"]}),
])
def test_non_string_cause_is_invalid_params(fault_engine, method, params):
    response = call(fault_engine, method, params)
    assert response.error == {"code": "invalid_params",
                              "message": "'cause' must be a root cause instance id"}


def test_check_remediation_unknown_cause_is_unknown_id(fault_engine):
    response = call(fault_engine, "check_remediation",
                    {"action_targets": ["payment", "checkout"], "cause": "phantom@x"})
    assert response.error == {"code": "unknown_id",
                              "message": "unknown root cause instance 'phantom@x'"}


def test_request_id_round_trips(healthy_engine):
    response = call(healthy_engine, "get_symptoms", request_id=1234)
    assert response.to_dict()["id"] == 1234
    assert response.to_dict()["status"] == "ok"


def test_every_ok_payload_carries_revision(fault_engine):
    for method in METHODS:
        params = {"action_target": "payment"} if method == "check_remediation" else {}
        response = call(fault_engine, method, params)
        assert response.status == "ok"
        assert response.payload["revision"] == fault_engine.topology.revision


def test_response_never_mixes_revisions(fault_engine):
    snap1 = fault_engine.snapshot()
    r1 = handle({"id": 1, "method": "get_topology", "params": {}}, snap1)
    fault_engine.add_entity(Entity(id="new-svc", name="new-svc",
                                   entity_type="web-service"))
    snap2 = fault_engine.snapshot()
    r2 = handle({"id": 2, "method": "get_topology", "params": {}}, snap2)
    ids1 = {e["id"] for e in r1.payload["entities"]}
    ids2 = {e["id"] for e in r2.payload["entities"]}
    assert "new-svc" not in ids1 and "new-svc" in ids2
    assert r2.payload["revision"] == r1.payload["revision"] + 1
    # the older snapshot still answers from its own revision
    r1_again = handle({"id": 3, "method": "get_topology", "params": {}}, snap1)
    assert r1_again.payload["revision"] == r1.payload["revision"]


# -- serve loop ----------------------------------------------------------------

def run_serve(engine, lines):
    out = io.StringIO()
    count = serve(engine, io.StringIO(lines), out)
    raw = [json.loads(line) for line in out.getvalue().splitlines()]
    assert "hello" in raw[0]
    return count, raw[0], raw[1:]


def test_serve_empty_input_writes_banner_only(healthy_engine):
    count, banner, responses = run_serve(healthy_engine, "")
    assert count == 0
    assert responses == []
    assert banner["hello"]["schema"] == "tool/3"
    assert set(banner["hello"]["methods"]) == set(METHODS)


class ClosingWriter(io.StringIO):
    """An output stream whose reader goes away after ``lines`` lines."""

    def __init__(self, lines):
        super().__init__()
        self.lines = lines

    def write(self, text):
        if self.getvalue().count("\n") >= self.lines:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("lines", [0, 1, 3])
def test_serve_stops_quietly_on_closed_output(healthy_engine, lines):
    frames = "".join(json.dumps({"id": i, "method": "get_symptoms"}) + "\n"
                     for i in range(5))
    out = ClosingWriter(lines)
    count = serve(healthy_engine, io.StringIO(frames), out)
    written = out.getvalue().splitlines()
    assert len(written) == lines
    assert count == max(lines - 1, 0)  # the banner is not a response
    assert [json.loads(line)["id"] for line in written[1:]] == list(range(count))


def test_serve_rejects_oversized_frames_unparsed(healthy_engine):
    def padded(length, request_id):
        frame = json.dumps({"id": request_id, "method": "get_symptoms", "params": {"pad": ""}})
        return frame.replace('""', '"' + "x" * (length - len(frame)) + '"')
    at_cap, over_cap = padded(MAX_FRAME_CHARS, 1), padded(MAX_FRAME_CHARS + 1, 2)
    assert (len(at_cap), len(over_cap)) == (MAX_FRAME_CHARS, MAX_FRAME_CHARS + 1)
    # not JSON at all, so a parse would answer parse_error
    junk = "{" * (MAX_FRAME_CHARS + 1)
    count, _, responses = run_serve(
        healthy_engine, "\n".join([at_cap, over_cap, junk, '{"id": 3, "method": "get_symptoms"}']))
    assert count == 4
    assert [r["id"] for r in responses] == [1, None, None, 3]
    assert [r["status"] for r in responses] == ["ok", "error", "error", "ok"]
    assert {r["error"]["code"] for r in responses[1:3]} == {"invalid_request"}


def test_serve_pipelined_requests_preserve_order(fault_engine):
    n = 25
    lines = "\n".join(json.dumps({"id": i, "method": "get_symptoms", "params": {}})
                      for i in range(n)) + "\n"
    count, _, responses = run_serve(fault_engine, lines)
    assert count == n
    assert [r["id"] for r in responses] == list(range(n))


def test_serve_malformed_frame_keeps_stream_alive(healthy_engine):
    deep = "[" * 100_000 + "]" * 100_000  # past the decoder's recursion limit
    lines = ('{"id": 1, "method": "get_symptoms"}\n{oops}\n' + deep
             + '\n{"id": 2, "method": "get_symptoms"}\n')
    count, _, responses = run_serve(healthy_engine, lines)
    assert count == 4
    assert responses[0]["id"] == 1 and responses[0]["status"] == "ok"
    for response in responses[1:3]:
        assert response["id"] is None and response["status"] == "error"
        assert response["error"]["code"] == "parse_error"
    assert responses[3]["id"] == 2 and responses[3]["status"] == "ok"


@pytest.mark.parametrize("exc, code, message", [
    (DocumentError("bad shape", location="params"), "invalid_params", "params: bad shape"),
    (DuplicateIdError("duplicate entity id 'x'"), "engine_error", "duplicate entity id 'x'"),
    (RuntimeError("boom"), "internal_error", "RuntimeError: boom"),
], ids=["document-error", "engine-error", "internal-error"])
def test_serve_answers_a_raising_handler_and_the_next_frame(healthy_engine, monkeypatch,
                                                            exc, code, message):
    def raising(snapshot, params):
        raise exc
    monkeypatch.setitem(cie.service._HANDLERS, "get_topology", raising)
    lines = '{"id": 1, "method": "get_topology"}\n{"id": 2, "method": "get_symptoms"}\n'
    count, _, responses = run_serve(healthy_engine, lines)
    assert count == 2
    assert responses[0] == {"id": 1, "status": "error",
                            "error": {"code": code, "message": message}}
    assert responses[1]["id"] == 2 and responses[1]["status"] == "ok"


def test_serve_skips_blank_lines(healthy_engine):
    lines = '\n   \n{"id": 1, "method": "get_symptoms"}\n\t\n\n{"id": 2, "method": "get_symptoms"}'
    count, _, responses = run_serve(healthy_engine, lines)
    assert count == 2
    assert [(r["id"], r["status"]) for r in responses] == [(1, "ok"), (2, "ok")]


def test_batch_with_non_integer_tick_is_refused_whole_and_serve_keeps_answering(
        fault_engine):
    before = fault_engine.snapshot()
    with pytest.raises(DocumentError, match="'tick' must be an integer"):
        fault_engine.ingest([attribute_sample("payment", 9, "error_rate", 0.001),
                             Observation("checkout", "x", attribute="error_rate", value=0.9)])
    fault_engine.ingest([])  # a half-folded batch would make this bind raise
    after = fault_engine.snapshot()
    assert after.active() == before.active()
    lines = "".join(json.dumps({"id": i, "method": method}) + "\n" for i, method in
                    enumerate(("get_topology", "get_root_causes", "get_environment_health")))
    count, _, responses = run_serve(fault_engine, lines)
    assert count == 3 and [r["status"] for r in responses] == ["ok"] * 3


def test_serve_mutation_between_requests_single_revision_each(fault_engine):
    # two identical requests; a mutation lands between them via a hook on snapshot
    lines = (json.dumps({"id": "a", "method": "get_environment_health", "params": {}})
             + "\n"
             + json.dumps({"id": "b", "method": "get_environment_health", "params": {}})
             + "\n")
    original = fault_engine.snapshot
    toggled = {"done": False}

    def snapshot_with_mutation():
        snap = original()
        if not toggled["done"]:
            toggled["done"] = True
            fault_engine.add_entity(Entity(id="mid-tx", name="mid-tx",
                                           entity_type="web-service"))
        return snap

    fault_engine.snapshot = snapshot_with_mutation
    try:
        _, _, responses = run_serve(fault_engine, lines)
    finally:
        fault_engine.snapshot = original
    rev_a = responses[0]["payload"]["revision"]
    rev_b = responses[1]["payload"]["revision"]
    assert rev_b == rev_a + 1


def test_fuzzed_frames_never_crash_loop(healthy_engine):
    rng = random.Random(7)
    frames = []
    for i in range(500):
        kind = rng.randrange(6)
        if kind == 0:
            frames.append("".join(chr(rng.randrange(33, 126)) for _ in range(rng.randrange(1, 30))))
        elif kind == 1:
            frames.append(json.dumps(rng.choice([1, "x", [1, 2], None, True])))
        elif kind == 2:
            frames.append(json.dumps({"id": i}))
        elif kind == 3:
            frames.append(json.dumps({"id": i, "method": f"m{rng.randrange(5)}"}))
        elif kind == 4:
            frames.append(json.dumps({"id": i, "method": rng.choice(list(METHODS)),
                                      "params": rng.choice([1, "scope", [1]])}))
        else:
            frames.append(json.dumps({"id": i, "method": rng.choice(list(METHODS)),
                                      "params": {"scope": ["nope"], "cause": "x@y",
                                                 "action_target": "zz"}}))
    count, _, responses = run_serve(healthy_engine, "\n".join(frames) + "\n")
    assert count == len(frames)
    assert all(r["status"] in ("ok", "error") for r in responses)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_serve_never_writes_non_finite_numbers(healthy_engine):
    lines = ('{"id": NaN, "method": "get_symptoms"}\n'
             '{"id": [Infinity], "method": "get_symptoms"}\n'
             '{"id": 3, "method": "get_symptoms", "params": {"scope": [-Infinity]}}\n'
             '{"id": 4, "method": "get_symptoms"}\n')
    out = io.StringIO()
    count = serve(healthy_engine, io.StringIO(lines), out)
    assert count == 4
    responses = [json.loads(line, parse_constant=_reject_constant)
                 for line in out.getvalue().splitlines()[1:]]
    for response in responses[:2]:
        assert response["id"] is None
        assert response["error"]["code"] == "invalid_request"
    assert responses[2]["id"] == 3 and responses[2]["error"]["code"] == "invalid_params"
    assert responses[3]["id"] == 4 and responses[3]["status"] == "ok"
