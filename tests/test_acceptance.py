"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line through capsys.disabled() so the verdicts are
visible in any pytest run. Random corpora use fixed seeds; sizes and
tolerances are the release gate, not suggestions.
"""

from __future__ import annotations

import io
import json
import math
import random
import time

import pytest

from cie import data
from cie.causality import instantiate, recompute_edge_probability, refresh
from cie.engine import Engine
from cie.harness import load_scenario, measure_footprint, run_scenario
from cie.impact import blast_radius, ownership_check
from cie.inference import attribute_sample, localize
from cie.knowledge_base import (ActivationSpec, Codebook, EntityTypeDef,
                                PropagationRule, RootCauseDef, SymptomDef)
from cie.service import MAX_FRAME_CHARS, METHODS, handle, serve
from cie.topology import Entity, EntityGraph, Relation

from genmodels import (assert_same_causality, brute_force_ranking, eager_causality,
                       expand_via, random_active_set, random_attribute_dag, random_codebook,
                       random_inference_graph, random_mutation,
                       random_topological_order, random_topology,
                       recursive_evaluate)

UNBOUNDED = 64
LEAK = 1e-3
SCORE_RTOL = 1e-9


def announce(capsys, name: str):
    with capsys.disabled():
        print(f"[acceptance] {name}: PASS")


def test_rubric_reproduction_on_bundled_model(capsys):
    started = time.perf_counter()
    fault = run_scenario(load_scenario(data.scenario_path("active-fault")))
    healthy = run_scenario(load_scenario(data.scenario_path("healthy")))
    elapsed = time.perf_counter() - started

    assert fault.passed_count == 6 and fault.all_passed, [
        (q.query_id, q.reason) for q in fault.per_query if not q.passed]
    assert healthy.passed_count == 3 and healthy.all_passed

    by_id = {q.query_id: q for q in fault.per_query}
    assert by_id["Q3"].use_case == "root_cause" and by_id["Q3"].passed
    assert by_id["Q5"].use_case == "remediation" and by_id["Q5"].passed
    assert elapsed < 5.0, f"end-to-end rubric run took {elapsed:.2f}s"
    announce(capsys, f"rubric reproduction 6/6 + 3/3 in {elapsed:.2f}s")


def test_inference_oracle_equivalence(capsys):
    rng = random.Random(20260809)
    runs = 500
    for _ in range(runs):
        cg = random_inference_graph(rng, max_causes=12, max_symptoms=20)
        active = random_active_set(rng, cg)
        diagnosis = localize(cg, active, leak=LEAK)
        oracle = brute_force_ranking(cg, active, LEAK)
        assert [e.cause_id for e in diagnosis.ranked] == [cid for cid, _ in oracle]
        for entry, (_, expected) in zip(diagnosis.ranked, oracle):
            assert math.exp(entry.log_score) == pytest.approx(expected, rel=SCORE_RTOL)
        if diagnosis.ranked:
            assert sum(e.score for e in diagnosis.ranked) == pytest.approx(1.0, abs=1e-9)
    announce(capsys, f"inference oracle equivalence on {runs} random graphs")


def test_argmax_invariance_under_prior_scaling(capsys):
    from cie.causality import CausalityGraph, RootCauseInstance

    rng = random.Random(77)
    runs = 500
    for i in range(runs):
        cg = random_inference_graph(rng, max_causes=12, max_symptoms=20)
        active = random_active_set(rng, cg)
        base = [e.cause_id for e in localize(cg, active, leak=LEAK).ranked]
        scale = rng.choice((0.125, 0.5, 2.0, 16.0, rng.uniform(0.01, 40.0)))
        scaled = CausalityGraph(
            {cid: RootCauseInstance(id=c.id, cause_name=c.cause_name,
                                    host_entity=c.host_entity, prior=c.prior * scale)
             for cid, c in cg.causes.items()},
            cg.symptoms, cg.edges, cg.topology_revision, cg.entity_types,
            cg.attribute_decls)
        rescaled = [e.cause_id for e in localize(scaled, active, leak=LEAK).ranked]
        assert base == rescaled
    announce(capsys, f"argmax invariance under prior scaling on {runs} graphs")


def test_structural_invariants_on_random_corpus(capsys):
    rng = random.Random(4242)
    runs = 500
    for _ in range(runs):
        cb = random_codebook(rng)
        graph = random_topology(rng, cb, n_entities=rng.randint(2, 8))
        cg = instantiate(graph, cb)
        cause_ids = set(cg.causes)
        symptom_ids = set(cg.symptoms)
        assert not (cause_ids & symptom_ids)
        for (cid, sid), edge in cg.edges.items():
            assert cid in cause_ids and sid in symptom_ids  # bipartite, acyclic
            assert 0.0 < edge.probability <= 1.0
            assert edge.probability == recompute_edge_probability(edge, cb)

        for _ in range(rng.randint(1, 3)):
            graph = random_mutation(rng, graph, cb, [rng.randrange(10**6)])
            cg = refresh(cg, graph, cb)
            assert cg == instantiate(graph, cb)
    announce(capsys, f"structural invariants + refresh equality on {runs} model pairs")


def test_impact_invariants_on_random_corpus(capsys):
    rng = random.Random(1337)
    runs = 500
    checked = 0
    for _ in range(runs):
        cb = random_codebook(rng)
        graph = random_topology(rng, cb, n_entities=rng.randint(2, 8))
        # attach random teams
        rebuilt = EntityGraph()
        for eid in sorted(graph.entity_ids()):
            entity = graph.entity(eid)
            rebuilt = rebuilt.add_entity(Entity(id=eid, name=eid,
                                                entity_type=entity.entity_type,
                                                owner_team=rng.choice(("a", "b", None))))
        for rel in sorted(graph.relations, key=lambda r: (r.source, r.target, r.kind)):
            rebuilt = rebuilt.add_relation(rel)
        graph = rebuilt
        cg = instantiate(graph, cb, max_depth=UNBOUNDED)
        if not cg.causes:
            continue
        checked += 1
        for cid in sorted(cg.causes):
            br = blast_radius(graph, cg, cb, cid, max_depth=UNBOUNDED)
            assert br.direct_entities <= br.transitive_entities
            assert cg.causes[cid].host_entity in br.transitive_entities
            for team in ("a", "b", "zz"):
                expected = bool(br.direct_entities & graph.entities_owned_by(team))
                assert ownership_check(br, team) == expected

        # topology monotonicity for one cause per model
        cid = sorted(cg.causes)[0]
        before = blast_radius(graph, cg, cb, cid, max_depth=UNBOUNDED)
        ids = sorted(graph.entity_ids())
        if len(ids) >= 2:
            for _ in range(20):
                src, dst = rng.sample(ids, 2)
                rel = Relation(src, dst, rng.choice(("conn", "layer", "comp")))
                if rel not in graph.relations:
                    grown = graph.add_relation(rel)
                    cg2 = instantiate(grown, cb, max_depth=UNBOUNDED)
                    after = blast_radius(grown, cg2, cb, cid, max_depth=UNBOUNDED)
                    assert before.transitive_entities <= after.transitive_entities
                    break
    assert checked >= 300  # corpus genuinely exercised
    announce(capsys, f"impact invariants on {runs} model pairs ({checked} with causes)")


def test_attribute_evaluation_criteria(capsys):
    rng = random.Random(99)
    runs = 200
    for _ in range(runs):
        ag = random_attribute_dag(rng)
        reference = ag.evaluate()
        assert reference == recursive_evaluate(ag)
        for _ in range(3):
            order = random_topological_order(rng, ag)
            assert ag.evaluate(order=order) == reference  # exact equality
        source = rng.choice(sorted(ag.source_ids()))
        assert ag.propagate_perturbation(source, 0.0) == {}
        changed = ag.propagate_perturbation(source, rng.uniform(-6.0, 6.0))
        assert set(changed) <= ag.descendants(source)
    announce(capsys, f"attribute evaluation invariants on {runs} random DAGs")


def _fuzz_frames(rng: random.Random, count: int) -> list[str]:
    frames = []
    for i in range(count):
        kind = rng.randrange(10) if rng.random() >= 0.001 else 10
        if kind == 0:  # raw junk
            frames.append("".join(chr(rng.randrange(32, 127))
                                  for _ in range(rng.randrange(1, 40))).strip() or "x")
        elif kind == 1:  # valid JSON, wrong shape
            frames.append(json.dumps(rng.choice([0, 3.14, "q", [], [1, "a"], None, False])))
        elif kind == 2:  # missing method
            frames.append(json.dumps({"id": i, "params": {}}))
        elif kind == 3:  # unknown method
            frames.append(json.dumps({"id": i, "method": f"no_such_{rng.randrange(9)}"}))
        elif kind == 4:  # bad params types
            frames.append(json.dumps({"id": i, "method": rng.choice(list(METHODS)),
                                      "params": rng.choice([7, "x", [2], True])}))
        elif kind == 5:  # unknown ids
            frames.append(json.dumps({"id": i, "method": rng.choice(list(METHODS)),
                                      "params": {"scope": [f"gh{rng.randrange(5)}"],
                                                 "cause": "who@where",
                                                 "action_target": "nothing"}}))
        elif kind == 6:  # structurally odd params
            frames.append(json.dumps({"id": i, "method": rng.choice(list(METHODS)),
                                      "params": {"scope": rng.choice([["payment", 3],
                                                                      [None]]),
                                                 "team": rng.choice([4, ["t"]]),
                                                 "action_targets": rng.choice(
                                                     [[], [1, 2], "x"])}}))
        elif kind == 8:  # nested past the decoder's recursion limit
            depth = 100_000 if rng.random() < 0.02 else rng.randrange(2_000, 5_000)
            frames.append("[" * depth + "]" * depth)
        elif kind == 9:  # non-finite constants, which json.loads accepts
            constant = rng.choice(["NaN", "Infinity", "-Infinity"])
            frames.append(rng.choice([
                '{"id": %s, "method": "get_symptoms"}' % constant,
                '{"id": [%s], "method": "%s"}' % (constant, rng.choice(METHODS)),
                '{"id": %d, "method": "get_symptoms", "params": {"scope": [%s]}}'
                % (i, constant)]))
        elif kind == 10:  # a valid request padded past the frame size cap
            frames.append(json.dumps({"id": i, "method": "get_symptoms",
                                      "params": {"pad": "x" * MAX_FRAME_CHARS}}))
        else:  # valid request sprinkled in
            frames.append(json.dumps({"id": i, "method": rng.choice(list(METHODS)),
                                      "params": {}}))
    return frames


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _expected_id(frame: str):
    """The id a response must echo: null when the frame is over the size
    cap, does not decode, is not an object, or carries an id that is not
    standard JSON."""
    if len(frame) > MAX_FRAME_CHARS:
        return None
    try:
        raw = json.loads(frame)
    except (ValueError, RecursionError):
        return None
    request_id = raw.get("id") if isinstance(raw, dict) else None
    try:
        json.dumps(request_id, allow_nan=False)
    except ValueError:
        return None
    return request_id


def test_service_robustness_fuzz(capsys, shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    rng = random.Random(60302)
    total = 10_000
    frames = _fuzz_frames(rng, total)
    out = io.StringIO()
    count = serve(engine, io.StringIO("\n".join(frames) + "\n"), out)
    lines = out.getvalue().splitlines()
    assert count == total
    assert len(lines) == total + 1  # banner + one response per frame
    for line in lines[1:]:
        # every response is structured, standard JSON (no NaN or Infinity)
        response = json.loads(line, parse_constant=_reject_constant)
        assert response["status"] in ("ok", "error")
        if response["status"] == "error":
            assert set(response["error"]) == {"code", "message"}
    oversized = [line for frame, line in zip(frames, lines[1:])
                 if len(frame) > MAX_FRAME_CHARS]
    assert oversized and all(json.loads(line)["error"]["code"] == "invalid_request"
                             for line in oversized)

    # pipelining preserves order: ids echo back in arrival order for object frames
    echoed = [json.loads(line)["id"] for line in lines[1:]]
    assert echoed == [_expected_id(frame) for frame in frames]

    # each rubric query costs exactly one tool call
    for name in ("active-fault", "healthy"):
        metrics = measure_footprint(load_scenario(data.scenario_path(name)))
        assert all(q["tool_calls"] == 1 for q in metrics["queries"])
    announce(capsys, f"service robustness: {total} fuzzed frames, zero crashes, "
                     "1 call per rubric query")


@pytest.fixture(scope="module")
def scale_engine():
    n = 1000
    cb = Codebook(
        types=(EntityTypeDef("service", ("error_rate",)),),
        root_causes=(RootCauseDef("defect", "service",
                                  local_symptoms=(("high_error_rate", 0.9),),
                                  prior=0.02),),
        symptoms=(SymptomDef("high_error_rate", "service",
                             ActivationSpec(kind="threshold", attribute="error_rate",
                                            comparator=">", threshold=0.05)),),
        rules=(PropagationRule("to-callers", "high_error_rate", "conn", "reverse",
                               "high_error_rate", 0.8),),
        version="scale")
    entities = {f"svc{i:04d}": Entity(id=f"svc{i:04d}", name=f"svc{i:04d}",
                                      entity_type="service",
                                      owner_team=f"team-{i % 7}")
                for i in range(n)}
    relations = set()
    for i in range(1, n):
        relations.add(Relation(f"svc{(i - 1) // 2:04d}", f"svc{i:04d}", "conn"))
    graph = EntityGraph(entities, frozenset(relations), revision=0)
    engine = Engine(graph, cb)
    engine.ingest([attribute_sample("svc0777", 1, "error_rate", 0.4),
                   attribute_sample("svc0101", 1, "error_rate", 0.002)])
    engine.snapshot()  # warm the causality cache
    return engine


def test_scale_sanity_1000_entities(capsys, scale_engine):
    budget_s = 0.1
    params_by_method = {
        "check_remediation": {"action_target": "svc0777"},
        "get_blast_radius": {},
    }
    worst = {}
    for method in METHODS:
        params = params_by_method.get(method, {})
        timings = []
        for _ in range(3):
            snapshot = scale_engine.snapshot()
            started = time.perf_counter()
            response = handle({"id": "t", "method": method, "params": params}, snapshot)
            json.dumps(response.to_dict())
            timings.append(time.perf_counter() - started)
        assert response.status == "ok", response.error
        best = min(timings)
        worst[method] = best
        assert best < budget_s, f"{method} took {best * 1000:.1f} ms"
    slowest = max(worst, key=worst.get)
    announce(capsys, "scale sanity: 6 methods on 1000 entities, slowest "
                     f"{slowest} at {worst[slowest] * 1000:.1f} ms (< 100 ms)")


def test_via_expands_to_the_paths_on_1000_service_call_tree(capsys, scale_engine):
    snapshot = scale_engine.snapshot()
    for cid in sorted(snapshot.causality.causes):
        response = handle({"id": "t", "method": "get_blast_radius", "params": {"cause": cid}},
                          snapshot)
        payload = json.loads(json.dumps(response.to_dict()))["payload"]
        assert expand_via(payload["via"], payload["transitive"], scale_engine.codebook,
                          payload["cause"]["entity"]) == snapshot.blast_radius(cid).paths
    announce(capsys, "blast-radius via expands to the full paths for 1000 causes")


def test_refresh_equals_instantiate_at_5000_entities(capsys):
    # A 4k-service call tree, each service on one of 1k hosts; depth 3 keeps
    # the full builds affordable and makes truncations move too. Each graph
    # compiles some blocks before the next refresh, so a refresh that kept
    # a block of an older revision would carry it to the end.
    rng = random.Random(5000)
    cb = Codebook(
        types=(EntityTypeDef("service", ("error_rate",)), EntityTypeDef("host", ("cpu",))),
        root_causes=(RootCauseDef("defect", "service", (("errors", 0.9), ("slow", 0.3))),
                     RootCauseDef("cpu_starved", "host", (("busy", 0.9),))),
        symptoms=(SymptomDef("errors", "service"), SymptomDef("slow", "service"),
                  SymptomDef("busy", "host")),
        rules=(PropagationRule("errors-to-callers", "errors", "conn", "reverse", "errors", 0.8),
               PropagationRule("slow-to-callers", "slow", "conn", "reverse", "slow", 0.7),
               PropagationRule("busy-slows-tenants", "busy", "layer", "reverse", "slow", 0.6)),
        version="scale")
    services = [f"svc{i:04d}" for i in range(4000)]
    hosts = [f"host{i:04d}" for i in range(1000)]
    entities = {eid: Entity(id=eid, name=eid, entity_type="service") for eid in services}
    entities.update((eid, Entity(id=eid, name=eid, entity_type="host")) for eid in hosts)
    relations = set()
    for i in range(1, len(services)):
        relations.add(Relation(services[rng.randrange(i)], services[i], "conn"))
        relations.add(Relation(services[i], rng.choice(hosts), "layer"))
    graph = EntityGraph(entities, frozenset(relations))
    cg = instantiate(graph, cb, max_depth=3)
    assert cg.truncations
    counter = [0]
    for _ in range(6):
        for sid in rng.sample(sorted(cg.symptoms), 50):
            cg.causes_of(sid)
        for _ in range(rng.randint(1, 4)):
            graph = random_mutation(rng, graph, cb, counter)
        cg = refresh(cg, graph, cb, max_depth=3)
    assert_same_causality(cg, eager_causality(graph, cb, max_depth=3))
    announce(capsys, "refresh == instantiate at 5000 entities over 6 mutation batches")
