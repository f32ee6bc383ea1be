from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cie import data
from cie.causality import instantiate
from cie.engine import Engine
from cie.errors import DocumentError, EngineError, UnknownIdError
from cie.harness import background_observations, inject_fault, load_scenario
from cie.inference import (activate_symptoms, attribute_sample, localize,
                           render_observations, symptom_event)
from cie.service import handle
from cie.topology import Entity, Relation

from genmodels import random_codebook, random_topology, replay_activation


def test_snapshot_reuses_causality_until_topology_moves(shop_engine):
    first = shop_engine.snapshot()
    second = shop_engine.snapshot()
    assert second.causality is first.causality  # warm snapshot, no rebuild


def test_mutation_triggers_rebuild_on_next_snapshot(shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    before = engine.snapshot()
    engine.add_entity(Entity(id="svc-x", name="svc-x", entity_type="web-service"))
    engine.add_relation(Relation("svc-x", "flagd", "conn"))
    after = engine.snapshot()
    assert after.causality is not before.causality
    assert after.revision == before.revision + 2
    assert "deployment_regression@svc-x" in after.causality.causes


def test_engine_rejects_entity_of_unknown_type(shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    with pytest.raises(DocumentError):
        engine.add_entity(Entity(id="x", name="x", entity_type="abacus"))


def test_ingest_validates_against_current_model(shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    with pytest.raises(UnknownIdError):
        engine.ingest([attribute_sample("ghost", 1, "error_rate", 0.5)])
    with pytest.raises(DocumentError):
        engine.ingest([symptom_event("payment", 1, "http_error_spike")])
    engine.ingest([attribute_sample("payment", 1, "error_rate", 0.001)])
    snapshot = engine.snapshot()
    assert snapshot.sequence == 1  # the two rejected batches folded nothing
    assert snapshot.active().as_of == 1
    engine.clear_observations()
    cleared = engine.snapshot()
    assert cleared.sequence == 2
    assert cleared.active().as_of == 0 and not cleared.active().symptoms


def test_from_files_preloads_observation_stream(shop_env_path, shop_codebook_path,
                                                tmp_path):
    stream = tmp_path / "obs.jsonl"
    stream.write_text(render_observations(
        [attribute_sample("payment", 1, "transaction_reject_rate", 0.95)]))
    engine = Engine.from_files(shop_env_path, shop_codebook_path,
                               observations_path=stream)
    snap = engine.snapshot()
    assert snap.active().symptoms == {"transaction_rejections@payment"}


# -- engine parameters ----------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"leak": 0.0}, {"leak": 1.0}, {"leak": -0.1}, {"leak": 1.5},
    {"leak": float("nan")}, {"leak": True}, {"leak": "0.01"},
    {"max_depth": -1}, {"max_depth": 2.0}, {"max_depth": True}, {"max_depth": None},
])
def test_engine_rejects_invalid_parameters(shop_env_path, shop_codebook_path, kwargs):
    with pytest.raises(DocumentError):
        Engine.from_files(shop_env_path, shop_codebook_path, **kwargs)


def test_engine_accepts_boundary_parameters(shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path, leak=0.5, max_depth=0)
    engine.ingest([attribute_sample("payment", 1, "transaction_reject_rate", 0.95)])
    assert engine.snapshot().diagnosis().best is not None
    assert (engine.leak, engine.max_depth) == (0.5, 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_is_rejected_and_active_set_kept(shop_env_path, shop_codebook_path,
                                                           value):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    engine.ingest([attribute_sample("payment", 1, "transaction_reject_rate", 0.99)])
    before = engine.snapshot().active()
    assert len(before.symptoms) == 1
    with pytest.raises(DocumentError, match="'value' must be a finite number"):
        engine.ingest([attribute_sample("payment", 2, "transaction_reject_rate", value)])
    assert engine.snapshot().active() == before


# -- snapshot reuse ---------------------------------------------------------------

def test_snapshot_reused_until_revision_or_sequence_moves(shop_env_path,
                                                          shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    writes = [
        lambda: engine.ingest([attribute_sample("payment", 1, "error_rate", 0.001)]),
        engine.clear_observations,
        lambda: engine.add_entity(Entity(id="svc-x", name="svc-x",
                                         entity_type="web-service")),
        lambda: engine.add_relation(Relation("svc-x", "flagd", "conn")),
        lambda: engine.remove_relation(Relation("svc-x", "flagd", "conn")),
        lambda: engine.remove_entity("svc-x"),
    ]
    seen = [engine.snapshot()]
    assert engine.snapshot() is seen[0]
    for write in writes:
        write()
        snapshot = engine.snapshot()
        assert all(snapshot is not earlier for earlier in seen)
        assert engine.snapshot() is snapshot
        seen.append(snapshot)


def test_clear_then_same_size_ingest_never_returns_pre_clear_snapshot(
        shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    engine.ingest([attribute_sample("payment", 1, "transaction_reject_rate", 0.95)])
    before = engine.snapshot()
    engine.clear_observations()
    engine.ingest([attribute_sample("payment", 1, "transaction_reject_rate", 0.01)])
    after = engine.snapshot()
    assert after is not before
    assert after.sequence > before.sequence
    assert before.active().symptoms == {"transaction_rejections@payment"}
    assert not after.active().symptoms


def test_scoped_queries_add_nothing_to_reused_snapshot(shop_env_path, shop_codebook_path):
    engine = Engine.from_files(shop_env_path, shop_codebook_path)
    scenario = load_scenario(data.scenario_path("active-fault"))
    engine.ingest(background_observations(scenario) + inject_fault(scenario))
    snapshot = engine.snapshot()
    for method in ("get_environment_health", "get_root_causes", "get_blast_radius"):
        assert handle({"id": 1, "method": method}, snapshot).status == "ok"

    def state():
        return {name: dict(value) if isinstance(value, dict) else value
                for name, value in vars(snapshot).items()}

    before = state()
    for scope in (["payment"], ["frontend", "cart"], ["checkout", "payment", "cart"]):
        for method in ("get_environment_health", "get_symptoms", "get_root_causes",
                       "get_topology"):
            response = handle({"id": 2, "method": method, "params": {"scope": scope}},
                              engine.snapshot())
            assert response.status == "ok"
    assert engine.snapshot() is snapshot
    assert state() == before


# -- folded observations against a replay of the raw stream -------------------------

OPS = ("ingest", "ingest", "ingest", "clear", "snapshot",
       "add_entity", "remove_entity", "add_relation", "remove_relation")


def _random_observation(rng, engine, removed):
    graph, cb = engine.topology, engine.codebook
    tick = rng.randint(0, 3)  # small range: out-of-order ticks and ties
    ids = sorted(graph.entity_ids())
    if not ids or rng.random() < 0.05:
        return attribute_sample(rng.choice(sorted(removed) or ["ghost"]), tick, "x0", 0.0)
    # Mostly two hosts, so later samples often land on a stored key.
    eid = rng.choice(ids[:2] if rng.random() < 0.7 else ids)
    etype = graph.entity(eid).entity_type
    if rng.random() < 0.03:
        return attribute_sample(eid, tick, "undeclared", 0.0)
    if rng.random() < 0.25:
        return symptom_event(eid, tick, rng.choice(cb.symptoms_for_type(etype)).symptom_name)
    attribute = rng.choice(cb.type_def(etype).attribute_decls)
    thresholds = [s.activation.threshold for s in cb.symptoms_for_type(etype)
                  if s.activation.kind == "threshold" and s.activation.attribute == attribute]
    if thresholds and rng.random() < 0.8:  # on or either side of a threshold
        value = rng.choice(thresholds) + rng.choice((-0.5, 0.0, 0.5))
    else:
        value = rng.uniform(-6.0, 6.0)
    return attribute_sample(eid, tick, attribute, value)


def _apply(op, rng, engine, stream, removed):
    graph, cb = engine.topology, engine.codebook
    ids = sorted(graph.entity_ids())
    if op == "ingest":
        batch = [_random_observation(rng, engine, removed)
                 for _ in range(rng.randint(1, 5))]
        current = instantiate(graph, cb, max_depth=engine.max_depth)
        try:
            replay_activation(current, batch)
        except EngineError as exc:
            with pytest.raises(EngineError) as info:
                engine.ingest(batch)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return
        engine.ingest(batch)
        stream.extend(batch)
    elif op == "clear":
        engine.clear_observations()
        stream.clear()
    elif op == "add_entity":
        # Re-adding a removed id, maybe with another type, revives its observations.
        eid = (rng.choice(sorted(removed)) if removed and rng.random() < 0.5
               else f"n{rng.randrange(10**6)}")
        if eid not in graph:
            engine.add_entity(Entity(id=eid, name=eid,
                                     entity_type=rng.choice(sorted(cb.type_names()))))
            removed.discard(eid)
    elif op == "remove_entity" and len(ids) > 1:
        eid = rng.choice(ids)
        engine.remove_entity(eid)
        removed.add(eid)
    elif op == "add_relation" and len(ids) > 1:
        source, target = rng.sample(ids, 2)
        relation = Relation(source, target, rng.choice(("conn", "layer", "comp")))
        if relation not in graph.relations:
            engine.add_relation(relation)
    elif op == "remove_relation" and graph.relations:
        engine.remove_relation(rng.choice(sorted(
            graph.relations, key=lambda r: (r.source, r.target, r.kind))))


def _assert_matches_replay(engine, stream, rng):
    snapshot = engine.snapshot()
    cg = instantiate(snapshot.topology, engine.codebook, max_depth=engine.max_depth)
    ids = sorted(snapshot.topology.entity_ids())
    scope = frozenset(rng.sample(ids, rng.randint(1, len(ids)))) if ids else frozenset()
    for query_scope in (None, scope):
        try:
            expected = replay_activation(cg, stream, scope=query_scope)
        except EngineError as exc:
            for query in (snapshot.active, snapshot.diagnosis):
                with pytest.raises(EngineError) as info:
                    query(query_scope)
                assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            continue
        assert snapshot.active(query_scope) == expected  # symptoms and as_of
        assert snapshot.diagnosis(query_scope) == localize(cg, expected, leak=engine.leak)


def _assert_activation_matches_replay(engine, stream, rng):
    cg = instantiate(engine.topology, engine.codebook, max_depth=engine.max_depth)
    ids = sorted(engine.topology.entity_ids())
    scope = set(rng.sample(ids, rng.randint(1, len(ids)))) if ids else set()
    for query_scope in (None, scope):
        outcomes = []
        for activate in (activate_symptoms, replay_activation):
            try:
                outcomes.append(activate(cg, stream, scope=query_scope))
            except EngineError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


def _run_ops(seed, ops, check):
    rng = random.Random(seed)
    cb = random_codebook(rng)
    engine = Engine(random_topology(rng, cb), cb)
    stream, removed = [], set()
    for op in ops:
        _apply(op, rng, engine, stream, removed)
        # Not after every write, so that writes also pile up between binds.
        if op == "snapshot" or rng.random() < 0.5:
            check(engine, stream, rng)
    check(engine, stream, rng)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9),
       st.lists(st.sampled_from(OPS), min_size=1, max_size=40))
def test_folded_state_matches_replay_of_raw_stream(seed, ops):
    _run_ops(seed, ops, _assert_matches_replay)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9),
       st.lists(st.sampled_from(OPS), min_size=1, max_size=40))
def test_activate_symptoms_matches_replay_of_raw_stream(seed, ops):
    # The stream keeps observations of removed entities, so some replays raise.
    _run_ops(seed, ops, _assert_activation_matches_replay)


def test_every_public_name_resolves():
    import cie

    assert len(set(cie.__all__)) == len(cie.__all__)
    for name in cie.__all__:
        assert getattr(cie, name) is not None, name
