"""The layer tracer in ``perfbench/spans.py`` times each layer from outside
by replacing functions at the names their callers bind. If a refactor moves
or renames one of those names, tracing silently stops timing that layer.
These tests pin every name it wraps, and check that the serving path still
reaches the layers through them, and never through ``activate_symptoms``.
They also run ``perfbench/scale.py``, whose calls into the engine the
benchmark fixes."""

from __future__ import annotations

import io
import json
import sys
import types
from pathlib import Path

import cie.engine
import cie.impact
import cie.inference
import cie.service
from cie import data
from cie.engine import Engine
from cie.inference import attribute_sample
from cie.topology import Entity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import scale  # noqa: E402

WRAPPED_FUNCTIONS = {
    cie.engine: ("load_environment", "load_codebook", "load_attribute_graph",
                 "instantiate", "refresh", "localize"),
    cie.inference: ("activate_symptoms",),
    cie.impact: ("blast_radius", "remediation_alignment"),
    cie.service: ("handle",),
}
WRAPPED_ENGINE_METHODS = ("snapshot", "ingest", "add_entity", "remove_entity",
                          "add_relation", "remove_relation")


def test_wrapped_module_functions_exist():
    for module, names in WRAPPED_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_service_json_has_what_the_tracer_swaps_in():
    json_module = cie.service.json
    assert callable(json_module.loads) and callable(json_module.dumps)
    assert issubclass(json_module.JSONDecodeError, ValueError)


def test_wrapped_engine_methods_defined_on_the_class():
    # The tracer reads the class __dict__, so inherited methods would not do.
    for name in WRAPPED_ENGINE_METHODS:
        assert callable(Engine.__dict__.get(name)), f"Engine.{name}"


def test_serving_path_calls_through_the_wrapped_names(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((cie.engine, "load_environment"), (cie.engine, "load_codebook"),
                         (cie.engine, "load_attribute_graph"), (cie.engine, "instantiate"),
                         (cie.engine, "refresh"), (cie.engine, "localize"),
                         (cie.inference, "activate_symptoms"),
                         (cie.impact, "blast_radius"), (cie.service, "handle")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(cie.service, "json", types.SimpleNamespace(
        loads=counted("loads", json.loads), dumps=json.dumps,
        JSONDecodeError=json.JSONDecodeError))

    engine = Engine.from_files(data.path("astronomy_shop_env.json"),
                               data.path("astronomy_shop_codebook.json"))
    engine.ingest([attribute_sample("payment", 1, "transaction_reject_rate", 0.95)])
    engine.add_entity(Entity(id="svc-x", name="svc-x", entity_type="web-service"))
    frames = [{"id": method, "method": method} for method in cie.service.METHODS]
    frames.append({"id": 0, "method": "get_symptoms", "params": {"scope": ["payment"]}})
    out = io.StringIO()
    cie.service.serve(engine, io.StringIO("".join(json.dumps(f) + "\n" for f in frames)),
                      out)
    for name in ("load_environment", "load_codebook", "load_attribute_graph", "instantiate",
                 "refresh", "localize", "blast_radius", "handle", "loads"):
        assert name in calls, name
    assert calls.count("load_environment") == calls.count("load_attribute_graph") == 1
    # The engine folds observations itself and must not replay them through
    # the stream wrapper, whose span would then time every query.
    assert "activate_symptoms" not in calls


def test_scale_report_measures_through_its_frozen_calls():
    # ``measure`` builds an EngineSnapshot positionally; its topology answer
    # must equal the one a snapshot of a real engine gives.
    row = scale.measure(300)
    graph, cb = scale.scale_model(300)
    response = cie.service.handle({"id": 1, "method": "get_topology"},
                                  Engine(graph, cb).snapshot())
    assert response.status == "ok"
    assert row["entities"] == 300
    assert row["get_topology_bytes"] == len(json.dumps(response.to_dict()))
    assert row["causality_edges"] > 0
