"""One-off scale report: the ROADMAP baseline table at fixed entity counts.

The model is the acceptance-test scale fixture: a binary call tree of
services of one type, one error symptom and one reverse ``conn`` rule. For
each entity count it times ``instantiate``, ``EntityGraph.add_relation`` for
one new call, and ``refresh`` after that add (a full rebuild today), and
measures the unscoped ``get_topology`` response size. It also prints the
instantiation depth truncations, which ``serve`` does not report. This is a
single run per size, not a gated workload.
"""

from __future__ import annotations

import json
import time

from cie.causality import DEFAULT_MAX_DEPTH, instantiate, refresh
from cie.engine import EngineSnapshot
from cie.inference import DEFAULT_LEAK
from cie.knowledge_base import (ActivationSpec, Codebook, EntityTypeDef, PropagationRule,
                                RootCauseDef, SymptomDef)
from cie.service import handle
from cie.topology import Entity, EntityGraph, Relation

SIZES = (1000, 5000, 20000)  # entity counts of the ROADMAP baseline table


def scale_model(n: int) -> tuple[EntityGraph, Codebook]:
    cb = Codebook(
        types=(EntityTypeDef("service", ("error_rate",)),),
        root_causes=(RootCauseDef("defect", "service",
                                  local_symptoms=(("high_error_rate", 0.9),), prior=0.02),),
        symptoms=(SymptomDef("high_error_rate", "service",
                             ActivationSpec(kind="threshold", attribute="error_rate",
                                            comparator=">", threshold=0.05)),),
        rules=(PropagationRule("to-callers", "high_error_rate", "conn", "reverse",
                               "high_error_rate", 0.8),),
        version="scale")
    ids = [f"svc{i:05d}" for i in range(n)]
    entities = {eid: Entity(id=eid, name=eid, entity_type="service",
                            owner_team=f"team-{i % 7}") for i, eid in enumerate(ids)}
    relations = frozenset(Relation(ids[(i - 1) // 2], ids[i], "conn") for i in range(1, n))
    return EntityGraph(entities, relations, revision=0), cb


def measure(n: int) -> dict:
    graph, cb = scale_model(n)
    started = time.perf_counter()
    cg = instantiate(graph, cb, max_depth=DEFAULT_MAX_DEPTH)
    instantiate_s = time.perf_counter() - started

    # A new call from the root to the last service: not in the tree yet.
    extra = Relation("svc00000", f"svc{n - 1:05d}", "conn")
    started = time.perf_counter()
    changed = graph.add_relation(extra)
    add_relation_s = time.perf_counter() - started
    started = time.perf_counter()
    refresh(cg, changed, cb, max_depth=DEFAULT_MAX_DEPTH)
    refresh_s = time.perf_counter() - started

    snapshot = EngineSnapshot(graph, cb, cg, (), None, DEFAULT_LEAK, DEFAULT_MAX_DEPTH)
    response = handle({"id": 1, "method": "get_topology"}, snapshot)
    return {"entities": n,
            "instantiate_ms": instantiate_s * 1000.0,
            "refresh_after_add_ms": refresh_s * 1000.0,
            "add_relation_ms": add_relation_s * 1000.0,
            "get_topology_bytes": len(json.dumps(response.to_dict())),
            "causality_edges": len(cg.edges),
            "causality_truncations": len(cg.truncations)}


def report():
    rows = [measure(n) for n in SIZES]
    print("| entities | instantiate | refresh after one relation add "
          "| EntityGraph.add_relation | unscoped get_topology payload | truncations |")
    print("| --- | --- | --- | --- | --- | --- |")
    for r in rows:
        print(f"| {r['entities']} | {r['instantiate_ms']:.0f} ms "
              f"| {r['refresh_after_add_ms']:.0f} ms (full rebuild) "
              f"| {r['add_relation_ms']:.1f} ms | {r['get_topology_bytes'] / 1000:.0f} KB "
              f"| {r['causality_truncations']} |")
    print(json.dumps({"scale_report": rows}))
