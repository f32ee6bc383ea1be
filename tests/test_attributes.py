from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cie.attributes import (AttributeDependency, AttributeGraph, AttributeNode,
                            DependencyFunction, load_attribute_graph)
from cie.errors import CycleError, DocumentError, UnknownIdError
from cie.knowledge_base import load_codebook
from cie.topology import load_environment

from genmodels import (random_attribute_dag, random_topological_order,
                       recursive_evaluate)


def node(aid, value=None, unit="u"):
    return AttributeNode(id=aid, host_entity="e", attribute_name=aid,
                         value=value, unit=unit)


def affine(a, b):
    return DependencyFunction(form="affine", a=a, b=b)


def test_sources_only_graph_evaluates_to_declared_values():
    ag = AttributeGraph()
    ag.add_node(node("a", 1.5))
    ag.add_node(node("b", -2.0))
    assert ag.evaluate() == {"a": 1.5, "b": -2.0}


def test_affine_child():
    ag = AttributeGraph()
    ag.add_node(node("p", 3.0))
    ag.add_node(node("c"))
    ag.add_dependency(AttributeDependency("p", "c", affine(2.0, 1.0)))
    assert ag.evaluate()["c"] == 7.0


def test_diamond_matches_recursive_oracle():
    ag = AttributeGraph()
    ag.add_node(node("top", 4.0))
    for mid in ("left", "right"):
        ag.add_node(node(mid))
    ag.add_node(node("bottom"))
    ag.add_dependency(AttributeDependency("top", "left", affine(2.0, 0.0)))
    ag.add_dependency(AttributeDependency("top", "right", affine(-1.0, 3.0)))
    ag.add_dependency(AttributeDependency("left", "bottom",
                                          DependencyFunction(form="sum")))
    ag.add_dependency(AttributeDependency("right", "bottom",
                                          DependencyFunction(form="sum")))
    values = ag.evaluate()
    assert values == recursive_evaluate(ag)
    assert values["bottom"] == 8.0 + (-1.0)


def test_missing_source_value():
    ag = AttributeGraph()
    ag.add_node(node("a"))
    with pytest.raises(DocumentError, match="no value"):
        ag.evaluate()


def test_cycle_rejected_at_edge_add():
    ag = AttributeGraph()
    ag.add_node(node("a", 1.0))
    ag.add_node(node("b"))
    ag.add_dependency(AttributeDependency("a", "b", affine(1.0, 0.0)))
    with pytest.raises(CycleError):
        ag.add_dependency(AttributeDependency("b", "a", affine(1.0, 0.0)))
    with pytest.raises(CycleError):
        ag.add_dependency(AttributeDependency("a", "a", affine(1.0, 0.0)))


def test_unit_mismatch_rejected():
    ag = AttributeGraph()
    ag.add_node(node("ms", 1.0, unit="ms"))
    ag.add_node(node("ratio", unit="ratio"))
    with pytest.raises(DocumentError, match="unit"):
        ag.add_dependency(AttributeDependency("ms", "ratio", affine(1.0, 0.0)))


def test_mixed_function_forms_rejected():
    ag = AttributeGraph()
    for aid in ("a", "b"):
        ag.add_node(node(aid, 1.0))
    ag.add_node(node("c"))
    ag.add_dependency(AttributeDependency("a", "c", DependencyFunction(form="sum")))
    with pytest.raises(DocumentError, match="mixes"):
        ag.add_dependency(AttributeDependency("b", "c", DependencyFunction(form="max")))


def test_affine_allows_single_parent_only():
    ag = AttributeGraph()
    for aid in ("a", "b"):
        ag.add_node(node(aid, 1.0))
    ag.add_node(node("c"))
    ag.add_dependency(AttributeDependency("a", "c", affine(1.0, 0.0)))
    with pytest.raises(DocumentError, match="takes one"):
        ag.add_dependency(AttributeDependency("b", "c", affine(1.0, 0.0)))


def test_learned_function_tag_is_reserved():
    with pytest.raises(DocumentError, match="reserved"):
        DependencyFunction(form="learned")


def test_table_requires_monotone_points():
    with pytest.raises(DocumentError, match="monotone"):
        DependencyFunction(form="table", points=((0.0, 0.0), (1.0, 5.0), (2.0, 1.0)))


def test_table_interpolates_and_clamps():
    fn = DependencyFunction(form="table", points=((0.0, 0.0), (10.0, 100.0)))
    assert fn.lookup(5.0) == 50.0
    assert fn.lookup(-3.0) == 0.0
    assert fn.lookup(42.0) == 100.0


def test_null_perturbation_is_empty():
    ag = AttributeGraph()
    ag.add_node(node("p", 3.0))
    ag.add_node(node("c"))
    ag.add_dependency(AttributeDependency("p", "c", affine(1.0, 0.0)))
    assert ag.propagate_perturbation("p", 0.0) == {}


def test_identity_child_shifts_with_parent():
    ag = AttributeGraph()
    ag.add_node(node("p", 3.0))
    ag.add_node(node("c"))
    ag.add_dependency(AttributeDependency("p", "c", affine(1.0, 0.0)))
    changes = ag.propagate_perturbation("p", 5.0)
    assert changes["p"] == (3.0, 8.0)
    assert changes["c"] == (3.0, 8.0)


def test_perturbing_dependent_requires_override_flag():
    ag = AttributeGraph()
    ag.add_node(node("p", 3.0))
    ag.add_node(node("c"))
    ag.add_dependency(AttributeDependency("p", "c", affine(1.0, 0.0)))
    with pytest.raises(DocumentError, match="allow_override"):
        ag.propagate_perturbation("c", 1.0)
    assert ag.propagate_perturbation("c", 1.0, allow_override=True)["c"] == (3.0, 4.0)


def test_unknown_attribute_errors():
    ag = AttributeGraph()
    with pytest.raises(UnknownIdError):
        ag.propagate_perturbation("ghost", 1.0)
    with pytest.raises(UnknownIdError):
        ag.check_constraints([("ghost", "<", 1.0)])


def test_empty_constraint_list():
    ag = AttributeGraph()
    ag.add_node(node("a", 1.0))
    assert ag.check_constraints([]) == []


def test_constraint_violation_reports_actual_vs_bound():
    ag = AttributeGraph()
    ag.add_node(node("a", 10.0))
    violations = ag.check_constraints([("a", "<=", 5.0)])
    assert len(violations) == 1
    assert violations[0].actual == 10.0
    assert violations[0].bound == 5.0


def shop_attribute_graph(shop_env_path, shop_codebook_path):
    doc = json.loads(shop_env_path.read_text())
    cb = load_codebook(shop_codebook_path.read_text())
    graph = load_environment(doc, codebook=cb)
    return load_attribute_graph(doc, graph, cb)


@pytest.mark.parametrize("key, value, message", [
    ("attributes", [{"entity": ["payment"], "attribute": "error_rate"}], "unknown entity"),
    ("attribute_dependencies",
     [{"from": ["payment:error_rate"], "to": "checkout:error_rate",
       "function": {"form": "sum"}}], "must be attribute ids"),
    ("attributes", [{"entity": "payment", "attribute": "error_rate", "value": "high"}],
     "'value' must be a finite number or null"),
    ("attributes", [{"entity": "payment", "attribute": "error_rate", "value": 0.1,
                     "baseline": [0.1]}], "'baseline' must be a finite number or null"),
    ("attribute_dependencies", [{"from": "a", "to": "b", "function": {
        "form": "table", "points": [[1]]}}], "pairs of finite numbers"),
    ("attribute_dependencies", [{"from": "a", "to": "b", "function": {
        "form": "table", "points": 5}}], "pairs of finite numbers"),
    ("attribute_dependencies", [{"from": "a", "to": "b", "function": {
        "form": "table", "points": [[0, 1], [1, "2"]]}}], "pairs of finite numbers"),
    ("attribute_dependencies", [{"from": "a", "to": "b", "function": {
        "form": "affine", "a": "x", "b": 0}}], "finite-number coefficients"),
])
def test_malformed_attribute_fields_are_document_errors(shop_env_path, shop_codebook_path,
                                                        key, value, message):
    doc = json.loads(shop_env_path.read_text())
    cb = load_codebook(shop_codebook_path.read_text())
    graph = load_environment(doc, codebook=cb)
    with pytest.raises(DocumentError, match=message):
        load_attribute_graph({**doc, key: value}, graph, cb)


def test_shop_attribute_graph_healthy_values(shop_env_path, shop_codebook_path):
    ag = shop_attribute_graph(shop_env_path, shop_codebook_path)
    values = ag.evaluate()
    assert values["checkout:latency_p99_ms"] == pytest.approx(1.1 * 180.0 + 60.0)
    assert values["frontend:latency_p99_ms"] == pytest.approx(258.0)
    assert values["shipping:order_rate"] == pytest.approx(0.99 * 42.5)


def test_scenario_constraint_healthy_vs_fault(shop_env_path, shop_codebook_path):
    ag = shop_attribute_graph(shop_env_path, shop_codebook_path)
    healthy = ag.check_constraints([("shipping:order_rate", ">=", 5.0)])
    assert healthy == []
    # the injected fault collapses checkout's order flow
    changes = ag.propagate_perturbation("checkout:order_rate", -42.0)
    assert changes["shipping:order_rate"][1] < 5.0
    after = ag.evaluate(overrides={"checkout:order_rate": 0.5})
    assert after["shipping:order_rate"] < 5.0
    assert after["accounting:orders_ingested_rate"] < 1.0


def test_perturbation_change_set_within_descendants(shop_env_path, shop_codebook_path):
    ag = shop_attribute_graph(shop_env_path, shop_codebook_path)
    changes = ag.propagate_perturbation("payment:latency_p99_ms", 900.0)
    assert set(changes) <= ag.descendants("payment:latency_p99_ms")
    assert "checkout:latency_p99_ms" in changes


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_dag_matches_recursive_oracle(seed):
    ag = random_attribute_dag(random.Random(seed))
    assert ag.evaluate() == recursive_evaluate(ag)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_evaluation_is_topological_order_independent(seed):
    rng = random.Random(seed)
    ag = random_attribute_dag(rng)
    reference = ag.evaluate()
    for _ in range(3):
        order = random_topological_order(rng, ag)
        assert ag.evaluate(order=order) == reference


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_perturbation_properties(seed):
    rng = random.Random(seed)
    ag = random_attribute_dag(rng)
    sources = sorted(ag.source_ids())
    source = rng.choice(sources)
    assert ag.propagate_perturbation(source, 0.0) == {}
    changes = ag.propagate_perturbation(source, rng.uniform(-4.0, 4.0))
    assert set(changes) <= ag.descendants(source)


def test_invalid_topological_order_rejected():
    ag = AttributeGraph()
    ag.add_node(node("p", 1.0))
    ag.add_node(node("c"))
    ag.add_dependency(AttributeDependency("p", "c", affine(1.0, 0.0)))
    with pytest.raises(DocumentError, match="violates"):
        ag.evaluate(order=["c", "p"])
    with pytest.raises(DocumentError, match="permutation"):
        ag.evaluate(order=["p"])


def _small_environment():
    cb = load_codebook({"schema": "codebook/1",
                        "types": [{"name": "svc", "attributes": ["x", "y"]}]})
    doc = {"schema": "env/1",
           "entities": [{"id": "a", "type": "svc"}, {"id": "b", "type": "svc"}],
           "attributes": [{"entity": "a", "attribute": "x", "value": 1.0},
                          {"entity": "b", "attribute": "x"}],
           "attribute_dependencies": [{"from": "a:x", "to": "b:x", "function": {"form": "sum"}}]}
    return doc, cb


@pytest.mark.parametrize("edit, location, message", [
    (lambda d: d.update(attributes={}), "attributes", "'attributes' must be an array"),
    (lambda d: d.update(attribute_dependencies="a:x"), "attribute_dependencies",
     "'attribute_dependencies' must be an array"),
    (lambda d: d["attributes"][0].pop("attribute"), "attributes[0]",
     "attribute requires 'entity' and 'attribute'"),
    (lambda d: d["attributes"].append("a:y"), "attributes[2]",
     "attribute requires 'entity' and 'attribute'"),
    (lambda d: d["attributes"].append({"entity": "ghost", "attribute": "x"}), "attributes[2]",
     "unknown entity 'ghost'"),
    (lambda d: d["attributes"].append({"entity": "a", "attribute": "z"}), "attributes[2]",
     "attribute 'z' not declared on type 'svc'"),
    (lambda d: d["attributes"].append({"entity": "a", "attribute": "x"}), "attributes[2]",
     "duplicate attribute 'a:x'"),
    (lambda d: d["attribute_dependencies"][0].pop("function"), "attribute_dependencies[0]",
     "dependency requires 'from', 'to', 'function'"),
    (lambda d: d["attribute_dependencies"][0].update(function={"a": 1}),
     "attribute_dependencies[0]", "function requires 'form'"),
    (lambda d: d["attribute_dependencies"][0].update(function={"form": "quadratic"}),
     "attribute_dependencies[0]", "unknown function form 'quadratic'"),
    (lambda d: d["attribute_dependencies"][0].update(
        function={"form": "table", "points": [[1, 0], [1, 2]]}),
     "attribute_dependencies[0]", "table needs >= 2 points with strictly increasing x"),
    (lambda d: d["attribute_dependencies"][0].update(
        function={"form": "table", "points": [[0, 0]]}),
     "attribute_dependencies[0]", "table needs >= 2 points with strictly increasing x"),
    (lambda d: d["attribute_dependencies"].append(dict(d["attribute_dependencies"][0])),
     "attribute_dependencies[1]", "duplicate dependency 'a:x' -> 'b:x'"),
    (lambda d: d["attribute_dependencies"][0].update({"from": "ghost:x"}),
     "attribute_dependencies[0]", "unknown attribute 'ghost:x'"),
    (lambda d: d["attribute_dependencies"][0].update(to="b:y"),
     "attribute_dependencies[0]", "unknown attribute 'b:y'"),
], ids=["attributes-not-array", "dependencies-not-array", "attribute-without-name",
        "attribute-not-object", "unknown-entity", "undeclared-attribute",
        "duplicate-attribute", "dependency-without-function", "function-without-form",
        "unknown-form", "table-x-not-increasing", "table-one-point", "duplicate-dependency",
        "unknown-parent", "unknown-dependent"])
def test_attribute_refusals_are_located(edit, location, message):
    doc, cb = _small_environment()
    edit(doc)
    with pytest.raises(DocumentError) as err:
        load_attribute_graph(doc, load_environment(doc, codebook=cb), cb)
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


def test_attribute_graph_refuses_duplicates_and_unknown_endpoints():
    ag = AttributeGraph()
    ag.add_node(node("a", 1.0))
    ag.add_node(node("b"))
    with pytest.raises(DocumentError, match="^duplicate attribute 'a'$"):
        ag.add_node(node("a", 2.0))
    with pytest.raises(UnknownIdError, match="^unknown attribute 'ghost'$"):
        ag.add_dependency(AttributeDependency("ghost", "b", DependencyFunction(form="sum")))
    ag.add_dependency(AttributeDependency("a", "b", DependencyFunction(form="sum")))
    with pytest.raises(DocumentError, match="^duplicate dependency 'a' -> 'b'$"):
        ag.add_dependency(AttributeDependency("a", "b", DependencyFunction(form="sum")))
    with pytest.raises(DocumentError, match="^unknown function form 'cubic'$"):
        DependencyFunction(form="cubic")
