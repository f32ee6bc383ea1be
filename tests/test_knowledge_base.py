from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cie.errors import DocumentError
from cie.knowledge_base import Codebook, EntityTypeDef, load_codebook

from genmodels import random_codebook, render_codebook

MINIMAL = {
    "schema": "codebook/1",
    "version": "1",
    "types": [{"name": "svc", "attributes": ["error_rate"]}],
    "symptoms": [{"name": "errors", "applies_to": "svc",
                  "activation": {"kind": "threshold", "attribute": "error_rate",
                                 "comparator": ">", "threshold": 0.1}}],
    "root_causes": [{"name": "bug", "applies_to": "svc", "prior": 0.05,
                     "local_symptoms": [{"symptom": "errors", "probability": 0.9}]}],
    "propagation_rules": [],
}


def test_minimal_codebook_valid():
    cb = load_codebook(MINIMAL)
    assert cb.type_names() == {"svc"}
    assert cb.cause("bug").local_symptoms == (("errors", 0.9),)


def test_zero_probability_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["root_causes"][0]["local_symptoms"][0]["probability"] = 0.0
    with pytest.raises(DocumentError, match=r"outside \(0, 1\]"):
        load_codebook(doc)


def test_probability_above_one_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["root_causes"][0]["prior"] = 1.5
    with pytest.raises(DocumentError, match="prior"):
        load_codebook(doc)


def test_rule_referencing_undeclared_symptom():
    doc = json.loads(json.dumps(MINIMAL))
    doc["propagation_rules"] = [{"id": "r", "from_symptom": "errors",
                                 "relation": "conn", "traversal": "reverse",
                                 "to_symptom": "phantom", "attenuation": 0.5}]
    with pytest.raises(DocumentError, match="phantom"):
        load_codebook(doc)


def test_local_symptom_must_match_cause_type():
    doc = json.loads(json.dumps(MINIMAL))
    doc["types"].append({"name": "db", "attributes": ["lag"]})
    doc["symptoms"].append({"name": "db_lag", "applies_to": "db",
                            "activation": {"kind": "event"}})
    doc["root_causes"][0]["local_symptoms"].append(
        {"symptom": "db_lag", "probability": 0.5})
    with pytest.raises(DocumentError, match="db_lag"):
        load_codebook(doc)


def test_threshold_must_reference_declared_attribute():
    doc = json.loads(json.dumps(MINIMAL))
    doc["symptoms"][0]["activation"]["attribute"] = "latency"
    with pytest.raises(DocumentError, match="latency"):
        load_codebook(doc)


def test_duplicate_symptom_name_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["symptoms"].append(dict(doc["symptoms"][0]))
    with pytest.raises(DocumentError, match="duplicate symptom"):
        load_codebook(doc)


def test_error_names_offending_definition():
    doc = json.loads(json.dumps(MINIMAL))
    doc["root_causes"][0]["local_symptoms"][0]["probability"] = -1
    with pytest.raises(DocumentError, match="bug"):
        load_codebook(doc)


def test_causes_for_type_empty_for_type_without_causes():
    doc = json.loads(json.dumps(MINIMAL))
    doc["types"].append({"name": "db", "attributes": []})
    cb = load_codebook(doc)
    assert cb.causes_for_type("db") == []


def test_causes_for_type_unknown_type():
    cb = load_codebook(MINIMAL)
    with pytest.raises(DocumentError):
        cb.causes_for_type("mainframe")


def test_scenario_codebook_declares_payment_defect(shop_engine):
    causes = shop_engine.codebook.causes_for_type("payment-service")
    assert "code_defect_transaction_rejection" in [c.cause_name for c in causes]


def test_causes_for_type_declaration_order():
    doc = json.loads(json.dumps(MINIMAL))
    doc["root_causes"].append({"name": "leak", "applies_to": "svc", "prior": 0.01,
                               "local_symptoms": [{"symptom": "errors",
                                                   "probability": 0.3}]})
    cb = load_codebook(doc)
    assert [c.cause_name for c in cb.causes_for_type("svc")] == ["bug", "leak"]


def test_rules_for_no_rules():
    cb = load_codebook(MINIMAL)
    assert cb.steps == {"errors": ()}
    assert cb.back_steps == {"errors": ()}


def test_rules_for_reverse_conn_caller_ward(chain_codebook):
    # The rules for a symptom, as the step tables hold them: a reverse conn
    # rule steps from a callee to its callers, against the edge direction
    # going forward and along it going back.
    (step,) = chain_codebook.steps["high_error_rate"]
    kind, rule, direction, next_type, next_symptom = step
    assert (kind, rule.traversal, direction) == ("conn", "reverse", "in")
    assert (next_type, next_symptom) == ("service", "high_error_rate")
    (back,) = chain_codebook.back_steps["high_error_rate"]
    assert back[:3] == ("conn", rule, "out")


def test_default_prior_applied_when_omitted():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["root_causes"][0]["prior"]
    assert load_codebook(doc).cause("bug").prior == 0.01


def test_shop_codebook_round_trip(shop_codebook_path):
    cb = load_codebook(shop_codebook_path.read_text())
    assert load_codebook(render_codebook(cb)) == cb
    assert load_codebook(json.dumps(render_codebook(cb))) == cb


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_codebook_round_trip(seed):
    cb = random_codebook(random.Random(seed))
    assert load_codebook(render_codebook(cb)) == cb


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_codebook_probabilities_in_unit_interval(seed):
    cb = random_codebook(random.Random(seed))
    for cause in cb.root_causes:
        assert 0.0 < cause.prior <= 1.0
        for _, p in cause.local_symptoms:
            assert 0.0 < p <= 1.0
    for rule in cb.rules:
        assert 0.0 < rule.attenuation <= 1.0


def test_validation_is_total_on_junk_documents():
    junk = ["", "[1,2]", '{"schema": "codebook/1", "types": [{"noname": 1}]}',
            '{"schema": "codebook/2"}', '{"schema": "codebook/1", "symptoms": [{}]}']
    for doc in junk:
        with pytest.raises(DocumentError):
            load_codebook(doc)


def _with(path, value):
    doc = json.loads(json.dumps(MINIMAL))
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize("path, value, message", [
    (("types", 0, "name"), ["svc"], "'name' must be a string"),
    (("types", 0, "attributes"), [["error_rate"]], "'attributes' must be a list of strings"),
    (("types", 0, "attributes"), "error_rate", "'attributes' must be a list of strings"),
    (("symptoms", 0, "name"), ["errors"], "'name' must be a string"),
    (("symptoms", 0, "applies_to"), ["svc"], "'applies_to' must be a string"),
    (("root_causes", 0, "name"), {"bug": 1}, "'name' must be a string"),
    (("root_causes", 0, "local_symptoms", 0, "symptom"), ["errors"],
     "'symptom' must be a string"),
    (("symptoms", 0, "activation", "threshold"), float("nan"), "finite number"),
    (("symptoms", 0, "activation", "threshold"), float("inf"), "finite number"),
    (("symptoms", 0, "activation", "threshold"), True, "finite number"),
    (("symptoms", 0, "activation", "threshold"), "0.1", "finite number"),
])
def test_malformed_fields_are_document_errors(path, value, message):
    doc = _with(path, value)
    with pytest.raises(DocumentError, match=message):
        load_codebook(doc)
    with pytest.raises(DocumentError, match=message):
        load_codebook(json.dumps(doc))


@pytest.mark.parametrize("field", ["id", "from_symptom", "to_symptom", "relation",
                                   "traversal"])
def test_malformed_rule_fields_are_document_errors(field):
    rule = {"id": "r", "from_symptom": "errors", "relation": "conn",
            "traversal": "reverse", "to_symptom": "errors", "attenuation": 0.5}
    rule[field] = [rule[field]]
    with pytest.raises(DocumentError, match=f"'{field}' must be a string"):
        load_codebook(_with(("propagation_rules",), [rule]))


RULE = {"id": "r", "from_symptom": "errors", "relation": "conn",
        "traversal": "reverse", "to_symptom": "errors", "attenuation": 0.5}


def _edited(edit):
    doc = json.loads(json.dumps(MINIMAL))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, location, message", [
    (lambda d: d["types"].append({"name": "svc"}), "types[1]", "duplicate type 'svc'"),
    (lambda d: d["types"][0]["attributes"].append("error_rate"), "types[0]",
     "duplicate attribute declaration"),
    (lambda d: d["root_causes"].append(dict(d["root_causes"][0])), "root_causes[1]",
     "duplicate root cause 'bug'"),
    (lambda d: d["propagation_rules"].extend([RULE, dict(RULE)]), "propagation_rules[1]",
     "duplicate rule id 'r'"),
    (lambda d: d["symptoms"][0].update(applies_to="db"), "symptoms[0]", "unknown type 'db'"),
    (lambda d: d["root_causes"][0].update(applies_to="db"), "root_causes[0]", "unknown type 'db'"),
    (lambda d: d["root_causes"][0]["local_symptoms"][0].update(symptom="phantom"),
     "root_causes[0].local_symptoms[0]",
     "unknown symptom 'phantom'"),
    (lambda d: d["propagation_rules"].append({**RULE, "from_symptom": "phantom"}),
     "propagation_rules[0]",
     "unknown symptom 'phantom'"),
    (lambda d: d["symptoms"][0]["activation"].update(comparator="!="), "symptoms[0]",
     "unknown comparator '!='"),
    (lambda d: d["symptoms"][0]["activation"].update(comparator=[">"]), "symptoms[0]",
     "unknown comparator ['>']"),
    (lambda d: d["symptoms"][0]["activation"].pop("comparator"), "symptoms[0]",
     "unknown comparator None"),
    (lambda d: d["symptoms"][0].update(activation={"kind": "sometimes"}), "symptoms[0]",
     "unknown activation kind 'sometimes'"),
    (lambda d: d["symptoms"][0].update(activation={"attribute": "error_rate"}), "symptoms[0]",
     "activation requires 'kind'"),
    (lambda d: d["propagation_rules"].append({**RULE, "relation": "owns"}),
     "propagation_rules[0]",
     "unknown relation kind 'owns'"),
    (lambda d: d["propagation_rules"].append({**RULE, "traversal": "sideways"}),
     "propagation_rules[0]",
     "unknown traversal 'sideways'"),
    (lambda d: d.update(types={}), "types", "'types' must be an array"),
    (lambda d: d.update(symptoms="errors"), "symptoms", "'symptoms' must be an array"),
    (lambda d: d.update(root_causes=None), "root_causes", "'root_causes' must be an array"),
    (lambda d: d.update(propagation_rules=RULE), "propagation_rules",
     "'propagation_rules' must be an array"),
    (lambda d: d["types"][0].pop("name"), "types[0]", "type requires 'name'"),
    (lambda d: d["types"].append("svc"), "types[1]", "type requires 'name'"),
    (lambda d: d["symptoms"][0].pop("applies_to"), "symptoms[0]",
     "symptom requires 'name' and 'applies_to'"),
    (lambda d: d["root_causes"][0].pop("name"), "root_causes[0]",
     "root cause requires 'name' and 'applies_to'"),
    (lambda d: d["root_causes"][0].update(local_symptoms={}), "root_causes[0].local_symptoms",
     "'local_symptoms' must be an array"),
    (lambda d: d["root_causes"][0]["local_symptoms"][0].pop("probability"),
     "root_causes[0].local_symptoms[0]", "local symptom requires 'symptom' and 'probability'"),
    (lambda d: d["propagation_rules"].append({k: v for k, v in RULE.items() if k != "id"}),
     "propagation_rules[0]",
     "rule requires ['attenuation', 'from_symptom', 'id', 'relation', 'to_symptom', "
     "'traversal']"),
    (lambda d: d.update(schema="codebook/2"), "schema",
     "expected schema 'codebook/1', got 'codebook/2'"),
], ids=["duplicate-type", "duplicate-attribute", "duplicate-cause", "duplicate-rule",
        "symptom-unknown-type", "cause-unknown-type", "cause-unknown-symptom",
        "rule-unknown-symptom", "unknown-comparator", "list-comparator", "missing-comparator",
        "unknown-activation-kind", "activation-without-kind", "unknown-relation-kind",
        "unknown-traversal", "types-not-array", "symptoms-not-array",
        "root-causes-not-array", "rules-not-array", "type-without-name", "type-not-object",
        "symptom-without-applies-to", "cause-without-name", "local-symptoms-not-array",
        "local-symptom-without-probability", "rule-without-id", "wrong-schema"])
def test_codebook_refusals_are_located(edit, location, message):
    with pytest.raises(DocumentError) as info:
        load_codebook(_edited(edit))
    assert info.value.location == location
    assert str(info.value) == f"{location}: {message}"


def test_codebook_built_directly_refuses_a_duplicate_type():
    cb = load_codebook(MINIMAL)
    with pytest.raises(DocumentError, match="duplicate type 'svc'") as info:
        Codebook(cb.types + cb.types, cb.root_causes, cb.symptoms, cb.rules)
    assert info.value.location == "types[1]"


def test_codebook_built_directly_refuses_a_non_string_field():
    with pytest.raises(DocumentError) as info:
        Codebook((EntityTypeDef(["svc"]),), (), (), ())
    assert str(info.value) == "types[0]: 'name' must be a string"
    with pytest.raises(DocumentError) as info:
        Codebook((EntityTypeDef("svc", (["x"],)),), (), (), ())
    assert str(info.value) == "types[0]: 'attributes' must be a list of strings"
