"""Environment-agnostic codebook of failure knowledge.

The codebook declares entity types, the root causes and symptoms that can
exist per type, symptom activation predicates, and propagation rules that
carry a symptom across one topology relation hop with a multiplicative
attenuation. It is validated eagerly at load and immutable afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DocumentError
from .topology import RELATION_KINDS, _parse_document

CODEBOOK_SCHEMA = "codebook/1"
TRAVERSALS = ("forward", "reverse")
COMPARATORS = (">", ">=", "<", "<=")
DEFAULT_PRIOR = 0.01


@dataclass(frozen=True, slots=True)
class ActivationSpec:
    """How a symptom turns active: a threshold over one declared attribute,
    or a directly asserted event."""

    kind: str  # "threshold" | "event"
    attribute: str | None = None
    comparator: str | None = None
    threshold: float | None = None

    def holds(self, value: float) -> bool:
        if self.kind != "threshold":
            return False
        if self.comparator == ">":
            return value > self.threshold
        if self.comparator == ">=":
            return value >= self.threshold
        if self.comparator == "<":
            return value < self.threshold
        return value <= self.threshold


EVENT_ACTIVATION = ActivationSpec(kind="event")


@dataclass(frozen=True, slots=True)
class EntityTypeDef:
    type_name: str
    attribute_decls: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class SymptomDef:
    symptom_name: str
    applies_to: str
    activation: ActivationSpec = EVENT_ACTIVATION


@dataclass(frozen=True, slots=True)
class RootCauseDef:
    cause_name: str
    applies_to: str
    local_symptoms: tuple[tuple[str, float], ...]
    prior: float = DEFAULT_PRIOR


@dataclass(frozen=True, slots=True)
class PropagationRule:
    rule_id: str
    from_symptom: str
    over_relation: str
    traversal: str  # "forward" follows the edge, "reverse" walks it backwards
    to_symptom: str
    attenuation: float


class Codebook:
    """Validated, immutable set of type/cause/symptom/rule definitions."""

    def __init__(self, types: tuple[EntityTypeDef, ...],
                 root_causes: tuple[RootCauseDef, ...],
                 symptoms: tuple[SymptomDef, ...],
                 rules: tuple[PropagationRule, ...],
                 version: str = "0"):
        self.types = tuple(types)
        self.root_causes = tuple(root_causes)
        self.symptoms = tuple(symptoms)
        self.rules = tuple(rules)
        self.version = version
        self._types_by_name: dict[str, EntityTypeDef] = {}
        self._symptoms_by_name: dict[str, SymptomDef] = {}
        self.rules_by_id: dict[str, PropagationRule] = {}
        self._validate()
        self._causes_by_name = {c.cause_name: c for c in self.root_causes}
        # Step tables for the rule-closure traversal: symptom -> ((relation
        # kind, rule, adjacency direction, next type, next symptom), ...) in
        # RELATION_KINDS order, then by rule id. ``steps`` follows each rule
        # from its from_symptom; ``back_steps`` walks it back from its
        # to_symptom, over the same relation in the other direction.
        self.steps: dict[str, tuple[tuple[str, PropagationRule, str, str, str], ...]] = {
            s.symptom_name: () for s in self.symptoms}
        self.back_steps = dict(self.steps)
        for rule in sorted(self.rules, key=lambda r: (RELATION_KINDS.index(r.over_relation),
                                                      r.rule_id)):
            forward = rule.traversal == "forward"
            self.steps[rule.from_symptom] += ((
                rule.over_relation, rule, "out" if forward else "in",
                self._symptoms_by_name[rule.to_symptom].applies_to, rule.to_symptom),)
            self.back_steps[rule.to_symptom] += ((
                rule.over_relation, rule, "in" if forward else "out",
                self._symptoms_by_name[rule.from_symptom].applies_to, rule.from_symptom),)
        # Root causes by local symptom, each once, in declaration order.
        self.local_causes: dict[str, tuple[RootCauseDef, ...]] = {
            s.symptom_name: () for s in self.symptoms}
        for c in self.root_causes:
            for name in dict(c.local_symptoms):
                self.local_causes[name] += (c,)

    def _validate(self):
        types = self._types_by_name
        for t in self.types:
            if t.type_name in types:
                raise DocumentError(f"duplicate type {t.type_name!r}", location=t.type_name)
            if len(set(t.attribute_decls)) != len(t.attribute_decls):
                raise DocumentError("duplicate attribute declaration", location=t.type_name)
            types[t.type_name] = t

        symptoms = self._symptoms_by_name
        for s in self.symptoms:
            loc = s.symptom_name
            if s.symptom_name in symptoms:
                raise DocumentError(f"duplicate symptom {s.symptom_name!r}", location=loc)
            symptoms[s.symptom_name] = s
            if s.applies_to not in types:
                raise DocumentError(f"unknown type {s.applies_to!r}", location=loc)
            act = s.activation
            if act.kind == "threshold":
                if act.attribute not in types[s.applies_to].attribute_decls:
                    raise DocumentError(
                        f"threshold references attribute {act.attribute!r} not declared "
                        f"on type {s.applies_to!r}", location=loc)
                if act.comparator not in COMPARATORS:
                    raise DocumentError(f"unknown comparator {act.comparator!r}", location=loc)
                if not is_finite_number(act.threshold):
                    raise DocumentError("threshold must be a finite number", location=loc)
            elif act.kind != "event":
                raise DocumentError(f"unknown activation kind {act.kind!r}", location=loc)

        cause_names: set[str] = set()
        for c in self.root_causes:
            loc = c.cause_name
            if c.cause_name in cause_names:
                raise DocumentError(f"duplicate root cause {c.cause_name!r}", location=loc)
            cause_names.add(c.cause_name)
            if c.applies_to not in types:
                raise DocumentError(f"unknown type {c.applies_to!r}", location=loc)
            _check_probability(c.prior, "prior", loc)
            for name, prob in c.local_symptoms:
                sdef = symptoms.get(name)
                if sdef is None:
                    raise DocumentError(f"unknown symptom {name!r}", location=loc)
                if sdef.applies_to != c.applies_to:
                    raise DocumentError(
                        f"local symptom {name!r} applies to {sdef.applies_to!r}, "
                        f"not to the cause's type {c.applies_to!r}", location=loc)
                _check_probability(prob, f"P({name}|{c.cause_name})", loc)

        rules = self.rules_by_id
        for r in self.rules:
            loc = r.rule_id
            if r.rule_id in rules:
                raise DocumentError(f"duplicate rule id {r.rule_id!r}", location=loc)
            rules[r.rule_id] = r
            for name in (r.from_symptom, r.to_symptom):
                if name not in symptoms:
                    raise DocumentError(f"unknown symptom {name!r}", location=loc)
            if r.over_relation not in RELATION_KINDS:
                raise DocumentError(f"unknown relation kind {r.over_relation!r}", location=loc)
            if r.traversal not in TRAVERSALS:
                raise DocumentError(f"unknown traversal {r.traversal!r}", location=loc)
            _check_probability(r.attenuation, "attenuation", loc)

    # -- lookups -------------------------------------------------------------

    def type_names(self) -> set[str]:
        return set(self._types_by_name)

    def type_def(self, type_name: str) -> EntityTypeDef:
        try:
            return self._types_by_name[type_name]
        except KeyError:
            raise DocumentError(f"unknown type {type_name!r}") from None

    def cause(self, cause_name: str) -> RootCauseDef:
        try:
            return self._causes_by_name[cause_name]
        except KeyError:
            raise DocumentError(f"unknown root cause {cause_name!r}") from None

    def causes_for_type(self, type_name: str) -> list[RootCauseDef]:
        """Causes declared for a type, in declaration order."""
        self.type_def(type_name)
        return [c for c in self.root_causes if c.applies_to == type_name]

    def symptoms_for_type(self, type_name: str) -> list[SymptomDef]:
        self.type_def(type_name)
        return [s for s in self.symptoms if s.applies_to == type_name]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.types == other.types and self.root_causes == other.root_causes
                and self.symptoms == other.symptoms and self.rules == other.rules
                and self.version == other.version)

    def __repr__(self) -> str:
        return (f"Codebook(types={len(self.types)}, causes={len(self.root_causes)}, "
                f"symptoms={len(self.symptoms)}, rules={len(self.rules)})")


def is_finite_number(value) -> bool:
    """True for an int or a finite float; False for a bool, NaN or infinity."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


def _check_strings(raw: dict, keys, location: str):
    """Raise DocumentError unless each of ``keys`` present in ``raw`` is a string."""
    for key in keys:
        if key in raw and not isinstance(raw[key], str):
            raise DocumentError(f"{key!r} must be a string", location=location)


def _check_probability(value, what: str, location: str):
    if not is_finite_number(value):
        raise DocumentError(f"{what} must be a number", location=location)
    if not 0.0 < value <= 1.0:
        raise DocumentError(f"{what} = {value} outside (0, 1]", location=location)


def load_codebook(document) -> Codebook:
    """Parse and validate a ``codebook/1`` document (JSON text or dict)."""
    doc = _parse_document(document, "codebook")
    if doc.get("schema") != CODEBOOK_SCHEMA:
        raise DocumentError(f"expected schema {CODEBOOK_SCHEMA!r}, got {doc.get('schema')!r}",
                            location="schema")
    for key in ("types", "symptoms", "root_causes", "propagation_rules"):
        if not isinstance(doc.get(key, []), list):
            raise DocumentError(f"{key!r} must be an array", location=key)

    types = []
    for i, raw in enumerate(doc.get("types", [])):
        loc = f"types[{i}]"
        if not isinstance(raw, dict) or "name" not in raw:
            raise DocumentError("type requires 'name'", location=loc)
        _check_strings(raw, ("name",), loc)
        attributes = raw.get("attributes", [])
        if not (isinstance(attributes, list) and all(isinstance(a, str) for a in attributes)):
            raise DocumentError("'attributes' must be a list of strings", location=loc)
        types.append(EntityTypeDef(type_name=raw["name"],
                                   attribute_decls=tuple(attributes)))

    symptoms = []
    for i, raw in enumerate(doc.get("symptoms", [])):
        loc = f"symptoms[{i}]"
        if not isinstance(raw, dict) or "name" not in raw or "applies_to" not in raw:
            raise DocumentError("symptom requires 'name' and 'applies_to'", location=loc)
        _check_strings(raw, ("name", "applies_to"), loc)
        act_raw = raw.get("activation", {"kind": "event"})
        if not isinstance(act_raw, dict) or "kind" not in act_raw:
            raise DocumentError("activation requires 'kind'", location=loc)
        if act_raw["kind"] == "threshold":
            activation = ActivationSpec(kind="threshold",
                                        attribute=act_raw.get("attribute"),
                                        comparator=act_raw.get("comparator"),
                                        threshold=act_raw.get("threshold"))
        else:
            activation = ActivationSpec(kind=act_raw["kind"])
        symptoms.append(SymptomDef(symptom_name=raw["name"],
                                   applies_to=raw["applies_to"], activation=activation))

    causes = []
    for i, raw in enumerate(doc.get("root_causes", [])):
        loc = f"root_causes[{i}]"
        if not isinstance(raw, dict) or "name" not in raw or "applies_to" not in raw:
            raise DocumentError("root cause requires 'name' and 'applies_to'", location=loc)
        _check_strings(raw, ("name", "applies_to"), loc)
        if not isinstance(raw.get("local_symptoms", []), list):
            raise DocumentError("'local_symptoms' must be an array", location=loc)
        local = []
        for j, assoc in enumerate(raw.get("local_symptoms", [])):
            if not isinstance(assoc, dict) or "symptom" not in assoc or "probability" not in assoc:
                raise DocumentError("local symptom requires 'symptom' and 'probability'",
                                    location=f"{loc}.local_symptoms[{j}]")
            _check_strings(assoc, ("symptom",), f"{loc}.local_symptoms[{j}]")
            local.append((assoc["symptom"], assoc["probability"]))
        causes.append(RootCauseDef(cause_name=raw["name"], applies_to=raw["applies_to"],
                                   local_symptoms=tuple(local),
                                   prior=raw.get("prior", DEFAULT_PRIOR)))

    rules = []
    for i, raw in enumerate(doc.get("propagation_rules", [])):
        loc = f"propagation_rules[{i}]"
        required = {"id", "from_symptom", "relation", "traversal", "to_symptom", "attenuation"}
        if not isinstance(raw, dict) or not required <= set(raw):
            raise DocumentError(f"rule requires {sorted(required)}", location=loc)
        _check_strings(raw, ("id", "from_symptom", "relation", "traversal", "to_symptom"), loc)
        rules.append(PropagationRule(rule_id=raw["id"], from_symptom=raw["from_symptom"],
                                     over_relation=raw["relation"], traversal=raw["traversal"],
                                     to_symptom=raw["to_symptom"],
                                     attenuation=raw["attenuation"]))

    return Codebook(tuple(types), tuple(causes), tuple(symptoms), tuple(rules),
                    version=str(doc.get("version", "0")))


def render_codebook(cb: Codebook) -> dict:
    """Inverse of load_codebook: load_codebook(render_codebook(cb)) == cb."""
    def activation_dict(act: ActivationSpec) -> dict:
        if act.kind == "threshold":
            return {"kind": "threshold", "attribute": act.attribute,
                    "comparator": act.comparator, "threshold": act.threshold}
        return {"kind": act.kind}

    return {
        "schema": CODEBOOK_SCHEMA,
        "version": cb.version,
        "types": [{"name": t.type_name, "attributes": list(t.attribute_decls)}
                  for t in cb.types],
        "symptoms": [{"name": s.symptom_name, "applies_to": s.applies_to,
                      "activation": activation_dict(s.activation)} for s in cb.symptoms],
        "root_causes": [{"name": c.cause_name, "applies_to": c.applies_to,
                         "prior": c.prior,
                         "local_symptoms": [{"symptom": n, "probability": p}
                                            for n, p in c.local_symptoms]}
                        for c in cb.root_causes],
        "propagation_rules": [{"id": r.rule_id, "from_symptom": r.from_symptom,
                               "relation": r.over_relation, "traversal": r.traversal,
                               "to_symptom": r.to_symptom, "attenuation": r.attenuation}
                              for r in cb.rules],
    }

