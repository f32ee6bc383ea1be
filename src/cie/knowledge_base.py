"""Environment-agnostic codebook of failure knowledge.

The codebook declares entity types, the root causes and symptoms that can
exist per type, symptom activation predicates, and propagation rules that
carry a symptom across one topology relation hop with a multiplicative
attenuation. It is validated eagerly at load and immutable afterwards.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DocumentError, parse_document, walk
from .topology import RELATION_KINDS

CODEBOOK_SCHEMA = "codebook/1"
TRAVERSALS = ("forward", "reverse")
COMPARATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
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
        return self.kind == "threshold" and COMPARATORS[self.comparator](value, self.threshold)


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
        self._causes_by_name: dict[str, RootCauseDef] = {}
        self.rules_by_id: dict[str, PropagationRule] = {}
        self._validate()
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
        types, symptoms = self._types_by_name, self._symptoms_by_name
        causes, rules = self._causes_by_name, self.rules_by_id

        def check_type(t: EntityTypeDef):
            _check_strings(name=t.type_name)
            if not all(isinstance(a, str) for a in t.attribute_decls):
                raise DocumentError("'attributes' must be a list of strings")
            if t.type_name in types:
                raise DocumentError(f"duplicate type {t.type_name!r}")
            if len(set(t.attribute_decls)) != len(t.attribute_decls):
                raise DocumentError("duplicate attribute declaration")
            types[t.type_name] = t

        def check_symptom(s: SymptomDef):
            _check_strings(name=s.symptom_name, applies_to=s.applies_to)
            if s.symptom_name in symptoms:
                raise DocumentError(f"duplicate symptom {s.symptom_name!r}")
            symptoms[s.symptom_name] = s
            if s.applies_to not in types:
                raise DocumentError(f"unknown type {s.applies_to!r}")
            act = s.activation
            if act.kind == "threshold":
                if act.attribute not in types[s.applies_to].attribute_decls:
                    raise DocumentError(
                        f"threshold references attribute {act.attribute!r} not declared "
                        f"on type {s.applies_to!r}")
                if not isinstance(act.comparator, str) or act.comparator not in COMPARATORS:
                    raise DocumentError(f"unknown comparator {act.comparator!r}")
                if not is_finite_number(act.threshold):
                    raise DocumentError("threshold must be a finite number")
            elif act.kind != "event":
                raise DocumentError(f"unknown activation kind {act.kind!r}")

        def check_cause(c: RootCauseDef):
            _check_strings(name=c.cause_name, applies_to=c.applies_to)
            if c.cause_name in causes:
                raise DocumentError(f"duplicate root cause {c.cause_name!r}")
            causes[c.cause_name] = c
            if c.applies_to not in types:
                raise DocumentError(f"unknown type {c.applies_to!r}")
            _check_probability(c.prior, "prior")

            def check_local(assoc: tuple[str, float]):
                name, prob = assoc
                _check_strings(symptom=name)
                sdef = symptoms.get(name)
                if sdef is None:
                    raise DocumentError(f"unknown symptom {name!r}")
                if sdef.applies_to != c.applies_to:
                    raise DocumentError(
                        f"local symptom {name!r} applies to {sdef.applies_to!r}, "
                        f"not to the cause's type {c.applies_to!r}")
                _check_probability(prob, f"P({name}|{c.cause_name})")

            walk(check_local, c.local_symptoms, "local_symptoms")

        def check_rule(r: PropagationRule):
            _check_strings(id=r.rule_id, from_symptom=r.from_symptom, relation=r.over_relation,
                           traversal=r.traversal, to_symptom=r.to_symptom)
            if r.rule_id in rules:
                raise DocumentError(f"duplicate rule id {r.rule_id!r}")
            rules[r.rule_id] = r
            for name in (r.from_symptom, r.to_symptom):
                if name not in symptoms:
                    raise DocumentError(f"unknown symptom {name!r}")
            if r.over_relation not in RELATION_KINDS:
                raise DocumentError(f"unknown relation kind {r.over_relation!r}")
            if r.traversal not in TRAVERSALS:
                raise DocumentError(f"unknown traversal {r.traversal!r}")
            _check_probability(r.attenuation, "attenuation")

        walk(check_type, self.types, "types")
        walk(check_symptom, self.symptoms, "symptoms")
        walk(check_cause, self.root_causes, "root_causes")
        walk(check_rule, self.rules, "propagation_rules")

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


def _check_strings(**fields):
    """Raise DocumentError unless each field, named as in a document, is a string."""
    for key, value in fields.items():
        if not isinstance(value, str):
            raise DocumentError(f"{key!r} must be a string")


def _check_probability(value, what: str):
    if not is_finite_number(value):
        raise DocumentError(f"{what} must be a number")
    if not 0.0 < value <= 1.0:
        raise DocumentError(f"{what} = {value} outside (0, 1]")


def load_codebook(document) -> Codebook:
    """Parse and validate a ``codebook/1`` document (JSON text or dict)."""
    doc = parse_document(document, "codebook", CODEBOOK_SCHEMA)

    def parse_type(raw) -> EntityTypeDef:
        if not isinstance(raw, dict) or "name" not in raw:
            raise DocumentError("type requires 'name'")
        attributes = raw.get("attributes", [])
        if not isinstance(attributes, list):
            raise DocumentError("'attributes' must be a list of strings")
        return EntityTypeDef(type_name=raw["name"], attribute_decls=tuple(attributes))

    def parse_symptom(raw) -> SymptomDef:
        if not isinstance(raw, dict) or "name" not in raw or "applies_to" not in raw:
            raise DocumentError("symptom requires 'name' and 'applies_to'")
        act = raw.get("activation", {"kind": "event"})
        if not isinstance(act, dict) or "kind" not in act:
            raise DocumentError("activation requires 'kind'")
        fields = ("attribute", "comparator", "threshold") if act["kind"] == "threshold" else ()
        return SymptomDef(symptom_name=raw["name"], applies_to=raw["applies_to"],
                          activation=ActivationSpec(act["kind"], *map(act.get, fields)))

    def parse_local_symptom(raw) -> tuple:
        if not isinstance(raw, dict) or "symptom" not in raw or "probability" not in raw:
            raise DocumentError("local symptom requires 'symptom' and 'probability'")
        return raw["symptom"], raw["probability"]

    def parse_cause(raw) -> RootCauseDef:
        if not isinstance(raw, dict) or "name" not in raw or "applies_to" not in raw:
            raise DocumentError("root cause requires 'name' and 'applies_to'")
        local = walk(parse_local_symptom, raw.get("local_symptoms", []), "local_symptoms")
        return RootCauseDef(cause_name=raw["name"], applies_to=raw["applies_to"],
                            local_symptoms=tuple(local), prior=raw.get("prior", DEFAULT_PRIOR))

    def parse_rule(raw) -> PropagationRule:
        required = {"id", "from_symptom", "relation", "traversal", "to_symptom", "attenuation"}
        if not isinstance(raw, dict) or not required <= set(raw):
            raise DocumentError(f"rule requires {sorted(required)}")
        return PropagationRule(rule_id=raw["id"], from_symptom=raw["from_symptom"],
                               over_relation=raw["relation"], traversal=raw["traversal"],
                               to_symptom=raw["to_symptom"], attenuation=raw["attenuation"])

    types = tuple(walk(parse_type, doc.get("types", []), "types"))
    symptoms = tuple(walk(parse_symptom, doc.get("symptoms", []), "symptoms"))
    causes = tuple(walk(parse_cause, doc.get("root_causes", []), "root_causes"))
    rules = tuple(walk(parse_rule, doc.get("propagation_rules", []), "propagation_rules"))
    return Codebook(types, causes, symptoms, rules, version=str(doc.get("version", "0")))
