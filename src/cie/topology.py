"""Live entity/relationship model of a managed environment.

Entities are typed components (services, workloads, pods, ...) and relations
come in three kinds: ``conn`` (horizontal calls), ``layer`` (runs-atop, edge
points from the depending entity to the supporting one) and ``comp``
(containment, edge points from the container to the contained). Graphs are
immutable values: every mutation returns a new graph with a bumped revision,
so any reference held by a reader stays a consistent snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DocumentError, DuplicateIdError, UnknownIdError

RELATION_KINDS = ("conn", "layer", "comp")
DIRECTIONS = ("out", "in", "both")

ENV_SCHEMA = "env/1"


@dataclass(frozen=True)
class Entity:
    id: str
    name: str
    entity_type: str
    owner_team: str | None = None
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Relation:
    source: str
    target: str
    kind: str

    def __post_init__(self):
        if self.kind not in RELATION_KINDS:
            raise DocumentError(f"unknown relation kind {self.kind!r}")
        if self.source == self.target:
            raise DocumentError(f"self-relation on {self.source!r}")


class EntityGraph:
    """Immutable topology snapshot; mutators return new graphs.

    ``revision`` increases strictly on every mutation and never on reads,
    which lets the causality layer detect staleness cheaply.
    """

    def __init__(self, entities: dict[str, Entity] | None = None,
                 relations: frozenset[Relation] | None = None, revision: int = 0):
        self._entities: dict[str, Entity] = dict(entities or {})
        self._relations: frozenset[Relation] = frozenset(relations or ())
        self.revision = revision
        # Adjacency as sorted id tuples, keyed by (entity, kind), per direction.
        adjacency: dict[str, dict[tuple[str, str], list[str]]] = {"out": {}, "in": {}}
        for rel in self._relations:
            adjacency["out"].setdefault((rel.source, rel.kind), []).append(rel.target)
            adjacency["in"].setdefault((rel.target, rel.kind), []).append(rel.source)
        self._adjacency = {direction: {key: tuple(sorted(ids)) for key, ids in by_key.items()}
                           for direction, by_key in adjacency.items()}

    @classmethod
    def _derived(cls, entities: dict[str, Entity], relations: frozenset[Relation],
                 revision: int, adjacency: dict) -> EntityGraph:
        """A graph over structures a mutator built for it; nothing is copied
        or re-derived, so unchanged structures stay shared with the parent."""
        graph = cls.__new__(cls)
        graph._entities, graph._relations = entities, relations
        graph.revision, graph._adjacency = revision, adjacency
        return graph

    def _adjacency_after(self, added=(), removed=()) -> dict:
        """This graph's adjacency with relations added and removed. Only the
        (entity, kind) keys they touch are rebuilt and sorted again."""
        adjacency = {direction: dict(by_key) for direction, by_key in self._adjacency.items()}
        edited: dict[tuple[str, str, str], set[str]] = {}
        for relations, present in ((removed, False), (added, True)):
            for rel in relations:
                for direction, end, other in (("out", rel.source, rel.target),
                                              ("in", rel.target, rel.source)):
                    ids = edited.get((direction, end, rel.kind))
                    if ids is None:
                        ids = edited[(direction, end, rel.kind)] = set(
                            adjacency[direction].get((end, rel.kind), ()))
                    if present:
                        ids.add(other)
                    else:
                        ids.discard(other)
        for (direction, end, kind), ids in edited.items():
            if ids:
                adjacency[direction][(end, kind)] = tuple(sorted(ids))
            else:
                del adjacency[direction][(end, kind)]
        return adjacency

    # -- read surface -------------------------------------------------------

    @property
    def entities(self) -> dict[str, Entity]:
        return dict(self._entities)

    @property
    def relations(self) -> frozenset[Relation]:
        return self._relations

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise UnknownIdError(f"unknown entity {entity_id!r}") from None

    def entity_ids(self) -> set[str]:
        return set(self._entities)

    def neighbors(self, entity_id: str, kind: str = "all",
                  direction: str = "both") -> set[str]:
        """Entity ids one matching relation edge away."""
        if entity_id not in self._entities:
            raise UnknownIdError(f"unknown entity {entity_id!r}")
        if kind != "all" and kind not in RELATION_KINDS:
            raise DocumentError(f"unknown relation kind {kind!r}")
        if direction not in DIRECTIONS:
            raise DocumentError(f"unknown direction {direction!r}")
        kinds = RELATION_KINDS if kind == "all" else (kind,)
        found: set[str] = set()
        for d in (("out", "in") if direction == "both" else (direction,)):
            for k in kinds:
                found.update(self._adjacency[d].get((entity_id, k), ()))
        return found

    def adjacent(self, entity_id: str, kind: str, direction: str) -> tuple[str, ...]:
        """Sorted ids one ``kind`` edge away in ``direction`` ("out" or "in").
        Unchecked fast path for traversals over known ids."""
        return self._adjacency[direction].get((entity_id, kind), ())

    def scope(self, entity_ids: set[str]) -> EntityGraph:
        """Induced subgraph over ``entity_ids``; same revision (read-only op).
        Costs O(scoped ids and their edges), not O(graph)."""
        keep = set(entity_ids)
        missing = {eid for eid in keep if eid not in self._entities}
        if missing:
            raise UnknownIdError(f"unknown entities in scope: {sorted(missing)}")
        entities = {eid: self._entities[eid] for eid in keep}
        relations = frozenset(Relation(source, target, kind)
                              for source in keep for kind in RELATION_KINDS
                              for target in self.adjacent(source, kind, "out")
                              if target in keep)
        return EntityGraph(entities, relations, self.revision)

    def teams(self) -> set[str]:
        return {e.owner_team for e in self._entities.values() if e.owner_team}

    def entities_owned_by(self, team: str) -> set[str]:
        return {eid for eid, e in self._entities.items() if e.owner_team == team}

    # -- mutation surface ---------------------------------------------------

    def add_entity(self, entity: Entity) -> EntityGraph:
        if entity.id in self._entities:
            raise DuplicateIdError(f"duplicate entity id {entity.id!r}")
        entities = dict(self._entities)
        entities[entity.id] = entity
        return self._derived(entities, self._relations, self.revision + 1, self._adjacency)

    def remove_entity(self, entity_id: str) -> EntityGraph:
        if entity_id not in self._entities:
            raise UnknownIdError(f"unknown entity {entity_id!r}")
        entities = dict(self._entities)
        del entities[entity_id]
        removed = {Relation(entity_id, target, kind) for kind in RELATION_KINDS
                   for target in self.adjacent(entity_id, kind, "out")}
        removed.update(Relation(source, entity_id, kind) for kind in RELATION_KINDS
                       for source in self.adjacent(entity_id, kind, "in"))
        return self._derived(entities, self._relations - removed, self.revision + 1,
                             self._adjacency_after(removed=removed))

    def add_relation(self, relation: Relation) -> EntityGraph:
        for endpoint in (relation.source, relation.target):
            if endpoint not in self._entities:
                raise UnknownIdError(f"relation endpoint {endpoint!r} does not exist")
        if relation in self._relations:
            raise DuplicateIdError(
                f"duplicate relation ({relation.source}, {relation.target}, {relation.kind})")
        return self._derived(self._entities, self._relations | {relation}, self.revision + 1,
                             self._adjacency_after(added=(relation,)))

    def remove_relation(self, relation: Relation) -> EntityGraph:
        if relation not in self._relations:
            raise UnknownIdError(
                f"unknown relation ({relation.source}, {relation.target}, {relation.kind})")
        return self._derived(self._entities, self._relations - {relation}, self.revision + 1,
                             self._adjacency_after(removed=(relation,)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntityGraph):
            return NotImplemented
        return (self._entities == other._entities
                and self._relations == other._relations
                and self.revision == other.revision)

    def __repr__(self) -> str:
        return (f"EntityGraph(entities={len(self._entities)}, "
                f"relations={len(self._relations)}, revision={self.revision})")


def load_environment(document, codebook=None) -> EntityGraph:
    """Build an EntityGraph from an ``env/1`` document.

    ``document`` may be a JSON string/bytes or an already-parsed dict. When a
    codebook is given, entity types are validated against its type set
    eagerly; otherwise type validation happens at instantiation time.
    Returned graph has revision 0.
    """
    doc = _parse_document(document, "environment")
    if doc.get("schema") != ENV_SCHEMA:
        raise DocumentError(f"expected schema {ENV_SCHEMA!r}, got {doc.get('schema')!r}",
                            location="schema")
    for key in ("entities", "relations"):
        if not isinstance(doc.get(key, []), list):
            raise DocumentError(f"{key!r} must be an array", location=key)

    entities: dict[str, Entity] = {}
    for i, raw in enumerate(doc.get("entities", [])):
        loc = f"entities[{i}]"
        if not isinstance(raw, dict) or "id" not in raw or "type" not in raw:
            raise DocumentError("entity requires 'id' and 'type'", location=loc)
        eid = raw["id"]
        if eid in entities:
            raise DocumentError(f"duplicate entity id {eid!r}", location=loc)
        if codebook is not None and raw["type"] not in codebook.type_names():
            raise DocumentError(f"unknown entity_type {raw['type']!r} for {eid!r}",
                                location=loc)
        metadata = raw.get("metadata", {})
        if not (isinstance(metadata, dict)
                and all(isinstance(k, str) and isinstance(v, str)
                        for k, v in metadata.items())):
            raise DocumentError("metadata must map strings to strings", location=loc)
        entities[eid] = Entity(id=eid, name=raw.get("name", eid),
                               entity_type=raw["type"],
                               owner_team=raw.get("team"), metadata=metadata)

    relations: set[Relation] = set()
    for i, raw in enumerate(doc.get("relations", [])):
        loc = f"relations[{i}]"
        if not isinstance(raw, dict) or not {"source", "target", "kind"} <= set(raw):
            raise DocumentError("relation requires 'source', 'target', 'kind'", location=loc)
        for endpoint in (raw["source"], raw["target"]):
            if endpoint not in entities:
                raise DocumentError(
                    f"relation endpoint {endpoint!r} is not a declared entity", location=loc)
        try:
            rel = Relation(raw["source"], raw["target"], raw["kind"])
        except DocumentError as exc:
            raise DocumentError(str(exc), location=loc) from None
        if rel in relations:
            raise DocumentError(
                f"duplicate relation ({rel.source}, {rel.target}, {rel.kind})", location=loc)
        relations.add(rel)

    return EntityGraph(entities, frozenset(relations), revision=0)


def _parse_document(document, what: str) -> dict:
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"malformed {what} document: {exc}") from None
    if not isinstance(document, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    return document
