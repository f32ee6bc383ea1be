"""Live entity/relationship model of a managed environment.

Entities are typed components (services, workloads, pods, ...) and relations
come in three kinds: ``conn`` (horizontal calls), ``layer`` (runs-atop, edge
points from the depending entity to the supporting one) and ``comp``
(containment, edge points from the container to the contained). Graphs are
immutable values: every mutation returns a new graph with a bumped revision,
so any reference held by a reader stays a consistent snapshot. A graph
stores its relations once, as the sorted adjacency every traversal reads;
the ``Relation`` set is derived from it on first read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DocumentError, DuplicateIdError, UnknownIdError

RELATION_KINDS = ("conn", "layer", "comp")
HOSTING_KINDS = ("layer", "comp")  # the hosting stack: runs atop, contains

ENV_SCHEMA = "env/1"


@dataclass(frozen=True, slots=True)
class Entity:
    id: str
    name: str
    entity_type: str
    owner_team: str | None = None
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
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

    Relations live in one store, the adjacency (per direction, the sorted ids
    one edge away by (entity, kind)); ``relations`` is derived on first read.
    ``revision`` increases strictly on every mutation and never on reads,
    which lets the causality layer detect staleness cheaply.
    """

    def __init__(self, entities: dict[str, Entity] | None = None,
                 relations: frozenset[Relation] | None = None, revision: int = 0):
        self._entities: dict[str, Entity] = dict(entities or {})
        self._adjacency = _index((r.source, r.target, r.kind) for r in relations or ())
        self.revision = revision

    @classmethod
    def _derived(cls, entities: dict[str, Entity], revision: int, adjacency: dict) -> EntityGraph:
        """A graph over structures a mutator built for it; nothing is copied
        or re-derived, so unchanged structures stay shared with the parent."""
        graph = cls.__new__(cls)
        graph._entities, graph.revision, graph._adjacency = entities, revision, adjacency
        return graph

    def _adjacency_after(self, added=(), removed=()) -> dict:
        """This graph's adjacency with (source, target, kind) relations added
        and removed; only the (entity, kind) keys they touch are sorted again."""
        adjacency = {direction: dict(by_key) for direction, by_key in self._adjacency.items()}
        edited: dict[tuple[str, str, str], set[str]] = {}
        for relations, edit in ((removed, set.discard), (added, set.add)):
            for source, target, kind in relations:
                for direction, end, other in (("out", source, target), ("in", target, source)):
                    key = (direction, end, kind)
                    if key not in edited:
                        edited[key] = set(adjacency[direction].get((end, kind), ()))
                    edit(edited[key], other)
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

    @cached_property
    def relations(self) -> frozenset[Relation]:
        return frozenset(Relation(source, target, kind)
                         for (source, kind), targets in self._adjacency["out"].items()
                         for target in targets)

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
        return self._derived(entities, self.revision, _index(
            (source, target, kind) for source in keep for kind in RELATION_KINDS
            for target in self.adjacent(source, kind, "out") if target in keep))

    def teams(self) -> set[str]:
        return {e.owner_team for e in self._entities.values() if e.owner_team}

    # -- mutation surface ---------------------------------------------------

    def add_entity(self, entity: Entity) -> EntityGraph:
        if entity.id in self._entities:
            raise DuplicateIdError(f"duplicate entity id {entity.id!r}")
        entities = dict(self._entities)
        entities[entity.id] = entity
        return self._derived(entities, self.revision + 1, self._adjacency)

    def remove_entity(self, entity_id: str) -> EntityGraph:
        if entity_id not in self._entities:
            raise UnknownIdError(f"unknown entity {entity_id!r}")
        entities = dict(self._entities)
        del entities[entity_id]
        removed = [(entity_id, target, kind) for kind in RELATION_KINDS
                   for target in self.adjacent(entity_id, kind, "out")]
        removed += [(source, entity_id, kind) for kind in RELATION_KINDS
                    for source in self.adjacent(entity_id, kind, "in")]
        return self._derived(entities, self.revision + 1, self._adjacency_after(removed=removed))

    def add_relation(self, relation: Relation) -> EntityGraph:
        for endpoint in (relation.source, relation.target):
            if endpoint not in self._entities:
                raise UnknownIdError(f"relation endpoint {endpoint!r} does not exist")
        source, target, kind = relation.source, relation.target, relation.kind
        if target in self.adjacent(source, kind, "out"):
            raise DuplicateIdError(f"duplicate relation ({source}, {target}, {kind})")
        return self._derived(self._entities, self.revision + 1,
                             self._adjacency_after(added=((source, target, kind),)))

    def remove_relation(self, relation: Relation) -> EntityGraph:
        source, target, kind = relation.source, relation.target, relation.kind
        if target not in self.adjacent(source, kind, "out"):
            raise UnknownIdError(f"unknown relation ({source}, {target}, {kind})")
        return self._derived(self._entities, self.revision + 1,
                             self._adjacency_after(removed=((source, target, kind),)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntityGraph):
            return NotImplemented
        return (self._entities == other._entities
                and self._adjacency["out"] == other._adjacency["out"]
                and self.revision == other.revision)

    def __repr__(self) -> str:
        return (f"EntityGraph(entities={len(self._entities)}, "
                f"relations={sum(map(len, self._adjacency['out'].values()))}, "
                f"revision={self.revision})")


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

    type_names = codebook.type_names() if codebook is not None else None
    entities: dict[str, Entity] = {}
    for i, raw in enumerate(doc.get("entities", [])):
        try:
            if not isinstance(raw, dict) or "id" not in raw or "type" not in raw:
                raise DocumentError("entity requires 'id' and 'type'")
            eid, etype, team = raw["id"], raw["type"], raw.get("team")
            name = raw.get("name", eid)
            if not (isinstance(eid, str) and isinstance(etype, str) and isinstance(name, str)
                    and (team is None or isinstance(team, str))):
                raise DocumentError("'id', 'type', 'name' and 'team' must be strings "
                                    "('team' may be null)")
            if eid in entities:
                raise DocumentError(f"duplicate entity id {eid!r}")
            if type_names is not None and etype not in type_names:
                raise DocumentError(f"unknown entity_type {etype!r} for {eid!r}")
            metadata = raw.get("metadata", {})
            if not (isinstance(metadata, dict)
                    and all(isinstance(k, str) and isinstance(v, str)
                            for k, v in metadata.items())):
                raise DocumentError("metadata must map strings to strings")
        except DocumentError as exc:
            raise DocumentError(str(exc), location=f"entities[{i}]") from None
        entities[eid] = Entity(id=eid, name=name, entity_type=etype, owner_team=team,
                               metadata=metadata)

    relations: set[tuple[str, str, str]] = set()
    for i, raw in enumerate(doc.get("relations", [])):
        try:
            if not isinstance(raw, dict) or not {"source", "target", "kind"} <= raw.keys():
                raise DocumentError("relation requires 'source', 'target', 'kind'")
            source, target, kind = rel = raw["source"], raw["target"], raw["kind"]
            for endpoint in (source, target):
                if not isinstance(endpoint, str) or endpoint not in entities:
                    raise DocumentError(
                        f"relation endpoint {endpoint!r} is not a declared entity")
            if kind not in RELATION_KINDS or source == target:
                Relation(source, target, kind)  # raises the message for either fault
            if rel in relations:
                raise DocumentError(f"duplicate relation ({source}, {target}, {kind})")
        except DocumentError as exc:
            raise DocumentError(str(exc), location=f"relations[{i}]") from None
        relations.add(rel)

    return EntityGraph._derived(entities, 0, _index(relations))


def _index(relations) -> dict:
    """The adjacency of (source, target, kind) relations: per direction, the
    sorted ids one edge away keyed by (entity, kind)."""
    out, into = {}, {}
    for source, target, kind in relations:
        out.setdefault((source, kind), []).append(target)
        into.setdefault((target, kind), []).append(source)
    return {direction: {key: tuple(sorted(ids)) for key, ids in by_key.items()}
            for direction, by_key in (("out", out), ("in", into))}


def _parse_document(document, what: str) -> dict:
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"malformed {what} document: {exc}") from None
    if not isinstance(document, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    return document
