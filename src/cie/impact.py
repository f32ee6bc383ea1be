"""Impacted-entity sets, blast radius, owner teams, and remediation alignment.

The blast radius starts from the entities hosting a cause's effects and
extends them by calling the causality layer's rule closure
(``causality.rule_closure``) in fewest-hop order. The first, fewest-hop
derivation that reaches an entity, a walk ``(r1, e1, ..., rk, ek)`` from the
cause's host, is its propagation path, kept only as ``via``, the compact
form the tool service sends; remediation decodes the one chain it cites
from it. A proposed action is causally aligned
only when it targets the cause's host or the host's layer/comp stack;
fixing a caller never removes a callee's defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .causality import DEFAULT_MAX_DEPTH, CausalityGraph, rule_closure
from .errors import UnknownIdError
from .knowledge_base import Codebook
from .topology import HOSTING_KINDS, EntityGraph


@dataclass
class BlastRadius:
    cause: str
    direct_entities: frozenset[str]
    transitive_entities: frozenset[str]
    impacted_teams: frozenset[str]
    truncations: tuple[str, ...] = ()
    # One propagation path in effect direction for each entity but the host:
    # (from_entity, rule_id) when its path is from_entity's path plus one hop,
    # else the whole chain (e0, r1, e1, ..., e_{k-1}, r_k), e0 the host.
    via: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def chain(self, entity: str) -> tuple[str, ...]:
        """The entities on ``entity``'s path, from the host to ``entity``."""
        tail = [entity]
        entry = self.via.get(entity)
        while entry is not None and len(entry) == 2:
            tail.append(entry[0])
            entry = self.via.get(entry[0])
        return tuple(entry[0::2] if entry else ()) + tuple(reversed(tail))


@dataclass
class RemediationVerdict:
    aligned: bool
    rationale: str
    path: tuple[str, ...] = field(default_factory=tuple)  # entity chain host -> target


def impacted_entities(cg: CausalityGraph, cause_id: str) -> set[str]:
    """Hosts of every symptom the cause can express, plus the cause's host."""
    cause = cg.cause(cause_id)
    hosts = {cg.symptoms[sid].host_entity for sid in cg.effects(cause_id)}
    hosts.add(cause.host_entity)
    return hosts


def owner_teams(topology: EntityGraph, entity_ids) -> frozenset[str]:
    """The owner teams of those of ``entity_ids`` the topology holds."""
    return frozenset(
        t for t in (topology.entity(eid).owner_team for eid in entity_ids if eid in topology)
        if t)


def blast_radius(topology: EntityGraph, cg: CausalityGraph, cb: Codebook,
                 cause_id: str, max_depth: int = DEFAULT_MAX_DEPTH) -> BlastRadius:
    """Transitive impact of a cause after rule propagation over the topology.

    Each effect symptom re-expands with a fresh depth budget, so the radius
    is the rule-closure fixpoint of the compiled effects (states settle at
    their minimal hop count; ``via`` records the first, fewest-hop chain).
    """
    host = cg.cause(cause_id).host_entity
    direct = frozenset(impacted_entities(cg, cause_id))

    effects = sorted(cg.edges_from(cause_id), key=lambda e: (len(e.derivation), e.symptom_id))
    settled, truncated = rule_closure(
        topology, cb, cg.entity_types,
        [(cg.symptoms[e.symptom_id].symptom_name, cg.symptoms[e.symptom_id].host_entity,
          e.derivation) for e in effects],
        max_depth, by_probability=False)
    kept: dict[str, tuple] = {host: ()}
    for (_, ent), (_, derivation) in settled.items():
        kept.setdefault(ent, derivation)
    via = {}
    for ent, walk in kept.items():
        if not walk:
            continue
        pred = walk[-3] if len(walk) > 2 else host
        if kept.get(pred) == walk[:-2]:
            via[ent] = (pred, walk[-2])
        else:
            via[ent] = (host,) + walk[:-1]
    truncations = {f"depth limit {max_depth} reached at {sym}@{ent}" for sym, ent in truncated}
    return BlastRadius(cause=cause_id, direct_entities=direct,
                       transitive_entities=frozenset(kept),
                       impacted_teams=owner_teams(topology, kept),
                       truncations=tuple(sorted(truncations)), via=via)


def remediation_alignment(topology: EntityGraph, cg: CausalityGraph, br: BlastRadius,
                          action_target: str) -> RemediationVerdict:
    """Is an action at ``action_target`` directed at the failure source?

    Aligned when the target is the cause's host or sits in the host's
    layer/comp stack. Anything else (callers, downstream victims) gets a
    rationale citing the propagation path: acting there may suppress
    symptoms without resolving the defect.
    """
    if action_target not in topology:
        raise UnknownIdError(f"unknown entity {action_target!r}")
    host = cg.cause(br.cause).host_entity
    topology.entity(host)  # a host missing from the topology raises UnknownIdError

    # Hosting stack: entities reachable from the host via layer/comp edges.
    stack_parent: dict[str, str] = {}
    frontier = [host]
    stack = {host}
    while frontier:
        current = frontier.pop()
        for kind in HOSTING_KINDS:
            for nbr in topology.adjacent(current, kind, "out"):
                if nbr not in stack:
                    stack.add(nbr)
                    stack_parent[nbr] = current
                    frontier.append(nbr)

    if action_target in stack:
        chain = [action_target]
        while chain[-1] != host:
            chain.append(stack_parent[chain[-1]])
        chain.reverse()
        where = "the failure source" if action_target == host else "its hosting stack"
        return RemediationVerdict(aligned=True,
                                  rationale=f"targets {where}: {' -> '.join(chain)}",
                                  path=tuple(chain))

    if action_target in br.transitive_entities:
        chain = br.chain(action_target)
        return RemediationVerdict(
            aligned=False,
            rationale=(f"{action_target} is a downstream effect of {host} "
                       f"(propagation {' -> '.join(chain)}); acting there may suppress "
                       "symptoms without resolving the underlying defect"),
            path=chain)

    return RemediationVerdict(
        aligned=False,
        rationale=(f"{action_target} is outside the blast radius of {br.cause}; "
                   f"the failure source is hosted on {host}"),
        path=(host,))
