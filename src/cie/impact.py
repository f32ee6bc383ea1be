"""Impacted-entity sets, blast radius, ownership, and remediation alignment.

The blast radius starts from the entities hosting a cause's effects and
extends them by calling the causality layer's rule closure
(``causality.rule_closure``) in fewest-hop order; one shortest propagation
path is recorded per reached entity, and also compacted into ``via``, the
form the tool service sends. A proposed action is causally aligned
only when it targets the cause's host or the host's layer/comp stack;
fixing a caller never removes a callee's defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .causality import DEFAULT_MAX_DEPTH, CausalityGraph, rule_closure
from .errors import UnknownIdError
from .knowledge_base import Codebook
from .topology import EntityGraph


@dataclass(frozen=True)
class ImpactHop:
    """One propagation step in effect direction (from_entity suffers first)."""

    rule_id: str
    from_entity: str
    to_entity: str
    kind: str


@dataclass
class BlastRadius:
    cause: str
    direct_entities: frozenset[str]
    transitive_entities: frozenset[str]
    paths: dict[str, tuple[ImpactHop, ...]]
    impacted_teams: frozenset[str]
    direct_teams: frozenset[str]
    truncations: tuple[str, ...] = ()
    # The paths, compacted for the wire: for each entity but the host,
    # (from_entity, rule_id) when its path is from_entity's path plus one hop,
    # else the whole chain (e0, r1, e1, ..., e_{k-1}, r_k).
    via: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class RemediationVerdict:
    action_target: str
    aligned: bool
    rationale: str
    path: tuple[str, ...] = field(default_factory=tuple)  # entity chain host -> target


def impacted_entities(cg: CausalityGraph, cause_id: str) -> set[str]:
    """Hosts of every symptom the cause can express, plus the cause's host."""
    cause = cg.cause(cause_id)
    hosts = {cg.symptoms[sid].host_entity for sid in cg.effects(cause_id)}
    hosts.add(cause.host_entity)
    return hosts


def derivation_to_impact_hops(derivation, cb: Codebook) -> tuple[ImpactHop, ...]:
    """Re-orient stored relation hops into effect direction using each rule's
    traversal: forward rules flow source->target, reverse rules the opposite."""
    rules = cb.rules_by_id
    hops = []
    for hop in derivation:
        if rules[hop.rule_id].traversal == "forward":
            hops.append(ImpactHop(hop.rule_id, hop.source, hop.target, hop.kind))
        else:
            hops.append(ImpactHop(hop.rule_id, hop.target, hop.source, hop.kind))
    return tuple(hops)


def blast_radius(topology: EntityGraph, cg: CausalityGraph, cb: Codebook,
                 cause_id: str, max_depth: int | None = None) -> BlastRadius:
    """Transitive impact of a cause after rule propagation over the topology.

    Each effect symptom re-expands with a fresh depth budget, so the radius
    is the rule-closure fixpoint of the compiled effects (states settle at
    their minimal hop count; paths record the first, fewest-hop chain).
    """
    if max_depth is None:
        max_depth = DEFAULT_MAX_DEPTH
    cause = cg.cause(cause_id)
    direct = frozenset(impacted_entities(cg, cause_id))

    effects = sorted(cg.edges_from(cause_id), key=lambda e: (len(e.derivation), e.symptom_id))
    settled, truncated = rule_closure(
        topology, cb, cg.entity_types,
        [(cg.symptoms[e.symptom_id].symptom_name, cg.symptoms[e.symptom_id].host_entity,
          e.derivation) for e in effects],
        max_depth, by_probability=False)
    kept: dict[str, tuple] = {cause.host_entity: ()}
    for (_, ent), (_, derivation) in settled.items():
        kept.setdefault(ent, derivation)
    paths = {ent: derivation_to_impact_hops(derivation, cb)
             for ent, derivation in kept.items()}
    via = {}
    for ent, hops in paths.items():
        if not hops:
            continue
        last = hops[-1]
        # Child derivations share their parent's hop objects, so this tuple
        # comparison mostly settles on identity.
        if kept.get(last.from_entity) == kept[ent][:-1]:
            via[ent] = (last.from_entity, last.rule_id)
        else:
            via[ent] = tuple(x for h in hops for x in (h.from_entity, h.rule_id))
    truncations = {f"depth limit {max_depth} reached at {sym}@{ent}" for sym, ent in truncated}

    transitive = frozenset(paths)
    impacted_teams = frozenset(
        t for t in (topology.entity(eid).owner_team for eid in transitive if eid in topology)
        if t)
    direct_teams = frozenset(
        t for t in (topology.entity(eid).owner_team for eid in direct if eid in topology)
        if t)
    return BlastRadius(cause=cause_id, direct_entities=direct,
                       transitive_entities=transitive, paths=paths,
                       impacted_teams=impacted_teams, direct_teams=direct_teams,
                       truncations=tuple(sorted(truncations)), via=via)


def ownership_check(br: BlastRadius, team: str) -> bool:
    """Does the team own any directly impacted entity?"""
    return team in br.direct_teams


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
        for kind in ("layer", "comp"):
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
        return RemediationVerdict(action_target=action_target, aligned=True,
                                  rationale=f"targets {where}: {' -> '.join(chain)}",
                                  path=tuple(chain))

    hops = br.paths.get(action_target)
    if hops is not None:
        chain = (host,) + tuple(h.to_entity for h in hops) if hops else (host,)
        if hops:
            described = " -> ".join([hops[0].from_entity] + [h.to_entity for h in hops])
        else:
            described = action_target
        return RemediationVerdict(
            action_target=action_target, aligned=False,
            rationale=(f"{action_target} is a downstream effect of {host} "
                       f"(propagation {described}); acting there may suppress "
                       "symptoms without resolving the underlying defect"),
            path=chain)

    return RemediationVerdict(
        action_target=action_target, aligned=False,
        rationale=(f"{action_target} is outside the blast radius of {br.cause}; "
                   f"the failure source is hosted on {host}"),
        path=(host,))
