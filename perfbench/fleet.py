"""Seeded synthetic fleet: ``env/1`` and ``codebook/1`` documents plus telemetry.

A fleet is a service call DAG (frontends on level 0, backends below) that is
deeper than the engine's default propagation depth, so instantiation records
truncations. Every service runs atop one workload, every workload contains a
fixed number of pods, and every pod runs atop one node. Entity counts and the
number of extra call edges are fixed by ``services``; the seed only chooses
who calls whom, which node hosts which pod and which entities are faulty, so
every seed gives a fleet of the same size and shape.

Everything here is pure data generation: the engine is handed the rendered
documents, the observations and the mutations, and nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from cie.inference import Observation
from cie.topology import Entity, Relation

LEVELS = 12  # deeper than causality.DEFAULT_MAX_DEPTH (8)
FRONTENDS = 8
EXTRA_CALL_SHARE = 0.15  # share of backends that get a second caller
THREE_POD_SHARE = 0.5  # the rest of the workloads hold two pods
SERVICES_PER_NODE = 20
TEAMS = 12

# Healthy sampling ranges per attribute; every one stays clear of the
# codebook thresholds below, so background telemetry activates nothing.
HEALTHY = {
    "error_rate": (0.0, 0.02),
    "latency_ms": (40.0, 400.0),
    "request_rate": (50.0, 900.0),
    "queue_depth": (0.0, 300.0),
    "cpu_utilization": (0.05, 0.7),
    "replicas_ready": (0.8, 1.0),
    "restart_count": (0.0, 2.0),
    "memory_utilization": (0.2, 0.8),
}

TYPE_ATTRIBUTES = {
    "frontend": ("error_rate", "latency_ms", "request_rate"),
    "backend": ("error_rate", "latency_ms", "queue_depth"),
    "workload": ("cpu_utilization", "replicas_ready"),
    "pod": ("restart_count", "memory_utilization"),
    "node": ("cpu_utilization", "memory_utilization"),
}


def _threshold(name, applies_to, attribute, comparator, threshold):
    return {"name": name, "applies_to": applies_to,
            "activation": {"kind": "threshold", "attribute": attribute,
                           "comparator": comparator, "threshold": threshold}}


def _rule(rule_id, source, relation, traversal, target, attenuation):
    return {"id": rule_id, "from_symptom": source, "relation": relation,
            "traversal": traversal, "to_symptom": target, "attenuation": attenuation}


def codebook_document() -> dict:
    """The fleet codebook: five types, reverse and forward ``conn`` rules,
    and ``layer``/``comp`` rules that lift node and pod trouble to services."""
    def cause(name, applies_to, *local):
        return {"name": name, "applies_to": applies_to, "prior": 0.01,
                "local_symptoms": [{"symptom": s, "probability": p} for s, p in local]}

    return {
        "schema": "codebook/1",
        "version": "fleet-1",
        "types": [{"name": t, "attributes": list(a)} for t, a in TYPE_ATTRIBUTES.items()],
        "symptoms": [
            _threshold("fe_errors", "frontend", "error_rate", ">", 0.05),
            _threshold("fe_latency", "frontend", "latency_ms", ">", 800.0),
            _threshold("fe_request_flood", "frontend", "request_rate", ">", 5000.0),
            _threshold("be_errors", "backend", "error_rate", ">", 0.05),
            _threshold("be_latency", "backend", "latency_ms", ">", 800.0),
            _threshold("be_backlog", "backend", "queue_depth", ">", 1000.0),
            _threshold("wl_cpu_saturation", "workload", "cpu_utilization", ">", 0.9),
            _threshold("wl_replicas_down", "workload", "replicas_ready", "<", 0.5),
            _threshold("pod_restarts", "pod", "restart_count", ">", 3.0),
            _threshold("node_memory_pressure", "node", "memory_utilization", ">", 0.95),
            {"name": "node_not_ready", "applies_to": "node",
             "activation": {"kind": "event"}},
        ],
        "root_causes": [
            cause("code_defect", "backend", ("be_errors", 0.9), ("be_latency", 0.2)),
            cause("frontend_defect", "frontend", ("fe_errors", 0.9)),
            cause("traffic_surge", "frontend", ("fe_request_flood", 0.7), ("fe_latency", 0.5)),
            cause("misconfiguration", "workload", ("wl_cpu_saturation", 0.8)),
            cause("crashloop", "pod", ("pod_restarts", 0.9)),
            cause("node_failure", "node", ("node_memory_pressure", 0.8),
                  ("node_not_ready", 0.5)),
        ],
        "propagation_rules": [
            _rule("be-errors-up", "be_errors", "conn", "reverse", "be_errors", 0.7),
            _rule("be-errors-fe", "be_errors", "conn", "reverse", "fe_errors", 0.7),
            _rule("be-latency-up", "be_latency", "conn", "reverse", "be_latency", 0.6),
            _rule("be-latency-fe", "be_latency", "conn", "reverse", "fe_latency", 0.6),
            _rule("fe-backlog-down", "fe_request_flood", "conn", "forward", "be_backlog", 0.4),
            _rule("be-backlog-down", "be_backlog", "conn", "forward", "be_backlog", 0.5),
            _rule("wl-cpu-be", "wl_cpu_saturation", "layer", "reverse", "be_latency", 0.6),
            _rule("wl-cpu-fe", "wl_cpu_saturation", "layer", "reverse", "fe_latency", 0.6),
            _rule("wl-replicas-be", "wl_replicas_down", "layer", "reverse", "be_errors", 0.5),
            _rule("wl-replicas-fe", "wl_replicas_down", "layer", "reverse", "fe_errors", 0.5),
            _rule("pod-wl", "pod_restarts", "comp", "reverse", "wl_replicas_down", 0.7),
            _rule("node-pod", "node_memory_pressure", "layer", "reverse", "pod_restarts", 0.8),
        ],
    }


@dataclass
class Fleet:
    """A generated fleet and the client-side knowledge of its shape."""

    entities: dict[str, dict]  # id -> env/1 entity record
    relations: list[tuple[str, str, str]]  # (source, target, kind)
    levels: list[list[str]]  # service ids per call-DAG level
    pods: dict[str, list[str]]  # workload id -> its pod ids
    nodes: list[str]
    faults: list[str] = field(default_factory=list)  # seeded root cause ids
    fault_samples: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def services(self) -> list[str]:
        return [s for level in self.levels for s in level]

    def env_document(self) -> dict:
        return {"schema": "env/1",
                "entities": [self.entities[e] for e in sorted(self.entities)],
                "relations": [{"source": s, "target": t, "kind": k}
                              for s, t, k in sorted(self.relations)]}

    def documents(self) -> tuple[str, str]:
        """(env/1 text, codebook/1 text) as the engine loads them."""
        return (json.dumps(self.env_document(), sort_keys=True),
                json.dumps(codebook_document(), sort_keys=True))

    def entity_type(self, eid: str) -> str:
        return self.entities[eid]["type"]


def workload_of(service: str) -> str:
    return "wl" + service[3:]


def generate(seed: int, services: int) -> Fleet:
    """A fleet of ``services`` services (about 4.5 entities each)."""
    rng = random.Random(seed)
    per_level = _level_sizes(services)
    levels: list[list[str]] = []
    n = 0
    for size in per_level:
        levels.append([f"svc-{n + i:05d}" for i in range(size)])
        n += size
    nodes = [f"node-{i:03d}" for i in range(max(1, services // SERVICES_PER_NODE))]

    entities: dict[str, dict] = {}
    relations: list[tuple[str, str, str]] = []
    pods: dict[str, list[str]] = {}
    three_pod = set(rng.sample(range(services), int(services * THREE_POD_SHARE)))
    team_of: dict[str, str] = {}
    for depth, level in enumerate(levels):
        for svc in level:
            if depth == 0:
                team_of[svc] = f"team-{int(svc[4:]) % TEAMS:02d}"
            else:
                caller = rng.choice(levels[depth - 1])
                team_of[svc] = team_of[caller] if rng.random() < 0.7 else \
                    f"team-{rng.randrange(TEAMS):02d}"
                relations.append((caller, svc, "conn"))
            entities[svc] = {"id": svc, "name": svc, "team": team_of[svc],
                             "type": "frontend" if depth == 0 else "backend"}
    extra_targets = rng.sample([s for level in levels[2:] for s in level],
                               int(services * EXTRA_CALL_SHARE))
    depth_of = {s: d for d, level in enumerate(levels) for s in level}
    for svc in sorted(extra_targets):
        existing = {s for s, t, _ in relations if t == svc}
        choices = [c for c in levels[rng.randrange(depth_of[svc] - 1)] if c not in existing]
        relations.append((rng.choice(choices), svc, "conn"))

    # Pods are dealt to nodes round-robin over a shuffled order, so every
    # node hosts the same number of pods give or take one.
    placement = nodes * (3 * services // len(nodes) + 1)
    rng.shuffle(placement)
    for index, svc in enumerate(sorted(entities)):
        wl = workload_of(svc)
        team = entities[svc]["team"]
        entities[wl] = {"id": wl, "name": wl, "type": "workload", "team": team}
        relations.append((svc, wl, "layer"))
        pods[wl] = []
        for p in range(3 if index in three_pod else 2):
            pod = f"pod{wl[2:]}-{p}"
            _add_pod(entities, relations, pods, wl, pod, placement.pop(), team)
    for node in nodes:
        entities[node] = {"id": node, "name": node, "type": "node", "team": "platform"}
    return Fleet(entities, relations, levels, pods, nodes)


def _level_sizes(services: int) -> list[int]:
    # Frontends on top, the remaining services spread evenly over the levels.
    rest = services - FRONTENDS
    base, extra = divmod(rest, LEVELS - 1)
    return [FRONTENDS] + [base + (1 if i < extra else 0) for i in range(LEVELS - 1)]


def _add_pod(entities, relations, pods, wl, pod, node, team):
    entities[pod] = {"id": pod, "name": pod, "type": "pod", "team": team}
    relations.append((wl, pod, "comp"))
    relations.append((pod, node, "layer"))
    pods[wl].append(pod)


def chain_leaves(fleet: Fleet) -> list[str]:
    """Deepest-level services with two pods and the fewest transitive
    callers (a single chain to the top when the seed has one). Their call
    closures, blast radii and candidate sets have one shape, so picking
    among them keeps each seed's work the same."""
    callers: dict[str, set[str]] = {}
    for s, t, k in fleet.relations:
        if k == "conn":
            callers.setdefault(t, set()).add(s)

    def ancestors(svc: str) -> int:
        seen, frontier = set(), [svc]
        while frontier:
            for caller in callers.get(frontier.pop(), ()):
                if caller not in seen:
                    seen.add(caller)
                    frontier.append(caller)
        return len(seen)

    leaves = {svc: ancestors(svc) for svc in fleet.levels[-1]
              if len(fleet.pods[workload_of(svc)]) == 2}
    fewest = min(leaves.values())
    return sorted(svc for svc, n in leaves.items() if n == fewest)


def seed_faults(fleet: Fleet, rng: random.Random):
    """Two active faults: a code defect on a chain leaf (its error rate) and
    a node under memory pressure that hosts none of that leaf's pods.
    Records the faulty samples on the fleet."""
    svc = rng.choice(chain_leaves(fleet))
    own_nodes = {t for s, t, k in fleet.relations
                 if k == "layer" and s in fleet.pods[workload_of(svc)]}
    node = rng.choice([n for n in fleet.nodes if n not in own_nodes])
    fleet.faults = [f"code_defect@{svc}", f"node_failure@{node}"]
    fleet.fault_samples = {(svc, "error_rate"): 0.6, (node, "memory_utilization"): 0.98}


def samples(fleet: Fleet, rng: random.Random, count: int, first_tick: int,
            per_tick: int = 1000) -> list[Observation]:
    """``count`` attribute samples on random entities, ``per_tick`` per tick.

    Samples are healthy except on the seeded faulty (entity, attribute)
    pairs, which always carry their faulty value, so the active symptom set
    stays the same however many batches arrive.
    """
    ids = sorted(fleet.entities)
    out = []
    for i in range(count):
        eid = ids[rng.randrange(len(ids))]
        attrs = TYPE_ATTRIBUTES[fleet.entity_type(eid)]
        attr = attrs[rng.randrange(len(attrs))]
        value = fleet.fault_samples.get((eid, attr))
        if value is None:
            low, high = HEALTHY[attr]
            value = rng.uniform(low, high)
        out.append(Observation(target=eid, tick=first_tick + i // per_tick,
                               attribute=attr, value=value))
    return out


def fault_observations(fleet: Fleet, tick: int) -> list[Observation]:
    return [Observation(target=e, tick=tick, attribute=a, value=v)
            for (e, a), v in sorted(fleet.fault_samples.items())]


class Mutator:
    """Client-side model of the fleet topology that yields one seeded
    mutation step at a time: service call add, service call remove,
    pod scale-out, and replacement of a pod that carries observations.

    Each step is a list of (operation, argument) pairs for ``Engine``:
    ``ingest``, ``add_entity``, ``remove_entity``, ``add_relation``,
    ``remove_relation``. A replacement pod gets one healthy sample at the
    start of the next step, while the snapshot already holds it, so it
    joins the observed pods and the pool to replace from never runs dry.
    """

    KINDS = ("add_call", "remove_call", "scale_out", "replace_pod")

    def __init__(self, fleet: Fleet, rng: random.Random, observed_pods: set[str],
                 first_tick: int):
        self.fleet = fleet
        self.rng = rng
        self.observed_pods = set(observed_pods)
        self.removed_reprs: set[str] = set()  # repr() of each observed pod removed
        self.unobserved_pods: list[str] = []  # replacements awaiting their first sample
        self.tick = first_tick
        self.depth_of = {s: d for d, level in enumerate(fleet.levels) for s in level}
        self.calls = {(s, t) for s, t, k in fleet.relations if k == "conn"}
        self.step_count = 0
        self.next_pod = 0

    def step(self) -> list[tuple[str, object]]:
        kind = self.KINDS[self.step_count % len(self.KINDS)]
        self.step_count += 1
        return self._observe_replacements() + getattr(self, "_" + kind)()

    def _observe_replacements(self) -> list[tuple[str, object]]:
        if not self.unobserved_pods:
            return []
        batch = []
        for pod in self.unobserved_pods:
            attr = self.rng.choice(TYPE_ATTRIBUTES["pod"])
            batch.append(Observation(target=pod, tick=self.tick, attribute=attr,
                                     value=self.rng.uniform(*HEALTHY[attr])))
        self.tick += 1
        self.observed_pods.update(self.unobserved_pods)
        self.unobserved_pods = []
        return [("ingest", batch)]

    def _add_call(self):
        services = self.fleet.services
        while True:
            caller, callee = self.rng.choice(services), self.rng.choice(services)
            if (self.depth_of[caller] < self.depth_of[callee]
                    and (caller, callee) not in self.calls):
                break
        self.calls.add((caller, callee))
        return [("add_relation", Relation(caller, callee, "conn"))]

    def _remove_call(self):
        caller, callee = self.rng.choice(sorted(self.calls))
        self.calls.discard((caller, callee))
        return [("remove_relation", Relation(caller, callee, "conn"))]

    def _new_pod(self, wl: str) -> list[tuple[str, object]]:
        pod = f"pod{wl[2:]}-r{self.next_pod}"
        self.next_pod += 1
        node = self.rng.choice(self.fleet.nodes)
        team = self.fleet.entities[wl]["team"]
        self.fleet.pods[wl].append(pod)
        return [("add_entity", Entity(id=pod, name=pod, entity_type="pod", owner_team=team)),
                ("add_relation", Relation(wl, pod, "comp")),
                ("add_relation", Relation(pod, node, "layer"))]

    def _scale_out(self):
        wl = self.rng.choice(sorted(self.fleet.pods))
        return self._new_pod(wl)

    def _replace_pod(self):
        old = self.rng.choice(sorted(self.observed_pods))
        self.observed_pods.discard(old)
        self.removed_reprs.add(repr(old))
        wl = next(w for w, ps in self.fleet.pods.items() if old in ps)
        self.fleet.pods[wl].remove(old)
        ops = [("remove_entity", old)] + self._new_pod(wl)
        self.unobserved_pods.append(ops[1][1].id)
        return ops
