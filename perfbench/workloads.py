"""The three benchmark workloads, their frame scripts and their output checks.

``shop-session``: the bundled 76-entity shop, a long agent session of all six
methods. The log and topology are tiny, so frame parsing, snapshots,
handlers and serialization carry the cost.

``fleet-telemetry``: a 5k-entity fleet with a 20k-observation history that
keeps growing by ingested batches; every burst of queries follows a batch.
Replaying the log in ``inference.activate_symptoms`` dominates today.

``fleet-churn``: a 700-entity fleet with a small log; every step is one
topology mutation and then a few queries, so every step forces a full
``causality.refresh``. Pod replacement removes pods that carry observations,
which hits a known defect: later observation-dependent queries fail with
``unknown_id``. Those errors are counted apart from unexpected failures and
lower ``answered_frac``; they are not avoided.

Each workload prepares its inputs from the seed off the clock, sets up the
engine (timed), then yields ``Step``s forever; the client stops them. The
preloaded history is rebuilt for every set-up and not kept afterwards, so
the engine's log is the only thing that holds it.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Iterator

from cie import data
from cie.causality import instantiate
from cie.engine import Engine
from cie.harness import (background_observations, inject_fault, load_scenario,
                         run_scenario)
from cie.inference import Observation
from cie.service import METHODS, handle

import fleet as fleetgen
from loop import CheckFailed, Frame, Step

TELEMETRY_SERVICES = 1100  # about 5k entities
# A 100k log makes the replay memory-bound, and on a shared host its speed
# then swings 1.7x between runs; at 20k the replay still dominates requests.
# Small batches keep the log within about 15% of its preloaded size over a
# run, so later requests cost what earlier ones do.
TELEMETRY_HISTORY = 20_000
TELEMETRY_BATCH = 10
CHURN_SERVICES = 160  # about 700 entities
CHURN_HISTORY = 2_000
SHOP_STEP_FRAMES = 25

OBSERVATION_METHODS = ("get_environment_health", "get_root_causes", "get_symptoms",
                       "get_blast_radius", "check_remediation")


def frame(request_id: int, method: str, params: dict,
          expect_error: str | None = None) -> Frame:
    line = json.dumps({"id": request_id, "method": method, "params": params})
    return Frame(line, method, expect_error, request_id)


def invalid_frame(request_id: int, rng: random.Random, entity: str) -> Frame:
    """A deliberately invalid frame and the error code it must get."""
    kind = rng.randrange(6)
    if kind == 0:
        return frame(request_id, "get_symptoms", {"scope": ["no-such-entity"]}, "unknown_id")
    if kind == 1:
        return frame(request_id, "get_root_causes", {"scope": entity}, "invalid_params")
    if kind == 2:
        return frame(request_id, "get_blast_radius", {"cause": f"no_such_cause@{entity}"},
                     "unknown_id")
    if kind == 3:
        return frame(request_id, "check_remediation", {"action_targets": []},
                     "invalid_params")
    if kind == 4:
        return frame(request_id, "get_everything", {}, "unknown_method")
    return Frame('{"id": %d, "method": "get_topology", ' % request_id, "", "parse_error")


def shop_frames(seed: int, entities: list[str], causes: list[str],
                teams: list[str]) -> Iterator[Frame]:
    """Endless seeded agent script over the shop: all six methods, about
    half of the scopable ones scoped, some with ``team`` or
    ``action_targets``, and about 2% deliberately invalid frames."""
    rng = random.Random(seed)
    for request_id in itertools.count():
        if rng.random() < 0.02:
            yield invalid_frame(request_id, rng, rng.choice(entities))
            continue
        method = METHODS[rng.randrange(len(METHODS))]
        params: dict = {}
        if method in ("get_environment_health", "get_symptoms", "get_root_causes",
                      "get_topology") and rng.random() < 0.5:
            params["scope"] = rng.sample(entities, rng.randint(1, 6))
        if method in ("get_root_causes", "get_blast_radius") and rng.random() < 0.3:
            params["team"] = rng.choice(teams)
        if method in ("get_blast_radius", "check_remediation") and rng.random() < 0.3:
            params["cause"] = rng.choice(causes)
        if method == "check_remediation":
            params["action_targets"] = rng.sample(entities, rng.randint(1, 3))
        yield frame(request_id, method, params)


class Workload:
    """Seeded inputs, timed set-up, an endless step script and checks."""

    name = ""
    setups = 1  # set-ups before the session; setup_s is the median of all set-ups
    setup_every_steps = 0  # when set, one more set-up (off the clock) every so many steps

    def __init__(self, seed: int):
        self.seed = seed

    def history(self) -> list[Observation]:
        """The preloaded observation history, rebuilt from the seed on each call."""
        raise NotImplementedError

    def setup(self, history: list[Observation]) -> Engine:
        engine = Engine.from_documents(self.env_text, self.codebook_text)
        engine.ingest(history)
        engine.snapshot()
        return engine

    def steps(self, engine: Engine) -> Iterator[Step]:
        raise NotImplementedError

    def inspect(self, frame: Frame, response: dict):
        """Check one successful response (off the clock)."""

    def known_defect(self, frame: Frame, response: dict) -> bool:
        """Whether an error response is a known defect the script provokes."""
        return False

    def final_check(self, engine: Engine):
        """Check the engine's state after the session (off the clock)."""


def _best_cause(response: dict) -> str | None:
    best = response["payload"].get("best")
    return best["cause"] if best else None


class ShopSession(Workload):
    name = "shop-session"
    # A shop set-up takes milliseconds, so its time follows the machine's
    # speed of the moment; spreading set-ups over the whole run lets
    # setup_s see the same machine the requests do.
    setups = 5
    setup_every_steps = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        active = load_scenario(data.scenario_path("active-fault"))
        healthy = load_scenario(data.scenario_path("healthy"))
        for scenario, expected in ((active, 6), (healthy, 3)):
            result = run_scenario(scenario, seed=seed)
            if result.passed_count != expected or len(result.per_query) != expected:
                raise CheckFailed(f"rubric {scenario.name}: {result.passed_count}/"
                                  f"{len(result.per_query)}, expected {expected}/{expected}")
        self.scenario = active
        self.fault = active.fault_cause
        self.env_text = active.environment_path.read_text()
        self.codebook_text = active.codebook_path.read_text()
        graph = Engine.from_documents(self.env_text, self.codebook_text).snapshot()
        self.entities = sorted(graph.topology.entity_ids())
        self.causes = sorted(graph.causality.causes)
        self.teams = sorted(graph.topology.teams())

    def history(self) -> list[Observation]:
        return (background_observations(self.scenario, seed=self.seed)
                + inject_fault(self.scenario, seed=self.seed))

    def steps(self, engine: Engine) -> Iterator[Step]:
        frames = shop_frames(self.seed, self.entities, self.causes, self.teams)
        while True:
            yield Step(list(itertools.islice(frames, SHOP_STEP_FRAMES)))

    def inspect(self, frame: Frame, response: dict):
        if frame.method == "get_root_causes" and '"scope"' not in frame.line:
            if _best_cause(response) != self.fault:
                raise CheckFailed(f"best cause {_best_cause(response)}, expected {self.fault}")


class FleetWorkload(Workload):
    services = 0
    history_size = 0
    scope_every = 2  # one scopable observation query in this many is scoped

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rng = random.Random(seed)
        self.fleet = fleetgen.generate(seed, self.services)
        fleetgen.seed_faults(self.fleet, self.rng)
        self.env_text, self.codebook_text = self.fleet.documents()
        self.tick = self.history_size // 1000 + 1  # first tick after the history
        self.next_id = 0
        self.scopable = 0

    def history(self) -> list[Observation]:
        # Its own generator, so the step scripts do not depend on how many
        # times the history is rebuilt.
        rng = random.Random(f"history-{self.seed}")
        return (fleetgen.samples(self.fleet, rng, self.history_size, 0)
                + fleetgen.fault_observations(self.fleet, self.tick - 1))

    def request(self, method: str, params: dict) -> Frame:
        self.next_id += 1
        return frame(self.next_id, method, params)

    def neighbourhood(self, service: str) -> list[str]:
        """A service, its workload and pods: what an agent scopes to."""
        wl = fleetgen.workload_of(service)
        return [service, wl] + self.fleet.pods[wl]

    def observation_query(self, method: str) -> Frame:
        """One query that depends on observations; one scopable query in
        ``scope_every`` is scoped, starting with the first."""
        rng = self.rng
        params: dict = {}
        if method in ("get_environment_health", "get_root_causes", "get_symptoms"):
            if self.scopable % self.scope_every == 0:
                params["scope"] = self.neighbourhood(rng.choice(self.fleet.services))
            self.scopable += 1
        elif method == "check_remediation":
            params["action_targets"] = rng.sample(self.fleet.services, 2)
        return self.request(method, params)

    def inspect(self, frame: Frame, response: dict):
        if frame.method == "get_root_causes" and '"scope"' not in frame.line:
            if _best_cause(response) not in self.fleet.faults:
                raise CheckFailed(f"best cause {_best_cause(response)} is not one of the "
                                  f"seeded faults {self.fleet.faults}")


class FleetTelemetry(FleetWorkload):
    name = "fleet-telemetry"
    setups = 3
    services = TELEMETRY_SERVICES
    history_size = TELEMETRY_HISTORY
    # A scoped query skips most of the symptom scan and costs about a fifth
    # less. Scoping every other one would put 47.5% of requests below the
    # unscoped ones, so the median would flip between the two kinds from run
    # to run; at one in three it lies well inside the unscoped ones.
    scope_every = 3

    def steps(self, engine: Engine) -> Iterator[Step]:
        methods = itertools.cycle(OBSERVATION_METHODS)
        # Explicit causes come from the chain leaves, whose blast radii all
        # have one shape; a random backend's radius varies a hundredfold.
        leaf_causes = [f"code_defect@{s}" for s in fleetgen.chain_leaves(self.fleet)]
        for index in itertools.count():
            batch = fleetgen.samples(self.fleet, self.rng, TELEMETRY_BATCH, self.tick,
                                     per_tick=TELEMETRY_BATCH)
            self.tick += 1
            frames = [self.observation_query(next(methods)) for _ in range(3)]
            # One query per burst reads no observations: a scoped topology or
            # an explicit cause's blast radius.
            if index % 2 == 0:
                scope = self.neighbourhood(self.rng.choice(self.fleet.services))
                frames.append(self.request("get_topology", {"scope": scope}))
            else:
                frames.append(self.request("get_blast_radius",
                                           {"cause": self.rng.choice(leaf_causes)}))
            yield Step(frames, write=lambda batch=batch: self._ingest(engine, batch),
                       kind="ingest")

    @staticmethod
    def _ingest(engine: Engine, batch) -> int:
        engine.ingest(batch)
        return len(batch)

    def final_check(self, engine: Engine):
        response = handle({"id": 0, "method": "get_root_causes"}, engine.snapshot()).to_dict()
        self.inspect(Frame("{}", "get_root_causes", request_id=0), response)


class FleetChurn(FleetWorkload):
    name = "fleet-churn"
    # A set-up takes about a tenth of a second, so set-ups done in a row all
    # see the host's speed of one moment; spread over the run, they see what
    # the requests see, as on the shop.
    setups = 3
    setup_every_steps = 15
    services = CHURN_SERVICES
    history_size = CHURN_HISTORY

    def __init__(self, seed: int):
        super().__init__(seed)
        self.observed_pods = {o.target for o in self.history()
                              if self.fleet.entity_type(o.target) == "pod"}

    def steps(self, engine: Engine) -> Iterator[Step]:
        self.mutator = mutator = fleetgen.Mutator(self.fleet, self.rng, self.observed_pods,
                                                  self.tick)
        methods = itertools.cycle(("get_environment_health", "get_root_causes",
                                   "get_symptoms"))
        frontend_causes = [f"frontend_defect@{s}" for s in self.fleet.levels[0]]
        while True:
            ops = mutator.step()
            removed = {arg for op, arg in ops if op == "remove_entity"}
            touched = sorted({e for op, arg in ops if op.endswith("relation")
                              for e in (arg.source, arg.target)} - removed)
            # The first query pays the refresh. Explicit causes are frontend
            # defects, whose radius no mutation changes, so the requests that
            # skip the refresh cost the same on every seed and every step.
            frames = [
                self.request("get_topology", {"scope": touched}),
                self.request("get_blast_radius", {"cause": self.rng.choice(frontend_causes)}),
                self.observation_query(next(methods)),
                self.request("check_remediation",
                             {"cause": self.rng.choice(frontend_causes),
                              "action_targets": self.rng.sample(self.fleet.services, 2)}),
            ]
            yield Step(frames, write=lambda ops=ops: self._mutate(engine, ops),
                       kind="mutation")

    def inspect(self, frame: Frame, response: dict):
        """Mutations change which causes can explain the faults' symptoms, so
        the best cause may move; the refresh oracle is this workload's check."""

    UNKNOWN_TARGET = "observation targets unknown entity "

    def known_defect(self, frame: Frame, response: dict) -> bool:
        """The ROADMAP item-2 defect: once a replaced pod is gone, replaying
        its observations fails with ``unknown_id`` naming that pod."""
        error = response.get("error") or {}
        message = error.get("message", "")
        return (error.get("code") == "unknown_id" and message.startswith(self.UNKNOWN_TARGET)
                and message[len(self.UNKNOWN_TARGET):] in self.mutator.removed_reprs)

    @staticmethod
    def _mutate(engine: Engine, ops) -> int:
        for op, arg in ops:
            getattr(engine, op)(arg)
        return 0

    def final_check(self, engine: Engine):
        snapshot = engine.snapshot()
        oracle = instantiate(snapshot.topology, engine.codebook, max_depth=engine.max_depth)
        if snapshot.causality != oracle:
            raise CheckFailed("refreshed causality graph differs from a fresh instantiate")


WORKLOADS = {w.name: w for w in (ShopSession, FleetTelemetry, FleetChurn)}
