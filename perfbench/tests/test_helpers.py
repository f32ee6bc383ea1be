"""Tests of the benchmark's own helpers: seeded inputs, percentiles,
closed-loop stamping and span self time.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import itertools
import random

import pytest

import cie.engine
import fleet
from cie.engine import Engine
from loop import Client, Frame, Step, parse_strict, percentile
from spans import SpanRecorder, Tracer
from workloads import FleetChurn, ShopSession, shop_frames


def _script(workload, steps):
    out = []
    for step in itertools.islice(workload.steps(engine=None), steps):
        out.append([f.line for f in step.frames])
    return out


def test_seed_reproduces_documents_and_frame_scripts():
    assert fleet.generate(7, 60).documents() == fleet.generate(7, 60).documents()
    assert fleet.generate(7, 60).documents() != fleet.generate(8, 60).documents()

    first, again, other = FleetChurn(3), FleetChurn(3), FleetChurn(4)
    assert first.history() == again.history()
    assert first.history() != other.history()
    assert _script(first, 12) == _script(again, 12)
    assert _script(first, 12) != _script(other, 12)

    ids, causes, teams = ["a", "b", "c", "d", "e", "f", "g"], ["x@a", "y@b"], ["t1", "t2"]
    take = lambda seed: [f.line for f in itertools.islice(
        shop_frames(seed, ids, causes, teams), 500)]
    assert take(5) == take(5)
    assert take(5) != take(6)


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1, 101)), 0.9) == 90
    assert percentile(list(range(1, 100)), 0.9) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile(list(range(19)), 0.5) is None
    assert percentile([], 0.5) is None
    assert percentile(list(range(1000)), 0.99) == 989


def test_strict_parse_rejects_non_finite_constants():
    assert parse_strict('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            parse_strict(bad)


class _Clock:
    """Fake clock: one tick per reading, plus whatever the test advances."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_latency_is_stamped_from_handoff_to_serve():
    shop = ShopSession(1)
    engine = shop.setup(shop.history())
    clock = _Clock()

    def slow_write():
        clock.now += 1000.0
        return 0

    frames = [Frame('{"id": %d, "method": "get_symptoms"}' % i, "get_symptoms", request_id=i)
              for i in range(3)]
    steps = [Step(frames, write=slow_write, kind="mutation")] * 2
    client = Client(engine, seconds=1e9, clock=clock)
    session = client.run(steps)

    assert session.attempted == 6 and session.failed == 0
    # One clock reading between yielding the frame and writing its response:
    # the write before the burst and the client's own checks are off the
    # request clock.
    assert list(session.latency_ms) == [1000.0] * 6
    assert all(ms > 1000.0 * 1000.0 for ms in session.write_to_answer_ms["mutation"])
    assert len(session.write_to_answer_ms["mutation"]) == 2


def test_building_steps_is_off_the_clock():
    shop = ShopSession(1)
    engine = shop.setup(shop.history())
    clock = _Clock()

    def slow_steps():
        for i in range(2):
            clock.now += 1e6  # the client building the next step
            yield Step([Frame('{"id": %d, "method": "get_symptoms"}' % i, "get_symptoms",
                              request_id=i)])

    session = Client(engine, seconds=1e9, clock=clock).run(slow_steps())
    assert session.attempted == 2
    assert session.elapsed_s < 100


def test_churn_never_runs_out_of_observed_pods_to_replace():
    small = fleet.generate(3, 60)
    first_pods = sorted(small.pods[sorted(small.pods)[0]])
    mutator = fleet.Mutator(small, random.Random(3), set(first_pods), first_tick=10)
    replaced = []
    for _ in range(40 * len(first_pods)):
        ops = mutator.step()
        replaced += [arg for op, arg in ops if op == "remove_entity"]
        for op, arg in ops:
            if op == "ingest":
                assert all(obs.target in mutator.observed_pods for obs in arg)
    assert len(replaced) == 10 * len(first_pods)
    assert len(set(replaced)) == len(replaced)


def test_churn_counts_the_known_defect_apart_from_failures():
    churn = FleetChurn(3)
    engine = churn.setup(churn.history())
    session = Client(engine, seconds=1e9, known_defect=churn.known_defect).run(
        itertools.islice(churn.steps(engine), 6))
    # The fourth step replaces an observed pod; from then on every
    # observation-dependent query hits the defect.
    assert session.defect >= 2 and session.failed == 0

    removed = next(iter(churn.mutator.removed_reprs))
    frame = Frame("{}", "get_symptoms", request_id=1)

    def error(code, message):
        return {"id": 1, "status": "error", "error": {"code": code, "message": message}}

    prefix = "observation targets unknown entity "
    assert churn.known_defect(frame, error("unknown_id", prefix + removed))
    assert not churn.known_defect(frame, error("unknown_id", prefix + "'node-000'"))
    assert not churn.known_defect(frame, error("internal_error", prefix + removed))


def test_span_self_time_and_tracer_restores_originals():
    clock = _Clock()
    recorder = SpanRecorder(clock)
    inner = recorder.wrap("inner", lambda: clock.__setattr__("now", clock.now + 5))
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    names = [span[0] for span in recorder.spans]
    assert names == ["outer", "inner"]
    assert recorder.spans[1][3] == 0  # inner's parent is outer
    assert recorder.self_times() == [2.0, 6.0]

    original = cie.engine.refresh, Engine.snapshot
    tracer = Tracer(SpanRecorder())
    tracer.install()
    assert cie.engine.refresh is not original[0]
    tracer.uninstall()
    assert (cie.engine.refresh, Engine.snapshot) == original
