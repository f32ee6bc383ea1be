"""Closed-loop client for ``cie.service.serve`` over in-memory streams.

One client, one thread: ``serve`` pulls the next frame from ``Client.frames``
only after it has written the previous response, so the agent never has
more than one request in flight. The frame iterator stamps each frame when
it is yielded and the output stream stamps each response when it is written;
the difference is the request latency. Everything the client does between
a response and the next frame (checking the response, building the next
step) is off the clock; writes to the engine (observation batches,
topology mutations) are on it, because the measured phase includes them.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from cie.service import serve


@dataclass
class Frame:
    line: str  # one request as it goes over the wire
    method: str  # the method asked for, or "" for a frame that is not JSON
    expect_error: str | None = None  # error code a deliberately invalid frame must get
    request_id: object = None  # the id the response must echo (None if not JSON)


@dataclass
class Step:
    """Writes applied to the engine, then a burst of frames."""

    frames: list[Frame]
    write: Callable[[], int] | None = None  # returns observations ingested, or 0
    kind: str = ""  # "ingest" | "mutation" | ""


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None unless at least ten samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_strict(line: str):
    """Parse one response line as standard JSON (no NaN or Infinity)."""
    return json.loads(line, parse_constant=_reject_constant)


class CheckFailed(Exception):
    """An output check failed; the run reports no result."""


class _Output:
    """Output stream that stamps every write."""

    def __init__(self, clock, on_write):
        self._clock = clock
        self._on_write = on_write

    def write(self, text: str):
        self._on_write(self._clock(), text)

    def flush(self):
        pass


@dataclass
class Session:
    """What one closed-loop session measured and saw."""

    attempted: int = 0
    provoked: int = 0  # deliberately invalid frames answered with their expected code
    failed: int = 0  # error responses the script did not provoke
    defect: int = 0  # error responses of a known defect the script provokes on purpose
    failures: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # The only per-request record is a typed array of latencies, so peak RSS
    # barely depends on how many requests a run completes.
    latency_ms: array = field(default_factory=lambda: array("d"))  # successful responses
    # method -> [responses, response bytes]
    payload_bytes: dict[str, list[int]] = field(default_factory=lambda: defaultdict(lambda: [0, 0]))
    write_to_answer_ms: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    write_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    observations_ingested: int = 0
    steps: int = 0
    elapsed_s: float = 0.0

    @property
    def total_bytes(self) -> int:
        return sum(total for _, total in self.payload_bytes.values())


class Client:
    """Drives ``serve`` with a stream of steps for a fixed measured time.

    ``inspect(frame, response)`` sees every parsed response off the clock
    and raises ``CheckFailed`` on a wrong answer. ``known_defect(frame,
    response)`` tells an error response of a known defect, which the script
    provokes on purpose, from an unexpected failure. ``between_steps(index)``
    runs off the clock before each step (the tracer toggles there).
    ``on_request(request_id)`` is told which request is in flight (None
    between requests); ``on_response(request_id, stamp, latency_ms)`` sees
    each response's write stamp and, when it succeeded, its latency.
    """

    def __init__(self, engine, seconds: float, clock=time.perf_counter,
                 inspect: Callable[[Frame, dict], None] | None = None,
                 known_defect: Callable[[Frame, dict], bool] | None = None,
                 between_steps: Callable[[int], None] | None = None,
                 on_request: Callable[[int | None], None] | None = None,
                 on_response: Callable[[int, float, float | None], None] | None = None):
        self.engine = engine
        self.seconds = seconds
        self.clock = clock
        self.inspect = inspect
        self.known_defect = known_defect or (lambda frame, response: False)
        self.between_steps = between_steps
        self.on_request = on_request or (lambda request_id: None)
        self.on_response = on_response or (lambda request_id, stamp, latency_ms: None)
        self.session = Session()
        self._written: list[tuple[float, str]] = []

    def _on_write(self, stamp: float, text: str):
        self._written.append((stamp, text))

    def run(self, steps: Iterable[Step]) -> Session:
        output = _Output(self.clock, self._on_write)
        serve(self.engine, self.frames(steps), output)
        return self.session

    def frames(self, steps: Iterable[Step]) -> Iterator[str]:
        clock, session = self.clock, self.session
        self._expect_hello()
        steps = iter(steps)
        start = clock()
        paused = 0.0
        for index in itertools.count():
            resumed = clock()
            if self.between_steps is not None:
                self.between_steps(index)
            step = next(steps, None)
            now = clock()
            paused += now - resumed
            if step is None or now - start - paused >= self.seconds:
                break
            wrote_at = None
            if step.write is not None:
                wrote_at = clock()
                ingested = step.write()
                session.write_s[step.kind] += clock() - wrote_at
                session.observations_ingested += ingested
            for position, frame in enumerate(step.frames):
                request_id = session.attempted
                self.on_request(request_id)
                sent = clock()
                yield frame.line
                resumed = clock()
                self.on_request(None)
                self._take_response(request_id, frame, sent,
                                    step.kind if position == 0 else "", wrote_at)
                paused += clock() - resumed
            session.steps += 1
        session.elapsed_s = clock() - start - paused

    def _expect_hello(self):
        if len(self._written) != 1 or "hello" not in parse_strict(self._written[0][1]):
            raise CheckFailed("serve did not open with its hello banner")
        self._written.clear()

    def _take_response(self, request_id: int, frame: Frame, sent: float, write_kind: str,
                       wrote_at: float | None):
        session = self.session
        if len(self._written) != 1:
            raise CheckFailed(f"expected one response per frame, got {len(self._written)}")
        stamp, text = self._written.pop()
        session.attempted += 1
        try:
            response = parse_strict(text)
        except ValueError as exc:
            raise CheckFailed(f"response is not standard JSON: {exc}") from None
        if not isinstance(response, dict) or response.get("id") != frame.request_id:
            raise CheckFailed(f"response {text[:80]!r} does not answer {frame.line[:80]!r}")
        sizes = session.payload_bytes[frame.method]
        sizes[0] += 1
        sizes[1] += len(text) - 1
        if write_kind and wrote_at is not None:
            session.write_to_answer_ms[write_kind].append((stamp - wrote_at) * 1000.0)
        status = response.get("status")
        latency_ms = None
        if frame.expect_error is not None:
            code = (response.get("error") or {}).get("code")
            if status != "error" or code != frame.expect_error:
                raise CheckFailed(f"invalid frame {frame.line[:80]!r} got {status}/{code}, "
                                  f"expected {frame.expect_error}")
            session.provoked += 1
        elif status == "ok":
            latency_ms = (stamp - sent) * 1000.0
            session.latency_ms.append(latency_ms)
            if self.inspect is not None:
                self.inspect(frame, response)
        elif self.known_defect(frame, response):
            session.defect += 1
        else:
            session.failed += 1
            session.failures[(response.get("error") or {}).get("code", "?")] += 1
        self.on_response(request_id, stamp, latency_ms)
