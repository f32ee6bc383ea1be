"""cie benchmark: closed-loop ``serve`` workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload shop-session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --scale-report

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates traced and untraced steps, reports the per-layer
metrics from the traced ones, the tracing overhead from the pair, and writes
the spans to ``perfbench/out/``. Every run checks the program's outputs; a
failed check exits non-zero without a result. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_ms_p90": "ms",
    "payload_bytes_mean": "bytes",
    "answered_frac": "fraction",
    "peak_rss_mb": "MB",
}
# request_ms_p50 and throughput_rps are printed in the readable report but
# not gated: the shared host's speed switches between two levels, and a
# run's median and mean follow the share of the run spent at the faster
# one, while the 90th percentile stays at the slower one (README,
# "Steadiness").
REPORT_UNITS = {"throughput_rps": "1/s", "ingest_obs_per_s": "obs/s", "measured_s": "s"}


def _units(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith("service.payload_bytes."):
        return "bytes"
    if name.startswith("service.handle_ms."):
        return "ms/call"
    if name in ("engine.ingest_ms", "topology.mutation_ms"):
        return "ms/call"
    if name in ("topology.load_ms", "knowledge_base.load_ms", "attributes.load_ms",
                "causality.instantiate_ms"):
        return "ms"
    if name.endswith("_ms"):
        return "ms/req"
    if name in ("inference.activate_calls", "inference.observations_replayed"):
        return "count/req"
    if name == "inference.candidates":
        return "count/call"
    if name.endswith(("_ratio", "_frac")):
        return "fraction"
    return "count"


def _report_unit(name: str) -> str:
    if name in REPORT_UNITS:
        return REPORT_UNITS[name]
    if "_ms_p" in name:
        return "ms"
    return "fraction" if name.endswith("_frac") else ""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_cie():
    if not (SOURCE / "cie" / "__init__.py").is_file():
        raise ImportError(f"no cie sources at {SOURCE}; run from a checkout of the repository")
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import cie  # noqa: F401


def _setup(workload, recorder=None) -> tuple[object, float]:
    """One timed set-up from a collected heap; the history is built off the clock."""
    history = workload.history()
    gc.collect()
    if recorder is not None:
        recorder.request = "setup"
    started = time.perf_counter()
    engine = workload.setup(history)
    elapsed = time.perf_counter() - started
    del history
    if recorder is not None:
        recorder.request = None
    return engine, elapsed


def _setups(workload, recorder=None) -> tuple[object, list[float]]:
    """Set the engine up ``workload.setups`` times; keep the last one."""
    times = []
    engine = None
    for _ in range(workload.setups):
        engine = None
        engine, elapsed = _setup(workload, recorder)
        times.append(elapsed)
    return engine, times


def _percentiles(name: str, values: list[float], qs=(0.5, 0.9, 0.99)) -> dict:
    from loop import percentile
    out = {}
    for q in qs:
        value = percentile(values, q)
        if value is not None:
            out[f"{name}_p{round(q * 100)}"] = value
    return out


def end_to_end(workload, seconds: float) -> tuple[dict, dict, object]:
    from loop import Client
    engine, setup_times = _setups(workload)

    def between_steps(index: int):
        every = workload.setup_every_steps
        if every and index and index % every == 0:
            setup_times.append(_setup(workload)[1])

    client = Client(engine, seconds, inspect=workload.inspect,
                    known_defect=workload.known_defect, between_steps=between_steps)
    session = client.run(workload.steps(engine))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.final_check(engine)
    # As many set-ups again after the session, so that setup_s sees the host
    # at both ends of the run and not only at its start.
    engine = client = None
    setup_times += _setups(workload)[1]

    lat = _percentiles("request_ms", session.latency_ms)
    for name in ("request_ms_p50", "request_ms_p90"):
        if name not in lat:
            raise RuntimeError(f"{len(session.latency_ms)} successful requests are too few "
                               f"for {name}; raise --seconds")
    valid = session.attempted - session.provoked
    metrics = {
        "setup_s": statistics.median(setup_times),
        "request_ms_p90": lat["request_ms_p90"],
        "payload_bytes_mean": session.total_bytes / session.attempted,
        "answered_frac": len(session.latency_ms) / valid,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {"requests": session.attempted, "successful": len(session.latency_ms),
              "provoked_errors": session.provoked, "known_defect_errors": session.defect,
              "failed": session.failed, "failed_frac": session.failed / max(1, valid),
              "failures_by_code": dict(session.failures), "steps": session.steps,
              "measured_s": session.elapsed_s, "setups": len(setup_times),
              "throughput_rps": session.attempted / session.elapsed_s}
    report.update({k: v for k, v in lat.items() if k not in metrics})
    if session.observations_ingested:
        report["ingest_obs_per_s"] = (session.observations_ingested
                                      / session.write_s["ingest"])
    for kind, values in session.write_to_answer_ms.items():
        report.update(_percentiles(f"{kind}_to_answer_ms", values, (0.5, 0.9)))
        report[f"{kind}_steps"] = len(values)
    return metrics, report, session


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, dict, object]:
    from loop import Client
    from spans import SpanRecorder, Tracer, layer_metrics
    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        engine, setup_times = _setups(workload, recorder)
        traced: set[int] = set()
        stamps: dict[int, float] = {}
        on: list[float] = []
        off: list[float] = []

        def toggle(step_index: int):
            if step_index % 2 == 0:
                tracer.install()
            else:
                tracer.uninstall()

        def on_request(request_id):
            recorder.request = request_id
            if request_id is not None and tracer.installed:
                traced.add(request_id)

        def on_response(request_id, stamp, latency_ms):
            if request_id in traced:
                stamps[request_id] = stamp
            if latency_ms is not None:
                (on if request_id in traced else off).append(latency_ms)

        client = Client(engine, seconds, inspect=workload.inspect,
                        known_defect=workload.known_defect, between_steps=toggle,
                        on_request=on_request, on_response=on_response)
        session = client.run(workload.steps(engine))
    finally:
        tracer.uninstall()
    workload.final_check(engine)

    if not on or not off:
        raise RuntimeError("too few steps for a traced and an untraced sample; raise --seconds")
    metrics = layer_metrics(recorder, len(setup_times), stamps, session.payload_bytes)
    metrics["tracing.overhead_frac"] = statistics.median(on) / statistics.median(off) - 1.0
    request_ms = statistics.fmean(on)
    shares = {name: value / request_ms for name, value in metrics.items()
              if _units(name) == "ms/req"}
    recorder.write_out(spans_path)
    report = {"traced_requests": len(traced), "spans": len(recorder.spans),
              "spans_file": str(spans_path.relative_to(HERE.parent)),
              "traced_request_ms_mean": request_ms,
              "share_of_traced_request_time": shares}
    return metrics, report, session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-report", action="store_true",
                        help="print the one-off scale table instead of running a workload")
    args = parser.parse_args(argv)
    try:
        _import_cie()
    except ImportError as exc:
        return _fail(str(exc))

    if args.scale_report:
        from scale import report
        report()
        return 0

    from loop import CheckFailed
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return _fail(f"--workload must be one of {sorted(WORKLOADS)}")
    try:
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            spans_path = HERE / "out" / f"{args.workload}-{args.seed}.spans.jsonl"
            metrics, report, session = per_layer(workload, args.seconds, spans_path)
        else:
            metrics, report, session = end_to_end(workload, args.seconds)
    except CheckFailed as exc:
        return _fail(f"check failed: {exc}")
    except RuntimeError as exc:
        return _fail(str(exc))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in report.items():
        if isinstance(value, dict):
            print(f"  {name}:")
            for key, sub in sorted(value.items()):
                print(f"    {key:<36} {sub:.4g}" if isinstance(sub, float)
                      else f"    {key:<36} {sub}")
        else:
            print(f"  {name:<38} {value:.4g} {_report_unit(name)}".rstrip()
                  if isinstance(value, float) else f"  {name:<38} {value}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:.6g} {_units(name)}")
    print(json.dumps({
        "correct": True,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": _units(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
