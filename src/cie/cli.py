"""Command-line entry points: serve the tool service, run scenarios,
issue one-shot queries, and dump the causality graph."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import data as bundled
from .causality import dump_graph
from .engine import Engine
from .errors import EngineError
from .harness import (footprint_metrics, format_rubric_table, load_scenario,
                      metrics_to_jsonl, rubric_report_dict, run_scenario)
from .service import METHODS, handle, serve


def _engine_from_options(env, codebook, observations=None, leak=None, max_depth=None):
    kwargs = {}
    if leak is not None:
        kwargs["leak"] = leak
    if max_depth is not None:
        kwargs["max_depth"] = max_depth
    try:
        return Engine.from_files(env, codebook, observations_path=observations, **kwargs)
    except EngineError as exc:
        raise click.ClickException(str(exc))


def _resolve_scenario(ref: str) -> Path:
    if ref.startswith("builtin:"):
        return bundled.scenario_path(ref.split(":", 1)[1])
    return Path(ref)


@click.group()
def main():
    """Causal intelligence engine for modeled microservice environments."""


@main.command("serve")
@click.option("--env", required=True, type=click.Path(exists=True))
@click.option("--codebook", required=True, type=click.Path(exists=True))
@click.option("--observations", type=click.Path(exists=True), default=None,
              help="Observation stream (JSON lines) to preload.")
@click.option("--leak", type=float, default=None,
              help="Leak probability for unexplained symptoms.")
@click.option("--max-depth", type=int, default=None,
              help="Propagation depth limit.")
def serve_cmd(env, codebook, observations, leak, max_depth):
    """Serve the tool protocol on stdin/stdout (one JSON object per line)."""
    engine = _engine_from_options(env, codebook, observations, leak, max_depth)
    serve(engine, sys.stdin, sys.stdout)


@main.group()
def scenario():
    """Scenario harness commands."""


@scenario.command("run")
@click.option("--scenario", "scenario_ref", required=True,
              help="Scenario file path, or builtin:active-fault / builtin:healthy.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table",
              show_default=True)
@click.option("--metrics-out", type=click.Path(), default=None,
              help="Write per-query footprint metrics (JSON lines) here.")
def scenario_run(scenario_ref, seed, fmt, metrics_out):
    """Replay a scenario, score it against the rubric, exit 0 iff all pass."""
    try:
        spec_path = _resolve_scenario(scenario_ref)
        sc = load_scenario(spec_path)
        result = run_scenario(sc, seed=seed)
        if metrics_out:
            Path(metrics_out).write_text(metrics_to_jsonl(footprint_metrics(result, seed)))
    except (EngineError, FileNotFoundError, OSError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        click.echo(json.dumps(rubric_report_dict(result), indent=2))
    else:
        click.echo(format_rubric_table(result))
    if not result.all_passed:
        sys.exit(1)


@main.command()
@click.option("--env", required=True, type=click.Path(exists=True))
@click.option("--codebook", required=True, type=click.Path(exists=True))
@click.option("--observations", type=click.Path(exists=True), default=None)
@click.option("--method", required=True, type=click.Choice(list(METHODS)))
@click.option("--params", default="{}", help="Method params as a JSON object.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json",
              show_default=True)
@click.option("--leak", type=float, default=None)
@click.option("--max-depth", type=int, default=None)
def query(env, codebook, observations, method, params, fmt, leak, max_depth):
    """Issue a single tool query against a loaded environment."""
    try:
        parsed = json.loads(params)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"--params is not valid JSON: {exc}")
    engine = _engine_from_options(env, codebook, observations, leak, max_depth)
    response = handle({"id": "cli", "method": method, "params": parsed},
                      engine.snapshot())
    wire = response.to_dict()
    if fmt == "json":
        click.echo(json.dumps(wire, indent=2))
    else:
        click.echo(_tabulate(wire))
    if response.status != "ok":
        sys.exit(1)


def _tabulate(wire: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in wire.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_tabulate(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: [{len(value)} items]")
            for item in value:
                if isinstance(item, dict):
                    lines.append(_tabulate(item, indent + 1))
                    lines.append("")
                else:
                    lines.append(f"{pad}  - {item}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line is not None)


@main.group()
def graph():
    """Graph inspection commands."""


@graph.command("dump")
@click.option("--env", required=True, type=click.Path(exists=True))
@click.option("--codebook", required=True, type=click.Path(exists=True))
@click.option("--max-depth", type=int, default=None)
def graph_dump(env, codebook, max_depth):
    """Dump the instantiated causality graph (causes, symptoms, edges) as JSON."""
    engine = _engine_from_options(env, codebook, max_depth=max_depth)
    click.echo(json.dumps(dump_graph(engine.snapshot().causality), indent=2))


if __name__ == "__main__":
    main()
