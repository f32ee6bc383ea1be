"""Answer identity: every benchmark workload's seeded frame script, replayed
in-process through ``serve``, must give byte-identical responses, and the
shop's causality dump must stay identical at every depth limit. One more
replay runs the shop script against a copy of the shop whose entities all
have names other than their ids, since no workload entity has one and only
such names put ``name`` and ``entity_name`` in an answer.

The reference digests live in ``tests/data/answer_digests.json``. A change
that means to alter answers regenerates them with

    PYTHONPATH=src python3 tests/test_answer_digest.py

and says in CHANGES.md which answers changed and why.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from cie import data  # noqa: E402
from cie.causality import dump_graph, instantiate  # noqa: E402
from cie.engine import Engine  # noqa: E402
from cie.service import serve  # noqa: E402
from workloads import FleetChurn, FleetTelemetry, ShopSession  # noqa: E402

DIGESTS = Path(__file__).with_name("data") / "answer_digests.json"
SEED = 61
# Steps replayed per workload: 5,000 shop frames, 1,200 telemetry, 800 churn.
STEPS = {ShopSession: 200, FleetTelemetry: 300, FleetChurn: 200}
NAMED_SHOP_STEPS = 40  # 1,000 frames
DUMP_DEPTHS = range(9)
LINE_HASH = 8  # hex digits kept per line, to locate the first differing line


def _replay(workload, steps: int) -> list[str]:
    """Response lines of ``steps`` steps of the seeded script, each step's
    write applied after the previous step's responses, as the benchmark's
    closed-loop client does."""
    engine = workload.setup(workload.history())

    def frames():
        for step in itertools.islice(workload.steps(engine), steps):
            if step.write is not None:
                step.write()
            for frame in step.frames:
                yield frame.line

    out = io.StringIO()
    serve(engine, frames(), out)
    return out.getvalue().splitlines()


def _shop_dump_lines() -> list[str]:
    """One line per header field, cause, symptom, edge and truncation of the
    shop's causality dump at each depth limit."""
    engine = Engine.from_files(data.path("astronomy_shop_env.json"),
                               data.path("astronomy_shop_codebook.json"))
    lines = []
    for depth in DUMP_DEPTHS:
        dump = dump_graph(instantiate(engine.topology, engine.codebook, max_depth=depth),
                          engine.codebook)
        lines.append(f"max_depth={depth}")
        for key, value in dump.items():
            items = value if isinstance(value, list) else [value]
            lines.extend(f"{key} {json.dumps(item)}" for item in items)
    return lines


def _named_shop_lines() -> list[str]:
    """The shop script against the shop with every entity named other than
    its id (its id in capitals), so that answers carry the names."""
    workload = ShopSession(SEED)
    env = json.loads(workload.env_text)
    for entity in env["entities"]:
        entity["name"] = entity["id"].upper()
        assert entity["name"] != entity["id"]
    workload.env_text = json.dumps(env)
    return _replay(workload, NAMED_SHOP_STEPS)


SOURCES = {cls.name: (lambda cls=cls: _replay(cls(SEED), STEPS[cls])) for cls in STEPS}
SOURCES["shop-dump"] = _shop_dump_lines
SOURCES["shop-named"] = _named_shop_lines


def _line_hash(line: str) -> str:
    return hashlib.sha256(line.encode() + b"\n").hexdigest()[:LINE_HASH]


def _record(lines: list[str]) -> dict:
    return {"lines": len(lines),
            "sha256": hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest(),
            "line_hashes": "".join(map(_line_hash, lines))}


@pytest.mark.parametrize("name", list(SOURCES))
def test_answers_match_the_committed_digest(name):
    expected = json.loads(DIGESTS.read_text())[name]
    lines = SOURCES[name]()
    got = _record(lines)
    if got["sha256"] == expected["sha256"]:
        return
    known = expected["line_hashes"]
    known = [known[i:i + LINE_HASH] for i in range(0, len(known), LINE_HASH)]
    first = next((i for i, (old, line) in enumerate(zip(known, lines))
                  if old != _line_hash(line)), min(len(known), len(lines)))
    shown = lines[first] if first < len(lines) else "<no line: the replay ended early>"
    pytest.fail(f"{name}: answers changed. {got['lines']} lines (expected "
                f"{expected['lines']}); first differing line {first}:\n{shown[:2000]}\n"
                f"new sha256 {got['sha256']}")


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({name: _record(source()) for name, source in SOURCES.items()},
                                  indent=1) + "\n")
    print(f"wrote {DIGESTS}")
