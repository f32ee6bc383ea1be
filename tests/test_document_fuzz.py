"""Seeded single-field mutations of the bundled documents.

Each mutation sets one field (an object member or an array element, at any
depth) of the bundled environment, codebook or active-fault scenario to one
of a fixed list of JSON values, or deletes it. Every mutated document must
either load (a scenario must also run) or be refused with a located
``DocumentError``: a refusal that leaks as a ``TypeError`` or ``KeyError``,
or one that does not say where, fails here. The scenario's two file
references are not mutated, since a missing file is an ``OSError`` that the
CLI reports as such.
"""

from __future__ import annotations

import json
import random

import pytest

from cie import data
from cie.engine import Engine
from cie.errors import DocumentError
from cie.harness import load_scenario, run_scenario

VALUES = (None, True, False, 0, -1, 2, 0.5, 1e6, "", "x", [], ["x"], [1, 2], {}, {"u": 1})
DELETE = object()
FILE_REFERENCES = {("environment",), ("codebook",)}


def _paths(node, prefix=()):
    """Every field path in a JSON value, parents before their children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutations(doc, seed: int, count: int, excluded=frozenset()):
    """``count`` (path, mutated document) pairs, deterministic per seed."""
    rng = random.Random(seed)
    paths = [p for p in _paths(doc) if p not in excluded]
    for _ in range(count):
        path = rng.choice(paths)
        value = rng.choice(VALUES + (DELETE,))
        mutated = json.loads(json.dumps(doc))
        *parents, last = path
        node = mutated
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = json.loads(json.dumps(value))
        yield path, value, mutated


def _refusal(load, path, value):
    """None if ``load()`` succeeds or raises a located DocumentError; otherwise
    a line describing the leak."""
    try:
        load()
    except DocumentError as exc:
        if exc.location is None:
            return f"{path} = {value!r}: unlocated {exc}"
    except Exception as exc:  # noqa: BLE001 - any other class is the leak under test
        return f"{path} = {value!r}: {type(exc).__name__}: {exc}"
    return None


ENV = json.loads(data.path("astronomy_shop_env.json").read_text())
CODEBOOK = json.loads(data.path("astronomy_shop_codebook.json").read_text())


@pytest.mark.parametrize("seed", [1, 2])
def test_environment_mutations_load_or_are_located(seed):
    leaks = [leak for path, value, env in _mutations(ENV, seed, 250)
             if (leak := _refusal(lambda: Engine.from_documents(env, CODEBOOK), path, value))]
    assert leaks == []


@pytest.mark.parametrize("seed", [1, 2])
def test_codebook_mutations_load_or_are_located(seed):
    leaks = [leak for path, value, cb in _mutations(CODEBOOK, seed, 300)
             if (leak := _refusal(lambda: Engine.from_documents(ENV, cb), path, value))]
    assert leaks == []


@pytest.mark.parametrize("seed", [1, 2])
def test_scenario_mutations_load_or_are_located(seed, tmp_path):
    scenario = json.loads(data.scenario_path("active-fault").read_text())
    scenario["environment"] = str(data.path("astronomy_shop_env.json"))
    scenario["codebook"] = str(data.path("astronomy_shop_codebook.json"))
    mutated_file = tmp_path / "scenario.json"

    def run(doc):
        mutated_file.write_text(json.dumps(doc))
        run_scenario(load_scenario(mutated_file))

    leaks = [leak for path, value, doc in _mutations(scenario, seed, 150, FILE_REFERENCES)
             if (leak := _refusal(lambda: run(doc), path, value))]
    assert leaks == []
