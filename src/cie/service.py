"""Machine-facing tool service over the engine.

Wire format: one JSON object per line. Requests carry ``id``, ``method``,
``params``; responses echo the id and carry either a payload or a coded
error. Six methods form the closed surface; a healthy environment, or one
whose active symptoms no modelled cause explains, returns an explicit
no-active-root-cause answer rather than an empty search. Every
response is computed from a single engine snapshot (one revision), whose
number is included in the payload for staleness checks.

Schema ``tool/3`` keeps payloads small, since their bytes are what a
calling agent pays for. ``get_blast_radius`` sends ``via``, one entry per
transitive entity but the cause's host: ``[from_entity, rule_id]`` when the
entity's path is its predecessor's path plus one hop, else the whole chain
``[e0, r1, e1, ..., e_{k-1}, r_k]``. An entry of length 2 is the
predecessor form (one-hop paths start at the host, so both forms agree),
and each hop's relation kind is its rule's. A root-cause answer sends the
sorted active symptom ids once, as ``symptoms`` in ``get_root_causes`` and
``active_symptoms`` in ``get_environment_health``; each ranked cause's
``explained`` holds ascending indexes into that list, and the symptoms it
leaves unexplained are the complement. ``best`` is a cause reference
(``cause``, ``cause_name``, ``entity``); its score and explained symptoms
are ``ranked[0]``'s. ``get_topology`` sends each relation as a
``[source, target, kind]`` triple, sorted. An entity name equal to the id
is omitted: ``name`` in ``get_topology``, ``entity_name`` in symptom and
cause summaries; so is an empty ``metadata`` in ``get_topology``.

Both team answers, ``owns_impacted`` in ``get_blast_radius`` and
``responsible`` in ``get_root_causes``, say whether the team owns a direct
entity: the cause's host or a host of one of its effect symptoms. So
``get_root_causes`` reads only those hosts and builds no blast radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json import JSONEncoder

from .engine import Engine, EngineSnapshot
from .errors import DocumentError, EngineError, UnknownIdError
from .impact import impacted_entities, owner_teams
from .topology import Entity

TOOL_SCHEMA = "tool/3"
METHODS = ("get_environment_health", "get_symptoms", "get_root_causes",
           "get_blast_radius", "check_remediation", "get_topology")

NO_ROOT_CAUSE = "no active root cause"

# A request line longer than this many characters is answered with an
# invalid_request error, unparsed.
MAX_FRAME_CHARS = 1 << 20

# Responses are standard JSON: a NaN or Infinity (which json.loads accepts,
# say as a request id) makes the encoder raise instead of writing it. Only
# json.loads, json.dumps and json.JSONDecodeError are reached through the
# module global ``json``, which the layer tracer swaps for a wrapper.
_ENCODER = JSONEncoder(allow_nan=False)


@dataclass(frozen=True, slots=True)
class ToolResponse:
    request_id: object
    status: str  # "ok" | "error"
    payload: dict | None = None
    error: dict | None = None

    def to_dict(self) -> dict:
        if self.status == "ok":
            return {"id": self.request_id, "status": "ok", "payload": self.payload}
        return {"id": self.request_id, "status": "error", "error": self.error}


class _ParamError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def handle(raw: dict, snapshot: EngineSnapshot) -> ToolResponse:
    """Dispatch one request against one snapshot; never raises."""
    request_id = raw.get("id") if isinstance(raw, dict) else None
    try:
        if not isinstance(raw, dict) or not isinstance(raw.get("method"), str):
            raise _ParamError("invalid_request", "request must carry a string 'method'")
        method = raw["method"]
        params = raw.get("params", {})
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise _ParamError("invalid_params", "'params' must be an object")
        if method not in METHODS:
            raise _ParamError("unknown_method", f"unknown method {method!r}")
        handler = _HANDLERS[method]
        payload = handler(snapshot, params)
        payload["revision"] = snapshot.revision
        return ToolResponse(request_id, "ok", payload=payload)
    except _ParamError as exc:
        return _error(request_id, exc.code, exc.message)
    except UnknownIdError as exc:
        return _error(request_id, "unknown_id", str(exc))
    except DocumentError as exc:
        return _error(request_id, "invalid_params", str(exc))
    except EngineError as exc:
        return _error(request_id, "engine_error", str(exc))
    except Exception as exc:  # the loop must survive anything
        return _error(request_id, "internal_error", f"{type(exc).__name__}: {exc}")


def _error(request_id, code: str, message: str) -> ToolResponse:
    return ToolResponse(request_id, "error", error={"code": code, "message": message})


def _scope_param(snapshot: EngineSnapshot, params: dict) -> frozenset[str] | None:
    scope = params.get("scope")
    if scope is None:
        return None
    if not isinstance(scope, list) or not all(isinstance(s, str) for s in scope):
        raise _ParamError("invalid_params", "'scope' must be a list of entity ids")
    missing = [s for s in scope if s not in snapshot.topology]
    if missing:
        raise UnknownIdError(f"unknown entities in scope: {sorted(missing)}")
    return frozenset(scope)


def _team_param(params: dict) -> str | None:
    team = params.get("team")
    if team is not None and not isinstance(team, str):
        raise _ParamError("invalid_params", "'team' must be a string")
    return team


def _cause_param(snapshot: EngineSnapshot, params: dict) -> str | None:
    """The requested cause, else the best diagnosis's, else None."""
    cause_id = params.get("cause")
    if cause_id is None:
        best = snapshot.diagnosis().best
        return best.cause_id if best else None
    if not isinstance(cause_id, str):
        raise _ParamError("invalid_params", "'cause' must be a root cause instance id")
    return cause_id


def _with_name(payload: dict, key: str, entity: Entity) -> dict:
    """``payload`` with the entity's name under ``key``, unless the name
    equals the entity id, which the payload already carries."""
    if entity.name != entity.id:
        payload[key] = entity.name
    return payload


def _symptom_summary(snapshot: EngineSnapshot, sid: str) -> dict:
    inst = snapshot.causality.symptoms[sid]
    return _with_name({"id": sid, "symptom_name": inst.symptom_name,
                       "entity": inst.host_entity},
                      "entity_name", snapshot.topology.entity(inst.host_entity))


def _cause_summary(snapshot: EngineSnapshot, entry, index: dict[str, int]) -> dict:
    inst = snapshot.causality.causes[entry.cause_id]
    return _with_name({"cause": entry.cause_id, "cause_name": inst.cause_name,
                       "entity": inst.host_entity, "score": entry.score,
                       "explained": [index[sid] for sid in entry.explained]},
                      "entity_name", snapshot.topology.entity(inst.host_entity))


def _ranked(snapshot: EngineSnapshot, diagnosis) -> list[dict]:
    """The ranked cause summaries, each cause's explained symptoms as
    ascending indexes into ``diagnosis.symptoms``."""
    index = {sid: i for i, sid in enumerate(diagnosis.symptoms)}
    return [_cause_summary(snapshot, e, index) for e in diagnosis.ranked]


def _cause_ref(snapshot: EngineSnapshot, cause_id: str) -> dict:
    inst = snapshot.causality.causes[cause_id]
    return {"cause": cause_id, "cause_name": inst.cause_name, "entity": inst.host_entity}


def _handle_health(snapshot: EngineSnapshot, params: dict) -> dict:
    scope = _scope_param(snapshot, params)
    diagnosis = snapshot.diagnosis(scope)
    root_causes = _ranked(snapshot, diagnosis)
    payload = {
        "verdict": "healthy" if not diagnosis.symptoms else "degraded",
        "scope": sorted(scope) if scope is not None else None,
        "active_symptoms": [_symptom_summary(snapshot, s) for s in diagnosis.symptoms],
        "root_causes": root_causes,
    }
    if not root_causes:
        payload["message"] = NO_ROOT_CAUSE
    return payload


def _handle_symptoms(snapshot: EngineSnapshot, params: dict) -> dict:
    scope = _scope_param(snapshot, params)
    active = snapshot.active(scope)
    return {"count": len(active.symptoms),
            "as_of": active.as_of,
            "symptoms": [_symptom_summary(snapshot, s) for s in sorted(active.symptoms)]}


def _handle_root_causes(snapshot: EngineSnapshot, params: dict) -> dict:
    scope = _scope_param(snapshot, params)
    team = _team_param(params)
    diagnosis = snapshot.diagnosis(scope)
    symptoms = list(diagnosis.symptoms)
    if diagnosis.best is None:
        payload = {"verdict": "no_active_root_cause", "symptoms": symptoms,
                   "best": None, "ranked": [], "message": NO_ROOT_CAUSE}
        if team is not None:
            payload["team"] = {"team": team, "responsible": False}
        return payload
    payload = {"verdict": "localized", "symptoms": symptoms,
               "best": _cause_ref(snapshot, diagnosis.best.cause_id),
               "ranked": _ranked(snapshot, diagnosis)}
    if team is not None:
        direct = impacted_entities(snapshot.causality, diagnosis.best.cause_id)
        owns = team in owner_teams(snapshot.topology, direct)
        payload["team"] = {"team": team, "responsible": owns}
    return payload


def _handle_blast_radius(snapshot: EngineSnapshot, params: dict) -> dict:
    team = _team_param(params)
    cause_id = _cause_param(snapshot, params)
    if cause_id is None:
        payload = {"cause": None, "direct": [], "transitive": [], "via": {},
                   "teams": [], "multi_team": False, "truncated": False,
                   "message": f"no impacted services; {NO_ROOT_CAUSE}"}
        if team is not None:
            payload["team"] = {"team": team, "owns_impacted": False}
        return payload
    radius = snapshot.blast_radius(cause_id)
    payload = {
        "cause": _cause_ref(snapshot, cause_id),
        "direct": sorted(radius.direct_entities),
        "transitive": sorted(radius.transitive_entities),
        "via": {entity: list(entry) for entity, entry in sorted(radius.via.items())},
        "teams": sorted(radius.impacted_teams),
        "multi_team": len(radius.impacted_teams) > 1,
        "truncated": bool(radius.truncations),
    }
    if team is not None:
        owns = team in owner_teams(snapshot.topology, radius.direct_entities)
        payload["team"] = {"team": team, "owns_impacted": owns}
    return payload


def _handle_remediation(snapshot: EngineSnapshot, params: dict) -> dict:
    targets = params.get("action_targets")
    if targets is None:
        single = params.get("action_target")
        targets = [single] if single is not None else None
    if (not isinstance(targets, list) or not targets
            or not all(isinstance(t, str) for t in targets)):
        raise _ParamError("invalid_params",
                          "provide 'action_target' or a non-empty 'action_targets' list")
    for target in targets:
        if target not in snapshot.topology:
            raise UnknownIdError(f"unknown entity {target!r}")
    cause_id = _cause_param(snapshot, params)
    if cause_id is None:
        return {"cause": None,
                "verdicts": [{"target": t, "aligned": None,
                              "rationale": f"{NO_ROOT_CAUSE}; nothing to align against"}
                             for t in targets]}
    verdicts = []
    for target in targets:
        verdict = snapshot.remediation(cause_id, target)
        verdicts.append({"target": target, "aligned": verdict.aligned,
                         "rationale": verdict.rationale, "path": list(verdict.path)})
    return {"cause": _cause_ref(snapshot, cause_id), "verdicts": verdicts}


def _handle_topology(snapshot: EngineSnapshot, params: dict) -> dict:
    scope = _scope_param(snapshot, params)
    graph = snapshot.topology if scope is None else snapshot.topology.scope(set(scope))
    entities = []
    for e in sorted(graph.entities.values(), key=lambda e: e.id):
        entity = {"id": e.id, "type": e.entity_type, "team": e.owner_team}
        if e.metadata:
            entity["metadata"] = dict(e.metadata)
        entities.append(_with_name(entity, "name", e))
    relations = sorted([r.source, r.target, r.kind] for r in graph.relations)
    return {"entities": entities, "relations": relations}


_HANDLERS = {
    "get_environment_health": _handle_health,
    "get_symptoms": _handle_symptoms,
    "get_root_causes": _handle_root_causes,
    "get_blast_radius": _handle_blast_radius,
    "check_remediation": _handle_remediation,
    "get_topology": _handle_topology,
}


def hello_banner(engine: Engine) -> dict:
    return {"hello": {"schema": TOOL_SCHEMA, "server": "cie",
                      "methods": list(METHODS),
                      "revision": engine.topology.revision}}


def serve(engine: Engine, input_stream, output_stream) -> int:
    """Run the newline-delimited request loop until end of input.

    One response per request, in arrival order; malformed frames (including
    ones nested too deeply to decode) produce a parse_error response and the
    loop continues. A frame longer than ``MAX_FRAME_CHARS`` is not parsed:
    it gets an invalid_request error with a null id. A response that cannot
    be written as standard JSON, such as one echoing a NaN id, is replaced by
    an invalid_request error with a null id. A closed output stream
    (BrokenPipeError) ends the loop. Returns the number of responses written.
    """
    def emit(obj: dict):
        try:
            text = _ENCODER.encode(obj)
        except (ValueError, RecursionError) as exc:
            text = _ENCODER.encode(_error(
                None, "invalid_request",
                f"response is not representable as standard JSON: {exc}").to_dict())
        output_stream.write(text + "\n")
        output_stream.flush()

    responses = 0
    try:
        emit(hello_banner(engine))
        for line in input_stream:
            line = line.strip()
            if not line:
                continue
            if len(line) > MAX_FRAME_CHARS:
                emit(_error(None, "invalid_request",
                            f"frame longer than {MAX_FRAME_CHARS} characters").to_dict())
                responses += 1
                continue
            try:
                raw = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError too
                emit(_error(None, "parse_error", f"malformed frame: {exc}").to_dict())
                responses += 1
                continue
            response = handle(raw, engine.snapshot())
            emit(response.to_dict())
            responses += 1
    except (KeyboardInterrupt, BrokenPipeError):
        pass
    return responses
