"""Exception hierarchy, and the one located walk every input document goes
through: an entry's refusal is located at ``key[i]``, an inner location joined
after it (``root_causes[0].local_symptoms[1]``), a section's at its key, an
observation stream's at ``line N``, and a whole document's nowhere."""

from __future__ import annotations

import json


class EngineError(Exception):
    """Base class for every error the engine raises deliberately."""


class DocumentError(EngineError):
    """A document (environment, codebook, scenario, observations) failed to
    parse or validate: ``message`` at ``location``, the offending element."""

    def __init__(self, message: str, location: str | None = None):
        self.message = message
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


class UnknownIdError(EngineError):
    """A referenced entity, cause, symptom, or attribute does not exist."""


class DuplicateIdError(EngineError):
    """An insert collided with an existing id."""


class CycleError(EngineError):
    """A dependency edge would close a cycle in a graph required to be acyclic."""


def _at(location: str, exc: EngineError) -> DocumentError:
    inner = getattr(exc, "location", None)
    return DocumentError(getattr(exc, "message", str(exc)),
                         location if inner is None else f"{location}.{inner}")


def located(location: str, parse, *args):
    """``parse(*args)``, any EngineError re-raised as a DocumentError at ``location``."""
    try:
        return parse(*args)
    except EngineError as exc:
        raise _at(location, exc) from None


def walk(parse, items, key: str) -> list:
    """``[parse(item) for item in items]``, in one ``try``: an EngineError from
    entry ``i`` is re-raised as a DocumentError at ``key[i]``, a non-array at ``key``."""
    if not isinstance(items, (list, tuple)):
        raise DocumentError(f"{key!r} must be an array", location=key)
    out: list = []
    try:
        for item in items:
            out.append(parse(item))
    except EngineError as exc:
        raise _at(f"{key}[{len(out)}]", exc) from None
    return out


def parse_document(document, what: str, schema: str | None = None) -> dict:
    """A JSON object from text or an already-parsed value; given ``schema``, it must declare it."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"malformed {what} document: {exc}") from None
    if not isinstance(document, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    if schema is not None and document.get("schema") != schema:
        raise DocumentError(f"expected schema {schema!r}, got {document.get('schema')!r}",
                            location="schema")
    return document
