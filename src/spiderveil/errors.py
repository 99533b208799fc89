"""Exception types, the JSON value kinds, and the JSON file decoder and the
atomic file writer shared across the package."""

import json
import os
from pathlib import Path
from typing import Any, Callable, NamedTuple


class SpiderveilError(Exception):
    """Base class for domain errors raised by this package."""


class RetrievalError(SpiderveilError):
    """A data source failed to answer a request.

    Carries the number of attempts made (when raised by a transport-backed
    source).
    """

    def __init__(self, message: str, *, retries: int = 0):
        super().__init__(message)
        self.retries = retries


class NotFoundError(SpiderveilError):
    """A blogger or post id is unknown to the data source."""


class EmptyInputError(SpiderveilError):
    """An input is missing, or holds nothing to work on."""


class ScoringError(EmptyInputError):
    """A blogger or text has nothing the language model can score."""


class SelfLoopError(SpiderveilError):
    """A graph edge from a node to itself was rejected."""


class GraphFormatError(SpiderveilError):
    """A malformed input document: a serialized graph, a fixture store, or
    any other file the package reads, such as a config, model or truth file."""


class JsonKind(NamedTuple):
    """A JSON value kind: its test, its phrase in messages, its conversion."""
    test: Callable[[Any], bool]
    phrase: str
    convert: Callable[[Any], Any]


def _is_integer(value) -> bool:
    """True for an int, or a float with no fractional part, but not a bool."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _is_number(value) -> bool:
    """True for an int or float that float() can hold, but not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


# The array kinds also accept the tuple they convert to, so that a settings
# class can apply them to its defaults; JSON never yields a tuple.
INTEGER = JsonKind(_is_integer, "an integer", int)
NUMBER = JsonKind(_is_number, "a number", float)
STRING = JsonKind(lambda value: isinstance(value, str), "a string", str)
STRINGS = JsonKind(
    lambda value: isinstance(value, (list, tuple))
    and all(isinstance(item, str) for item in value),
    "an array of strings", tuple)
INTEGER_PAIR = JsonKind(
    lambda value: isinstance(value, (list, tuple)) and len(value) == 2
    and all(map(_is_integer, value)),
    "an array of two integers", lambda value: (int(value[0]), int(value[1])))
COUNT = JsonKind(
    lambda value: isinstance(value, int) and not isinstance(value, bool)
    and value >= 0,
    "a non-negative integer", int)


def read_fields(data: dict, kinds: dict[str, JsonKind], what: str) -> dict:
    """The keys of ``kinds`` present in ``data``, each checked and converted.

    Keys are read in table order; other keys are ignored.  A value that is
    not of its key's kind, null included, raises GraphFormatError naming
    the key.
    """
    fields = {}
    for key, kind in kinds.items():
        if key in data:
            if not kind.test(data[key]):
                raise GraphFormatError(f"{what}: {key!r} is not {kind.phrase}")
            fields[key] = kind.convert(data[key])
    return fields


def apply_kinds(settings, kinds: dict[str, JsonKind]) -> None:
    """Check and convert the fields of the frozen dataclass ``settings``
    named in ``kinds``, in table order.  A value not of its field's kind
    raises ValueError naming the field; each other value is replaced by its
    conversion."""
    for name, kind in kinds.items():
        value = getattr(settings, name)
        if not kind.test(value):
            raise ValueError(f"{name} must be {kind.phrase}")
        object.__setattr__(settings, name, kind.convert(value))


def parse_json(data: bytes, what: str):
    """The JSON document in ``data``; GraphFormatError naming ``what`` when
    the bytes are not UTF-8 or the text is not JSON."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{what} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{what} is not valid JSON: {exc}") from exc


def read_json(path, what: str):
    """The JSON document in the file at ``path``; an OSError passes through."""
    return parse_json(Path(path).read_bytes(), what)


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
