"""One declarative checker for the ``repro.*/v1`` JSON documents.

Each document kind writes its schema as data, and :func:`validate`
walks it.  A schema is one of:

* a Python type: ``int``, ``float`` (any number), ``str``, ``bool``,
  ``dict`` (any object) or ``list`` (any list).  ``bool`` is never a
  number, so ``True`` fails an ``int`` or ``float`` field;
* a ``dict`` of required keys, each mapped to its value's schema.
  Keys the schema does not name are ignored; wrap a value's schema in
  :class:`Opt` when its key may be absent;
* ``[item]``: a list whose every element matches ``item``;
* :class:`Null`: the value may also be JSON null;
* :class:`Each`: an object used as a map, every value matching;
* :class:`Rule`: a schema plus checks run once the value matches it.
  The ranges below (:data:`COUNT`, :data:`FRACTION`, :data:`POSITIVE`,
  :func:`one_of`, ...) are rules, and so are the cross-field rules a
  document attaches to an object.

The first mismatch raises ``ReproError("invalid <kind> document at
<json-path>: <message>")``.  The path names the offending field, so a
CI smoke job reports exactly what drifted.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..errors import ReproError

#: A check takes a value that already matched its schema and returns
#: None, or ``(suffix, message)``.  The suffix extends the value's
#: path: ``""`` for the value itself, ``".key"`` for one of its fields.
Check = Callable[[object], Optional[Tuple[str, str]]]

_NAMES = {int: "int", float: "a number", str: "a string", bool: "a bool",
          dict: "an object", list: "a list"}


class _Wrap:
    __slots__ = ("schema",)

    def __init__(self, schema) -> None:
        self.schema = schema


class Null(_Wrap):
    """The value matches ``schema`` or is JSON null."""


class Opt(_Wrap):
    """The key may be absent from its object; if present, it matches."""


class Each(_Wrap):
    """An object used as a map: every value matches ``schema``."""


class Rule:
    """``schema`` plus checks run, in order, on a value matching it."""

    __slots__ = ("schema", "checks")

    def __init__(self, schema, *checks: Check) -> None:
        self.schema = schema
        self.checks = checks


def _matches(value: object, kind: type) -> bool:
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def validate(doc: object, schema, kind: str, path: str = "$") -> None:
    """Check ``doc`` against ``schema``; raise on the first mismatch.

    ``kind`` names the document in the error ("serve", "cluster", ...)
    and ``path`` is the JSON path of ``doc`` itself.
    """
    _walk(doc, schema, path, kind)


def _fail(kind: str, at: str, message: str) -> None:
    raise ReproError(f"invalid {kind} document at {at}: {message}")


def _walk(value: object, schema, path: str, kind: str) -> None:
    """Check one value.  Module-level rather than a closure: a nested
    recursive function refers to itself through its closure cell, so
    every call would leave a reference cycle for the collector."""
    if isinstance(schema, Null):
        if value is None:
            return
        schema = schema.schema
    elif value is None:
        _fail(kind, path, "must not be null")
    if isinstance(schema, Rule):
        _walk(value, schema.schema, path, kind)
        for check in schema.checks:
            error = check(value)
            if error is not None:
                _fail(kind, path + error[0], error[1])
    elif isinstance(schema, dict):
        _walk(value, dict, path, kind)
        for key, sub in schema.items():
            if isinstance(sub, Opt):
                if key not in value:
                    continue
                sub = sub.schema
            elif key not in value:
                _fail(kind, f"{path}.{key}", "missing required field")
            _walk(value[key], sub, f"{path}.{key}", kind)
    elif isinstance(schema, list):
        _walk(value, list, path, kind)
        for i, item in enumerate(value):
            _walk(item, schema[0], f"{path}[{i}]", kind)
    elif isinstance(schema, Each):
        _walk(value, dict, path, kind)
        for key, item in value.items():
            _walk(item, schema.schema, f"{path}.{key}", kind)
    elif not _matches(value, schema):
        _fail(kind, path, f"expected {_NAMES[schema]}, "
                          f"got {type(value).__name__}")


# ---------------------------------------------------------------------------
# ranges
# ---------------------------------------------------------------------------

def at_least(lo, kind: type = int) -> Rule:
    """A ``kind`` value no smaller than ``lo``."""
    return Rule(kind, lambda v: ("", f"must be >= {lo}, got {v}")
                if v < lo else None)


def between(lo, hi, kind: type = float) -> Rule:
    """A ``kind`` value inside the closed interval ``[lo, hi]``."""
    return Rule(kind, lambda v: None if lo <= v <= hi
                else ("", f"must be in [{lo}, {hi}], got {v}"))


def positive(kind: type = float) -> Rule:
    """A ``kind`` value strictly above zero."""
    return Rule(kind, lambda v: ("", "must be positive") if v <= 0 else None)


def one_of(what: str, choices) -> Rule:
    """A string drawn from ``choices``; ``what`` names it in errors."""
    return Rule(str, lambda v: None if v in choices
                else ("", f"unknown {what} {v!r}"))


def const(expected: str) -> Rule:
    """Exactly the string ``expected`` (a document's schema version)."""
    return Rule(str, lambda v: None if v == expected
                else ("", f"expected {expected!r}, got {v!r}"))


def of_length(n: int, schema, message: str) -> Rule:
    """``schema`` (a list) holding exactly ``n`` entries."""
    return Rule(schema, lambda v: None if len(v) == n else ("", message))


def non_empty(schema, message: str = "must not be empty") -> Rule:
    """``schema`` (a list or object) holding at least one entry."""
    return Rule(schema, lambda v: None if v else ("", message))


COUNT = at_least(0)                  #: an int >= 0
NON_NEGATIVE = at_least(0, float)    #: a number >= 0
FRACTION = between(0, 1)             #: a number in [0, 1]
POSITIVE = positive()                #: a number > 0

#: The ``metrics`` block of a document that only requires the three
#: registry families to be present.
METRIC_FAMILIES = {"counters": dict, "gauges": dict, "histograms": dict}
