"""One JSON writer and reader for every persisted record.

A record is a dataclass, and its fields are its file format: the class's
``TAG`` pair comes first (if it has one), then each field in field order,
under its name or ``field(metadata={"json": key})``.  Reading follows each
field's annotation.  A key is required exactly when its field has no
default, the tag must match (else UnsupportedVersionError), and a key the
class does not declare is rejected unless it is in the class's ``RETIRED``
tuple: keys older builds wrote, which this one ignores.  Leaves are
checked, not converted: a bool must be a JSON bool, an int a JSON integer,
a float any number but a bool (NaN and infinities included), and an array
must hold finite numbers only.
Every failure, a ValueError from a record's constructor included, names
the file and the key path first, e.g. ``m.json.pca.mean: could not
convert string to float: 'abc'``; a constructor's :class:`FieldError`
names the key path of the field it blames.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import types
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigError, UnsupportedVersionError

_NONE = type(None)


class FieldError(ValueError):
    """A record's own check failed on one field; the message starts with its key."""


def _got(value) -> str:
    return "null" if value is None else type(value).__name__


def _instance(kind: type, *also: type):
    """Reader of a leaf that must already be a ``kind``, or one of ``also``
    read as a ``kind``; a bool is never read as a number."""
    def read(value):
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, (kind, *also)):
            raise TypeError(f"expected {kind.__name__}, got {_got(value)}")
        return kind(value)
    return read


def _array(value) -> np.ndarray:
    """Float array of a JSON number, or of nested lists of numbers."""
    array = np.array(value, dtype=float)
    level = [value]
    while level and all(isinstance(v, list) for v in level):
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        bad = next(v for v in level if type(v) not in (int, float))
        raise TypeError(f"expected numbers, got {_got(bad)}")
    finite = np.isfinite(array)
    if not finite.all():
        at = np.unravel_index(np.argmin(finite), array.shape)
        cell = "".join(f"[{i}]" for i in at)
        raise ValueError(f"expected finite numbers, got {array[at]}" + (cell and f" at {cell}"))
    return array


# How each leaf type is read; every other annotation is a record, a list, a
# tuple or a union of these.
READERS = {
    np.ndarray: _array, int: _instance(int), float: _instance(float, int),
    bool: _instance(bool), str: _instance(str), dict: _instance(dict),
}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, dataclasses.Field, object], ...]:
    """(JSON key, field, resolved annotation) of each field of a record."""
    hints = typing.get_type_hints(cls)
    return tuple((f.metadata.get("json", f.name), f, hints[f.name])
                 for f in dataclasses.fields(cls))


@functools.cache
def _split(tp) -> tuple[object, tuple, tuple]:
    """Origin, arguments and, for a union, its members other than None."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    union = origin in (typing.Union, types.UnionType)
    return origin, args, tuple(a for a in args if a is not _NONE) if union else ()


def _element_types(args: tuple, n: int) -> tuple:
    return args[:1] * n if args[-1:] == (Ellipsis,) else args


def to_json(record) -> dict:
    """The JSON object of a record: its tag pair, then its fields."""
    doc = dict([record.TAG]) if hasattr(record, "TAG") else {}
    for key, f, tp in _fields(type(record)):
        doc[key] = _dump(tp, getattr(record, f.name))
    return doc


def _dump(tp, value):
    if value is None:
        return None
    if tp in (int, float, bool):
        return tp(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return to_json(value)
    origin, args, members = _split(tp)
    if members:
        return _dump(members[0], value)
    if origin in (list, tuple):
        kinds = _element_types(args if origin is tuple else (args[0], ...), len(value))
        return [_dump(t, v) for t, v in zip(kinds, value)]
    return value


def from_json(cls: type, doc, where: str):
    """Read a ``cls`` record from its JSON object; ``where`` (the file name,
    then the key path) starts every error message."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    keys = [key for key, _, _ in _fields(cls)]
    allowed = set(keys) | set(getattr(cls, "RETIRED", ()))
    if hasattr(cls, "TAG"):
        tag, want = cls.TAG
        if doc.get(tag) != want:
            raise UnsupportedVersionError(
                f"{where}.{tag}: got {doc.get(tag)!r}, this build reads {want!r}")
        allowed.add(tag)
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key; expected one of {keys}")
    kwargs = {}
    for key, f, tp in _fields(cls):
        if key in doc:
            kwargs[f.name] = _load(tp, doc[key], f"{where}.{key}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}.{key}: required key is missing")
    try:
        return cls(**kwargs)
    except FieldError as e:
        raise ConfigError(f"{where}.{e}") from None
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def read_json(path, error: type[Exception] = ConfigError):
    """The JSON document in the file at ``path``; a file that is not JSON
    raises ``error`` starting with the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:  # not JSON, or not UTF-8
        raise error(f"{path}: {e}") from None


def _load(tp, value, where: str):
    origin, args, members = _split(tp)
    if members and value is None and _NONE in args:
        return None
    if len(members) > 1:  # tagged records: the object's tag picks one
        tag = members[0].TAG[0]
        got = value.get(tag) if isinstance(value, dict) else None
        tagged = {m.TAG[1]: m for m in members}
        if got not in tagged:
            raise UnsupportedVersionError(
                f"{where}.{tag}: got {got!r}, this build reads one of {sorted(tagged)}")
        return from_json(tagged[got], value, where)
    if members:
        return _load(members[0], value, where)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        kinds = _element_types(args if origin is tuple else (args[0], ...), len(value))
        if len(kinds) != len(value):
            raise ConfigError(f"{where}: expected {len(kinds)} entries, got {len(value)}")
        items = [_load(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(kinds, value))]
        return items if origin is list else tuple(items)
    if tp not in READERS:
        raise TypeError(f"{where}: no JSON reader for {tp!r}")
    try:
        return READERS[tp](value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from None
