"""The one JSON form of the frozen-dataclass documents (fault plans,
hunt genomes, QoS policies), stated once:

- each field is a key; a nested dataclass is an object, a tuple a list,
  an :class:`~enum.Enum` member its name;
- ``inf`` is the string ``"inf"`` (``json.dumps`` would write the
  non-standard ``Infinity``), read back as a float only in float-typed
  fields, so a string field holding ``"inf"`` stays a string;
- finite numbers pass through untouched, keeping int-vs-float and every
  float's bits;
- decoding requires every field (a missing one is a ConfigError naming
  the class and the field) and ignores keys that name no field;
- a scalar must have its field's type — ``bool``, ``int``, ``float`` or
  ``str``, where a ``bool`` is not an int and an int is a float — and a
  tuple field a list; anything else is a ConfigError naming the field.

Schema-version stamps and gates belong to the document classes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import typing

from repro.common.errors import ConfigError


def to_payload(obj):
    """The JSON-ready form of a dataclass instance (or any value in one)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_payload(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_payload(item) for item in obj]
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    return obj


def from_payload(cls, payload):
    """Inverse of :func:`to_payload`: build ``cls`` from ``payload``."""
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{cls.__name__} payload must be an object, got {payload!r}"
        )
    values = {}
    for name, hint in _field_types(cls):
        if name not in payload:
            raise ConfigError(f"{cls.__name__} payload is missing {name!r}")
        values[name] = _decode(hint, payload[name],
                               f"{cls.__name__}.{name}")
    return cls(**values)


@functools.lru_cache(maxsize=None)
def _field_types(cls):
    # Resolves the postponed (string) annotations of ``cls``'s module.
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


#: Scalar field type -> the JSON value types it accepts.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _decode(hint, value, where: str):
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint)
                   if arg is not type(None)]
        return _decode(hint, value, where)
    if origin is tuple:  # Tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_decode(item, v, where) for v in value)
    if dataclasses.is_dataclass(hint):
        return from_payload(hint, value)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint[value]
        except (KeyError, TypeError):
            raise ConfigError(f"unknown {hint.__name__} {value!r}") from None
    if hint is float and value == "inf":
        return math.inf
    accepted = _SCALARS.get(hint)
    if accepted is not None and (
            not isinstance(value, accepted)
            or (isinstance(value, bool) and hint is not bool)):
        raise ConfigError(
            f"{where} must be {hint.__name__}, got {value!r}"
        )
    return value
