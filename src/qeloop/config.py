"""One codec between the run-config dataclasses and JSON-shaped dicts.

``encode`` turns a config dataclass into nested plain dicts; enum-keyed
mappings are keyed by member name. ``decode`` reads such a dict back onto a
base instance, driven by the dataclass fields and their type hints:

- only the keys given are overlaid, so a section given in part keeps the
  base's values (the parent field's own default) for everything else;
- a key that names no field, or no member of an enum-keyed mapping, raises
  ``UnknownConfigKey`` with its full dotted path;
- values are type-checked, never coerced into shape: ints reject bools,
  strings and non-integral numbers, bools accept only booleans, floats
  accept ints and floats, strings accept only strings, and a section must
  be an object. A mismatch raises ``ConfigTypeError`` with its path.

Decoding checks shape only; ranges are each section's ``validate()``.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping
from enum import Enum


class UnknownConfigKey(Exception):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown config key {key!r}")


class ConfigTypeError(ValueError):
    def __init__(self, key: str, expected: str, value: object):
        self.key = key
        self.problem = f"expected {expected}, got {value!r}"
        super().__init__(f"{key or 'config'}: {self.problem}")


_SCALARS = {
    bool: lambda v: isinstance(v, bool),
    int: lambda v: isinstance(v, int) or (isinstance(v, float) and v.is_integer()),
    float: lambda v: isinstance(v, (int, float)),
    str: lambda v: isinstance(v, str),
}


def encode(value):
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {(k.name if isinstance(k, Enum) else k): encode(v) for k, v in value.items()}
    return value


def _entries(raw, path: str):
    if not isinstance(raw, Mapping):
        raise ConfigTypeError(path, "an object", raw)
    return [(key, f"{path}.{key}" if path else key, value) for key, value in raw.items()]


def decode(tp, raw, base, path: str = ""):
    """``base`` with the entries of ``raw`` decoded over it, as type ``tp``."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        changes = {}
        for key, key_path, value in _entries(raw, path):
            if key not in hints:
                raise UnknownConfigKey(key_path)
            changes[key] = decode(hints[key], value, getattr(base, key), key_path)
        return dataclasses.replace(base, **changes)
    if typing.get_origin(tp) is Mapping:
        enum, value_type = typing.get_args(tp)
        out = dict(base)
        for name, key_path, value in _entries(raw, path):
            if name not in enum.__members__:
                raise UnknownConfigKey(key_path)
            out[enum[name]] = decode(value_type, value, out.get(enum[name]), key_path)
        return out
    if isinstance(raw, bool) and tp is not bool or not _SCALARS[tp](raw):
        raise ConfigTypeError(path, tp.__name__, raw)
    return tp(raw)


class ConfigCodec:
    """``to_dict``/``from_dict`` for a config dataclass; ``from_dict``
    overlays the given keys onto the type's own defaults."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, raw: Mapping):
        return decode(cls, raw, cls())
