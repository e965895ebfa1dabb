"""One codec between the run-config dataclasses and JSON-shaped dicts.

``encode`` turns a config dataclass into nested plain dicts; enum-keyed
mappings are keyed by member name. ``decode`` reads such a dict back onto a
base instance, driven by the dataclass fields and their type hints:

- only the keys given are overlaid, so a section given in part keeps the
  base's values (the parent field's own default) for everything else;
- a key that names no field, or no member of an enum-keyed mapping, raises
  ``ConfigError`` with its full dotted path and the problem ``unknown key``;
- each value is read by ``domain.read_json`` as the kind of its field
  (``int``, ``float``, ``bool`` or ``str``), never coerced into shape, and a
  section must be an object. A mismatch raises ``ConfigError`` with its
  path and the reader's problem (``must be an integer, got 2.0``).

Decoding checks shape only; ranges are each section's ``validate()``, whose
``ValueError`` ``RunConfig.validate`` reports as ``ConfigError`` with the
section.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping
from enum import Enum

from .domain import InputError, read_json


class ConfigError(InputError):
    """A config, or command line, that qeloop cannot run: ``problem`` is what
    is wrong with the value at the dotted path ``key``, or with the file or
    command line as a whole when ``key`` is empty. ``qeloop`` exits 1 on it."""

    def __init__(self, key: str, problem: str):
        self.key = key
        self.problem = problem
        super().__init__(f"{key}: {problem}" if key else problem)


def encode(value):
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {(k.name if isinstance(k, Enum) else k): encode(v) for k, v in value.items()}
    return value


def _entries(raw, path: str):
    if not isinstance(raw, Mapping):
        raise ConfigError(path, f"must be an object, got {raw!r}")
    return [(key, f"{path}.{key}" if path else key, value) for key, value in raw.items()]


def decode(tp, raw, base, path: str = ""):
    """``base`` with the entries of ``raw`` decoded over it, as type ``tp``."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        changes = {}
        for key, key_path, value in _entries(raw, path):
            if key not in hints:
                raise ConfigError(key_path, "unknown key")
            changes[key] = decode(hints[key], value, getattr(base, key), key_path)
        return dataclasses.replace(base, **changes)
    if typing.get_origin(tp) is Mapping:
        enum, value_type = typing.get_args(tp)
        out = dict(base)
        for name, key_path, value in _entries(raw, path):
            if name not in enum.__members__:
                raise ConfigError(key_path, "unknown key")
            out[enum[name]] = decode(value_type, value, out.get(enum[name]), key_path)
        return out
    try:
        return read_json(raw, tp, "")
    except InputError as exc:
        raise ConfigError(path, str(exc)) from None


class ConfigCodec:
    """``to_dict``/``from_dict`` for a config dataclass; ``from_dict``
    overlays the given keys onto the type's own defaults."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, raw: Mapping):
        return decode(cls, raw, cls())
