"""Whole-file replacement, and the JSON writer of knowledge snapshots.

``atomic_open``: a reader of the path sees the old file or the new one,
never a part of the new one. ``dump_json``: the bytes ``json.dump`` writes
with ``sort_keys=True``, produced with the stdlib's C encoder instead of
its pure-Python one. Knowledge snapshots, written with ``indent=2``, are its
only user; a checkpoint holds no indent, so ``json.dumps`` writes it whole
with the C encoder.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from typing import IO, Callable, Iterable, Iterator

_CONTAINERS = (dict, list, tuple)


@contextmanager
def atomic_open(path) -> Iterator[IO[str]]:
    """Yield a text file that replaces ``path`` once the block completes.

    The data goes to a temporary file beside ``path``, which ``os.replace``
    then moves over it. If the block raises, the temporary file is removed
    and ``path`` keeps its previous bytes. This guards against a process
    failing mid-write; without an fsync it does not guard against power loss.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def dump_json(obj, fh: IO[str], indent: int | None = None) -> None:
    """Write ``obj`` to ``fh`` byte for byte as ``json.dump`` writes it
    with ``sort_keys=True`` and the same ``indent``.

    ``json.dump`` runs the pure-Python encoder on every value; only a
    one-shot encode without ``indent`` runs the C encoder. So this walks
    the dicts and lists itself and hands each container that holds no
    container (a leaf, such as a list of floats) to the C encoder in one
    call, with the item separator that carries the indentation. The
    document is written one container at a time and never held whole.
    A leaf object met again at the same depth is written as the text of its
    first encoding, so a leaf shared by many records is encoded twice at most.
    Values and keys ``json.dump`` cannot write raise the same ``TypeError``.
    """
    _Writer(fh.write, indent).dump(obj, 0)


def shared_tolist(rows: Iterable) -> list[list]:
    """``row.tolist()`` of each array in ``rows``, which share one dtype and
    shape; arrays with the same bytes share one list. Comparing bytes keeps
    ``-0.0`` and ``0.0`` apart. Treat the lists as read-only."""
    lists: dict[bytes, list] = {}
    out = []
    for row in rows:
        key = row.tobytes()
        values = lists.get(key)
        if values is None:
            values = lists[key] = row.tolist()
        out.append(values)
    return out


class _Writer:
    def __init__(self, write: Callable[[str], object], indent: int | None):
        self._write = write
        self._indent = indent
        # Per nesting depth: (text after an opening bracket, item separator,
        # text before a closing bracket, leaf encoder).
        self._levels: list[tuple[str, str, str, json.JSONEncoder]] = []
        # Leaf containers by (id, depth): None once met, their text once met
        # twice. The caller holds the document for the whole dump, so an id
        # names one object throughout it.
        self._leaves: dict[tuple[int, int], str | None] = {}
        # A str dict key -> its JSON text and the ": " after it.
        self._keys: dict[str, str] = {}

    def _level(self, depth: int) -> tuple[str, str, str, json.JSONEncoder]:
        while len(self._levels) <= depth:
            if self._indent is None:
                opening, sep, closing = "", ", ", ""
            else:
                opening = "\n" + " " * (self._indent * (len(self._levels) + 1))
                sep, closing = "," + opening, "\n" + " " * (self._indent * len(self._levels))
            encoder = json.JSONEncoder(sort_keys=True, separators=(sep, ": "))
            self._levels.append((opening, sep, closing, encoder))
        return self._levels[depth]

    def dump(self, value, depth: int) -> None:
        opening, sep, closing, encoder = self._level(depth)
        if isinstance(value, dict):
            children = value.values()
        elif isinstance(value, (list, tuple)):
            children = value
        else:
            self._write(encoder.encode(value))
            return
        if not value:
            self._write("{}" if isinstance(value, dict) else "[]")
            return
        write = self._write
        memo = (id(value), depth)
        text = self._leaves.get(memo)
        if text is not None:
            write(text)
            return
        # A leaf container is one C-encoder call; its items come out
        # separated and indented, so only the brackets need their newlines.
        if not any(issubclass(t, _CONTAINERS) for t in set(map(type, children))):
            text = encoder.encode(value)
            text = f"{text[0]}{opening}{text[1:-1]}{closing}{text[-1]}"
            self._leaves[memo] = text if memo in self._leaves else None
            write(text)
            return
        if isinstance(value, dict):
            write("{" + opening)
            for i, (key, child) in enumerate(sorted(value.items())):
                if i:
                    write(sep)
                write(self._key(key, encoder))
                self.dump(child, depth + 1)
            write(closing + "}")
        else:
            write("[" + opening)
            for i, child in enumerate(value):
                if i:
                    write(sep)
                self.dump(child, depth + 1)
            write(closing + "]")

    def _key(self, key, encoder: json.JSONEncoder) -> str:
        if not isinstance(key, str):
            return encoder.encode(_key_text(key)) + ": "
        text = self._keys.get(key)
        if text is None:
            text = self._keys[key] = encoder.encode(key) + ": "
        return text


def _key_text(key) -> str:
    """A dict key as ``json.dump`` spells it: strings as they are, floats,
    ints, booleans and ``None`` as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
