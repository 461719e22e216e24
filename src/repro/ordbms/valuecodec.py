"""Typed-value text encoding shared by snapshots and the write-ahead log.

One encoding, two consumers: :mod:`repro.ordbms.snapshot` serialises
whole heaps with it and :mod:`repro.ordbms.wal` serialises per-record row
images — recovery can only promise byte-identical restored state because
both speak exactly the same dialect.

Encoding: ``~`` NULL, ``i:<n>``, ``f:<repr>``, ``s:<escaped>``,
``t:<iso>``, ``r:<rowid>``.  Strings escape backslash, tab, newline and
carriage return, so an encoded value never contains a raw line or field
separator.  A whole row packs into a single whitespace-free token
(:func:`pack_row`): values join on raw tabs, then the joined text is
escaped *again* (backslash first, then space/tab/newline) — standard
nesting, so inner escapes and separator escapes can never collide.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Callable

from repro.errors import DatabaseError
from repro.ordbms.rowid import RowId


def escape(text: str) -> str:
    """Escape backslash, tab, newline and carriage return."""
    return (
        text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        .replace("\r", "\\r")
    )


#: What an escaped character stands for: in a value's text, in a packed row.
_TEXT_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ROW_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "s": " "}


#: An escape: a backslash and the one character after it, whatever it is.
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def unescape(text: str, escapes: dict[str, str] = _TEXT_ESCAPES) -> str:
    """Invert :func:`escape` — or, given ``escapes``, another layer's
    escaping (unknown escapes pass the char through, a trailing lone
    backslash stays).  Text with no backslash comes back as it is."""
    if "\\" not in text:
        return text
    return _ESCAPE.sub(lambda match: escapes.get(match[1], match[1]), text)


#: Each storable type's encoder, in the order a subclass is tried.
_ENCODERS: dict[type, Callable[[Any], str]] = {
    type(None): lambda value: "~",
    int: lambda value: f"i:{value}",
    float: lambda value: f"f:{value!r}",
    str: lambda value: f"s:{escape(value)}",
    _dt.datetime: lambda value: f"t:{value.isoformat()}",
    RowId: lambda value: f"r:{value.encode()}",
}


def encode_value(value: Any) -> str:
    """Encode one storable value as tagged text: by its exact type's
    encoder, else (a subclass) the first type it is an instance of."""
    encode = _ENCODERS.get(type(value))
    if encode is None and not isinstance(value, bool):  # bool: never stored
        encode = next(
            (coder for kind, coder in _ENCODERS.items() if isinstance(value, kind)), None
        )
    if encode is None:
        raise DatabaseError(f"cannot encode value of type {type(value).__name__}")
    return encode(value)


def decode_value(text: str) -> Any:
    """Invert :func:`encode_value`."""
    if text == "~":
        return None
    tag, _, body = text.partition(":")
    try:
        if tag == "i":
            return int(body)
        if tag == "f":
            return float(body)
        if tag == "t":
            return _dt.datetime.fromisoformat(body)
    except ValueError:
        raise DatabaseError(f"bad encoded value {text!r}") from None
    if tag == "s":
        return unescape(body)
    if tag == "r":
        return RowId.decode(body)
    raise DatabaseError(f"bad encoded value {text!r}")


#: Sentinel for a zero-column row image (cannot collide with real
#: payloads: every non-empty pack starts with an encoded value tag).
_EMPTY_ROW = "-"


def pack_row(values: tuple[Any, ...]) -> str:
    """Pack a whole row image into one whitespace-free token."""
    joined = "\t".join(map(encode_value, values))
    if not joined:
        return _EMPTY_ROW
    return (
        joined.replace("\\", "\\\\").replace("\t", "\\t")
        .replace("\n", "\\n").replace(" ", "\\s")
    )


def unpack_row(token: str) -> tuple[Any, ...]:
    """Invert :func:`pack_row`."""
    if token == _EMPTY_ROW:
        return ()
    joined = unescape(token, _ROW_ESCAPES)
    return tuple(decode_value(part) for part in joined.split("\t"))
