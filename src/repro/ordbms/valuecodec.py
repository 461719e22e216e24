"""The value escape: the one escaping layer of the log and the dump.

A logged or dumped row image is its columns' text forms (written by
their types, :mod:`repro.ordbms.types`) joined on tabs, as a WAL record
joins its fields.  :func:`escape` removes from text every character a
layout splits on — backslash, tab, newline, carriage return — so no
image is escaped again and a space is one byte; a whole ``~`` (NULL) or
``.`` (the WAL's absent image) is escaped too.  :func:`unescape_value`
inverts it and refuses an escape it never writes.  :func:`unescape`
reads the lenient escapes of ``ATTRS`` and ``METADATA`` text.
"""

from __future__ import annotations

import re

from repro.errors import DatabaseError

#: The text forms of NULL, and of a value that would read as a token.
NULL = "~"
_TOKENS = frozenset({NULL, "."})

#: What a row image's columns and a WAL record's fields are joined on.
SEPARATOR = "\t"


def escape(text: str) -> str:
    """Escape backslash, tab, newline and carriage return; a whole
    ``~`` or ``.`` becomes ``\\~`` / ``\\.``."""
    if text in _TOKENS:
        return "\\" + text
    return (
        text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        .replace("\r", "\\r")
    )


#: What an escaped character stands for in a value's text.
_VALUE_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "~": "~", ".": "."}


#: An escape: a backslash and the one character after it, whatever it
#: is, or none at the end of the text.
_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)


def unescape(text: str, escapes: dict[str, str]) -> str:
    """Invert a column-internal escaping given its map (unknown escapes
    pass the char through, a trailing lone backslash stays).  Text with
    no backslash comes back as it is."""
    if "\\" not in text:
        return text
    return _ESCAPE.sub(lambda match: escapes.get(match[1], match[1] or "\\"), text)


def unescape_value(text: str) -> str:
    """Invert :func:`escape`; an escape it never writes is a
    :class:`~repro.errors.DatabaseError`."""
    if "\\" not in text:
        return text
    return _ESCAPE.sub(_unescaped, text)


def _unescaped(match: re.Match[str]) -> str:
    try:
        return _VALUE_ESCAPES[match[1]]
    except KeyError:  # an unknown letter, or a lone backslash at the end
        raise DatabaseError(f"bad escape {match[0]!r} in a stored value") from None
