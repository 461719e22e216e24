"""Column types for the ORDBMS substrate.

The engine supports a deliberately small set of scalar types — the ones the
NETMARK generated schema (Fig 5 of the paper) actually needs: integers,
floats, strings (``VARCHAR``/``CLOB``), timestamps, and ``ROWID`` values
used for the physical parent link that makes the upward hop fast.

Types are represented as singleton :class:`DataType` instances; columns
reference them by object identity.  Each type answers one question per
value — :meth:`DataType.validate`: the value as it is stored, or a
:class:`~repro.errors.TypeMismatchError` — which keeps the table layer
free of per-type branching.  Each also owns its text form, the one the
WAL and the dump write (:attr:`DataType.encode` / :attr:`DataType.decode`):
a logged value carries no tag, its column says what it is.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Callable

from repro.errors import TypeMismatchError
from repro.ordbms.rowid import RowId
from repro.ordbms.valuecodec import escape, unescape_value


class DataType:
    """A scalar column type.

    Parameters
    ----------
    name:
        SQL-ish display name, e.g. ``"INTEGER"``.
    pytype:
        The Python type values of this column type are stored as.
    encode, decode:
        A stored (non-NULL) value's text form and back: ``decode``
        answers a value of exactly ``pytype``, or raises ``ValueError``
        or a :class:`~repro.errors.DatabaseError`.
    """

    def __init__(
        self, name: str, pytype: type, encode: Callable[[Any], str], decode: Callable[[str], Any]
    ) -> None:
        self.name, self._pytype, self.encode, self.decode = name, pytype, encode, decode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataType({self.name})"

    def validate(self, value: Any, column: str = "?") -> Any:
        """Return ``value`` as it is stored, or raise.

        ``None`` is always accepted here; NOT NULL enforcement is the
        table layer's job because it depends on the column definition,
        not the type.  bool is an int subclass but almost always a
        caller bug, so no type stores one.  A value of exactly the type
        passes on one identity test.
        """
        if value is None or type(value) is self._pytype or (
            isinstance(value, self._pytype) and not isinstance(value, bool)
        ):
            return value
        raise TypeMismatchError(
            f"column {column!r} expects {self.name}, got "
            f"{type(value).__name__} ({value!r})"
        )


class _FloatType(DataType):
    def validate(self, value: Any, column: str = "?") -> Any:
        if isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return super().validate(value, column)


class _TimestampType(DataType):
    def validate(self, value: Any, column: str = "?") -> Any:
        if isinstance(value, str):
            try:
                return _dt.datetime.fromisoformat(value)
            except ValueError:
                pass  # not ISO text: the mismatch below says so
        return super().validate(value, column)


#: Singleton type instances, referenced by :class:`~repro.ordbms.schema.Column`.
#: An integer's text is ``int.__repr__``, never ``str()``: the ``str`` of
#: an ``IntEnum`` is its member's name on Python 3.10.
INTEGER = DataType("INTEGER", int, int.__repr__, int)
FLOAT = _FloatType("FLOAT", float, float.__repr__, float)
VARCHAR = DataType("VARCHAR", str, escape, unescape_value)
#: Large text values (node data); identical semantics to VARCHAR here but
#: kept distinct so the catalog mirrors the paper's Oracle schema.
CLOB = DataType("CLOB", str, escape, unescape_value)
TIMESTAMP = _TimestampType(
    "TIMESTAMP", _dt.datetime, _dt.datetime.isoformat, _dt.datetime.fromisoformat
)
ROWID = DataType("ROWID", RowId, RowId.encode, RowId.decode)

ALL_TYPES: tuple[DataType, ...] = (INTEGER, FLOAT, VARCHAR, CLOB, TIMESTAMP, ROWID)
