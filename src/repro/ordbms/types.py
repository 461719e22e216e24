"""Column types for the ORDBMS substrate.

The engine supports a deliberately small set of scalar types — the ones the
NETMARK generated schema (Fig 5 of the paper) actually needs: integers,
floats, strings (``VARCHAR``/``CLOB``), timestamps, and ``ROWID`` values
used for the parent/sibling physical links that make tree traversal fast.

Types are represented as singleton :class:`DataType` instances; columns
reference them by object identity.  Each type answers one question per
value — :meth:`DataType.validate`: the value as it is stored, or a
:class:`~repro.errors.TypeMismatchError` — which keeps the table layer
free of per-type branching.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any

from repro.errors import TypeMismatchError
from repro.ordbms.rowid import RowId


class DataType:
    """A scalar column type.

    Parameters
    ----------
    name:
        SQL-ish display name, e.g. ``"INTEGER"``.
    pytype:
        The Python type values of this column type are stored as.
    """

    def __init__(self, name: str, pytype: type) -> None:
        self.name = name
        self._pytype = pytype

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
INTEGER = DataType("INTEGER", int)
FLOAT = _FloatType("FLOAT", float)
VARCHAR = DataType("VARCHAR", str)
#: Large text values (node data); identical semantics to VARCHAR here but
#: kept distinct so the catalog mirrors the paper's Oracle schema.
CLOB = DataType("CLOB", str)
TIMESTAMP = _TimestampType("TIMESTAMP", _dt.datetime)
ROWID = DataType("ROWID", RowId)

ALL_TYPES: tuple[DataType, ...] = (INTEGER, FLOAT, VARCHAR, CLOB, TIMESTAMP, ROWID)
