"""Table and column definitions for the ORDBMS substrate.

A :class:`TableSchema` is a named, ordered collection of :class:`Column`
definitions plus an optional primary key.  Schemas are immutable after
construction; the catalog owns the mapping from names to schemas.

Only the features the NETMARK generated schema needs are implemented:
scalar columns, NOT NULL, a single-column primary key and defaults.  The
two NETMARK tables are joined by address (a DOC row's ``ROOTROWID``), not
by a declared key.

A schema also fixes the one shape a row of its table ever has
(:attr:`TableSchema.row_type`): an immutable named tuple of the columns,
in order, plus a trailing ``rowid`` — the row's own physical address.
The heap stores that object, MVCC history keeps it and every read door
hands it back; nothing is decoded or copied on the way.  Column names
are upper-case and may not start with ``_``, so neither ``rowid`` nor a
tuple method can collide with one.

A schema also writes and reads its rows' text, the WAL's and the dump's
(:meth:`TableSchema.pack` / :meth:`TableSchema.unpack`): by position,
each value by its column's type, with no per-value tag.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Mapping, Sequence

from repro.errors import DatabaseError, SchemaError, TypeMismatchError
from repro.ordbms.rowid import RowId
from repro.ordbms.types import DataType
from repro.ordbms.valuecodec import NULL


@cache
def _row_type(table: str, fields: tuple[str, ...]) -> type:
    """The row class of ``table``: interned, so a schema built again (a
    reload, a per-query scratch store) pays class creation once and its
    rows are of the class the first one's are.  One class per table,
    though the name it prints under is the same."""
    return namedtuple("Row", fields)


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Parameters
    ----------
    name:
        Column name; stored upper-case to mirror the Oracle convention
        used throughout the paper's Fig 5, which is also how the keys of
        an insert or update must spell it.
    dtype:
        One of the singleton :mod:`repro.ordbms.types` instances.
    nullable:
        Whether NULL values are permitted.
    default:
        Value used when an insert omits this column.
    """

    name: str
    dtype: DataType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        name = self.name.upper()
        # A column is a field of the row type: an identifier, and not one
        # the tuple machinery (``_make``, ``_replace``...) could own.
        if not name.isidentifier() or name.startswith("_"):
            raise SchemaError(f"invalid column name: {self.name!r}")
        object.__setattr__(self, "name", name)


@dataclass(frozen=True)
class TableSchema:
    """An immutable table definition."""

    name: str
    columns: tuple[Column, ...]
    primary_key: str | None = None
    _index: Mapping[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: The class of every stored row: the columns, then ``rowid``.
    row_type: type = field(init=False, repr=False, compare=False)
    #: Per column, in order, its type's encoders; and its decoders.
    _codecs: tuple[tuple[Any, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        object.__setattr__(self, "name", self.name.upper())
        if not self.columns:
            raise SchemaError(f"table {self.name} must have at least one column")
        index: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in index:
                raise SchemaError(
                    f"duplicate column {column.name} in table {self.name}"
                )
            index[column.name] = position
        object.__setattr__(self, "_index", index)
        object.__setattr__(
            self, "row_type", _row_type(self.name, (*index, "rowid"))
        )
        object.__setattr__(self, "_codecs", tuple(zip(*(
            (column.dtype.encode, column.dtype.decode) for column in self.columns
        ))))
        if self.primary_key is not None:
            object.__setattr__(self, "primary_key", self.primary_key.upper())
            if self.primary_key not in index:
                raise SchemaError(
                    f"primary key {self.primary_key} is not a column of {self.name}"
                )

    # -- lookups ---------------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name.upper() in self._index

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def position(self, name: str) -> int:
        """Return the ordinal position of a column (0-based)."""
        try:
            return self._index[name.upper()]
        except KeyError:
            raise SchemaError(
                f"table {self.name} has no column {name.upper()!r}"
            ) from None

    # -- row shaping -----------------------------------------------------

    def row(
        self,
        values: Mapping[str, Any],
        rowid: RowId,
        base: Sequence[Any] | None = None,
    ) -> Any:
        """The stored row at ``rowid`` for a column->value mapping.

        One pass over the columns: a column ``values`` does not name
        takes its default — or, editing ``base`` (the row an update
        replaces), what ``base`` holds — every value goes through its
        column's type rule, and NOT NULL is enforced after defaulting.
        Keys are matched as stored (upper-case); an unknown one raises.
        """
        if not values.keys() <= self._index.keys():
            unknown = next(key for key in values if key not in self._index)
            raise SchemaError(f"table {self.name} has no column {unknown!r}")
        return self.row_of_image([
            values.get(column.name, column.default if base is None else base[position])
            for position, column in enumerate(self.columns)
        ], rowid)

    def row_of_image(self, image: Sequence[Any], rowid: RowId) -> Any:
        """The stored row at ``rowid`` for an image, the columns' values
        in order — a decomposed node's, or an update's — each through its
        column's type rule and NOT NULL: a wrong one must not reach an
        index that would compare two types."""
        self._check_width(image)
        return self.row_type._make((*map(self._hold, self.columns, image), rowid))

    def pack(self, row: Sequence[Any]) -> list[str]:
        """The text form of ``row``'s columns, in order (a trailing
        ``rowid`` is not a column and is not written)."""
        return [
            NULL if value is None else encode(value)
            for encode, value in zip(self._codecs[0], row)
        ]

    def unpack(self, fields: Sequence[str], rowid: RowId) -> Any:
        """The stored row at ``rowid`` for a logged or dumped image: each
        field decoded by its column's type, which answers a value of
        exactly that type, so only NOT NULL is left to check.  A field
        its type cannot read is a :class:`~repro.errors.DatabaseError`;
        an image of the wrong width a :class:`~repro.errors.SchemaError`."""
        self._check_width(fields)
        try:
            values = [
                None if field == NULL else decode(field)
                for decode, field in zip(self._codecs[1], fields)
            ]
        except (ValueError, DatabaseError) as error:
            raise DatabaseError(f"table {self.name}: unreadable value: {error}") from None
        if None in values:  # the one rule a decoded value may still break
            for column, value in zip(self.columns, values):
                self._hold(column, value)
        values.append(rowid)
        return self.row_type._make(values)

    def _check_width(self, image: Sequence[Any]) -> None:
        if len(image) != len(self.columns):
            raise SchemaError(
                f"row width {len(image)} does not match table {self.name} "
                f"width {len(self.columns)}"
            )

    def _hold(self, column: Column, value: Any) -> Any:
        """``value`` through ``column``'s type rule and NOT NULL."""
        value = column.dtype.validate(value, column.name)
        if value is None and not column.nullable:
            raise TypeMismatchError(f"column {self.name}.{column.name} is NOT NULL")
        return value
