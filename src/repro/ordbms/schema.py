"""Table and column definitions for the ORDBMS substrate.

A :class:`TableSchema` is a named, ordered collection of :class:`Column`
definitions plus optional primary-key and unique constraints.  Schemas are
immutable after construction; the catalog owns the mapping from names to
schemas.

Only the features the NETMARK generated schema needs are implemented:
scalar columns, NOT NULL, a single-column primary key, unique constraints,
and defaults.  Foreign keys are declared (so the catalog can describe the
``DOC_ID`` relationship in Fig 5) but enforcement is optional per table,
because NETMARK bulk-loads parent and child rows in one transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import SchemaError, TypeMismatchError
from repro.ordbms.types import DataType


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Parameters
    ----------
    name:
        Column name; matched case-insensitively but stored upper-case to
        mirror the Oracle convention used throughout the paper's Fig 5.
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
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")
        object.__setattr__(self, "name", self.name.upper())


@dataclass(frozen=True)
class ForeignKey:
    """A declared (not necessarily enforced) foreign-key relationship."""

    column: str
    ref_table: str
    ref_column: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "column", self.column.upper())
        object.__setattr__(self, "ref_table", self.ref_table.upper())
        object.__setattr__(self, "ref_column", self.ref_column.upper())


@dataclass(frozen=True)
class TableSchema:
    """An immutable table definition."""

    name: str
    columns: tuple[Column, ...]
    primary_key: str | None = None
    unique: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()
    _index: Mapping[str, int] = field(default_factory=dict, repr=False, compare=False)

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
        if self.primary_key is not None:
            object.__setattr__(self, "primary_key", self.primary_key.upper())
            if self.primary_key not in index:
                raise SchemaError(
                    f"primary key {self.primary_key} is not a column of {self.name}"
                )
        normalized_unique = tuple(u.upper() for u in self.unique)
        object.__setattr__(self, "unique", normalized_unique)
        for unique_col in normalized_unique:
            if unique_col not in index:
                raise SchemaError(
                    f"unique column {unique_col} is not a column of {self.name}"
                )
        for fk in self.foreign_keys:
            if fk.column not in index:
                raise SchemaError(
                    f"foreign key column {fk.column} is not a column of {self.name}"
                )

    # -- lookups ---------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._index)

    def has_column(self, name: str) -> bool:
        return name.upper() in self._index

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._index[name.upper()]]
        except KeyError:
            raise SchemaError(
                f"table {self.name} has no column {name.upper()!r}"
            ) from None

    def position(self, name: str) -> int:
        """Return the ordinal position of a column (0-based)."""
        try:
            return self._index[name.upper()]
        except KeyError:
            raise SchemaError(
                f"table {self.name} has no column {name.upper()!r}"
            ) from None

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    # -- row shaping -----------------------------------------------------

    def make_row(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """Validate a column->value mapping into a positional row tuple.

        Unknown columns raise; missing columns take their default; NOT NULL
        is enforced after defaulting; every value is validated against the
        column type.
        """
        provided = {key.upper(): value for key, value in values.items()}
        for key in provided:
            if key not in self._index:
                raise SchemaError(f"table {self.name} has no column {key!r}")
        row: list[Any] = []
        for column in self.columns:
            value = provided.get(column.name, column.default)
            value = column.dtype.validate(value, column.name)
            if value is None and not column.nullable:
                raise TypeMismatchError(
                    f"column {self.name}.{column.name} is NOT NULL"
                )
            row.append(value)
        return tuple(row)

    def row_to_dict(self, row: Sequence[Any]) -> dict[str, Any]:
        """Convert a positional row tuple back to a column->value dict."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row width {len(row)} does not match table {self.name} "
                f"width {len(self.columns)}"
            )
        return dict(zip(self._index, row))  # keys are in column order
