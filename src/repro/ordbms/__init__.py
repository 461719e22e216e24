"""Object-relational DBMS substrate.

A from-scratch, in-process database engine standing in for the Oracle
ORDBMS underneath the paper's NETMARK XML Store.  It provides exactly the
primitives NETMARK's design exploits:

* heap tables with stable **physical ROWIDs** and O(1) fetch-by-rowid,
* B+tree secondary indexes,
* an inverted **text index** (the Oracle Text substitute),
* single-writer statements, each one WAL record over every table it
  touches.

Entry point: :class:`Database`.
"""

from repro.ordbms.btree import BTreeIndex
from repro.ordbms.catalog import Catalog
from repro.ordbms.database import Database, DatabaseStats
from repro.ordbms.mvcc import ABSENT, MvccState, Snapshot
from repro.ordbms.recovery import RecoveryResult, recover
from repro.ordbms.rowid import RowId
from repro.ordbms.schema import Column, TableSchema
from repro.ordbms.snapshot import dump_database, load_database
from repro.ordbms.table import Table
from repro.ordbms.textindex import STOPWORDS, TextIndex, tokenize
from repro.ordbms.types import (
    ALL_TYPES,
    CLOB,
    FLOAT,
    INTEGER,
    ROWID,
    TIMESTAMP,
    VARCHAR,
    DataType,
)
from repro.ordbms.wal import (
    FileLogDevice,
    LogDevice,
    MemoryLogDevice,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "ABSENT",
    "ALL_TYPES",
    "BTreeIndex",
    "CLOB",
    "Catalog",
    "Column",
    "Database",
    "DatabaseStats",
    "DataType",
    "FLOAT",
    "FileLogDevice",
    "INTEGER",
    "LogDevice",
    "MemoryLogDevice",
    "MvccState",
    "ROWID",
    "RecoveryResult",
    "RowId",
    "STOPWORDS",
    "Snapshot",
    "TIMESTAMP",
    "Table",
    "TableSchema",
    "TextIndex",
    "VARCHAR",
    "WalRecord",
    "WriteAheadLog",
    "dump_database",
    "load_database",
    "recover",
    "tokenize",
]
