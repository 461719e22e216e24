"""A row's document by its parent chain: the test-side definition the
store's own map (:class:`repro.store.accessor.RunRoots`) is held to.

No node row names its document.  Here a row belongs to the document
whose DOC row's ``ROOTROWID`` names the row its ``PARENTROWID`` chain
ends at — nothing about runs, slots or the store's map is assumed.
"""

from __future__ import annotations

from typing import Any

from repro.store.schema import DOC_TABLE, XML_TABLE


def chain_root(row: Any, by_rowid: dict) -> Any:
    """The ROWID the parent chain of ``row`` ends at (a row without a
    parent), or None when a link dangles or loops."""
    seen = set()
    while row.PARENTROWID is not None:
        if row.rowid in seen:
            return None
        seen.add(row.rowid)
        row = by_rowid.get(row.PARENTROWID)
        if row is None:
            return None
    return row.rowid


def by_root(rows: list) -> dict:
    """``rows`` (in ROWID order) grouped by the ROWID their chains end at."""
    by_rowid, grouped = {row.rowid: row for row in rows}, {}
    for row in rows:
        grouped.setdefault(chain_root(row, by_rowid), []).append(row)
    return grouped


def documents(database: Any, lsn: int | None = None) -> dict[int, list]:
    """Doc id -> its XML rows in ROWID order, as of ``lsn`` (None: the heap
    as it stands): the rows whose chain ends at the root its DOC row names."""
    xml, doc = database.table(XML_TABLE), database.table(DOC_TABLE)
    grouped = by_root(list(xml.scan() if lsn is None else xml.snapshot_scan(lsn)))
    docs = doc.scan() if lsn is None else doc.snapshot_scan(lsn)
    return {entry.DOC_ID: grouped.get(entry.ROOTROWID, []) for entry in docs}


def document_rows(database: Any, doc_id: int, lsn: int | None = None) -> list:
    """Document ``doc_id``'s rows (:func:`documents`)."""
    return documents(database, lsn).get(doc_id, [])


def document_of(database: Any, row: Any, lsn: int | None = None) -> int | None:
    """The id of the document ``row`` belongs to (:func:`documents`)."""
    for doc_id, rows in documents(database, lsn).items():
        if any(held.rowid == row.rowid for held in rows):
            return doc_id
    return None
