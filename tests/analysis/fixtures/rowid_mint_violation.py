"""Analyzed as src/repro/query/shortcut.py: minting a raw ROWID."""

from repro.ordbms import RowId


def guess_sibling(rowid: RowId) -> RowId:
    return RowId(rowid + 1)  # line 7
