"""fsck for the NETMARK two-table store: verify and repair invariants.

The schema-less design buys its generality by pushing structure out of
DDL and into row values and their layout — ``PARENTROWID`` links, ROWID
order, the five-way NODETYPE vocabulary.  Nothing in the ORDBMS can
enforce those, so this module does, after the fact:

* every ``NODETYPE`` is one of the five NETMARK types;
* the XML rows in ROWID order are runs, each from a row without a parent,
  each laid out as a pre-order walk of one tree — the layout the forward
  reads (:meth:`repro.store.accessor.NodeAccessor.run`) stand on, and the
  only record of sibling order and of a row's document.  This one walk is
  the structural check: a parent that is no live row of the run, a parent
  chain that loops, a run not starting at its root all break it, and its
  report says which;
* each DOC row's ``ROOTROWID`` names a run's first row and rises with the
  DOC row's slot (one statement appends both); every run is some DOC
  row's (no orphans), every ``ROOTROWID`` a live row (no empty documents);
* derived state agrees with the rows: every B+tree and text index on
  DOC/XML — the NODEDATA index's heading postings and section members
  too — matches a fresh rebuild from the heap, and what the NODEDATA
  index says of each TEXT row's sections matches a fresh pass.

Violations found in the data are *reported*, never raised — fsck's job
is to describe damage (:class:`FsckReport`), and crashes are reserved
for misuse (:class:`~repro.errors.FsckError`, e.g. a database without
the NETMARK schema).  :func:`repair_store` rebuilds the derived subset
of that state — the indexes and the section facts — and edits no row,
so genuinely lost data (dangling parents, orphans) stays reported.

Command line::

    python -m repro.store.fsck <wal-base-path> [--repair] [--format json]

recovers the store from ``<wal-base-path>.wal``/``.ckpt`` and checks it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.errors import CatalogError, FsckError, StoreError
from repro.ordbms import Database, RowId, Table
from repro.sgml.nodetypes import NodeType
from repro.store.accessor import SectionPass
from repro.store.schema import DOC_TABLE, XML_TABLE, DocRow, XmlRow, require_netmark_schema

#: Violation codes.  Codes marked repairable concern
#: derived state that :func:`repair_store` can rebuild from the rows.
CODES = (
    "bad-node-type",
    "orphan-node",
    "empty-document",
    "doc-order",
    "btree-drift",  # repairable
    "text-index-drift",  # repairable
    "section-facts",  # repairable
)

REPAIRABLE = frozenset({"btree-drift", "text-index-drift", "section-facts"})


@dataclass(frozen=True)
class Violation:
    """One invariant breach at one site."""

    code: str
    table: str
    rowid: str  # text form of the offending row's address ("" = table-level)
    doc_id: int | None
    detail: str


@dataclass
class FsckReport:
    """Everything one check pass saw."""

    documents_checked: int = 0
    nodes_checked: int = 0
    indexes_checked: int = 0
    #: Repair actions performed before this report's check pass (only
    #: set on reports returned by :func:`repair_store`).
    repaired: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, code: str) -> int:
        return sum(1 for violation in self.violations if violation.code == code)

    def codes(self) -> set[str]:
        return {violation.code for violation in self.violations}

    def flag(self, code: str, table: str, rowid: Any, doc_id: int | None, detail: str) -> None:
        """Record one violation; ``rowid`` None for a table-level one."""
        self.violations.append(Violation(code, table, "" if rowid is None else str(rowid), doc_id, detail))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the CI artifact format)."""
        return {"ok": self.ok, **asdict(self)}

    def render_text(self) -> str:
        """Human-readable report."""
        lines = [
            f"fsck: {self.documents_checked} documents, "
            f"{self.nodes_checked} nodes, {self.indexes_checked} indexes"
        ]
        if self.repaired:
            lines.append(f"fsck: {self.repaired} repair actions applied")
        if self.ok:
            lines.append("fsck: clean")
        for violation in self.violations:
            where = violation.rowid or violation.table
            doc = f" doc={violation.doc_id}" if violation.doc_id is not None else ""
            lines.append(f"{violation.code}: {where}{doc}: {violation.detail}")
        return "\n".join(lines) + "\n"


def check_store(database: Database) -> FsckReport:
    """Run every invariant check; never mutates the database."""
    doc_table, xml_table = _netmark_tables(database)
    report = FsckReport()
    docs = list(doc_table.scan())
    report.documents_checked = len(docs)
    nodes = list(xml_table.scan())
    report.nodes_checked = len(nodes)
    by_rowid: dict[RowId, XmlRow] = {row.rowid: row for row in nodes}
    doc_of = _check_documents(report, docs, nodes, by_rowid)
    facts = None
    if report.ok:  # a pass needs sound links, in document order
        facts = _check_section_facts(report, database, by_rowid, doc_of)
    report.indexes_checked = _check_indexes(report, (doc_table, xml_table), facts)
    return report


def repair_store(database: Database) -> FsckReport:
    """Rebuild derived state, then re-check.

    Every B+tree and text index is rebuilt from the heap, and the text
    index's section facts with it; no row is edited.  Structural losses
    — dangling parents, orphaned nodes, missing roots, rows out of
    document order — are not derivable and remain in the report.
    """
    doc_table, xml_table = _netmark_tables(database)
    doc_table.rebuild_indexes()
    xml_table.rebuild_indexes()
    report = check_store(database)
    report.repaired = 2  # the two tables' rebuilds
    return report


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _netmark_tables(database: Database) -> tuple[Table, Table]:
    try:
        require_netmark_schema(database)
    except (CatalogError, StoreError) as error:
        raise FsckError(
            f"database {database.name!r} does not carry the NETMARK "
            f"schema: {error}"
        ) from error
    return database.table(DOC_TABLE), database.table(XML_TABLE)


def _check_documents(
    report: FsckReport, docs: list[DocRow], nodes: list[XmlRow], by_rowid: dict[RowId, XmlRow]
) -> Callable[[RowId], int | None]:
    """The runs — a row without a parent (or the first row) starts one —
    and their documents, as the module docstring says; answers each row's
    document.  Walking a run, its first row must be its root and every
    other row's parent on the path of still-open ancestors: so every
    parent is a live row of the run stored before its children, no chain
    loops and every subtree is contiguous.  One report per run, at the
    first row that breaks the walk.  Nothing here is derivable."""
    starts = [row.rowid for at, row in enumerate(nodes) if row.PARENTROWID is None or not at]
    owners: dict[RowId, int] = {}  # a run's start -> the first DOC row naming a slot in it

    def start(rowid: RowId) -> RowId:
        return starts[bisect_right(starts, rowid) - 1]

    def cause(row: XmlRow) -> str:
        """Why ``row``'s parent is not an open ancestor."""
        parent = by_rowid.get(row.PARENTROWID)
        if parent is None:
            return f"PARENTROWID {row.PARENTROWID} is not a live XML row"
        if (theirs := start(parent.rowid)) != start(row.rowid):  # None: no DOC row names it
            return f"parent {parent.rowid} belongs to document {owners.get(theirs)}"
        if parent.rowid >= row.rowid:  # every parent chain that loops has one
            return f"parent {parent.rowid} does not precede it"
        return f"parent {parent.rowid} is not an open ancestor"

    latest: tuple[RowId, int] | None = None  # the last root named rightly, and by whom
    for doc in docs:
        named, doc_id = doc.ROOTROWID, doc.DOC_ID
        if named not in by_rowid:
            report.flag("empty-document", DOC_TABLE, doc.rowid, doc_id,
                        f"ROOTROWID {named} is no live XML row")
            continue
        root = start(named)
        owners.setdefault(root, doc_id)
        if named != root:
            problem = f"is not its root: the run starts at {root}"
        elif latest is not None and named <= latest[0]:
            problem = f"does not rise: document {latest[1]} names {latest[0]} before it"
        else:
            latest = named, doc_id
            continue
        report.flag("doc-order", DOC_TABLE, doc.rowid, doc_id, f"ROOTROWID {named} {problem}")
    valid_types = {int(node_type) for node_type in NodeType}
    path: list[RowId] | None = []  # open ancestors; None once the walk broke
    for at, row in enumerate(nodes):
        rowid, parent, problem = row.rowid, row.PARENTROWID, ""
        if parent is None or not at:  # a run starts
            path, doc_id = [], owners.get(rowid)
            if doc_id is None:
                report.flag("orphan-node", XML_TABLE, rowid, None,
                            "no DOC row names the run this row starts")
            if parent is not None:
                problem = f"the run does not start at the root: {cause(row)}"
        if row.NODETYPE not in valid_types:
            report.flag("bad-node-type", XML_TABLE, rowid, doc_id,
                        f"NODETYPE {row.NODETYPE!r} is not one of {sorted(valid_types)}")
        while not problem and path and path[-1] != parent:
            path.pop()
            if not path:
                problem = cause(row)
        if problem:
            path = None
            report.flag("doc-order", XML_TABLE, rowid, doc_id,
                        f"rows are not a pre-order walk of the tree: {problem}")
        elif path is not None:
            path.append(rowid)
    return lambda rowid: owners.get(start(rowid)) if rowid in by_rowid else None


def _check_section_facts(
    report: FsckReport, database: Database, by_rowid: dict[RowId, XmlRow], doc_of: Callable
) -> dict[RowId, Any] | None:
    """What the NODEDATA index carries for each TEXT row equals what a
    fresh :class:`~repro.store.accessor.SectionPass` over the heap in
    physical order says, and it carries nothing else.  The index's facts
    were kept one row at a time — insert, replay, an in-place update, rows
    that arrived before their parent — so a pass from scratch is still an independent
    check.  A table no store has wired keeps no facts.  Returns the
    fresh pass's facts (None when there are none to check)."""
    index = database.table(XML_TABLE).text_index_on("NODEDATA")
    if index is None or index.facts is None:
        return None
    facts, fresh = index.facts, SectionPass({})
    for row in by_rowid.values():  # physical order
        fresh(row)
    for rowid in sorted(facts.keys() | fresh.facts.keys()):
        passed = fresh.facts.get(rowid)
        if facts.get(rowid) != passed:
            report.flag("section-facts", XML_TABLE, rowid, doc_of(rowid),
                        f"the text index says {facts.get(rowid)}, a fresh pass "
                        f"{passed} (sections, CONTEXT ancestor, under INTENSE)")
    return fresh.facts


def _check_indexes(
    report: FsckReport, tables: tuple[Table, ...], facts: dict[RowId, Any] | None
) -> int:
    """Every index against a fresh rebuild from the heap; with ``facts``
    (a fresh pass's), the NODEDATA index's heading postings and section
    members too."""
    checked = 0
    for table in tables:
        for column in table.index_columns:
            checked += 1
            index = table.index_on(column)
            assert index is not None
            position = table.schema.position(column)
            expected = sorted(
                (row[position], rowid)
                for rowid, row in table._heap.scan()  # noqa: SLF001
                if row[position] is not None
            )
            # Unsorted on purpose: keys ascend and each posting list is in
            # ROWID order (``BTreeIndex.delete`` bisects it), so the walk
            # itself must come out sorted.
            actual = list(index.items())
            if actual != expected:
                report.flag("btree-drift", table.schema.name, None, None,
                            f"index on {column} has {len(actual)} entries, heap "
                            f"implies {len(expected)}; contents or order disagree")
        for column in table.schema.columns:
            text_index = table.text_index_on(column.name)
            if text_index is None:
                continue
            checked += 1
            fresh = table._build_text_index(column.name)  # noqa: SLF001
            if fresh.signature() != text_index.signature():
                report.flag("text-index-drift", table.schema.name, None, None,
                            f"text index on {column.name} disagrees with a fresh "
                            f"rebuild from the heap")
            elif facts is not None and text_index.heading is not None:
                fresh.derive(facts, text_index.heading, text_index.sections)
                for part, drifted in (
                    ("heading postings", fresh.signature(True) != text_index.signature(True)),
                    ("section members", fresh.members() != text_index.members()),
                ):
                    if drifted:
                        report.flag("text-index-drift", table.schema.name, None, None,
                                    f"the {part} of the text index on {column.name} "
                                    f"disagree with a fresh pass over the heap")
    return checked


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.store.fsck <wal-base> [--repair] [--format json]``"""
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        prog="repro.store.fsck",
        description="Recover a durable NETMARK store and check invariants.",
    )
    parser.add_argument(
        "base", help="WAL base path (the store's <base>.wal/<base>.ckpt)"
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="rebuild derived state (indexes and section facts)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    args = parser.parse_args(argv)

    from repro.ordbms.recovery import recover
    from repro.ordbms.wal import FileLogDevice

    device = FileLogDevice(args.base)
    try:
        database = recover(device).database
        _netmark_tables(database)  # refused before a pass reads its rows
        # As a store would:
        database.table(XML_TABLE).derive_facts(
            SectionPass, SectionPass.is_heading, SectionPass.sections
        )
        report = (
            repair_store(database) if args.repair else check_store(database)
        )
        if args.format == "json":
            sys.stdout.write(json.dumps(report.as_dict(), indent=2) + "\n")
        else:
            sys.stdout.write(report.render_text())
        return 0 if report.ok else 1
    finally:
        device.close()


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())  # lint: allow-raise-foreign(process exit code is the CLI contract)
