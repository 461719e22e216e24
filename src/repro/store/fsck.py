"""fsck for the NETMARK two-table store: verify and repair invariants.

The schema-less design buys its generality by pushing structure out of
DDL and into row values — ``PARENTROWID``/``SIBLINGID`` links, ORDINAL
ordering, the five-way NODETYPE vocabulary.  Nothing in the ORDBMS can
enforce those, so this module does, after the fact:

* every ``PARENTROWID`` resolves to a live XML row of the same document,
  whose ``NODEID`` matches the child's ``PARENTNODEID``, and the parent
  chain is acyclic (reaches a root);
* each document has exactly one root, and every parent's children form
  one well-formed sibling chain: distinct ORDINALs, each ``SIBLINGID``
  pointing at the next child in ``(ORDINAL, NODEID)`` order, the last
  child ending the chain with NULL;
* every ``NODETYPE`` is one of the five NETMARK types;
* each document's rows, taken in ROWID order, are a pre-order walk of its
  tree — the layout the read path's forward reads
  (:meth:`repro.store.accessor.NodeAccessor.subtree`) stand on — and
  ROWID order is ``(DOC_ID, NODEID)`` order, which a plan sorts by;
* DOC↔XML referential integrity both ways (no orphaned nodes, no empty
  documents);
* derived state agrees with the rows: every B+tree and text index on
  DOC/XML matches a fresh rebuild from the heap, and what the NODEDATA
  index says of each TEXT row's sections matches a fresh pass.

Violations found in the data are *reported*, never raised — fsck's job
is to describe damage (:class:`FsckReport`), and crashes are reserved
for misuse (:class:`~repro.errors.FsckError`, e.g. a database without
the NETMARK schema).  :func:`repair_store` rebuilds the derived subset
of that state — indexes, sibling chains, ``PARENTNODEID`` — and leaves
genuinely lost data (dangling parents, orphans) to be reported.

Command line::

    python -m repro.store.fsck <wal-base-path> [--repair] [--format json]

recovers the store from ``<wal-base-path>.wal``/``.ckpt`` and checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import FsckError
from repro.ordbms import Database, RowId, Table, TextIndex
from repro.sgml.nodetypes import NodeType
from repro.store.accessor import SectionPass
from repro.store.schema import DOC_TABLE, XML_TABLE, XmlRow

#: Violation codes, in check order.  Codes marked repairable concern
#: derived state that :func:`repair_store` can rebuild from the rows.
CODES = (
    "bad-node-type",
    "orphan-node",
    "empty-document",
    "missing-root",
    "multiple-roots",
    "dangling-parent",
    "foreign-parent",
    "parent-id-mismatch",  # repairable
    "parent-cycle",
    "dangling-sibling",
    "foreign-sibling",
    "duplicate-ordinal",
    "sibling-chain",  # repairable
    "doc-order",
    "btree-drift",  # repairable
    "text-index-drift",  # repairable
    "section-facts",  # repairable
)

REPAIRABLE = frozenset(
    {"parent-id-mismatch", "sibling-chain", "btree-drift",
     "text-index-drift", "dangling-sibling", "foreign-sibling",
     "section-facts"}
)


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

    violations: list[Violation] = field(default_factory=list)
    documents_checked: int = 0
    nodes_checked: int = 0
    indexes_checked: int = 0
    #: Repair actions performed before this report's check pass (only
    #: set on reports returned by :func:`repair_store`).
    repaired: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, code: str) -> int:
        return sum(1 for violation in self.violations if violation.code == code)

    def codes(self) -> set[str]:
        return {violation.code for violation in self.violations}

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the CI artifact format)."""
        return {
            "ok": self.ok,
            "documents_checked": self.documents_checked,
            "nodes_checked": self.nodes_checked,
            "indexes_checked": self.indexes_checked,
            "repaired": self.repaired,
            "violations": [
                {
                    "code": violation.code,
                    "table": violation.table,
                    "rowid": violation.rowid,
                    "doc_id": violation.doc_id,
                    "detail": violation.detail,
                }
                for violation in self.violations
            ],
        }

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
            lines.append(
                f"{violation.code}: {where}{doc}: {violation.detail}"
            )
        return "\n".join(lines) + "\n"


def check_store(database: Database) -> FsckReport:
    """Run every invariant check; never mutates the database."""
    doc_table, xml_table = _netmark_tables(database)
    report = FsckReport()
    doc_ids = {row.DOC_ID for row in doc_table.scan()}
    report.documents_checked = len(doc_ids)
    nodes = list(xml_table.scan())
    report.nodes_checked = len(nodes)
    by_rowid: dict[RowId, XmlRow] = {row.rowid: row for row in nodes}
    _check_node_fields(report, nodes, by_rowid, doc_ids)
    _check_roots(report, nodes, doc_ids)
    _check_parent_chains(report, nodes, by_rowid)
    _check_sibling_chains(report, nodes, by_rowid)
    _check_doc_order(report, nodes)
    if report.ok:  # a pass needs sound links, in document order
        _check_section_facts(report, database, by_rowid)
    report.indexes_checked = _check_indexes(report, (doc_table, xml_table))
    return report


def repair_store(database: Database) -> FsckReport:
    """Rebuild derived state, then re-check.

    Repairs, in order: ``PARENTNODEID`` values that disagree with the
    row their ``PARENTROWID`` addresses, sibling chains (re-derived from
    ``(ORDINAL, NODEID)`` order per parent, which also clears dangling
    or foreign ``SIBLINGID`` values), and every index (rebuilt from the
    heap).  Structural losses — dangling parents, orphaned nodes,
    missing roots — cannot be re-derived and remain in the report.
    """
    doc_table, xml_table = _netmark_tables(database)
    actions = 0
    nodes = list(xml_table.scan())
    by_rowid: dict[RowId, XmlRow] = {row.rowid: row for row in nodes}
    for row in nodes:
        parent_rowid = row.PARENTROWID
        parent = by_rowid.get(parent_rowid) if parent_rowid is not None else None
        if parent is not None and row.PARENTNODEID != parent.NODEID:
            database.update(
                XML_TABLE, row.rowid,
                {"PARENTNODEID": parent.NODEID},
            )
            actions += 1
    for _, _, chain in _family_chains(nodes):
        for row, expected_next in chain:
            if row.SIBLINGID != expected_next:
                database.update(
                    XML_TABLE, row.rowid, {"SIBLINGID": expected_next}
                )
                actions += 1
    doc_table.rebuild_indexes()
    xml_table.rebuild_indexes()
    actions += 2
    report = check_store(database)
    report.repaired = actions
    return report


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _netmark_tables(database: Database) -> tuple[Table, Table]:
    try:
        return database.table(DOC_TABLE), database.table(XML_TABLE)
    except Exception as error:  # lint: allow-broad-except(any lookup failure means the schema is absent)
        raise FsckError(
            f"database {database.name!r} does not carry the NETMARK "
            f"schema: {error}"
        ) from error


def _check_node_fields(
    report: FsckReport,
    nodes: list[XmlRow],
    by_rowid: dict[RowId, XmlRow],
    doc_ids: set[int],
) -> None:
    valid_types = {int(node_type) for node_type in NodeType}
    for row in nodes:
        rowid = row.rowid
        if row.NODETYPE not in valid_types:
            report.violations.append(Violation(
                "bad-node-type", XML_TABLE, str(rowid), row.DOC_ID,
                f"NODETYPE {row.NODETYPE!r} is not one of "
                f"{sorted(valid_types)}",
            ))
        if row.DOC_ID not in doc_ids:
            report.violations.append(Violation(
                "orphan-node", XML_TABLE, str(rowid), row.DOC_ID,
                f"DOC_ID {row.DOC_ID} has no DOC row",
            ))
        parent_rowid = row.PARENTROWID
        if parent_rowid is not None:
            parent = by_rowid.get(parent_rowid)
            if parent is None:
                report.violations.append(Violation(
                    "dangling-parent", XML_TABLE, str(rowid), row.DOC_ID,
                    f"PARENTROWID {parent_rowid} is not a live XML row",
                ))
            elif parent.DOC_ID != row.DOC_ID:
                report.violations.append(Violation(
                    "foreign-parent", XML_TABLE, str(rowid), row.DOC_ID,
                    f"parent at {parent_rowid} belongs to document "
                    f"{parent.DOC_ID}",
                ))
            elif parent.NODEID != row.PARENTNODEID:
                report.violations.append(Violation(
                    "parent-id-mismatch", XML_TABLE, str(rowid),
                    row.DOC_ID,
                    f"PARENTNODEID {row.PARENTNODEID} but parent row "
                    f"at {parent_rowid} has NODEID {parent.NODEID}",
                ))
        sibling_rowid = row.SIBLINGID
        if sibling_rowid is not None:
            sibling = by_rowid.get(sibling_rowid)
            if sibling is None:
                report.violations.append(Violation(
                    "dangling-sibling", XML_TABLE, str(rowid), row.DOC_ID,
                    f"SIBLINGID {sibling_rowid} is not a live XML row",
                ))
            elif sibling.DOC_ID != row.DOC_ID:
                report.violations.append(Violation(
                    "foreign-sibling", XML_TABLE, str(rowid), row.DOC_ID,
                    f"sibling at {sibling_rowid} belongs to document "
                    f"{sibling.DOC_ID}",
                ))


def _check_roots(
    report: FsckReport, nodes: list[XmlRow], doc_ids: set[int]
) -> None:
    roots: dict[int, list[XmlRow]] = {}
    populated: set[int] = set()
    for row in nodes:
        populated.add(row.DOC_ID)
        if row.PARENTROWID is None:
            roots.setdefault(row.DOC_ID, []).append(row)
    for doc_id in sorted(doc_ids):
        if doc_id not in populated:
            report.violations.append(Violation(
                "empty-document", DOC_TABLE, "", doc_id,
                "document has no XML nodes at all",
            ))
        elif doc_id not in roots:
            report.violations.append(Violation(
                "missing-root", XML_TABLE, "", doc_id,
                "document has nodes but none is a root "
                "(every PARENTROWID is set)",
            ))
        elif len(roots[doc_id]) > 1:
            report.violations.append(Violation(
                "multiple-roots", XML_TABLE, "", doc_id,
                f"{len(roots[doc_id])} root nodes "
                f"(NODEIDs {sorted(r.NODEID for r in roots[doc_id])})",
            ))


def _check_parent_chains(
    report: FsckReport, nodes: list[XmlRow], by_rowid: dict[RowId, XmlRow]
) -> None:
    #: rowids proven to reach a root (or known-broken, already reported).
    resolved: set[RowId] = set()
    for row in nodes:
        rowid = row.rowid
        if rowid in resolved:
            continue
        path: list[RowId] = []
        seen: set[RowId] = set()
        current: XmlRow | None = row
        while current is not None:
            current_rowid = current.rowid
            if current_rowid in resolved:
                break
            if current_rowid in seen:
                report.violations.append(Violation(
                    "parent-cycle", XML_TABLE, str(current_rowid),
                    current.DOC_ID,
                    "PARENTROWID chain revisits this node without "
                    "reaching a root",
                ))
                break
            seen.add(current_rowid)
            path.append(current_rowid)
            parent_rowid = current.PARENTROWID
            if parent_rowid is None:
                break
            current = by_rowid.get(parent_rowid)  # None = dangling (reported)
        resolved.update(path)


def _family_chains(
    nodes: list[XmlRow],
) -> list[tuple[int, RowId | None, list[tuple[XmlRow, RowId | None]]]]:
    """Children grouped by parent, each paired with its expected SIBLINGID.

    The canonical chain orders a parent's children by ``(ORDINAL,
    NODEID)`` — NODEID breaks ordinal ties deterministically — and links
    each child to the next, ending with NULL.
    """
    families: dict[tuple[int, RowId | None], list[XmlRow]] = {}
    for row in nodes:
        families.setdefault(
            (row.DOC_ID, row.PARENTROWID), []
        ).append(row)
    chains = []
    for (doc_id, parent_rowid), children in sorted(
        families.items(), key=lambda item: (item[0][0], str(item[0][1]))
    ):
        children.sort(key=lambda row: (row.ORDINAL, row.NODEID))
        chain = [
            (row, children[position + 1].rowid
             if position + 1 < len(children) else None)
            for position, row in enumerate(children)
        ]
        chains.append((doc_id, parent_rowid, chain))
    return chains


def _check_sibling_chains(
    report: FsckReport, nodes: list[XmlRow], by_rowid: dict[RowId, XmlRow]
) -> None:
    for doc_id, _, chain in _family_chains(nodes):
        ordinals_seen: dict[int, int] = {}
        for row, expected_next in chain:
            ordinal = row.ORDINAL
            if ordinal in ordinals_seen:
                report.violations.append(Violation(
                    "duplicate-ordinal", XML_TABLE, str(row.rowid),
                    doc_id,
                    f"ORDINAL {ordinal} already used by NODEID "
                    f"{ordinals_seen[ordinal]} under the same parent",
                ))
            else:
                ordinals_seen[ordinal] = row.NODEID
            actual = row.SIBLINGID
            if actual != expected_next and (
                actual is None or actual in by_rowid
            ):
                # Dangling/foreign SIBLINGIDs were already reported with
                # their own codes; this one is live but mis-linked.
                report.violations.append(Violation(
                    "sibling-chain", XML_TABLE, str(row.rowid),
                    doc_id,
                    f"SIBLINGID is {actual}, expected {expected_next} "
                    f"(next child by ORDINAL order)",
                ))


def _check_doc_order(report: FsckReport, nodes: list[XmlRow]) -> None:
    """Each document is one ROWID run, laid out as a pre-order walk.

    Walking the heap in physical order, every row's parent must be on
    the path of still-open ancestors (so every subtree is contiguous and
    every parent precedes its children), siblings must arrive in ORDINAL
    order, no other document's live row may sit inside the run, and
    ``(DOC_ID, NODEID)`` must rise with the ROWID (the presentation
    order is read off the address).  One
    report per document, at the first row that breaks the walk; nothing
    here is derivable, so ``--repair`` leaves it.
    """
    seen: dict[int, bool] = {}  # document -> already reported
    doc_id, latest = None, (0, 0)
    path: list[list[Any]] = []  # open ancestors: [rowid, last child's ORDINAL]
    for row in nodes:
        parent, problem = row.PARENTROWID, ""
        if row.DOC_ID != doc_id:
            doc_id = row.DOC_ID
            if doc_id in seen:
                problem = "the run resumes after another document's rows"
            elif parent is not None:
                problem = "the run does not start at the root"
            path = [[None, -1]]  # the slot the root hangs from
        if seen.setdefault(doc_id, False):
            continue
        while not problem and path[-1][0] != parent:
            path.pop()
            if not path:
                problem = f"parent {parent} is not an open ancestor"
        if not problem and row.ORDINAL <= path[-1][1]:
            problem = "stored after a sibling it should precede"
        if not problem and (doc_id, row.NODEID) <= latest:
            problem = "ROWID order is not (DOC_ID, NODEID) order"
        latest = max(latest, (doc_id, row.NODEID))
        if problem:
            seen[doc_id] = True
            report.violations.append(Violation(
                "doc-order", XML_TABLE, str(row.rowid), doc_id,
                f"rows are not a pre-order walk of the tree: {problem}",
            ))
            continue
        # One root only: nothing else may hang from the slot above it.
        path[-1][1] = row.ORDINAL if parent is not None else len(nodes)
        path.append([row.rowid, -1])


def _check_section_facts(
    report: FsckReport, database: Database, by_rowid: dict[RowId, XmlRow]
) -> None:
    """What the NODEDATA index carries for each TEXT row equals what a
    fresh :class:`~repro.store.accessor.SectionPass` over the heap in
    physical order says, and it carries nothing else.  The index's facts
    were kept one row at a time — insert, redo, undo, rows that arrived
    before their parent — so a pass from scratch is still an independent
    check.  A table no store has wired keeps no facts."""
    index = database.table(XML_TABLE).text_index_on("NODEDATA")
    if index is None or index.facts is None:
        return
    facts, fresh = index.facts, SectionPass({})
    for row in by_rowid.values():  # physical order
        fresh(row)
    for rowid in sorted(facts.keys() | fresh.facts.keys()):
        row, passed = by_rowid.get(rowid), fresh.facts.get(rowid)
        if facts.get(rowid) != passed:
            report.violations.append(Violation(
                "section-facts", XML_TABLE, str(rowid), row and row.DOC_ID,
                f"the text index says {facts.get(rowid)}, a fresh pass "
                f"{passed} (sections, CONTEXT ancestor, under INTENSE)",
            ))


def _check_indexes(report: FsckReport, tables: tuple[Table, ...]) -> int:
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
                report.violations.append(Violation(
                    "btree-drift", table.schema.name, "", None,
                    f"index on {column} has {len(actual)} entries, heap "
                    f"implies {len(expected)}; contents or order disagree",
                ))
        for column in (
            col.name for col in table.schema.columns
            if table.text_index_on(col.name) is not None
        ):
            checked += 1
            text_index = table.text_index_on(column)
            assert text_index is not None
            fresh = TextIndex(text_index.name)
            position = table.schema.position(column)
            for rowid, row in table._heap.scan():  # noqa: SLF001
                value = row[position]
                if isinstance(value, str) and value:
                    fresh.add(rowid, value)
            if fresh.signature() != text_index.signature():
                report.violations.append(Violation(
                    "text-index-drift", table.schema.name, "", None,
                    f"text index on {column} disagrees with a fresh "
                    f"rebuild from the heap",
                ))
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
        help="rebuild derived state (indexes, sibling chains, parent ids)",
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
        database.table(XML_TABLE).derive_facts(SectionPass)  # as a store would
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
