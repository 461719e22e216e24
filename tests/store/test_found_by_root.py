"""A document is found by its root: no reader scans XML for its rows.

The DOC row names its root's ROWID (``ROOTROWID``), and a document's
rows are the run a forward read takes from there; no node row names its
document.  A reader that looked a document's rows up by some other
column would not fail: with no B+tree there it would fall back to a scan
of the whole node table (``Table.lookup``).  This
guard drives every reader of a whole document — ingest, replace, delete,
``/doc``, ``contexts()``, a heading found by ``Nodename=``,
checkpoint-and-recover and the daemon settling a journalled ingest — and
asks that no lookup took the scan path.
"""

import pytest

from repro import obs
from repro.netmark import Netmark
from repro.ordbms import MemoryLogDevice
from repro.store.schema import INDEXES, XML_TABLE

NDOC = "{\\ndoc1}\n{\\style Heading1}Budget\n{\\style Normal}Travel funds.\n"
NDOC2 = "{\\ndoc1}\n{\\style Heading1}Ops\n{\\style Normal}Launch pad work.\n"
NDOC3 = "{\\ndoc1}\n{\\style Heading1}Risk\n{\\style Normal}Weather holds.\n"


def scans() -> dict[str, float]:
    return {
        key: value for key, value in obs.snapshot().items()
        if key.startswith("repro_ordbms_lookups_total") and 'path="scan"' in key
    }


@pytest.fixture
def registry():
    previous = obs.get_registry()
    yield obs.push_registry()
    obs.set_registry(previous)


def test_no_reader_of_a_whole_document_scans_the_node_table(registry):
    device = MemoryLogDevice()
    node = Netmark(device=device)
    for name, text in (("a.ndoc", NDOC), ("b.ndoc", NDOC2), ("c.ndoc", NDOC3)):
        assert node.ingest(name, text).ok
    assert node.ingest("a.ndoc", NDOC3).ok  # a replace: delete, then store
    doomed = node.store.lookup_by_name("b.ndoc")
    rows = len(node.store.new_accessor().document(doomed.doc_id))
    assert node.store.delete_document(doomed.doc_id) == rows
    kept = node.store.lookup_by_name("c.ndoc").doc_id
    assert node.http_get(f"/doc/{kept}").status == 200
    assert [row.NODETYPE for row in node.store.contexts(kept)]
    assert len(node.search("Nodename=context")) == 2
    node.checkpoint()
    # An ingest that committed, then "died" before the daemon's
    # bookkeeping: the next incarnation settles it from its journal.
    node.daemon._journal_begin("/incoming/d.ndoc", NDOC2)  # noqa: SLF001
    stored = node.store.replace_text(NDOC2, "d.ndoc")
    reborn = Netmark(device=device, vfs=node.vfs)
    [settled] = reborn.recovered_ingests
    assert (settled.doc_id, settled.node_count) == (stored.doc_id, stored.node_count)
    assert reborn.fsck().ok
    assert scans() == {}
    for table in (node.store.xml_table, reborn.store.xml_table):
        assert table.index_columns == INDEXES[XML_TABLE] == ("NODENAME",)
