"""The NETMARK XML Store: schema-less document storage (paper §2.1.1).

Any document decomposes into the same two tables (``XML`` and ``DOC``);
physical ROWID links give O(1) parent/sibling traversal; reconstruction
rebuilds documents and sections for retrieval and result composition.
"""

from repro.store.accessor import AccessorStats, NodeAccessor
from repro.store.compose import compose_document, compose_node, compose_section
from repro.store.decompose import DecomposeResult, Decomposer
from repro.store.fsck import (
    FsckReport,
    Violation,
    check_store,
    repair_store,
)
from repro.store.schema import (
    DOC_TABLE,
    XML_TABLE,
    create_netmark_schema,
    decode_attributes,
    decode_metadata,
    doc_schema,
    encode_attributes,
    encode_metadata,
    xml_schema,
)
from repro.store.xmlstore import StoredDocument, XmlStore

__all__ = [
    "AccessorStats",
    "DOC_TABLE",
    "DecomposeResult",
    "Decomposer",
    "FsckReport",
    "NodeAccessor",
    "StoredDocument",
    "Violation",
    "XML_TABLE",
    "XmlStore",
    "check_store",
    "compose_document",
    "compose_node",
    "compose_section",
    "create_netmark_schema",
    "decode_attributes",
    "decode_metadata",
    "doc_schema",
    "encode_attributes",
    "encode_metadata",
    "repair_store",
    "xml_schema",
]
