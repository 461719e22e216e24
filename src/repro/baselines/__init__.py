"""Comparison systems: relational shredding storage and a GAV mediator."""

from repro.baselines.gav import (
    FilterPredicate,
    GavMapping,
    GlobalSchema,
    Mediator,
    RelationSchema,
    SourceQuery,
    SourceSchema,
)
from repro.baselines.shredded import ShredResult, ShreddedXmlStore, table_name_for

__all__ = [
    "FilterPredicate",
    "GavMapping",
    "GlobalSchema",
    "Mediator",
    "RelationSchema",
    "ShredResult",
    "ShreddedXmlStore",
    "SourceQuery",
    "SourceSchema",
    "table_name_for",
]
