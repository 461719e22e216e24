"""A working GAV mediator — the heavy-middleware comparison system."""

from repro.baselines.gav.mappings import FilterPredicate, GavMapping, SourceQuery
from repro.baselines.gav.mediator import (
    Mediator,
    RegisteredSource,
)
from repro.baselines.gav.schema import GlobalSchema, RelationSchema, SourceSchema

__all__ = [
    "FilterPredicate",
    "GavMapping",
    "GlobalSchema",
    "Mediator",
    "RegisteredSource",
    "RelationSchema",
    "SourceQuery",
    "SourceSchema",
]
