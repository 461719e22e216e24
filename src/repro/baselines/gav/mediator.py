"""The GAV mediator: query unfolding over registered sources.

This is a working miniature of the MIX/Tukwila-family systems the paper
compares against.  An application queries the *global* schema; the
mediator unfolds the query through the GAV mappings, ships each disjunct
to its source, renames/filters, unions, and applies the residual global
filters.

The point of building it is the ledger: :attr:`engineering_artifacts`
counts the source schemas, global relations and mapping rules that had to
be written — the per-source cost NETMARK's one-line databank entries
avoid.  Adding source k+1 to an integration requires (schema + relations +
≥1 mapping rule) here versus one ``add_source`` line there; FIG1 plots
exactly that difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.gav.mappings import FilterPredicate, GavMapping
from repro.baselines.gav.schema import GlobalSchema, RelationSchema, SourceSchema
from repro.errors import MappingError, MediatorError

#: A source-relation extension: a callable returning that relation's rows.
RelationExtension = Callable[[], list[dict[str, Any]]]


@dataclass
class RegisteredSource:
    """A source the mediator can ship sub-queries to."""

    schema: SourceSchema
    extensions: dict[str, RelationExtension] = field(default_factory=dict)

    def rows(self, relation_name: str) -> list[dict[str, Any]]:
        relation_name = relation_name.upper()
        self.schema.relation(relation_name)  # validates it exists
        extension = self.extensions.get(relation_name)
        if extension is None:
            raise MediatorError(
                f"source {self.schema.source_name!r} has no data bound for "
                f"relation {relation_name}"
            )
        return [
            {key.upper(): value for key, value in row.items()}
            for row in extension()
        ]


class Mediator:
    """A Global-as-View integration system."""

    def __init__(self) -> None:
        self.global_schema = GlobalSchema()
        self._sources: dict[str, RegisteredSource] = {}
        self._mappings: dict[str, GavMapping] = {}

    # -- administration (the expensive part) ---------------------------------

    def register_source(self, schema: SourceSchema) -> RegisteredSource:
        if schema.source_name in self._sources:
            raise MediatorError(
                f"source {schema.source_name!r} already registered"
            )
        registered = RegisteredSource(schema)
        self._sources[schema.source_name] = registered
        return registered

    def bind_extension(
        self, source_name: str, relation_name: str, extension: RelationExtension
    ) -> None:
        source = self._require_source(source_name)
        source.schema.relation(relation_name)
        source.extensions[relation_name.upper()] = extension

    def define_global_relation(self, relation: RelationSchema) -> None:
        self.global_schema.add_relation(relation)

    def define_mapping(self, mapping: GavMapping) -> None:
        """Install a view definition (validated against both schemas)."""
        global_relation = self.global_schema.relation(mapping.global_relation)
        for disjunct in mapping.disjuncts:
            source = self._require_source(disjunct.source_name)
            relation = source.schema.relation(disjunct.relation_name)
            for global_attr, source_attr in disjunct.projection:
                if not global_relation.has_attribute(global_attr):
                    raise MappingError(
                        f"mapping for {mapping.global_relation} projects "
                        f"unknown global attribute {global_attr}"
                    )
                if not relation.has_attribute(source_attr):
                    raise MappingError(
                        f"mapping disjunct over {disjunct.relation_name} "
                        f"references unknown attribute {source_attr}"
                    )
            for predicate in disjunct.filters:
                if not relation.has_attribute(predicate.attribute):
                    raise MappingError(
                        f"filter references unknown attribute "
                        f"{predicate.attribute} of {disjunct.relation_name}"
                    )
        if mapping.global_relation in self._mappings:
            raise MediatorError(
                f"mapping for {mapping.global_relation} already defined"
            )
        self._mappings[mapping.global_relation] = mapping

    # -- querying (the easy part, once the artifacts exist) --------------------

    def query(
        self,
        global_relation: str,
        filters: tuple[FilterPredicate, ...] = (),
    ) -> list[dict[str, Any]]:
        """Evaluate a selection over a global relation by GAV unfolding."""
        global_relation = global_relation.upper()
        self.global_schema.relation(global_relation)
        mapping = self._mappings.get(global_relation)
        if mapping is None:
            raise MediatorError(
                f"global relation {global_relation} has no mapping"
            )
        output: list[dict[str, Any]] = []
        for disjunct in mapping.disjuncts:
            source = self._require_source(disjunct.source_name)
            rows = source.rows(disjunct.relation_name)
            for row in disjunct.apply(rows):
                if all(predicate.accepts(row) for predicate in filters):
                    output.append(row)
        return output

    # -- the ledger -----------------------------------------------------------------

    @property
    def engineering_artifacts(self) -> int:
        """Schemas + global relations + mapping rules written by hand."""
        source_artifacts = sum(
            source.schema.artifact_count for source in self._sources.values()
        )
        mapping_artifacts = sum(
            mapping.artifact_count for mapping in self._mappings.values()
        )
        return (
            source_artifacts
            + self.global_schema.artifact_count
            + mapping_artifacts
        )

    @property
    def source_count(self) -> int:
        return len(self._sources)

    def describe(self) -> str:
        """Human-readable inventory of everything an admin had to write."""
        lines = [f"sources: {sorted(self._sources)}"]
        lines.append(f"global relations: {sorted(self.global_schema.relations)}")
        for mapping in self._mappings.values():
            lines.append(mapping.describe())
        return "\n".join(lines)

    def _require_source(self, source_name: str) -> RegisteredSource:
        try:
            return self._sources[source_name]
        except KeyError:
            raise MediatorError(f"unknown source {source_name!r}") from None
