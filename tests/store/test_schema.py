"""NETMARK generated schema (Fig 5): tables, indexes, encodings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordbms import Database
from repro.store.schema import (
    create_netmark_schema,
    decode_attributes,
    decode_metadata,
    encode_attributes,
    encode_metadata,
)


class TestGeneratedSchema:
    def test_exactly_two_tables(self):
        database = Database()
        create_netmark_schema(database)
        assert set(database.catalog.table_names()) == {"DOC", "XML"}

    def test_fig5_columns_present(self):
        database = Database()
        doc_table, xml_table = create_netmark_schema(database)
        for column in ("DOC_ID", "FILE_NAME", "FILE_DATE", "FILE_SIZE"):
            assert doc_table.schema.has_column(column)
        # The row keeps only what a read follows: the parent's ROWID up,
        # ROWID order down and across.
        assert [column.name for column in xml_table.schema.columns] == [
            "PARENTROWID", "NODETYPE", "NODENAME", "NODEDATA", "ATTRS",
        ]
        # A node is its ROWID, and its document the run it sits in: no
        # key of its own, no key of its document's.
        assert xml_table.schema.primary_key is None

    def test_indexes_created(self):
        database = Database()
        doc_table, xml_table = create_netmark_schema(database)
        assert doc_table.index_columns == ("DOC_ID", "FILE_NAME")
        # One XML B+tree: nobody probes NODETYPE, by parent, by node or
        # by document (a document is found through its DOC row's root).
        assert xml_table.index_columns == ("NODENAME",)
        assert xml_table.text_index_on("NODEDATA") is not None

    def test_a_doc_row_names_its_root_by_address(self):
        """DOC and XML are joined by address, not by a declared key."""
        database = Database()
        doc_table, _ = create_netmark_schema(database)
        root = doc_table.schema.column("ROOTROWID")
        assert (root.dtype.name, root.nullable) == ("ROWID", False)
        assert not hasattr(doc_table.schema, "foreign_keys")


class TestMetadataEncoding:
    def test_round_trip(self):
        metadata = {"format": "word", "author": "maluf", "chars": 120}
        decoded = decode_metadata(encode_metadata(metadata))
        assert decoded == {"format": "word", "author": "maluf", "chars": "120"}

    def test_empty(self):
        assert decode_metadata(encode_metadata({})) == {}
        assert decode_metadata(None) == {}

    def test_sorted_deterministic(self):
        assert encode_metadata({"b": 1, "a": 2}) == "a=2;b=1"

    def test_separators_in_a_value_stay_in_it(self):
        metadata = {"title": "Cost; Schedule;revision=41", "revision": 2,
                    "path": "C:\\a\\s;b=c\\"}
        decoded = decode_metadata(encode_metadata(metadata))
        assert decoded == {key: str(value) for key, value in metadata.items()}

    @given(st.dictionaries(st.text(min_size=1), st.text()))
    @settings(max_examples=200, deadline=None)
    def test_any_text_round_trips(self, metadata):
        assert decode_metadata(encode_metadata(metadata)) == metadata

    def test_plain_text_is_written_as_it_is(self):
        # What the WAL goldens and banked byte counts stand on.
        assert encode_metadata({"title": "Cost Schedule", "revision": 1}) == (
            "revision=1;title=Cost Schedule"
        )


class TestAttributeEncoding:
    def test_round_trip_simple(self):
        attrs = {"id": "7", "class": "big"}
        assert decode_attributes(encode_attributes(attrs)) == attrs

    def test_empty_is_none(self):
        assert encode_attributes({}) is None
        assert decode_attributes(None) == {}

    def test_special_characters(self):
        attrs = {"a": "tab\there", "b": "line\nbreak", "c": "back\\slash"}
        assert decode_attributes(encode_attributes(attrs)) == attrs

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll",), max_codepoint=0x7F
                ),
                min_size=1,
                max_size=8,
            ),
            st.text(max_size=20),
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, attrs):
        assert decode_attributes(encode_attributes(attrs)) == attrs
