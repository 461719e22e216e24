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
        for column in (
            "NODEID", "DOC_ID", "PARENTROWID", "PARENTNODEID",
            "SIBLINGID", "NODETYPE", "NODENAME", "NODEDATA",
        ):
            assert xml_table.schema.has_column(column)

    def test_indexes_created(self):
        database = Database()
        doc_table, xml_table = create_netmark_schema(database)
        assert doc_table.index_columns == ("DOC_ID", "FILE_NAME")
        # Three XML B+trees: nobody probes NODETYPE or PARENTNODEID.
        assert xml_table.index_columns == ("NODEID", "DOC_ID", "NODENAME")
        assert xml_table.text_index_on("NODEDATA") is not None

    def test_doc_id_foreign_key_declared(self):
        database = Database()
        _, xml_table = create_netmark_schema(database)
        [foreign_key] = xml_table.schema.foreign_keys
        assert foreign_key.ref_table == "DOC"


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
