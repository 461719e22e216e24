"""``valuecodec.unescape`` against the character loop it replaced.

The loop was a copy inside ``store.schema.decode_attributes`` (the map
``{\\, t, n}``) and ``decode_metadata``; both now call the one lenient
``unescape`` (a fast path for text with no backslash, else one regex
substitution), which must answer exactly what the loop did — the stored
``ATTRS`` and ``METADATA`` bytes, and what is served from them, stay as
they were.  The log's and the dump's own escape is the strict
``unescape_value``, which refuses what the loop let through.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError
from repro.ordbms.valuecodec import unescape, unescape_value
from repro.store.schema import _ATTR_ESCAPES, _META_ESCAPES, decode_attributes, encode_attributes


def loop_unescape(text: str, escapes: dict[str, str]) -> str:
    """The replaced loop, as it was."""
    out: list[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            out.append(escapes.get(text[index + 1], text[index + 1]))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


#: Backslashes next to known and unknown escape letters, and newlines.
escaped_text = st.text(alphabet=st.sampled_from("\\\\\\tnrsxa \t\n\r"), max_size=20)


@given(st.one_of(escaped_text, st.text(max_size=20)),
       st.sampled_from([_ATTR_ESCAPES, _META_ESCAPES]))
@settings(max_examples=500, deadline=None)
def test_unescape_answers_what_the_loop_did(text, escapes):
    assert unescape(text, escapes) == loop_unescape(text, escapes)


def test_the_edges():
    for text in ["", "plain", "\\", "a\\", "\\\\", "\\\\\\", "\\q", "\\\n", "x\\tq\\"]:
        for escapes in (_ATTR_ESCAPES, _META_ESCAPES):
            assert unescape(text, escapes) == loop_unescape(text, escapes)
    assert unescape("a\\", _ATTR_ESCAPES) == "a\\"  # a trailing lone backslash stays
    assert unescape("\\q\\r", _ATTR_ESCAPES) == "qr"  # unknown escapes pass through
    for text in ("a\\", "\\q\\r", "\\s"):  # the value escape refuses both
        with pytest.raises(DatabaseError):
            unescape_value(text)


@given(st.text(alphabet=st.sampled_from("ab\\\t\n="), max_size=12))
@settings(max_examples=200, deadline=None)
def test_attributes_decode_as_the_loop_did(value):
    stored = encode_attributes({"k": value})
    assert decode_attributes(stored) == {"k": loop_unescape(stored.partition("\t")[2], _ATTR_ESCAPES)}
    assert decode_attributes(stored) == {"k": value}
