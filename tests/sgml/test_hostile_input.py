"""The SGML boundary answers hostile text with a document or a typed error.

A dropped file reaches the tokenizer through one of the converters, and
a stored document through ``parse_xml``; whatever the bytes, each call
must return a :class:`~repro.sgml.dom.Document` or raise a
:mod:`repro.errors` type, never a stray builtin exception.
"""

import random

from repro.converters import convert, registry
from repro.errors import ReproError
from repro.sgml.dom import Document
from repro.sgml.parser import parse_html, parse_xml
from repro.workloads.corpus import CorpusSpec, generate_corpus

#: One extension per registered format (checked below), plus one no
#: converter claims, which takes the content-sniffing path.
EXTENSIONS = ("ndoc", "npdf", "nppt", "csv", "html", "md", "txt", "xml", "bin")

#: What markup, entities and the stand-in formats are made of.
ALPHABET = "<>/!?-=\"'&#;:[]{}\\*|,\t\n xyz09"

SEEDS = [
    generated.text
    for generated in generate_corpus(CorpusSpec(documents=6, seed=7))
] + [
    '<?xml version="1.0"?><!DOCTYPE d><d a="1"><!-- c --><e>x &amp; y'
    "&#65;&#x42;</e><![CDATA[<raw>]]><f/></d>",
    "<html><body><h1>T</h1><p>one<br>two<li>three</ul></table></body>",
    "name,amount\nshuttle,12\n\"quoted, cell\",3\n",
]


def _mutate(rng: random.Random, text: str) -> str:
    """One to three edits: a character deleted, replaced or inserted, or
    a slice cut short."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:at] + text[at + 1:]
        elif edit == 1:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
        elif edit == 2:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        else:
            text = text[:at]
    return text


def _answers(call, *args) -> None:
    try:
        assert isinstance(call(*args), Document)
    except ReproError:
        pass


class TestHostileMarkup:
    def test_every_registered_format_is_fuzzed(self):
        claimed = {registry.for_name(f"f.{ext}") for ext in EXTENSIONS}
        assert {c.format_name for c in claimed - {None}} == set(
            registry.formats()
        )

    def test_seeded_mutations_answer_a_document_or_a_typed_error(self):
        rng = random.Random(2005)
        for _ in range(1500):
            text = _mutate(rng, rng.choice(SEEDS))
            _answers(parse_xml, text)
            _answers(parse_html, text)
            for ext in EXTENSIONS:
                _answers(convert, text, f"dropped.{ext}")
