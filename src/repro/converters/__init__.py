"""Document converters ("upmark" parsers).

Each module registers a :class:`~repro.converters.base.Converter` for one
format family; :func:`convert` dispatches by file extension with a
content-sniffing fallback.  Binary office formats are replaced by
text-serialised stand-ins (``.ndoc``, ``.npdf``, ``.nppt``) that preserve
the structural cues real parsers extract — see DESIGN.md §2.
"""

from repro.converters.base import (
    Converter,
    ConverterRegistry,
    Section,
    build_document,
    convert,
    registry,
)

# Importing the format modules registers them with the default registry.
from repro.converters.html import HtmlConverter
from repro.converters.markdown import MarkdownConverter
from repro.converters.pdfdoc import PdfConverter
from repro.converters.plaintext import PlainTextConverter
from repro.converters.slides import SlidesConverter
from repro.converters.spreadsheet import SpreadsheetConverter, parse_delimited
from repro.converters.worddoc import WordDocConverter
from repro.converters.xmlpass import XmlConverter

__all__ = [
    "Converter",
    "ConverterRegistry",
    "HtmlConverter",
    "MarkdownConverter",
    "PdfConverter",
    "PlainTextConverter",
    "Section",
    "SlidesConverter",
    "SpreadsheetConverter",
    "WordDocConverter",
    "XmlConverter",
    "build_document",
    "convert",
    "parse_delimited",
    "registry",
]
