"""XSLT-lite: the result-composition processor (paper Fig 7's Xalan)."""

from repro.xslt.processor import transform, transform_text
from repro.xslt.stylesheet import (
    MatchPattern,
    Stylesheet,
    Template,
    compile_avt,
    compile_stylesheet,
    parse_pattern,
)
from repro.xslt.xpath import (
    XPathContext,
    evaluate,
    node_string_value,
    parse_xpath,
    select,
    to_boolean,
    to_string,
)

__all__ = [
    "MatchPattern",
    "Stylesheet",
    "Template",
    "XPathContext",
    "compile_avt",
    "compile_stylesheet",
    "evaluate",
    "node_string_value",
    "parse_pattern",
    "parse_xpath",
    "select",
    "to_boolean",
    "to_string",
    "transform",
    "transform_text",
]
