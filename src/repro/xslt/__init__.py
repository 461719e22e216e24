"""XSLT-lite: the result-composition processor (paper Fig 7's Xalan)."""

from repro.xslt.processor import transform
from repro.xslt.stylesheet import (
    MatchPattern,
    Stylesheet,
    Template,
    compile_avt,
    compile_stylesheet,
    parse_pattern,
)
from repro.xslt.xpath import XPathContext, parse_xpath

__all__ = [
    "MatchPattern",
    "Stylesheet",
    "Template",
    "XPathContext",
    "compile_avt",
    "compile_stylesheet",
    "parse_pattern",
    "parse_xpath",
    "transform",
]
