"""SGML/HTML/XML tokenizer.

Splits raw markup into a flat stream of tokens: start tags (with parsed
attributes), end tags, text runs, comments, CDATA sections, and
declarations/processing instructions.  The tokenizer is *tolerant*: it
never raises on sloppy real-world HTML — a stray ``<`` that cannot start a
tag is emitted as text, unquoted attribute values are accepted, and an
unterminated comment runs to end of input.  Hard failures are reserved for
the strict-XML mode used by :func:`repro.sgml.parser.parse_xml`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SgmlSyntaxError

_NAME_RE = re.compile(r"[A-Za-z_][-A-Za-z0-9_.:]*")
_ATTR_RE = re.compile(
    r"""\s*([-A-Za-z0-9_.:]+)(?:\s*=\s*("[^"]*"|'[^']*'|[^\s>]+))?"""
)

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": "\u0020",  # NBSP folded to plain space for search friendliness
}

_ENTITY_RE = re.compile(r"&(#x?[0-9A-Fa-f]+|[A-Za-z]+);")


def decode_entities(text: str) -> str:
    """Replace character/entity references with their characters.

    Unknown named entities are left verbatim (tolerant behaviour — NASA
    documents are full of them).
    """

    def _replace(match: re.Match[str]) -> str:
        body = match.group(1)
        if body.startswith("#"):
            digits, base = (body[2:], 16) if body[1:2] in ("x", "X") else (body[1:], 10)
            try:
                return chr(int(digits, base))
            except (ValueError, OverflowError):
                return match.group(0)
        return _ENTITIES.get(body.lower(), match.group(0))

    return _ENTITY_RE.sub(_replace, text)


@dataclass(frozen=True)
class Token:
    """Base token; ``line`` is 1-based for error reporting."""

    line: int


@dataclass(frozen=True)
class StartTag(Token):
    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass(frozen=True)
class EndTag(Token):
    name: str


@dataclass(frozen=True)
class TextToken(Token):
    data: str


@dataclass(frozen=True)
class CommentToken(Token):
    data: str


@dataclass(frozen=True)
class DeclarationToken(Token):
    """``<!DOCTYPE ...>`` or ``<?xml ...?>`` — structure-irrelevant."""

    data: str


class Tokenizer:
    """Streaming tokenizer over one markup string."""

    def __init__(self, markup: str, strict: bool = False) -> None:
        self._markup = markup
        self._strict = strict
        self._pos = 0
        self._line = 1

    #: Elements whose content is raw text in tolerant mode (markup inside
    #: is character data): scripts and styles.
    RAWTEXT = frozenset({"script", "style"})

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until the input is exhausted."""
        markup = self._markup
        length = len(markup)
        while self._pos < length:
            if markup[self._pos] == "<":
                token = self._read_markup()
                if token is not None:
                    yield token
                    if (
                        not self._strict
                        and isinstance(token, StartTag)
                        and token.name in self.RAWTEXT
                        and not token.self_closing
                    ):
                        yield from self._read_rawtext(token.name)
            else:
                yield self._read_text()

    def _read_rawtext(self, name: str) -> Iterator[Token]:
        """Consume everything up to ``</name>`` as one text token."""
        line = self._line
        lowered = self._markup.lower()
        close = f"</{name}"
        end = lowered.find(close, self._pos)
        if end == -1:
            data = self._markup[self._pos:]
            self._advance(len(self._markup))
            if data:
                yield TextToken(line, data)
            return
        data = self._markup[self._pos:end]
        self._advance(end)
        if data:
            yield TextToken(line, data)
        # The end tag itself parses normally on the next iteration.

    # -- internals -----------------------------------------------------------

    def _advance(self, new_pos: int) -> None:
        self._line += self._markup.count("\n", self._pos, new_pos)
        self._pos = new_pos

    def _read_text(self) -> TextToken:
        start = self._pos
        end = self._markup.find("<", start)
        if end == -1:
            end = len(self._markup)
        line = self._line
        raw = self._markup[start:end]
        self._advance(end)
        return TextToken(line, decode_entities(raw))

    def _read_markup(self) -> Token | None:
        markup = self._markup
        pos = self._pos
        line = self._line
        if markup.startswith("<!--", pos):
            return self._read_comment()
        if markup.startswith("<![CDATA[", pos):
            return self._read_cdata()
        if markup.startswith("<!", pos) or markup.startswith("<?", pos):
            return self._read_declaration()
        if markup.startswith("</", pos):
            return self._read_end_tag()
        name_match = _NAME_RE.match(markup, pos + 1)
        if name_match is None:
            # A bare '<' that starts no tag: tolerant mode emits it as text.
            if self._strict:
                raise SgmlSyntaxError("invalid character after '<'", line)
            self._advance(pos + 1)
            return TextToken(line, "<")
        return self._read_start_tag(name_match)

    def _read_comment(self) -> CommentToken:
        line = self._line
        end = self._markup.find("-->", self._pos + 4)
        if end == -1:
            if self._strict:
                raise SgmlSyntaxError("unterminated comment", line)
            data = self._markup[self._pos + 4:]
            self._advance(len(self._markup))
            return CommentToken(line, data)
        data = self._markup[self._pos + 4:end]
        self._advance(end + 3)
        return CommentToken(line, data)

    def _read_cdata(self) -> TextToken:
        line = self._line
        start = self._pos + len("<![CDATA[")
        end = self._markup.find("]]>", start)
        if end == -1:
            if self._strict:
                raise SgmlSyntaxError("unterminated CDATA section", line)
            data = self._markup[start:]
            self._advance(len(self._markup))
            return TextToken(line, data)
        data = self._markup[start:end]
        self._advance(end + 3)
        return TextToken(line, data)

    def _read_declaration(self) -> DeclarationToken:
        line = self._line
        end = self._markup.find(">", self._pos)
        if end == -1:
            if self._strict:
                raise SgmlSyntaxError("unterminated declaration", line)
            end = len(self._markup) - 1
        data = self._markup[self._pos:end + 1]
        self._advance(end + 1)
        return DeclarationToken(line, data)

    def _read_end_tag(self) -> Token:
        line = self._line
        name_match = _NAME_RE.match(self._markup, self._pos + 2)
        end = self._markup.find(">", self._pos)
        if name_match is None or end == -1:
            if self._strict:
                raise SgmlSyntaxError("malformed end tag", line)
            # Skip the junk through '>' (or all remaining input).
            self._advance(end + 1 if end != -1 else len(self._markup))
            return TextToken(line, "")
        self._advance(end + 1)
        return EndTag(line, name_match.group(0).lower())

    def _read_start_tag(self, name_match: re.Match[str]) -> StartTag:
        line = self._line
        name = name_match.group(0).lower()
        pos = name_match.end()
        end = self._markup.find(">", pos)
        if end == -1:
            if self._strict:
                raise SgmlSyntaxError(f"unterminated <{name}> tag", line)
            end = len(self._markup)
            body = self._markup[pos:end]
            self._advance(end)
        else:
            body = self._markup[pos:end]
            self._advance(end + 1)
        self_closing = body.rstrip().endswith("/")
        if self_closing:
            body = body.rstrip()[:-1]
        attributes: dict[str, str] = {}
        for attr_match in _ATTR_RE.finditer(body):
            attr_name = attr_match.group(1).lower()
            raw_value = attr_match.group(2)
            if raw_value is None:
                value = attr_name  # HTML boolean attribute
            elif raw_value[:1] in {'"', "'"}:
                value = raw_value[1:-1]
            else:
                value = raw_value
            attributes[attr_name] = decode_entities(value)
        return StartTag(line, name, attributes, self_closing)


def tokenize_markup(markup: str, strict: bool = False) -> list[Token]:
    """Tokenize ``markup`` fully and return the token list."""
    return list(Tokenizer(markup, strict=strict).tokens())
