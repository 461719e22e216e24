"""The XDB Query URL language.

"The key features are that context and content search specifications are
appended to a URL that is sent to NETMARK.  In this URL we may also
specify an XSLT stylesheet which specifies how the results are to be
formatted and composed into a new document." (§2.1.3)

:func:`parse_query` accepts the query-string part of such a URL::

    Context=Technology%20Gap&Content=Shrinking&xslt=report.xsl

Rules (documented where the paper is silent, since "this is not the
precise query syntax" even in the paper):

* Keys are case-insensitive: ``Context``, ``Content``, ``xslt``,
  ``databank``, ``limit``.  Unknown keys are preserved in ``extras``.
* Values are percent-decoded; ``+`` decodes to space.
* ``|`` separates alternatives in Context values.
* Repeated ``Context``/``Content`` keys OR/AND together respectively:
  a second ``Context`` adds alternatives; a second ``Content`` adds terms.
* A fully-quoted content value means phrase mode; ``any:``/``all:``
  prefixes force disjunctive/conjunctive term matching.
* ``Explain=1`` asks for the plan, ``Explain=profile`` for the plan with
  per-operator work-unit costs; ``Trace=1`` asks the server to attach
  the request's span tree to the result envelope.
* ``Deadline=N`` bounds the request to N server clock ticks;
  ``Partial=1`` asks for whatever was found by the deadline (marked
  partial) instead of a 504.
* ``Cache=0`` bypasses the result cache for this request (recompute,
  never store).  Any other value — or omitting the key — leaves caching
  on, which is safe because cached answers are byte-identical.
"""

from __future__ import annotations

import re
from urllib.parse import unquote_plus

from repro.errors import QuerySyntaxError
from repro.query.ast import ContentSpec, ContextSpec, XdbQuery

_UNSAFE = re.compile(r"[^A-Za-z0-9\-_.~|]")  # what percent_encode escapes


def percent_decode(value: str) -> str:
    """Decode %XX escapes and '+' (tolerant: bad escapes pass through).

    Consecutive escapes decode as one UTF-8 byte sequence, so non-ASCII
    text round-trips through :func:`percent_encode`.
    """
    return unquote_plus(value, errors="replace")


def percent_encode(value: str) -> str:
    """Encode a value for inclusion in an XDB query URL."""
    return _UNSAFE.sub(
        lambda unsafe: "+" if unsafe[0] == " "
        else "".join(f"%{byte:02X}" for byte in unsafe[0].encode("utf-8")),
        value,
    )


def parse_pairs(query_string: str) -> list[tuple[str, str]]:
    """Split a query string into decoded (key, value) pairs."""
    pairs: list[tuple[str, str]] = []
    for chunk in query_string.split("&"):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            raise QuerySyntaxError(f"malformed query component {chunk!r}")
        key, _, value = chunk.partition("=")
        pairs.append((percent_decode(key).strip(), percent_decode(value)))
    return pairs


def _parse_content_value(value: str) -> tuple[tuple[str, ...], str]:
    """Return (terms, mode) from a Content value."""
    value = value.strip()
    mode = "all"
    lowered = value.lower()
    if lowered.startswith("any:"):
        mode = "any"
        value = value[4:]
    elif lowered.startswith("all:"):
        value = value[4:]
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return (value[1:-1],), "phrase"
    terms = tuple(term for term in value.split() if term)
    return terms, mode


def parse_query(query_string: str) -> XdbQuery:
    """Parse an XDB query string into an :class:`XdbQuery`."""
    if "?" in query_string:
        # Accept full URLs/paths for convenience.
        query_string = query_string.split("?", 1)[1]
    context_phrases: list[str] = []
    content_terms: list[str] = []
    content_mode: str | None = None
    nodename: str | None = None
    doc: str | None = None
    format_filter: str | None = None
    stylesheet: str | None = None
    databank: str | None = None
    limit: int | None = None
    explain = False
    profile = False
    trace = False
    deadline_ticks: int | None = None
    partial_ok = False
    cache = True
    extras: list[tuple[str, str]] = []

    for key, value in parse_pairs(query_string):
        lowered = key.lower()
        if lowered == "context":
            context_phrases.extend(
                phrase.strip() for phrase in value.split("|") if phrase.strip()
            )
        elif lowered == "content":
            terms, mode = _parse_content_value(value)
            if content_mode is not None and content_mode != mode:
                raise QuerySyntaxError(
                    "conflicting content modes in one query "
                    f"({content_mode!r} vs {mode!r})"
                )
            content_mode = mode
            content_terms.extend(terms)
        elif lowered == "nodename":
            nodename = value.strip() or None
        elif lowered == "doc":
            doc = value.strip() or None
        elif lowered == "format":
            format_filter = value.strip().lower() or None
        elif lowered in {"xslt", "stylesheet"}:
            stylesheet = value.strip() or None
        elif lowered == "databank":
            databank = value.strip() or None
        elif lowered == "limit":
            try:
                limit = int(value)
            except ValueError:
                raise QuerySyntaxError(f"limit must be an integer, got {value!r}")
        elif lowered == "explain":
            cleaned = value.strip().lower()
            if cleaned == "profile":
                explain = True
                profile = True
            else:
                explain = cleaned in {"1", "true", "yes"}
        elif lowered == "trace":
            trace = value.strip().lower() in {"1", "true", "yes"}
        elif lowered == "deadline":
            try:
                deadline_ticks = int(value)
            except ValueError:
                raise QuerySyntaxError(
                    f"Deadline must be an integer tick count, got {value!r}"
                )
        elif lowered == "partial":
            partial_ok = value.strip().lower() in {"1", "true", "yes"}
        elif lowered == "cache":
            cache = value.strip().lower() not in {"0", "false", "no", "off"}
        else:
            extras.append((key, value))

    context = ContextSpec(tuple(context_phrases)) if context_phrases else None
    content = (
        ContentSpec(tuple(content_terms), content_mode or "all")
        if content_terms
        else None
    )
    return XdbQuery(
        context=context,
        content=content,
        nodename=nodename,
        doc=doc,
        format=format_filter,
        stylesheet=stylesheet,
        databank=databank,
        limit=limit,
        explain=explain,
        profile=profile,
        trace=trace,
        deadline_ticks=deadline_ticks,
        partial_ok=partial_ok,
        cache=cache,
        extras=tuple(extras),
    )


def format_query(query: XdbQuery) -> str:
    """Render an :class:`XdbQuery` back into URL query-string form, once per
    query object (it is immutable; a request renders it twice)."""
    if (text := query.__dict__.get("_text")) is not None:
        return text
    parts: list[str] = []
    if query.context is not None:
        parts.append("Context=" + percent_encode("|".join(query.context.phrases)))
    if query.content is not None:
        if query.content.mode == "phrase":
            value = f'"{query.content.text}"'
        elif query.content.mode == "any":
            value = "any:" + query.content.text
        else:
            value = query.content.text
        parts.append("Content=" + percent_encode(value))
    if query.nodename:
        parts.append("Nodename=" + percent_encode(query.nodename))
    if query.doc:
        parts.append("Doc=" + percent_encode(query.doc))
    if query.format:
        parts.append("Format=" + percent_encode(query.format))
    if query.stylesheet:
        parts.append("xslt=" + percent_encode(query.stylesheet))
    if query.databank:
        parts.append("databank=" + percent_encode(query.databank))
    if query.limit is not None:
        parts.append(f"limit={query.limit}")
    if query.profile:
        parts.append("Explain=profile")
    elif query.explain:
        parts.append("Explain=1")
    if query.trace:
        parts.append("Trace=1")
    if query.deadline_ticks is not None:
        parts.append(f"Deadline={query.deadline_ticks}")
    if query.partial_ok:
        parts.append("Partial=1")
    if not query.cache:
        parts.append("Cache=0")
    for key, value in query.extras:
        parts.append(percent_encode(key) + "=" + percent_encode(value))
    text = query.__dict__["_text"] = "&".join(parts)
    return text
