"""Outside-in layer tracing: spans around each layer's public entry points.

Nothing under ``src/`` knows it is being traced.  :func:`install` swaps
each entry point in :data:`LAYER_POINTS` for a wrapper that records one
span per call (layer name, operation id, parent span, start, end) into
an in-memory list; :func:`uninstall` restores the originals.  A layer's
*self time* in an operation is its spans' durations minus the part their
child spans cover, so the self times of one operation add up to exactly
the operation's own span.

Entry points that are called thousands of times per query (the node
accessor, ``Table.fetch``) are deliberately not wrapped — a wrapper
would cost more than the call — and show up as counts under the
``query.engine`` span instead.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable, Iterable

#: (layer name, module, class or None, attribute).  A function imported
#: by name is patched in the module that *uses* it.
LAYER_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    # read path, outermost first
    ("server.http", "repro.server.http", "NetmarkHttpApi", "request"),
    ("query.language", "repro.server.http", None, "parse_query"),
    ("query.engine", "repro.query.engine", "QueryEngine", "execute"),
    ("query.cache", "repro.query.cache", "QueryCache", "lookup"),
    ("query.cache", "repro.query.cache", "QueryCache", "store"),
    ("query.results", "repro.query.results", "ResultSet", "to_xml"),
    ("xslt.compile", "repro.server.http", None, "compile_stylesheet"),
    ("xslt.transform", "repro.server.http", None, "transform"),
    ("sgml.serializer", "repro.server.http", None, "serialize"),
    # write path
    ("server.webdav", "repro.server.webdav", "WebDavServer", "drop"),
    ("server.daemon", "repro.server.daemon", "NetmarkDaemon", "poll"),
    ("store.xmlstore.replace", "repro.store.xmlstore", "XmlStore", "replace_text"),
    ("store.xmlstore.delete", "repro.store.xmlstore", "XmlStore", "delete_document"),
    ("converters", "repro.store.xmlstore", None, "convert"),
    ("store.decompose", "repro.store.decompose", "Decomposer", "load"),
    ("ordbms.table.insert", "repro.ordbms.database", "Database", "insert"),
    ("ordbms.table.update", "repro.ordbms.database", "Database", "update"),
    ("ordbms.table.delete", "repro.ordbms.database", "Database", "delete"),
    ("ordbms.wal.append", "device", "MeteredLogDevice", "append"),
    ("ordbms.wal.sync", "device", "MeteredLogDevice", "sync"),
    # restart path
    ("ordbms.recovery", "repro.ordbms.recovery", None, "recover"),
    ("server.daemon.startup_recovery", "repro.server.daemon", "NetmarkDaemon", "startup_recovery"),
)

#: Span layout: [layer, op id, parent index (-1: root), start, end].
LAYER, OP, PARENT, START, END = range(5)
Span = list


class Recorder:
    """In-memory span sink; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: Spans are recorded only while an operation is open.
        self.op = -1
        self.current = -1
        self._restore: list[tuple[Any, str, Any]] = []

    # -- operations ---------------------------------------------------------

    def begin(self, layer: str, op: int) -> int:
        """Open operation ``op`` with a root span named ``layer``."""
        self.op = op
        self.spans.append([layer, op, -1, self.clock(), 0.0])
        self.current = len(self.spans) - 1
        return self.current

    def end(self, root: int) -> None:
        self.spans[root][END] = self.clock()
        self.op = -1
        self.current = -1

    def wrap(self, layer: str, function: Callable) -> Callable:
        spans = self.spans
        clock = self.clock

        def traced(*args, **kwargs):
            if self.op < 0:
                return function(*args, **kwargs)
            parent = self.current
            span = [layer, self.op, parent, clock(), 0.0]
            spans.append(span)
            self.current = len(spans) - 1
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = clock()
                self.current = parent

        traced.__wrapped__ = function
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, class_name, attribute in LAYER_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, layer, op, parent, start and end seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "layer": span[LAYER],
                            "op": span[OP],
                            "parent": span[PARENT],
                            "start": span[START],
                            "end": span[END],
                        }
                    )
                )
                handle.write("\n")


def self_times(spans: Iterable[Span]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    spans = list(spans)
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_self_by_op(spans: Iterable[Span]) -> dict[int, dict[str, float]]:
    """``{op id: {layer: self seconds}}`` — sums to each op's root span."""
    spans = list(spans)
    by_op: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        layers = by_op.setdefault(span[OP], {})
        layers[span[LAYER]] = layers.get(span[LAYER], 0.0) + own
    return by_op
