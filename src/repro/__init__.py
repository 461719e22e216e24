"""Lean Middleware — a reproduction of the NETMARK data integration system.

Maluf, Bell & Ashish, *Lean Middleware*, ACM SIGMOD 2005.

The package implements the paper's complete stack, bottom to top:

* :mod:`repro.ordbms` — the object-relational substrate (heap tables with
  physical ROWIDs, B+tree and inverted-text indexes, one WAL record per
  statement);
* :mod:`repro.sgml` — the tolerant SGML/HTML/XML parser, DOM and the five
  NETMARK node types;
* :mod:`repro.converters` — format "upmark" parsers (Word/PDF/PowerPoint
  stand-ins, HTML, Markdown, CSV, plain text, XML);
* :mod:`repro.store` — the schema-less XML Store (the two-table generated
  schema of Fig 5);
* :mod:`repro.query` — the XDB Query language and context/content engine;
* :mod:`repro.xslt` — the XSLT-lite result-composition processor;
* :mod:`repro.server` — WebDAV folders, the ingestion daemon, the HTTP API;
* :mod:`repro.federation` — databanks, capability-based query
  augmentation, and the thin router;
* :mod:`repro.baselines` — the comparison systems (GAV mediator,
  relational shredding storage);
* :mod:`repro.costmodel`, :mod:`repro.workloads`, :mod:`repro.apps` —
  experiment support and the Table 1 NASA applications.

Quick start::

    from repro import Netmark

    nm = Netmark()
    nm.ingest("report.ndoc", open("report.ndoc").read())
    briefs = [match.brief() for match in nm.search("Context=Budget&Content=travel")]

Library code never writes to stdout (the ``banned-name`` rule in
:mod:`repro.analysis` enforces it) — results are returned, as above.
"""

from repro.errors import ReproError
from repro.netmark import AssemblyLedger, Netmark
from repro.query.results import ResultSet, SectionMatch
from repro.store.xmlstore import StoredDocument, XmlStore

__version__ = "1.0.0"

__all__ = [
    "AssemblyLedger",
    "Netmark",
    "ReproError",
    "ResultSet",
    "SectionMatch",
    "StoredDocument",
    "XmlStore",
    "__version__",
]
