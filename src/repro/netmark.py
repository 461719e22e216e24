"""The NETMARK facade — the library's one-stop public entry point.

Bundles the whole stack of paper Fig 3 into a single object::

    nm = Netmark()
    nm.drop("report.ndoc", open("report.ndoc").read())   # WebDAV folder
    nm.poll()                                            # the daemon
    results = nm.search("Context=Budget")                # XDB Query
    page = nm.http_get("/search?Context=Budget&xslt=report.xsl")

plus federation administration (``create_databank``/``add_source``) and
stylesheet installation.  The facade counts **assembly steps** — each
declarative configuration call is one step — which is how the Table 1
experiment compares how much work each NASA application took to stand up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import ServerError
from repro.federation.databank import Databank, DatabankRegistry  # lint: allow-layering(composition root: the facade wires the federation tier)
from repro.federation.router import Router  # lint: allow-layering(composition root: the facade wires the federation tier)
from repro.federation.sources import InformationSource, NetmarkSource  # lint: allow-layering(composition root: the facade wires the federation tier)
from repro.ordbms import Database, LogDevice
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.results import ResultSet
from repro.server.daemon import IngestRecord, NetmarkDaemon
from repro.server.http import HttpResponse, NetmarkHttpApi
from repro.server.vfs import VirtualFileSystem
from repro.server.webdav import WebDavServer
from repro.sgml.config import DEFAULT_CONFIG, NodeTypeConfig
from repro.store.fsck import FsckReport, check_store, repair_store
from repro.store.xmlstore import StoredDocument, XmlStore


@dataclass
class AssemblyLedger:
    """Counts the declarative steps an application's assembly performed."""

    steps: list[str] = field(default_factory=list)

    def record(self, description: str) -> None:
        self.steps.append(description)

    @property
    def count(self) -> int:
        return len(self.steps)


class Netmark:
    """A complete in-process NETMARK node."""

    def __init__(
        self,
        name: str = "netmark",
        config: NodeTypeConfig = DEFAULT_CONFIG,
        drop_folder: str = "/incoming",
        device: LogDevice | None = None,
        vfs: VirtualFileSystem | None = None,
        tracer: obs.Tracer | None = None,
    ) -> None:
        self.name = name
        #: Span sink shared by the node's pipelines.  Default is the
        #: no-op tracer; pass ``obs.Tracer()`` to collect ingest span
        #: trees (``Trace=1`` searches trace per-request regardless).
        self.tracer = tracer if tracer is not None else obs.NULL_TRACER
        if device is not None:
            # Durable node: open (or crash-recover) the store on its WAL
            # device.  Pass the surviving ``vfs`` of the previous
            # incarnation so the daemon can settle its ingest journal.
            self.store = XmlStore.open(device, config)
            self.database = self.store.database
        else:
            self.database = Database(name)
            self.store = XmlStore(self.database, config)
        self.vfs = vfs or VirtualFileSystem()
        self.dav = WebDavServer(self.vfs)
        self.daemon = NetmarkDaemon(
            self.store, self.vfs, drop_folder, tracer=self.tracer
        )
        self.registry = DatabankRegistry()
        self.router = Router(self.registry)
        #: Named sources available to declarative databank specs.
        self.source_catalog: dict[str, InformationSource] = {}
        # The production composition root runs with the result cache on:
        # cached answers are byte-identical, Cache=0 opts a request out.
        self.api = NetmarkHttpApi(
            self.store, self.dav, self.router, cache=QueryCache()
        )
        self.engine = QueryEngine(self.store)
        self.ledger = AssemblyLedger()
        #: Records settled by daemon startup recovery (crash restarts).
        self.recovered_ingests: list[IngestRecord] = []
        if device is not None:
            self.api.recovering = True
            try:
                self.recovered_ingests = self.daemon.startup_recovery()
            finally:
                self.api.recovering = False

    # -- ingestion ------------------------------------------------------------

    def drop(self, file_name: str, content: str) -> None:
        """Drag one document into the NETMARK desktop folder."""
        self.dav.drop(self.daemon.drop_folder, file_name, content)

    def poll(self) -> list[IngestRecord]:
        """Wake the daemon once."""
        return self.daemon.poll()

    def ingest(self, file_name: str, content: str) -> IngestRecord:
        """Drop + poll in one call; returns that file's record."""
        self.drop(file_name, content)
        records = self.poll()
        for record in records:
            if record.path.endswith("/" + file_name):
                return record
        # The poll may have picked up other pending files too; ours must
        # be among them or something is wrong.
        raise ServerError(f"daemon did not report {file_name!r}")

    def ingest_many(self, files: list[tuple[str, str]]) -> list[IngestRecord]:
        """Bulk-load (name, content) pairs through the daemon path."""
        for file_name, content in files:
            self.drop(file_name, content)
        return self.poll()

    # -- query ---------------------------------------------------------------------

    def search(self, query: str) -> ResultSet:
        """Run an XDB query string against the local store.

        Context aliases defined on this node are expanded first, so a
        query for ``Context=Budget`` transparently covers whatever the
        alias maps it to (e.g. ``Cost Details``).  One snapshot is held
        for the call, as HTTP holds one per request, and the matches come
        back with nothing left to load: one committed state.
        """
        from repro.query.language import parse_query

        parsed = self.router.aliases.rewrite(parse_query(query))
        with self.store.snapshot() as snapshot:
            result = self.engine.execute(parsed, snapshot=snapshot)
            for match in result.matches:
                match.resolve()
        return result

    def define_context_alias(self, name: str, *phrases: str) -> None:
        """One-line vocabulary bridging: alias -> context alternatives.

        The lean stand-in for GAV virtual views (§4); applies to both
        local and federated searches on this node.
        """
        self.router.aliases.define(name, *phrases)
        self.ledger.record(f"define context alias {name}")

    def federated_search(self, query: str, databank: str | None = None) -> ResultSet:
        """Run an XDB query through the databank router."""
        return self.router.execute(query, databank)

    def http_get(self, target: str) -> HttpResponse:
        """GET against the NETMARK HTTP API (search/doc/docs/dav routes)."""
        return self.api.get(target)

    def attach_cluster(self, view) -> None:
        """Bind this node's HTTP facade to a cluster membership view.

        ``view`` is duck-typed (``role``, ``coordinator``,
        ``is_coordinator``, ``describe()`` — e.g.
        ``repro.cluster.NetmarkCluster.view(name)``): once attached,
        non-coordinator nodes answer DAV writes with a structured 503
        pointing at the coordinator, and ``GET /cluster`` serves the
        membership table.  The facade stays ignorant of the cluster
        package itself — lean middleware all the way down.
        """
        self.api.cluster = view
        self.ledger.record("attach cluster view")

    # -- administration (assembly steps) -----------------------------------------------

    def create_databank(self, name: str, description: str = "") -> Databank:
        self.ledger.record(f"create databank {name}")
        return self.registry.create(name, description)

    def add_source(self, databank: str, source: InformationSource) -> None:
        """One line of integration: declare a source in a databank."""
        self.registry.get(databank).add_source(source)
        self.source_catalog.setdefault(source.name, source)
        self.ledger.record(f"add source {source.name} to {databank}")

    def register_source(self, source: InformationSource) -> None:
        """Make a constructed source available to databank spec files."""
        self.source_catalog[source.name] = source

    def load_databank_spec(self, text: str):
        """Apply a declarative databank spec (see repro.federation.spec).

        Sources named in the spec resolve through :attr:`source_catalog`
        (populate it with :meth:`register_source`).  Every line of the
        spec is one assembly step — the spec *is* the integration.
        """
        from repro.federation.spec import load_spec  # lint: allow-layering(composition root: the facade wires the federation tier)

        report = load_spec(text, self.router, self.source_catalog)
        for name in report.databanks:
            self.ledger.record(f"create databank {name} (spec)")
        for _ in range(report.sources_bound):
            self.ledger.record("bind source (spec)")
        for _ in range(report.aliases_defined):
            self.ledger.record("define alias (spec)")
        return report

    def as_source(self, source_name: str | None = None) -> NetmarkSource:
        """Expose this node's own store as a federation source."""
        return NetmarkSource(source_name or self.name, self.store)

    def install_stylesheet(self, name: str, xml: str) -> None:
        self.api.install_stylesheet(name, xml)
        self.ledger.record(f"install stylesheet {name}")

    # -- durability ---------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Fold the store into a fresh checkpoint and truncate its WAL."""
        return self.store.checkpoint()

    def fsck(self, repair: bool = False) -> FsckReport:
        """Run the store consistency checker (optionally repairing)."""
        if repair:
            report = repair_store(self.store.database)
            # Repair edits stored rows in place: the one event that can falsify
            # a pooled lift, or a cached answer whose sections stay visible.
            self.store.lift_cache.clear()
            self.api.engine.cache.clear()
            return report
        return check_store(self.store.database)

    # -- catalog ------------------------------------------------------------------------

    def documents(self) -> list[StoredDocument]:
        return self.store.documents()

    @property
    def document_count(self) -> int:
        return len(self.store)

    @property
    def assembly_steps(self) -> int:
        return self.ledger.count
