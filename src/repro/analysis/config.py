"""Configuration for the invariant analyzer.

Everything a rule needs to know about *this* codebase — the layer map,
the files allowed to mint ROWIDs or mutate private state, the exception
policy — lives here, so the rule implementations stay generic AST
walkers.
"""

from __future__ import annotations

import builtins
import random
from dataclasses import dataclass, field


def _builtin_exception_names() -> frozenset[str]:
    """Names of every builtin exception class (``ValueError``, ...)."""
    names = set()
    for name in dir(builtins):
        obj = getattr(builtins, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            names.add(name)
    return frozenset(names)


#: The import DAG between ``repro.*`` units.  A *unit* is a direct child
#: of the ``repro`` package: a subpackage (``ordbms``) or a top-level
#: module by stem (``netmark``, ``errors``); ``repro/__init__.py`` is the
#: pseudo-unit ``__root__``.  Each unit may import itself, everything in
#: :attr:`AnalysisConfig.universal_units`, and the units listed here.
#: Note what is *absent*: ``federation`` appears only under ``server``,
#: ``cluster`` and the experiment-support leaves — the runtime tiers
#: below stay ignorant of the federated tier (netmark's facade carries
#: per-line pragmas for its wiring role).
DEFAULT_LAYERS: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    # Observability is a base layer like the error vocabulary: every
    # tier may report into it (it is in ``universal_units``), and it may
    # import nothing above ``errors`` itself — a metrics layer that
    # reached into the tiers it measures would invert the DAG.
    "obs": frozenset(),
    "analysis": frozenset(),
    "ordbms": frozenset(),
    "sgml": frozenset(),
    # Resilience primitives (clock, retry, breaker, faults) sit below the
    # tiers they protect — the fault proxies are duck-typed, so the
    # package needs nothing from federation/server.
    "resilience": frozenset(),
    "converters": frozenset({"sgml"}),
    "store": frozenset({"ordbms", "sgml", "converters"}),
    # The query tier sees ``resilience`` for exactly one reason: plan
    # execution checks the request's deadline/cancellation budget at
    # operator pull boundaries (cooperative cancellation).
    "query": frozenset({"ordbms", "sgml", "store", "resilience"}),
    "xslt": frozenset({"sgml"}),
    "federation": frozenset(
        {"ordbms", "sgml", "store", "query", "resilience"}
    ),
    # The cluster is a composition tier like ``server``: it replicates
    # the durable store (ordbms/store), elects over the resilience
    # primitives, and load-balances reads through federation sources.
    # It never converts: a store is written by its own node and reaches
    # the others as shipped WAL records.
    "cluster": frozenset(
        {"ordbms", "sgml", "store", "query", "resilience", "federation"}
    ),
    "server": frozenset(
        {"sgml", "store", "query", "xslt", "federation", "resilience"}
    ),
    "netmark": frozenset(
        {"ordbms", "sgml", "store", "query", "server", "resilience"}
    ),
    "baselines": frozenset({"ordbms", "sgml", "store"}),
    # ``workloads`` and ``costmodel`` are experiment support, leaves of
    # the DAG: no runtime unit imports them, not even by pragma (``apps``
    # does, and ``costmodel`` reads ``workloads``;
    # tests/analysis/test_layering.py holds that), so
    # like ``apps`` they may see ``federation`` — cost accounting
    # instruments a databank, the anomaly generator emits its ``Record``.
    "workloads": frozenset(
        {"sgml", "converters", "store", "query", "federation"}
    ),
    "costmodel": frozenset(
        {
            "ordbms", "store", "query", "workloads", "baselines",
            "federation",
        }
    ),
}


#: Module-granular import contracts inside units, for the read-path hot
#: spots the unit-level DAG is too coarse for.  Keys are dotted module
#: ids relative to ``repro`` (``store.accessor``); values are the units
#: and modules that module may import (plus itself and the universal
#: units).  Granting a whole unit (``ordbms``) grants all its modules;
#: granting a module (``store.schema``) grants only that module — the
#: unit's facade stays off-limits, which is also what keeps these leaf
#: modules cycle-free.
DEFAULT_MODULE_LAYERS: dict[str, frozenset[str]] = {
    # The batched tree accessor is the substrate every read rides on: it
    # may see the ORDBMS, the node-type vocabulary and the schema names —
    # but never composition, the store facade or the query tier.
    "store.accessor": frozenset({"ordbms", "sgml", "store.schema"}),
    # The result cache keys query ASTs and stores result matches; it
    # must not import the engine (the engine consults *it*), the plan
    # algebra, or the store facade — versions arrive as plain stamps.
    "query.cache": frozenset(
        {"ordbms", "sgml", "query.ast", "query.results"}
    ),
    # The plan algebra sits between the store and the engine.  It must
    # not import the engine (the engine compiles queries *into* plans)
    # or the query-language parser — compile/execute is a one-way street.
    # ``resilience.deadline`` is granted for the per-pull budget check;
    # the rest of the resilience unit (retry, breaker, faults) stays
    # off-limits to operators.
    "query.plan": frozenset(
        {
            "ordbms", "sgml", "store", "query.ast", "query.results",
            "resilience.deadline",
        }
    ),
    # The deadline/budget vocabulary is a base-layer primitive like the
    # clock: every tier consults it, so it may import nothing above the
    # error vocabulary (not even the rest of its own unit).
    "resilience.deadline": frozenset(),
    # The WAL is the bottom of the durability stack: record codec and log
    # devices only.  It must not import the database, tables or snapshot
    # machinery — ``database.py`` imports *it* at runtime, and recovery
    # feeds it parsed records, so anything more would be a cycle.
    "ordbms.wal": frozenset({"ordbms.rowid", "ordbms.valuecodec"}),
    # Recovery sits on top of the whole ORDBMS unit (it rebuilds
    # databases from checkpoints and replays logs into live tables).
    "ordbms.recovery": frozenset({"ordbms"}),
    # fsck reads the NETMARK schema through the ORDBMS and the node-type
    # vocabulary; it must not touch composition, the store facade or the
    # query tier — a checker that imported what it checks derived state
    # *through* would be checking itself.  The accessor is the one grant:
    # a fresh ``SectionPass`` over the heap is the reference the index's
    # carried section facts are held against (what is checked is the
    # incremental upkeep of those facts, not the pass).
    "store.fsck": frozenset(
        {"ordbms", "sgml", "store.schema", "store.accessor"}
    ),
    # The call-graph indexer sees only parsed file contexts: it may not
    # reach the rules or the driver that orchestrates them.
    "analysis.callgraph": frozenset({"analysis.core"}),
    # The shipping codec is log-records-in, log-records-out: it reads
    # the coordinator's device through the WAL codec and nothing else —
    # a shipper that imported the store or the replica would entangle
    # the wire format with the state it transports.
    "cluster.ship": frozenset({"ordbms.wal"}),
    # Bully election is pure membership arithmetic over the simulated
    # network; it must not see stores, replicas or the WAL — the caller
    # hands it priorities, it hands back a winner.
    "cluster.election": frozenset({"resilience"}),
}


#: Method names that mutate their receiver.  The shared-state rules
#: treat a call ``<module-var>.<name>(...)`` as a write to that variable
#: when ``<name>`` is listed here; anything else (``.get``, ``.render``)
#: is presumed a read.  ``counter``/``gauge``/``histogram`` are included
#: because the metrics registry's accessors create series on first use.
DEFAULT_MUTATOR_METHODS: frozenset[str] = frozenset(
    {
        "add", "append", "appendleft", "clear", "counter", "define",
        "discard", "extend", "gauge", "histogram", "inc", "insert",
        "install", "observe", "pop", "popitem", "popleft", "push",
        "record", "register", "remove", "set", "set_enabled",
        "setdefault", "update", "write",
    }
)


#: Resource constructors called by bare name: name -> release methods.
#: ``open(...)`` must be a ``with`` item, returned, stored on an object,
#: or bound to a name the next statement takes (see ``rules/lifecycle``).
DEFAULT_RESOURCE_CALLS: dict[str, frozenset[str]] = {
    "open": frozenset({"close"}),
    "FileLogDevice": frozenset({"close"}),
}

#: Resource-producing *methods* (attribute calls): the MVCC pin factory.
#: ``snap = db.open_snapshot()`` not followed by a ``try`` whose
#: ``finally`` releases it is a leak (a pinned LSN holds history back).
DEFAULT_RESOURCE_METHODS: dict[str, frozenset[str]] = {
    "open_snapshot": frozenset({"release"}),
}


#: Exception-flow policy: module id -> exception names an entry point in
#: that module may let escape (an escaping class must be one of these or
#: a subclass).  Longest matching prefix wins; modules with no matching
#: prefix are not checked.  The table *is* the public error contract:
#: the HTTP facade maps everything to status codes (only the stylesheet
#: installer's validation error passes through), the ingest daemon
#: quarantines per-file failures and surfaces only server-tier faults,
#: and the facades surface the full domain vocabulary.
DEFAULT_EXCEPTION_POLICY: dict[str, frozenset[str]] = {
    "server.http": frozenset({"XsltError"}),
    "server.daemon": frozenset({"ServerError"}),
    "server.webdav": frozenset({"ServerError"}),
    "netmark": frozenset({"ReproError"}),
    "federation": frozenset({"ReproError"}),
    "cluster": frozenset({"ReproError"}),
}

#: Exceptions that may escape *any* entry point: the crash-injection
#: signal (which models SIGKILL and must never be caught), the
#: abstract-method and invariant guards, and the observability layer's
#: own config errors (every instrumented function transitively reaches
#: them).
DEFAULT_UBIQUITOUS_EXCEPTIONS: frozenset[str] = frozenset(
    {"CrashError", "NotImplementedError", "AssertionError",
     "ObservabilityError"}
)


_CLOCK = "reads the wall clock; take timestamps as parameters"
_RANDOM = "is the global unseeded generator; use a seeded random.Random"

#: Names library code may not load, by qualified name -> why.  A name is
#: qualified through the file's imports (``import datetime as dt`` makes
#: ``dt.datetime.now`` the banned ``datetime.datetime.now``), and banned
#: wherever it is loaded, called or not: a clock passed by reference
#: reads the clock later.  ``print`` corrupts whatever stream the
#: embedding process owns (the WebDAV server speaks HTTP on it).  The
#: clocks and the global RNG break "stable across runs for identical
#: insert sequences": timestamps enter as data (the VFS logical clock,
#: ``file_date=``), randomness through a seeded ``random.Random``.
DEFAULT_BANNED_NAMES: dict[str, str] = {
    "print": "writes to stdout; return the value or raise",
    **{
        f"time.{name}": _CLOCK
        for name in (
            "time", "time_ns", "monotonic", "monotonic_ns",
            "perf_counter", "perf_counter_ns",
        )
    },
    "datetime.datetime.now": _CLOCK,
    "datetime.datetime.utcnow": _CLOCK,
    "datetime.date.today": _CLOCK,
    **{
        f"random.{name}": _RANDOM
        for name in dir(random)
        if not name.startswith("_") and name != "Random"
    },
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable policy for one analyzer run."""

    #: unit -> units it may import (see :data:`DEFAULT_LAYERS`).
    layers: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )
    #: module id -> import grants (see :data:`DEFAULT_MODULE_LAYERS`).
    module_layers: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_MODULE_LAYERS)
    )
    #: Units importable from anywhere (the error vocabulary and the
    #: observability base layer).
    universal_units: frozenset[str] = frozenset({"errors", "obs"})
    #: Units free to import anything: the application tier and the
    #: package facade sit above the whole DAG.
    unrestricted_units: frozenset[str] = frozenset({"apps", "__root__"})

    #: Builtin exception names, for the raise/except/class-base checks.
    builtin_exceptions: frozenset[str] = field(
        default_factory=_builtin_exception_names
    )
    #: Builtins that *may* be raised anywhere (abstract-method guards).
    allowed_builtin_raises: frozenset[str] = frozenset(
        {"NotImplementedError"}
    )
    #: Path suffix of the module that owns the exception hierarchy;
    #: classes there may derive from builtins, nothing elsewhere may.
    errors_module: str = "repro/errors.py"

    #: Path suffixes of modules allowed to construct RowId from raw ints.
    rowid_minters: frozenset[str] = frozenset({"ordbms/rowid.py"})

    #: Qualified name -> why it is banned (see :data:`DEFAULT_BANNED_NAMES`).
    banned_names: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_BANNED_NAMES)
    )

    # -- whole-program dataflow policy --------------------------------------

    #: Receiver methods counted as writes by the shared-state rules.
    mutator_methods: frozenset[str] = DEFAULT_MUTATOR_METHODS
    #: Bare-name resource constructors -> release method names.
    resource_calls: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_RESOURCE_CALLS)
    )
    #: Resource-producing attribute calls -> release method names.
    resource_methods: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_RESOURCE_METHODS)
    )
    #: Module-prefix -> allowed escaping exceptions for entry points.
    exception_policy: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_EXCEPTION_POLICY)
    )
    #: Exceptions every entry point may let escape.
    ubiquitous_exceptions: frozenset[str] = DEFAULT_UBIQUITOUS_EXCEPTIONS


#: The configuration CI and the meta-test run with.
DEFAULT_CONFIG = AnalysisConfig()
