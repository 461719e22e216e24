"""Every configuration against the one specification (``tests/xdb_model.py``).

A hypothesis state machine runs a durable store (``XmlStore.open`` on a
fault-wrapped ``MemoryLogDevice``) with a follower fed by WAL shipping.
Its rules:

* ``ingest_or_replace`` / ``delete`` generated documents; after each
  write the follower is shipped the new records (a bundle instead when a
  checkpoint has passed it) and must dump like the store;
* ``open_pin`` / ``release_pin``;
* ``query`` — context, content, combined and nodename searches;
* ``checkpoint`` the store;
* ``crash`` — the next generated write dies at its k-th WAL append
  (``crash`` or ``torn``) and the store reopens from the surviving bytes:
  it must answer like the model before the write or after it;
* ``refuse`` — the log refuses the next generated write's k-th append
  (sometimes the ROLLBACK after it too, leaving the transaction with no
  terminal record) and the writer lives on: with no restart the store
  must answer like
  the model before the write (a replace whose delete committed: after
  it), ship to its follower, reopen from its device as it stands, and
  take the write when it is retried;
* ``fail_over`` — the writer dies between writes and its follower's
  device is recovered as the new writer, which seeds a new follower.

A writer's death drops its pins.  After every step the index path, the
``Scan`` path, the cached engine (twice: the second a hit) and
``Cache=0`` must equal the naive model, a held pin the model *as of its
LSN*, and fsck must be clean — ``section-facts`` and ``doc-order``
included.  The documents are what the e2e corpus is not: contexts nest
(a heading below a sibling of a heading, a heading inside a heading),
headings span nodes and carry emphasis, hits sit under INTENSE, text
precedes every context, phrases are stop words, terms split.  After a
write, every limit-saturated context or combined query asked so far is
asked of the cached engine again: an entry stamped before the write is
served while the sections it lists, or the spares after them, still fill
its limit.
"""

from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import FollowerReplica, LogShipper
from repro.errors import CrashError, SourceUnavailableError
from repro.ordbms import MemoryLogDevice
from repro.query import QueryCache, QueryEngine, parse_query
from repro.resilience import FaultPlan
from repro.store import XmlStore, check_store
from tests.xdb_model import XdbModel

WORDS = (
    "alpha", "beta", "gamma", "budget", "cost", "benefit", "the", "of", "to",
    "cost-benefit", "U.S.", "FY04/05",
)
TAGS = ("h1", "h2", "b", "em", "p", "div", "span", "section")
NAMES = ("d1.xml", "d2.xml", "a3.xml", "a4.xml")

phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)


def _element(tag, children):
    return f"<{tag}>{''.join(children)}</{tag}>"


nodes = st.recursive(
    phrases.map(lambda text: text + " "),
    lambda children: st.builds(
        _element, st.sampled_from(TAGS), st.lists(children, min_size=1, max_size=4)
    ),
    max_leaves=14,
)
documents = st.lists(nodes, min_size=1, max_size=5).map(
    lambda children: _element("doc", children)
)

contents = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(
        lambda terms: "any:" + " ".join(terms)
    ),
    phrases.map(lambda phrase: f'"{phrase}"'),
)


@st.composite
def queries(draw):
    parts = []
    kind = draw(st.sampled_from(("context", "content", "combined", "nodename")))
    if kind == "nodename":
        parts.append("Nodename=" + draw(st.sampled_from(TAGS + ("doc",))))
    elif kind != "content":
        alternatives = draw(st.lists(phrases, min_size=1, max_size=2))
        parts.append("Context=" + quote("|".join(alternatives)))
    if kind in ("content", "combined") or kind == "nodename" and draw(st.booleans()):
        parts.append("Content=" + quote(draw(contents)))
    if draw(st.booleans()):
        parts.append(f"limit={draw(st.integers(1, 3))}")
    if draw(st.integers(0, 3)) == 0:
        parts.append("Doc=" + draw(st.sampled_from(("d", "a", "3"))))
    return "&".join(parts)


def answer(engine, query, snapshot=None):
    return [
        (match.file_name, match.context, match.content, match.score)
        for match in engine.execute(query, snapshot=snapshot)
    ]


#: A replace commits the old revision's delete, then the new revision's
#: store: two transactions.  A crash between them leaves the name with no
#: document, which the model's before/after cannot say.  Goes when a
#: replace becomes one transaction.
REPLACE_MAY_LOSE_THE_DOCUMENT = True


class XdbMachine(RuleBasedStateMachine):
    #: Asked after every step, whatever the step was.
    STANDING = (
        "Context=alpha", "Content=beta gamma",
        "Context=the|budget&Content=any:cost-benefit of&limit=2",
        # Saturated and often listing a section whose document also holds
        # the spare after it: one write takes both away.
        "Context=alpha|beta|budget&limit=1",
        # Paragraphs whose governing CONTEXT is rarely their parent.
        "Nodename=p",
    )

    def __init__(self):
        super().__init__()
        self.model = XdbModel()
        self.plan = FaultPlan()  # its "wal" rules kill the writer
        self.saturated = {}  # full, ROWID-ordered queries asked, in order
        self.serve(MemoryLogDevice())
        self.follow()

    def serve(self, device):
        """Open the writer on ``device``: first start, restart or promotion.
        The writer that was serving is gone, and its pins with it."""
        self.device = device
        self.store = XmlStore.open(self.plan.wrap_log_device(device))
        self.indexed = QueryEngine(self.store)
        self.scanned = QueryEngine(self.store, use_index=False)
        self.cached = QueryEngine(self.store, cache=QueryCache())
        self.pins = []  # (snapshot, the model as of it)

    def follow(self):
        """Seed a new follower from the writer's bundle."""
        bundle = LogShipper(self.device).bundle()
        self.follower = FollowerReplica.bootstrap("follower", MemoryLogDevice(), bundle)

    def ship(self):
        shipper = LogShipper(self.device)
        if shipper.can_ship_from(self.follower.acked_lsn):
            self.follower.apply_batch(shipper.batch_after(self.follower.acked_lsn))
        else:  # a checkpoint has passed the follower
            self.follower.install_bundle(shipper.bundle())
        # Replay holds a shipped transaction open as the database's own.
        assert self.follower.database.in_transaction == bool(self.follower.in_flight)
        if self.follower.in_flight:
            # A transaction the log holds with no COMMIT or ROLLBACK (both
            # refused, or a restart's loser): the writer took it back, the
            # follower holds it open, its reads pinned before it, until
            # the writer's next record.
            assert self.follower.store.documents() == self.store.documents()
        else:
            assert self.follower.dump() == self.store.dump()

    def write(self, name, text):
        """Replace (or first store) ``name`` with ``text``; delete it if None."""
        if text is None:
            self.store.delete_document(self.store.lookup_by_name(name).doc_id)
        else:
            self.store.replace_text(text, name)

    def agree(self, query):
        expected = self.model.answer(query)
        assert answer(self.indexed, query) == expected, query
        assert answer(self.scanned, query) == expected, query
        assert answer(self.cached, query) == expected, query
        assert answer(self.cached, query) == expected, query  # a hit
        assert answer(self.cached, query + "&Cache=0") == expected, query
        for snapshot, model in self.pins:
            expected = model.answer(query)
            for engine in (self.indexed, self.scanned, self.cached):
                assert answer(engine, query, snapshot) == expected, query

    @rule(name=st.sampled_from(NAMES), text=documents)
    def ingest_or_replace(self, name, text):
        self.commit(name, text)

    @precondition(lambda self: self.model.documents)
    @rule(data=st.data())
    def delete(self, data):
        self.commit(data.draw(st.sampled_from(sorted(self.model.documents))), None)

    def commit(self, name, text):
        self.write(name, text)
        self.land(name, text)
        self.ship()
        self.ask_again()

    def land(self, name, text):
        """The model after the write."""
        if text is None:
            self.model.delete(name)
        else:
            self.model.store(name, text)

    @rule()
    def checkpoint(self):
        self.store.checkpoint()

    @rule(
        data=st.data(), k=st.integers(1, 40), kind=st.sampled_from(("crash", "torn"))
    )
    def crash(self, data, k, kind):
        names = sorted(self.model.documents)
        if names and data.draw(st.booleans()):
            self.die_during(data.draw(st.sampled_from(names)), None, k, kind)
        else:
            self.die_during(data.draw(st.sampled_from(NAMES)), data.draw(documents), k, kind)

    def die_during(self, name, text, k, kind):
        """Write with the writer dying at the write's k-th WAL append, then
        restart it on what its device holds."""
        faults = (
            # Dead after the k-th append: not even a ROLLBACK lands.  First,
            # so it counts the k-th too (a crash stops the rules after it).
            self.plan.fail("wal", "append", kind="crash", after=k, times=None),
            self.plan.fail("wal", "append", kind=kind, after=k - 1),
        )
        prior = self.store.lookup_by_name(name)
        try:
            self.write(name, text)
        except CrashError:
            pass
        for fault in faults:  # fired or not: none may touch a later write
            self.plan.rules.remove(fault)
        self.serve(self.device)
        was, now = (
            None if entry is None else entry.doc_id
            for entry in (prior, self.store.lookup_by_name(name))
        )
        if now != was and now is None and text is not None:
            # Died between the replace's delete and its store.
            assert REPLACE_MAY_LOSE_THE_DOCUMENT, name
            self.model.delete(name)
        elif now != was:
            self.land(name, text)
        documents = [document.file_name for document in self.store.documents()]
        assert documents == list(self.model.documents)
        self.ship()
        self.ask_again()

    @rule(data=st.data(), k=st.integers(1, 40), times=st.integers(1, 2))
    def refuse(self, data, k, times):
        names = sorted(self.model.documents)
        if names and data.draw(st.booleans()):
            self.refused(data.draw(st.sampled_from(names)), None, k, times)
        else:
            self.refused(
                data.draw(st.sampled_from(NAMES)), data.draw(documents), k, times
            )

    def refused(self, name, text, k, times=1):
        """Write with the log refusing the write's k-th WAL append (and,
        with ``times=2``, the next one: the ROLLBACK the refusal causes);
        the writer lives on.  Then retry the write."""
        fault = self.plan.fail(
            "wal", "append", kind="unavailable", after=k - 1, times=times
        )
        prior = self.store.lookup_by_name(name)
        try:
            self.write(name, text)
        except SourceUnavailableError:
            pass
        self.plan.rules.remove(fault)
        if not fault.fired:
            self.land(name, text)
        elif prior is not None and self.store.lookup_by_name(name) is None:
            self.model.delete(name)  # a replace whose delete committed
        self.every_configuration_equals_the_model()
        self.ship()
        assert XmlStore.open(self.device).dump() == self.store.dump()
        if fault.fired and (text is not None or name in self.model.documents):
            self.commit(name, text)

    @rule()
    def fail_over(self):
        """The writer dies between writes; its follower takes over."""
        abandoned = self.follower.in_flight  # see ship()
        self.serve(self.follower.device)
        assert self.store.last_recovery.losers_discarded == abandoned
        self.follow()

    def ask_again(self):
        """The saturated answers cached before this write, asked again."""
        for query in self.saturated:
            assert answer(self.cached, query) == self.model.answer(query), query

    @precondition(lambda self: len(self.pins) < 2)
    @rule()
    def open_pin(self):
        self.pins.append((self.store.snapshot(), self.model.copy()))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def release_pin(self, data):
        snapshot, _ = self.pins.pop(data.draw(st.integers(0, len(self.pins) - 1)))
        snapshot.release()

    @rule(query=queries())
    def query(self, query):
        self.agree(query)
        parsed = parse_query(query)
        if parsed.kind != "content" and len(self.model.answer(query)) == parsed.limit:
            self.saturated[query] = None

    @invariant()
    def every_configuration_equals_the_model(self):
        for query in self.STANDING:
            self.agree(query)
        report = check_store(self.store.database)
        assert report.ok, report.render_text()

    def teardown(self):
        for snapshot, _ in self.pins:
            snapshot.release()


XdbMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=16, deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestXdbMachine = XdbMachine.TestCase


@pytest.fixture
def machine():
    """A machine holding one document, checked again after the test."""
    machine = XdbMachine()
    machine.ingest_or_replace("d1.xml", NESTED)
    yield machine
    machine.every_configuration_equals_the_model()
    machine.teardown()


class TestDeathsTheGeneratorMustReach:
    """Three deaths pinned, each followed by the machine's own checks."""

    def test_a_crash_inside_a_replaces_second_transaction(self, machine):
        store = machine.store
        rows = store.xml_table.lookup("DOC_ID", store.lookup_by_name("d1.xml").doc_id)
        # BEGIN, a delete per row and one for the catalog entry, COMMIT;
        # then BEGIN, and the store's first insert dies.
        machine.die_during("d1.xml", "<doc><h1>Beta</h1></doc>", len(rows) + 5, "crash")
        assert machine.store.last_recovery.losers_discarded
        assert machine.model.documents == {}
        assert machine.follower.in_flight  # the loser, until the next record
        machine.ingest_or_replace("d2.xml", "<doc><h1>Gamma</h1></doc>")
        assert not machine.follower.in_flight

    def test_a_torn_append(self, machine):
        machine.die_during("d2.xml", "<doc><h1>Beta</h1><p>alpha</p></doc>", 3, "torn")
        assert machine.store.last_recovery.torn_tail
        assert list(machine.model.documents) == ["d1.xml"]
        machine.ingest_or_replace("d2.xml", "<doc><h1>Gamma</h1></doc>")  # past the tear
        machine.fail_over()

    def test_a_promotion_after_a_checkpoint(self, machine):
        machine.checkpoint()
        machine.checkpoint()  # past the first one's marker, never shipped
        machine.ingest_or_replace("d2.xml", "<doc><h1>Beta</h1></doc>")
        assert "d1.xml" in machine.follower.device.load_checkpoint()  # a bundle
        machine.fail_over()
        assert machine.store.last_recovery.checkpoint_lsn > 0
        assert list(machine.model.documents) == ["d1.xml", "d2.xml"]


class TestRefusalsTheGeneratorMustReach:
    """A refused append at each kind of record a store writes, and one
    inside a replace's second transaction, each followed by the
    machine's own checks: no half-stored document, no wedged writer."""

    SEVEN = "<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>"  # 7 nodes

    @pytest.mark.parametrize(
        "k", [1, 2, 3, 5, 10], ids=["begin", "doc-row", "root", "child", "commit"]
    )
    def test_a_refused_store(self, machine, k):
        machine.refused("d2.xml", self.SEVEN, k)
        assert list(machine.model.documents) == ["d1.xml", "d2.xml"]  # the retry
        assert not machine.store.database.in_transaction

    def test_a_refusal_inside_a_replaces_second_transaction(self, machine):
        store = machine.store
        rows = store.xml_table.lookup("DOC_ID", store.lookup_by_name("d1.xml").doc_id)
        # BEGIN, a delete per row and one for the catalog entry, COMMIT;
        # then BEGIN, and the store's DOC insert is refused.
        machine.refused("d1.xml", self.SEVEN, len(rows) + 5)
        assert list(machine.model.documents) == ["d1.xml"]  # the retry

    @pytest.mark.parametrize("k", [5, 10], ids=["child", "commit"])
    def test_a_refused_rollback_too(self, machine, k):
        """No ROLLBACK lands either: the follower holds the transaction
        open until the retry's BEGIN, then takes it back."""
        machine.refused("d2.xml", self.SEVEN, k, times=2)
        assert list(machine.model.documents) == ["d1.xml", "d2.xml"]  # the retry
        assert not machine.follower.in_flight
        machine.fail_over()


ALPHA = "Alpha of the U.S. inner FY04/05 tail"
NESTED = (
    "<doc><p>front cost-benefit matter</p>"
    "<h1>Alpha <b>of the</b> U.S.<h2>inner FY04/05</h2>tail</h1>"
    "<p>one <b>beta</b> cost-benefit</p>"
    "<div><h2>Nested <em>beta</em></h2><p>inner U.S. <b>beta</b></p></div>"
    "<p>after FY04/05</p><h1>Beta</h1><p>cost benefit</p></doc>"
)


class TestTheModelOnAFixedDocument:
    """The shapes the generator is there for, pinned so a shrunk strategy
    cannot quietly stop producing them."""

    @pytest.fixture
    def pair(self):
        store, model = XmlStore(), XdbModel()
        store.store_text(NESTED, "nested.xml")
        model.store("nested.xml", NESTED)
        return store, model

    @pytest.mark.parametrize("query, contexts", [
        # A term the tokenizer splits matches the text it was typed from.
        # ("cost benefit" under Beta holds it too: its tokens, in order).
        ("Content=cost-benefit", [ALPHA, "Beta", "nested.xml"]),
        ("Content=U.S.", [ALPHA, "Nested beta"]),
        ("Content=FY04/05", [ALPHA, "inner FY04/05"]),
        ("Content=any:cost-benefit zzz", [ALPHA, "Beta", "nested.xml"]),
        ("Context=Beta&Content=cost-benefit", ["Beta"]),
        ("Context=Beta&Content=benefit-cost", []),
        # A heading inside a heading, a heading below a heading's sibling.
        ("Context=inner", ["inner FY04/05"]),
        ("Context=of the", [ALPHA]),
        ("Context=Nested|Alpha&Content=beta", [ALPHA, "Nested beta"]),
        ("Content=beta", [ALPHA, "Nested beta", "Beta"]),
        ("Content=beta&limit=1", ["Nested beta"]),  # two emphasised hits
        # An element's heading: its own title, what governs it, the file.
        ("Nodename=p", ["nested.xml", ALPHA, "Nested beta", ALPHA, "Beta"]),
        ("Nodename=b", [ALPHA, ALPHA, "Nested beta"]),
        ("Nodename=h2", ["inner FY04/05", "Nested beta"]),
        ("Nodename=em", ["Nested beta"]),
        ("Nodename=b&Content=beta&limit=1", [ALPHA]),
    ])
    def test_index_scan_and_model_agree(self, pair, query, contexts):
        store, model = pair
        expected = model.answer(query)
        assert [entry[1] for entry in expected] == contexts
        assert answer(QueryEngine(store), query) == expected
        assert answer(QueryEngine(store, use_index=False), query) == expected
        assert check_store(store.database).ok
