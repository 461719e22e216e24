"""MVCC: snapshot visibility, transaction pins, version-GC, the seqlock."""

import threading

import pytest

from repro import obs
from repro.errors import CatalogError, RowIdError, TransactionError
from repro.ordbms import (
    ABSENT,
    Column,
    Database,
    INTEGER,
    MvccState,
    TableSchema,
    VARCHAR,
)
from repro.ordbms.table import AUTO_VACUUM_INTERVAL, RUN_CHUNK


@pytest.fixture
def database():
    db = Database("mvcctest")
    db.create_table(
        TableSchema(
            "T",
            (
                Column("ID", INTEGER, nullable=False),
                Column("V", VARCHAR),
            ),
            primary_key="ID",
        )
    )
    return db


@pytest.fixture
def table(database):
    return database.table("T")


class TestSnapshotVisibility:
    def test_snapshot_does_not_see_later_insert(self, database, table):
        rid1 = database.insert("T", {"ID": 1, "V": "one"})
        with database.open_snapshot() as snap:
            rid2 = database.insert("T", {"ID": 2, "V": "two"})
            assert table.visible_row(rid1, snap.lsn).V == "one"
            assert table.visible_row(rid2, snap.lsn) is None
        # A fresh snapshot sees both.
        with database.open_snapshot() as fresh:
            assert table.visible_row(rid2, fresh.lsn).V == "two"

    def test_snapshot_sees_pre_update_value(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "old"})
        with database.open_snapshot() as snap:
            database.update("T", rid, {"V": "new"})
            assert table.visible_row(rid, snap.lsn).V == "old"
            assert table.fetch(rid).V == "new"  # live read unaffected

    def test_snapshot_sees_deleted_row(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "doomed"})
        with database.open_snapshot() as snap:
            database.delete("T", rid)
            assert table.visible_row(rid, snap.lsn).V == "doomed"
            with pytest.raises(RowIdError):
                table.fetch(rid)
        with database.open_snapshot() as fresh:
            assert table.visible_row(rid, fresh.lsn) is None

    def test_update_chain_resolves_oldest_superseding_preimage(
        self, database, table
    ):
        rid = database.insert("T", {"ID": 1, "V": "v0"})
        snapshots = [database.open_snapshot()]
        for revision in range(1, 4):
            database.update("T", rid, {"V": f"v{revision}"})
            snapshots.append(database.open_snapshot())
        # Each pin sees exactly the value committed when it was opened.
        for revision, snap in enumerate(snapshots):
            assert table.visible_row(rid, snap.lsn).V == f"v{revision}"
        for snap in snapshots:
            snap.release()

    def test_visible_many_raises_on_invisible_row(self, database, table):
        with database.open_snapshot() as snap:
            rid = database.insert("T", {"ID": 1})
            with pytest.raises(RowIdError):
                table.visible_many([rid], snap.lsn)

    def test_visible_many_names_the_absent_rowid_batch_or_single(
        self, database, table
    ):
        """One window for the whole batch changes nothing about who is
        visible: a rowid absent at the pin raises, wherever it sits, with
        or without history on the table."""
        seen = [database.insert("T", {"ID": n, "V": "old"}) for n in range(3)]
        gone = database.insert("T", {"ID": 9})
        database.delete("T", gone)
        database.vacuum_versions()
        assert not table._history  # the dead-slot path: no history to ask
        with database.open_snapshot() as snap:
            for batch in ([gone], [seen[0], gone, seen[1]]):
                with pytest.raises(RowIdError, match=str(gone)):
                    table.visible_many(batch, snap.lsn)
            late = database.insert("T", {"ID": 10})
            database.update("T", seen[1], {"V": "new"})
            database.delete("T", seen[2])
            assert table._history  # the per-row path
            for batch in ([late], seen + [late], [late, gone]):
                with pytest.raises(RowIdError, match=str(late)):
                    table.visible_many(batch, snap.lsn)
            rows = table.visible_many(reversed(seen), snap.lsn)
            assert [row.V for row in rows] == ["old"] * 3
            assert [row.rowid for row in rows] == seen[::-1]
            assert table.visible_row(late, snap.lsn) is None

    def test_snapshot_scan_is_as_of_pin(self, database, table):
        database.insert("T", {"ID": 1, "V": "a"})
        rid2 = database.insert("T", {"ID": 2, "V": "b"})
        with database.open_snapshot() as snap:
            database.insert("T", {"ID": 3, "V": "c"})
            database.delete("T", rid2)
            ids = sorted(row.ID for row in table.snapshot_scan(snap.lsn))
            assert ids == [1, 2]

    def test_snapshot_search_indexed_column(self, database, table):
        # ID is the primary key, so it carries a B+tree index.
        database.insert("T", {"ID": 1, "V": "a"})
        with database.open_snapshot() as snap:
            database.insert("T", {"ID": 2, "V": "b"})
            assert [
                row.ID for row in table.snapshot_search("ID", 1, snap.lsn)
            ] == [1]
            assert table.snapshot_search("ID", 2, snap.lsn) == []

    def test_snapshot_search_update_moves_row_between_keys(
        self, database, table
    ):
        rid = database.insert("T", {"ID": 1, "V": "a"})
        with database.open_snapshot() as snap:
            database.update("T", rid, {"ID": 9})
            # The live index says ID=9, but at the pin the row had ID=1.
            assert [
                row.ID for row in table.snapshot_search("ID", 1, snap.lsn)
            ] == [1]
            assert table.snapshot_search("ID", 9, snap.lsn) == []

    def test_snapshot_search_unindexed_column_falls_back_to_scan(
        self, database, table
    ):
        database.insert("T", {"ID": 1, "V": "x"})
        with database.open_snapshot() as snap:
            database.insert("T", {"ID": 2, "V": "x"})
            rows = table.snapshot_search("V", "x", snap.lsn)
            assert [row.ID for row in rows] == [1]

    def test_snapshot_rowids_is_snapshot_search_without_the_rows(
        self, database, table
    ):
        table.create_index("V")
        kept = database.insert("T", {"ID": 1, "V": "a"})
        moved = database.insert("T", {"ID": 2, "V": "a"})
        dropped = database.insert("T", {"ID": 3, "V": "a"})
        with database.open_snapshot() as snap:
            assert table.snapshot_rowids("V", "a", snap.lsn) == [
                kept, moved, dropped,
            ]  # nothing changed yet: the live postings, as they stand
            database.update("T", moved, {"V": "b"})
            database.delete("T", dropped)
            database.insert("T", {"ID": 4, "V": "a"})
            for value in ("a", "b", "c"):
                assert table.snapshot_rowids("V", value, snap.lsn) == [
                    row.rowid
                    for row in table.snapshot_search("V", value, snap.lsn)
                ]
            assert table.snapshot_rowids("v", "a", snap.lsn) == [
                kept, moved, dropped,
            ]
            assert table.snapshot_rowids("V", "b", snap.lsn) == []
        unindexed = Database("d").create_table(table.schema)
        with pytest.raises(CatalogError):
            unindexed.snapshot_rowids("V", "a", 0)

    def test_rows_after_is_the_physical_run_as_of_the_pin(
        self, database, table
    ):
        first, *rest = [
            database.insert("T", {"ID": n, "V": f"v{n}"})
            for n in range(3 * RUN_CHUNK)
        ]
        now = database.mvcc.read_lsn
        assert [row.rowid for row in table.rows_after(first, now())] == rest
        with database.open_snapshot() as snap:
            late = database.insert("T", {"ID": 999})
            database.update("T", rest[0], {"V": "changed"})
            database.delete("T", rest[4])
            pinned = list(table.rows_after(first, snap.lsn))
            assert [row.rowid for row in pinned] == rest  # not ``late``
            assert pinned[0].V == "v1" and pinned[4].V == "v5"
            # As of now, the deleted slot ends the run; pinned, the late row does.
            assert [
                r.rowid for r in table.rows_after(first, now())
            ] == rest[:4]
            assert list(table.rows_after(rest[-1], snap.lsn)) == []
            assert [
                r.rowid for r in table.rows_after(rest[-1], now())
            ] == [late]

    def test_rows_after_decodes_only_what_is_pulled(self, database, table):
        previous = obs.push_registry()
        try:
            rowids = [database.insert("T", {"ID": n}) for n in range(40)]
            run = table.rows_after(rowids[0], database.mvcc.read_lsn())
            assert [next(run).ID, next(run).ID] == [1, 2]
            run.close()
            [(series, decoded)] = [
                item for item in obs.snapshot().items()
                if item[0].startswith("repro_ordbms_rows_read_total")
            ]
            assert decoded == 2 and 'path="snapshot"' in series
        finally:
            obs.set_registry(previous)

    def test_changed_rowids_since(self, database, table):
        rid1 = database.insert("T", {"ID": 1})
        pin = database.mvcc.lsn
        rid2 = database.insert("T", {"ID": 2})
        database.update("T", rid1, {"V": "touched"})
        assert table.changed_rowids_since(pin) == {rid1, rid2}
        assert table.changed_rowids_since(database.mvcc.lsn) == set()


class TestTransactionPin:
    def test_snapshot_during_transaction_pins_txn_begin(
        self, database, table
    ):
        rid = database.insert("T", {"ID": 1, "V": "committed"})
        with database.begin():
            database.update("T", rid, {"V": "in-flight"})
            with database.open_snapshot() as snap:
                # The snapshot must not see any of the open transaction.
                assert table.visible_row(rid, snap.lsn).V == "committed"
        with database.open_snapshot() as fresh:
            assert table.visible_row(rid, fresh.lsn).V == "in-flight"

    def test_pin_correct_under_rollback(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "committed"})
        transaction = database.begin()
        database.update("T", rid, {"V": "doomed"})
        snap = database.open_snapshot()
        transaction.rollback()
        # The compensating statements got LSNs above the pin, so the
        # snapshot still reads the pre-transaction value.
        assert table.visible_row(rid, snap.lsn).V == "committed"
        assert table.fetch(rid).V == "committed"
        snap.release()

    def test_gc_during_transaction_respects_txn_pin(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "base"})
        with database.begin():
            database.update("T", rid, {"V": "wip"})
            database.vacuum_versions()
            # The txn pin holds the horizon at the pre-txn LSN: the
            # in-flight update's pre-image must survive the sweep so a
            # mid-transaction snapshot still reads the committed value.
            assert table.version_count >= 1
            with database.open_snapshot() as snap:
                assert table.visible_row(rid, snap.lsn).V == "base"


class TestVersionGc:
    def test_vacuum_reclaims_only_unpinned_history(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "v0"})
        snap = database.open_snapshot()
        database.update("T", rid, {"V": "v1"})
        database.update("T", rid, {"V": "v2"})
        assert table.version_count > 0
        reclaimed_while_pinned = database.vacuum_versions()
        # Entries above the pin must survive: the snapshot still needs
        # them to reconstruct v0.
        assert table.visible_row(rid, snap.lsn).V == "v0"
        snap.release()
        reclaimed_after = database.vacuum_versions()
        assert reclaimed_after > 0
        assert table.version_count == 0
        assert (
            database.mvcc.reclaimed_total
            == reclaimed_while_pinned + reclaimed_after
        )

    def test_auto_vacuum_bounds_history_without_pins(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "x"})
        for index in range(AUTO_VACUUM_INTERVAL + 2):
            database.update("T", rid, {"V": f"x{index}"})
        # Un-pinned history collapses at the interval sweep; whatever
        # remains is bounded by the statements since the last sweep.
        assert table.version_count <= AUTO_VACUUM_INTERVAL + 2
        database.vacuum_versions()
        assert table.version_count == 0

    def test_commit_reclaims_history_when_nothing_is_pinned(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "base"})
        with database.begin():
            database.update("T", rid, {"V": "v1"})
            database.insert("T", {"ID": 2})
            assert len(table._history) == 2  # the txn pin holds them
        assert len(table._history) == 0
        with pytest.raises(KeyError):
            with database.begin():
                database.delete("T", rid)
                raise KeyError("abort")
        assert len(table._history) == 0  # a rollback closes and sweeps too

    def test_commit_sweep_keeps_what_a_pin_needs(self, database, table):
        rid = database.insert("T", {"ID": 1, "V": "v0"})
        old = database.open_snapshot()
        with database.begin():
            database.update("T", rid, {"V": "v1"})
        young = database.open_snapshot()
        with database.begin():
            database.update("T", rid, {"V": "v2"})
        assert table.version_count == 2
        assert table.visible_row(rid, old.lsn).V == "v0"
        old.release()
        with database.begin():
            database.insert("T", {"ID": 2})
        # The horizon moved to the young pin: v0 is gone, v1 is kept.
        assert [image[1] for _, image in table._history[rid]] == ["v1"]
        assert table.visible_row(rid, young.lsn).V == "v1"
        young.release()

    def test_commit_under_a_held_pin_does_not_sweep_again(
        self, database, table, monkeypatch
    ):
        database.insert("T", {"ID": 0})
        sweeps = []
        real = type(table).vacuum_versions
        monkeypatch.setattr(
            type(table), "vacuum_versions",
            lambda self, horizon=None: sweeps.append(horizon) or real(self, horizon),
        )
        with database.open_snapshot() as snap:
            for index in range(1, 6):
                with database.begin():
                    database.insert("T", {"ID": index})
            # One sweep when the pin became the horizon, none after: a
            # long-held pin must not make every commit walk all history.
            assert sweeps == [snap.lsn]
            assert table.version_count == 5
        with database.begin():
            database.insert("T", {"ID": 6})
        assert len(sweeps) == 2 and table.version_count == 0

    def test_gc_horizon_tracks_oldest_pin(self, database):
        mvcc = database.mvcc
        database.insert("T", {"ID": 1})
        first = database.open_snapshot()
        database.insert("T", {"ID": 2})
        second = database.open_snapshot()
        assert mvcc.gc_horizon() == first.lsn
        first.release()
        assert mvcc.gc_horizon() == second.lsn
        second.release()
        assert mvcc.gc_horizon() == mvcc.lsn


class TestMvccState:
    def test_single_writer_tripwire(self):
        state = MvccState()
        state.begin_statement()
        with pytest.raises(TransactionError):
            state.begin_statement()
        state.commit_statement(1)
        assert state.begin_statement() == 2

    def test_release_is_idempotent(self, database):
        snap = database.open_snapshot()
        snap.release()
        snap.release()
        assert database.mvcc.active_snapshots == 0

    def test_active_snapshot_gauges(self, database):
        previous = obs.push_registry()
        try:
            database.insert("T", {"ID": 1})
            with database.open_snapshot():
                database.insert("T", {"ID": 2})
                with database.open_snapshot():
                    # Reopen under load: the gauges reflect both pins and
                    # the age of the oldest one.
                    database.open_snapshot().release()
                    snapshot = obs.snapshot()
                    assert snapshot["repro_mvcc_active_snapshots"] == 2
                    assert (
                        snapshot["repro_mvcc_oldest_snapshot_age_lsns"] == 1
                    )
            assert obs.snapshot()["repro_mvcc_active_snapshots"] == 0
        finally:
            obs.set_registry(previous)

    def test_absent_sentinel_repr(self):
        assert repr(ABSENT) == "ABSENT"


class TestSeqlockReaders:
    def test_concurrent_reader_never_sees_torn_state(self, database, table):
        """A reader hammering visible_row during writes sees only committed
        values — the seqlock retries across mid-statement windows."""
        rid = database.insert("T", {"ID": 1, "V": "gen0"})
        pin = database.mvcc.lsn
        stop = threading.Event()
        seen: set[str] = set()
        errors: list[BaseException] = []

        def read_loop():
            try:
                while not stop.is_set():
                    row = table.visible_row(rid, pin)
                    seen.add(row.V)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            for generation in range(200):
                database.update("T", rid, {"V": f"gen{generation + 1}"})
        finally:
            stop.set()
            reader.join()
        assert not errors
        # The pin predates every update: the reader saw gen0, only gen0.
        assert seen == {"gen0"}

    def test_an_error_out_of_a_torn_window_is_the_tear(self, table):
        """A posting gone between two lookups of one probe raises KeyError;
        if a statement moved the counter under the read it is retried, if
        the window was stable the error is the read's own."""
        attempts = []

        def read():
            attempts.append(len(attempts))
            if len(attempts) == 1:
                table._seq += 2  # a whole statement went by under the read
                raise KeyError("posting gone")
            return "stable"

        assert table.stable_read(read) == "stable"
        assert attempts == [0, 1] and table.read_retries == 1
        with pytest.raises(KeyError):
            table.stable_read(lambda: {}["never there"])
