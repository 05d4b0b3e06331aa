"""Per-table commit stamps for the data-derived caches.

Value maps, linker pools and statistics stamp their entries on the
commit stamps of the tables they read (``Table.changed_at`` through
``Database.commit_stamp``), so a commit to one table keeps every entry
that never reads it.  The differential state machine below interleaves
every kind of write the storage layer has — inserts, deletes, in-place
and version-append updates, rollbacks, vacuum, compaction — and after
each step requires every cached value to equal a fresh recompute.
"""

from __future__ import annotations

import datetime as _dt
import queue
import sys
import threading

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.annotation import TaskExtractor
from repro.dataaware import AttributeValueCache, CandidateSet
from repro.datasets import build_movie_database
from repro.db import Catalog, ColumnRef
from repro.db.statistics import StatisticsCatalog
from repro.db.types import DataType
from repro.db.versioncache import VersionStampedCache
from repro.errors import ConstraintViolation
from repro.nlu import EntityLinker
from repro.synthesis import SlotVocabulary
from tests.conftest import SMALL_MOVIE_CONFIG

# (root table, attribute): own columns, one- and multi-hop paths, and
# the reservation-rooted maps that every booking invalidates.
MAPS = (
    ("screening", ColumnRef("movie", "title")),
    ("screening", ColumnRef("screening", "room")),
    ("screening", ColumnRef("actor", "name")),
    ("movie", ColumnRef("language", "name")),
    ("customer", ColumnRef("customer", "email")),
    ("reservation", ColumnRef("movie", "title")),
    ("reservation", ColumnRef("customer", "city")),
)
COLUMNS = (
    ("reservation", "no_tickets"),
    ("screening", "room"),
    ("movie", "title"),
    ("customer", "city"),
    ("actor", "name"),
)
TABLES = ("movie", "screening", "reservation")
WORDS = ("Arrival", "Brazil", "Casablanca", "Dune", "Heat", "room 7")


def _build():
    database, annotations = build_movie_database(SMALL_MOVIE_CONFIG)
    catalog = Catalog(database)
    tasks = TaskExtractor(catalog, annotations).extract_all()
    return database, catalog, SlotVocabulary.from_tasks(tasks, catalog)


def _text_slots(vocabulary):
    return tuple(
        name
        for name in vocabulary.names()
        if vocabulary.source(name).dtype is DataType.TEXT
        and vocabulary.source(name).attribute is not None
    )


class _Caches:
    """The shared caches under test plus a from-scratch recompute."""

    def __init__(self, database, catalog, vocabulary) -> None:
        self.database = database
        self.catalog = catalog
        self.vocabulary = vocabulary
        self.slots = _text_slots(vocabulary)
        self.maps = AttributeValueCache(database, catalog)
        self.linker = EntityLinker(database, vocabulary)
        self.statistics = database.statistics

    def snapshot(self, maps=None, linker=None, statistics=None) -> dict:
        maps = maps or self.maps
        linker = linker or self.linker
        statistics = statistics or self.statistics
        values = {}
        for root, attribute in MAPS:
            values[root, attribute] = maps.full_map(root, attribute)
        for slot in self.slots:
            values[slot] = linker._text_pool(slot).values
        for table, column in COLUMNS:
            values[table, column] = statistics.column(table, column)
        for table in TABLES:
            values[table] = statistics.table(table)
        return values

    def fresh(self) -> dict:
        return self.snapshot(
            AttributeValueCache(self.database, self.catalog),
            EntityLinker(self.database, self.vocabulary),
            StatisticsCatalog(self.database),
        )

    def mismatches(self) -> list:
        """Keys whose cached value differs from a recompute at the same
        snapshot (both taken under one pin)."""
        with self.database.read_locked():
            cached = self.snapshot()
            fresh = self.fresh()
        return [key for key in fresh if cached[key] != fresh[key]]


class _PinnedReader:
    """A thread holding one snapshot pin; runs calls under it."""

    def __init__(self, database) -> None:
        self._calls: queue.Queue = queue.Queue()
        self._results: queue.Queue = queue.Queue()
        pinned = threading.Event()

        def run() -> None:
            with database.read_locked():
                pinned.set()
                while True:
                    call = self._calls.get()
                    if call is None:
                        return
                    try:
                        self._results.put((True, call()))
                    except BaseException as error:  # re-raised by call()
                        self._results.put((False, error))

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        pinned.wait(timeout=30)

    def call(self, function):
        self._calls.put(function)
        ok, value = self._results.get(timeout=60)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Drop the pin (the last pin draining vacuums)."""
        self._calls.put(None)
        self._thread.join(timeout=30)


def _value(data, dtype: DataType):
    if dtype is DataType.TEXT:
        return data.draw(st.sampled_from(WORDS))
    if dtype is DataType.INTEGER:
        return data.draw(st.integers(1, 4))
    if dtype is DataType.FLOAT:
        return data.draw(st.sampled_from([6.5, 9.0]))
    if dtype is DataType.DATE:
        return _dt.date(2024, 5, data.draw(st.integers(1, 3)))
    if dtype is DataType.TIME:
        return _dt.time(data.draw(st.sampled_from([18, 21])), 0)
    return data.draw(st.booleans())


def _new_row(database, table_name: str, data) -> dict:
    schema = database.table(table_name).schema
    foreign = {fk.column: fk for fk in schema.foreign_keys}
    key = schema.primary_key
    next_key = 1 + max(
        database.table(table_name).column_values(key), default=0
    )
    row = {}
    for column in schema.columns:
        if column.name == key:
            row[column.name] = next_key
        elif column.name in foreign:
            fk = foreign[column.name]
            targets = database.table(fk.target_table).column_values(
                fk.target_column
            )
            row[column.name] = data.draw(st.sampled_from(sorted(targets)))
        elif column.unique:
            row[column.name] = f"new{next_key}@mail.example.org"
        else:
            row[column.name] = _value(data, column.dtype)
    return row


def _plain_columns(schema) -> list:
    """Columns an update may change without touching keys."""
    foreign = {fk.column for fk in schema.foreign_keys}
    return [
        column
        for column in schema.columns
        if column.name != schema.primary_key
        and column.name not in foreign
        and not column.unique
    ]


def _pick_row(database, data, table_name: str):
    row_ids = database.table(table_name).row_ids()
    if not row_ids:
        return None
    return data.draw(st.sampled_from(sorted(row_ids)))


class TableStampMachine(RuleBasedStateMachine):
    """Random writes; every cached value must equal a fresh recompute."""

    def __init__(self) -> None:
        super().__init__()
        database, catalog, vocabulary = _build()
        self.database = database
        self.caches = _Caches(database, catalog, vocabulary)
        self.tables = tuple(table.name for table in database.schema)

    def _insert(self, data) -> None:
        table = data.draw(st.sampled_from(self.tables))
        self.database.insert(table, _new_row(self.database, table, data))

    def _delete(self, data) -> None:
        table = data.draw(st.sampled_from(self.tables))
        row_id = _pick_row(self.database, data, table)
        if row_id is None:
            return
        try:
            self.database.delete(table, row_id)
        except ConstraintViolation:
            pass  # still referenced: refused before any change

    def _update(self, data) -> None:
        table = data.draw(st.sampled_from(self.tables))
        row_id = _pick_row(self.database, data, table)
        schema = self.database.table(table).schema
        columns = _plain_columns(schema)
        if row_id is None or not columns:
            return
        column = data.draw(st.sampled_from(columns))
        self.database.update(
            table, row_id, {column.name: _value(data, column.dtype)}
        )

    @rule(data=st.data())
    def insert(self, data):
        self._insert(data)

    @rule(data=st.data())
    def delete(self, data):
        self._delete(data)

    @rule(data=st.data())
    def update_in_place(self, data):
        # No pin anywhere: unsealed slots are overwritten in place.
        assert self.database.snapshots.pin_count() == 0
        self._update(data)

    @rule(data=st.data())
    def update_with_reader_pinned(self, data):
        reader = _PinnedReader(self.database)
        try:
            before = reader.call(self.caches.snapshot)
            self._update(data)
            # The pinned reader keeps its snapshot: cache hits must not
            # hand it values committed after its pin.
            assert reader.call(self.caches.mismatches) == []
            assert reader.call(self.caches.snapshot) == before
        finally:
            reader.close()

    @rule(data=st.data())
    def delete_then_vacuum(self, data):
        reader = _PinnedReader(self.database)
        try:
            for __ in range(data.draw(st.integers(1, 3))):
                self._delete(data)
            # Tombstones stay resident while the reader is pinned.
            assert self.caches.mismatches() == []
            assert reader.call(self.caches.mismatches) == []
        finally:
            reader.close()
        self.database._vacuum_all()

    @rule(data=st.data())
    def rolled_back(self, data):
        class Abort(Exception):
            pass

        with pytest.raises(Abort):
            with self.database.connect().transaction():
                for __ in range(data.draw(st.integers(1, 3))):
                    step = data.draw(st.sampled_from(
                        (self._insert, self._delete, self._update)
                    ))
                    step(data)
                # Lookups over uncommitted writes must not be stored.
                self.caches.snapshot()
                raise Abort

    @rule()
    def compact(self):
        self.database.compact()

    @invariant()
    def caches_match_recompute(self):
        assert self.caches.mismatches() == []


TestTableStampMachine = TableStampMachine.TestCase
TestTableStampMachine.settings = settings(
    max_examples=15,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture()
def caches():
    return _Caches(*_build())


class TestCommitStamps:
    def test_booking_keeps_unrelated_maps_hit(self, caches):
        database = caches.database
        key = ("screening", ColumnRef("movie", "title"))
        before = caches.maps.full_map(*key)
        rooted = caches.maps.full_map("reservation", ColumnRef("movie", "title"))
        hits, misses = caches.maps.hits, caches.maps.misses
        screening = database.rows("screening")[0]["screening_id"]
        customer = database.rows("customer")[0]["customer_id"]
        booked = database.connect().call(
            "ticket_reservation", customer_id=customer,
            screening_id=screening, ticket_amount=1,
        ).value
        assert caches.maps.full_map(*key) is before
        assert caches.maps.hits == hits + 1
        assert caches.maps.misses == misses
        after = caches.maps.full_map("reservation", ColumnRef("movie", "title"))
        assert after is not rooted
        assert caches.maps.misses == misses + 1
        assert set(after) - set(rooted) == {
            database.table("reservation").lookup(
                "reservation_id", booked["reservation_id"]
            )[0]
        }

    def test_in_place_update_moves_the_stamp(self, caches):
        database = caches.database
        table = database.table("movie")
        stamp = database.commit_stamp((table,))
        titles = caches.maps.full_map("screening", ColumnRef("movie", "title"))
        row_id = table.row_ids()[0]
        slots = len(table._created)
        database.update("movie", row_id, {"title": "Zebra"})
        assert len(table._created) == slots  # written in place
        assert database.commit_stamp((table,)) > stamp
        renamed = caches.maps.full_map("screening", ColumnRef("movie", "title"))
        assert renamed != titles
        assert caches.mismatches() == []

    def test_vacuum_never_lowers_the_stamp(self, caches):
        database = caches.database
        table = database.table("reservation")
        database.delete("reservation", table.row_ids()[-1])
        stamp = database.commit_stamp((table,))
        database._vacuum_all()
        assert database.commit_stamp((table,)) == stamp == table.changed_at

    def test_uncommitted_writes_stay_below_the_readers_stamp(self, caches):
        database = caches.database
        table = database.table("movie")
        key = ("screening", ColumnRef("movie", "title"))
        reader = _PinnedReader(database)
        try:
            before = reader.call(lambda: caches.maps.full_map(*key))
            with database.connect().transaction():
                database.update("movie", table.row_ids()[0], {"title": "Zebra"})
                assert table.changed_at == database.clock.pending
                # Capped at the reader's generation: the pending write
                # can never match a stamp a committed state carries.
                assert reader.call(
                    lambda: database.commit_stamp((table,))
                ) == database.data_version
                assert reader.call(lambda: caches.maps.full_map(*key)) == before
            assert database.commit_stamp((table,)) == database.data_version
            assert reader.call(lambda: caches.maps.full_map(*key)) == before
        finally:
            reader.close()
        assert caches.maps.full_map(*key) != before
        assert caches.mismatches() == []

    def test_prune_skips_probes_until_the_root_changes(self, caches):
        database, catalog = caches.database, caches.catalog
        candidates = CandidateSet.initial(database, catalog, "reservation")
        table = database.table("reservation")
        probes = []
        original = table.has_row

        def counting(row_id):
            probes.append(row_id)
            return original(row_id)

        table.has_row = counting
        database.insert("movie", _movie_row(database))
        assert candidates.prune_missing() is candidates
        assert probes == []
        gone = candidates.row_ids[0]
        database.delete("reservation", gone)
        pruned = candidates.prune_missing()
        assert len(probes) == len(candidates)
        assert pruned.row_ids == candidates.row_ids[1:]
        # The pruned set carries the stamp it was probed at.
        probes.clear()
        assert pruned.prune_missing() is pruned
        assert probes == []
        # Refinements inherit the stamp: rows they keep were present.
        refined = pruned.refine(ColumnRef("reservation", "no_tickets"), 2)
        assert refined.prune_missing() is refined
        assert probes == []

    def test_lookup_must_name_its_tables(self, caches):
        database = caches.database
        cache = VersionStampedCache(database)
        with pytest.raises(TypeError):
            cache.lookup("k", lambda: 1)
        assert cache.lookup("k", lambda: 1, (database.table("movie"),)) == 1
        counter = VersionStampedCache(database, version=lambda: 0)
        assert counter.lookup("k", lambda: 2) == 2

    def test_value_map_reads_the_tables_on_its_path(self, caches):
        maps = caches.maps
        path = maps.planner("reservation").path_to("movie")
        assert path.tables == ("reservation", "screening", "movie")
        assert [s.from_table for s in path.steps] == list(path.tables[:-1])
        maps.full_map("reservation", ColumnRef("movie", "title"))
        cached, tables = maps._reads[
            ("reservation", ColumnRef("movie", "title"))
        ]
        assert cached is path
        assert [t.name for t in tables] == list(path.tables)


def _movie_row(database) -> dict:
    language = database.rows("language")[0]["language_id"]
    next_id = 1 + max(database.table("movie").column_values("movie_id"))
    return {"movie_id": next_id, "title": "Zebra", "genre": "drama",
            "year": 2020, "duration_minutes": 90, "language_id": language}


class TestConcurrentReaders:
    def test_reads_equal_a_recompute_under_the_same_pin(self, caches):
        database = caches.database
        screening = database.rows("screening")[0]["screening_id"]
        customer = database.rows("customer")[0]["customer_id"]
        stop = threading.Event()
        commits = []
        failures = []
        mismatches = []

        def writer():
            connection = database.connect()
            try:
                while not stop.is_set():
                    booked = connection.call(
                        "ticket_reservation", customer_id=customer,
                        screening_id=screening, ticket_amount=1,
                    ).value
                    connection.call(
                        "cancel_reservation",
                        reservation_id=booked["reservation_id"],
                    )
                    commits.append(2)
            except Exception as error:  # surfaced by the assertion below
                failures.append(error)

        def reader():
            try:
                for __ in range(25):
                    mismatches.extend(caches.mismatches())
            except Exception as error:
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer_thread = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for __ in range(4)]
        try:
            writer_thread.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=120)
        finally:
            stop.set()
            writer_thread.join(timeout=30)
            sys.setswitchinterval(previous)

        assert not any(t.is_alive() for t in readers + [writer_thread])
        assert not failures, failures
        assert commits, "no booking committed while reading"
        assert mismatches == []
        assert caches.maps.hits > 0
