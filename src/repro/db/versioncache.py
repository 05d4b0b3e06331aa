"""The shared version-stamped cache protocol.

Every cache that derives data from the database (statistics catalog,
attribute-value maps, entity-linker text pools, plan templates) follows
one subtle concurrency protocol, kept in exactly one place here:

1. fast path — check the stamped entry under the cache mutex; a hit
   requires the stamp to equal the current stamp;
2. miss — *release* the mutex (so a slow rebuild of one key never
   blocks hits on others), recompute under a pinned snapshot, stamping
   with what the pin observes (the snapshot is immutable, so the stamp
   is consistent with the data read);
3. store — re-take the mutex and replace the entry only when the
   stored stamp is not newer, so two racing rebuilds converge on the
   freshest value.

What the stamp is depends on what the entry reads.  A lookup that
names its ``tables`` stamps on the newest committed change to those
tables alone (:meth:`~repro.db.database.Database.commit_stamp`), so a
commit elsewhere — a booking writes only ``reservation`` — leaves it a
hit; the value maps, linker pools and statistics all declare their
tables.  A cache built with a ``version`` counter (the plan cache's
``plan_stamp``) stamps its lookups on that counter instead.

Caches whose key space is client-controlled (the plan cache: one key
per query *shape*) can pass ``max_entries`` to bound memory: entries
are then kept in least-recently-used order (hits refresh recency) and
storing beyond the cap evicts the coldest entry, counted in
``evictions`` — the same policy the serving session store applies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.table import Table

__all__ = ["VersionStampedCache"]


class VersionStampedCache:
    """Concurrency-safe ``key -> value`` cache of version-stamped entries."""

    def __init__(
        self,
        database: "Database",
        max_entries: int | None = None,
        version: Callable[[], int] | None = None,
    ) -> None:
        """``version`` is the stamp source of lookups that name no
        tables: a cache whose values do not derive from table contents
        — the plan cache stamps on ``database.plan_stamp``, which
        sealed-mode commits leave alone — passes its own monotonic
        counter.  The callable is read both at the hit check and,
        inside the pinned snapshot, at compute time, so the
        store-if-not-newer race rule is unchanged."""
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None to disable)")
        self._database = database
        self._max_entries = max_entries
        self._version = version
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[int, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        tables: "Sequence[Table] | None" = None,
    ) -> Any:
        """The cached value for ``key``, recomputing if stale or absent.

        ``compute`` is invoked under a pinned snapshot and must derive
        the value purely from the database contents it observes.
        ``tables`` lists every table it reads: the entry stamps on
        those tables' commit stamp at the caller's snapshot, so only a
        commit to one of them (or a reader pinned before such a commit)
        misses; a key must always be looked up with the same tables.
        Only a cache built with a ``version`` counter may omit them.
        """
        bounded = self._max_entries is not None
        database = self._database
        version_of = self._version
        if tables is not None:
            current_version = database.commit_stamp(tables)
        elif version_of is not None:
            current_version = version_of()
        else:
            raise TypeError(
                "lookup needs the tables it reads unless the cache "
                "was built with a version counter"
            )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == current_version:
                self.hits += 1
                if bounded:
                    self._entries.move_to_end(key)
                return entry[1]
            self.misses += 1
        with database.read_locked():
            if tables is not None:
                version = database.commit_stamp(tables)
            else:
                version = version_of()
            value = compute()
            dirty = (
                database.commit_latch.held_by_current_thread
                and database.transactions.in_transaction()
            )
        if dirty:
            # Computed over uncommitted writes: correct for the caller,
            # poison for the cache (a rollback would leave it stamped
            # with a version that never carries these values).
            return value
        with self._lock:
            current = self._entries.get(key)
            if current is None or current[0] <= version:
                self._entries[key] = (version, value)
                if bounded:
                    self._entries.move_to_end(key)
                    while len(self._entries) > self._max_entries:
                        self._entries.popitem(last=False)
                        self.evictions += 1
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def invalidate(self) -> None:
        """Drop every entry (they also refresh lazily via the stamps)."""
        with self._lock:
            self._entries.clear()
