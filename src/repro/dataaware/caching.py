"""Attribute-value cache: the paper's "integrated caching strategy".

Computing the per-row value sets of a joined attribute (e.g. actor names
per screening) is the expensive part of a policy step.  The key
observation is that the *full-table* map only depends on the contents
of the tables on its join path, not on the current candidate subset —
so we compute it once per commit to those tables and slice it per
candidate set.  Each entry stamps on the commit stamps of the root and
every table its join path reads: a booking, which writes only
``reservation``, leaves ``screening`` → ``movie.title`` a hit.
Combined with the per-table stamps of the
:class:`~repro.db.statistics.StatisticsCatalog`, this is what keeps the
average response latency at "only a few milliseconds" (Section 4) while
still reflecting every committed update.

The cache is shared by every session of a serving runtime, so it is safe
for concurrent readers via the shared
:class:`~repro.db.versioncache.VersionStampedCache` protocol.
"""

from __future__ import annotations

import threading

from repro.dataaware.join_graph import JoinPath, JoinPlanner, map_values
from repro.db.catalog import Catalog, ColumnRef
from repro.db.database import Database
from repro.db.table import Table
from repro.db.versioncache import VersionStampedCache

__all__ = ["AttributeValueCache"]


class AttributeValueCache:
    """Version-stamped, concurrency-safe cache of attribute value maps."""

    def __init__(self, database: Database, catalog: Catalog) -> None:
        self._database = database
        self._catalog = catalog
        self._planner_lock = threading.Lock()
        self._planners: dict[str, JoinPlanner] = {}
        # (root_table, attribute) -> rid -> value set
        self._maps = VersionStampedCache(database)
        # (root_table, attribute) -> its join path (None when the
        # attribute is unreachable) and the tables reading it touches
        self._reads: dict[
            tuple[str, ColumnRef], tuple[JoinPath | None, tuple[Table, ...]]
        ] = {}

    @property
    def hits(self) -> int:
        return self._maps.hits

    @property
    def misses(self) -> int:
        return self._maps.misses

    def planner(self, root_table: str) -> JoinPlanner:
        with self._planner_lock:
            planner = self._planners.get(root_table)
            if planner is None:
                planner = JoinPlanner(self._catalog, root_table)
                self._planners[root_table] = planner
            return planner

    def full_map(
        self, root_table: str, attribute: ColumnRef
    ) -> dict[int, frozenset]:
        """``row_id -> value set`` of ``attribute`` for *all* rows of the root.

        Recomputed lazily after a commit to the root or to a table on
        the join path to ``attribute``.
        """
        key = (root_table, attribute)
        reads = self._reads.get(key)
        if reads is None:
            path = self.planner(root_table).path_to(attribute.table)
            names = (root_table,) if path is None else path.tables
            reads = (path, tuple(self._database.table(n) for n in names))
            self._reads[key] = reads
        path, tables = reads
        return self._maps.lookup(
            key, lambda: self._compute(root_table, attribute, path), tables
        )

    def _compute(
        self, root_table: str, attribute: ColumnRef, path: JoinPath | None
    ) -> dict[int, frozenset]:
        row_ids = self._database.table(root_table).row_ids()
        if path is None:
            return {rid: frozenset() for rid in row_ids}
        return map_values(self._database, path, attribute, row_ids)

    def invalidate(self) -> None:
        self._maps.invalidate()
