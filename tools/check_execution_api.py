#!/usr/bin/env python3
"""Lint: internal callers must execute through the unified Connection API.

``Query.run(db)`` / ``Query.count(db)`` / ``aggregate_query(...)`` are
deprecated shims kept for external callers and the existing test suite;
code *inside* ``src/repro`` (outside the shim modules themselves) must
go through ``database.connect()`` / ``Connection.prepare`` /
``Connection.execute`` so per-connection stats, the index advisor and
prepared-statement amortisation actually see the traffic.

A second rule guards the MVCC concurrency model: reader/writer
coordination goes through ``Database.read_locked`` (snapshot pins) and
``Database.write_locked`` (the commit latch).  A readers–writer lock
(the ``RWLock`` the MVCC store replaced, or its acquisition methods)
outside ``repro/db/locks.py`` and the snapshot layer would reintroduce
the serialised read path the MVCC store exists to remove.

Run from the repository root (CI does)::

    python tools/check_execution_api.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# The shim modules themselves (and the API that implements them).
ALLOWED = {
    SRC / "db" / "query.py",
    SRC / "db" / "aggregation.py",
    SRC / "db" / "api.py",
}

# Direct executions of the legacy surface: Query(...).run(...) chains,
# run/count against a database handle, and the aggregate_query shim.
FORBIDDEN = (
    re.compile(r"Query\([^)]*\)(\.\w+\([^)]*\))*\.(run|count)\("),
    re.compile(r"\.(run|count)\(\s*(database|db|self\._database)\b"),
    re.compile(r"\baggregate_query\("),
)

# Files allowed to construct or drive reader/writer locks directly: the
# lock primitives themselves and the snapshot layer built on them.
LOCK_ALLOWED = {
    SRC / "db" / "locks.py",
    SRC / "db" / "snapshots.py",
}

# Direct RWLock usage: construction, method-level acquisition and the
# old suspend/resume dance.
LOCK_FORBIDDEN = (
    re.compile(r"\bRWLock\s*\("),
    re.compile(
        r"\.(acquire_read|acquire_write|read_lock|write_lock"
        r"|suspend_reads|resume_reads)\s*\("
    ),
    re.compile(r"\brw_lock\b"),
)

# Files allowed to touch sealed-segment/delta storage internals: the
# bank store itself and the segment support module.  Everyone else
# reads through the public Table surface (scan_slots, slot_buckets,
# grouped_reduce, storage_stats, ...), which keeps the sealed/delta
# split an implementation detail the storage layer can evolve.
# (``database.delta_log`` carries no leading underscore and stays
# lint-clean — it is the public persistence attachment point.)
STORAGE_ALLOWED = {
    SRC / "db" / "table.py",
    SRC / "db" / "segments.py",
}

# ``self.`` receivers stay clean: an object's own ``_sealed_mode``-style
# attribute is its own state, not a reach into a table's banks.
STORAGE_FORBIDDEN = (
    re.compile(r"(?<!self)\._sealed\w*"),
    re.compile(r"(?<!self)\._delta\w*"),
    re.compile(r"(?<!self)\.(_created|_deleted|_max_stamp)\b"),
)

# Files allowed to issue index DDL directly: the storage layer, the
# Database/Connection surfaces that wrap it, snapshot restore, the
# dataset builder (initial physical design) and the self-driving
# policy.  Everything else must leave physical design to the autotuner
# (or route an explicit operator request through the Connection API),
# so the self-driving loop stays the single authority over which
# indexes exist at runtime.
INDEX_DDL_ALLOWED = {
    SRC / "db" / "autotune.py",
    SRC / "db" / "api.py",
    SRC / "db" / "database.py",
    SRC / "db" / "table.py",
    SRC / "db" / "persistence.py",
    SRC / "datasets" / "movies.py",
}

INDEX_DDL_FORBIDDEN = (
    re.compile(
        r"\.(create_index|create_ordered_index"
        r"|drop_index|drop_ordered_index)\s*\("
    ),
)

# Files allowed to tail the replication log or drive replica internals:
# the replication package itself, plus the persistence layer that owns
# ``apply_log_ops`` (snapshot restore replays the same log records).
# Everyone else consumes replicas through the routed surfaces —
# ``Connection.analytic`` / ``Connection.execute`` routing,
# ``ReplicaManager.read``/``wait_for``/``lag``/``status`` — so staleness
# accounting and fallback semantics cannot be bypassed.
REPLICATION_ALLOWED = {
    SRC / "replication" / "log.py",
    SRC / "replication" / "applier.py",
    SRC / "replication" / "manager.py",
    SRC / "db" / "persistence.py",
}

REPLICATION_FORBIDDEN = (
    re.compile(r"\bReplicaApplier\s*\("),
    re.compile(r"\bapply_log_ops\s*\("),
    re.compile(
        r"\.(records_since|wait_for_commit|oldest_stamp_after"
        r"|catch_up|wait_until)\s*\("
    ),
)


def main() -> int:
    violations: list[str] = []
    lock_violations: list[str] = []
    storage_violations: list[str] = []
    index_ddl_violations: list[str] = []
    replication_violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            rel = path.relative_to(SRC.parent.parent)
            if path not in ALLOWED:
                for pattern in FORBIDDEN:
                    if pattern.search(line):
                        violations.append(f"{rel}:{lineno}: {stripped}")
                        break
            if path not in LOCK_ALLOWED:
                for pattern in LOCK_FORBIDDEN:
                    if pattern.search(line):
                        lock_violations.append(
                            f"{rel}:{lineno}: {stripped}"
                        )
                        break
            if path not in STORAGE_ALLOWED:
                for pattern in STORAGE_FORBIDDEN:
                    if pattern.search(line):
                        storage_violations.append(
                            f"{rel}:{lineno}: {stripped}"
                        )
                        break
            if path not in INDEX_DDL_ALLOWED:
                for pattern in INDEX_DDL_FORBIDDEN:
                    if pattern.search(line):
                        index_ddl_violations.append(
                            f"{rel}:{lineno}: {stripped}"
                        )
                        break
            if path not in REPLICATION_ALLOWED:
                for pattern in REPLICATION_FORBIDDEN:
                    if pattern.search(line):
                        replication_violations.append(
                            f"{rel}:{lineno}: {stripped}"
                        )
                        break
    if violations:
        print(
            "direct legacy-surface executions found in src/repro "
            "(use the Connection API from repro.db.api instead):",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
    if lock_violations:
        print(
            "direct RWLock usage found in src/repro (coordinate through "
            "Database.read_locked / Database.write_locked instead):",
            file=sys.stderr,
        )
        for violation in lock_violations:
            print(f"  {violation}", file=sys.stderr)
    if storage_violations:
        print(
            "sealed/delta storage internals touched outside "
            "repro/db/table.py and repro/db/segments.py (use the public "
            "Table surface — scan_slots, slot_buckets, grouped_reduce, "
            "column_counts, storage_stats, compact — instead):",
            file=sys.stderr,
        )
        for violation in storage_violations:
            print(f"  {violation}", file=sys.stderr)
    if index_ddl_violations:
        print(
            "direct index DDL found outside the physical-design layer "
            "(leave index creation/retirement to repro/db/autotune.py, "
            "or route explicit operator DDL through the Database "
            "surface):",
            file=sys.stderr,
        )
        for violation in index_ddl_violations:
            print(f"  {violation}", file=sys.stderr)
    if replication_violations:
        print(
            "replication log/replica internals driven outside "
            "repro/replication (consume replicas through "
            "Connection.analytic / Connection.execute routing or "
            "ReplicaManager.read / wait_for / lag / status instead):",
            file=sys.stderr,
        )
        for violation in replication_violations:
            print(f"  {violation}", file=sys.stderr)
    if (
        violations
        or lock_violations
        or storage_violations
        or index_ddl_violations
        or replication_violations
    ):
        return 1
    print(f"execution-API lint ok ({SRC})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
