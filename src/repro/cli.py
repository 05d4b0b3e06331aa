"""Command-line interface: ``python -m repro <command>``.

Commands mirror the demo workflow of Section 5:

* ``demo``      — synthesize the cinema agent and run a scripted booking.
* ``chat``      — synthesize the cinema agent and chat interactively.
* ``serve``     — multi-session REPL on the concurrent agent runtime.
* ``report``    — print the synthesis report (tasks, data, actions).
* ``policies``  — compare data-aware / static / random slot selection.
* ``snapshot``  — dump the cinema database to a JSON file.
* ``explain``   — show the cost-based plan the query engine picks.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

_DEMO_SCRIPT = [
    "hello",
    "i want to buy 2 tickets",
    "my name is alice",
    "my last name is quandt",
    "i want to watch forest gump",
    "the first one",
    "yes please",
    "thanks, goodbye",
]


def _build_cat():
    from repro import CAT
    from repro.datasets import build_movie_database, movie_templates

    database, annotations = build_movie_database()
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    print("synthesizing the cinema agent (trains NLU + DM) ...",
          file=sys.stderr)
    return cat, cat.synthesize()


def _cmd_demo() -> int:
    from repro import ConversationSession

    __, agent = _build_cat()
    session = ConversationSession(agent)
    for utterance in _DEMO_SCRIPT:
        session.say(utterance)
    print(session.format_transcript())
    executed = session.executed_results()
    if executed:
        print(f"\nexecuted transactions: {[r.procedure for r in executed]}")
    return 0


def _cmd_chat() -> int:
    from repro import ConversationSession

    __, agent = _build_cat()
    session = ConversationSession(agent)
    print("Chat with the cinema agent (ctrl-d or 'quit' to leave).")
    while True:
        try:
            text = input("you> ").strip()
        except EOFError:
            return 0
        if not text or text.lower() in ("quit", "exit"):
            return 0
        reply = session.say(text)
        for line in reply.text.split("\n"):
            print(f"bot> {line}")


_SERVE_HELP_HEAD = """\
Multi-session mode. One synthesized agent serves every session; each
session has its own dialogue state and awareness model.
Sessions hash across workers (--workers N processes, default one
in-process worker); figures are reported per worker.
"""

_SERVE_HELP_TAIL = """\
Anything else is sent to the active session.
With --replicas N, analytic statements route to log-shipped replicas
at bounded staleness (transactions always commit on the primary)."""


def _print_replicas(status: dict) -> None:
    """Render one worker's replication status (the ``:replicas`` view)."""
    if not status.get("enabled"):
        print("  replication off (start with --replicas N)")
        return
    seconds = status["lag_seconds"]
    lag_s = "n/a" if seconds is None else f"{seconds * 1000.0:.1f}ms"
    print(
        f"  primary lsn={status['primary_lsn']}  "
        f"lag={status['lag_lsn']} lsn / {lag_s}  "
        f"live={status['replicas_live']}  "
        f"routes={status['replica_routes']} replica"
        f"/{status['primary_fallbacks']} primary"
    )
    ring = status["ring"]
    print(
        f"  ring {ring['size']}/{ring['capacity']} records  "
        f"evicted_lsn={ring['evicted_lsn']}"
    )
    for replica in status["replicas"]:
        state = "up" if replica["alive"] else "down"
        if replica["needs_resync"]:
            state = "resync"
        seconds = replica["lag_seconds"]
        lag_s = "n/a" if seconds is None else f"{seconds * 1000.0:.1f}ms"
        line = (
            f"    replica {replica['index']}: {state}  "
            f"applied_lsn={replica['applied_lsn']}  lag={lag_s}  "
            f"records={replica['records_applied']} "
            f"in {replica['batches_applied']} batches  "
            f"resyncs={replica['resyncs']}"
        )
        if replica["last_error"]:
            line += f"  error={replica['last_error']}"
        print(line)


def _print_autotune(status: dict) -> None:
    """Render one worker's self-driving status (the ``:autotune`` view)."""
    state = "on" if status["enabled"] else "off"
    budget = status["budget"]
    print(
        f"  policy {state}  tick={status['tick']}  "
        f"applied={status['applied']}  retired={status['retired']}"
    )
    print(
        f"  budget: {budget['rows_used']}"
        f"/{budget['memory_budget_rows']} indexed rows"
    )
    if status["indexes"]:
        print("  auto-managed indexes:")
        for entry in status["indexes"]:
            print(
                f"    {entry['table']}.{entry['column']} "
                f"({entry['kind']})  hits={entry['hits']:.1f}  "
                f"hit_rows={entry['hit_rows']:.0f}  "
                f"maintenance={entry['maintenance']:.0f}"
            )
    for action in status["actions"]:
        print(
            f"  {action['action']:6s} {action['table']}."
            f"{action['column']} ({action['kind']}) at tick "
            f"{action['tick']}"
        )
    respec = status.get("respec")
    if respec:
        print(
            f"  respecialisation: "
            f"divergences={respec['divergences']}  "
            f"replans={respec['replans']}  forks={respec['forks']}  "
            f"fork_binds={respec['fork_binds']}"
        )


def _per_worker(results: dict, render) -> None:
    """Print ``render(value)`` under a header for each worker."""
    for index, value in sorted(results.items()):
        print(f"worker {index}:")
        render(value)


# The one command table: (usage, help line, handler).  ``:help`` prints
# it and the loop dispatches through it, so the two cannot drift apart.
_SERVE_COMMANDS: list = []


def _command(usage: str, text: str):
    def register(handler):
        _SERVE_COMMANDS.append((usage, text, handler))
        return handler

    return register


class _ServeRepl:
    """One ``repro serve`` loop's state: the router and the active
    session.  Handlers take the text after the command and return True
    to leave the loop."""

    def __init__(self, router) -> None:
        self.router = router
        self.active = router.create_session()

    def opened(self) -> None:
        worker = self.router.shard_of(self.active)
        print(f"[{self.active}] session opened (worker {worker})")

    @_command(":new [id]", "open a session (and switch to it)")
    def new(self, arg: str) -> None:
        self.active = self.router.create_session(arg or None)
        self.opened()

    @_command(":use <id>", "switch the active session")
    def use(self, arg: str) -> None:
        if not arg:
            print("usage: :use <id>")
            return
        if arg not in self.router.session_ids():
            from repro.errors import UnknownSessionError

            raise UnknownSessionError(f"no session {arg!r}")
        self.active = arg
        print(f"[{arg}] active")

    @_command(":sessions", "list live sessions with their turn counts")
    def sessions(self, arg: str) -> None:
        for index, sessions in sorted(self.router.session_stats().items()):
            for s in sessions:
                sid = s["session_id"]
                marker = "*" if sid == self.active else " "
                print(f" {marker} {sid}  turns={s['turns']}  worker={index}")

    @_command(":close [id]", "end a session (default: the active one)")
    def close(self, arg: str) -> None:
        target = arg or self.active
        self.router.end_session(target)
        print(f"[{target}] closed")
        if target == self.active:
            remaining = self.router.session_ids()
            self.active = remaining[-1] if remaining else \
                self.router.create_session()
            print(f"[{self.active}] active")

    @_command(":stats", "runtime + storage + per-session counters")
    def stats(self, arg: str) -> None:
        totals = self.router.stats()
        print(f"all workers: turns_served={totals.turns_served}  "
              f"live_sessions={totals.live_sessions}")
        storage = self.router.storage_stats()
        sessions = self.router.session_stats()
        for index, stats in sorted(self.router.runtime_stats().items()):
            print(f"worker {index}:")
            for key, value in stats.items():
                print(f"  {key:24s} {value}")
            print("  per-table storage (sealed segment + delta):")
            for name, t in sorted(storage[index].items()):
                line = (
                    f"    {name:16s} sealed={t['sealed_rows']}  "
                    f"delta={t['delta_rows']}  retired={t['retired_rows']}  "
                    f"compactions={t['compactions']}"
                )
                if t["compactions"]:
                    seconds = t["last_compaction_seconds"]
                    line += f"  last={seconds * 1000.0:.2f}ms"
                print(line)
            if sessions[index]:
                print("  per-session (connection stats + turn latency):")
            for s in sessions[index]:
                hits, lookups = s["plan_cache_hits"], \
                    s["plan_cache_hits"] + s["plan_cache_misses"]
                print(
                    f"    {s['session_id']}  turns={s['turns']}  "
                    f"plan_cache={hits}/{lookups} hits "
                    f"({hits / lookups if lookups else 0.0:.0%})  "
                    f"statements={s['executions']}  "
                    f"mean_turn={s['mean_turn_ms']:.2f}ms  "
                    f"last_turn={s['last_turn_ms']:.2f}ms  "
                    f"snapshot=v{s['snapshot_version']}"
                )

    @_command(":advisor", "ranked CREATE INDEX suggestions from scans")
    def advisor(self, arg: str) -> None:
        for index, suggestions in sorted(self.router.advisor().items()):
            print(f"worker {index}:")
            if not suggestions:
                print("  no index suggestions (no advisable scans seen)")
            for s in suggestions:
                print(f"  {s['statement']}  [{s['misses']} scans, "
                      f"~{s['rows_scanned']} rows walked]")

    @_command(":autotune", "self-driving policy: indexes, actions, budget")
    def autotune(self, arg: str) -> None:
        _per_worker(self.router.autotune_status(), _print_autotune)

    @_command(":replicas", "replication lag (LSN + seconds), routes, ring")
    def replicas(self, arg: str) -> None:
        _per_worker(self.router.replica_status(), _print_replicas)

    @_command(":compact", "fold every table's delta into a sealed segment")
    def compact(self, arg: str) -> None:
        _per_worker(self.router.compact(),
                    lambda count: print(f"  {count} tables resealed"))

    @_command(":help", "this text")
    def help(self, arg: str) -> None:
        print(_SERVE_HELP_HEAD)
        for usage, text, __ in _SERVE_COMMANDS:
            print(f"  {usage:13s} {text}")
        print(_SERVE_HELP_TAIL)

    @_command(":quit", "leave (also :q, quit, exit)")
    def quit(self, arg: str) -> bool:
        return True

    def say(self, text: str) -> None:
        reply = self.router.respond(self.active, text)
        for line in reply.text.split("\n"):
            print(f"bot> {line}")


_SERVE_HANDLERS = {usage.split()[0]: handler
                   for usage, __, handler in _SERVE_COMMANDS}


def _serve_loop(router) -> int:
    """Read commands and utterances until EOF or ``:quit``."""
    from repro.errors import ServingError

    repl = _ServeRepl(router)
    repl.help("")
    print(f"{router.worker_count} worker(s) up")
    repl.opened()
    while True:
        try:
            text = input(f"{repl.active}> ").strip()
        except EOFError:
            return 0
        if not text:
            continue
        command, __, arg = text.partition(" ")
        if text in (":q", "quit", "exit"):
            command = ":quit"
        try:
            if not command.startswith(":"):
                repl.say(text)
            elif command not in _SERVE_HANDLERS:
                print(f"unknown command {text!r} (:help for help)")
            elif _SERVE_HANDLERS[command](repl, arg.strip()):
                return 0
        except ServingError as exc:
            print(f"error: {exc}")


def _shard_worker_runtime(bootstrap_arg):
    """Spawn-safe shard bootstrap: restore the incremental snapshot
    directory the parent wrote and synthesize the runtime over it.
    ``bootstrap_arg`` is the directory, or ``(directory, replicas)``
    when the worker should also attach analytic replicas."""
    from repro import CAT
    from repro.datasets import movie_templates, restore_movie_database

    replicas = 0
    snapshot_path = bootstrap_arg
    if isinstance(bootstrap_arg, tuple):
        snapshot_path, replicas = bootstrap_arg
    database, annotations = restore_movie_database(snapshot_path)
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    runtime = cat.synthesize_runtime()
    if replicas > 0:
        runtime.enable_replicas(replicas)
    return runtime


def _serve_router(agent, session_ttl: float | None, workers: int,
                  replicas: int):
    """The serve tier: one in-process worker for ``workers <= 0``,
    otherwise ``workers`` processes (fork, or spawn from a snapshot)."""
    import multiprocessing
    import tempfile

    from repro.serving import AgentRuntime, ShardRouter

    def bootstrap():
        # Replicas attach inside the worker: appliers are threads and
        # must live in the process whose primary they tail.
        runtime = AgentRuntime.for_agent(agent, session_ttl=session_ttl)
        if replicas > 0:
            runtime.enable_replicas(replicas)
        return runtime

    if workers <= 0:
        return ShardRouter(1, bootstrap, inprocess=True)
    if "fork" in multiprocessing.get_all_start_methods():
        # Fork workers inherit the synthesized agent (copy-on-write
        # replica) — worker start is effectively free.
        return ShardRouter(workers, bootstrap, start_method="fork")
    else:  # pragma: no cover - non-fork platforms
        # Workers restore the incremental (v4) snapshot directory
        # instead of re-synthesizing, so spawn start stays fast.
        from repro.db import dump_incremental

        directory = tempfile.mkdtemp(prefix="repro-shard-")
        dump_incremental(agent._database, directory)
        return ShardRouter(
            workers,
            "repro.cli:_shard_worker_runtime",
            bootstrap_arg=(directory, replicas) if replicas else directory,
            start_method="spawn",
        )


def _run_serve(session_ttl: float | None, workers: int, replicas: int) -> int:
    __, agent = _build_cat()
    with _serve_router(agent, session_ttl, workers, replicas) as router:
        if replicas > 0:
            print(f"{replicas} analytic replica(s) attached per worker")
        return _serve_loop(router)


def _cmd_report() -> int:
    cat, __ = _build_cat()
    report = cat.report()
    print(f"tasks          : {report.n_tasks}")
    print(f"templates      : {report.n_templates}")
    print(f"NLU examples   : {report.n_nlu_examples}")
    print(f"dialogue flows : {report.n_flows}")
    print(f"intents        : {', '.join(report.intents)}")
    print(f"agent actions  : {', '.join(report.agent_actions)}")
    return 0


def _cmd_policies() -> int:
    from repro.annotation import TaskExtractor
    from repro.dataaware import (
        DataAwarePolicy,
        RandomPolicy,
        StaticPolicy,
        UserAwarenessModel,
    )
    from repro.datasets import MovieConfig, build_movie_database
    from repro.db import Catalog, StatisticsCatalog
    from repro.eval import PolicyExperiment, ResultTable

    config = MovieConfig(n_screenings=600, n_movies=80, extra_dimensions=6,
                         n_actors=80, n_days=30)
    database, annotations = build_movie_database(config)
    catalog = Catalog(database)
    task = TaskExtractor(catalog, annotations).extract(
        database.procedures.get("ticket_reservation")
    )
    lookup = task.lookup_for("screening_id")
    experiment = PolicyExperiment(database, catalog, annotations, lookup)
    table = ResultTable(
        "policy comparison (screening identification)",
        ["policy", "mean_turns", "success"],
    )
    policies = [
        DataAwarePolicy(lookup, UserAwarenessModel(annotations),
                        StatisticsCatalog(database)),
        StaticPolicy.train(lookup, database, catalog, annotations),
        RandomPolicy(lookup, seed=7),
    ]
    for policy in policies:
        summary, __ = experiment.run(policy, n_episodes=40)
        table.add_row(summary.policy, summary.mean_turns,
                      summary.success_rate)
    table.show()
    return 0


_EXPLAIN_OPS = (">=", "<=", "!=", "==", "~", ">", "<", "=")

_EXPLAIN_DEMOS = [
    "screening --where date>=2022-03-27 --where date<=2022-03-30",
    "screening --where screening_id=5",
    "screening --join movie_id:movie:movie_id --where movie.year>1990 "
    "--order-by date --limit 5",
    "screening --where room='room A' --count",
    "movie --order-by year --desc --limit 3 --select title,year",
    # Aggregate pushdown: bucket-walking group-by and index-only MIN/MAX.
    "reservation --agg booked=sum:no_tickets --group-by screening_id",
    "screening --agg lo=min:price --agg hi=max:price --agg n=count",
    # A filtered group-by streams through the group-hash aggregate.
    "reservation --where no_tickets>=2 --agg booked=sum:no_tickets "
    "--group-by screening_id",
    # Aggregate pushdown below joins: a NOT NULL FK join is elided, a
    # group-keyed join onto a unique column becomes a per-group semi
    # probe above the aggregate.
    "reservation --join screening_id:screening:screening_id "
    "--agg booked=sum:no_tickets --group-by screening_id",
    "movie --join language_id:language:language_id "
    "--agg n=count --group-by language_id",
    # HAVING: a post-aggregate Filter selecting on the aggregate output.
    "reservation --agg booked=sum:no_tickets --group-by screening_id "
    "--having booked>=10",
    # OR of indexable equalities: a union of hash-index probes.
    "screening --where \"room='room A'|movie_id=3\"",
    # Three joins: the planner orders them by estimated cardinality.
    "screening --join screening_id:reservation:screening_id "
    "--join movie_id:movie:movie_id "
    "--join movie.language_id:language:language_id",
]

_AGG_KINDS = ("count", "sum", "avg", "min", "max", "count_distinct")


def _parse_explain_value(text: str):
    from repro.db import DataType, coerce
    from repro.errors import TypeMismatchError

    text = text.strip().strip("'\"")
    for dtype in (DataType.INTEGER, DataType.FLOAT, DataType.DATE,
                  DataType.TIME):
        try:
            return coerce(text, dtype)
        except TypeMismatchError:
            continue
    return text


def _split_disjuncts(text: str) -> list[str]:
    """Split on ``|`` outside quotes, so quoted values may contain pipes."""
    parts: list[str] = []
    buf: list[str] = []
    quote = None
    for ch in text:
        if quote is not None:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf.append(ch)
        elif ch == "|":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_explain_condition(text: str):
    from repro.db import query as q
    from repro.errors import QueryError

    disjuncts = _split_disjuncts(text)
    if len(disjuncts) > 1:
        # A disjunction: cond|cond|...  (e.g. "room='room A'|movie_id=3")
        return q.or_(
            *[_parse_explain_condition(part) for part in disjuncts]
        )
    for op in _EXPLAIN_OPS:
        if op in text:
            column, __, value = text.partition(op)
            column = column.strip()
            parsed = _parse_explain_value(value)
            if op == "~":
                return q.contains(column, str(parsed))
            op = "==" if op == "=" else op
            return q.Comparison(column, op, parsed)
    raise QueryError(
        f"cannot parse condition {text!r} (use column<op>value with one of "
        f"{', '.join(_EXPLAIN_OPS)})"
    )


def _parse_aggregates(specs):
    """``name=kind[:column]`` strings into an Aggregate dict (or an error)."""
    from repro.db import aggregation

    factories = {
        "count": lambda column: aggregation.count(),
        "sum": aggregation.sum_,
        "avg": aggregation.avg,
        "min": aggregation.min_,
        "max": aggregation.max_,
        "count_distinct": aggregation.count_distinct,
    }
    aggregates = {}
    for item in specs:
        name, sep, rest = item.partition("=")
        kind, __, column = rest.partition(":")
        name, kind, column = name.strip(), kind.strip(), column.strip()
        if not sep or not name or kind not in _AGG_KINDS:
            return None, (
                f"bad --agg {item!r} (expected name=kind[:column] with "
                f"kind one of {', '.join(_AGG_KINDS)})"
            )
        if kind == "count":
            if column:
                return None, f"bad --agg {item!r} (count takes no column)"
            aggregates[name] = factories[kind](None)
        else:
            if not column:
                return None, f"bad --agg {item!r} ({kind} needs a column)"
            aggregates[name] = factories[kind](column)
    return aggregates, None


def _explain_one(database, args) -> int:
    from repro.db import api
    from repro.errors import DatabaseError

    if args.group_by and not args.agg:
        print("--group-by requires at least one --agg")
        return 2
    if args.having and not args.agg:
        print("--having requires at least one --agg")
        return 2
    if args.agg and args.count:
        print("--count cannot be combined with --agg "
              "(use --agg n=count instead)")
        return 2
    try:
        if args.agg:
            aggregates, error = _parse_aggregates(args.agg)
            if aggregates is None:
                print(error)
                return 2
            statement = api.aggregate(args.table, aggregates)
        else:
            statement = api.select(args.table)
        for condition in args.where or ():
            statement.where(_parse_explain_condition(condition))
        for join in args.join or ():
            parts = join.split(":")
            if len(parts) != 3:
                print(f"bad --join {join!r} (expected column:table:target)")
                return 2
            statement.join(*parts)
        if args.order_by:
            statement.order_by(args.order_by, descending=args.desc)
        if args.limit is not None:
            statement.limit(args.limit)
        if args.select:
            statement.project(*[c.strip() for c in args.select.split(",")])
        if args.count:
            statement.count()
        if args.group_by:
            statement.group_by(
                *[c.strip() for c in args.group_by.split(",")]
            )
        if args.having:
            from repro.db.query import and_

            statement.having(
                and_(*[_parse_explain_condition(c) for c in args.having])
            )
        # The unified path: compile + fingerprint once, explain the
        # plan the statement would execute.
        print(database.default_connection.prepare(statement).explain())
    except DatabaseError as exc:
        print(f"error: {exc}")
        return 2
    return 0


def _cmd_explain(args) -> int:
    import shlex

    from repro.datasets import build_movie_database

    database, __ = build_movie_database()
    if args.table is not None:
        return _explain_one(database, args)
    # No table given: walk the showcase queries.
    parser = _make_explain_parser(argparse.ArgumentParser(prog="explain"))
    for demo in _EXPLAIN_DEMOS:
        print(f"$ python -m repro explain {demo}")
        status = _explain_one(database, parser.parse_args(shlex.split(demo)))
        if status != 0:
            return status
        print()
    return 0


def _make_explain_parser(parser):
    parser.add_argument("table", nargs="?", default=None,
                        help="root table (omit to show showcase plans)")
    parser.add_argument("--where", action="append", metavar="COND",
                        help="condition, e.g. date>=2022-03-27 or title~gump")
    parser.add_argument("--join", action="append", metavar="COL:TABLE:TARGET",
                        help="equi-join root.COL = TABLE.TARGET")
    parser.add_argument("--order-by", metavar="COLUMN")
    parser.add_argument("--desc", action="store_true")
    parser.add_argument("--limit", type=int, metavar="N")
    parser.add_argument("--select", metavar="COL,COL")
    parser.add_argument("--count", action="store_true",
                        help="plan COUNT(*) instead of row retrieval")
    parser.add_argument("--agg", action="append", metavar="NAME=KIND[:COL]",
                        help="aggregate, e.g. booked=sum:no_tickets or "
                        "n=count (repeatable)")
    parser.add_argument("--group-by", metavar="COL,COL",
                        help="group the aggregates by these columns")
    parser.add_argument("--having", action="append", metavar="COND",
                        help="post-aggregate condition over the aggregate "
                        "output, e.g. booked>=10 (repeatable)")
    return parser


def _cmd_snapshot(path: str, incremental: bool = False) -> int:
    from repro.datasets import build_movie_database
    from repro.db import dump_database, dump_incremental

    database, __ = build_movie_database()
    if incremental:
        dump_incremental(database, path)
        print(f"wrote {path}/ (sealed base + delta log)")
    else:
        dump_database(database, path)
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAT reproduction: synthesize data-aware conversational "
        "agents for transactional databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run a scripted Section 5 booking")
    sub.add_parser("chat", help="chat with the cinema agent")
    serve = sub.add_parser(
        "serve", help="multi-session REPL on the concurrent runtime"
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire sessions idle for this long (default: never)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="shard sessions across N worker processes "
        "(default: 0 = one in-process worker)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="N",
        help="attach N log-shipped analytic replicas (per worker when "
        "sharded); analytic statements route to them at bounded "
        "staleness (default: 0 = none)",
    )
    sub.add_parser("report", help="print the synthesis report")
    sub.add_parser("policies", help="compare slot-selection policies")
    snapshot = sub.add_parser("snapshot", help="dump the cinema database")
    snapshot.add_argument("path", help="output JSON file (or directory "
                          "with --incremental)")
    snapshot.add_argument(
        "--incremental",
        action="store_true",
        help="write a format-v4 snapshot directory (sealed base image "
        "+ append-only delta log) instead of one JSON file",
    )
    _make_explain_parser(
        sub.add_parser(
            "explain",
            help="show the cost-based query plan on the cinema database",
        )
    )

    args = parser.parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "chat":
        return _cmd_chat()
    if args.command == "serve":
        return _run_serve(args.session_ttl, args.workers, args.replicas)
    if args.command == "report":
        return _cmd_report()
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "snapshot":
        return _cmd_snapshot(args.path, incremental=args.incremental)
    if args.command == "explain":
        return _cmd_explain(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
