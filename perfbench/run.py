"""Turn benchmark for the synthesized cinema agent.

Runs one named conversation workload (see ``workloads.py``) against
``AgentRuntime`` as a closed loop from one client thread, checks every
goal's outcome against the database, and prints the metrics as the last
line of standard output, one JSON object::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src``.

A run sets the agent up (database build plus synthesis, timed as
``setup_s``), replays the paper's Figure 1 dialogue and requires its
booking (on the default database, so not in ``rush``), lets lazy caches
fill with untimed warm-up goals, then measures for ``--seconds``.
``goal_completion`` and ``turns_per_goal`` cover the warm-up goals and
the first timed pass's, which are drawn from different sequences.  The
timed loop is a series of passes that replay the same seeded goals from
the same rows (see ``conversations.py``); it ends with the first pass
that finishes after ``--seconds``, and runs at least ``MIN_PASSES``.

A host shared with other tenants runs slower for stretches of seconds
to minutes while they load it.  Every pass does the same turns,
so each turn is timed several times: ``turn_p50_ms`` and
``turns_per_s`` are taken over each turn's fastest replay, which leaves
out the stretches where the host was slow but keeps every cost the
turn pays in every pass (a value-map rebuild after a commit, say).
``turn_p99_ms`` is taken over every timed turn (the median of the 99th
percentiles of consecutive 1000-turn parts), so the tail stays in it.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced stretches of the loop,
reports the per-layer breakdown from the traced turns and the set-up,
and writes the spans to ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One client thread on a small machine: keep numeric libraries from
# starting their own thread pools next to it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# turn_p99_ms takes percentiles over parts of at least this many turns,
# so each has ten samples beyond it.
P99_PART_TURNS = 1000
# Cap on how long the loop may run on past --seconds to finish a pass
# and reach MIN_PASSES.
OVERRUN_SECONDS = 60.0
# Added to the seed for the warm-up's goal sequence, so it differs from
# the timed passes' sequence.
WARMUP_STREAM = 1 << 32
# Length of each untraced and traced stretch of a --trace 1 run.
TRACE_BLOCK_SECONDS = 0.5


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def p99(latencies: list[float]) -> float:
    """Median of the 99th percentiles of consecutive parts of the loop.

    Each part holds at least ``P99_PART_TURNS`` turns, so every
    percentile has ten samples beyond it; a burst of outside load that
    slows one part moves the median less than it moves a single
    percentile.
    """
    n_parts = max(1, len(latencies) // P99_PART_TURNS)
    size = len(latencies) // n_parts
    # quantiles(n=100) gives the 1st..99th percentiles.
    return statistics.median(
        statistics.quantiles(latencies[i * size:(i + 1) * size], n=100)[98]
        for i in range(n_parts)
    )


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from conversations import ConversationLoop
    from spans import SETUP_LAYERS, TURN_LAYERS, Tracer, layer_names
    from workloads import build_runtime, replay_figure1

    tracer = Tracer() if trace else None
    problems: list[str] = []

    started = perf_counter()
    if tracer is None:
        database, runtime = build_runtime(workload.rows)
    else:
        tracer.install(SETUP_LAYERS)
        with tracer.span("setup"):
            database, runtime = build_runtime(workload.rows, tracer)
        tracer.uninstall()
    setup_s = perf_counter() - started

    if workload.rows is None:
        # The Figure 1 scene (Alice Quandt, Forrest Gump) exists only in
        # the default database.
        problem = replay_figure1(database, runtime)
        if problem:
            problems.append(problem)

    conversations = ConversationLoop(database, runtime, workload, seed)
    conversations.start_pass(workload.warmup_goals, seed + WARMUP_STREAM)
    while conversations.step() is not None:
        pass
    scored = list(conversations.outcomes.values())
    conversations.end_pass()

    rows_at_start = {
        name: len(database.table(name).row_ids())
        for name in database.schema.table_names
    }
    version_at_start = database.data_version
    stats_before = runtime.stats()
    value_cache = runtime.artifacts.value_cache
    value_hits, value_misses = value_cache.hits, value_cache.misses
    turns_before = conversations.turns
    errors_before = len(conversations.errors)

    latencies: list[float] = []           # untraced turns, in order
    best: dict[tuple[int, int], float] = {}  # turn -> fastest replay
    traced_turns = 0
    untraced_seconds = traced_seconds = 0.0
    tracing = False
    passes = 0
    pass_seconds: list[float] = []
    loop_start = block_start = perf_counter()
    deadline = loop_start + seconds
    hard_stop = deadline + OVERRUN_SECONDS
    while passes < MIN_PASSES or perf_counter() < deadline:
        if perf_counter() >= hard_stop:
            problems.append(f"only {passes} passes ran")
            break
        conversations.start_pass(workload.pass_goals)
        pass_start = perf_counter()
        while True:
            now = perf_counter()
            if tracer is not None and now - block_start >= TRACE_BLOCK_SECONDS:
                if tracing:
                    traced_seconds += now - block_start
                    tracer.uninstall()
                else:
                    untraced_seconds += now - block_start
                    tracer.install(TURN_LAYERS)
                tracing = not tracing
                block_start = now
            if tracing:
                tracer.turn += 1
            turn = conversations.step()
            if turn is None:
                break
            name, elapsed = turn
            if tracing:
                traced_turns += 1
            else:
                latencies.append(elapsed)
                if elapsed < best.get(name, elapsed + 1.0):
                    best[name] = elapsed
        if passes == 0:
            scored.extend(conversations.outcomes.values())
        pass_seconds.append(perf_counter() - pass_start)
        conversations.end_pass()
        passes += 1
    loop_end = perf_counter()
    if tracing:
        traced_seconds += loop_end - block_start
        tracer.uninstall()
    else:
        untraced_seconds += loop_end - block_start
    loop_seconds = loop_end - loop_start

    stats_after = runtime.stats()
    conversations.check_tables()
    problems.extend(conversations.violations)
    commits = (stats_after.transactions_committed
               - stats_before.transactions_committed)
    if workload.name == "browse" and database.data_version != version_at_start:
        problems.append("browse committed: the data version moved")
    turns = conversations.turns - turns_before
    errors = len(conversations.errors) - errors_before
    misses = {}
    for met, __, reason in scored:
        if not met:
            misses[reason] = misses.get(reason, 0) + 1

    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows_at_start,
        "turns": turns,
        "passes": passes,
        "distinct_turns": len(best),
        "pass_seconds": [round(t, 3) for t in pass_seconds],
        "goals": passes * workload.pass_goals,
        "scored_goals": len(scored),
        "commits": commits,
        "loop_seconds": round(loop_seconds, 3),
        "goal_misses": misses,
        "errors": conversations.errors[errors_before:][:5],
        "problems": problems[:5],
    }
    result = {
        "correct": (not problems and len(scored)
                    == workload.warmup_goals + workload.pass_goals),
        "attempted": turns,
        "failed": errors,
        "metrics": {},
    }
    metrics = result["metrics"]
    if tracer is None:
        metrics["setup_s"] = _metric(setup_s, "s")
        metrics["turn_p50_ms"] = _metric(
            statistics.median(best.values()) * 1e3, "ms"
        )
        metrics["turn_p99_ms"] = _metric(p99(latencies) * 1e3, "ms")
        metrics["turns_per_s"] = _metric(
            len(best) / sum(best.values()), "1/s"
        )
        metrics["goal_completion"] = _metric(
            _ratio(sum(met for met, __, __r in scored), len(scored)), "ratio"
        )
        metrics["turns_per_goal"] = _metric(
            _ratio(sum(n for __, n, __r in scored), len(scored)), "turns"
        )
        metrics["turn_success_rate"] = _metric(
            1.0 - _ratio(errors, turns), "ratio"
        )
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )
        return result, info

    self_s, calls, traced_total = tracer.self_times(turns_only=True)
    for layer in layer_names(TURN_LAYERS):
        metrics[f"{layer}.self_ms_per_turn"] = _metric(
            self_s.get(layer, 0.0) * 1e3 / traced_turns, "ms"
        )
        metrics[f"{layer}.calls_per_turn"] = _metric(
            calls.get(layer, 0) / traced_turns, "count"
        )
    metrics["dataaware.value_maps.hit_ratio"] = _metric(_ratio(
        value_cache.hits - value_hits,
        value_cache.hits - value_hits + value_cache.misses - value_misses,
    ), "ratio")
    plan_hits = stats_after.plan_cache_hits - stats_before.plan_cache_hits
    plan_misses = (stats_after.plan_cache_misses
                   - stats_before.plan_cache_misses)
    metrics["db.plan_cache.hit_ratio"] = _metric(
        _ratio(plan_hits, plan_hits + plan_misses), "ratio"
    )
    metrics["nlu.link.resolved_ratio"] = _metric(
        _ratio(tracer.link_resolved, tracer.link_calls), "ratio"
    )
    metrics["dataaware.candidates.prune_drops"] = _metric(
        tracer.prune_drops / traced_turns, "count/turn"
    )
    metrics["turn_error_rate"] = _metric(_ratio(errors, turns), "ratio")
    setup_self, __, __total = tracer.self_times(turns_only=False)
    # The "setup" span's own time is what no named set-up layer covers.
    metrics["setup.residual.self_s"] = _metric(setup_self["setup"], "s")
    for layer in ("setup.datasets.build", *layer_names(SETUP_LAYERS)):
        metrics[f"{layer}.self_s"] = _metric(setup_self.get(layer, 0.0), "s")
    traced_rate = traced_turns / traced_seconds
    untraced_rate = len(latencies) / untraced_seconds
    metrics["trace.overhead"] = _metric(traced_rate / untraced_rate, "ratio")
    metrics["trace.turn_ms"] = _metric(traced_total * 1e3 / traced_turns, "ms")
    # Self times account for the traced turn wall time by construction;
    # a gap means spans were lost or mis-nested.
    accounted = sum(self_s.values())
    if abs(accounted - traced_total) > 1e-6 * max(traced_total, 1.0):
        problems.append(
            f"layer self times sum to {accounted:.6f}s of {traced_total:.6f}s"
        )
        result["correct"] = False
        info["problems"] = problems[:5]
    info["traced_turns"] = traced_turns
    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    info["spans"] = str(spans_path.relative_to(Path.cwd()))
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, info = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
