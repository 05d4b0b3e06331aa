"""Tests for the ``repro serve`` REPL: one command table over the router.

The loop runs over in-process shard routers of one and three workers
(one in-process worker is the default ``serve`` path), fed by a
patched ``input`` and read back through ``capsys``.  The fake runtime
from the shard tests stands in for ``AgentRuntime``, extended with the
status surfaces the command table renders.
"""

import builtins
import itertools

import pytest

from repro import cli
from repro.db.api import IndexSuggestion
from repro.errors import ServingError
from repro.serving import SessionStats, ShardRouter
from tests.serving.test_shard import FakeRuntime


class ReplRuntime(FakeRuntime):
    """FakeRuntime plus the advisor/autotune/replica/session surfaces."""

    def respond(self, session_id, text):
        if text == "fail":
            raise ServingError("backend unavailable")
        return super().respond(session_id, text)

    def session_stats(self, session_id):
        turns = len(self.sessions[session_id])
        return SessionStats(
            session_id=session_id,
            turns=turns,
            plan_cache_hits=turns,
            plan_cache_misses=1,
            mean_turn_ms=1.5,
            last_turn_ms=2.0,
            snapshot_version=7,
        )

    def advisor(self):
        return [IndexSuggestion("item", "name", "hash", 3, 300 + self.tag)]

    def autotune_status(self):
        return {
            "enabled": True,
            "tick": self.tag,
            "applied": 0,
            "retired": 0,
            "budget": {"rows_used": 0, "memory_budget_rows": 1000},
            "indexes": [],
            "actions": [],
            "respec": None,
        }

    def replica_status(self):
        return {"enabled": False}


@pytest.fixture(params=[1, 3], ids=["one-worker", "three-workers"])
def router(request):
    tags = itertools.count()
    with ShardRouter(
        request.param, lambda: ReplRuntime(next(tags)), inprocess=True
    ) as shard:
        yield shard


def run_repl(router, lines, monkeypatch):
    """Drive the serve loop; returns (exit status, prompts shown)."""
    feed = iter(lines)
    prompts = []

    def fake_input(prompt=""):
        prompts.append(prompt)
        try:
            return next(feed)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr(builtins, "input", fake_input)
    return cli._serve_loop(router), prompts


def active_of(prompt):
    return prompt[: -len("> ")]


TABLE_COMMANDS = [usage.split()[0] for usage, __, __ in cli._SERVE_COMMANDS]


class TestCommandTable:
    def test_every_command_dispatches(self, router, monkeypatch, capsys):
        called = []

        def spy(name, handler):
            def wrapped(repl, arg):
                called.append(name)
                return handler(repl, arg)

            return wrapped

        monkeypatch.setattr(cli, "_SERVE_HANDLERS", {
            name: spy(name, handler)
            for name, handler in cli._SERVE_HANDLERS.items()
        })
        status, __ = run_repl(router, [
            ":new extra", ":use extra", ":sessions", "hello", ":stats",
            ":advisor", ":autotune", ":replicas", ":compact",
            ":close extra", ":help", ":quit",
        ], monkeypatch)
        assert status == 0
        assert sorted(called) == sorted(TABLE_COMMANDS)
        out = capsys.readouterr().out
        workers = range(router.worker_count)
        assert "[extra] session opened" in out
        assert "[extra] active" in out
        assert " * extra  turns=0" in out
        assert "bot> w" in out and ":hello" in out
        assert "all workers: turns_served=1  live_sessions=2" in out
        for index in workers:
            assert f"worker {index}:" in out
            assert f"CREATE INDEX ON item (name)  [3 scans, ~{300 + index}" \
                in out
            assert f"policy on  tick={index}" in out
        assert out.count("replication off") == router.worker_count
        assert out.count("1 tables resealed") == router.worker_count
        assert "per-session (connection stats + turn latency):" in out
        assert "plan_cache=1/2 hits (50%)" in out  # the one turn served
        assert "[extra] closed" in out

    def test_help_lists_exactly_the_table(self, router, monkeypatch,
                                          capsys):
        run_repl(router, [":help"], monkeypatch)
        # The loop prints the help once at start, then for ``:help``.
        startup, __, requested = capsys.readouterr().out.partition(
            "worker(s) up"
        )
        for out in (startup, requested):
            listed = [line.split()[0] for line in out.splitlines()
                      if line.startswith("  :")]
            assert listed == TABLE_COMMANDS
        assert sorted(cli._SERVE_HANDLERS) == sorted(TABLE_COMMANDS)


class TestSessions:
    def test_use_unknown_id_keeps_the_active_session(self, router,
                                                     monkeypatch, capsys):
        __, prompts = run_repl(router, [":use nope", ":use"], monkeypatch)
        out = capsys.readouterr().out
        assert "error: no session 'nope'" in out
        assert "usage: :use <id>" in out
        assert len({active_of(p) for p in prompts}) == 1
        assert active_of(prompts[-1]) in router.session_ids()

    def test_close_active_switches_to_a_live_session(self, router,
                                                     monkeypatch, capsys):
        __, prompts = run_repl(
            router, [":new other", ":new doomed", ":close"], monkeypatch
        )
        out = capsys.readouterr().out
        assert "[doomed] closed" in out
        active = active_of(prompts[-1])
        assert active != "doomed"
        assert active in router.session_ids()
        assert f"[{active}] active" in out

    def test_close_last_session_opens_a_fresh_one(self, router, monkeypatch,
                                                  capsys):
        __, prompts = run_repl(router, [":close"], monkeypatch)
        first, last = active_of(prompts[0]), active_of(prompts[-1])
        assert first != last
        assert router.session_ids() == [last]

    def test_sessions_show_turn_counts(self, router, monkeypatch, capsys):
        __, prompts = run_repl(
            router, ["one", "two", ":sessions"], monkeypatch
        )
        active = active_of(prompts[0])
        worker = router.shard_of(active)
        assert f" * {active}  turns=2  worker={worker}" \
            in capsys.readouterr().out


class TestLoop:
    def test_unknown_command_prints_the_usage_hint(self, router,
                                                   monkeypatch, capsys):
        status, __ = run_repl(router, [":foo", ":stats"], monkeypatch)
        out = capsys.readouterr().out
        assert "unknown command ':foo' (:help for help)" in out
        assert "all workers:" in out  # the loop went on
        assert status == 0

    def test_backend_serving_error_prints_and_continues(self, router,
                                                        monkeypatch, capsys):
        status, __ = run_repl(router, ["fail", "hello"], monkeypatch)
        out = capsys.readouterr().out
        assert "error: backend unavailable" in out
        assert ":hello" in out
        assert status == 0

    @pytest.mark.parametrize("leave", [":quit", ":q", "quit", "exit"])
    def test_quit_returns_zero(self, router, monkeypatch, capsys, leave):
        status, prompts = run_repl(router, [leave, "never read"],
                                   monkeypatch)
        assert status == 0
        assert len(prompts) == 1

    def test_eof_returns_zero(self, router, monkeypatch, capsys):
        status, prompts = run_repl(router, ["", "hello"], monkeypatch)
        assert status == 0
        assert len(prompts) == 3  # blank line, utterance, then EOF
