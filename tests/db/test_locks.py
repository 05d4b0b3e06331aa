"""Tests for the commit latch serialising writer transactions."""

import threading

import pytest

from repro.db.locks import CommitLatch


def run_in_thread(target, timeout=5.0):
    """Run ``target`` on another thread; return what it returned/raised."""
    outcome = {}

    def body():
        try:
            outcome["value"] = target()
        except BaseException as exc:  # noqa: BLE001 - handed back
            outcome["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "thread did not finish"
    return outcome


class TestBasics:
    def test_reentrant_acquire_by_owner(self):
        latch = CommitLatch()
        latch.acquire()
        latch.acquire()  # the owner re-enters without blocking
        latch.release()
        assert latch.locked and latch.held_by_current_thread
        latch.release()
        assert not latch.locked
        assert latch.waits == 0

    def test_unmatched_release_raises(self):
        with pytest.raises(RuntimeError):
            CommitLatch().release()

    def test_release_from_another_thread_raises(self):
        latch = CommitLatch()
        latch.acquire()
        outcome = run_in_thread(latch.release)
        assert isinstance(outcome["error"], RuntimeError)
        # The failed release left the owner's hold intact.
        assert latch.held_by_current_thread
        latch.release()
        assert not latch.locked

    def test_held_by_current_thread_and_locked(self):
        latch = CommitLatch()
        assert not latch.locked and not latch.held_by_current_thread
        with latch.held():
            assert latch.locked and latch.held_by_current_thread
            seen = run_in_thread(
                lambda: (latch.locked, latch.held_by_current_thread)
            )
            assert seen["value"] == (True, False)
        assert not latch.locked and not latch.held_by_current_thread

    def test_held_releases_on_error(self):
        latch = CommitLatch()
        with pytest.raises(ValueError):
            with latch.held():
                raise ValueError("boom")
        assert not latch.locked


class TestContention:
    def test_waits_count_only_contended_acquisitions(self):
        latch = CommitLatch()
        # Uncontended and reentrant acquisitions never count.
        with latch.held():
            with latch.held():
                pass

        def uncontended():
            with latch.held():
                pass

        run_in_thread(uncontended)
        assert latch.waits == 0

        latch.acquire()
        entered = threading.Event()

        def contender():
            with latch.held():
                entered.set()

        thread = threading.Thread(target=contender, daemon=True)
        thread.start()
        assert not entered.wait(timeout=0.2)  # blocked behind the owner
        assert latch.waits == 1
        latch.release()
        assert entered.wait(timeout=5)
        thread.join(timeout=5)
        assert latch.waits == 1
        assert not latch.locked

    def test_writers_exclude_each_other(self):
        latch = CommitLatch()
        inside = []
        overlaps = []

        def writer():
            for __ in range(200):
                with latch.held():
                    inside.append(1)
                    if len(inside) > 1:
                        overlaps.append(len(inside))
                    inside.pop()

        threads = [threading.Thread(target=writer) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert overlaps == []
        assert not latch.locked
