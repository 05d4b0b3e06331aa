"""A shard worker process that dies surfaces as a typed ServingError.

The router must not leak the raw pipe error (``BrokenPipeError``,
``EOFError``) to callers such as the serve REPL, which catch only
``ServingError``; sessions on the surviving workers keep serving.
"""

import itertools
import multiprocessing
import time

import pytest

from repro.errors import ServingError
from repro.serving import ShardRouter
from tests.serving.test_shard import make_fake_runtime


def one_session_per_worker(router):
    """Session ids chosen so that each worker owns exactly one."""
    owned = {}
    for n in itertools.count():
        sid = f"s{n}"
        owned.setdefault(router.shard_of(sid), sid)
        if len(owned) == router.worker_count:
            return owned


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_killed_worker_raises_serving_error_and_others_serve():
    router = ShardRouter(2, make_fake_runtime, start_method="fork")
    try:
        owned = one_session_per_worker(router)
        for sid in owned.values():
            router.create_session(sid)
        victim = router._workers[0]._process
        victim.kill()
        victim.join(timeout=5)
        assert not victim.is_alive()

        for __ in range(2):  # stays typed on every later request too
            with pytest.raises(ServingError, match="worker 0") as info:
                router.respond(owned[0], "hello")
            assert isinstance(info.value.__cause__, (OSError, EOFError))
        with pytest.raises(ServingError):
            router.session_ids()  # a fan-out touching the dead worker

        reply = router.respond(owned[1], "hello")
        assert reply.text.endswith(":hello")
        assert router.shard_of(owned[1]) == 1
    finally:
        started = time.monotonic()
        router.close()
    assert time.monotonic() - started < 10.0
