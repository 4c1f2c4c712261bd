"""`workers.share`: the caller always works, and no call waits on a busy pool."""

import threading
import time

from helpers import pool_workers
from holorag import workers


def test_call_never_waits_on_a_busy_pool():
    """With the pool's one thread held by other work, a call runs every task in the
    caller and returns; the work it submitted, never started, is cancelled."""
    release, held = threading.Event(), threading.Event()

    def hold():
        held.set()
        release.wait(timeout=10)

    tasks, ran = iter(range(5)), []

    def work():
        for task in tasks:
            ran.append((task, threading.get_ident()))

    with pool_workers(2) as executor:
        other = executor.submit(hold)
        try:
            assert held.wait(timeout=10)
            started = time.perf_counter()
            workers.share(work, 5)
            waited = time.perf_counter() - started
            assert not other.done()
        finally:
            release.set()
        other.result(timeout=10)
    assert waited < 5
    assert ran == [(task, threading.get_ident()) for task in range(5)]
