"""`workers.share`: results come back in item order, the caller always works, no
call waits on a busy pool, and a pool thread's error reaches the caller."""

import threading
import time

import pytest

from helpers import pool_workers
from holorag import workers


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, 7])
def test_results_come_back_in_item_order(count, size):
    """Each item's result sits at the item's place, whichever worker computed it;
    each job sleeps a little, so the pool threads take items too."""
    items = [f"item{i}" for i in range(size)]

    def job(item):
        time.sleep(0.001)
        return item.upper()

    with pool_workers(count):
        assert workers.share(job, items) == [item.upper() for item in items]


def test_call_never_waits_on_a_busy_pool():
    """With the pool's one thread held by other work, a call computes every item in
    the caller and returns; the worker it submitted, never started, is cancelled."""
    release, held = threading.Event(), threading.Event()

    def hold():
        held.set()
        release.wait(timeout=10)

    with pool_workers(2) as executor:
        other = executor.submit(hold)
        try:
            assert held.wait(timeout=10)
            started = time.perf_counter()
            ran = workers.share(lambda item: (item, threading.get_ident()), range(5))
            waited = time.perf_counter() - started
            assert not other.done()
        finally:
            release.set()
        other.result(timeout=10)
    assert waited < 5
    assert ran == [(item, threading.get_ident()) for item in range(5)]


def test_error_on_a_pool_thread_reaches_the_caller_after_every_worker():
    """A job that raises on a pool thread is raised in the caller, and only once every
    started worker, here the caller and the other pool thread, is done."""
    raised, once, finished = threading.Event(), threading.Lock(), []

    def job(item):
        # the first pool thread to get here raises; acquiring without blocking is atomic
        if threading.current_thread() is not threading.main_thread() and once.acquire(False):
            raised.set()
            raise KeyError("raised on a pool thread")
        # the other workers keep going after the error, and take their time
        raised.wait(timeout=10)
        time.sleep(0.01)
        finished.append(item)
        return item

    with pool_workers(3):
        with pytest.raises(KeyError, match="raised on a pool thread"):
            workers.share(job, range(6))
        # every item but the failed one was computed before the error was raised
        assert len(finished) == 5
    assert raised.is_set()
