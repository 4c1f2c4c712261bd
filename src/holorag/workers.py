"""The worker threads that share one call's work with the calling thread.

One module-wide pool serves every caller: the masked scan of `index.top_k`
and a contrastive batch's similarity and gradient passes in `losses`.  It
holds ``_WORKERS - 1`` threads, one per CPU this process may run on besides
the caller's.  The pool is built with this module but starts its threads
only when work is first submitted to it, and a forked child, which has
none of its parent's threads, builds a pool of its own.  `share` alone
submits to it, and it alone schedules: a caller hands it a job and a list
of items and gets the results back in item order.  The calling thread
always works too, so a call makes progress however busy the pool is with
other callers' work; numpy releases the GIL inside its loops and BLAS
calls, so the threads overlap.  Each item is computed by the same job on
whichever thread takes it, so the results do not depend on the worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

# threads that run one call's work, the caller included
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _start_pool() -> None:
    """Bind ``_executor`` to a new pool of ``_WORKERS - 1`` threads, at least one.

    A pool starts no thread until its first submit.  This runs at import, and
    again in a forked child, which has none of its parent's threads.
    """
    global _executor
    _executor = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="holorag-worker")


_start_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_pool)


def share(job: Callable, items: Sequence) -> list:
    """``[job(item) for item in items]``, computed on the calling thread and on up
    to ``len(items) - 1`` pool threads, one worker per CPU at most.

    Each worker takes the next item that no worker has taken until none is
    left, so a worker that gets no CPU leaves its items to the others, and a
    call of one item or none runs in the caller alone.  The caller works until
    every item is taken, so a submitted worker that no pool thread has started
    by then has nothing to take and is cancelled, not waited for.  An error
    raised by ``job`` on any worker reaches the caller once every worker is done.
    """
    results = [None] * len(items)
    # each index is one call of the range iterator's C next, which the GIL
    # makes atomic, so no two workers take the same item
    indices = iter(range(len(items)))

    def work() -> None:
        for i in indices:
            results[i] = job(items[i])

    others = [_executor.submit(work) for _ in range(1, min(_WORKERS, len(items)))]
    try:
        work()
    finally:
        # no worker outlives the call, even when the caller's work raised
        started = [future for future in others if not future.cancel()]
        wait(started)
    for future in started:
        future.result()
    return results
