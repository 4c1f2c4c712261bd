"""The worker threads that share one call's work with the calling thread.

One module-wide pool serves every caller: the masked scan of `index.top_k`
and a contrastive batch's similarity and gradient passes in `losses`.  It
holds ``_WORKERS - 1`` threads, one per CPU this process may run on besides
the caller's.  The pool is built with this module but starts its threads
only when work is first submitted to it, and a forked child, which has
none of its parent's threads, builds a pool of its own.  `share` alone
submits to it.  The calling thread always works too, so a call makes
progress however busy the pool is with other callers' work; numpy releases
the GIL inside its loops and BLAS calls, so the threads overlap.  Callers
keep their results independent of the worker count: each task is computed
by the same arithmetic on any thread, and results are placed, or summed, in
a fixed order.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

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


def share(work: Callable[[], None], tasks: int) -> None:
    """Run ``work`` on the calling thread and on up to ``tasks - 1`` pool threads,
    one worker per CPU at most, and return once every worker is done.

    Each call of ``work`` takes the next of the caller's ``tasks`` tasks from a
    source they share, such as an iterator over ``range(tasks)``, whose
    ``next`` the GIL makes atomic, until none is left.  So a worker that gets
    no CPU leaves its tasks to the others, and a call with ``tasks`` of 1 or
    less runs in the caller alone.  The caller works until no task is left,
    so a submitted ``work`` that no pool thread has started by then has
    nothing to take and is cancelled, not waited for.  An error raised by
    ``work`` on any worker reaches the caller once every worker is done.
    """
    others = [_executor.submit(work) for _ in range(1, min(_WORKERS, tasks))]
    try:
        work()
    finally:
        # no worker outlives the call, even when the caller's work raised
        started = [future for future in others if not future.cancel()]
        wait(started)
    for future in started:
        future.result()
