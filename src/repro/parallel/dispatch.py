"""The one place worker threads start.

:func:`run_threads` runs one epoch's per-thread work for every real
parallel executor: the batch-Hogwild! threads of
:class:`~repro.parallel.threads.ThreadedHogwild` and the column-lock
threads of :class:`~repro.core.wavefront.WavefrontScheduler`. It lives
apart from either executor, so a launch loads only the executor it runs.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Callable

__all__ = ["run_threads"]

#: Shared names worker threads may mutate (``race-shared-write`` lint):
#: ``errors.append`` is one GIL-atomic list append per failed thread.
SHARED_WRITE_OK = ("errors",)


def run_threads(n: int, work: Callable[[int], None], name: str) -> None:
    """Run ``work(tid)`` for ``tid`` in ``range(n)`` on ``n`` OS threads
    named ``{name}-{tid}``, join them all, then re-raise the first failure.

    Each thread runs in its own copy of the caller's context (a Context
    admits one thread at a time), so the caller's sanitizer, collector
    and tracer reach its work. Threads start afresh every call; a thread
    pool would replace them here.
    """
    errors: list[BaseException] = []

    def guarded(tid: int) -> None:
        try:
            work(tid)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(guarded, tid), name=f"{name}-{tid}")
               for tid in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
