"""Fixture: helpers a worker calls write shared state the file never declares."""

from repro.parallel.dispatch import run_threads

SHARED_WRITE_OK = ("counts",)


def run(n, out_of_core):
    counts = [0] * n
    results = []
    staged = [None] * n

    def tally(tid):
        counts[tid] += 1
        results.append(tid)  # undeclared mutating call, one call below the worker

    if out_of_core:
        def replay(tid):
            staged[tid] = tid  # undeclared write, in the second `replay`
    else:
        def replay(tid):
            return tid

    def work(tid):
        tally(tid)
        replay(tid)

    run_threads(n, work, "probe")
    return results
