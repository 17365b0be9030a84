"""Toric data shared across threads.

The ``fps`` module documents its values as immutable and every
operation as a pure function, so series can be shared freely across
threads.  ``ToricCYData`` and ``BraneFrame`` fill their cached lattice
data on first read; this test runs a brane job on one shared geometry
from four threads at once.
"""

import threading

from syzmirror import ToricCYData, av_mirror_brane

THREADS = 4


def _run_together(work):
    """``work(i, barrier)`` for i in range(THREADS), each in its own thread,
    with one barrier shared by all four; the results in thread order."""
    barrier = threading.Barrier(THREADS, timeout=60)  # a failed thread breaks it
    results = [None] * THREADS

    def run(i):
        results[i] = work(i, barrier)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def test_av_mirror_brane_on_one_shared_geometry(kp2, kp2_leg_brane):
    # kp2 has read none of its cached lattice data yet; the threads fill it
    def work(i, barrier):
        barrier.wait()
        return av_mirror_brane(kp2, kp2_leg_brane, 8)

    results = _run_together(work)
    serial = av_mirror_brane(ToricCYData(*kp2), kp2_leg_brane, 8)
    assert results == [serial] * THREADS
