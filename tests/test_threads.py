"""Toric data shared across threads.

The ``fps`` module documents its values as immutable and every
operation as a pure function, so series can be shared freely across
threads.  ``ToricCYData`` and ``BraneFrame`` fill their cached lattice
data on first read, and ``ToricCYData`` keeps a mirror-map core, with
its brane series, for each of its last few closed orders; these tests
run jobs on one shared geometry from four threads at once.
"""

import sys
import threading

from syzmirror import ToricCYData, av_mirror_brane, inverse_mirror_map, mirror_map
from syzmirror.lattice import ORDERS_KEPT

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
        thread.join(timeout=120)
        assert not thread.is_alive()
    return results


def test_av_mirror_brane_on_one_shared_geometry(kp2, kp2_leg_brane):
    # kp2 has read none of its cached lattice data yet; the threads fill
    # it, and the brane series the first thread keeps is the one all get
    def work(i, barrier):
        barrier.wait()
        return av_mirror_brane(kp2, kp2_leg_brane, 8)

    results = _run_together(work)
    assert all(result is results[0] for result in results)
    serial = av_mirror_brane(ToricCYData(*kp2), kp2_leg_brane, 8)
    assert results == [serial] * THREADS
    assert av_mirror_brane(kp2, kp2_leg_brane, 8) is results[0]


def _maps(data, order):
    inverse, forward = inverse_mirror_map(data, order), mirror_map(data, order)
    return inverse.fiber, inverse.closed, forward.closed


def test_maps_at_many_orders_on_one_shared_geometry(kp2):
    # twelve orders, more than the geometry keeps, so the threads evict
    # one another's cores while they read them
    orders = [[3 + i + 4 * k for k in range(3)] for i in range(THREADS)]
    assert len({o for row in orders for o in row}) > ORDERS_KEPT

    def work(i, barrier):
        results = []
        for order in orders[i]:
            barrier.wait()
            results.append(_maps(kp2, order))
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the store's bookkeeping too
    try:
        results = _run_together(work)
    finally:
        sys.setswitchinterval(interval)
    serial = [[_maps(ToricCYData(*kp2), order) for order in row] for row in orders]
    assert results == serial
    assert len(kp2.__dict__["_orders"]) == ORDERS_KEPT
