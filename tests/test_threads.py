"""Series and toric data shared across threads.

The ``fps`` module documents its values as immutable and every
operation as a pure function, so instances can be shared freely across
threads.  The one field written after construction is the row-weight
memo of ``_backend.Terms`` (``row_weights``, copied by ``signed``), and
``ToricCYData`` and ``BraneFrame`` fill their cached lattice data on
first read; these tests run both from four threads at once.
"""

import threading

from syzmirror import Frame, ToricCYData, TruncatedSeries, av_mirror_brane
from syzmirror._backend import Terms

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


def test_row_weights_and_signs_of_one_shared_series():
    frame = Frame(names=("x", "y", "z"), grading=(1, 2, 1))
    terms = {
        (a, b, c): (a + 1) * (b - 2) + c or 5
        for a in range(9) for b in range(5) for c in range(9)
        if a + 2 * b + c <= 8
    }
    shared = TruncatedSeries(frame, 8, terms)
    rows = shared.terms
    coefficient_vectors = [(1, 0, 0), (0, 1, 1), (2, -1, 3), (1, 1, 1)]

    def fresh():
        return Terms(rows.grading, rows.width, rows.den, rows.monos, rows.nums)

    def work(i, barrier):
        coeffs = coefficient_vectors[i]
        weights = fresh().row_weights(coeffs)
        signed = fresh().signed(coeffs, -1)
        checks = []
        for _ in range(200):
            # in step, so the other threads overwrite the memo between reads
            barrier.wait()
            checks.append(rows.row_weights(coeffs) == weights)
            checks.append(shared.signed(coeffs, -1).terms == signed)
        return all(checks)

    assert _run_together(work) == [True] * THREADS


def test_av_mirror_brane_on_one_shared_geometry(kp2, kp2_leg_brane):
    # kp2 has read none of its cached lattice data yet; the threads fill it
    def work(i, barrier):
        barrier.wait()
        return av_mirror_brane(kp2, kp2_leg_brane, 8)

    results = _run_together(work)
    serial = av_mirror_brane(ToricCYData(*kp2), kp2_leg_brane, 8)
    assert results == [serial] * THREADS
