"""Toric data shared across threads.

The ``fps`` module documents its values as immutable and every
operation as a pure function, so series can be shared freely across
threads.  ``ToricCYData`` and ``BraneFrame`` fill their cached lattice
data on first read, and ``ToricCYData`` keeps its last ``KEPT``
intermediates (the A-series, Lagrange chains, units, curves, brane
series of any order and the output of each CLI run) in one store,
keyed by value, whose hits take no lock.  These tests run jobs on one
shared geometry from four threads at once.
"""

import sys
import threading
from pathlib import Path

from syzmirror import ToricCYData, av_mirror_brane, cli, inverse_mirror_map, mirror_map
from syzmirror.lattice import KEPT

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


def test_four_threads_on_one_output_key_get_equal_texts(kp2, kp2_leg_brane):
    # the brane solve is kept but no run has printed it: the threads miss
    # the output key together, each prints the texts of a run alone, and
    # the store keeps the first triple kept
    av_mirror_brane(kp2, kp2_leg_brane, 8)
    key = ("output", "disc-invariants", kp2_leg_brane, 8, True, None)

    def work(i, barrier):
        barrier.wait()
        return kp2.kept(key, cli._output)

    results = _run_together(work)
    assert results == [cli._output(ToricCYData(*kp2), *key[1:])] * THREADS
    assert any(kp2.kept(key, cli._output) is result for result in results)


def _maps(data, order):
    inverse, forward = inverse_mirror_map(data, order), mirror_map(data, order)
    return inverse.fiber, inverse.closed, forward.closed


def test_maps_at_many_orders_on_one_shared_geometry(kp2):
    # the maps of one order keep ``per_order`` entries; the threads read
    # orders enough for more than the geometry keeps, so they evict one
    # another's entries while they read them, the first kept first
    alone = ToricCYData(*kp2)
    _maps(alone, 3)
    per_order = len(alone.__dict__["_kept"])
    rounds = KEPT // (per_order * THREADS) + 1
    orders = [[3 + i + THREADS * k for k in range(rounds)] for i in range(THREADS)]
    assert THREADS * rounds * per_order > KEPT

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
    store = kp2.__dict__["_kept"]
    assert len(store) == KEPT
    assert ("a_series", 3) not in store


class _PerThread:
    """A text stream that keeps what each thread writes apart."""

    def __init__(self):
        self.texts = {}

    def write(self, text):
        key = threading.get_ident()
        self.texts[key] = self.texts.get(key, "") + text
        return len(text)

    def take(self):
        return self.texts.pop(threading.get_ident(), "")


def test_warm_brane_runs_print_one_text(monkeypatch):
    # the brane solve is kept but neither run's output is: the threads
    # race to build and keep the outputs in the first round and read
    # them in the second
    path = str(Path(__file__).resolve().parent.parent / "jobs" / "local_p2.json")
    argvs = [[cmd, "--input", path, "--order", "8"] for cmd in ("disc-invariants", "brane-mirror")]
    out = _PerThread()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", _PerThread())

    def run(argv):
        assert cli.main(argv) == 0
        return out.take()

    cli._parse_text.cache_clear()
    reference = [run(argv) for argv in argvs]
    cli._parse_text.cache_clear()
    run(["compare-naive", "--input", path, "--order", "8"])

    def work(i, barrier):
        texts = []
        for _ in range(2):
            barrier.wait()
            texts.append([run(argvs[(i + k) % 2]) for k in range(2)])
        return texts

    results = _run_together(work)
    for i, texts in enumerate(results):
        assert texts == [[reference[(i + k) % 2] for k in range(2)]] * 2
