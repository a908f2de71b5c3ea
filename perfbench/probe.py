"""A fixed pure-Python event loop that gauges how fast the host runs now.

The simulator's speed in host time moves with the host: on a shared
machine the same code runs tens of percent slower while neighbours are
busy.  This probe exercises the interpreter the way a discrete-event
simulator does -- a binary heap of timed events, updates to objects
spread over a few MB, dict counters -- but never imports the simulator,
so it stays the same work whatever the simulator's code does.  It does
not slow exactly as the simulator does; PROBE_EXPONENT maps the one onto
the other.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
from time import perf_counter

__all__ = ["probe_s", "host_slowdown", "BarrierProbe"]

#: objects the probe touches at random: a few MB, more than a core's own
#: caches hold, so that like the simulator the probe waits on memory as
#: well as on the interpreter
GRAPH_NODES = 20000
#: events of one probe
PROBE_EVENTS = 600
#: host seconds one probe takes on the reference host; benchmark times are
#: scaled to it (about what a 2-vCPU cloud VM running Python 3.11 gives)
PROBE_REF_S = 0.0015
#: how the simulator's host time follows the probe's: the host switches
#: between speed levels (the probe's time at two levels about 1.8x apart,
#: each lasting seconds to minutes), and across runs at both levels the
#: single-host workloads' time grew as the probe's to a power of 0.53 to
#: 0.63; the rack's realized time follows its BarrierProbe one for one
PROBE_EXPONENT = 0.6
#: events each helper of a BarrierProbe round runs, and the host seconds
#: one round takes on the reference host with two helpers
BARRIER_PROBE_EVENTS = 400
BARRIER_PROBE_REF_S = 0.0013


class _Node:
    __slots__ = ("count", "attrs")

    def __init__(self):
        self.count = 0
        self.attrs = {"tx": 0}


#: built once, on import, so that no probe (nor a forked helper) times it
_GRAPH = [_Node() for _ in range(GRAPH_NODES)]


def _work(n_events: int) -> int:
    """Fire ``n_events`` events, each touching a pseudo-random node."""
    nodes = _GRAPH
    n = len(nodes)
    heap = [(i, i, (i * 7919) % n) for i in range(256)]
    heapq.heapify(heap)
    seq = len(heap)
    x = 12345
    counters = {}
    for _ in range(n_events):
        t, _seq, idx = heapq.heappop(heap)
        node = nodes[idx]
        node.count += 1
        node.attrs["tx"] += 1
        counters[idx] = counters.get(idx, 0) + 1
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        heapq.heappush(heap, (t + 1 + (x >> 20) % 97, seq, (idx * 31 + (x >> 8)) % n))
    return len(counters)


def probe_s(n_events: int = PROBE_EVENTS) -> float:
    """Host seconds the fixed probe work takes now.

    The cyclic collector is off meanwhile, so how the simulator tunes or
    feeds it cannot change the probe's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        _work(n_events)
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def _helper(conn, n_events: int) -> None:
    """A BarrierProbe worker: run the probe work per message, until told to stop."""
    gc.disable()
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        _work(n_events)
        conn.send(True)


def host_slowdown() -> float:
    """How much slower than on the reference host the simulator runs now."""
    return (probe_s() / PROBE_REF_S) ** PROBE_EXPONENT


class BarrierProbe:
    """The rack's barrier round with fixed work in place of the shards.

    ``n_workers`` forked helpers each run the probe work when told to,
    and the caller waits for all of them, as the rack coordinator waits
    for its shards.  A round's time therefore moves with the host's
    speed on every CPU and with the cost of waking processes across
    them, which is what the rack's realized time moves with.
    """

    def __init__(self, n_workers: int, n_events: int = BARRIER_PROBE_EVENTS):
        ctx = multiprocessing.get_context("fork")
        self._conns, self._procs = [], []
        try:
            for _ in range(n_workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(child, n_events), daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def round_s(self) -> float:
        """Host seconds of one round."""
        t = perf_counter()
        for conn in self._conns:
            conn.send(True)
        for conn in self._conns:
            conn.recv()
        return perf_counter() - t

    def slowdown(self) -> float:
        """How much slower than on the reference host a round runs now."""
        return self.round_s() / BARRIER_PROBE_REF_S

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._conns, self._procs = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
