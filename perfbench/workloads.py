"""The four event-path workloads and one measured run of each.

Every workload is a closed loop driven from this process.  One *window*
builds a fresh testbed for one simulator seed (timed as set-up), runs an
untimed warm-up, then a timed measurement window.  A window returns its
host timings, its simulated readout and a digest of everything simulated
(counter snapshot plus the workload's results), so repeated windows of a
seed can be compared byte for byte.

A run pools as many simulator seeds derived from the benchmark seed as
its time allows (see ``sub_seeds``).  Single seeds settle into different
phases -- a TCP stream fires 38k, 46k or 57k events per 40 simulated ms
at the same throughput, and the memcached VMs settle into different
scheduling phases -- so pooling, and measuring each seed long enough to
pass through its phases, keeps the figures of one benchmark seed close
to those of the next.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster import ShardedSimulator, simulated_digest
from repro.cluster.coordinator import _InlineShard
from repro.core.configs import paper_config
from repro.experiments.rack import rack_spec
from repro.experiments.runner import measure_window
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.sim.stats import Histogram, percentile_of_sorted
from repro.units import MS
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.netperf import NetperfTcpSend, NetperfUdpSend

from probe import BarrierProbe, host_slowdown

__all__ = ["WORKLOADS", "LAYERS", "Workload", "Window", "sub_seeds", "held_out_seed",
           "EXIT_REASONS", "TRACED_SEEDS", "pool"]

#: the repro packages on the simulated path, one layer each
LAYERS = {name: (f"repro.{name}",) for name in (
    "sim", "hw", "kvm", "sched", "virtio", "vhost", "net", "guest", "core",
    "workloads", "cluster")}

#: pooled seeds a traced run traces, the first ones of the pool
TRACED_SEEDS = 2

#: simulated length of one separately timed piece of a single-host window,
#: and how often the host is probed in every window
CHUNK_MS = 2
#: BarrierProbe rounds run at each rack probe
BARRIER_PROBE_ROUNDS = 4

EXIT_REASONS = ("io-instruction", "external-interrupt", "apic-access", "hlt",
                "pending-interrupt", "ept-violation")


def sub_seeds(seed: int) -> List[int]:
    """The simulator seeds one benchmark seed pools, in the order they run."""
    return [seed * 100 + i for i in range(99)]


def held_out_seed(seed: int) -> int:
    """A simulator seed no run pools: checked on its own, never tuned on."""
    return seed * 100 + 99


@dataclass
class Window:
    """One measured window of one simulator seed."""

    seed: int
    setup_s: float
    measure_s: float
    sim_ms: float
    digest: str
    #: simulated readout (identical for every window of the seed)
    results: Dict[str, float]
    #: counter increments over the measured window
    counters: Dict[str, int]
    #: events fired in the measured window (on the rack, its measured rounds)
    events: int
    inlined: int
    #: simulated ms the counters cover (the rack's whole horizon)
    counted_ms: float
    #: anchors of the paper's shape that this window failed
    anchor_failures: List[str] = field(default_factory=list)
    #: latency samples (ns) of the measured window, for pooled percentiles;
    #: packed, so that the samples a run keeps barely move its peak memory
    latency_ns: Sequence[float] = field(default_factory=list)
    #: rack only: shard count and barrier profile of the run
    perf: Dict[str, float] = field(default_factory=dict)
    #: host seconds of each piece of the measured window, in order (CHUNK_MS
    #: on a single host, one barrier round on the rack); the same piece of
    #: every window of a seed simulates the same events
    chunk_s: List[float] = field(default_factory=list)
    #: how much slower than on the reference host the window ran, as each
    #: of its probes gauged it (see ``probe.py``)
    slowdown: List[float] = field(default_factory=list)

    @property
    def sim_ms_per_s(self) -> float:
        """Simulated milliseconds per host second over the measured window."""
        return self.sim_ms / self.measure_s


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _summed(counters: Dict[str, int], prefix: str, suffix: str) -> int:
    """Sum of the counters named ``<prefix>...<suffix>``."""
    return sum(v for k, v in counters.items()
               if k.startswith(prefix) and k.endswith(suffix))


# ---------------------------------------------------------------- single host
def _udp(seed):
    tb = single_vcpu_testbed(paper_config("PI+H", quota=8), seed=seed)
    return tb, NetperfUdpSend(tb, tb.tested, n_streams=1, payload_size=256)


def _tcp(seed):
    tb = single_vcpu_testbed(paper_config("Baseline"), seed=seed)
    return tb, NetperfTcpSend(tb, tb.tested, n_streams=1, payload_size=1448)


def _memcached(seed):
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=8), seed=seed)
    wl = MemcachedWorkload(tb, tb.tested)
    wl.start()
    return tb, wl


def single_host_window(workload: "Workload", seed: int, tracer=None) -> Window:
    """Build, warm up and measure one testbed through ``measure_window``.

    The measured window runs in CHUNK_MS pieces, each timed on its own
    and followed by the host probe.  With a ``tracer`` installed, its
    totals are reset when the measured window opens, so they cover
    exactly that window.
    """
    t0 = perf_counter()
    tb, wl = workload.build(seed)
    setup_s = perf_counter() - t0
    sim = tb.sim
    run_for = tb.run_for
    chunks: List[float] = []
    slowdown: List[float] = []
    start: Dict[str, object] = {}

    def timed_run_for(ns: int) -> None:
        if not start:  # the first call is the warm-up
            start["warm"] = True
            run_for(ns)
            return
        start["counters"] = sim.obs.counters.flat()
        start["events"] = (sim.events_fired, sim.events_inlined)
        if hasattr(wl, "client"):
            wl.client.latency = Histogram()
        if tracer is not None:
            tracer.reset()
        step = CHUNK_MS * MS
        for _ in range(ns // step):
            t = perf_counter()
            run_for(step)
            chunks.append(perf_counter() - t)
            slowdown.append(host_slowdown())

    tb.run_for = timed_run_for
    run = measure_window(tb, wl, workload.warmup_ms * MS, workload.measure_ms * MS)
    counters = _delta(start["counters"], sim.obs.counters.flat())
    events = sim.events_fired - start["events"][0]
    inlined = sim.events_inlined - start["events"][1]
    results = {
        "sim_exits_per_s": run.total_exit_rate,
        "sim_io_exits_per_s": run.exit_rates.io_request,
        "sim_tig": run.tig,
    }
    latency: List[float] = []
    if hasattr(wl, "client"):
        hist = wl.client.latency
        latency = sorted(hist.samples())
        results["sim_ops_per_s"] = wl.ops_per_sec()
        results["sim_lat_samples"] = hist.count
    else:
        results["sim_gbps"] = run.throughput_gbps
    window = Window(
        seed=seed, setup_s=setup_s, measure_s=math.fsum(chunks), sim_ms=workload.measure_ms,
        digest="", results=results, counters=counters, events=events,
        inlined=inlined, counted_ms=workload.measure_ms,
        latency_ns=array("d", latency), chunk_s=chunks, slowdown=slowdown)
    window.digest = _digest({"counters": sim.obs.counters.flat(), "results": results,
                             "events": [sim.events_fired, sim.events_inlined],
                             "latency": latency})
    window.anchor_failures = [msg for ok, msg in workload.anchors(window) if not ok]
    return window


# ----------------------------------------------------------------------- rack
def _rack_results(report) -> Dict[str, float]:
    totals = report["simulated"]["totals"]
    clients = [h for h in report["simulated"]["hosts"].values() if h["kind"] == "client"]
    servers = [h for h in report["simulated"]["hosts"].values() if h["kind"] == "server"]
    horizon_s = report["simulated"]["horizon_ns"] / 1e9
    exits = sum(_summed(h["counters"], "kvm.exits.", "") for h in servers)
    io_exits = sum(h["counters"].get("kvm.exits.io-instruction", 0) for h in servers)
    samples = sum(c["latency_us"]["samples"] for c in clients)
    return {
        "sim_ops_per_s": totals["ops_per_sec"],
        # sample-weighted mean of the client hosts' medians
        "sim_lat_p50_us": sum(c["latency_us"]["p50"] * c["latency_us"]["samples"]
                              for c in clients) / samples,
        "sim_lat_p99_us": totals["latency_p99_max_us"],
        "sim_lat_samples": samples,
        "sim_lat_p99_min_host_samples": min(c["latency_us"]["samples"] for c in clients),
        # rack hosts report counters over the whole horizon, warm-up included
        "sim_exits_per_s": exits / horizon_s,
        "sim_io_exits_per_s": io_exits / horizon_s,
    }


def _rack_counters(report) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for host in report["simulated"]["hosts"].values():
        for key, value in host.get("counters", {}).items():
            out[key] = out.get(key, 0) + value
    return out


def rack_window(workload: "Workload", seed: int, n_shards: int, tracer=None) -> Window:
    """One rack run of ``rack_spec("PI+H+R", "memcached")`` at ``n_shards``.

    Time is realized elapsed time, never a sum of per-shard rates.  At
    several shards the coordinator is stamped at every barrier: set-up is
    the time to spawn the shards, build their hosts and finish the first
    window; the measured time runs from the barrier that opens the
    measurement to the last one, timed round by round, and every CHUNK_MS
    a BarrierProbe gauges the host between two rounds, outside their
    times.  At one shard the run is inline and the measured time is the
    sum of its window times; a ``tracer`` (1 shard only) is reset when the
    round that opens the measurement starts, so its totals cover the same
    rounds as the window's events.
    """
    spec = rack_spec("PI+H+R", "memcached", seed=seed)
    warmup_ns, measure_ns = workload.warmup_ms * MS, workload.measure_ms * MS
    window_ns = spec.lookahead_ns
    mark = -(-warmup_ns // window_ns)
    per_chunk = max(1, CHUNK_MS * MS // window_ns)
    if tracer is not None and n_shards != 1:
        raise ValueError("the rack is traced at 1 shard")
    ends: List[float] = []
    resumes: List[float] = []
    slowdown: List[float] = []
    inline_round = _InlineShard.round
    barrier = BarrierProbe(n_shards) if n_shards > 1 else None
    try:
        t0 = perf_counter()
        sharded = ShardedSimulator(spec, n_shards=n_shards)
        route = sharded._route

        def stamped_route(outboxes):
            # every shard has replied and waits: probe the host every CHUNK_MS
            k = len(ends)
            ends.append(perf_counter())
            if k >= mark - 1 and (k - mark + 1) % per_chunk == 0:
                slowdown.extend(barrier.slowdown() for _ in range(BARRIER_PROBE_ROUNDS))
            resumes.append(perf_counter())
            return route(outboxes)

        sharded._route = stamped_route
        if tracer is not None:
            def marked_round(driver, t_end, inbound, mark_first):
                if mark_first:
                    tracer.reset()
                return inline_round(driver, t_end, inbound, mark_first)

            _InlineShard.round = marked_round
        report = sharded.run(measure_ns, warmup_ns=warmup_ns)
        wall_s = perf_counter() - t0
    finally:
        _InlineShard.round = inline_round
        if barrier is not None:
            barrier.close()
    rounds = report["perf"]["barrier_rounds"]
    records = sharded._window_records
    if n_shards > 1:
        setup_s = ends[0] - t0
        round_s = [b - a for a, b in zip(resumes[mark - 1:], ends[mark:rounds])]
    else:
        round_s = [r["wall_s"] for r in records[0][mark:]]
        setup_s = wall_s - sum(r["wall_s"] for r in records[0])
    # each shard's record carries its cumulative event count
    events = sum(int(r[-1]["events"] - r[mark - 1]["events"]) for r in records)
    results = _rack_results(report)
    perf = report["perf"]
    window = Window(
        seed=seed, setup_s=setup_s, measure_s=math.fsum(round_s),
        sim_ms=(rounds - mark) * window_ns / MS, digest=simulated_digest(report),
        results=results, counters=_rack_counters(report), events=events, inlined=0,
        counted_ms=report["simulated"]["horizon_ns"] / MS,
        perf={
            "n_shards": n_shards,
            "barrier_rounds": rounds,
            "measured_rounds": rounds - mark,
            "messages_cross_shard": perf["messages_cross_shard"],
            "barrier_wait_fraction_max": max(
                s["barrier_wait_fraction"] for s in perf["shards"]),
        },
        chunk_s=round_s, slowdown=slowdown)
    window.anchor_failures = [msg for ok, msg in workload.anchors(window) if not ok]
    return window


# ------------------------------------------------------------------ workloads
@dataclass(frozen=True)
class Workload:
    """A named workload: what it runs, why, and which layers it exercises."""

    name: str
    #: why the workload is in the benchmark (one sentence)
    why: str
    #: layers it stresses and layers it bypasses (one sentence)
    layers: str
    #: builds ``(testbed, workload)`` for a seed; None for the rack
    build: Optional[Callable]
    anchors: Callable[[Window], List[tuple]]
    warmup_ms: int
    measure_ms: int
    #: windows each measured seed runs; the quickest of them counts, piece
    #: by piece, so more repetitions filter more host noise but leave less
    #: time for seeds
    reps: int

    @property
    def rack(self) -> bool:
        return self.build is None

    def window(self, seed: int, tracer=None, n_shards: int = 2) -> Window:
        """Run one measured window of simulator seed ``seed``.

        The previous window's testbed is collected first, so its garbage
        is not collected inside this window's timing.
        """
        gc.collect()
        if self.rack:
            return rack_window(self, seed, n_shards, tracer)
        return single_host_window(self, seed, tracer)


def _udp_anchors(w: Window):
    return [
        (w.results["sim_io_exits_per_s"] < 100,
         f"Fig. 4a: UDP I/O-instruction exits {w.results['sim_io_exits_per_s']:.0f}/s "
         "at quota 8, expected < 0.1k/s"),
        (w.results["sim_gbps"] > 0, "UDP stream moved no data"),
    ]


def _tcp_anchors(w: Window):
    io = w.results["sim_io_exits_per_s"]
    return [
        (io > 0.25 * w.results["sim_exits_per_s"],
         f"Fig. 4b / Table I: baseline TCP I/O-instruction exits {io:.0f}/s are not a "
         "leading exit cause"),
        (w.results["sim_gbps"] > 0, "TCP stream moved no data"),
    ]


def _memcached_anchors(w: Window):
    redirects = w.counters.get("es2.redirector.redirects_online", 0)
    return [
        (w.results["sim_ops_per_s"] > 0, "memcached completed no requests"),
        (redirects > 0, "PI+H+R made no online redirection in the window"),
        (w.results["sim_tig"] > 0.9,
         f"PI+H+R time in guest {w.results['sim_tig']:.3f}, expected > 0.9"),
    ]


def _rack_anchors(w: Window):
    return [
        (w.results["sim_ops_per_s"] > 0, "rack clients completed no requests"),
        (w.counters.get("es2.redirector.redirects_online", 0) > 0,
         "rack servers made no online redirection"),
    ]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="udp_hybrid",
        why="Fig. 4a: a 1-vCPU VM on a dedicated core sends one 256 B UDP stream "
            "under PI+H at quota 8, the case where hybrid polling removes "
            "I/O-instruction exits.",
        layers="Stresses vhost polling, the virtio ring, net.udp, hw segment dispatch "
               "and sim; bypasses kvm exits (about 1k/s), sched and core.",
        build=_udp, anchors=_udp_anchors, warmup_ms=10, measure_ms=80, reps=3),
    Workload(
        name="tcp_baseline",
        why="Fig. 4b / Table I: a 1-vCPU VM sends one 1448 B TCP stream under "
            "Baseline, the exit-heavy path ES2 removes.",
        layers="Stresses kvm (about 172k exits/s: I/O-instruction exits and emulated "
               "APIC injection), vhost in notification mode and the net.tcp ACK path; "
               "bypasses sched and core.",
        build=_tcp, anchors=_tcp_anchors, warmup_ms=10, measure_ms=80, reps=3),
    Workload(
        name="memcached_es2",
        why="Fig. 8a: four 4-vCPU VMs stacked on four cores serve memcached "
            "(16 connections x 256 outstanding) under PI+H+R at quota 8.",
        layers="The only single-host workload where sched (CFS), core redirection "
               "and tracking, and posted-interrupt delivery do most of the work.",
        build=_memcached, anchors=_memcached_anchors, warmup_ms=20, measure_ms=200,
        reps=2),
    Workload(
        name="rack_memcached",
        why="The multi-host fan-out: rack_spec('PI+H+R', 'memcached') at 2 shards, "
            "checked against the same spec at 1 shard.",
        layers="The only workload that exercises cluster (window barriers, pipes, "
               "cross-shard codec); every other layer runs too.",
        build=None, anchors=_rack_anchors, warmup_ms=4, measure_ms=30, reps=3),
)}


# --------------------------------------------------------------------- pooling
def pool(windows: List[Window]) -> Dict[str, float]:
    """Pool the simulated readout of one window per seed.

    Rates and time in guest are averaged (every window has the same
    length).  Single-host latency percentiles come from the pooled client
    samples; on the rack, p50 is averaged and p99 is the worst host's
    over the pooled runs.
    """
    out: Dict[str, float] = {}
    for key in windows[0].results:
        values = [w.results[key] for w in windows]
        if key == "sim_lat_samples":
            out[key] = sum(values)
        elif key == "sim_lat_p99_us":
            out[key] = max(values)
        elif key == "sim_lat_p99_min_host_samples":
            out[key] = min(values)
        else:
            out[key] = math.fsum(values) / len(values)
    samples = sorted(x for w in windows for x in w.latency_ns)
    if samples:
        out["sim_lat_p50_us"] = percentile_of_sorted(samples, 50) / 1e3
        out["sim_lat_p99_us"] = percentile_of_sorted(samples, 99) / 1e3
        out["sim_lat_samples"] = len(samples)
    return out
