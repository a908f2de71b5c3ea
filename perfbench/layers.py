"""Per-layer metrics of a traced run, each ratio reported with its base.

The tracer gives self time and calls per layer; the simulator's counter
registry gives what each layer did (exits, packets, redirections); the
untraced 2-shard rack windows give the barrier profile.  Counts are sums
over the traced windows, so they repeat exactly for a benchmark seed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from workloads import EXIT_REASONS, LAYERS, pool

__all__ = ["per_layer", "format_per_layer"]


def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _summed_counters(windows) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for w in windows:
        for key, value in w.counters.items():
            out[key] = out.get(key, 0) + value
    return out


def per_layer(fn_totals: Dict[str, Tuple[str, int, int]], traced, untraced, refs,
              first_windows) -> Tuple[Dict[str, tuple], Dict[str, str]]:
    """Every per-layer metric as ``{name: (value, unit)}`` plus ratio bases.

    ``fn_totals`` maps each traced function to ``(layer, calls, self_ns)``
    summed over the ``traced`` windows.  ``untraced`` are the timed windows
    of the same run, ``refs`` the rack's 1-shard windows by seed, and
    ``first_windows`` one untraced window per pooled seed.
    """
    metrics: Dict[str, tuple] = {}
    bases: Dict[str, str] = {}

    def put(name, value, unit, base=None):
        metrics[name] = (value, unit)
        if base is not None:
            bases[name] = base

    events = sum(w.events for w in traced)
    rows = {layer: [0, 0] for layer in LAYERS}
    for layer, calls, self_ns in fn_totals.values():
        rows[layer][0] += calls
        rows[layer][1] += self_ns
    total_ns = sum(ns for _calls, ns in rows.values())
    for layer, (calls, self_ns) in rows.items():
        put(f"{layer}.self_share", _ratio(self_ns, total_ns), "ratio",
            f"{self_ns / 1e6:.1f} ms / {total_ns / 1e6:.1f} ms traced")
        put(f"{layer}.calls_per_event", _ratio(calls, events), "calls/event",
            f"{calls} calls / {events} events")
    inlined = sum(w.inlined for w in traced)
    put("sim.events", events, "count")
    put("sim.inlined_ratio", _ratio(inlined, events), "ratio",
        f"{inlined} inlined / {events} events")

    c = _summed_counters(traced)

    def summed(prefix, suffix):
        return sum(v for k, v in c.items() if k.startswith(prefix) and k.endswith(suffix))

    seconds = sum(w.counted_ms for w in traced) / 1e3
    for reason in EXIT_REASONS:
        n = summed("kvm.exits.", "." + reason)
        put(f"kvm.exits.{reason}", _ratio(n, seconds), "1/s",
            f"{n} exits / {seconds:.3f} simulated s")
    packets, rounds = summed("vhost.", "/tx.packets"), summed("vhost.worker.", ".rounds")
    put("vhost.tx.packets_per_round", _ratio(packets, rounds), "packets/round",
        f"{packets} TX packets / {rounds} worker rounds")
    put("vhost.tx.quota_hits", summed("vhost.", "/tx.quota_hits"), "count")
    put("vhost.tx.kick_wakeups", summed("vhost.", "/tx.kick_wakeups"), "count")
    coalesced = summed("vhost.", "/rx.coalesced_signals")
    signals = coalesced + summed("vhost.", "/rx.signals")
    put("vhost.rx.coalesced_ratio", _ratio(coalesced, signals), "ratio",
        f"{coalesced} coalesced / {signals} RX signals")
    suppressed = summed("virtio.", ".rx_interrupts_suppressed")
    irqs = suppressed + summed("virtio.", ".rx_interrupts_raised")
    put("virtio.rx_irq_suppressed_ratio", _ratio(suppressed, irqs), "ratio",
        f"{suppressed} suppressed / {irqs} RX interrupts")
    put("virtio.backlog_drops", summed("virtio.", ".backlog_drops"), "count")

    def fn_calls(suffix):
        return sum(calls for key, (layer, calls, _ns) in fn_totals.items()
                   if layer == "sched" and key.endswith(suffix))

    put("sched.pick_next", fn_calls(".pick_next"), "count")
    put("sched.update_curr", fn_calls(".update_curr"), "count")
    online = c.get("es2.redirector.redirects_online", 0)
    decisions = online + c.get("es2.redirector.redirects_predicted", 0) \
        + c.get("es2.redirector.ineligible", 0)
    put("core.redirect_online_ratio", _ratio(online, decisions), "ratio",
        f"{online} online / {decisions} redirector decisions")
    put("core.tracker.transitions", c.get("es2.tracker.transitions", 0), "count")

    sharded = [w for w in untraced if w.perf.get("n_shards", 1) > 1]
    rounds_ = [w.perf["barrier_rounds"] for w in sharded]
    per_window = [_ratio(w.events, w.perf["measured_rounds"]) for w in sharded]
    speedups = [_ratio(refs[w.seed].measure_s, w.measure_s) for w in sharded]
    put("cluster.barrier_rounds", _median(rounds_), "count")
    put("cluster.events_per_window", _median(per_window), "events/window",
        f"median of {len(sharded)} 2-shard runs, measured rounds")
    put("cluster.barrier_wait_fraction_max",
        _median([w.perf["barrier_wait_fraction_max"] for w in sharded]), "ratio",
        "median over runs of the most-waiting shard's wait / (run + wait)")
    put("cluster.msgs_cross_shard",
        _median([w.perf["messages_cross_shard"] for w in sharded]), "count")
    put("cluster.speedup_vs_1shard", _median(speedups), "ratio",
        "median of 1-shard / 2-shard realized elapsed time of the measured windows")

    # against untraced windows of the same seeds and shard count
    seeds = {w.seed for w in traced}
    base = list(refs.values()) if refs else untraced
    traced_rate = _median([w.sim_ms_per_s for w in traced])
    plain_rate = _median([w.sim_ms_per_s for w in base if w.seed in seeds])
    put("trace.overhead_ratio", _ratio(traced_rate, plain_rate), "ratio",
        f"{traced_rate:.2f} traced / {plain_rate:.2f} untraced sim_ms_per_s")

    sim = pool(first_windows)
    for key, layer, unit in (("sim_gbps", "workloads", "Gbps"),
                             ("sim_ops_per_s", "workloads", "1/s"),
                             ("sim_lat_p50_us", "workloads", "us"),
                             ("sim_lat_p99_us", "workloads", "us"),
                             ("sim_exits_per_s", "kvm", "1/s"),
                             ("sim_io_exits_per_s", "kvm", "1/s"),
                             ("sim_tig", "kvm", "ratio")):
        put(f"{layer}.{key}", sim.get(key, 0), unit)
    return metrics, bases


def format_per_layer(metrics: Dict[str, tuple], bases: Dict[str, str]) -> str:
    """The layer table, then every other per-layer metric with its base."""
    lines: List[str] = [f"{'layer':<10} {'self share':>10} {'calls/event':>12}"]
    shown = set()
    for layer in LAYERS:
        share, cpe = f"{layer}.self_share", f"{layer}.calls_per_event"
        lines.append(f"{layer:<10} {metrics[share][0]:>10.3f} {metrics[cpe][0]:>12.3f}"
                     f"   ({bases[share]}; {bases[cpe]})")
        shown.update((share, cpe))
    for name, (value, unit) in metrics.items():
        if name in shown:
            continue
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        base = f" ({bases[name]})" if name in bases else ""
        lines.append(f"{name} {text} {unit}{base}")
    return "\n".join(lines)
