"""The repository benchmark: simulator speed and simulated ES2 results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload udp_hybrid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures, for as long as ``--seconds`` allows, the
workload's pooled simulator seeds, a few windows of each, and reports
the end-to-end metrics: simulated milliseconds per second and set-up
time, both in seconds of a reference host (see ``reference_s`` and
``probe.py``: the host's speed swings by tens of percent over minutes,
so every window is scaled by probes run between its pieces), and peak
resident memory.  ``--trace 1`` runs the same windows untraced, then
once more under :class:`LayerTracer`, and reports the per-layer metrics.
Either mode checks every window (see ``ledger.py``) and runs one more
window on a held-out seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: knobs that switch the simulator's observers, queue or scheduler; a run
#: must measure the defaults, so they are removed and reported
SCRUBBED_ENV = ("REPRO_TIMELINE", "REPRO_QUEUE_BACKEND", "REPRO_SCHED_POLICY",
                "REPRO_CACHE_DIR")
#: share of ``--seconds`` the untraced windows of a traced run may use
TRACE_UNTRACED_SHARE = 0.3


# ---------------------------------------------------------------- environment
def scrub_environment():
    """Remove the knobs in SCRUBBED_ENV; returns what was set."""
    found = {}
    for name in SCRUBBED_ENV:
        if name in os.environ:
            found[name] = os.environ.pop(name)
    return found


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest(root: Path) -> str:
    """SHA-256 over the simulator's sources, to tie results to the code."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(scrubbed):
    """What the numbers were measured on, recorded at start."""
    return {
        "git_revision": git_revision(ROOT),
        "src_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": os.getloadavg(),
        "scrubbed_env": scrubbed,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any shard it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class CacheGuard:
    """Counts result caches built while installed (none may be).

    The point cache (``parallel.ResultCache``) and the flow runner's task
    cache would let a window reuse a stored result instead of simulating.
    """

    def __init__(self):
        from repro.flow.runner import FlowRunner
        from repro.parallel.cache import ResultCache

        self.built = 0
        self._classes = (ResultCache, FlowRunner)
        self._originals = [cls.__init__ for cls in self._classes]

    def __enter__(self):
        for cls, original in zip(self._classes, self._originals):
            def counted(obj, *args, _original=original, **kwargs):
                self.built += 1
                return _original(obj, *args, **kwargs)
            cls.__init__ = counted
        return self

    def __exit__(self, *exc):
        for cls, original in zip(self._classes, self._originals):
            cls.__init__ = original
        return False


# --------------------------------------------------------------------- timing
class Budget:
    """Decides whether another seed's windows fit in ``--seconds``."""

    def __init__(self, seconds: float):
        self.start = perf_counter()
        self.seconds = seconds
        self.longest = 0.0

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def note(self, started: float) -> None:
        self.longest = max(self.longest, perf_counter() - started)

    def fits(self, share: float = 1.0) -> bool:
        """True when one more seed, as long as the longest so far, ends in time."""
        return self.elapsed() + self.longest <= self.seconds * share


def timed_windows(workload, seeds, budget, ledger, share=1.0):
    """Measure seeds in turn, ``workload.reps`` windows each, while time allows.

    Only whole seeds run: every measured seed has exactly ``reps`` windows,
    whatever the host speed.  On the rack, each seed first runs at 1 shard
    as the reference its 2-shard windows must match.
    """
    refs = {}
    windows = []
    for seed in seeds:
        if windows and not budget.fits(share):
            break
        started = perf_counter()
        if workload.rack:
            refs[seed] = workload.window(seed, n_shards=1)
        for rep in range(workload.reps):
            w = workload.window(seed)
            if workload.rack:
                ledger.record(w, reference=refs[seed].digest, label="2-shard vs 1-shard")
            else:
                ledger.record(w)
            if rep:
                w.latency_ns = []  # pooled from the first window of each seed only
            windows.append(w)
        budget.note(started)
    return windows, refs


def first_per_seed(windows):
    seen = {}
    for w in windows:
        seen.setdefault(w.seed, w)
    return list(seen.values())


def by_seed(windows):
    out = {}
    for w in windows:
        out.setdefault(w.seed, []).append(w)
    return out


def reference_s(w, host_s):
    """``host_s`` host seconds of window ``w`` in reference-host seconds.

    The window's probes (see ``probe.py``) ran interleaved with it; their
    median is how much slower than on the reference host the window ran.
    """
    return host_s / statistics.median(w.slowdown)


def best_sim_ms_per_s(windows, scaled=True):
    """Median over seeds of simulated ms per second of each seed's fastest pieces.

    Every window of a seed simulates the same events, piece by piece, so
    the quickest repetition of each piece is the time the code needs
    there; slower ones were held up by the host.  Piece times are first
    scaled to the reference host (unless ``scaled`` is false), which
    removes the minutes-long swings in host speed that no repetition
    inside one run can.  The median over seeds keeps the few seeds whose
    clients fall nearly idle from pulling the figure.
    """
    rates = []
    for reps in by_seed(windows).values():
        pieces = ([reference_s(w, c) if scaled else c for c in w.chunk_s] for w in reps)
        rates.append(reps[0].sim_ms / math.fsum(min(piece) for piece in zip(*pieces)))
    return statistics.median(rates)


def best_setup_s(windows):
    """Median over seeds of each seed's quickest set-up, in reference seconds."""
    return statistics.median(min(reference_s(w, w.setup_s) for w in reps)
                             for reps in by_seed(windows).values())


# ------------------------------------------------------------------ per layer
def traced_run(workload, seed, seconds, ledger):
    """Untraced windows, then traced windows of the first seeds.

    Returns the untraced windows and the per-layer metrics with their
    bases.  The rack is traced at 1 shard: spans recorded in forked
    shards would stay in those processes.
    """
    from layers import per_layer
    from tracer import LayerTracer, leftover_wrappers
    from workloads import LAYERS, TRACED_SEEDS, sub_seeds

    seeds = sub_seeds(seed)
    untraced, refs = timed_windows(workload, seeds, Budget(seconds), ledger,
                                   share=TRACE_UNTRACED_SHARE)
    plain = refs if workload.rack else {w.seed: w for w in first_per_seed(untraced)}
    tracer = LayerTracer(LAYERS)
    traced = []
    fn_totals = {}
    tracer.install()
    try:
        for s in seeds[:TRACED_SEEDS]:
            # the window resets the tracer when its measurement opens
            traced.append(workload.window(s, tracer=tracer, n_shards=1))
            for key, (calls, _spans, self_ns) in tracer.snapshot().items():
                layer, total_calls, total_ns = fn_totals.get(key, (tracer.stats[key].layer, 0, 0))
                fn_totals[key] = (layer, total_calls + calls, total_ns + self_ns)
    finally:
        tracer.uninstall()
    for w in traced:
        ledger.record(w, reference=plain[w.seed].digest, label="traced vs untraced")
    leftovers = leftover_wrappers(["repro"])
    ledger.check(not leftovers, f"tracer left wrappers installed: {leftovers[:3]}")
    metrics, bases = per_layer(fn_totals, traced, untraced, refs, first_per_seed(untraced))
    return untraced, metrics, bases


# -------------------------------------------------------------------- report
def format_simulated(sim, n_seeds):
    rows = []
    for key, unit in (("sim_gbps", "Gbps"), ("sim_ops_per_s", "1/s"),
                      ("sim_exits_per_s", "1/s"), ("sim_io_exits_per_s", "1/s"),
                      ("sim_tig", "ratio")):
        if key in sim:
            rows.append(f"{key} {sim[key]:.6g} {unit} (mean of {n_seeds} seeds)")
    if "sim_lat_p50_us" in sim:
        n = sim["sim_lat_samples"]
        rows.append(f"sim_lat_p50_us {sim['sim_lat_p50_us']:.6g} us ({n} samples)")
        host_n = sim.get("sim_lat_p99_min_host_samples")
        if host_n is None:
            rows.append(f"sim_lat_p99_us {sim['sim_lat_p99_us']:.6g} us "
                        f"({n} samples, {n - int(0.99 * n)} beyond)")
        else:
            rows.append(f"sim_lat_p99_us {sim['sim_lat_p99_us']:.6g} us (worst host's p99; "
                        f"smallest host {host_n} samples, {host_n - int(0.99 * host_n)} beyond)")
    return "\n".join(rows)


# ---------------------------------------------------------------------- main
def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scrubbed = scrub_environment()
    sys.path.insert(0, str(ROOT / "src"))
    from layers import format_per_layer
    from ledger import Ledger
    from workloads import TRACED_SEEDS, WORKLOADS, held_out_seed, pool, sub_seeds

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(scrubbed)
    print(f"# {workload.name}: {workload.why}")
    print(f"# layers: {workload.layers}")
    print("# environment: " + json.dumps(env))
    ledger = Ledger()
    with CacheGuard() as guard:
        if args.trace:
            windows, metrics, bases = traced_run(workload, args.seed, args.seconds, ledger)
        else:
            windows, _refs = timed_windows(workload, sub_seeds(args.seed),
                                           Budget(args.seconds), ledger)
        held = workload.window(held_out_seed(args.seed))
        ledger.record(held, label="held-out")
    # read before the pooled readout below sorts every kept latency sample
    rss_mb = peak_rss_mb()
    ledger.check(guard.built == 0, f"{guard.built} result caches built during the run")

    rates = [w.sim_ms_per_s for w in windows]
    firsts = first_per_seed(windows)
    print(f"# windows: {len(windows)} x {workload.measure_ms} simulated ms "
          f"(warm-up {workload.warmup_ms} ms) over seeds {[w.seed for w in firsts]}")
    print(f"# host sim_ms_per_s per window, unscaled: min {min(rates):.2f} "
          f"median {statistics.median(rates):.2f} max {max(rates):.2f}")
    print("# simulated readout, pooled over seeds:")
    print(format_simulated(pool(firsts), len(firsts)))
    print(f"# held-out seed {held.seed}:")
    print(format_simulated(pool([held]), 1))
    if args.trace:
        print(f"# per-layer, traced windows of seeds "
              f"{sub_seeds(args.seed)[:TRACED_SEEDS]}:")
        print(format_per_layer(metrics, bases))
    else:
        metrics = {
            "sim_ms_per_s": (best_sim_ms_per_s(windows), "ms/s"),
            "setup_s": (best_setup_s(windows), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        slowdown = statistics.median(x for w in windows for x in w.slowdown)
        print(f"# sim_ms_per_s: median over {len(firsts)} seeds of simulated time over "
              f"their quickest pieces of {workload.reps} windows each; setup_s: median over "
              f"seeds of each seed's quickest; both in seconds of the reference host, "
              f"{slowdown:.3f} times as fast as this one during the windows (probe "
              f"median); unscaled: {best_sim_ms_per_s(windows, scaled=False):.3f} "
              f"host ms/s; peak_rss_mb: the run's largest process")
    for problem in ledger.problems:
        print(f"# FAILED: {problem}")
    print(f"# attempted {ledger.attempted}, failed {ledger.failed}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
