"""Failure accounting: injected mismatches must be counted."""

from ledger import Ledger
from run import Budget, best_setup_s, best_sim_ms_per_s, timed_windows
from workloads import Window


def window(seed, digest, anchors=(), chunk_s=(0.25, 0.25), slowdown=(1.0,)):
    return Window(seed=seed, setup_s=0.001, measure_s=sum(chunk_s), sim_ms=40.0,
                  digest=digest, results={}, counters={}, events=1, inlined=0,
                  counted_ms=40.0, anchor_failures=list(anchors), chunk_s=list(chunk_s),
                  slowdown=list(slowdown))


def test_repetition_mismatch_is_counted():
    ledger = Ledger()
    assert ledger.record(window(1, "a")) == []
    assert ledger.record(window(2, "b")) == []
    assert ledger.record(window(1, "a")) == []
    assert ledger.record(window(1, "x"))
    assert (ledger.attempted, ledger.failed) == (4, 1)


def test_reference_mismatch_is_counted():
    ledger = Ledger()
    ledger.record(window(3, "t"), reference="u", label="traced vs untraced")
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "traced vs untraced" in ledger.problems[0]


def test_anchor_failure_counts_once_per_window():
    ledger = Ledger()
    ledger.record(window(1, "a", anchors=["too many exits", "no data"]))
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert len(ledger.problems) == 2


def test_run_level_check():
    ledger = Ledger()
    ledger.check(True, "fine")
    ledger.check(False, "cache built")
    assert (ledger.attempted, ledger.failed) == (2, 1)


class FlakyWorkload:
    """Returns a different digest on the third window of its first seed."""

    rack = False
    reps = 3

    def __init__(self):
        self.calls = 0

    def window(self, seed, tracer=None, n_shards=2):
        self.calls += 1
        digest = "changed" if self.calls == 3 else f"seed-{seed}"
        return window(seed, digest)


def test_injected_mismatch_in_timed_windows_is_counted():
    ledger = Ledger()
    windows, _ = timed_windows(FlakyWorkload(), [10, 11, 12], Budget(0), ledger)
    # one seed, three windows; its third window changed
    assert [w.seed for w in windows] == [10] * 3
    assert (ledger.attempted, ledger.failed) == (3, 1)


class ShardedWorkload(FlakyWorkload):
    """A rack whose 2-shard runs disagree with its 1-shard reference."""

    rack = True

    def window(self, seed, tracer=None, n_shards=2):
        return window(seed, f"{n_shards}-shard")


def test_shard_mismatch_is_counted():
    ledger = Ledger()
    windows, refs = timed_windows(ShardedWorkload(), [5], Budget(0), ledger)
    assert len(windows) == 3 and set(refs) == {5}
    assert (ledger.attempted, ledger.failed) == (3, 3)


def test_best_rate_takes_each_piece_quickest_repetition():
    windows = [window(1, "a", chunk_s=(0.2, 0.9)), window(1, "a", chunk_s=(0.6, 0.2)),
               window(2, "b", chunk_s=(0.3, 0.3))]
    # seed 1: 40 ms in 0.2 + 0.2 s; seed 2: 40 ms in 0.3 + 0.3 s
    assert abs(best_sim_ms_per_s(windows) - (100.0 + 40.0 / 0.6) / 2) < 1e-9


def test_pieces_are_scaled_by_their_window_slowdown():
    # the second window ran on a host twice as slow: its 0.4 s count as 0.2 s
    windows = [window(1, "a", chunk_s=(0.3, 0.3)),
               window(1, "a", chunk_s=(0.4, 0.8), slowdown=(1.5, 2.0, 2.5))]
    assert abs(best_sim_ms_per_s(windows) - 40.0 / 0.5) < 1e-9
    assert abs(best_sim_ms_per_s(windows, scaled=False) - 40.0 / 0.6) < 1e-9
    assert abs(best_setup_s(windows) - 0.0005) < 1e-12
