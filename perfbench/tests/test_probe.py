"""The host probes: fixed work, and helpers that are always stopped."""

import gc

from probe import PROBE_EXPONENT, PROBE_REF_S, BarrierProbe, host_slowdown, probe_s


def test_probe_takes_time_and_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert probe_s(200) > 0
    assert gc.isenabled()


def test_host_slowdown_is_the_probe_time_against_the_reference(monkeypatch):
    import probe

    monkeypatch.setattr(probe, "probe_s", lambda: 4 * PROBE_REF_S)
    assert abs(host_slowdown() - 4 ** PROBE_EXPONENT) < 1e-12


def test_barrier_probe_rounds_wait_for_every_helper_and_stop_them():
    with BarrierProbe(2, n_events=50) as barrier:
        procs = list(barrier._procs)
        assert all(p.is_alive() for p in procs)
        assert all(barrier.slowdown() > 0 for _ in range(3))
    assert not any(p.is_alive() for p in procs)
    assert all(p.exitcode == 0 for p in procs)
