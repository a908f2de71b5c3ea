"""LayerTracer on a toy call tree with a fake clock, and on the simulator."""

import dataclasses
import sys
import textwrap

import pytest

from tracer import LayerTracer, leftover_wrappers

TOY = {
    "__init__.py": "",
    "clock.py": """
        NOW = [0]

        def advance(ns):
            NOW[0] += ns

        def read():
            return NOW[0]
    """,
    "inner.py": """
        from toyapp.clock import advance

        def leaf():
            advance(7)

        def numbers():
            advance(2)
            yield 1
            advance(4)
            yield 2

        class Box:
            def fill(self):
                advance(10)
                leaf()
    """,
    "outer.py": """
        from toyapp.clock import advance
        from toyapp.inner import Box, leaf, numbers

        def top():
            advance(5)
            leaf()
            advance(3)
            leaf()

        def drive():
            total = 0
            for x in numbers():
                advance(1)
                total += x
            return total

        def drive_send():
            gen = numbers()
            got = [gen.send(None), gen.send(None)]
            with_stop = False
            try:
                gen.send(None)
            except StopIteration:
                with_stop = True
            return got, with_stop

        def boxed():
            Box().fill()

        def with_hook(hook):
            advance(5)
            leaf()
            hook()
            advance(3)
            leaf()
    """,
}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    pkg = tmp_path / "toyapp"
    pkg.mkdir()
    for name, body in TOY.items():
        (pkg / name).write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    import toyapp.clock
    import toyapp.outer

    tracer = LayerTracer({"outer": ["toyapp.outer"], "inner": ["toyapp.inner"]},
                         clock=toyapp.clock.read)
    yield tracer, toyapp
    tracer.uninstall()
    for name in [m for m in sys.modules if m == "toyapp" or m.startswith("toyapp.")]:
        del sys.modules[name]


def test_self_time_is_span_minus_child_spans(toy):
    tracer, app = toy
    tracer.install()
    app.outer.top()
    totals = tracer.layer_totals()
    # outer span: 5 + 7 + 3 + 7 = 22 ns; its two child spans take 14
    assert totals["outer"] == {"calls": 1, "spans": 1, "self_ns": 22 - 14}
    assert totals["inner"] == {"calls": 2, "spans": 2, "self_ns": 14}


def test_same_layer_calls_count_but_share_the_span(toy):
    tracer, app = toy
    tracer.install()
    app.outer.boxed()
    totals = tracer.layer_totals()
    # Box.fill calls leaf inside the same layer: one span, two calls
    assert totals["inner"] == {"calls": 2, "spans": 1, "self_ns": 17}


def test_generator_resumptions_are_attributed_to_their_layer(toy):
    tracer, app = toy
    tracer.install()
    assert app.outer.drive() == 3
    totals = tracer.layer_totals()
    # creation + 3 resumptions (two yields and the one that stops)
    assert totals["inner"]["calls"] == 4
    assert totals["inner"]["spans"] == 3
    assert totals["inner"]["self_ns"] == 2 + 4
    assert totals["outer"]["self_ns"] == 2


def test_generator_send_path(toy):
    tracer, app = toy
    tracer.install()
    assert app.outer.drive_send() == ([1, 2], True)
    assert tracer.layer_totals()["inner"]["self_ns"] == 6


def test_uninstall_restores_every_original(toy):
    tracer, app = toy
    before = (app.inner.leaf, app.outer.leaf, app.inner.numbers,
              app.inner.Box.__dict__["fill"], app.outer.top)
    tracer.install()
    assert app.outer.leaf is not before[1]
    assert leftover_wrappers(["toyapp"])
    tracer.uninstall()
    after = (app.inner.leaf, app.outer.leaf, app.inner.numbers,
             app.inner.Box.__dict__["fill"], app.outer.top)
    assert all(a is b for a, b in zip(before, after))
    assert leftover_wrappers(["toyapp"]) == []
    app.outer.top()
    assert tracer.layer_totals()["outer"]["calls"] == 0


def test_reset_between_calls_zeroes_totals(toy):
    tracer, app = toy
    tracer.install()
    app.outer.top()
    tracer.reset()
    assert tracer.layer_totals()["outer"] == {"calls": 0, "spans": 0, "self_ns": 0}


def test_reset_inside_open_span_counts_only_what_follows(toy):
    tracer, app = toy
    tracer.install()
    app.outer.with_hook(tracer.reset)
    totals = tracer.layer_totals()
    # the outer span restarts at the reset: 3 ns of its own, then one leaf
    assert totals["outer"] == {"calls": 0, "spans": 1, "self_ns": 3}
    assert totals["inner"] == {"calls": 1, "spans": 1, "self_ns": 7}


def test_traced_window_matches_untraced_and_unwraps():
    from repro.kvm.vcpu import Vcpu
    from repro.vhost.hybrid import HybridTxHandler
    from workloads import LAYERS, WORKLOADS

    small = dataclasses.replace(WORKLOADS["udp_hybrid"], warmup_ms=2, measure_ms=4)
    plain = small.window(7)
    originals = (Vcpu.__dict__["body"], HybridTxHandler.__dict__["run"])
    tracer = LayerTracer(LAYERS)
    tracer.install()
    try:
        traced = small.window(7, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    totals = tracer.layer_totals()
    assert totals["kvm"]["calls"] > 0 and totals["vhost"]["calls"] > 0
    body = tracer.stats["repro.kvm.vcpu.Vcpu.body"]
    # one call creates the generator, every resumption is a call and a span
    assert body.calls == body.spans + 1 and body.spans > 1 and body.self_ns > 0
    assert (Vcpu.__dict__["body"], HybridTxHandler.__dict__["run"]) == originals
    assert leftover_wrappers(["repro"]) == []


def test_traced_rack_counts_only_the_measured_rounds():
    from workloads import LAYERS, WORKLOADS

    small = dataclasses.replace(WORKLOADS["rack_memcached"], warmup_ms=2, measure_ms=2)
    plain = small.window(7, n_shards=1)
    tracer = LayerTracer(LAYERS)
    tracer.install()
    try:
        traced = small.window(7, tracer=tracer, n_shards=1)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert 0 < traced.events == plain.events
    # the shard's hosts were built and started before the reset
    assert tracer.stats["repro.cluster.shard.Shard.start"].calls == 0
    assert tracer.stats["repro.cluster.shard.Shard.run_window"].calls > 0
    assert leftover_wrappers(["repro"]) == []
