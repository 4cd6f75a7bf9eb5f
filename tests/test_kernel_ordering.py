"""Delivery-order contract of the two-lane kernel.

The kernel's docstring promises delivery order identical to a single
sequence-numbered heap: sorted by ``(time, creation order)``. These tests
pin that contract — same-time FIFO, heap/fast-lane interleaving, the
already-processed callback path, failure propagation, combinator detach
behaviour, and the recycling pools — so any future hot-path change that
reorders deliveries fails loudly here before it reaches the golden
payload test.
"""

import pytest

from repro.sim import AllOf, AnyOf, Simulator
from repro.sim.kernel import SimulationError

# Hard-coded expected trace for the mixed scenario below, generated once
# from the original single-heap kernel. Do not regenerate from the
# current kernel when this fails: a mismatch IS the bug.
GOLDEN_TRACE = [
    (0.0, "spawn"),
    (0.0, "child.0"),
    (0.0, "child.1"),
    (0.0, "joined"),
    (0.25, "w1.0"),
    (0.5, "w2.0"),
    (0.5, "open"),
    (0.5, "w1.1"),
    (0.5, "g1:key"),
    (0.5, "g2:key"),
    (1.0, "w2.1"),
    (1.0, "w1.2"),
    (1.0, "late:key"),
    (1.5, "all:a,b,c"),
    (1.5, "any:1:now"),
]


def _run_scenario() -> list:
    """Every scheduling path in one simulation: process spawn/join, heap
    collisions, a manually opened gate with early and late waiters, and
    both combinators."""
    sim = Simulator()
    log = []

    def child():
        log.append((sim.now, "child.0"))
        yield sim.timeout(0.0)
        log.append((sim.now, "child.1"))

    def spawner():
        log.append((sim.now, "spawn"))
        yield sim.process(child())
        log.append((sim.now, "joined"))

    def waiter(name, delays):
        for i, d in enumerate(delays):
            yield sim.timeout(d)
            log.append((sim.now, f"{name}.{i}"))

    gate = sim.event()

    def opener():
        yield sim.timeout(0.5)
        log.append((sim.now, "open"))
        gate.succeed("key")

    def gated(name):
        value = yield gate
        log.append((sim.now, f"{name}:{value}"))

    def late_gated():
        yield sim.timeout(1.0)
        value = yield gate  # long processed by now
        log.append((sim.now, f"late:{value}"))

    def fan_in():
        vals = yield AllOf(
            sim, [sim.timeout(1.5, "a"), sim.timeout(0.75, "b"), sim.timeout(1.5, "c")]
        )
        log.append((sim.now, "all:" + ",".join(vals)))
        idx, val = yield AnyOf(sim, [sim.timeout(9.0, "slow"), sim.timeout(0.0, "now")])
        log.append((sim.now, f"any:{idx}:{val}"))

    sim.process(spawner())
    sim.process(waiter("w1", [0.25, 0.25, 0.5]))
    sim.process(waiter("w2", [0.5, 0.5]))
    sim.process(opener())
    sim.process(gated("g1"))
    sim.process(gated("g2"))
    sim.process(late_gated())
    sim.process(fan_in())
    sim.run()
    return log


def test_golden_order_trace():
    assert _run_scenario() == GOLDEN_TRACE


def test_same_time_entries_deliver_fifo():
    sim = Simulator()
    order = []

    def hop(i):
        yield sim.timeout(0.0)
        order.append(("a", i))
        yield sim.timeout(1.0)
        order.append(("b", i))

    for i in range(8):
        sim.process(hop(i))
    sim.run()
    assert order == [("a", i) for i in range(8)] + [("b", i) for i in range(8)]


def test_heap_collisions_deliver_in_creation_order():
    """Colliding positive delays (the heap path) keep creation order."""
    sim = Simulator()
    order = []
    for i in range(6):
        sim.timeout(0.5).add_callback(lambda _ev, i=i: order.append(i))
    sim.run()
    assert order == list(range(6))


def test_callback_added_after_processed_still_runs():
    sim = Simulator()
    seen = []
    ev = sim.event().succeed(41)
    sim.run()
    assert ev.value == 41
    ev.add_callback(lambda e: seen.append(e.value + 1))
    sim.run()
    assert seen == [42]


def test_callback_registered_during_delivery_defers():
    """A callback added while its event is being delivered runs later at
    the same timestamp, not inside the current delivery sweep."""
    sim = Simulator()
    order = []
    ev = sim.event()

    def first(e):
        order.append("first")
        e.add_callback(lambda _e: order.append("deferred"))

    ev.add_callback(first)
    ev.add_callback(lambda _e: order.append("second"))
    ev.succeed()
    sim.run()
    assert order == ["first", "second", "deferred"]


def test_failure_propagates_through_process_chain():
    sim = Simulator()

    def inner():
        yield sim.timeout(0.1)
        raise RuntimeError("boom")

    def outer():
        yield sim.process(inner())

    sim.process(outer())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_event_fail_reaches_every_waiter():
    sim = Simulator()
    caught = []
    ev = sim.event()

    def waiter(i):
        try:
            yield ev
        except ValueError as err:
            caught.append((i, str(err)))

    for i in range(3):
        sim.process(waiter(i))
    ev.fail(ValueError("nope"))  # delivered after the waiters register
    sim.run()
    assert caught == [(0, "nope"), (1, "nope"), (2, "nope")]


def test_anyof_detaches_losing_callbacks():
    sim = Simulator()
    slow = sim.timeout(10.0)
    fast = sim.timeout(0.0, "winner")
    any_of = AnyOf(sim, [slow, fast])
    sim.run(until=1.0)
    assert any_of.value == (1, "winner")
    # the losing child must not keep a callback into the dead AnyOf
    assert slow.callbacks == []


def test_allof_detaches_after_fail_fast():
    sim = Simulator()
    pending = sim.timeout(10.0)
    failing = sim.event()
    all_of = AllOf(sim, [pending, failing])
    caught = []

    def waiter():
        try:
            yield all_of
        except RuntimeError as err:
            caught.append(str(err))

    sim.process(waiter())
    failing.fail(RuntimeError("child died"))
    sim.run(until=1.0)
    assert caught == ["child died"]
    assert pending.callbacks == []


def test_run_until_parks_clock_between_events():
    sim = Simulator()
    log = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(ticker())
    sim.run(until=2.5)
    assert log == [1.0, 2.0]
    assert sim.now == 2.5
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]

    def due_at_horizon():
        yield sim.timeout(0.5)
        log.append(("due", sim.now))
        yield sim.timeout(0.0)  # zero-delay work spawned at the horizon
        log.append(("spawned", sim.now))

    sim.process(due_at_horizon())
    sim.run(until=4.0)  # the tick and due_at_horizon both fall due at 4.0
    assert log == [1.0, 2.0, 3.0, 4.0, ("due", 4.0), ("spawned", 4.0)]
    assert sim.now == 4.0
    # a following step resumes with the next entry, the tick at 5.0
    assert sim.step(1) == 1
    assert log[-1] == 5.0 and sim.now == 5.0


def test_run_until_behind_the_clock_raises():
    sim = Simulator()
    log = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(ticker())
    sim.run(until=2.5)
    with pytest.raises(ValueError, match="before now"):
        sim.run(until=1.0)
    with pytest.raises(ValueError, match="before now"):
        sim.run(until=float("nan"))
    assert sim.now == 2.5 and log == [1.0, 2.0]

    def late():
        yield sim.timeout(0.5)
        log.append(("late", sim.now))

    # the clock stayed put, so new work lands after what was delivered
    sim.process(late())
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0, ("late", 3.0)]


def test_time_cannot_go_backwards():
    import heapq

    sim = Simulator()
    sim.timeout(1.0)
    sim.run(until=0.75)  # clock parked at 0.75 with the timeout pending
    heapq.heappush(sim._queue, (0.5, 0, sim.event(), None))
    with pytest.raises(SimulationError, match="backwards"):
        sim.run()


# -- recycling pools ----------------------------------------------------------


def test_event_recycling_reuses_objects():
    sim = Simulator()

    def churn(n):
        for _ in range(n):
            yield sim.event().succeed("t")

    sim.process(churn(50))
    sim.run()
    assert len(sim._event_pool) >= 1
    pooled = sim._event_pool[-1]
    assert pooled._triggered is False and pooled._processed is False
    assert pooled._value is None and pooled._exc is None
    assert sim.event() is pooled  # LIFO reuse


def test_recycled_event_behaves_like_new():
    sim = Simulator()
    values = []

    def churn(n):
        for i in range(n):
            values.append((yield sim.event().succeed(i)))

    sim.process(churn(10))
    sim.run()
    assert values == list(range(10))


def test_held_event_is_not_recycled():
    sim = Simulator()
    held = []

    def churn(n):
        for i in range(n):
            ev = sim.event().succeed(i)
            held.append(ev)
            yield ev

    sim.process(churn(5))
    sim.run()
    assert sim._event_pool == []
    assert [ev.value for ev in held] == list(range(5))


def test_process_recycling_keeps_results_correct():
    sim = Simulator()

    def child(i):
        yield sim.timeout(0.0)
        return i * i

    def parent(n):
        for i in range(n):
            assert (yield sim.process(child(i))) == i * i

    sim.process(parent(30))
    sim.run()
    assert len(sim._process_pool) >= 1
    assert sim._process_pool[-1]._gen is None


def test_pool_size_is_bounded():
    from repro.sim.kernel import _POOL_MAX, Event

    sim = Simulator()
    sim._event_pool.extend(Event(sim) for _ in range(_POOL_MAX))

    def churn(n):
        for _ in range(n):
            yield sim.event().succeed("t")

    sim.process(churn(20))
    sim.run()
    # churn pops one slot and recycles back into it; the cap holds
    assert len(sim._event_pool) == _POOL_MAX
