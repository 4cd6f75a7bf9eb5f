"""Unit tests for the discrete-event simulation kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import KernelProbe
from repro.sim import (
    AllOf,
    AnyOf,
    BandwidthPipe,
    Event,
    Resource,
    SimulationError,
    Simulator,
)


def test_timeout_fires_at_delay():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(0.5)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [1.5, 2.0]


def test_timeout_value_delivery():
    sim = Simulator()
    seen = []

    def proc(sim):
        val = yield sim.timeout(1.0, value="payload")
        seen.append(val)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_zero_timeout_runs_in_creation_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(0.0)
        order.append(tag)

    sim.process(proc(sim, "a"))
    sim.process(proc(sim, "b"))
    sim.run()
    assert order == ["a", "b"]


def test_manual_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    woke = []

    def waiter(sim):
        val = yield gate
        woke.append((sim.now, val))

    def opener(sim):
        yield sim.timeout(3.0)
        gate.succeed(42)

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert woke == [(3.0, 42)]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_raises_in_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield gate
        except ValueError as err:
            caught.append(str(err))

    sim.process(waiter(sim))
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return "child-result"

    def parent(sim):
        val = yield sim.process(child(sim))
        results.append(val)

    sim.process(parent(sim))
    sim.run()
    assert results == ["child-result"]


def test_process_exception_propagates_to_parent():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except RuntimeError as err:
            caught.append(str(err))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child failed"]


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 17

    proc = sim.process(bad(sim))
    # nobody waits on the process, so run() surfaces the failure
    with pytest.raises(SimulationError):
        sim.run()
    assert proc.triggered


def test_watched_process_failure_not_reraised_by_run():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("expected")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError:
            pass

    sim.process(parent(sim))
    sim.run()  # must not raise: the parent handled it


def test_all_of_waits_for_every_child():
    sim = Simulator()
    got = []

    def proc(sim):
        vals = yield AllOf(sim, [sim.timeout(1.0, "a"), sim.timeout(3.0, "b")])
        got.append((sim.now, vals))

    sim.process(proc(sim))
    sim.run()
    assert got == [(3.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def proc(sim):
        vals = yield AllOf(sim, [])
        got.append((sim.now, vals))

    sim.process(proc(sim))
    sim.run()
    assert got == [(0.0, [])]


def test_any_of_fires_on_first():
    sim = Simulator()
    got = []

    def proc(sim):
        idx_val = yield AnyOf(sim, [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
        got.append((sim.now, idx_val))

    sim.process(proc(sim))
    sim.run()
    assert got == [(1.0, (1, "fast"))]


def test_waiting_on_already_fired_event():
    sim = Simulator()
    got = []

    def late(sim, ev):
        yield sim.timeout(2.0)
        val = yield ev  # already fired at t=0
        got.append((sim.now, val))

    ev = sim.event()
    ev.succeed("early")
    sim.process(late(sim, ev))
    sim.run()
    assert got == [(2.0, "early")]


def test_run_until_stops_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_value_read_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_many_interleaved_processes_keep_time_monotone():
    sim = Simulator()
    stamps = []

    def proc(sim, delay, reps):
        for _ in range(reps):
            yield sim.timeout(delay)
            stamps.append(sim.now)

    for d in (0.3, 0.7, 1.1):
        sim.process(proc(sim, d, 10))
    sim.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == 30


# -- float waits: a process yields the seconds ------------------------------

DELAYS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-30, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0),
)
OPS = st.one_of(
    st.tuples(st.just("wait"), DELAYS),
    st.tuples(st.just("pipe"), st.integers(0, 1), st.integers(0, 5000)),
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("signal"), st.integers(0, 2)),
    st.tuples(st.just("await"), st.integers(0, 2)),
)


def _run_program(program, capacities, float_waits):
    """Run ``program`` (one op list per process); log every op's end.

    With ``float_waits`` every fixed wait is yielded as its seconds;
    otherwise as ``sim.timeout`` of them, the form float waits replace.
    """
    sim = Simulator()
    resources = [Resource(sim, capacity=c) for c in capacities]
    pipes = [
        BandwidthPipe(sim, 1e4, per_transfer_overhead=0.125),
        BandwidthPipe(sim, 2e3),
    ]
    events = [sim.event() for _ in range(3)]
    log = []

    def wait(delay):
        return delay if float_waits else sim.timeout(delay)

    def body(tag, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "wait":
                yield wait(op[1])
            elif kind == "pipe":
                yield wait(pipes[op[1]].transfer(op[2]))
            elif kind == "hold":
                grant = resources[op[1]].acquire()
                yield grant if isinstance(grant, Event) else wait(grant)
                yield wait(op[2])
                resources[op[1]].release()
            elif kind == "signal":
                if not events[op[1]].triggered:
                    events[op[1]].succeed()
            else:
                yield events[op[1]]
            log.append((sim.now, tag, step))

    for tag, ops in enumerate(program):
        sim.process(body(tag, ops))
    sim.run()
    return log, sim._seq


@settings(max_examples=300, deadline=None)
@given(
    program=st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=4),
    capacities=st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_float_wait_delivers_exactly_as_a_timeout(program, capacities):
    """Same instants, same order of every resume, same entry count."""
    assert _run_program(program, capacities, True) == _run_program(
        program, capacities, False
    )


@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan")])
def test_negative_or_nan_wait_raises_in_the_process(bad):
    sim = Simulator()
    log = []

    def proc(sim):
        try:
            yield bad
        except ValueError:
            log.append(("caught", sim.now))
        yield 1.0
        log.append(("resumed", sim.now))

    sim.process(proc(sim))
    sim.run()
    assert log == [("caught", 0.0), ("resumed", 1.0)]

    def unguarded(sim):
        yield bad

    sim.process(unguarded(sim))
    # nobody waits on the process, so run() surfaces its failure
    with pytest.raises(ValueError, match="negative or NaN"):
        sim.run()


def test_negative_zero_and_numpy_delays_are_waits():
    sim = Simulator()
    log = []

    def proc(sim):
        yield -0.0
        log.append(sim.now)
        yield np.float64(0.5)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [0.0, 0.5]
    assert type(sim.now) is float


def test_float_wait_resumes_with_none_and_makes_no_timeout():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append((yield 0.25))
        seen.append((yield 0.0))

    with KernelProbe(sim) as probe:
        sim.process(proc(sim))
        sim.run()
    assert seen == [None, None]
    assert probe.counters.timeouts == 0
    # the start, the timed wait, the zero wait and the process's end
    assert probe.counters.ops == 4


def test_acquire_returns_a_zero_wait_when_free_and_an_event_when_full():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.acquire()
    assert type(first) is float and first == 0.0
    assert res.in_use == 1
    second = res.acquire()
    assert isinstance(second, Event) and not second.triggered
    res.release()
    assert second.triggered and second.value is res
    assert res.in_use == 1
