"""The resumable kernel: ``step(max_events)`` and ``run(until)``.

The grid executor drives each cell's kernel in ``step`` slices, and
perfbench times those slices. These tests pin the contract that makes
that safe: any interleaving of slices delivers in exactly the order a
single ``run()`` call would, budgets are honoured, and the recycling pools and
failure paths behave identically to the blocking form. ``run(until)``
slices by simulated time instead of by entry count; it drives the same
delivery loop, so it is held to the same contract.
"""

import pytest

from repro.sim import AllOf, AnyOf, Simulator
from repro.sim.kernel import SimulationError

from test_kernel_ordering import GOLDEN_TRACE


def _build_scenario_sim():
    """The mixed golden scenario from test_kernel_ordering, unstarted."""
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
        value = yield gate
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
    return sim, log


@pytest.mark.parametrize("slice_events", [1, 2, 3, 7, 4096])
def test_step_driven_scenario_matches_golden_trace(slice_events):
    """Any slice size delivers the golden scenario in run()'s order."""
    sim, log = _build_scenario_sim()
    while sim.step(slice_events):
        pass
    assert log == GOLDEN_TRACE
    assert sim.idle


def test_step_and_run_interleave():
    """A simulation may switch freely between step slices and run()."""
    sim, log = _build_scenario_sim()
    sim.step(4)
    sim.run()
    assert log == GOLDEN_TRACE


def _churning_sim(n):
    sim = Simulator()

    def churn():
        for _ in range(n):
            yield sim.event().succeed("t")

    sim.process(churn())
    return sim


def test_step_budget_and_idle_signal():
    sim = _churning_sim(10)
    n = sim.step(3)
    assert n == 3 and not sim.idle
    total = n
    while True:
        n = sim.step(3)
        if n == 0:
            break
        total += n
    assert sim.idle
    assert sim.step(1) == 0  # idle steps stay idle
    # the stepped sim's exact op count matches a run()-driven twin
    twin = _churning_sim(10)
    twin.run()
    assert sim._seq == twin._seq
    assert sim.now == twin.now


def test_step_rejects_bad_budget():
    with pytest.raises(ValueError):
        Simulator().step(0)


def test_interleaved_simulations_stay_independent():
    """Round-robin slices over two kernels reproduce their solo traces."""

    def build(tag):
        sim = Simulator()
        log = []

        def hop(i):
            yield sim.timeout(0.5 * (i % 3))
            log.append((sim.now, f"{tag}{i}"))
            yield sim.timeout(0.25)
            log.append((sim.now, f"{tag}{i}b"))

        for i in range(6):
            sim.process(hop(i))
        return sim, log

    solo_a = build("a")
    solo_a[0].run()
    solo_b = build("b")
    solo_b[0].run()

    sim_a, log_a = build("a")
    sim_b, log_b = build("b")
    live = [sim_a, sim_b]
    while live:
        live = [sim for sim in live if sim.step(2)]
    assert log_a == solo_a[1]
    assert log_b == solo_b[1]


def test_step_propagates_unwaited_process_failure():
    sim = Simulator()

    def dying():
        yield sim.timeout(0.1)
        raise RuntimeError("boom")

    sim.process(dying())
    with pytest.raises(RuntimeError, match="boom"):
        while sim.step(1):
            pass


def test_step_recycles_events_like_run():
    sim = _churning_sim(50)
    while sim.step(5):
        pass
    assert len(sim._event_pool) >= 1
    pooled = sim._event_pool[-1]
    assert pooled._triggered is False and pooled._processed is False


@pytest.mark.parametrize("until", [0.0, 0.25, 0.4, 0.5, 0.75, 1.0, 1.5, 10.5])
def test_run_until_delivers_the_golden_prefix(until):
    """A horizon delivers every entry due at or before it, then parks."""
    sim, log = _build_scenario_sim()
    sim.run(until=until)
    assert log == [entry for entry in GOLDEN_TRACE if entry[0] <= until]
    assert sim.now == until
    # the last entry is AnyOf's losing timeout, due at 1.5 + 9.0
    assert sim.idle == (until >= 10.5)
    sim.run()
    assert log == GOLDEN_TRACE
    assert sim.idle and sim.now == 10.5


def _run_scenario_ops():
    sim, log = _build_scenario_sim()
    sim.run()
    return sim._seq


@pytest.mark.parametrize("horizon_step", [0.1, 0.25, 0.3, 0.5, 1.0, 2.5])
def test_run_until_slices_reproduce_golden_trace(horizon_step):
    """Advancing the horizon in fixed steps delivers run()'s order and
    tallies run()'s op count, whether or not a horizon lands on an entry."""
    sim, log = _build_scenario_sim()
    horizon = 0.0
    while not sim.idle:
        horizon += horizon_step
        sim.run(until=horizon)
        assert sim.now == horizon
    assert log == GOLDEN_TRACE
    assert sim._seq == _run_scenario_ops()


@pytest.mark.parametrize("slice_events", [1, 3])
def test_step_and_run_until_alternate(slice_events):
    """Entry-count slices and time horizons may alternate freely."""
    sim, log = _build_scenario_sim()
    horizon = 0.0
    while not sim.idle:
        sim.step(slice_events)
        horizon = max(horizon, sim.now) + 0.2
        sim.run(until=horizon)
    assert log == GOLDEN_TRACE
    assert sim._seq == _run_scenario_ops()


def test_run_until_on_an_idle_kernel_parks_the_clock():
    sim = Simulator()
    sim.run(until=5.0)
    assert sim.now == 5.0 and sim.idle
    fired = []

    def later():
        yield sim.timeout(1.0)
        fired.append(sim.now)

    sim.process(later())
    sim.run()
    assert fired == [6.0]


def test_run_until_now_delivers_only_work_due_now():
    sim = Simulator()
    log = []

    def worker():
        log.append(("start", sim.now))
        yield sim.timeout(0.0)
        log.append(("zero", sim.now))
        yield sim.timeout(1.0)
        log.append(("one", sim.now))

    sim.process(worker())
    sim.run(until=0.0)
    assert log == [("start", 0.0), ("zero", 0.0)]
    assert sim.now == 0.0 and not sim.idle
    sim.run()
    assert log[-1] == ("one", 1.0)


def test_run_until_holds_back_a_later_heap_callback():
    sim = Simulator()
    calls = []
    sim._call_soon(lambda: calls.append(sim.now), 2.0)
    sim.run(until=1.0)
    assert calls == [] and sim.now == 1.0 and not sim.idle
    sim.run(until=2.0)
    assert calls == [2.0] and sim.idle


def test_step_budget_counts_callback_entries():
    """Fast-lane pairs and heap callback entries each use one unit of
    budget, like an ordinary event delivery."""
    sim = Simulator()
    calls = []
    for i in range(3):
        sim._call_soon(lambda i=i: calls.append(("fast", i)))
    for i in range(2):
        sim._call_soon(lambda i=i: calls.append(("heap", i, sim.now)), 1.0)
    assert sim.step(2) == 2
    assert calls == [("fast", 0), ("fast", 1)]
    assert sim.step(2) == 2
    assert calls[2:] == [("fast", 2), ("heap", 0, 1.0)]
    assert sim.step(2) == 1
    assert calls[-1] == ("heap", 1, 1.0) and sim.idle


def _dying_sim():
    """A ticker that never ends, a zero-time churn and a process that
    fails at t=0.6 with nobody waiting on it."""
    sim = Simulator()
    log = []

    def ticker():
        while True:
            yield sim.timeout(0.25)
            log.append(sim.now)

    def churn():
        for _ in range(5):
            yield sim.event().succeed()

    def dying():
        yield sim.timeout(0.6)
        yield sim.timeout(0.0)
        raise RuntimeError("boom")

    sim.process(ticker())
    sim.process(churn())
    sim.process(dying())
    return sim, log


def _drive_run_until_slices(sim):
    horizon = 0.0
    while True:
        horizon += 0.2
        sim.run(until=horizon)


def _drive_steps(slice_events):
    def drive(sim):
        while sim.step(slice_events):
            pass

    return drive


@pytest.mark.parametrize(
    "drive",
    [
        lambda sim: sim.run(until=10.0),
        _drive_run_until_slices,
        _drive_steps(1),
        _drive_steps(4),
    ],
    ids=["run-until", "run-until-slices", "step-1", "step-4"],
)
def test_unwaited_failure_stops_every_driver_alike(drive):
    """Every way of driving the loop raises at the same delivery, leaves
    the clock at the failure (a horizon does not park it) and flushes
    the same op tally."""
    ref, ref_log = _dying_sim()
    with pytest.raises(RuntimeError, match="boom"):
        ref.run()
    sim, log = _dying_sim()
    with pytest.raises(RuntimeError, match="boom"):
        drive(sim)
    assert sim.now == ref.now == 0.6
    assert log == ref_log == [0.25, 0.5]
    assert sim._seq == ref._seq


def test_run_until_slices_recycle_like_run():
    def build():
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield sim.timeout(0.1)
                yield sim.event().succeed()

        sim.process(ticker(50))
        return sim

    twin = build()
    twin.run()
    sim = build()
    horizon = 0.0
    while not sim.idle:
        horizon += 0.35
        sim.run(until=horizon)
    assert sim._seq == twin._seq
    assert len(sim._timeout_pool) == len(twin._timeout_pool) >= 1
    assert len(sim._event_pool) == len(twin._event_pool) >= 1
