"""The repro.perf package: probe counters, microbench suite, CI gate."""

import json

import pytest

from repro.perf import (
    MICROBENCHES,
    KernelProbe,
    check_against_baseline,
    format_report,
    load_report,
    merge_before_after,
    run_suite,
    write_report,
)
from repro.sim import Simulator


class TestKernelProbe:
    def test_counts_one_probed_simulator(self):
        sim = Simulator()

        def worker():
            for _ in range(10):
                yield sim.timeout(0.5)
            yield sim.event().succeed("x")

        with KernelProbe(sim) as probe:
            sim.process(worker())
            sim.run()
        c = probe.counters
        assert c.timeouts == 10
        assert c.processes == 1
        assert c.ops > 0
        assert c.wall_seconds > 0
        assert c.ops_per_sec > 0

    def test_detach_restores_raw_kernel(self):
        sim = Simulator()
        probe = KernelProbe(sim).attach()
        probe.detach()
        assert "_deliver" not in sim.__dict__
        assert "run" not in sim.__dict__
        assert "timeout" not in sim.__dict__
        # kernel still fully functional
        sim.timeout(1.0)
        sim.run()
        assert sim.now == 1.0

    def test_double_attach_rejected(self):
        sim = Simulator()
        with KernelProbe(sim) as probe:
            with pytest.raises(RuntimeError):
                probe.attach()

    def test_unprobed_simulator_untouched(self):
        sim = Simulator()
        with KernelProbe(sim):
            other = Simulator()
            assert "_deliver" not in other.__dict__
            assert "run" not in other.__dict__

    def test_recycled_counters(self):
        sim = Simulator()

        def churn(n):
            for _ in range(n):
                yield sim.timeout(0.0)

        with KernelProbe(sim) as probe:
            sim.process(churn(20))
            sim.run()
        # steady-state zero-delay timeouts come from the pool
        assert probe.counters.timeouts == 20
        assert probe.counters.timeouts_recycled > 0

    def test_ops_equals_seq_delta(self):
        sim = Simulator()
        with KernelProbe(sim) as probe:
            sim.process(iter_gen(sim, 5))
            sim.run()
        assert probe.counters.ops == sim._seq

    @pytest.mark.parametrize("driver", ["step", "run_until"])
    def test_times_a_sliced_simulator(self, driver):
        """A simulator driven by step() slices or run(until) horizons is
        timed like one drained by a single run()."""
        twin = Simulator()
        twin.process(iter_gen(twin, 2000))
        twin.run()

        sim = Simulator()
        with KernelProbe(sim) as probe:
            sim.process(iter_gen(sim, 2000))
            if driver == "step":
                while sim.step(256):
                    pass
            else:
                horizon = 0.0
                while not sim.idle:
                    horizon += 50.0
                    sim.run(until=horizon)
            # read before detach, which would refresh seq_end itself
            c = probe.counters
            assert c.ops == twin._seq
        assert c.wall_seconds > 0
        assert c.ops_per_sec > 0


def iter_gen(sim, n):
    for _ in range(n):
        yield sim.timeout(0.25)


class TestMicrobenchSuite:
    def test_workloads_are_deterministic(self):
        for name, build in MICROBENCHES.items():
            a = build(64)
            a.run()
            b = build(64)
            b.run()
            assert a._seq == b._seq > 0, name
            assert a.now == b.now, name

    def test_run_suite_smoke(self):
        report = run_suite(scale=0.01, repeats=1, end_to_end=False)
        assert report["schema"] == 1
        assert set(report["results"]) == set(MICROBENCHES)
        for row in report["results"].values():
            assert row["metric"] == "ops_per_sec"
            assert row["value"] > 0
            assert row["ops"] > 0
        # human-readable table renders every row
        text = format_report(report)
        for name in MICROBENCHES:
            assert name in text

    def test_run_suite_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            run_suite(scale=0)

    def test_report_roundtrip(self, tmp_path):
        report = run_suite(scale=0.01, repeats=1, end_to_end=False)
        path = write_report(report, tmp_path / "bench.json")
        assert load_report(path) == report

    def test_load_report_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "results": {}}))
        with pytest.raises(ValueError):
            load_report(path)


def _raw(results):
    return {"schema": 1, "results": results}


class TestMergeAndGate:
    def test_merge_orients_speedup_upward(self):
        before = _raw(
            {
                "k": {"metric": "ops_per_sec", "value": 100.0, "ops": 1, "seconds": 1},
                "e2e": {"metric": "seconds", "value": 10.0, "ops": 1, "seconds": 10},
            }
        )
        after = _raw(
            {
                "k": {"metric": "ops_per_sec", "value": 250.0, "ops": 1, "seconds": 1},
                "e2e": {"metric": "seconds", "value": 8.0, "ops": 1, "seconds": 8},
            }
        )
        merged = merge_before_after(before, after)
        assert merged["benchmarks"]["k"]["speedup"] == 2.5
        assert merged["benchmarks"]["e2e"]["speedup"] == 1.25

    def test_gate_passes_within_tolerance(self):
        base = _raw({"k": {"metric": "ops_per_sec", "value": 100.0}})
        report = _raw(
            {"k": {"metric": "ops_per_sec", "value": 80.0, "ops": 1, "seconds": 1}}
        )
        assert check_against_baseline(report, base, max_regress=0.30) == []

    def test_gate_fails_beyond_tolerance(self):
        base = _raw({"k": {"metric": "ops_per_sec", "value": 100.0}})
        report = _raw(
            {"k": {"metric": "ops_per_sec", "value": 60.0, "ops": 1, "seconds": 1}}
        )
        failures = check_against_baseline(report, base, max_regress=0.30)
        assert len(failures) == 1 and "k" in failures[0]

    def test_gate_seconds_metric_uses_ceiling(self):
        base = _raw({"e2e": {"metric": "seconds", "value": 10.0}})
        slow = _raw(
            {"e2e": {"metric": "seconds", "value": 20.0, "ops": 1, "seconds": 20}}
        )
        ok = _raw(
            {"e2e": {"metric": "seconds", "value": 12.0, "ops": 1, "seconds": 12}}
        )
        assert check_against_baseline(slow, base) != []
        assert check_against_baseline(ok, base) == []

    def test_gate_accepts_merged_baseline_shape(self):
        merged = {
            "schema": 1,
            "benchmarks": {"k": {"metric": "ops_per_sec", "after": 100.0}},
        }
        report = _raw(
            {"k": {"metric": "ops_per_sec", "value": 95.0, "ops": 1, "seconds": 1}}
        )
        assert check_against_baseline(report, merged) == []

    def test_gate_ignores_unknown_benchmarks(self):
        base = _raw({})
        report = _raw(
            {"new": {"metric": "ops_per_sec", "value": 1.0, "ops": 1, "seconds": 1}}
        )
        assert check_against_baseline(report, base) == []

    def test_gate_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            check_against_baseline(_raw({}), _raw({}), max_regress=1.5)


class TestRatioMetric:
    def test_gate_ratio_uses_floor(self):
        base = _raw({"cache_speedup": {"metric": "ratio", "value": 2.0}})
        ok = _raw(
            {"cache_speedup": {"metric": "ratio", "value": 1.5, "ops": 1, "seconds": 1}}
        )
        bad = _raw(
            {"cache_speedup": {"metric": "ratio", "value": 1.2, "ops": 1, "seconds": 1}}
        )
        assert check_against_baseline(ok, base, max_regress=0.30) == []
        failures = check_against_baseline(bad, base, max_regress=0.30)
        assert len(failures) == 1 and "cache_speedup" in failures[0]

    def test_merge_orients_ratio_upward(self):
        before = _raw(
            {"cache_speedup": {"metric": "ratio", "value": 1.5, "ops": 1, "seconds": 1}}
        )
        after = _raw(
            {"cache_speedup": {"metric": "ratio", "value": 3.0, "ops": 1, "seconds": 1}}
        )
        merged = merge_before_after(before, after)
        assert merged["benchmarks"]["cache_speedup"]["speedup"] == 2.0

    def test_format_report_renders_ratio(self):
        report = _raw(
            {"cache_speedup": {"metric": "ratio", "value": 1.6, "ops": 16, "seconds": 1}}
        )
        assert "1.60x" in format_report(report)

