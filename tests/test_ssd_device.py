"""Tests for the assembled SSD device runtime and its config presets."""

import pytest

from repro.sim import Simulator
from repro.ssd import (
    DieExecution,
    FirmwareConfig,
    FlashConfig,
    SSDConfig,
    SsdDevice,
    traditional_ssd,
    ull_ssd,
)


def make_device(sim, config=None):
    config = config or ull_ssd()
    return SsdDevice(sim, config, lambda job: DieExecution(0.0, 4096))


class TestConfigPresets:
    def test_ull_vs_traditional_read_latency(self):
        assert ull_ssd().flash.read_latency_s == pytest.approx(3e-6)
        assert traditional_ssd().flash.read_latency_s == pytest.approx(20e-6)

    def test_with_flash_returns_new_config(self):
        base = ull_ssd()
        wide = base.with_flash(num_channels=32)
        assert wide.flash.num_channels == 32
        assert base.flash.num_channels == 16  # original untouched

    def test_with_firmware(self):
        cfg = ull_ssd().with_firmware(num_cores=1)
        assert cfg.firmware.num_cores == 1

    def test_command_issue_cost_translation(self):
        fw = FirmwareConfig()
        assert fw.command_issue_cost(translate=True) > fw.command_issue_cost(
            translate=False
        )

    def test_page_transfer_time(self):
        flash = FlashConfig(channel_bandwidth_bps=800e6, channel_overhead_s=0.2e-6)
        expected = 0.2e-6 + 4096 / 800e6
        assert flash.page_transfer_s == pytest.approx(expected)

    def test_flash_validation(self):
        with pytest.raises(ValueError):
            FlashConfig(num_channels=0)
        with pytest.raises(ValueError):
            FlashConfig(page_size=128)
        with pytest.raises(ValueError):
            FlashConfig(read_latency_s=0)
        with pytest.raises(ValueError):
            FirmwareConfig(num_cores=0)

    def test_int_times_are_stored_as_floats(self):
        """Processes yield these times as waits, and a wait is a float."""
        from repro.ssd import HwRouterConfig
        from repro.ssd.firmware_pipeline import drive_backend

        router = HwRouterConfig(parse_s=0, crossbar_s=1)
        assert type(router.parse_s) is float and router.crossbar_s == 1.0
        assert type(FirmwareConfig(num_cores=2).num_cores) is int
        costs = ("io_poller_s", "ftl_lookup_s", "schedule_s", "completion_s")
        for hardware in (False, True):
            runs = [
                drive_backend(
                    40,
                    flash=FlashConfig(read_latency_s=zero + 3),
                    firmware=FirmwareConfig(**{c: zero for c in costs}),
                    router=HwRouterConfig(parse_s=zero, crossbar_s=zero),
                    use_hardware=hardware,
                )
                for zero in (0, 0.0)
            ]
            assert runs[0] == runs[1]


class TestSsdDevice:
    def test_firmware_work_occupies_one_core(self):
        sim = Simulator()
        device = make_device(sim, ull_ssd().with_firmware(num_cores=2))
        done = []

        def proc(sim, tag):
            yield from device.firmware_work(1e-6)
            done.append((tag, sim.now))

        for tag in ("a", "b", "c"):
            sim.process(proc(sim, tag))
        sim.run()
        # two cores: a and b in parallel, c queues
        assert done[0][1] == pytest.approx(1e-6)
        assert done[1][1] == pytest.approx(1e-6)
        assert done[2][1] == pytest.approx(2e-6)

    def test_firmware_busy_seconds(self):
        sim = Simulator()
        device = make_device(sim)

        def proc(sim):
            yield from device.firmware_work(3e-6)

        sim.process(proc(sim))
        sim.run()
        device.close_trackers()
        assert device.firmware_busy_seconds() == pytest.approx(3e-6)

    def test_host_work_uses_host_threads(self):
        sim = Simulator()
        config = ull_ssd()
        device = make_device(sim, config)
        n = config.host.num_threads + 1
        done = []

        def proc(sim):
            yield from device.host_work(1e-6)
            done.append(sim.now)

        for _ in range(n):
            sim.process(proc(sim))
        sim.run()
        assert done[-1] == pytest.approx(2e-6)  # one request had to wait

    def test_flash_submit_path(self):
        from repro.sim.stats import StageRecord
        from repro.ssd import FlashJob

        sim = Simulator()
        device = make_device(sim)
        job = FlashJob(page_index=0, record=StageRecord(command_id=0, hop=0))
        device.flash.submit(job)
        sim.run()
        assert job.record.transfer_end > 0
        assert device.flash.total_reads == 1

    def test_core_released_on_failure(self):
        """A crashing firmware task must not leak its core."""
        sim = Simulator()
        device = make_device(sim, ull_ssd().with_firmware(num_cores=1))

        def crasher(sim):
            try:
                yield from device.firmware_work(1e-6)
            finally:
                pass

        def wrapper(sim):
            try:
                yield sim.process(crasher(sim))
            except RuntimeError:
                pass

        sim.process(wrapper(sim))
        sim.run()
        assert device.cores.in_use == 0
