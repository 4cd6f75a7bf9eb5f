"""Tests for the grid executor layer.

Covers the registry/resolution API, the hardened ``REPRO_*`` env
parsing, the cgroup-aware CPU detection, that a backend is handed only
the cells that missed the result cache, and — the load-bearing
property — that the ``serial`` and ``process`` backends produce
bit-identical payloads.
"""

import hashlib
import json

import pytest

from repro.orchestrate import batched, envcfg
from repro.orchestrate.batched import _cgroup_cpu_quota, available_cpus
from repro.orchestrate.executors import (
    DEFAULT_EXECUTOR,
    GridExecutor,
    ProcessExecutor,
    SerialExecutor,
    executor_by_name,
    executor_names,
    resolve_executor,
)
from repro.orchestrate import CELL_DOC, ResultCache
from repro.orchestrate.grid import GridCell, run_grid

TINY = dict(
    batch_size=8,
    num_batches=1,
    num_hops=2,
    fanout=2,
    hidden_dim=32,
    scaled_nodes=256,
)


def tiny_cells(n=3, seed0=0):
    platforms = ["bg1", "cc", "glist", "bg2"]
    return [
        GridCell(
            platform=platforms[i % len(platforms)],
            workload="ogbn",
            seed=seed0 + i,
            **TINY,
        )
        for i in range(n)
    ]


def _digest(outcome) -> str:
    blob = json.dumps(
        [CELL_DOC.to_payload(r) for r in outcome.results],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestRegistry:
    def test_builtin_names(self):
        assert set(executor_names()) == {"serial", "process"}

    def test_by_name(self):
        assert isinstance(executor_by_name("serial"), SerialExecutor)
        assert isinstance(executor_by_name("process"), ProcessExecutor)
        assert isinstance(executor_by_name(" Process "), ProcessExecutor)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            executor_by_name("carrier-pigeon")

    def test_resolve_default_is_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert DEFAULT_EXECUTOR == "process"
        assert isinstance(resolve_executor(None), ProcessExecutor)

    def test_resolve_string_and_instance(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        instance = SerialExecutor()
        assert resolve_executor(instance) is instance

    def test_resolve_rejects_garbage(self):
        with pytest.raises(TypeError, match="executor must be"):
            resolve_executor(42)

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_invalid_env_warns_once_and_falls_back(self, monkeypatch, capsys):
        envcfg.reset_warnings()
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum")
        assert isinstance(resolve_executor(None), ProcessExecutor)
        assert isinstance(resolve_executor(None), ProcessExecutor)
        err = capsys.readouterr().err
        assert err.count("REPRO_EXECUTOR") == 1
        assert "quantum" in err


class TestBackendIdentity:
    def test_serial_process_bit_identical(self):
        cells = tiny_cells(3)
        serial = run_grid(cells, jobs=1, executor="serial")
        pooled = run_grid(cells, jobs=2, executor="process")
        assert _digest(serial) == _digest(pooled)

    def test_serial_per_cell_matches_batched(self):
        from repro.platforms import run_platform

        cells = tiny_cells(2)
        # Per-cell reference: one-shot run_platform, outside any executor.
        per_cell = [
            run_platform(
                cell.resolved_platform(),
                cell.resolved_workload(),
                ssd_config=cell.resolved_config(),
                **cell.run_params(cell.seed),
            )
            for cell in cells
        ]
        batched_run = run_grid(cells, jobs=1, executor="serial")
        assert [CELL_DOC.to_payload(r) for r in per_cell] == [
            CELL_DOC.to_payload(r) for r in batched_run.results
        ]

    def test_run_grid_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_grid(tiny_cells(1), executor="bogus")

    def test_executor_payload_count_checked(self):
        class Broken(GridExecutor):
            name = "broken"

            def run(self, jobs_args, *, jobs=1):
                return []

        with pytest.raises(RuntimeError, match="returned 0 payloads"):
            run_grid(tiny_cells(1), executor=Broken())


class TestEnvHardening:
    def test_env_float_invalid_warns_once(self, monkeypatch, capsys):
        envcfg.reset_warnings()
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT_S", "soon")
        assert envcfg.env_float("REPRO_GRID_HEARTBEAT_S", 0.0) == 0.0
        assert envcfg.env_float("REPRO_GRID_HEARTBEAT_S", 0.0) == 0.0
        err = capsys.readouterr().err
        assert err.count("REPRO_GRID_HEARTBEAT_S") == 1

    def test_env_float_minimum(self, monkeypatch, capsys):
        envcfg.reset_warnings()
        monkeypatch.setenv("SOME_KNOB", "-3")
        assert envcfg.env_float("SOME_KNOB", 1.5, minimum=0.0) == 1.5
        assert "SOME_KNOB" in capsys.readouterr().err

    def test_env_float_valid_and_unset(self, monkeypatch):
        monkeypatch.setenv("SOME_KNOB", "2.5")
        assert envcfg.env_float("SOME_KNOB", 0.0) == 2.5
        monkeypatch.delenv("SOME_KNOB")
        assert envcfg.env_float("SOME_KNOB", 7.0) == 7.0

    def test_heartbeat_env_invalid_is_silent_default(self, monkeypatch, capsys):
        envcfg.reset_warnings()
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT_S", "never")
        assert batched._env_heartbeat() is None
        assert "REPRO_GRID_HEARTBEAT_S" in capsys.readouterr().err

    def test_heartbeat_env_valid_returns_beat(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT_S", "0.5")
        assert callable(batched._env_heartbeat())


class Recording:
    """A duck-typed backend (no GridExecutor base) that logs its jobs."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def run(self, jobs_args, *, jobs=1):
        self.calls.append([(cell, seed) for cell, seed, _root in jobs_args])
        return SerialExecutor().run(jobs_args, jobs=jobs)


class TestPendingCellsOnly:
    """The result cache is run_grid's business: a backend is handed the
    cells that missed it and nothing else."""

    def test_backend_sees_only_cache_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells(3)
        reference = run_grid(cells, jobs=1, executor="serial")
        run_grid([cells[1]], jobs=1, cache=cache, executor="serial")

        backend = Recording()
        outcome = run_grid(cells, jobs=1, cache=cache, executor=backend)
        assert [[cell for cell, _seed in call] for call in backend.calls] == [
            [cells[0], cells[2]]
        ]
        assert outcome.from_cache == [False, True, False]
        assert _digest(outcome) == _digest(reference)

    def test_fully_cached_grid_never_calls_the_backend(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells(2)
        cold = run_grid(cells, jobs=1, cache=cache, executor="serial")
        backend = Recording()
        warm = run_grid(cells, jobs=1, cache=cache, executor=backend)
        assert backend.calls == []
        assert warm.executed == 0
        assert _digest(warm) == _digest(cold)


class TestAvailableCpus:
    def test_quota_parses_limit(self, tmp_path):
        path = tmp_path / "cpu.max"
        path.write_text("200000 100000\n")
        assert _cgroup_cpu_quota(str(path)) == 2

    def test_quota_rounds_up(self, tmp_path):
        path = tmp_path / "cpu.max"
        path.write_text("150000 100000\n")
        assert _cgroup_cpu_quota(str(path)) == 2

    def test_quota_fractional_is_one(self, tmp_path):
        path = tmp_path / "cpu.max"
        path.write_text("50000 100000\n")
        assert _cgroup_cpu_quota(str(path)) == 1

    def test_quota_unlimited(self, tmp_path):
        path = tmp_path / "cpu.max"
        path.write_text("max 100000\n")
        assert _cgroup_cpu_quota(str(path)) is None

    def test_quota_missing_or_garbage(self, tmp_path):
        assert _cgroup_cpu_quota(str(tmp_path / "absent")) is None
        path = tmp_path / "cpu.max"
        path.write_text("lots\n")
        assert _cgroup_cpu_quota(str(path)) is None
        path.write_text("")
        assert _cgroup_cpu_quota(str(path)) is None

    def test_available_cpus_respects_quota(self, monkeypatch):
        monkeypatch.setattr(batched, "_cgroup_cpu_quota", lambda *a: 1)
        assert available_cpus() == 1

    def test_available_cpus_ignores_absent_quota(self, monkeypatch):
        monkeypatch.setattr(batched, "_cgroup_cpu_quota", lambda *a: None)
        assert available_cpus() >= 1
