"""Tests for the pluggable grid executor layer.

Covers the registry/resolution API, the hardened ``REPRO_*`` env
parsing, the cgroup-aware CPU detection, the wire codec, and — the
load-bearing property — that the ``serial`` and ``process`` backends
produce bit-identical payloads (the ``remote`` backend's identity is
covered in ``test_remote_worker.py``).
"""

import hashlib
import json
import socket

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
from repro.orchestrate.grid import GridCell, run_grid
from repro.orchestrate.serialize import result_to_payload
from repro.orchestrate.wire import (
    WIRE_SCHEMA_VERSION,
    FrameDecoder,
    decode_job,
    decode_value,
    encode_frame,
    encode_job,
    encode_value,
    recv_msg,
    send_msg,
)
from repro.ssd import ull_ssd

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
        [result_to_payload(r) for r in outcome.results],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestRegistry:
    def test_builtin_names(self):
        assert {"serial", "process", "remote"} <= set(executor_names())

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

    def test_context_manager_closes(self):
        closed = []

        class Probe(GridExecutor):
            def run(self, jobs_args, *, jobs=1, cache=None):
                return []

            def close(self):
                closed.append(True)

        with Probe() as ex:
            assert ex.run([]) == []
        assert closed == [True]


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
        assert [result_to_payload(r) for r in per_cell] == [
            result_to_payload(r) for r in batched_run.results
        ]

    def test_run_grid_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_grid(tiny_cells(1), executor="bogus")

    def test_executor_payload_count_checked(self):
        class Broken(GridExecutor):
            name = "broken"

            def run(self, jobs_args, *, jobs=1, cache=None):
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

    def test_env_int_invalid_falls_back(self, monkeypatch, capsys):
        envcfg.reset_warnings()
        monkeypatch.setenv("SOME_COUNT", "many")
        assert envcfg.env_int("SOME_COUNT", 3, minimum=1) == 3
        monkeypatch.setenv("SOME_COUNT", "0")
        assert envcfg.env_int("SOME_COUNT", 3, minimum=1) == 3
        assert capsys.readouterr().err.count("SOME_COUNT") == 2

    def test_heartbeat_env_invalid_is_silent_default(self, monkeypatch, capsys):
        envcfg.reset_warnings()
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT_S", "never")
        assert batched._env_heartbeat() is None
        assert "REPRO_GRID_HEARTBEAT_S" in capsys.readouterr().err

    def test_heartbeat_env_valid_returns_beat(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_HEARTBEAT_S", "0.5")
        assert callable(batched._env_heartbeat())


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


class TestWireCodec:
    def cell(self):
        return GridCell(
            platform="bg2",
            workload="ogbn",
            seed=7,
            ssd_config=ull_ssd(),
            targets=((1, 2, 3), (4, 5)),
            **TINY,
        )

    def test_job_round_trip(self):
        job = (self.cell(), 12345, "/tmp/images")
        wire_doc = json.loads(json.dumps(encode_job(job)))
        cell, seed, root = decode_job(wire_doc)
        assert cell == job[0]
        assert seed == 12345 and root == "/tmp/images"

    def test_round_trip_preserves_cache_key(self):
        from repro.orchestrate.grid import cell_cache_key

        job = (self.cell(), 9, None)
        decoded = decode_job(json.loads(json.dumps(encode_job(job))))
        assert cell_cache_key(decoded[0], 9) == cell_cache_key(job[0], 9)

    def test_unregistered_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass
        class Rogue:
            x: int = 1

        with pytest.raises(TypeError, match="not registered"):
            encode_value(Rogue())
        with pytest.raises(ValueError, match="unknown wire dataclass"):
            decode_value({"__dc__": "Rogue", "fields": {"x": 1}})

    def test_decoder_reassembles_split_frames(self):
        frames = encode_frame({"a": 1}) + encode_frame({"b": [1, 2]})
        decoder = FrameDecoder()
        messages = []
        for i in range(len(frames)):
            messages.extend(decoder.feed(frames[i : i + 1]))
        assert messages == [{"a": 1}, {"b": [1, 2]}]

    def test_decoder_rejects_oversized_frame(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(ConnectionError, match="oversized"):
            decoder.feed(struct.pack(">I", 1 << 31))

    def test_socket_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "hello", "schema": WIRE_SCHEMA_VERSION})
            assert recv_msg(b) == {
                "type": "hello",
                "schema": WIRE_SCHEMA_VERSION,
            }
            a.close()
            assert recv_msg(b) is None
        finally:
            b.close()
