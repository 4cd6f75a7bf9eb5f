"""Loopback tests for the remote executor: identity + failure paths.

Every test binds the coordinator on an ephemeral localhost port and
drives real ``repro worker`` subprocesses (spawned through the same
bootstrap helper the CLI uses), so the full wire protocol — handshake,
chunk dispatch, heartbeats, results, requeue — is exercised end to end.
The chaos hooks ``REPRO_WORKER_FAIL_AFTER`` / ``REPRO_WORKER_HANG_S``
inject the two failure modes the retry state machine must survive.
"""

import hashlib
import json
import socket
import time
from collections import deque

import pytest

from repro.orchestrate.cache import ResultCache
from repro.orchestrate.grid import GridCell, run_grid
from repro.orchestrate.remote import (
    DEFAULT_MAX_ATTEMPTS,
    RemoteExecutor,
    launch_ssh_workers,
    parse_address,
    spawn_local_worker,
    ssh_worker_command,
)
from repro.orchestrate.serialize import result_to_payload
from repro.orchestrate.wire import WIRE_SCHEMA_VERSION, recv_msg, send_msg

TINY = dict(
    batch_size=8,
    num_batches=1,
    num_hops=2,
    fanout=2,
    hidden_dim=32,
    scaled_nodes=256,
)


def tiny_cells(n=4, seed0=0):
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


def _terminate(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except Exception:
            proc.kill()


class TestAddressing:
    def test_parse_address(self):
        assert parse_address("10.0.0.5:9000") == ("10.0.0.5", 9000)
        assert parse_address("9000") == ("127.0.0.1", 9000)
        assert parse_address(" host:1 ") == ("host", 1)
        with pytest.raises(ValueError, match="bad address"):
            parse_address("host:")

    def test_ssh_worker_command(self):
        cmd = ssh_worker_command("node7", "head:9465")
        assert cmd[:4] == ["ssh", "-o", "BatchMode=yes", "node7"]
        assert cmd[4:] == [
            "python3", "-m", "repro", "worker", "--coordinator", "head:9465",
        ]
        custom = ssh_worker_command(
            "node8", "head:1", python="/opt/py/bin/python", ssh=("ssh", "-p22")
        )
        assert custom[0:2] == ["ssh", "-p22"]
        assert "/opt/py/bin/python" in custom

    def test_launch_ssh_workers_builds_one_per_host(self, monkeypatch):
        import repro.orchestrate.remote as remote_mod

        launched = []
        monkeypatch.setattr(
            remote_mod.subprocess,
            "Popen",
            lambda cmd, **kw: launched.append(cmd) or object(),
        )
        procs = launch_ssh_workers(["a", "b"], "head:9465")
        assert len(procs) == 2 and len(launched) == 2
        assert all("worker" in cmd for cmd in launched)


class TestRemoteIdentity:
    def test_two_workers_bit_identical_to_serial(self, tmp_path):
        cells = tiny_cells(4)
        serial = run_grid(cells, jobs=1, executor="serial")
        cache = ResultCache(tmp_path / "cache")
        ex = RemoteExecutor(port=0, min_workers=2, spawn_workers=2)
        try:
            remote = run_grid(cells, jobs=2, cache=cache, executor=ex)
            assert _digest(remote) == _digest(serial)
            assert remote.executed == len(cells)
            # Warm re-run on the same pool: the shared store answers
            # everything, zero new simulations.
            warm = run_grid(cells, jobs=2, cache=cache, executor=ex)
            assert warm.executed == 0
            assert warm.cache_hits == len(cells)
            assert _digest(warm) == _digest(serial)
        finally:
            ex.close()

    def test_chunked_dispatch_matches_serial(self, tmp_path):
        cells = tiny_cells(4, seed0=50)
        serial = run_grid(cells, jobs=1, executor="serial")
        ex = RemoteExecutor(port=0, min_workers=1, spawn_workers=1)
        try:
            # One worker: the whole grid travels as a single 4-cell chunk.
            remote = run_grid(cells, jobs=1, executor=ex)
            assert _digest(remote) == _digest(serial)
        finally:
            ex.close()


class TestFailurePaths:
    def test_worker_killed_mid_sweep_requeues(self, tmp_path):
        cells = tiny_cells(4, seed0=100)
        serial = run_grid(cells, jobs=1, executor="serial")
        cache = ResultCache(tmp_path / "cache")
        ex = RemoteExecutor(port=0, min_workers=2, max_attempts=5)
        procs = []
        try:
            ex.bind()
            procs.append(spawn_local_worker(ex.address))
            procs.append(
                spawn_local_worker(
                    ex.address, env={"REPRO_WORKER_FAIL_AFTER": "1"}
                )
            )
            remote = run_grid(cells, jobs=2, cache=cache, executor=ex)
            assert _digest(remote) == _digest(serial)
            # The chaos worker hard-exited on its first chunk, so that
            # chunk must have been dispatched at least twice.
            assert max(ex._attempts) >= 2
        finally:
            ex.close()
            _terminate(procs)

    def test_hung_worker_times_out_and_requeues(self, tmp_path):
        cells = tiny_cells(4, seed0=200)
        serial = run_grid(cells, jobs=1, executor="serial")
        ex = RemoteExecutor(
            port=0, min_workers=2, chunk_timeout_s=3.0, max_attempts=5
        )
        procs = []
        try:
            ex.bind()
            procs.append(
                spawn_local_worker(
                    ex.address, env={"REPRO_WORKER_HEARTBEAT_S": "0.2"}
                )
            )
            procs.append(
                spawn_local_worker(
                    ex.address, env={"REPRO_WORKER_HANG_S": "120"}
                )
            )
            remote = run_grid(cells, jobs=2, executor=ex)
            assert _digest(remote) == _digest(serial)
            assert max(ex._attempts) >= 2
        finally:
            ex.close()
            _terminate(procs)

    def test_zero_workers_is_loud(self):
        ex = RemoteExecutor(port=0, register_timeout_s=0.3)
        try:
            with pytest.raises(RuntimeError, match="no workers connected"):
                run_grid(tiny_cells(1), executor=ex)
        finally:
            ex.close()

    def test_all_workers_lost_is_loud(self):
        # Every worker is a chaos worker: after both die receiving their
        # first chunk, nothing re-registers and the run must fail loudly
        # rather than wait forever.
        ex = RemoteExecutor(
            port=0,
            min_workers=2,
            register_timeout_s=2.0,
            max_attempts=100,
            spawn_workers=2,
            worker_env={"REPRO_WORKER_FAIL_AFTER": "1"},
        )
        try:
            with pytest.raises(RuntimeError, match="all workers lost"):
                run_grid(tiny_cells(4, seed0=300), executor=ex)
        finally:
            ex.close()

    def test_attempts_cap_raises(self):
        ex = RemoteExecutor(port=0, max_attempts=2)
        ex._chunks = [{"jobs": [None, None]}]
        ex._attempts = [2]
        ex._results = {}
        ex._pending = deque()
        ex._last_error = {0: "boom"}
        try:
            with pytest.raises(
                RuntimeError, match="failed after 2 attempts"
            ) as excinfo:
                ex._requeue(0, "worker lost")
            assert "boom" in str(excinfo.value)
        finally:
            ex.close()

    def test_version_mismatch_rejected(self):
        ex = RemoteExecutor(port=0)
        client = None
        try:
            host, port = ex.bind()
            client = socket.create_connection((host, port), timeout=5)
            client.settimeout(5)
            ex._pump(0.2)  # accept
            send_msg(
                client,
                {
                    "type": "hello",
                    "version": "0.0.0-other",
                    "wire_schema": WIRE_SCHEMA_VERSION,
                },
            )
            reply = None
            for _ in range(40):
                ex._pump(0.05)
                try:
                    reply = recv_msg(client)
                    break
                except socket.timeout:
                    continue
            assert reply is not None and reply["type"] == "reject"
            assert "version mismatch" in reply["reason"]
            assert not any(c.registered for c in ex._conns.values())
        finally:
            if client is not None:
                client.close()
            ex.close()

    def test_defaults_come_from_env(self, monkeypatch):
        from repro.orchestrate import envcfg

        envcfg.reset_warnings()
        monkeypatch.setenv("REPRO_CHUNK_ATTEMPTS", "7")
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", "12.5")
        ex = RemoteExecutor(port=0)
        assert ex.max_attempts == 7
        assert ex.chunk_timeout_s == 12.5
        monkeypatch.setenv("REPRO_CHUNK_ATTEMPTS", "zero")
        ex2 = RemoteExecutor(port=0)
        assert ex2.max_attempts == DEFAULT_MAX_ATTEMPTS


class TestWorkerDaemon:
    def test_gives_up_without_coordinator(self):
        from repro.orchestrate.worker import run_worker

        start = time.monotonic()
        code = run_worker(
            "127.0.0.1:1", retry_s=0.05, max_wait_s=0.3, quiet=True
        )
        assert code == 1
        assert time.monotonic() - start < 10
