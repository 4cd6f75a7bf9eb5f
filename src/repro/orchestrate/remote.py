"""Socket-backed remote grid execution: coordinator + worker pool.

The ``remote`` backend spreads a grid across ``repro worker`` daemons —
on this machine, or on a fleet reached by SSH — with the same
bit-identity contract as every other executor:

* the coordinator (this module) listens on a TCP port; workers dial in,
  register with a version handshake, and *pull* chunks of cells;
* each chunk travels as one length-prefixed JSON frame (see
  :mod:`repro.orchestrate.wire`); the worker runs it through the same
  :func:`~repro.orchestrate.batched.execute_batch` path used locally and
  streams progress heartbeats while simulating;
* per-cell seeds are fixed before dispatch, so *which* worker runs a
  cell is irrelevant — results are bit-identical to ``serial``;
* the content-addressed result cache is the shared store: chunk
  messages carry the cache root and per-cell keys, so a worker that can
  see the cache (shared filesystem, or simply the same machine) skips
  cells another worker already simulated — a re-dispatched chunk on a
  warm pool costs zero simulations.

Failure handling is a small retry state machine per chunk::

    PENDING --dispatch--> IN-FLIGHT --result--> DONE
       ^                     |
       |   worker EOF / socket error / heartbeat deadline
       +---------------------+   (attempts += 1; attempts >= max_attempts
                                  raises RuntimeError naming the chunk)

A worker loss only ever re-queues the chunks that worker held; chunks
finished earlier are already recorded. When *no* worker is registered
for ``register_timeout_s`` (at start, or after losing the last one),
the run fails loudly instead of waiting forever.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from .. import __version__
from .envcfg import env_float, env_int
from .executors import GridExecutor
from .wire import WIRE_SCHEMA_VERSION, FrameDecoder, encode_frame, encode_job

__all__ = [
    "RemoteExecutor",
    "DEFAULT_PORT",
    "DEFAULT_CHUNK_TIMEOUT_S",
    "DEFAULT_REGISTER_TIMEOUT_S",
    "DEFAULT_MAX_ATTEMPTS",
    "parse_address",
    "ssh_worker_command",
    "launch_ssh_workers",
]

# Coordinator defaults; every one of them has an env override so daemons
# and sweeps started in different shells still agree.
DEFAULT_PORT = 9465
DEFAULT_CHUNK_TIMEOUT_S = 300.0
DEFAULT_REGISTER_TIMEOUT_S = 30.0
DEFAULT_MAX_ATTEMPTS = 3

_SEND_TIMEOUT_S = 30.0
# Select granularity: how quickly deadlines and new registrations are
# noticed, independent of traffic.
_TICK_S = 0.25


def parse_address(value: str) -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"port"``) -> ``(host, port)``."""
    text = value.strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
    else:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad address {value!r} (expected host:port)")
    return host or "127.0.0.1", port


def _log(message: str) -> None:
    print(f"[repro.remote] {message}", file=sys.stderr, flush=True)


class _Conn:
    """Coordinator-side state for one worker connection."""

    __slots__ = (
        "sock", "decoder", "worker_id", "registered", "chunk_id", "deadline",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.worker_id: Optional[int] = None
        self.registered = False
        self.chunk_id: Optional[int] = None  # in-flight chunk, if any
        self.deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.registered and self.chunk_id is None


class RemoteExecutor(GridExecutor):
    """Grid executor that coordinates a pool of ``repro worker`` daemons.

    The executor owns the listening socket (bound lazily, reused across
    ``run`` calls so a warm re-run reconnects the same pool) and,
    optionally, ``spawn_workers`` local worker subprocesses — handy for
    tests, benchmarks, and single-machine oversubscription. External
    daemons are started separately (``repro worker``, possibly via
    :func:`launch_ssh_workers`) and simply dial the same port.

    ``min_workers`` is the registration barrier: dispatch waits (up to
    ``register_timeout_s``) for that many workers. Zero registered
    workers is always a loud error; fewer than requested proceeds with a
    warning, so one lost machine degrades a fleet instead of idling it.
    """

    name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        *,
        min_workers: int = 1,
        spawn_workers: int = 0,
        register_timeout_s: Optional[float] = None,
        chunk_timeout_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        worker_env: Optional[Dict[str, str]] = None,
    ) -> None:
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be >= 0")
        self.host = host
        self.port = (
            port
            if port is not None
            else env_int("REPRO_COORDINATOR_PORT", DEFAULT_PORT, minimum=0)
        )
        self.min_workers = min_workers
        self.spawn_workers = spawn_workers
        self.register_timeout_s = (
            register_timeout_s
            if register_timeout_s is not None
            else env_float(
                "REPRO_REGISTER_TIMEOUT_S",
                DEFAULT_REGISTER_TIMEOUT_S,
                minimum=0.0,
            )
        )
        self.chunk_timeout_s = (
            chunk_timeout_s
            if chunk_timeout_s is not None
            else env_float(
                "REPRO_CHUNK_TIMEOUT_S", DEFAULT_CHUNK_TIMEOUT_S, minimum=0.1
            )
        )
        self.max_attempts = (
            max_attempts
            if max_attempts is not None
            else env_int("REPRO_CHUNK_ATTEMPTS", DEFAULT_MAX_ATTEMPTS, minimum=1)
        )
        self.worker_env = dict(worker_env or {})
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._conns: Dict[socket.socket, _Conn] = {}
        self._spawned: List[subprocess.Popen] = []
        self._next_worker_id = 0
        # retry state for the run in progress
        self._chunks: List[Dict] = []
        self._pending: deque = deque()
        self._results: Dict[int, List[Dict]] = {}
        self._attempts: List[int] = []
        self._last_error: Dict[int, str] = {}

    # -- lifecycle -----------------------------------------------------------

    def bind(self) -> Tuple[str, int]:
        """Bind the coordinator port (idempotent); returns the address.

        ``port=0`` picks an ephemeral port — callers that start their own
        workers read the real port from the return value.
        """
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(64)
            listener.setblocking(False)
            self.port = listener.getsockname()[1]
            self._listener = listener
            self._selector = selectors.DefaultSelector()
            self._selector.register(listener, selectors.EVENT_READ)
        return self.host, self.port

    @property
    def address(self) -> str:
        host, port = self.bind()
        return f"{host}:{port}"

    def _ensure_spawned(self) -> None:
        """Launch (or relaunch) the local worker subprocesses."""
        self._spawned = [p for p in self._spawned if p.poll() is None]
        while len(self._spawned) < self.spawn_workers:
            self._spawned.append(
                spawn_local_worker(self.address, env=self.worker_env)
            )

    def close(self) -> None:
        """Drop every connection, the port, and any spawned workers."""
        for conn in list(self._conns.values()):
            self._drop(conn, requeue=False)
        if self._listener is not None:
            if self._selector is not None:
                self._selector.unregister(self._listener)
            self._listener.close()
            self._listener = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        for proc in self._spawned:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._spawned:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        self._spawned = []

    # -- GridExecutor --------------------------------------------------------

    def run(
        self,
        jobs_args: Sequence,
        *,
        jobs: int = 1,
        cache=None,
    ) -> List[Dict]:
        from .batched import auto_chunk_size
        from .grid import cell_cache_key

        jobs_args = list(jobs_args)
        if not jobs_args:
            return []
        self.bind()
        self._ensure_spawned()

        # Chunk sizing targets the pool, not local CPUs: parallelism is
        # however many workers register, with min/spawn as the planning
        # hint when the caller left jobs at 1.
        fanout = max(jobs, self.min_workers, self.spawn_workers, 1)
        size = auto_chunk_size(len(jobs_args), fanout)
        cache_root = str(cache.root) if cache is not None else None
        chunks: List[Dict] = []
        for start in range(0, len(jobs_args), size):
            part = jobs_args[start : start + size]
            message = {
                "type": "chunk",
                "schema": WIRE_SCHEMA_VERSION,
                "chunk_id": len(chunks),
                "jobs": [encode_job(job) for job in part],
            }
            if cache_root is not None:
                message["cache_root"] = cache_root
                message["keys"] = [
                    cell_cache_key(cell, seed) for cell, seed, _root in part
                ]
            chunks.append(message)

        per_chunk = self._run_chunks(chunks)
        payloads: List[Dict] = []
        for chunk_payloads in per_chunk:
            payloads.extend(chunk_payloads)
        return payloads

    # -- coordinator event loop ----------------------------------------------

    def _run_chunks(self, chunks: List[Dict]) -> List[List[Dict]]:
        self._chunks = chunks
        self._pending = deque(range(len(chunks)))
        self._results = {}
        self._attempts = [0] * len(chunks)
        self._last_error = {}
        self._await_registration()
        no_worker_since: Optional[float] = None
        while len(self._results) < len(chunks):
            self._dispatch()
            if not any(c.registered for c in self._conns.values()):
                now = time.monotonic()
                if no_worker_since is None:
                    no_worker_since = now
                elif now - no_worker_since > self.register_timeout_s:
                    done = len(self._results)
                    raise RuntimeError(
                        f"remote grid stalled: all workers lost with "
                        f"{len(chunks) - done} of {len(chunks)} chunks "
                        f"incomplete and none re-registered within "
                        f"{self.register_timeout_s:.1f}s"
                    )
            else:
                no_worker_since = None
            self._pump(_TICK_S)
            self._check_deadlines()
        return [self._results[i] for i in range(len(chunks))]

    def _await_registration(self) -> None:
        deadline = time.monotonic() + self.register_timeout_s
        warned = False
        while True:
            registered = sum(1 for c in self._conns.values() if c.registered)
            if registered >= self.min_workers:
                return
            now = time.monotonic()
            if now >= deadline:
                if registered == 0:
                    raise RuntimeError(
                        f"no workers connected to {self.address} within "
                        f"{self.register_timeout_s:.1f}s — start some with "
                        f"`repro worker --coordinator {self.address}`"
                    )
                if not warned:
                    _log(
                        f"proceeding with {registered}/{self.min_workers} "
                        f"workers (registration timeout)"
                    )
                    warned = True
                return
            self._pump(min(_TICK_S, deadline - now))

    def _pump(self, timeout: float) -> None:
        """One selector pass: accept registrations, absorb messages."""
        assert self._selector is not None
        for key, _events in self._selector.select(timeout=max(0.0, timeout)):
            if key.fileobj is self._listener:
                self._accept()
            else:
                # A connection dropped earlier in this pass may still have
                # a queued event; it is gone from the table by then.
                conn = self._conns.get(key.fileobj)
                if conn is not None:
                    self._read(conn)

    def _accept(self) -> None:
        assert self._listener is not None and self._selector is not None
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(True)
        sock.settimeout(_SEND_TIMEOUT_S)
        conn = _Conn(sock)
        self._conns[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ)

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 20)
        except OSError as err:
            self._drop(conn, requeue=True, reason=f"socket error: {err}")
            return
        if not data:
            self._drop(conn, requeue=True, reason="disconnected")
            return
        try:
            messages = conn.decoder.feed(data)
        except (ConnectionError, ValueError) as err:
            self._drop(conn, requeue=True, reason=f"bad frame: {err}")
            return
        for message in messages:
            self._handle(conn, message)

    def _handle(self, conn: _Conn, message: Dict) -> None:
        kind = message.get("type")
        if kind == "hello":
            self._register(conn, message)
        elif kind == "heartbeat":
            if conn.chunk_id is not None:
                conn.deadline = time.monotonic() + self.chunk_timeout_s
        elif kind == "result":
            self._record_result(conn, message)
        elif kind == "error":
            chunk_id = conn.chunk_id
            detail = message.get("error", "worker reported an error")
            if chunk_id is not None:
                self._last_error[chunk_id] = detail
                conn.chunk_id = None
                conn.deadline = None
                self._requeue(chunk_id, f"worker error: {detail}")
        # unknown message types are ignored (forward compatibility)

    def _register(self, conn: _Conn, hello: Dict) -> None:
        version = hello.get("version")
        schema = hello.get("wire_schema")
        if version != __version__ or schema != WIRE_SCHEMA_VERSION:
            self._send(
                conn,
                {
                    "type": "reject",
                    "reason": (
                        f"version mismatch: coordinator {__version__}/"
                        f"wire {WIRE_SCHEMA_VERSION}, worker {version}/"
                        f"wire {schema} — bit identity is not guaranteed "
                        f"across versions"
                    ),
                },
            )
            self._drop(conn, requeue=False)
            return
        conn.registered = True
        conn.worker_id = self._next_worker_id
        self._next_worker_id += 1
        if not self._send(
            conn, {"type": "welcome", "worker_id": conn.worker_id}
        ):
            return
        _log(
            f"worker {conn.worker_id} registered "
            f"(pid {hello.get('pid')}, host {hello.get('host')})"
        )

    def _record_result(self, conn: _Conn, message: Dict) -> None:
        chunk_id = message.get("chunk_id")
        if chunk_id != conn.chunk_id or chunk_id is None:
            return  # stale result from a chunk that was re-dispatched
        payloads = message.get("payloads")
        expected = len(self._chunks[chunk_id]["jobs"])
        if not isinstance(payloads, list) or len(payloads) != expected:
            conn.chunk_id = None
            conn.deadline = None
            self._requeue(
                chunk_id,
                f"malformed result ({len(payloads or [])}/{expected} payloads)",
            )
            return
        self._results[chunk_id] = payloads
        conn.chunk_id = None
        conn.deadline = None

    def _dispatch(self) -> None:
        for conn in list(self._conns.values()):
            if not self._pending:
                return
            if not conn.idle:
                continue
            chunk_id = self._pending.popleft()
            self._attempts[chunk_id] += 1
            conn.chunk_id = chunk_id
            conn.deadline = time.monotonic() + self.chunk_timeout_s
            if not self._send(conn, self._chunks[chunk_id]):
                continue  # _send already dropped + requeued

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for conn in list(self._conns.values()):
            if (
                conn.chunk_id is not None
                and conn.deadline is not None
                and now > conn.deadline
            ):
                self._drop(
                    conn,
                    requeue=True,
                    reason=(
                        f"no heartbeat for {self.chunk_timeout_s:.1f}s "
                        f"on chunk {conn.chunk_id}"
                    ),
                )

    def _send(self, conn: _Conn, message: Dict) -> bool:
        try:
            conn.sock.sendall(encode_frame(message))
            return True
        except OSError as err:
            self._drop(conn, requeue=True, reason=f"send failed: {err}")
            return False

    def _drop(
        self, conn: _Conn, *, requeue: bool, reason: str = ""
    ) -> None:
        if self._selector is not None and conn.sock in self._conns:
            try:
                self._selector.unregister(conn.sock)
            except KeyError:
                pass
        self._conns.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:
            pass
        chunk_id = conn.chunk_id
        conn.chunk_id = None
        if conn.registered and reason:
            _log(f"worker {conn.worker_id} lost ({reason})")
        if requeue and chunk_id is not None and chunk_id not in self._results:
            self._requeue(chunk_id, reason or "worker lost")

    def _requeue(self, chunk_id: int, reason: str) -> None:
        if self._attempts[chunk_id] >= self.max_attempts:
            detail = self._last_error.get(chunk_id)
            raise RuntimeError(
                f"chunk {chunk_id} failed after "
                f"{self._attempts[chunk_id]} attempts (last: {reason})"
                + (f"\nworker error:\n{detail}" if detail else "")
            )
        _log(f"requeueing chunk {chunk_id} ({reason})")
        self._pending.appendleft(chunk_id)


# -- worker bootstrap helpers ------------------------------------------------


def spawn_local_worker(
    coordinator: str,
    *,
    env: Optional[Dict[str, str]] = None,
    retry_s: float = 0.2,
) -> subprocess.Popen:
    """Start one ``repro worker`` subprocess on this machine."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--coordinator",
            coordinator,
            "--retry-s",
            str(retry_s),
        ],
        stdout=subprocess.DEVNULL,
        env={**os.environ, **(env or {})},
    )


def ssh_worker_command(
    host: str,
    coordinator: str,
    *,
    python: str = "python3",
    ssh: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
) -> List[str]:
    """The SSH command line that bootstraps one worker on ``host``.

    The worker dials back to ``coordinator`` (``host:port`` as seen from
    the remote machine), so the only remote-side requirement is a
    ``python`` with this package importable.
    """
    return [
        *ssh,
        host,
        python,
        "-m",
        "repro",
        "worker",
        "--coordinator",
        coordinator,
    ]


def launch_ssh_workers(
    hosts: Sequence[str],
    coordinator: str,
    *,
    python: str = "python3",
    ssh: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
) -> List[subprocess.Popen]:
    """Bootstrap one worker per host over SSH; returns the processes.

    Lifetimes are tied to the SSH sessions: terminate the returned
    processes (or let :meth:`RemoteExecutor.close` outlive them) to tear
    the fleet down.
    """
    return [
        subprocess.Popen(
            ssh_worker_command(host, coordinator, python=python, ssh=ssh),
            stdout=subprocess.DEVNULL,
        )
        for host in hosts
    ]
