"""The one cell executor: cells run one at a time, payloads stream out.

This is the only code that simulates a grid cell: every executor
backend runs its cells through :func:`execute_batch`, in process or in
its pool workers, so a batch shares one interpreter and one warm
``_PREPARED_MEMO``. Each cell runs to completion and is dropped before
the next starts, and its payload is yielded at once: the caller stores
it while later cells run, and one device model is alive at a time.

Delivery-order guarantee: each kernel is driven only through ``step``,
which delivers in exactly the order one ``run()`` call would (see
:mod:`repro.sim.kernel`), and the simulations share no state, so the
payloads produced here — :data:`~repro.orchestrate.grid.CELL_DOC`
envelopes in the stored column form (:meth:`CachedDocument.to_stored
<repro.cacheutil.CachedDocument.to_stored>`), plain JSON values whose
record arrays are hex text — hold bit for bit the results of one-shot
:func:`~repro.platforms.runner.run_platform` calls. A cell that fails
ends the batch with one ``RuntimeError`` that names it.

:func:`run_grid` ships batches of cells to pool workers through
:func:`_execute_chunk`; :func:`auto_chunk_size` and
:func:`available_cpus` size those batches from the cell count and the
CPUs this process may actually use (``sched_getaffinity`` intersected
with the cgroup v2 CPU quota, not ``cpu_count``, so CPU-limited
containers don't oversubscribe).
"""

from __future__ import annotations

import math
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..platforms.runner import PlatformRun
from .envcfg import env_float
from .grid import CELL_DOC, _prepared_for, cell_cache_key

__all__ = ["execute_batch", "available_cpus", "auto_chunk_size"]

# Events per ``step`` slice: large enough that slice bookkeeping
# vanishes against kernel work, small enough that heartbeats stay
# responsive for cells of any size.
_SLICE_EVENTS = 50_000


_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cgroup_cpu_quota(path: str = _CGROUP_CPU_MAX) -> Optional[int]:
    """Effective CPU count from the cgroup v2 quota, or None.

    ``cpu.max`` holds ``"<quota> <period>"`` in microseconds, or
    ``"max"`` for unlimited. A container pinned to e.g. ``200000 100000``
    may be *scheduled* on every host CPU (affinity says 64) yet only ever
    receives 2 CPUs of time — sizing a pool off affinity there
    oversubscribes 32x. Returns ``ceil(quota / period)``; None when
    unlimited, absent (cgroup v1 / non-Linux), or unparseable.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parts = handle.read().split()
        if not parts or parts[0] == "max":
            return None
        quota = int(parts[0])
        period = int(parts[1]) if len(parts) > 1 else 100_000
        if quota <= 0 or period <= 0:
            return None
        return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        return None


def available_cpus() -> int:
    """CPUs this process may actually use — affinity- and quota-aware.

    ``os.sched_getaffinity`` reflects CPU *placement* limits that
    ``os.cpu_count`` ignores (falling back to the latter where affinity
    is unsupported, e.g. macOS), but a cgroup v2 CPU *bandwidth* quota
    caps throughput without touching affinity, so take the minimum of
    both. Never returns less than 1.
    """
    try:
        cpus = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus)


def auto_chunk_size(n_cells: int, jobs: int) -> int:
    """Cells per worker task.

    One process: a single chunk (pure in-process batching, no pool at
    all). Parallel: ~4 chunks per worker, so a straggler chunk idles a
    worker for at most ~1/4 of its share while dispatch overhead is
    still amortized over ``chunk`` cells per task.
    """
    if n_cells <= 0:
        return 1
    if jobs <= 1:
        return n_cells
    return max(1, math.ceil(n_cells / (jobs * 4)))


def _start_run(job: Tuple) -> PlatformRun:
    """Launch one cell's simulation over the shared prepared-image memo."""
    cell, seed, image_cache_root = job
    config = cell.resolved_config()
    prepared = _prepared_for(
        cell.resolved_workload(),
        config.flash.page_size,
        image_cache_root,
        cell.layout,
    )
    return PlatformRun(
        cell.resolved_platform(),
        prepared,
        ssd_config=config,
        **cell.run_params(seed),
    )


def _cell_failed(job: Tuple, exc: Exception) -> RuntimeError:
    """The error that names the cell of ``job``, then the original one.

    It travels as its message alone, so it names the cell on the far
    side of a pool's pickle too.
    """
    cell, seed, _root = job
    return RuntimeError(
        f"grid cell {cell.resolved_platform().name}/"
        f"{cell.resolved_workload().name} seed {seed} "
        f"(key {cell_cache_key(cell, seed)}) failed: "
        f"{type(exc).__name__}: {exc}"
    )


def execute_batch(
    jobs: Sequence[Tuple],
    *,
    heartbeat: Optional[Callable[[Dict], None]] = None,
) -> Iterator[Dict]:
    """Simulate cells one after another; yield each payload in job order.

    ``jobs`` are the ``(cell, seed, image_cache_root)`` tuples every
    executor backend consumes. A cell is stepped until a slice comes
    back short (its kernel drained), then finalized — which raises
    ``RuntimeError`` if its pipeline stalled — and dropped before its
    payload (``CELL_DOC.to_stored``, the column form) is yielded and the
    next cell starts. Any failure of a cell is raised as one
    ``RuntimeError``, chained to the original, whose message names the
    cell's platform, workload, seed and cache key before the original
    type and message. ``heartbeat`` (if set) is called after every slice
    with ``{"completed", "total", "events"}``; the beat for a cell's
    last slice follows its finalize.
    """
    total = len(jobs)
    events = 0

    def beat(completed: int) -> None:
        if heartbeat is not None:
            heartbeat({"completed": completed, "total": total, "events": events})

    for completed, job in enumerate(jobs):
        try:
            run = _start_run(job)
            while True:
                n = run.step(_SLICE_EVENTS)
                events += n
                if n < _SLICE_EVENTS:
                    break
                beat(completed)
            payload = CELL_DOC.to_stored(run.finalize())
        except Exception as exc:
            raise _cell_failed(job, exc) from exc
        # Free this cell's device before the caller resumes us and the
        # next cell allocates its own.
        del run
        beat(completed + 1)
        yield payload


def _env_heartbeat() -> Optional[Callable[[Dict], None]]:
    """Periodic stderr progress line, gated by ``REPRO_GRID_HEARTBEAT_S``.

    Workers run far from the orchestrating terminal; setting the env var
    to a positive number of seconds makes each one report its progress
    at that cadence (``0``/unset: silent, the default). Invalid values
    warn once and fall back to silent rather than crashing the worker.
    """
    interval = env_float("REPRO_GRID_HEARTBEAT_S", 0.0, minimum=0.0)
    if interval <= 0:
        return None
    last = [time.monotonic()]

    def beat(progress: Dict) -> None:
        now = time.monotonic()
        if now - last[0] >= interval:
            last[0] = now
            print(
                f"[repro.grid pid={os.getpid()}] "
                f"{progress['completed']}/{progress['total']} cells done, "
                f"{progress['events']} events",
                file=sys.stderr,
                flush=True,
            )

    return beat


def _execute_chunk(chunk_jobs: Sequence[Tuple]) -> List[Dict]:
    """Worker entry point: one pool task simulates a whole chunk."""
    return list(execute_batch(chunk_jobs, heartbeat=_env_heartbeat()))
