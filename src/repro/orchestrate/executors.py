"""Grid executor backends behind one ``GridExecutor`` protocol.

:func:`~repro.orchestrate.grid.run_grid` decides *what* to simulate
(pending cells, derived seeds, cache keys); an executor decides *where*
the simulations run. Two backends ship:

* ``serial`` — everything in the calling process through the
  cooperative batched executor (the zero-dispatch floor; also the
  bit-identity reference);
* ``process`` — the default: a local ``ProcessPoolExecutor`` fan-out of
  auto-sized chunks, each run by the same batched executor.

Both consume the same ``(cell, seed, image_cache_root)`` job tuples,
simulate them through :func:`~repro.orchestrate.batched.execute_batch`,
and return payload dicts in job order. Determinism is the protocol's
core contract: per-cell seeds are fixed *before* dispatch, a cell's
simulation depends only on (cell, seed), and payloads are plain JSON
values by construction (:data:`repro.orchestrate.grid.CELL_DOC`), so
pickling them back from a pool worker changes nothing — ``process`` is
bit-identical to ``serial``.

The registry is string-keyed so sweeps and the CLI can select a backend
by name (``executor="serial"`` / ``--executor serial`` /
``REPRO_EXECUTOR=serial``); an invalid environment value warns once and
falls back to the default rather than crashing or silently serializing.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Sequence, Tuple

from .envcfg import env_choice

__all__ = [
    "GridExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "DEFAULT_EXECUTOR",
    "executor_names",
    "executor_by_name",
    "resolve_executor",
]

DEFAULT_EXECUTOR = "process"

Job = Tuple  # (cell, seed, image_cache_root)


class GridExecutor:
    """Protocol for grid backends: jobs in, payload dicts out, in order.

    ``jobs`` is the caller's requested parallelism; backends are free to
    interpret it as a capacity hint, never as anything that may change
    results.
    """

    name = "abstract"

    def run(self, jobs_args: Sequence[Job], *, jobs: int = 1) -> List[Dict]:
        raise NotImplementedError


class SerialExecutor(GridExecutor):
    """Everything in the calling process; the bit-identity reference."""

    name = "serial"

    def run(self, jobs_args: Sequence[Job], *, jobs: int = 1) -> List[Dict]:
        from .batched import execute_batch

        return execute_batch(jobs_args)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessExecutor(GridExecutor):
    """Local ``ProcessPoolExecutor`` fan-out (the default backend).

    Cells ship in :func:`~repro.orchestrate.batched.auto_chunk_size`
    chunks, one pool task each. Effective workers are capped at the CPUs
    this process may use (a worker beyond that only adds fork + pickling
    overhead), and the run degrades to pure in-process batching when a
    pool cannot help.
    """

    name = "process"

    def run(self, jobs_args: Sequence[Job], *, jobs: int = 1) -> List[Dict]:
        from .batched import (
            _execute_chunk,
            auto_chunk_size,
            available_cpus,
            execute_batch,
        )

        jobs_args = list(jobs_args)
        size = auto_chunk_size(len(jobs_args), jobs)
        chunks = [
            jobs_args[i : i + size] for i in range(0, len(jobs_args), size)
        ]
        workers = min(jobs, available_cpus(), len(chunks))
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context()
            ) as pool:
                return [
                    p
                    for batch in pool.map(_execute_chunk, chunks)
                    for p in batch
                ]
        return execute_batch(jobs_args)


_EXECUTORS: Dict[str, Callable[[], GridExecutor]] = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}


def executor_names() -> List[str]:
    return sorted(_EXECUTORS)


def executor_by_name(name: str) -> GridExecutor:
    normalized = name.strip().lower()
    factory = _EXECUTORS.get(normalized)
    if factory is None:
        raise ValueError(
            f"unknown executor {name!r} (one of {', '.join(executor_names())})"
        )
    return factory()


def resolve_executor(executor) -> GridExecutor:
    """Map ``run_grid``'s ``executor=`` argument onto a backend instance.

    ``None`` consults ``REPRO_EXECUTOR`` (invalid values warn once and
    fall back to ``process``); strings look up the registry; anything
    with a ``run`` method is used as-is.
    """
    if executor is None:
        return executor_by_name(
            env_choice("REPRO_EXECUTOR", DEFAULT_EXECUTOR, executor_names())
        )
    if isinstance(executor, str):
        return executor_by_name(executor)
    if hasattr(executor, "run"):
        return executor
    raise TypeError(
        f"executor must be None, a registered name, or a GridExecutor "
        f"(got {type(executor).__name__})"
    )
