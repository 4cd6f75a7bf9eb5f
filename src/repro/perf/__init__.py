"""Kernel performance measurement: opt-in probes and microbenchmarks.

The discrete-event kernel is the ceiling on simulation scale, so this
package gives it a trajectory: :class:`KernelProbe` counts kernel
operations on one ``Simulator`` instance (opt-in — an unprobed simulator
runs the unmodified hot path at zero extra cost), and
:mod:`repro.perf.microbench` is the suite behind ``repro perf`` and the
checked-in ``BENCH_kernel.json``. :mod:`repro.perf.preparebench` covers
the workload-prepare pipeline (``repro perf --suite prepare``,
``BENCH_prepare.json``), :mod:`repro.perf.cachebench` the page-cache
datapath and offline replay engines (``repro perf --suite cache``,
``BENCH_cache.json``), and :mod:`repro.perf.partitionbench` the
partition/layout locality wins (``repro perf --suite partition``,
``BENCH_partition.json``). Grid dispatch is timed end to end by the
repository benchmark (``perfbench/``), not here.
"""

from .probe import KernelCounters, KernelProbe
from .microbench import (
    BENCH_SCHEMA_VERSION,
    MICROBENCHES,
    check_against_baseline,
    format_report,
    load_report,
    merge_before_after,
    run_suite,
    write_report,
)
from .preparebench import PREPARE_IMPLS, run_prepare_suite
from .cachebench import run_cache_suite, synthetic_page_trace
from .partitionbench import run_partition_suite

__all__ = [
    "KernelCounters",
    "KernelProbe",
    "BENCH_SCHEMA_VERSION",
    "MICROBENCHES",
    "PREPARE_IMPLS",
    "run_suite",
    "run_prepare_suite",
    "run_cache_suite",
    "run_partition_suite",
    "synthetic_page_trace",
    "format_report",
    "write_report",
    "load_report",
    "merge_before_after",
    "check_against_baseline",
]
