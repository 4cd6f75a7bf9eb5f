"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``run``      simulate one platform on one workload
``compare``  run all platforms on one workload (mini Figure 14)
``sweep``    sweep one architecture knob (a Figure 18 slice)
``scaleout`` sharded N-SSD array simulation (Section VIII)
``serve``    open-loop serving load sweep: p50/p99 latency vs offered QPS
``cache-ablation`` host page-cache ablation: size x policy hit rates + latency
``inflate``  DirectGraph storage-inflation report (Table IV)
``info``     print the Table II configuration and platform list
``cache``    result/image-cache maintenance (``stats`` / ``clear`` / ``prune``)
``perf``     microbenchmark suites (BENCH_kernel/_prepare/_cache/_partition)

``run``/``compare``/``sweep``/``scaleout`` all go through
:func:`repro.orchestrate.run_grid`:
``--jobs N`` fans the grid across N worker processes, and the
content-addressed result cache (``--cache-dir``, default ``~/.cache/repro``)
makes repeated invocations skip already-simulated cells; ``--no-cache``
opts out. Serialized DirectGraph images are shared through a second
content-addressed cache (``--image-cache-dir``, default
``<cache-dir>/images``; ``--no-image-cache`` opts out), so each distinct
workload is built at most once across grids. ``--executor`` picks the
grid backend (``serial`` in this process, or the ``process`` pool).
Parallel and cached runs are bit-identical to serial cold runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import format_table
from .orchestrate import GridCell, ResultCache, run_grid
from .platforms import (
    PLATFORMS,
    platform_by_name,
)
from .ssd import traditional_ssd, ull_ssd
from .workloads import WORKLOADS, workload_by_name

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BeaconGNN (HPCA 2024) reproduction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one platform on one workload")
    run.add_argument("platform", help=f"one of {sorted(PLATFORMS)}")
    run.add_argument("workload", help=f"one of {sorted(WORKLOADS)}")
    _common_run_args(run)

    compare = sub.add_parser("compare", help="all platforms on one workload")
    compare.add_argument("workload", help=f"one of {sorted(WORKLOADS)}")
    _common_run_args(compare)

    sweep = sub.add_parser("sweep", help="sweep one architecture knob")
    sweep.add_argument(
        "knob",
        choices=["bandwidth", "cores", "channels", "dies", "batch"],
    )
    sweep.add_argument("--workload", default="amazon")
    sweep.add_argument(
        "--platforms", default="bg1,bg_dgsp,bg2", help="comma-separated names"
    )
    _common_run_args(sweep)

    scaleout = sub.add_parser(
        "scaleout", help="sharded N-SSD array simulation (Section VIII)"
    )
    scaleout.add_argument(
        "--devices", default="1,2,4", help="comma-separated array sizes"
    )
    scaleout.add_argument("--platform", default="bg2")
    scaleout.add_argument("--workload", default="amazon")
    scaleout.add_argument(
        "--fraction",
        type=float,
        default=None,
        help="analytic cross-partition fraction "
        "(default: measure remote traffic from the sampling traces)",
    )
    scaleout.add_argument(
        "--partitioner",
        choices=["hash", "greedy-edgecut", "label-prop"],
        default="hash",
        help="graph-to-device ownership policy; non-hash policies route "
        "each array target to its owning device",
    )
    scaleout.add_argument(
        "--from-cache",
        action="store_true",
        help="load cached array results only; fail instead of simulating",
    )
    _common_run_args(scaleout)

    serve = sub.add_parser(
        "serve", help="open-loop serving load sweep (latency vs offered QPS)"
    )
    serve.add_argument("--platform", default="bg2")
    serve.add_argument("--workload", default="amazon")
    serve.add_argument(
        "--qps",
        default="10,20,40,80",
        help="comma-separated offered average rates (queries/s)",
    )
    serve.add_argument(
        "--queries", type=int, default=32, help="queries served per sweep point"
    )
    serve.add_argument(
        "--arrival",
        choices=["poisson", "onoff"],
        default="poisson",
        help="traffic shape (onoff: bursty Markov-modulated)",
    )
    serve.add_argument(
        "--on-ms", type=float, default=20.0, help="onoff: mean burst duration"
    )
    serve.add_argument(
        "--off-ms", type=float, default=80.0, help="onoff: mean silence duration"
    )
    serve.add_argument(
        "--query-batch",
        type=int,
        default=1,
        help="inference targets per query",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=1,
        help="dynamic batching: queries per dispatched batch",
    )
    serve.add_argument(
        "--batch-timeout-us",
        type=float,
        default=0.0,
        help="dispatch a partial batch once its oldest query waited this long",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission control: arrivals beyond this queue length are shed",
    )
    serve.add_argument(
        "--max-live", type=int, default=1, help="concurrent batches in service"
    )
    serve.add_argument("--nodes", type=int, default=2048, help="scaled node count")
    serve.add_argument("--hops", type=int, default=3)
    serve.add_argument("--fanout", type=int, default=3)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--traditional", action="store_true", help="20us-read flash (Sec VII-E)"
    )
    serve.add_argument(
        "--from-cache",
        action="store_true",
        help="load cached serving results only; fail instead of simulating",
    )
    serve.add_argument(
        "--slo-p99-us",
        type=float,
        default=None,
        help="gate: exit 1 unless p99 at the lowest offered rate meets this",
    )
    serve.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help="host page-cache capacity per batch simulation (0 = disabled)",
    )
    serve.add_argument(
        "--cache-policy",
        choices=["lru", "lfu", "clock"],
        default="lru",
        help="page-cache eviction policy (with --cache-mb > 0)",
    )
    _infra_args(serve)

    ablation = sub.add_parser(
        "cache-ablation",
        help="host page-cache ablation: size x policy hit rate + latency",
    )
    ablation.add_argument("--platform", default="bg2")
    ablation.add_argument("--workload", default="amazon")
    ablation.add_argument(
        "--sizes-mb",
        default="0.25,1,4",
        help="comma-separated cache capacities in MB",
    )
    ablation.add_argument(
        "--policies",
        default="lru,lfu,clock",
        help="comma-separated online eviction policies "
        "(Belady's offline optimum is always included)",
    )
    ablation.add_argument(
        "--hit-latency-ns",
        type=float,
        default=350.0,
        help="DRAM-latency charge per cache hit",
    )
    ablation.add_argument(
        "--from-cache",
        action="store_true",
        help="load cached ablation results only; fail instead of simulating",
    )
    _common_run_args(ablation)

    inflate = sub.add_parser("inflate", help="Table IV inflation report")
    inflate.add_argument("--nodes", type=int, default=60_000)

    sub.add_parser("info", help="configuration + platform list")

    cache = sub.add_parser("cache", help="result/image-cache maintenance")
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument("--cache-dir", default=None)
    cache.add_argument(
        "--image-cache-dir",
        default=None,
        help="DirectGraph image cache (default <cache-dir>/images)",
    )
    cache.add_argument(
        "--keep-days",
        type=float,
        default=None,
        help="prune: drop entries older than this many days",
    )
    cache.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="prune: evict oldest entries until each cache fits in this size",
    )

    perf = sub.add_parser("perf", help="microbenchmark suites")
    perf.add_argument(
        "--suite",
        choices=["kernel", "prepare", "cache", "partition", "all"],
        default="kernel",
        help="kernel hot-path ops, workload-prepare pipeline, page-cache "
        "datapath/replay, partition/layout locality, or all of them",
    )
    perf.add_argument(
        "--scale", type=float, default=1.0, help="kernel op-count multiplier"
    )
    perf.add_argument(
        "--repeat", type=int, default=3, help="timing repeats (best-of)"
    )
    perf.add_argument(
        "--prepare-nodes",
        type=int,
        default=4096,
        help="prepare suite: scaled node count (rate is nodes/sec)",
    )
    perf.add_argument(
        "--prepare-workload",
        default="amazon",
        help="prepare suite: workload to prepare",
    )
    perf.add_argument(
        "--prepare-impl",
        choices=["current", "reference"],
        default="current",
        help="prepare suite: vectorized builder or per-node reference",
    )
    perf.add_argument(
        "--out", default=None, help="write the report JSON to this path"
    )
    perf.add_argument(
        "--baseline",
        default=None,
        help="prior raw report: emit the merged before/after document",
    )
    perf.add_argument(
        "--check",
        default=None,
        help="baseline JSON to gate against (exit 1 on regression)",
    )
    perf.add_argument(
        "--max-regress",
        type=float,
        default=0.30,
        help="allowed fractional slowdown for --check (default 0.30)",
    )
    perf.add_argument(
        "--end-to-end",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include the all-platform fig14_small benchmark",
    )
    return parser


def _common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=2048, help="scaled node count")
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--batches", type=int, default=2)
    parser.add_argument("--hops", type=int, default=3)
    parser.add_argument("--fanout", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--layout",
        choices=["node-order", "locality"],
        default="node-order",
        help="DirectGraph page layout (locality = BFS-clustered neighbor "
        "placement)",
    )
    parser.add_argument(
        "--traditional", action="store_true", help="20us-read flash (Sec VII-E)"
    )
    _infra_args(parser)


def _infra_args(parser: argparse.ArgumentParser) -> None:
    """Grid-execution knobs shared by every simulating subcommand."""
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes for the grid; 'auto' (or 0) detects from "
        "CPU affinity",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse / record results in the on-disk cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="cache directory (default ~/.cache/repro)"
    )
    parser.add_argument(
        "--image-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share serialized DirectGraph images across runs",
    )
    parser.add_argument(
        "--image-cache-dir",
        default=None,
        help="image cache directory (default <cache-dir>/images; "
        "requires --cache unless set explicitly)",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "process"],
        default=None,
        help="grid backend (default: process pool, or REPRO_EXECUTOR)",
    )


def _jobs_arg(value: str) -> Optional[int]:
    """``--jobs`` parser: 'auto' or 0 mean affinity-aware auto-detect."""
    text = value.strip().lower()
    if text == "auto":
        return None
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a non-negative integer, got {value!r}"
        )
    jobs = int(text)
    return None if jobs == 0 else jobs


def _config(args) -> object:
    return traditional_ssd() if getattr(args, "traditional", False) else ull_ssd()


def _result_cache(args) -> Optional[ResultCache]:
    if not getattr(args, "cache", False):
        return None
    return ResultCache(args.cache_dir)


def _image_cache(args):
    """Map the CLI flags onto ``run_grid``'s ``image_cache`` parameter."""
    if not getattr(args, "image_cache", True):
        return False
    # None lets run_grid derive <result-cache>/images (off when uncached).
    return getattr(args, "image_cache_dir", None)


def _cell(args, platform: str, workload: str, ssd_config=None, **overrides) -> GridCell:
    params = dict(
        batch_size=args.batch,
        num_batches=args.batches,
        num_hops=args.hops,
        fanout=args.fanout,
        seed=args.seed,
        scaled_nodes=args.nodes,
        layout=getattr(args, "layout", "node-order"),
    )
    params.update(overrides)
    return GridCell(
        platform=platform,
        workload=workload,
        ssd_config=ssd_config if ssd_config is not None else _config(args),
        **params,
    )


def _grid_summary(outcome) -> str:
    summary = f"[{outcome.executed} simulated, {outcome.cache_hits} from cache]"
    if outcome.images_built or outcome.image_hits:
        summary += (
            f" [images: {outcome.images_built} built,"
            f" {outcome.image_hits} reused]"
        )
    return summary


def cmd_run(args) -> int:
    cell = _cell(args, platform_by_name(args.platform).name, args.workload)
    outcome = run_grid(
        [cell],
        jobs=args.jobs,
        cache=_result_cache(args),
        image_cache=_image_cache(args),
        executor=args.executor,
    )
    result = outcome.results[0]
    rows = [
        ("throughput (targets/s)", f"{result.throughput_targets_per_sec:,.0f}"),
        ("mean prep (us)", round(result.mean_prep_seconds * 1e6, 1)),
        ("mean compute (us)", round(result.mean_compute_seconds * 1e6, 1)),
        ("active dies", round(result.mean_active_dies(), 1)),
        ("active channels", round(result.mean_active_channels(), 2)),
        ("hop overlap", round(result.hop_timeline.overlap_fraction(), 2)),
        ("targets/J", f"{result.meters.get('targets_per_joule'):,.0f}"),
        ("avg power (W)", round(result.meters.get("energy_watts"), 1)),
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{args.platform} on {args.workload} ({args.nodes} nodes)",
        )
    )
    print(_grid_summary(outcome))
    return 0


def cmd_compare(args) -> int:
    cells = [_cell(args, name, args.workload) for name in PLATFORMS]
    outcome = run_grid(
        cells,
        jobs=args.jobs,
        cache=_result_cache(args),
        image_cache=_image_cache(args),
        executor=args.executor,
    )
    rows = []
    base = None
    for name, result in zip(PLATFORMS, outcome.results):
        thr = result.throughput_targets_per_sec
        if base is None:
            base = thr
        rows.append(
            (name, f"{thr:,.0f}", round(thr / base, 2),
             round(result.mean_prep_seconds * 1e6, 1))
        )
    print(
        format_table(
            ["platform", "targets/s", "x CC", "prep (us)"],
            rows,
            title=f"all platforms on {args.workload}",
        )
    )
    print(_grid_summary(outcome))
    return 0


def cmd_sweep(args) -> int:
    platforms = [platform_by_name(p).name for p in args.platforms.split(",")]
    base = ull_ssd()
    variants = {
        "bandwidth": [
            (f"{v}MB/s", base.with_flash(channel_bandwidth_bps=v * 1e6), {})
            for v in (333, 800, 1600, 2400)
        ],
        "cores": [
            (f"{v}", base.with_firmware(num_cores=v), {}) for v in (1, 2, 4, 8)
        ],
        "channels": [
            (f"{v}", base.with_flash(num_channels=v), {}) for v in (4, 8, 16, 32)
        ],
        "dies": [
            (f"{v}", base.with_flash(dies_per_channel=v), {})
            for v in (2, 4, 8, 16)
        ],
        "batch": [(f"{v}", None, {"batch_size": v}) for v in (32, 64, 128, 256)],
    }[args.knob]
    cells = [
        _cell(args, platform, args.workload, ssd_config=config, **extra)
        for _label, config, extra in variants
        for platform in platforms
    ]
    outcome = run_grid(
        cells,
        jobs=args.jobs,
        cache=_result_cache(args),
        image_cache=_image_cache(args),
        executor=args.executor,
    )
    results = iter(outcome.results)
    rows = []
    for label, _config, _extra in variants:
        row = [label]
        for _platform in platforms:
            result = next(results)
            row.append(f"{result.throughput_targets_per_sec:,.0f}")
        rows.append(row)
    print(
        format_table(
            [args.knob] + [f"{p} targets/s" for p in platforms],
            rows,
            title=f"sweep {args.knob} on {args.workload}",
        )
    )
    print(_grid_summary(outcome))
    return 0


def cmd_scaleout(args) -> int:
    from .platforms.scaleout import scaleout_outcome

    device_counts = [int(v) for v in args.devices.split(",")]
    spec = workload_by_name(args.workload)
    if spec.num_nodes > args.nodes:
        spec = spec.scaled(args.nodes)
    cache = _result_cache(args)
    image_cache = _image_cache(args)
    outcomes = []
    for devices in device_counts:
        try:
            outcomes.append(
                scaleout_outcome(
                    devices,
                    args.platform,
                    spec,
                    batch_size=args.batch,
                    num_batches=args.batches,
                    num_hops=args.hops,
                    fanout=args.fanout,
                    cross_partition_fraction=args.fraction,
                    ssd_config=_config(args),
                    seed=args.seed,
                    jobs=args.jobs,
                    cache=cache,
                    image_cache=image_cache,
                    require_cached=args.from_cache,
                    partitioner=args.partitioner,
                    layout=args.layout,
                    executor=args.executor,
                )
            )
        except KeyError as err:
            print(err.args[0])
            return 2
    single = outcomes[0].result
    rows = []
    for outcome in outcomes:
        array = outcome.result
        rows.append(
            (
                array.num_devices,
                f"{array.throughput_targets_per_sec:,.0f}",
                round(array.scaling_efficiency(single), 2),
                round(array.p2p_seconds_per_batch * 1e6, 1),
                f"{100 * array.measured_remote_fraction:.1f}%",
            )
        )
    mode = "analytic" if args.fraction is not None else "measured"
    print(
        format_table(
            ["SSDs", "targets/s", "efficiency", "P2P us/batch", "remote"],
            rows,
            title=(
                f"{args.platform} array on {args.workload} "
                f"(batch {args.batch}, {mode} exchange, "
                f"{args.partitioner} partition)"
            ),
        )
    )
    for outcome in outcomes:
        array = outcome.result
        if array.num_devices < 2:
            continue
        off_diag = sum(
            array.link_vectors[i][j]
            for i in range(array.num_devices)
            for j in range(array.num_devices)
            if i != j
        )
        matrix_rows = [
            (f"dev {i}", *row) for i, row in enumerate(array.link_vectors)
        ]
        print(
            format_table(
                ["from\\to"]
                + [f"dev {j}" for j in range(array.num_devices)],
                matrix_rows,
                title=(
                    f"P2P exchange matrix, {array.num_devices} SSDs "
                    f"(vectors owner->requester; cross-partition "
                    f"{off_diag} vectors, "
                    f"{100 * array.measured_remote_fraction:.1f}% of samples)"
                ),
            )
        )
    executed = sum(o.shards_executed for o in outcomes)
    shard_hits = sum(o.shard_cache_hits for o in outcomes)
    array_hits = sum(1 for o in outcomes if o.from_cache)
    summary = (
        f"[{executed} simulated, {shard_hits} from cache, "
        f"{array_hits}/{len(outcomes)} arrays from cache]"
    )
    images_built = sum(o.images_built for o in outcomes)
    image_hits = sum(o.image_hits for o in outcomes)
    if images_built or image_hits:
        summary += f" [images: {images_built} built, {image_hits} reused]"
    print(summary)
    return 0


def cmd_serve(args) -> int:
    from .cache import CacheConfig
    from .serving import sweep_serving

    qps_grid = [float(v) for v in args.qps.split(",")]
    spec = workload_by_name(args.workload)
    if spec.num_nodes > args.nodes:
        spec = spec.scaled(args.nodes)
    try:
        sweep = sweep_serving(
            platform_by_name(args.platform).name,
            spec,
            qps_grid,
            executor=args.executor,
            arrival_kind=args.arrival,
            on_s=args.on_ms / 1e3,
            off_s=args.off_ms / 1e3,
            num_queries=args.queries,
            query_batch_size=args.query_batch,
            max_batch=args.max_batch,
            batch_timeout_s=args.batch_timeout_us / 1e6,
            queue_depth=args.queue_depth,
            max_live=args.max_live,
            num_hops=args.hops,
            fanout=args.fanout,
            ssd_config=_config(args),
            seed=args.seed,
            jobs=args.jobs,
            cache=_result_cache(args),
            image_cache=_image_cache(args),
            require_cached=args.from_cache,
            page_cache=(
                CacheConfig(
                    capacity_mb=args.cache_mb, policy=args.cache_policy
                )
                if args.cache_mb > 0
                else None
            ),
        )
    except KeyError as err:
        print(err.args[0])
        return 2
    rows = []
    for row in sweep.rows():
        rows.append(
            (
                f"{row['offered_qps']:,.1f}",
                f"{row['achieved_qps']:,.1f}",
                round(row["p50_s"] * 1e3, 3),
                round(row["p99_s"] * 1e3, 3),
                round(row["mean_batch"], 2),
                int(row["shed"]),
            )
        )
    print(
        format_table(
            ["offered QPS", "achieved QPS", "p50 ms", "p99 ms", "batch", "shed"],
            rows,
            title=(
                f"{args.platform} serving {args.workload} "
                f"({args.arrival} arrivals, {args.queries} queries/point)"
            ),
        )
    )
    knee = sweep.knee_qps
    print(
        f"knee: {knee:,.1f} QPS sustained"
        if knee is not None
        else "knee: below the lowest offered rate (overloaded everywhere)"
    )
    summary = (
        f"[{sweep.cells_executed} simulated, {sweep.cell_cache_hits} from cache, "
        f"{sweep.points_from_cache}/{len(sweep.outcomes)} points from cache]"
    )
    images_built = sum(o.images_built for o in sweep.outcomes)
    image_hits = sum(o.image_hits for o in sweep.outcomes)
    if images_built or image_hits:
        summary += f" [images: {images_built} built, {image_hits} reused]"
    print(summary)
    if args.slo_p99_us is not None:
        low = min(sweep.outcomes, key=lambda o: o.result.offered_qps).result
        p99_us = low.p99_s * 1e6
        if p99_us > args.slo_p99_us:
            print(
                f"SLO VIOLATION: p99 {p99_us:,.1f} us at "
                f"{low.offered_qps:,.1f} QPS exceeds {args.slo_p99_us:,.1f} us"
            )
            return 1
        print(
            f"SLO ok: p99 {p99_us:,.1f} us at {low.offered_qps:,.1f} QPS "
            f"within {args.slo_p99_us:,.1f} us"
        )
    return 0


def cmd_cache_ablation(args) -> int:
    from .cache import sweep_cache

    try:
        outcome = sweep_cache(
            platform_by_name(args.platform).name,
            args.workload,
            capacities_mb=[float(v) for v in args.sizes_mb.split(",")],
            policies=[p.strip() for p in args.policies.split(",")],
            hit_latency_s=args.hit_latency_ns / 1e9,
            batch_size=args.batch,
            num_batches=args.batches,
            num_hops=args.hops,
            fanout=args.fanout,
            ssd_config=_config(args),
            seed=args.seed,
            scaled_nodes=args.nodes,
            jobs=args.jobs,
            cache=_result_cache(args),
            image_cache=_image_cache(args),
            require_cached=args.from_cache,
            executor=args.executor,
        )
    except KeyError as err:
        print(err.args[0])
        return 2
    sweep = outcome.sweep
    rows = [
        (
            point.policy,
            f"{point.capacity_mb:g}",
            f"{100 * point.hit_rate:.1f}%",
            f"{100 * point.replay_hit_rate:.1f}%",
            f"{100 * sweep.belady_hit_rate(point.capacity_mb):.1f}%",
            round(point.total_seconds * 1e6, 1),
            round(sweep.speedup(point), 2),
        )
        for point in sweep.points
    ]
    print(
        format_table(
            ["policy", "MB", "hit", "replay", "belady", "run us", "speedup"],
            rows,
            title=(
                f"{args.platform} page-cache ablation on {args.workload} "
                f"(uncached {sweep.baseline_seconds * 1e6:,.1f} us, "
                f"{sweep.trace_accesses} accesses over "
                f"{sweep.unique_pages} pages)"
            ),
        )
    )
    summary = (
        f"[{outcome.cells_executed} simulated, "
        f"{outcome.cell_cache_hits} from cache"
        + (", ablation document from cache]" if outcome.from_cache else "]")
    )
    if outcome.images_built or outcome.image_hits:
        summary += (
            f" [images: {outcome.images_built} built,"
            f" {outcome.image_hits} reused]"
        )
    print(summary)
    return 0


def cmd_cache(args) -> int:
    from pathlib import Path

    from .directgraph import ImageCache

    cache = ResultCache(args.cache_dir)
    images = ImageCache(args.image_cache_dir or Path(cache.root) / "images")
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        removed_images = images.clear()
        print(f"removed {removed_images} cached images from {images.root}")
    elif args.action == "prune":
        if args.keep_days is None and args.max_mb is None:
            print("cache prune needs --keep-days and/or --max-mb")
            return 2
        removed = cache.prune(keep_days=args.keep_days, max_mb=args.max_mb)
        stats = cache.stats()
        print(
            f"pruned {removed} entries from {cache.root} "
            f"({stats.entries} left, {stats.total_mb:.2f} MB)"
        )
        removed_images = images.prune(keep_days=args.keep_days, max_mb=args.max_mb)
        istats = images.stats()
        print(
            f"pruned {removed_images} images from {images.root} "
            f"({istats.entries} left, {istats.total_mb:.2f} MB)"
        )
    else:
        stats = cache.stats()
        istats = images.stats()
        print(f"cache dir: {cache.root}")
        print(f"entries:   {stats.entries}")
        print(f"size:      {stats.total_mb:.2f} MB")
        print(f"image dir: {images.root}")
        print(f"images:    {istats.entries} ({istats.total_mb:.2f} MB)")
    return 0


def cmd_perf(args) -> int:
    from .perf import (
        check_against_baseline,
        format_report,
        load_report,
        merge_before_after,
        run_cache_suite,
        run_partition_suite,
        run_prepare_suite,
        run_suite,
        write_report,
    )

    reports = []
    if args.suite in ("kernel", "all"):
        reports.append(
            run_suite(
                scale=args.scale, repeats=args.repeat, end_to_end=args.end_to_end
            )
        )
    if args.suite in ("prepare", "all"):
        reports.append(
            run_prepare_suite(
                nodes=args.prepare_nodes,
                workload=args.prepare_workload,
                repeats=args.repeat,
                impl=args.prepare_impl,
            )
        )
    if args.suite in ("cache", "all"):
        reports.append(run_cache_suite(repeats=args.repeat))
    if args.suite in ("partition", "all"):
        reports.append(run_partition_suite(repeats=args.repeat))
    report = reports[0]
    if len(reports) > 1:
        report = {
            "schema": report["schema"],
            "results": {
                name: row for r in reports for name, row in r["results"].items()
            },
        }
    print(format_report(report))
    out_doc = report
    if args.baseline:
        out_doc = merge_before_after(load_report(args.baseline), report)
        for name, row in out_doc["benchmarks"].items():
            if "speedup" in row:
                print(f"  {name:14s} speedup {row['speedup']:.2f}x")
    if args.out:
        path = write_report(out_doc, args.out)
        print(f"wrote {path}")
    if args.check:
        failures = check_against_baseline(
            report, load_report(args.check), max_regress=args.max_regress
        )
        if failures:
            for line in failures:
                print(f"REGRESSION {line}")
            return 1
        print(f"no regression vs {args.check} (max {args.max_regress:.0%})")
    return 0


def cmd_inflate(args) -> int:
    from .directgraph import AddressCodec, FormatSpec, build_directgraph

    rows = []
    for name, spec in WORKLOADS.items():
        graph = spec.scaled(args.nodes).build_graph()
        fmt = FormatSpec(
            page_size=4096,
            feature_dim=spec.feature_dim,
            codec=AddressCodec.for_geometry(1 << 40, 4096),
        )
        image = build_directgraph(graph, None, fmt, serialize=False)
        raw = graph.num_nodes * spec.feature_bytes + graph.num_edges * 4
        rows.append(
            (
                name,
                round(spec.raw_size_gb, 1),
                round(100 * image.stats.inflation_vs_raw(raw), 1),
            )
        )
    print(
        format_table(
            ["workload", "raw GB (full scale)", "inflation %"],
            rows,
            title=f"Table IV: DirectGraph inflation ({args.nodes}-node sample)",
        )
    )
    return 0


def cmd_info(args) -> int:
    cfg = ull_ssd()
    print("Table II configuration:")
    print(f"  flash: {cfg.flash.num_channels} channels x "
          f"{cfg.flash.dies_per_channel} dies, {cfg.flash.page_size} B pages, "
          f"{cfg.flash.read_latency_s * 1e6:.0f} us reads, "
          f"{cfg.flash.channel_bandwidth_bps / 1e6:.0f} MB/s channels")
    print(f"  controller: {cfg.firmware.num_cores} cores, "
          f"DRAM {cfg.dram.bandwidth_bps / 1e9:.1f} GB/s, "
          f"PCIe {cfg.pcie.bandwidth_bps / 1e9:.1f} GB/s")
    print("\nplatforms:")
    for name, platform in PLATFORMS.items():
        print(f"  {name:10s} {platform.description}")
    print("\nworkloads:")
    for name, spec in WORKLOADS.items():
        print(f"  {name:10s} degree {spec.avg_degree:6.0f}, "
              f"feature dim {spec.feature_dim:4d}, "
              f"raw {spec.raw_size_gb:6.1f} GB")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "from_cache", False) and not args.cache:
        parser.error("--from-cache reads the result cache; drop --no-cache")
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "scaleout": cmd_scaleout,
        "serve": cmd_serve,
        "cache-ablation": cmd_cache_ablation,
        "inflate": cmd_inflate,
        "info": cmd_info,
        "cache": cmd_cache,
        "perf": cmd_perf,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
