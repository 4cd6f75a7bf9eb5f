#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload fig14-grid --seed 0 --seconds 36 --trace 0

Run from the root of a checkout. Each measurement is a fresh child
process with empty result and image caches in a fresh directory under
``.perfbench/tmp``. Every child of a run measures the same input: of
the pinned inputs, number ``--seed`` mod their count (32). Children run
one after another, about ``--seconds`` in all. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
children, reports the per-layer metrics, and writes the spans of each
traced child to ``.perfbench/traces`` as Chrome trace-event JSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit codes: 0
with a result line (``correct`` says whether every output matched its
reference), 2 when the package source is missing, 3 when the seed's
input has no pinned reference, 1 when a child process failed.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import heapq
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench import outputs  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    PRINTED,
    SIMULATED,
    WORKLOADS,
)

# The reference loop's usual time on the 2-vCPU VM the benchmark was
# built on; setup_s is set-up time at that host speed.
NOMINAL_REFERENCE_S = 0.15
RUN_LIMIT_S = 140.0  # start no child expected to end past this, whatever --seconds
CHILD_TIMEOUT_S = 120.0
HARD_LIMIT_S = 170.0  # the run must end well before 180 s


class ChildFailed(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile",
        default="full",
        choices=tuple(outputs.PINNED_INPUTS),
        help="input sizes (tiny is for self-tests)",
    )
    # Internal: the parent re-invokes this file as a child.
    parser.add_argument("--child", choices=("plain", "traced"))
    parser.add_argument("--input", type=int)
    parser.add_argument("--dir", type=Path)
    parser.add_argument("--t0", type=float)
    return parser.parse_args(argv)


# -- child process ---------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """One measurement: set up, cold pass, one warm render, digests."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import make_workload

    tracer = None
    if args.child == "traced":
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = make_workload(args.workload, args.profile, args.input, args.dir, tracer)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    image_mb = workload.image_cache.stats().total_mb
    errors = []

    def render(phase):
        """(output, seconds, digests) of one pass; all None if it raised."""
        try:
            start = time.perf_counter()
            output = phase()
            seconds = time.perf_counter() - start
            return output, seconds, outputs.digests(workload.operations(output))
        except Exception:  # an operation that raises counts as failed
            errors.append(traceback.format_exc())
            return None, None, None

    cold, wall_s, cold_digests = render(workload.cold)
    renders = [cold_digests]
    warm_s = None
    if cold is not None:
        payload_mb = workload.cache.stats().total_mb
        _, warm_s, warm_digests = render(workload.warm)
        renders.append(warm_digests)
        try:
            paused = tracer.paused() if tracer else contextlib.nullcontext()
            with paused:
                workload.measure_extras(cold)
        except Exception:
            errors.append(traceback.format_exc())
            renders.append(None)
    for error in errors:
        print(error, file=sys.stderr)

    report = dict(
        setup_s=setup_s,
        wall_s=wall_s,
        warm_s=warm_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        renders=renders,
        errors=len(errors),
        sim=workload.sim_metrics(cold) if cold is not None else {},
    )
    if tracer is not None and cold is not None:
        from perfbench.tracing import layer_metrics

        tracer.uninstall()
        report["layers"] = layer_metrics(
            tracer, workload.extras, image_mb, payload_mb
        )
        trace_path = (
            WORK / "traces" / f"{args.workload}-i{args.input}-{os.getpid()}.json"
        )
        tracer.write_chrome_trace(trace_path, f"perfbench {args.workload}")
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


# -- parent process --------------------------------------------------------------


def reference_seconds() -> float:
    """Wall time of two fixed pure-Python loops, 0.1-0.2 s on a 2-vCPU VM.

    The shared host's speed drifts by a quarter over minutes, in process
    CPU time as much as in wall time, and most of all for code that waits
    on memory. The loops use only the standard library, so no change to
    the package moves them. Like the simulator, they mix work that stays
    in cache (heap pushes and pops, dict updates on a few thousand keys)
    with scattered reads of a 300,000-entry list that miss it, so they
    slow with the host about as much as the simulator does. The parent
    times them between children, which adds nothing to a child's time
    or memory.
    """
    size = 300_000
    values = [(i * 2654435761) % 1_000_003 for i in range(size)]
    start = time.perf_counter()
    queue, counts = [], {}
    for i in range(100_000):
        heapq.heappush(queue, (i * 7919) % 100_003)
        key = i % 5003
        counts[key] = counts.get(key, 0) + 1
        if len(queue) > 512:
            heapq.heappop(queue)
    index = 0
    for _ in range(150_000):
        index = (index + 7919) % size
        key = values[index] & 0x3FFF
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def child_env() -> dict:
    """The caller's environment without any ``REPRO_*`` knob.

    Executor, heartbeat and benchmark-scale variables would change what
    is measured; the source tree under test comes first on the path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, kind: str, budget_s: float) -> dict:
    scratch = WORK / "tmp" / uuid.uuid4().hex
    scratch.mkdir(parents=True)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", kind,
        "--workload", args.workload,
        "--input", str(args.input),
        "--profile", args.profile,
        "--dir", str(scratch),
    ]
    try:
        start = time.monotonic()
        proc = subprocess.run(
            command + ["--t0", repr(start)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=budget_s,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{kind} child exceeded {budget_s:.0f} s") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{kind} child exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["kind"] = kind
    return report


def measure(args) -> list:
    """Run children one after another for about ``--seconds``.

    Traced runs alternate plain and traced children in pairs, in ABBA
    order, so a drift in host speed during the run does not bias the
    tracing overhead either way. The first child (pair) always runs;
    another starts only while the run's mean child (pair) would still end
    within ``--seconds``. The reference loop runs before the first child
    and after each one; a child's ``ref_s`` is the mean of the two
    around it.
    """
    pair = ("plain", "traced") if args.trace else ("plain",)
    deadline = min(args.seconds, RUN_LIMIT_S)
    start = time.monotonic()
    children = []
    ref_s = reference_seconds()
    for index in itertools.count():
        for kind in pair if index % 2 == 0 else pair[::-1]:
            remaining = HARD_LIMIT_S - (time.monotonic() - start)
            child = run_child(args, kind, min(CHILD_TIMEOUT_S, remaining))
            after = reference_seconds()
            child["ref_s"], ref_s = (ref_s + after) / 2, after
            children.append(child)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / (index + 1) > deadline:
            break
    return children


def summarize(args, reference: dict, children: list) -> dict:
    """Print the report and return the result object."""
    plain = [c for c in children if c["kind"] == "plain"]
    traced = [c for c in children if c["kind"] == "traced"]
    complete = all(c["wall_s"] is not None and c["warm_s"] is not None for c in children)
    attempted = failed = 0
    failed_ops = []
    for c in children:
        n, bad = outputs.check(reference, c["renders"])
        attempted += n
        failed += len(bad)
        failed_ops.extend(op for op in bad if op not in failed_ops)
    correct = complete and failed == 0 and not any(c["errors"] for c in children)

    samples = {
        "wall_ref": [c["wall_s"] / c["ref_s"] for c in plain],
        "setup_s": [c["setup_s"] * NOMINAL_REFERENCE_S / c["ref_s"] for c in plain],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "wall_s": [c["wall_s"] for c in plain],
        "setup_raw_s": [c["setup_s"] for c in plain],
        "warm_s": [c["warm_s"] for c in plain],
    }
    values = {}
    if complete:
        values = {n: statistics.median(v) for n, v in samples.items()}
    layers = {}
    if args.trace and complete:
        # median_low: counts stay observed values
        layers = {
            name: statistics.median_low(c["layers"][name] for c in traced)
            for name in traced[0]["layers"]
        }
        # each traced child against the plain child it ran next to; the
        # reference loop is too short to steady a single pair
        ratios = [t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)]
        layers["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0

    print(
        f"perfbench {args.workload}: seed {args.seed} (input {args.input}), "
        f"profile {args.profile}, "
        f"{len(plain)} untraced + {len(traced)} traced children"
    )
    for name, value in values.items():
        m = {**END_TO_END, **PRINTED}[name]
        print(
            f"  {name:<20} {value:>11.5g} {m.unit:<5} {m.kind:<9} {m.better:<6} "
            f"median of {len(samples[name])} (min {min(samples[name]):.5g})"
        )
    for name, m in SIMULATED.items():
        if plain and name in plain[0]["sim"]:
            print(f"  {name:<20} {plain[0]['sim'][name]:>11.6g} {m.unit} {m.kind} {m.better}")
    for name, value in layers.items():
        m = PER_LAYER[name]
        print(f"  {name:<30} {value:>11.5g} {m.unit:<5} {m.kind}")
    for c in traced:
        print(f"  trace written to {c['trace_file']}")
    print(
        f"operations: {attempted} attempted, {failed} failed"
        + ("" if correct else " -- OUTPUTS DO NOT MATCH THE PINNED REFERENCES")
        + "".join(f"\n  failed: {op}" for op in failed_ops[:8])
    )
    declared, source = (PER_LAYER, layers) if args.trace else (END_TO_END, values)
    metrics = {}
    if complete:
        metrics = {n: {"value": source[n], "unit": m.unit} for n, m in declared.items()}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package source under {ROOT / 'src'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    args.input = outputs.input_of(args.profile, args.seed)
    try:
        reference = outputs.expected(
            outputs.load_references(), args.profile, args.workload, args.input
        )
    except (OSError, outputs.MissingReference) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    # Byte-compile once up front so no child's set-up pays for it.
    for package in (ROOT / "src" / "repro", ROOT / "perfbench"):
        compileall.compile_dir(str(package), quiet=1)
    try:
        children = measure(args)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args, reference, children)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
