"""Self-tests: tiny passes of every workload, the output check, the CLI.

Tiny passes use the ``tiny`` input profile and its pinned references, so
the whole file runs in well under a minute.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import outputs, run
from perfbench.metrics import END_TO_END, PER_LAYER, TABLE3_WORKLOADS
from perfbench.tracing import Tracer
from perfbench.workloads import REGISTRY, make_workload

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args, cwd=ROOT):
    """Run the benchmark of the checkout at ``cwd`` from its root."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declarations_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert tuple(REGISTRY) == run.WORKLOADS
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == {n: (m.unit, m.better) for n, m in END_TO_END.items()}
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == {n: (m.unit, m.better) for n, m in PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_emits_declared_metrics(workload, trace):
    # a seed far past the pinned inputs, as the benchmark's callers pass
    proc = _run(
        "--workload", workload, "--seed", str(2**40 + 1), "--seconds", "0.1",
        "--trace", str(trace), "--profile", "tiny",
    )
    result = _result(proc)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_warm_phase_executes_zero_cells(workload, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        bench = make_workload(workload, "tiny", 0, tmp_path, tracer)
        bench.setup()
        bench.cold()
        cells = len(tracer.cells)
        assert cells > 0
        bench.warm()
        assert len(tracer.cells) == cells
    finally:
        tracer.uninstall()


def test_perturbed_simulated_value_fails_one_operation(tmp_path):
    references = outputs.load_references()
    reference = outputs.expected(references, "tiny", "serving-sweep", 0)
    bench = make_workload("serving-sweep", "tiny", 0, tmp_path)
    bench.setup()
    projections = bench.operations(bench.cold())
    assert outputs.check(reference, [outputs.digests(projections)]) == (
        len(reference),
        [],
    )
    victim = "serve/bg2/1x"
    projections[victim]["latencies_s"][0] += 1e-12
    attempted, failed = outputs.check(reference, [outputs.digests(projections)])
    assert attempted == len(reference) and failed == [victim]


def test_render_that_raises_fails_every_operation():
    reference = {"a": "1", "b": "2"}
    assert outputs.check(reference, [{"a": "1", "b": "2"}, None]) == (2, ["a", "b"])


def test_input_without_reference_fails_loudly(tmp_path, monkeypatch, capsys):
    references = outputs.load_references()
    del references["profiles"]["tiny"]["workloads"]["cache-ablation"]["1"]
    path = tmp_path / "references.json"
    path.write_text(json.dumps(references))
    monkeypatch.setattr(outputs, "REFERENCES", path)
    with pytest.raises(outputs.MissingReference):
        outputs.expected(outputs.load_references(), "tiny", "cache-ablation", 1)
    argv = ["--workload", "cache-ablation", "--seed", "3", "--profile", "tiny"]
    assert run.main(argv) == 3
    out, err = capsys.readouterr()
    assert "no reference digests for cache-ablation input 1" in err
    assert out.strip() == ""


@pytest.mark.parametrize("profile", sorted(outputs.PINNED_INPUTS))
def test_every_input_is_pinned(profile):
    pinned = outputs.load_references()["profiles"][profile]
    count = outputs.PINNED_INPUTS[profile]
    assert pinned["default_input"] == 0 < pinned["held_out_input"] == count - 1
    for workload in run.WORKLOADS:
        assert sorted(map(int, pinned["workloads"][workload])) == list(range(count))


@pytest.mark.parametrize("seed", [0, 31, 32, -1, 12345, 2**63 - 1])
def test_every_seed_selects_a_pinned_input(seed):
    index = outputs.input_of("full", seed)
    assert index == seed % 32 and 0 <= index < outputs.PINNED_INPUTS["full"]
    references = outputs.load_references()
    for workload in run.WORKLOADS:
        assert outputs.expected(references, "full", workload, index)


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        "--workload", "fig14-grid", "--seed", "0", "--seconds", "1", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_child_environment_drops_repro_knobs(monkeypatch):
    for name in ("REPRO_EXECUTOR", "REPRO_GRID_HEARTBEAT_S", "REPRO_BENCH_JOBS"):
        monkeypatch.setenv(name, "1")
    env = run.child_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_benchmark_imports_only_public_names():
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                parts = node.module.split(".")
                assert "perf" not in parts, (path.name, node.module)
                assert not any(p.startswith("_") for p in parts), path.name
                assert not any(a.name.startswith("_") for a in node.names), path.name
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("_PREPARED_MEMO", "BUILD_COUNTER"), path.name


def test_per_layer_groups_cover_table3():
    from repro.workloads import workload_names

    assert tuple(workload_names()) == TABLE3_WORKLOADS
