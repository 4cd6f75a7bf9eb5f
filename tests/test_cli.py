"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_parses(self):
        args = build_parser().parse_args(
            ["run", "bg2", "amazon", "--nodes", "512", "--batch", "8"]
        )
        assert args.command == "run"
        assert args.platform == "bg2"
        assert args.nodes == 512
        assert args.jobs == 1 and args.cache is True

    def test_orchestration_flags_parse(self):
        args = build_parser().parse_args(
            [
                "compare", "amazon", "--jobs", "4", "--no-cache",
                "--cache-dir", "/tmp/somewhere",
            ]
        )
        assert args.jobs == 4
        assert args.cache is False
        assert args.cache_dir == "/tmp/somewhere"

    def test_cache_subcommand_parses(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert args.command == "cache" and args.action == "stats"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "nonsense"])

    def test_cache_prune_flags_parse(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--keep-days", "7", "--max-mb", "100"]
        )
        assert args.action == "prune"
        assert args.keep_days == 7.0 and args.max_mb == 100.0

    def test_image_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "bg2", "amazon", "--no-image-cache"]
        )
        assert args.image_cache is False
        args = build_parser().parse_args(
            ["compare", "amazon", "--image-cache-dir", "/tmp/imgs"]
        )
        assert args.image_cache is True
        assert args.image_cache_dir == "/tmp/imgs"

    def test_perf_suite_flags_parse(self):
        args = build_parser().parse_args(
            ["perf", "--suite", "prepare", "--prepare-nodes", "512",
             "--prepare-workload", "reddit", "--prepare-impl", "reference"]
        )
        assert args.suite == "prepare"
        assert args.prepare_nodes == 512
        assert args.prepare_workload == "reddit"
        assert args.prepare_impl == "reference"
        assert build_parser().parse_args(["perf"]).suite == "kernel"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "--suite", "nonsense"])

    def test_executor_flags_parse(self):
        for name in ("serial", "process"):
            args = build_parser().parse_args(
                ["compare", "amazon", "--executor", name]
            )
            assert args.executor == name
        assert build_parser().parse_args(["run", "bg2", "ogbn"]).executor is None
        for name in ("telepathy", "remote"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["compare", "amazon", "--executor", name]
                )

    def test_perf_subcommand_parses(self):
        args = build_parser().parse_args(
            ["perf", "--scale", "0.5", "--repeat", "2", "--no-end-to-end",
             "--check", "BENCH_kernel.json", "--max-regress", "0.25"]
        )
        assert args.command == "perf"
        assert args.scale == 0.5 and args.repeat == 2
        assert args.end_to_end is False
        assert args.check == "BENCH_kernel.json"
        assert args.max_regress == 0.25

    def test_serve_parses(self):
        args = build_parser().parse_args(
            [
                "serve", "--platform", "bg2", "--workload", "ogbn",
                "--qps", "100,200", "--queries", "16", "--max-batch", "4",
                "--batch-timeout-us", "250", "--queue-depth", "32",
                "--max-live", "2", "--arrival", "onoff", "--on-ms", "5",
                "--off-ms", "20", "--slo-p99-us", "500",
            ]
        )
        assert args.command == "serve"
        assert args.qps == "100,200"
        assert args.queries == 16
        assert args.max_batch == 4
        assert args.batch_timeout_us == 250.0
        assert args.queue_depth == 32 and args.max_live == 2
        assert args.arrival == "onoff"
        assert args.on_ms == 5.0 and args.off_ms == 20.0
        assert args.slo_p99_us == 500.0
        assert args.jobs == 1 and args.cache is True  # shared infra flags

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.platform == "bg2" and args.workload == "amazon"
        assert args.arrival == "poisson"
        assert args.max_batch == 1 and args.max_live == 1
        assert args.from_cache is False and args.slo_p99_us is None

    def test_serve_arrival_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "nonsense"])

    def test_serve_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--cache-mb", "2.5", "--cache-policy", "clock"]
        )
        assert args.cache_mb == 2.5 and args.cache_policy == "clock"
        assert build_parser().parse_args(["serve"]).cache_mb == 0.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--cache-policy", "belady"])

    def test_cache_ablation_parses(self):
        args = build_parser().parse_args(
            [
                "cache-ablation", "--platform", "bg2", "--workload", "ogbn",
                "--sizes-mb", "0.5,2", "--policies", "lru,clock",
                "--hit-latency-ns", "200",
            ]
        )
        assert args.command == "cache-ablation"
        assert args.sizes_mb == "0.5,2" and args.policies == "lru,clock"
        assert args.hit_latency_ns == 200.0
        defaults = build_parser().parse_args(["cache-ablation"])
        assert defaults.platform == "bg2" and defaults.workload == "amazon"
        assert defaults.sizes_mb == "0.25,1,4"
        assert defaults.from_cache is False

    def test_sweep_knob_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "nonsense"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "bg2" in out and "amazon" in out

    def test_run(self, capsys):
        code = main(
            ["run", "bg2", "ogbn", "--nodes", "512", "--batch", "8", "--batches", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_run_traditional_flag(self, capsys):
        code = main(
            [
                "run", "bg_dgsp", "ogbn", "--nodes", "512", "--batch", "8",
                "--batches", "1", "--traditional",
            ]
        )
        assert code == 0

    def test_inflate(self, capsys):
        assert main(["inflate", "--nodes", "3000"]) == 0
        out = capsys.readouterr().out
        assert "ogbn" in out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep", "cores", "--workload", "ogbn", "--nodes", "512",
                "--batch", "8", "--batches", "1", "--platforms", "bg2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep cores" in out

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError):
            main(["run", "bogus", "amazon", "--nodes", "512"])

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "bg2", "bogus", "--nodes", "512"])


class TestOrchestrationCommands:
    BASE = ["--nodes", "256", "--batch", "8", "--batches", "1"]

    def test_compare_warm_cache_runs_nothing(self, capsys, tmp_path):
        from repro.orchestrate.grid import _PREPARED_MEMO

        _PREPARED_MEMO.clear()  # a memoized image would mask the build count
        argv = ["compare", "ogbn", *self.BASE, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[9 simulated, 0 from cache]" in cold
        # one distinct workload image behind the 9 cells
        assert "[images: 1 built, 0 reused]" in cold
        assert main(argv + ["--jobs", "2"]) == 0
        warm = capsys.readouterr().out
        assert "[0 simulated, 9 from cache]" in warm
        # identical tables, modulo the cache summary line
        assert cold.split("[", 1)[0] == warm.split("[", 1)[0]

    def test_run_without_cache(self, capsys):
        assert main(["run", "bg2", "ogbn", *self.BASE, "--no-cache"]) == 0
        assert "[1 simulated, 0 from cache]" in capsys.readouterr().out

    def test_run_serial_executor_matches_default(self, capsys):
        from repro.orchestrate.grid import _PREPARED_MEMO

        argv = ["run", "bg2", "ogbn", *self.BASE, "--no-cache"]
        # each run builds its image, so both print the same images line
        _PREPARED_MEMO.clear()
        assert main(argv) == 0
        default = capsys.readouterr().out
        _PREPARED_MEMO.clear()
        assert main(argv + ["--executor", "serial"]) == 0
        serial = capsys.readouterr().out
        assert default == serial

    def test_compare_process_pool_matches_serial(self, capsys):
        from repro.orchestrate.grid import _PREPARED_MEMO

        argv = ["compare", "ogbn", *self.BASE, "--no-cache"]
        _PREPARED_MEMO.clear()
        assert main(argv + ["--executor", "process", "--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        assert "[9 simulated, 0 from cache] [images: 1 built, 0 reused]" in pooled
        _PREPARED_MEMO.clear()
        assert main(argv + ["--executor", "serial"]) == 0
        assert capsys.readouterr().out == pooled

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        main(["run", "bg2", "ogbn", *self.BASE, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:   1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_cache_prune_cli(self, capsys, tmp_path):
        main(["run", "bg2", "ogbn", *self.BASE, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        # everything is brand new: age-based prune removes nothing
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path), "--keep-days", "30"]
        ) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        # zero size budget evicts the lot
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path), "--max-mb", "0"]
        ) == 0
        assert "pruned 1 entries" in capsys.readouterr().out

    def test_cache_prune_requires_policy(self, capsys, tmp_path):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--keep-days" in capsys.readouterr().out

    def test_cache_commands_cover_images(self, capsys, tmp_path):
        main(["run", "bg2", "ogbn", *self.BASE, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"image dir: {tmp_path}/images" in out
        assert "images:    1" in out
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path), "--max-mb", "0"]
        ) == 0
        assert "pruned 1 images" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cached images" in capsys.readouterr().out

    def test_no_image_cache_writes_nothing(self, capsys, tmp_path):
        assert main(
            ["run", "bg2", "ogbn", *self.BASE, "--cache-dir", str(tmp_path),
             "--no-image-cache"]
        ) == 0
        assert not (tmp_path / "images").exists()

    def test_serve_cold_then_warm(self, capsys, tmp_path):
        argv = [
            "serve", "--platform", "bg2", "--workload", "ogbn",
            "--nodes", "256", "--qps", "100,100000", "--queries", "4",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[4 simulated, 0 from cache, 0/2 points from cache]" in cold
        assert "knee" in cold
        assert main(argv + ["--from-cache"]) == 0
        warm = capsys.readouterr().out
        assert "[0 simulated, 0 from cache, 2/2 points from cache]" in warm
        # identical tables, modulo the cache summary line
        assert cold.split("[", 1)[0] == warm.split("[", 1)[0]

    def test_serve_with_page_cache(self, capsys, tmp_path):
        base = [
            "serve", "--platform", "bg2", "--workload", "ogbn",
            "--nodes", "256", "--qps", "100", "--queries", "3",
            "--cache-dir", str(tmp_path),
        ]
        assert main(base) == 0
        uncached = capsys.readouterr().out
        assert main(base + ["--cache-mb", "8"]) == 0
        cached = capsys.readouterr().out
        # a different serving configuration: simulated fresh, not a cache hit
        assert "[3 simulated, 0 from cache" in cached
        assert uncached != cached

    def test_cache_ablation_cold_then_warm(self, capsys, tmp_path):
        argv = [
            "cache-ablation", "--platform", "bg2", "--workload", "ogbn",
            "--nodes", "256", "--batch", "8", "--batches", "1",
            "--sizes-mb", "0.25,1", "--policies", "lru,clock",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[5 simulated, 0 from cache]" in cold  # baseline + 2x2 grid
        assert "belady" in cold
        assert main(argv + ["--from-cache"]) == 0
        warm = capsys.readouterr().out
        assert "[0 simulated, 0 from cache, ablation document from cache]" in warm
        # identical tables, modulo the cache summary line
        assert cold.split("[", 1)[0] == warm.split("[", 1)[0]

    def test_cache_ablation_from_cache_miss_fails(self, capsys, tmp_path):
        assert main(
            [
                "cache-ablation", "--workload", "ogbn", "--nodes", "256",
                "--batch", "8", "--batches", "1",
                "--cache-dir", str(tmp_path), "--from-cache",
            ]
        ) == 2

    def test_serve_from_cache_miss_fails(self, capsys, tmp_path):
        assert main(
            [
                "serve", "--workload", "ogbn", "--nodes", "256",
                "--qps", "50", "--queries", "3",
                "--cache-dir", str(tmp_path), "--from-cache",
            ]
        ) == 2
        assert "cache" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["scaleout", "serve", "cache-ablation"])
    def test_from_cache_without_the_cache_is_a_usage_error(
        self, capsys, tmp_path, command
    ):
        with pytest.raises(SystemExit) as exit_:
            main(
                [command, "--workload", "ogbn", "--nodes", "256",
                 "--cache-dir", str(tmp_path), "--no-cache", "--from-cache"]
            )
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--from-cache" in err
        assert list(tmp_path.iterdir()) == []  # nothing simulated or written

    def test_serve_slo_gate(self, capsys, tmp_path):
        argv = [
            "serve", "--platform", "bg2", "--workload", "ogbn",
            "--nodes", "256", "--qps", "100", "--queries", "3",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv + ["--slo-p99-us", "100000"]) == 0
        assert "SLO ok" in capsys.readouterr().out
        assert main(argv + ["--slo-p99-us", "0.001"]) == 1
        assert "SLO VIOLATION" in capsys.readouterr().out

    def test_perf_prepare_suite_smoke(self, capsys, tmp_path):
        out = tmp_path / "bench_prepare.json"
        argv = [
            "perf", "--suite", "prepare", "--prepare-nodes", "64",
            "--repeat", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "prepare_cold" in capsys.readouterr().out
        assert out.exists()
        # gates against its own numbers with a generous margin
        assert main(
            argv[:-2] + ["--check", str(out), "--max-regress", "0.999"]
        ) == 0

    def test_perf_cache_suite_smoke(self, capsys, tmp_path):
        out = tmp_path / "bench_cache.json"
        argv = ["perf", "--suite", "cache", "--repeat", "1", "--out", str(out)]
        assert main(argv) == 0
        report = capsys.readouterr().out
        assert "cache_speedup" in report and "replay_belady" in report
        assert out.exists()
        # gates against its own numbers with a generous margin
        assert main(
            argv[:-2] + ["--check", str(out), "--max-regress", "0.999"]
        ) == 0

    def test_perf_writes_report_and_gates(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        argv = [
            "perf", "--scale", "0.01", "--repeat", "1", "--no-end-to-end",
            "--out", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # a fresh run never regresses >99.9% against its own numbers
        assert main(
            argv[:-2] + ["--check", str(out), "--max-regress", "0.999"]
        ) == 0
        assert "no regression" in capsys.readouterr().out


class TestDispatchFlags:
    def test_jobs_auto_parses(self):
        args = build_parser().parse_args(["run", "bg2", "amazon", "--jobs", "auto"])
        assert args.jobs is None  # None = affinity-aware auto-detect
        args = build_parser().parse_args(["run", "bg2", "amazon", "--jobs", "0"])
        assert args.jobs is None
        args = build_parser().parse_args(["run", "bg2", "amazon", "--jobs", "3"])
        assert args.jobs == 3
        for bad in ("-2", "two"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["run", "bg2", "amazon", "--jobs", bad])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "amazon", "--chunk", "4"],
            ["scaleout", "--chunk", "1"],
            ["perf", "--suite", "grid"],
            ["perf", "--suite", "dispatch"],
            ["perf", "--grid-cells", "8"],
            ["compare", "amazon", "--workers", "spawn:2"],
            ["compare", "amazon", "--coordinator", "0.0.0.0:9465"],
            ["worker", "--coordinator", "head:9465"],
        ],
        ids=["compare-chunk", "scaleout-chunk", "suite-grid", "suite-dispatch",
             "grid-cells", "workers", "coordinator", "worker-subcommand"],
    )
    def test_removed_dispatch_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_run_with_jobs_auto_executes(self, capsys):
        assert (
            main(
                [
                    "run", "bg2", "ogbn", "--nodes", "256", "--batch", "4",
                    "--batches", "1", "--hops", "2", "--fanout", "2",
                    "--jobs", "auto", "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[1 simulated, 0 from cache]" in out
