"""Tests for the command-line interface."""

import json
import logging
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tiny_args():
    # A coarse grid keeps CLI invocations fast in tests.
    return ["--design", "C1", "--grid", "6"]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_and_setup_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["info", "--design", "C1", "--setup", "x.json"]
            )

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_queue == 16
        assert args.rate == 2.0
        assert args.burst == 5
        assert args.drain_timeout == 30.0
        assert not args.no_cache

    def test_serve_rejects_bad_queue(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-queue", "0"])


class TestInfo:
    def test_text_output(self, capsys, tiny_args):
        code, out, _err = _run(capsys, "info", *tiny_args)
        assert code == 0
        assert "devices: 50,000" in out
        assert "block temperatures" in out

    def test_json_output(self, capsys, tiny_args):
        code, out, _err = _run(capsys, "info", *tiny_args, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["design"]["devices"] == 50_000


class TestLifetime:
    def test_single_method(self, capsys, tiny_args):
        code, out, _err = _run(
            capsys, "lifetime", *tiny_args, "--ppm", "10", "--method", "st_fast"
        )
        assert code == 0
        assert "st_fast" in out
        assert "years" in out

    def test_multiple_methods_json(self, capsys, tiny_args):
        code, out, _err = _run(
            capsys,
            "lifetime",
            *tiny_args,
            "--method",
            "st_fast",
            "guard",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["lifetime_hours"]) == {"st_fast", "guard"}
        assert (
            payload["lifetime_hours"]["guard"]
            < payload["lifetime_hours"]["st_fast"]
        )

    def test_mc_method(self, capsys, tiny_args):
        code, out, _err = _run(
            capsys,
            "lifetime",
            *tiny_args,
            "--method",
            "mc",
            "--mc-chips",
            "60",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lifetime_hours"]["mc"] > 0.0


class TestScenario:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "phases": [
                        {
                            "name": "burnin",
                            "duration_hours": 500.0,
                            "temperature_c": 110.0,
                        },
                        {"name": "field"},
                    ],
                    "mechanisms": ["obd", "nbti"],
                }
            )
        )
        return str(path)

    def test_text_output(self, capsys, tiny_args, scenario_file):
        code, out, _err = _run(
            capsys,
            "scenario",
            "run",
            *tiny_args,
            "--scenario",
            scenario_file,
            "--ppm",
            "100",
        )
        assert code == 0
        assert "scenario lifetime:" in out
        assert "mechanism damage shares:" in out
        assert "burnin" in out and "field" in out

    def test_json_matches_service_byte_for_byte(
        self, capsys, tiny_args, scenario_file
    ):
        from repro.payloads import dump_payload
        from repro.service.requests import JobRequest, run_job

        code, out, _err = _run(
            capsys,
            "scenario",
            "run",
            *tiny_args,
            "--scenario",
            scenario_file,
            "--ppm",
            "100",
            "--json",
        )
        assert code == 0
        request = JobRequest.from_dict(
            {
                "kind": "scenario",
                "design": "C1",
                "grid": 6,
                "ppm": 100.0,
                "scenario": json.loads(
                    open(scenario_file).read()  # noqa: SIM115
                ),
            }
        )
        assert out == dump_payload(run_job(request)) + "\n"

    def test_missing_file_reports_error(self, capsys, tiny_args, tmp_path):
        code, _out, err = _run(
            capsys,
            "scenario",
            "run",
            *tiny_args,
            "--scenario",
            str(tmp_path / "absent.json"),
        )
        assert code != 0
        assert "scenario" in err.lower()

    def test_invalid_schedule_reports_error(
        self, capsys, tiny_args, tmp_path
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"phases": []}))
        code, _out, err = _run(
            capsys, "scenario", "run", *tiny_args, "--scenario", str(path)
        )
        assert code != 0
        assert "phase" in err.lower()


class TestCurve:
    def test_curve_points(self, capsys, tiny_args):
        code, out, _err = _run(
            capsys,
            "curve",
            *tiny_args,
            "--t-min",
            "1e5",
            "--t-max",
            "1e6",
            "--points",
            "5",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["times_hours"]) == 5
        rel = payload["reliability"]
        assert all(0.0 <= r <= 1.0 for r in rel)
        assert rel == sorted(rel, reverse=True)


class TestThermal:
    def test_reports_all_blocks(self, capsys, tiny_args):
        code, out, _err = _run(capsys, "thermal", *tiny_args, "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["block_temperatures_c"]) == 8  # C1 blocks
        assert payload["spread_c"] > 0.0


class TestSensitivity:
    def test_tornado_output(self, capsys, tiny_args):
        code, out, _err = _run(
            capsys, "sensitivity", *tiny_args, "--ppm", "10"
        )
        assert code == 0
        assert "vdd" in out

    def test_json_output(self, capsys, tiny_args):
        code, out, _err = _run(
            capsys, "sensitivity", *tiny_args, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["elasticities"]["vdd"] < 0.0


class TestReport:
    def test_one_page_report(self, capsys, tiny_args):
        code, out, _err = _run(capsys, "report", *tiny_args)
        assert code == 0
        assert "failure budget" in out
        assert "lifetimes:" in out


class TestObservability:
    @pytest.fixture(autouse=True)
    def restore_obs_state(self):
        """CLI runs may configure the repro logger; undo afterwards."""
        logger = logging.getLogger("repro")
        saved = (list(logger.handlers), logger.level, logger.propagate)
        yield
        logger.handlers[:] = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]
        obs.disable()
        obs.reset()

    def test_trace_file_written(self, capsys, tmp_path, tiny_args):
        trace = tmp_path / "trace.json"
        code, out, _err = _run(
            capsys,
            "lifetime",
            *tiny_args,
            "--method",
            "st_fast",
            "--trace",
            str(trace),
        )
        assert code == 0
        assert "years" in out  # normal output unaffected
        payload = json.loads(trace.read_text())
        assert set(payload) == {"trace", "metrics", "stages"}
        for stage in ("thermal", "pca", "blod", "st_fast"):
            assert stage in payload["stages"]
            assert payload["stages"][stage]["wall_time_s"] >= 0.0
        counters = payload["metrics"]["counters"]
        assert counters["pca.factors"] > 0
        assert counters["blod.blocks"] == 8  # C1 has 8 blocks
        # Tracing is a per-invocation affair: globally off again.
        assert not obs.is_enabled()

    def test_trace_disabled_by_default(self, capsys, tiny_args):
        code, _out, _err = _run(capsys, "info", *tiny_args)
        assert code == 0
        assert not obs.is_enabled()
        assert obs.trace_snapshot() == []

    def test_log_json_emits_json_lines(self, capsys, tiny_args):
        code, out, err = _run(
            capsys,
            "info",
            *tiny_args,
            "--log-json",
            "--log-level",
            "DEBUG",
        )
        assert code == 0
        assert "devices: 50,000" in out  # stdout stays human-facing
        lines = [ln for ln in err.splitlines() if ln.strip()]
        assert lines, "expected JSON diagnostics on stderr"
        for line in lines:
            record = json.loads(line)
            assert record["logger"].startswith("repro")
            assert "ts" in record

    def test_bad_log_level_reports_error(self, capsys, tiny_args):
        code, _out, err = _run(
            capsys, "info", *tiny_args, "--log-level", "LOUD"
        )
        assert code == 2
        assert "error:" in err

    def test_report_includes_timing_summary(self, capsys, tiny_args):
        code, out, _err = _run(capsys, "report", *tiny_args)
        assert code == 0
        assert "timing:" in out
        assert "analyzer.reliability" in out


class TestTraceShow:
    def _tree(self):
        return {
            "name": "service.job",
            "span_id": "a" * 16,
            "wall_time_s": 0.02,
            "attrs": {"kind": "mc", "trace_id": "t1"},
            "children": [
                {
                    "name": "exec.shard",
                    "wall_time_s": 0.01,
                    "attrs": {"shard": 0},
                    "children": [
                        {"name": "mc.chunk", "wall_time_s": 0.005}
                    ],
                }
            ],
        }

    def test_renders_service_trace_envelope(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"id": "j1", "trace": self._tree()}))
        code, out, _err = _run(capsys, "trace", "show", str(path))
        assert code == 0
        assert "service.job  20.00 ms" in out
        assert "exec.shard  10.00 ms" in out
        assert "[shard=0]" in out

    def test_renders_cli_trace_document(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps({"trace": [self._tree()], "metrics": {}, "stages": {}})
        )
        code, out, _err = _run(capsys, "trace", "show", str(path))
        assert code == 0
        assert "mc.chunk" in out

    def test_depth_and_no_attrs(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(self._tree()))
        code, out, _err = _run(
            capsys, "trace", "show", str(path), "--depth", "1", "--no-attrs"
        )
        assert code == 0
        assert "mc.chunk" not in out
        assert "pruned" in out
        assert "[shard=0]" not in out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(self._tree()))
        code, out, _err = _run(capsys, "trace", "show", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"][0]["name"] == "service.job"

    def test_missing_file_errors(self, capsys, tmp_path):
        code, _out, err = _run(
            capsys, "trace", "show", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "cannot read trace" in err

    def test_unrecognised_document_errors(self, capsys, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"spans": 3}))
        code, _out, err = _run(capsys, "trace", "show", str(path))
        assert code == 2
        assert "unrecognised trace document" in err


class TestBatch:
    def test_sweep_and_cache_hit_on_second_run(self, capsys, tmp_path):
        argv = [
            "batch",
            "--design",
            "C1",
            "--method",
            "st_fast",
            "guard",
            "--grid",
            "6",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
        ]
        code, out, _err = _run(capsys, *argv)
        assert code == 0
        first = json.loads(out)
        assert first["totals"]["cells"] == 2
        assert first["totals"]["cache_hits"] == 0
        code, out, _err = _run(capsys, *argv)
        assert code == 0
        second = json.loads(out)
        assert second["totals"]["cache_hits"] == 2
        for a, b in zip(first["cells"], second["cells"], strict=True):
            assert a["lifetime_hours"] == b["lifetime_hours"]

    def test_table_output(self, capsys, tmp_path):
        code, out, _err = _run(
            capsys,
            "batch",
            "--design",
            "C1",
            "--grid",
            "6",
            "--cache-dir",
            str(tmp_path / "cache"),
        )
        assert code == 0
        assert "st_fast" in out
        assert "1 cells, 0 served from cache" in out

    def test_no_cache_bypasses(self, capsys, tmp_path):
        argv = [
            "batch",
            "--design",
            "C1",
            "--grid",
            "6",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--no-cache",
            "--json",
        ]
        _run(capsys, *argv)
        code, out, _err = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["totals"]["cache_hits"] == 0

    def test_unknown_design_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--design", "Z9"])

    def test_fusion_flag_and_identical_results(self, capsys, tmp_path):
        argv = [
            "batch",
            "--design",
            "C1",
            "--method",
            "st_fast",
            "--temps",
            "40",
            "70",
            "--grid",
            "6",
            "--no-cache",
            "--json",
        ]
        code, out, _err = _run(capsys, *argv)
        assert code == 0
        fused = json.loads(out)
        assert fused["execution"]["fuse"] is True
        assert fused["execution"]["fused_cells"] == 2
        code, out, _err = _run(capsys, *argv, "--no-fuse")
        assert code == 0
        plain = json.loads(out)
        assert plain["execution"]["fuse"] is False
        assert plain["execution"]["fused_cells"] == 0
        for a, b in zip(fused["cells"], plain["cells"], strict=True):
            assert a["lifetime_hours"] == b["lifetime_hours"]

    def test_scenario_sweep_and_cache_hit(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "phases": [
                        {
                            "name": "burnin",
                            "duration_hours": 500.0,
                            "temperature_c": 110.0,
                        },
                        {"name": "field"},
                    ]
                }
            )
        )
        argv = [
            "batch",
            "--design",
            "C1",
            "--method",
            "st_fast",
            "--grid",
            "6",
            "--scenario",
            str(path),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
        ]
        code, out, _err = _run(capsys, *argv)
        assert code == 0
        first = json.loads(out)
        assert first["totals"]["cache_hits"] == 0
        code, out, _err = _run(capsys, *argv)
        assert code == 0
        second = json.loads(out)
        assert second["totals"]["cache_hits"] == second["totals"]["cells"]
        for a, b in zip(first["cells"], second["cells"], strict=True):
            assert a["lifetime_hours"] == b["lifetime_hours"]


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _run(
            capsys,
            "batch",
            "--design",
            "C1",
            "--grid",
            "6",
            "--cache-dir",
            cache_dir,
        )
        code, out, _err = _run(
            capsys, "cache", "stats", "--cache-dir", cache_dir, "--json"
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        code, out, _err = _run(
            capsys, "cache", "clear", "--cache-dir", cache_dir, "--json"
        )
        assert code == 0
        assert json.loads(out)["removed"] == 1
        code, out, _err = _run(
            capsys, "cache", "stats", "--cache-dir", cache_dir, "--json"
        )
        assert json.loads(out)["entries"] == 0

    def test_stats_shared_tier_follows_cache_dir(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, out, _err = _run(
            capsys, "cache", "stats", "--cache-dir", cache_dir, "--json"
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["tiers"]["local"]["root"] == cache_dir
        assert stats["tiers"]["shared"]["root"] == str(
            tmp_path / "cache" / "shared"
        )
        # A fresh CLI process has performed no lookups, so the text
        # output omits the (always-zero) per-process hit-ratio line.
        code, out, _err = _run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "hit ratio" not in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestBenchCommand:
    @pytest.fixture()
    def stub_results(self, monkeypatch):
        # The real harness takes a minute; the command logic is what the
        # CLI tests cover.
        results = {
            "schema": 2,
            "scale": "quick",
            "design": "C2",
            "micro": {
                "conductance_build": {
                    "reference_s": 0.02,
                    "fast_s": 0.001,
                    "speedup": 20.0,
                }
            },
            "factor_cache": {
                "sweep_s": 0.02,
                "profiles": 3,
                "power_loop_iterations": 12,
                "cache_hits": 11,
                "cache_misses": 1,
            },
        }
        import repro.kernels.bench as bench

        monkeypatch.setattr(
            bench, "run_kernel_benchmarks", lambda scale: {**results, "scale": scale}
        )
        return results

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_cli_import_leaves_bench_and_oracles_unloaded(self):
        # The bench harness and the reference oracles are imported by
        # the ``bench`` handler only, never on every CLI start.
        script = (
            "import json, sys\n"
            "import repro.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m in ('repro.kernels.bench', 'repro.kernels.reference'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == []

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "kernels", "--scale", "huge"])

    def test_no_save_prints_report(self, capsys, stub_results):
        code, out, _err = _run(capsys, "bench", "kernels", "--no-save")
        assert code == 0
        assert "conductance_build" in out
        assert "factor cache" in out
        assert "wrote" not in out

    def test_writes_json_report(self, capsys, stub_results, tmp_path):
        target = tmp_path / "bench.json"
        code, out, _err = _run(
            capsys, "bench", "kernels", "--output", str(target)
        )
        assert code == 0
        assert str(target) in out
        payload = json.loads(target.read_text())
        assert payload["schema"] == 2
        assert payload["factor_cache"]["cache_hits"] == 11

    def test_json_output(self, capsys, stub_results, tmp_path):
        code, out, _err = _run(
            capsys,
            "bench",
            "kernels",
            "--scale",
            "full",
            "--output",
            str(tmp_path / "b.json"),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scale"] == "full"


class TestJobs:
    def test_lifetime_reports_execution_backend(self, capsys, tiny_args):
        code, out, _err = _run(
            capsys,
            "lifetime",
            *tiny_args,
            "--method",
            "st_fast",
            "--jobs",
            "2",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["execution"] == {"backend": "process", "jobs": 2}

    def test_default_is_serial(self, capsys, tiny_args, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        code, out, _err = _run(
            capsys,
            "lifetime",
            *tiny_args,
            "--method",
            "st_fast",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["execution"]["backend"] == "serial"

    def test_jobs_matches_serial_result(self, capsys, tiny_args):
        base = [
            "lifetime",
            *tiny_args,
            "--method",
            "mc",
            "--mc-chips",
            "60",
            "--json",
        ]
        _code, serial_out, _err = _run(capsys, *base)
        _code, jobs_out, _err = _run(capsys, *base, "--jobs", "2")
        serial = json.loads(serial_out)["lifetime_hours"]["mc"]
        parallel = json.loads(jobs_out)["lifetime_hours"]["mc"]
        assert serial == parallel

    def test_report_names_backend(self, capsys, tiny_args, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        code, out, _err = _run(capsys, "report", *tiny_args)
        assert code == 0
        assert "execution backend: serial (jobs=1)" in out

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lifetime", "--design", "C1", "--jobs", "0"]
            )


class TestFileInputs:
    def test_flp_input(self, capsys, tmp_path):
        flp = tmp_path / "chip.flp"
        flp.write_text(
            "hot\t1.0e-3\t1.0e-3\t0.0\t0.0\n"
            "cold\t1.0e-3\t1.0e-3\t1.0e-3\t0.0\n"
        )
        ptrace = tmp_path / "chip.ptrace"
        ptrace.write_text("hot\tcold\n1.5\t0.1\n")
        code, out, _err = _run(
            capsys,
            "thermal",
            "--flp",
            str(flp),
            "--ptrace",
            str(ptrace),
            "--grid",
            "4",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (
            payload["block_temperatures_c"]["hot"]
            > payload["block_temperatures_c"]["cold"]
        )

    def test_setup_input(self, capsys, tmp_path, small_floorplan, fast_config):
        from repro.io.design_json import save_setup

        path = tmp_path / "setup.json"
        save_setup(path, small_floorplan, config=fast_config)
        code, out, _err = _run(
            capsys, "info", "--setup", str(path), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["design"]["devices"] == small_floorplan.n_devices

    def test_missing_setup_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _out, err = _run(capsys, "info", "--setup", str(bad))
        assert code == 2
        assert "error:" in err
