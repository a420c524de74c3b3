"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from tests.serving.oracle import reference_loop


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("platforms", "networks"):
            args = parser.parse_args([command])
            assert args.command == command


class TestInformational:
    def test_platforms_lists_table_ii(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("K20c", "TitanX", "GTX970m", "TX1"):
            assert name in out

    def test_networks_lists_all(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        for name in ("alexnet", "googlenet", "vggnet", "resnet18", "pcnn-small"):
            assert name in out

    def test_describe(self, capsys):
        assert main(["describe", "--network", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "conv5" in out and "fc8" in out


class TestCompile:
    def test_compile_prints_schedule(self, capsys):
        code = main(
            ["compile", "--network", "alexnet", "--gpu", "tx1", "--batch", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optSM" in out and "conv1" in out

    def test_compile_with_requirement(self, capsys):
        code = main(
            ["compile", "--network", "alexnet", "--gpu", "k20c",
             "--task", "interactive", "--rate", "50"]
        )
        assert code == 0
        assert "batch" in capsys.readouterr().out

    def test_compile_saves_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "artifact.json")
        code = main(
            ["compile", "--network", "alexnet", "--gpu", "tx1",
             "--batch", "1", "--save", path]
        )
        assert code == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["network"] == "AlexNet"

    def test_unknown_gpu_is_a_clean_error(self, capsys):
        code = main(["compile", "--network", "alexnet", "--gpu", "voodoo"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_network_is_a_clean_error(self, capsys):
        code = main(["compile", "--network", "lenet", "--gpu", "tx1"])
        assert code == 2


class TestTune:
    def test_tune_prints_path(self, capsys):
        code = main(
            ["tune", "--network", "alexnet", "--gpu", "tx1",
             "--slack", "0.3", "--iterations", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "dense" in out


class TestRoofline:
    def test_roofline_classifies_layers(self, capsys):
        code = main(
            ["roofline", "--network", "alexnet", "--gpu", "tx1",
             "--batch", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ridge" in out
        # batch-1 classifiers stream weights: memory-bound
        assert "memory" in out


class TestEvaluate:
    def test_single_gpu_matrix(self, capsys):
        code = main(["evaluate", "--gpus", "k20c"])
        assert code == 0
        out = capsys.readouterr().out
        for task in ("age-detection", "video-surveillance", "image-tagging"):
            assert task in out
        assert "p-cnn" in out and "ideal" in out


class TestCompare:
    def test_compare_runs_all_schedulers(self, capsys):
        code = main(
            ["compare", "--network", "alexnet", "--gpu", "tx1",
             "--task", "background", "--rate", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("performance-preferred", "qpe+", "p-cnn", "ideal"):
            assert name in out


class TestObservabilityExports:
    def _serve(self, tmp_path, extra):
        trace_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "trace.chrome.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["serve-fleet", "--gpus", "tx1", "--requests", "60",
             "--trace", str(trace_path),
             "--chrome-trace", str(chrome_path),
             "--metrics-out", str(metrics_path)] + extra
        )
        assert code == 0
        return trace_path, chrome_path, metrics_path

    def test_serve_fleet_writes_all_exports(self, tmp_path, capsys):
        trace_path, chrome_path, metrics_path = self._serve(tmp_path, [])
        spans = json.loads(trace_path.read_text())
        assert spans and any(s["name"] == "run" for s in spans)
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        assert any(k.startswith("requests_") for k in metrics)

    def test_serve_fleet_json_stdout_stays_parseable(self, tmp_path, capsys):
        self._serve(tmp_path, ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "obs" in payload
        assert payload["obs"]["n_spans"] > 0

    def test_serve_fleet_exports_are_deterministic(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = self._serve(tmp_path / "a", [])
        second = self._serve(tmp_path / "b", [])
        for a, b in zip(first, second):
            assert a.read_text() == b.read_text()

    def test_trace_subcommand(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        code = main(
            ["trace", "age-detection", "--gpus", "tx1", "--requests", "60",
             "--prometheus-out", str(prom_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute_batch" in out
        assert "trace fingerprint" in out
        text = prom_path.read_text()
        assert "# TYPE" in text and text.endswith("\n")

    def test_trace_with_chaos(self, capsys):
        code = main(
            ["trace", "video-surveillance", "--gpus", "tx1",
             "--requests", "60", "--chaos"]
        )
        assert code == 0
        assert "fault_episode" in capsys.readouterr().out

class TestServeFleetSharded:
    def test_sharded_json_payload(self, capsys):
        code = main(
            ["serve-fleet", "--gpus", "tx1", "--requests", "30",
             "--shards", "2", "--shard-inline", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sharding = payload["sharding"]
        assert sharding["n_shards"] == 2
        assert len(sharding["seeds"]) == 2
        assert sharding["rehomed"] == 0
        assert sharding["dead_shards"] == []
        # Each shard gets its own interactive tenant at the full
        # request count (plus a background tenant's traffic).
        assert payload["summary"]["offered"] >= 2 * 30
        summary = payload["summary"]
        assert summary["completed"] + summary["rejected"] == summary["offered"]

    def test_sharded_human_output_lists_shards(self, capsys):
        code = main(
            ["serve-fleet", "--gpus", "tx1", "--requests", "30",
             "--shards", "2", "--shard-inline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s0" in out and "s1" in out


class TestServeFleetSupervised:
    _BASE = ["serve-fleet", "--gpus", "tx1", "--requests", "30",
             "--shard-inline", "--seed", "9"]

    def test_proc_chaos_json_reports_failures_and_statuses(self, capsys):
        code = main(
            self._BASE + ["--shards", "2", "--proc-chaos", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sharding = payload["sharding"]
        assert sharding["statuses"] == ["retried", "retried"]
        assert sharding["escalated"] == []
        kinds = {failure["kind"] for failure in sharding["failures"]}
        assert kinds <= {"crashed", "timeout", "error", "integrity",
                         "witness"}
        assert kinds, "proc chaos at seed 11 must inject something"
        counters = sharding["supervision"]["counters"]
        assert counters["retries"] == len(sharding["failures"])
        assert counters["failed"] == 0
        summary = payload["summary"]
        assert summary["completed"] + summary["rejected"] == summary["offered"]

    def test_proc_chaos_fingerprint_matches_clean_run(self, capsys):
        assert main(self._BASE + ["--shards", "2", "--json"]) == 0
        clean = json.loads(capsys.readouterr().out)
        assert main(
            self._BASE + ["--shards", "2", "--proc-chaos", "--json"]
        ) == 0
        chaos = json.loads(capsys.readouterr().out)
        assert chaos["fingerprint"] == clean["fingerprint"]

    def test_status_column_in_table(self, capsys):
        code = main(self._BASE + ["--shards", "2", "--proc-chaos"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status" in out
        assert "retried" in out

    def test_supervision_flags_route_single_shard_through_coordinator(
        self, capsys
    ):
        code = main(self._BASE + ["--shard-timeout-s", "120", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharding"]["n_shards"] == 1
        assert payload["sharding"]["statuses"] == ["ok"]

    def test_resume_dir_round_trip(self, tmp_path, capsys):
        resume = str(tmp_path / "ckpt")
        args = self._BASE + ["--shards", "2", "--resume-dir", resume,
                             "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["sharding"]["statuses"] == ["ok", "ok"]
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["sharding"]["statuses"] == ["resumed", "resumed"]
        assert second["fingerprint"] == first["fingerprint"]


class TestServeFleetBackend:
    """``serve-fleet`` runs the one router loop; its payloads match the
    reference oracle's, controller runs included."""

    _BASE = ["serve-fleet", "--gpus", "tx1", "--requests", "40",
             "--seed", "3", "--json"]

    def _payloads(self, capsys, extra=()):
        payloads = []
        for oracle in (True, False):
            if oracle:
                with reference_loop():
                    code = main(self._BASE + list(extra))
            else:
                code = main(self._BASE + list(extra))
            assert code == 0
            payloads.append(json.loads(capsys.readouterr().out))
        return payloads

    def test_backend_option_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-fleet", "--backend", "vectorized"]
            )

    def test_backends_serve_identical_payloads(self, capsys):
        ref, vec = self._payloads(capsys)
        assert vec["summary"] == ref["summary"]
        assert vec["platforms"] == ref["platforms"]
        assert vec["fingerprint"] == ref["fingerprint"]

    def test_controller_serves_through_the_loop(self, capsys):
        ref, vec = self._payloads(capsys, ["--controller", "ewma"])
        assert vec["control"]["ticks"] > 0
        assert vec["fingerprint"] == ref["fingerprint"]
