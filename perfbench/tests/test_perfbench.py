"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q

They check the backend rule, that a wrong result counts as a failed
operation, and that ``BENCHMARK.json`` names what a run prints.
In-process tests shrink the serving traces and run at a seed other
than the default, so every check compares against the first
iteration.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import repro.serving  # noqa: E402
from repro.schedulers import default_schedulers  # noqa: E402
from repro.serving import (  # noqa: E402
    FleetCoordinator,
    RequestRouter,
    RouterReport,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Serving traces a hundredth of the benchmark's size."""
    monkeypatch.setattr(workloads, "STORM_REQUESTS",
                        workloads.STORM_REQUESTS // 100)
    monkeypatch.setattr(workloads, "SHARD_REQUESTS",
                        workloads.SHARD_REQUESTS // 100)


def _constructor_keywords(monkeypatch, cls):
    """Record the keywords every ``cls`` is built with."""
    seen = []
    original = cls.__init__

    def spy(self, *args, **kwargs):
        seen.append(kwargs)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", spy)
    return seen


def test_backend_rule_asks_for_vectorized_when_advertised(monkeypatch, small):
    routers = _constructor_keywords(monkeypatch, RequestRouter)
    coordinators = _constructor_keywords(monkeypatch, FleetCoordinator)
    assert "vectorized" in repro.serving.ROUTER_BACKENDS
    workloads.Storm().setup(7)
    workloads.ChaosControl().setup(7)
    assert [kwargs.get("backend") for kwargs in routers] == [
        "vectorized", None]
    workloads.Shards().setup(7)
    assert [kwargs.get("backend") for kwargs in coordinators] == [
        "vectorized"]


def test_backend_rule_falls_back_when_vectorized_is_not_advertised(
        monkeypatch, small):
    monkeypatch.setattr(repro.serving, "ROUTER_BACKENDS", ("reference",))
    routers = _constructor_keywords(monkeypatch, RequestRouter)
    coordinators = _constructor_keywords(monkeypatch, FleetCoordinator)
    assert harness.Tally(None).run(workloads.Storm().setup, 7)
    assert routers == [{}]
    assert harness.Tally(None).run(workloads.Shards().setup, 7)
    assert len(coordinators) == 1 and "backend" not in coordinators[0]


def test_corrupted_fingerprint_is_a_failed_operation(monkeypatch, small):
    workload = workloads.Storm()
    tally = harness.Tally(None)
    state, _first = tally.run(workload.setup, 7)
    assert tally.run(workload.iterate, state) is not None
    monkeypatch.setattr(RouterReport, "fingerprint",
                        lambda self: "0" * 40)
    assert tally.run(workload.iterate, state) is None
    assert (tally.attempted, tally.failed) == (3, 1)


def test_dropped_request_is_a_failed_operation(monkeypatch, small):
    """A report that stays self-consistent (offered == completed +
    rejected) but lost a request is caught by the input count."""
    original = RequestRouter.run

    def lossy(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        report.completed.pop()
        return report

    monkeypatch.setattr(RequestRouter, "run", lossy)
    tally = harness.Tally(None)
    assert tally.run(workloads.Storm().setup, 7) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_exception_is_a_failed_operation():
    tally = harness.Tally(None)

    def broken():
        raise ValueError("boom")

    assert tally.run(broken) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_check_compares_offered_with_its_parts_and_the_inputs():
    good = workloads.Outcome(
        expected=10, offered=10, completed=7, rejected=3, fingerprint="f",
        requests=10, evaluations=2, deadline_hit_rate=0.5, mean_soc=1.0,
        energy_j_per_request=0.1, counts={},
    )
    assert workloads.check(good, "f") is None
    assert "completed" in workloads.check(
        good.__class__(**dict(good.__dict__, rejected=2)), "f")
    assert "generated" in workloads.check(
        good.__class__(**dict(good.__dict__, expected=11)), "f")
    assert "fingerprint" in workloads.check(good, "g")


def test_benchmark_json_names_the_workloads():
    names = [workload["name"] for workload in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_scheduler_layers_name_the_program_schedulers():
    assert harness.SCHEDULERS == tuple(
        scheduler.name for scheduler in default_schedulers())


def test_untraced_run_prints_the_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm",
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=str(ROOT), stdout=subprocess.PIPE, universal_newlines=True,
        timeout=180, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    expected = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["storm", "chaos_control", "shards"])
def test_traced_run_reports_every_per_layer_metric(name, small, tmp_path):
    """The paper matrix has no small size; its names are the same."""
    spans_path = tmp_path / "spans.json"
    tally, metrics = harness.trace(
        workloads.WORKLOADS[name](), seed=7, seconds=0,
        spans_path=spans_path)
    assert tally.failed == 0
    expected = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [(key, m["unit"]) for key, m in metrics.items()] == expected
    assert metrics["iteration_s"]["value"] > 0
    assert metrics["report.fingerprint_calls"]["value"] >= 1
    assert json.loads(spans_path.read_text())["spans"]


def test_tracing_is_removed_after_the_traced_run(small, tmp_path):
    before = RouterReport.__dict__["fingerprint"]
    harness.trace(workloads.Storm(), seed=7, seconds=0,
                  spans_path=tmp_path / "spans.json")
    assert RouterReport.__dict__["fingerprint"] is before


def test_run_without_the_program_exits_nonzero_and_prints_nothing(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
