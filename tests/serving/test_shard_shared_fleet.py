"""Inline shards deploy the fleet once per coordinator.

An inline :class:`FleetCoordinator` builds its :class:`FleetSpec` on
the first shard it serves and keeps that fleet for every later
attempt: supervised retries, failover and escalation re-runs, and
later ``run()`` calls.  Witness re-executions stay cold (their own
fleet), a fully resumed run deploys nothing, and none of it moves a
merged fingerprint: a run over the shared, warm fleet must be
byte-identical to one where every attempt deploys afresh through
:func:`run_shard`.
"""

import pytest

from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultEvent, FaultTrace
from repro.resilience import ProcFaultPlan, SupervisorConfig
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import (
    run_shard,
    shard_label,
    shard_platform,
    shard_seed,
)
from repro.serving.shard import coordinator as coordinator_module
from repro.workloads import bursty_trace, difficulty_shift

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)
N_SHARDS = 4


def _fleet_spec():
    return FleetSpec(
        network="alexnet",
        spec=ApplicationSpec(
            "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
        ),
        gpus=("k20c",),
        max_tuning_iterations=4,
    )


def _shard_loads(n_requests=24, rate_hz=25.0, severity=1.0):
    """One tenant per shard; ``severity`` > 1 makes each trace's last
    three quarters harder than calibration."""
    return [
        [
            TenantLoad(
                Tenant(
                    "tenant-%s" % shard_label(shard), _REQUIREMENT,
                    priority=1,
                ),
                difficulty_shift(
                    bursty_trace(
                        n_requests, rate_hz, seed=shard_seed(13, shard)
                    ),
                    onset_fraction=0.25,
                    severity=severity,
                ),
            )
        ]
        for shard in range(N_SHARDS)
    ]


def _dead_shard_faults(shard_id=3):
    """Every platform of one shard out for the whole run."""
    platform = shard_platform(shard_id, "K20c")
    return FaultTrace([
        FaultEvent(time_s=0.001, kind="outage", platform=platform,
                   episode=1),
        FaultEvent(time_s=500.0, kind="restore", platform=platform,
                   episode=1),
    ])


def _coordinator(config=None, **kwargs):
    return FleetCoordinator(
        _fleet_spec(), config if config is not None else RouterConfig(),
        n_shards=N_SHARDS, seed=13, inline=True, **kwargs,
    )


@pytest.fixture
def builds(monkeypatch):
    """Count ``FleetSpec.build`` calls (each one is a full deploy)."""
    calls = []
    original = FleetSpec.build

    def counting_build(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FleetSpec, "build", counting_build)
    return calls


class TestOneBuildPerCoordinator:
    def test_retry_failover_and_escalation_share_one_build(self, builds):
        # Seed 1 draws a crash for shard 1's first attempt only; shard
        # 2 is pinned to crash on every attempt, so it exhausts its
        # budget and escalates; shard 3's platform dies (failover).
        plan = ProcFaultPlan(
            seed=1, crash_rate=0.5, forced=((2, "crash"),),
            max_faulty_attempts=99,
        )
        outcome = _coordinator(
            proc_faults=plan, supervision=SupervisorConfig(max_attempts=2),
        ).run(shard_loads=_shard_loads(), faults=_dead_shard_faults())
        assert outcome.supervision.records[1].status == "retried"
        assert outcome.escalated == (2,)
        assert outcome.dead_shards == (3,)
        assert outcome.rehomed > 0
        assert len(builds) == 1

    def test_later_runs_reuse_the_fleet(self, builds):
        coordinator = _coordinator()
        first = coordinator.run(shard_loads=_shard_loads())
        second = coordinator.run(shard_loads=_shard_loads())
        assert len(builds) == 1
        assert second.report.fingerprint() == first.report.fingerprint()

    def test_full_resume_deploys_nothing(self, builds, tmp_path):
        resume_dir = str(tmp_path / "run")
        first = _coordinator(resume_dir=resume_dir).run(
            shard_loads=_shard_loads()
        )
        assert len(builds) == 1
        resumed = _coordinator(resume_dir=resume_dir).run(
            shard_loads=_shard_loads()
        )
        assert resumed.statuses == ("resumed",) * N_SHARDS
        assert len(builds) == 1
        assert resumed.report.fingerprint() == first.report.fingerprint()

    def test_witnesses_build_their_own_fleet(self, builds, monkeypatch):
        witnesses = []

        def counting_run_shard(spec):
            witnesses.append(spec.shard_id)
            return run_shard(spec)

        monkeypatch.setattr(
            coordinator_module, "run_shard", counting_run_shard
        )
        outcome = _coordinator(
            supervision=SupervisorConfig(witness=True)
        ).run(shard_loads=_shard_loads())
        assert outcome.statuses == ("ok",) * N_SHARDS
        assert sorted(witnesses) == list(range(N_SHARDS))
        assert len(builds) == 1 + len(witnesses)

    def test_calibrating_runs_deploy_per_attempt(self, builds):
        # Calibration moves the deployments' tuning-path positions, so
        # those runs must not share a fleet.
        _coordinator(RouterConfig(calibrate=True)).run(
            shard_loads=_shard_loads()
        )
        assert len(builds) == N_SHARDS


class TestSharedFleetIsFingerprintNeutral:
    """A warm shared fleet merges byte-identically to per-shard fresh
    fleets, in fast mode and in tracked mode."""

    @pytest.mark.parametrize(
        "case",
        ["clean", "chaos", "controller", "calibrate", "instrumented"],
    )
    def test_matches_fresh_fleets(self, case, monkeypatch):
        config = RouterConfig(calibrate=case == "calibrate")
        kwargs = {}
        run_kwargs = {
            "shard_loads": _shard_loads(
                n_requests=40, rate_hz=60.0,
                # Harder traffic makes calibration backtrack, moving
                # the deployments' tuning-path positions mid-run.
                severity=2.0 if case == "calibrate" else 1.0,
            )
        }
        if case == "chaos":
            run_kwargs["faults"] = _dead_shard_faults()
        if case == "controller":
            kwargs["controller"] = ControllerConfig(kind="ewma")
        if case == "instrumented":
            run_kwargs["instrument"] = True
        shared = _coordinator(config, **kwargs).run(**run_kwargs)
        # The reference: every inline attempt deploys its own fleet.
        monkeypatch.setattr(
            FleetCoordinator, "_serve_inline",
            lambda self, spec: run_shard(spec),
        )
        fresh = _coordinator(config, **kwargs).run(**run_kwargs)
        assert shared.report.fingerprint() == fresh.report.fingerprint()
        assert [r.fingerprint() for r in shared.shard_reports] == [
            r.fingerprint() for r in fresh.shard_reports
        ]
        if case == "chaos":
            assert shared.rehomed == fresh.rehomed > 0
