"""Tests for repro.serving.router: the discrete-event fleet router."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.satisfaction import TimeRequirement
from repro.obs import Instrumentation
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    RouterReport,
    Tenant,
    TenantLoad,
    vec_router,
)
from repro.workloads import RequestTrace, bursty_trace


def _capacity_rps(deployments):
    total = 0.0
    for deployment in deployments.values():
        entry = deployment.current_entry
        report = deployment.engine.execute(
            entry.compiled,
            power_gating=deployment.power_gating,
            use_priority_sm=deployment.use_priority_sm,
        )
        total += entry.compiled.batch / report.total_time_s
    return total


def _storm(deployments, n=600, overload=2.0, seed=42):
    rate = overload * _capacity_rps(deployments)
    return bursty_trace(
        n_requests=n, rate_hz=rate, burst_factor=6.0, burst_fraction=0.3,
        seed=seed,
    )


@pytest.fixture
def snappy_load(deployments, snappy_tenant):
    return [TenantLoad(snappy_tenant, _storm(deployments))]


class TestDeterminism:
    def test_same_fleet_reruns_are_bit_identical(self, fleet, snappy_load):
        first = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        second = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert first.fingerprint() == second.fingerprint()
        # The routing outcome (unlike compile-vs-cache-hit relays,
        # which track engine cache temperature) is exactly equal.
        a = first.to_dict(include_events=False)
        b = second.to_dict(include_events=False)
        for payload in (a, b):
            for kind in ("compile", "cache_hit"):
                payload["event_counts"].pop(kind)
        assert a == b

    def test_single_router_rerun_is_bit_identical(self, fleet, snappy_load):
        router = RequestRouter(fleet, RouterConfig())
        assert (
            router.run(snappy_load).fingerprint()
            == router.run(snappy_load).fingerprint()
        )

    def test_different_policy_changes_fingerprint(self, fleet, snappy_load):
        soc = RequestRouter(fleet, RouterConfig(policy="soc")).run(snappy_load)
        fifo = RequestRouter(
            fleet, RouterConfig(policy="fifo")
        ).run(snappy_load)
        assert soc.fingerprint() != fifo.fingerprint()


class TestOverloadBehaviour:
    def test_overload_walks_the_degradation_ladder(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert len(report.events.of_kind("degrade")) > 0
        assert any(p.peak_level > 0 for p in report.platforms)

    def test_degradation_beats_fifo_baseline(self, fleet, snappy_load):
        degraded = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        baseline = RequestRouter(
            fleet, RouterConfig(degradation=False, policy="fifo")
        ).run(snappy_load)
        assert degraded.deadline_hit_rate > baseline.deadline_hit_rate
        assert degraded.n_rejected <= baseline.n_rejected

    def test_no_degradation_config_stays_at_rung_zero(
        self, fleet, snappy_load
    ):
        report = RequestRouter(
            fleet, RouterConfig(degradation=False)
        ).run(snappy_load)
        assert report.events.of_kind("degrade") == []
        assert all(p.peak_level == 0 for p in report.platforms)
        assert all(p.mean_level == 0.0 for p in report.platforms)

    def test_rejections_carry_reasons(self, fleet, deployments, snappy_tenant):
        # A tiny queue plus a hot storm forces saturation rejects.
        loads = [TenantLoad(snappy_tenant, _storm(deployments, overload=4.0))]
        report = RequestRouter(
            fleet,
            RouterConfig(queue_limit=2, degradation=False, policy="fifo"),
        ).run(loads)
        assert report.n_rejected > 0
        reasons = {r.reason for r in report.rejected}
        assert reasons <= {"saturated", "infeasible"}
        reject_events = report.events.of_kind("reject")
        assert len(reject_events) == report.n_rejected
        assert all(e.detail["reason"] in reasons for e in reject_events)


class TestAccounting:
    def test_every_offered_request_is_accounted_once(
        self, fleet, snappy_load
    ):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        offered = snappy_load[0].trace.n_requests
        assert report.n_completed + report.n_rejected == offered
        rids = sorted(
            [r.request.rid for r in report.completed]
            + [r.request.rid for r in report.rejected]
        )
        assert rids == list(range(offered))

    def test_dispatch_and_complete_events_cover_completions(
        self, fleet, snappy_load
    ):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        dispatched = sum(
            len(e.request_ids) for e in report.events.of_kind("dispatch")
        )
        assert dispatched == report.n_completed
        assert len(report.events.of_kind("dispatch")) == len(
            report.events.of_kind("complete")
        )

    def test_platform_stats_consistent(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert {p.platform for p in report.platforms} == {"K20c", "TX1"}
        assert sum(p.requests for p in report.platforms) == report.n_completed
        for stats in report.platforms:
            assert 0.0 <= stats.utilization <= 1.0 + 1e-9
            assert stats.busy_s <= report.horizon_s + 1e-9
        assert report.total_energy_j == pytest.approx(
            sum(p.energy_j for p in report.platforms)
        )

    def test_latencies_and_horizon(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        for record in report.completed:
            assert record.finish_s > record.start_s >= record.request.arrival_s
            assert record.finish_s <= report.horizon_s + 1e-9
        assert report.percentile_latency_s(50.0) <= report.percentile_latency_s(
            99.0
        )

    def test_engine_compile_activity_lands_in_event_log(self, fleet, spec):
        # A fresh engine compiles ladder rungs during run(); the hook
        # relay must surface that as compile or cache_hit events.
        from repro.core.fleet import FleetManager
        from repro.gpu import K20C
        from repro.nn import alexnet

        fresh = FleetManager(
            alexnet(), spec, architectures=[K20C], max_tuning_iterations=4
        )
        tenant = Tenant("t", TimeRequirement(0.1, 0.5), 1)
        trace = RequestTrace(
            arrivals_s=np.array([0.0]), difficulty=np.array([1.0])
        )
        report = RequestRouter(fresh, RouterConfig()).run(
            [TenantLoad(tenant, trace)]
        )
        assert len(report.events.of_kind("compile")) > 0
        # The relay unsubscribes after the run: engine activity outside
        # run() must not grow this report's log.
        before = len(report.events)
        deployment = fresh.deployment("K20c")
        deployment.engine.execute(deployment.current_entry.compiled)
        assert len(report.events) == before


class TestConservation:
    """Completed plus rejected must equal the *input* request count at
    the end of every run and after every coordinator merge; a loop or
    merge that loses a request raises instead of returning a report
    that is consistent with itself."""

    @pytest.mark.parametrize("obs", [False, True], ids=["fast", "tracked"])
    def test_lost_request_raises(
        self, fleet, snappy_load, monkeypatch, obs
    ):
        class DroppingColumns(vec_router.ArrivalColumns):
            """Loses each tenant's last arrival on the way in."""

            def __init__(self, loads):
                super().__init__(
                    [
                        TenantLoad(
                            load.tenant,
                            RequestTrace(
                                arrivals_s=load.trace.arrivals_s[:-1],
                                difficulty=load.trace.difficulty[:-1],
                            ),
                        )
                        for load in loads
                    ]
                )

        monkeypatch.setattr(vec_router, "ArrivalColumns", DroppingColumns)
        router = RequestRouter(fleet, RouterConfig())
        with pytest.raises(RuntimeError, match="conservation"):
            router.run(snappy_load, obs=Instrumentation() if obs else None)

    def test_coordinator_lost_request_raises(
        self, spec, snappy_tenant, monkeypatch
    ):
        merge = RouterReport.merge.__func__

        def lossy_merge(cls, reports):
            merged = merge(cls, reports)
            return replace(merged, completed=merged.completed[1:])

        monkeypatch.setattr(RouterReport, "merge", classmethod(lossy_merge))
        coordinator = FleetCoordinator(
            FleetSpec(network="alexnet", spec=spec, gpus=("k20c", "tx1")),
            RouterConfig(), n_shards=2, inline=True,
        )
        shard_loads = [
            [TenantLoad(snappy_tenant, bursty_trace(n_requests=40, seed=seed))]
            for seed in (1, 2)
        ]
        with pytest.raises(RuntimeError, match="conservation"):
            coordinator.run(shard_loads=shard_loads)


class TestMultiTenant:
    def test_priority_tenant_gets_better_service(self, fleet, deployments):
        requirement = TimeRequirement(0.1, 0.5)
        vip = Tenant("vip", requirement, priority=2)
        best_effort = Tenant("best-effort", requirement, priority=0)
        loads = [
            TenantLoad(vip, _storm(deployments, n=400, seed=1)),
            TenantLoad(best_effort, _storm(deployments, n=400, seed=2)),
        ]
        report = RequestRouter(fleet, RouterConfig()).run(loads)
        per_tenant = {s.tenant: s for s in report.per_tenant()}
        assert set(per_tenant) == {"vip", "best-effort"}
        vip_stats = per_tenant["vip"]
        be_stats = per_tenant["best-effort"]
        assert vip_stats.deadline_hit_rate >= be_stats.deadline_hit_rate
        assert report.tenant("vip").priority == 2
        with pytest.raises(KeyError, match="vip"):
            report.tenant("nobody")

    def test_background_tenant_never_rejected_infeasible(
        self, fleet, deployments, background_tenant
    ):
        loads = [TenantLoad(background_tenant, _storm(deployments, n=200))]
        report = RequestRouter(fleet, RouterConfig()).run(loads)
        assert all(r.reason != "infeasible" for r in report.rejected)
        # Deadline-free completions always count as hits.
        assert all(
            math.isinf(r.request.deadline_s) for r in report.completed
        )
        assert report.deadline_hits == report.n_completed


class TestReportExport:
    def test_to_dict_schema(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        data = report.to_dict(include_events=True, include_requests=True)
        assert set(data) == {
            "summary", "tenants", "platforms", "event_counts", "events",
            "completed", "rejected",
        }
        summary = data["summary"]
        for key in (
            "offered", "completed", "rejected", "deadline_hits",
            "deadline_hit_rate", "rejection_rate", "mean_soc",
            "p50_latency_s", "p95_latency_s", "p99_latency_s",
            "total_energy_j", "horizon_s",
        ):
            assert key in summary
        json.loads(report.to_json(include_events=True, include_requests=True))

    def test_platform_lookup_errors_name_known(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert report.platform("K20c").gpu == "K20c"
        with pytest.raises(KeyError, match="K20c, TX1"):
            report.platform("H100")


class TestEdgeCasesAndValidation:
    def test_empty_loads_give_empty_report(self, fleet):
        report = RequestRouter(fleet, RouterConfig()).run([])
        assert report.n_offered == 0
        assert report.horizon_s == 0.0
        assert report.deadline_hit_rate == 0.0
        assert report.mean_soc == 0.0

    def test_router_requires_deployments(self):
        with pytest.raises(ValueError):
            RequestRouter({})

    def test_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            RouterConfig(policy="lifo")
        with pytest.raises(ValueError):
            RouterConfig(queue_limit=0)
        with pytest.raises(ValueError):
            RouterConfig(max_levels=0)
        with pytest.raises(ValueError):
            RouterConfig(low_water_batches=5.0)

    @pytest.mark.parametrize(
        "field",
        [
            "min_gain",
            "retry_backoff_s",
            "retry_backoff_growth",
            "flush_timeout_s",
            "breaker_cooldown_s",
        ],
    )
    def test_config_rejects_nan(self, field):
        # NaN fails every comparison, so a ``value <= bound`` check
        # lets it through; the error must name the field.
        with pytest.raises(ValueError, match=field):
            RouterConfig(**{field: math.nan})

    def test_tenant_load_rejects_non_tenant(self, snappy_tenant):
        trace = RequestTrace(
            arrivals_s=np.array([0.0]), difficulty=np.ones(1)
        )
        with pytest.raises(ValueError, match="tenant must be a Tenant"):
            TenantLoad("snappy", trace)
        with pytest.raises(ValueError, match="trace must be a RequestTrace"):
            TenantLoad(snappy_tenant, None)
        with pytest.raises(ValueError, match="trace must be a RequestTrace"):
            TenantLoad(snappy_tenant, np.array([0.0]))

    def test_accepts_plain_deployment_mapping(self, deployments):
        router = RequestRouter(dict(deployments))
        tenant = Tenant("t", TimeRequirement(0.1, 3.0), 1)
        trace = RequestTrace(
            arrivals_s=np.array([0.0, 0.0]), difficulty=np.ones(2)
        )
        report = router.run([TenantLoad(tenant, trace)])
        assert report.n_completed == 2
