"""Regression tests: dispatch and rejection order under collisions.

A burst of requests sharing one arrival timestamp (and therefore one
deadline) used to leave the final rejection order at the mercy of
queue/dict insertion order.  ``_reject_stranded`` now sorts explicitly
by rid; these tests pin that ordering -- and the dispatch order of a
deadline-colliding queue -- as deterministic, repeatable and identical
between the router loop and its reference oracle.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.serving import RequestRouter, RouterConfig, TenantLoad
from repro.serving.events import EventLog
from repro.serving.request import Request
from repro.serving.resilience import RetryPolicy
from repro.workloads import RequestTrace
from tests.serving.oracle import ReferenceRouter
from tests.serving.oracle.router import _RunState


def _colliding_trace(n, arrival_s=0.01):
    """``n`` requests arriving on the same clock tick: identical
    arrivals, identical deadlines, unit difficulty."""
    return RequestTrace(
        arrivals_s=np.full(n, arrival_s, dtype=np.float64),
        difficulty=np.ones(n, dtype=np.float64),
    )


class TestStrandedOrdering:
    """The zero-loss backstop is unreachable through the public seam
    (a probe or restore event always wakes a held queue), so the sort
    it applies is pinned directly: scrambled queues with colliding
    deadlines must reject in rid order, never insertion order."""

    def _run_backstop(self, fleet, snappy_tenant, queues, inflight=None):
        router = ReferenceRouter(fleet, RouterConfig())
        router._now = 1.0
        run = _RunState(
            EventLog(), RetryPolicy(limit=1), Instrumentation.disabled()
        )

        def request(rid):
            return Request(
                rid=rid, tenant=snappy_tenant, arrival_s=0.01,
                difficulty=1.0,
            )

        run.states = {
            name: SimpleNamespace(
                name=name,
                inflight=(
                    SimpleNamespace(
                        requests=[request(rid) for rid in inflight[name]]
                    )
                    if inflight and name in inflight
                    else None
                ),
                queue=[request(rid) for rid in rids],
            )
            for name, rids in queues.items()
        }
        router._reject_stranded(run)
        return run

    def test_scrambled_queue_rejects_in_rid_order(
        self, fleet, snappy_tenant
    ):
        run = self._run_backstop(
            fleet, snappy_tenant, {"K20c": [7, 2, 9, 0, 5, 1]}
        )
        rids = [r.request.rid for r in run.rejected]
        assert rids == [0, 1, 2, 5, 7, 9]
        assert all(r.reason == "stranded" for r in run.rejected)
        logged = [
            event["request_ids"][0]
            for event in run.events.to_dicts()
            if event["kind"] == "reject"
        ]
        assert logged == rids

    def test_inflight_and_queue_merge_in_rid_order(
        self, fleet, snappy_tenant
    ):
        """An abandoned in-flight batch and the residual queue are one
        rid-sorted stream, not batch-then-queue insertion order."""
        run = self._run_backstop(
            fleet, snappy_tenant,
            queues={"K20c": [8, 3]},
            inflight={"K20c": [6, 1]},
        )
        assert [r.request.rid for r in run.rejected] == [1, 3, 6, 8]

    def test_platforms_walk_in_sorted_name_order(
        self, fleet, snappy_tenant
    ):
        run = self._run_backstop(
            fleet, snappy_tenant, {"TX1": [4, 2], "K20c": [3, 1]}
        )
        assert [r.request.rid for r in run.rejected] == [1, 3, 2, 4]
        platforms = [
            event["platform"]
            for event in run.events.to_dicts()
            if event["kind"] == "reject"
        ]
        assert platforms == ["K20c", "K20c", "TX1", "TX1"]

    def test_queues_emptied_by_backstop(self, fleet, snappy_tenant):
        run = self._run_backstop(
            fleet, snappy_tenant,
            queues={"K20c": [2, 0]},
            inflight={"K20c": [1]},
        )
        state = run.states["K20c"]
        assert state.queue == []
        assert state.inflight is None


class TestCollidingDeadlineDispatch:
    @pytest.mark.parametrize("policy", ["soc", "fifo"])
    def test_dispatch_order_deterministic(
        self, fleet, snappy_tenant, policy
    ):
        """With every deadline equal, the dispatch sort must fall back
        to a stable total order -- same fingerprint on every run and
        on the reference oracle."""
        loads = [TenantLoad(snappy_tenant, _colliding_trace(32))]
        config = RouterConfig(policy=policy)
        runs = [
            router(fleet, config).run(loads)
            for router in (RequestRouter, RequestRouter, ReferenceRouter)
        ]
        assert runs[0].fingerprint() == runs[1].fingerprint()
        assert runs[2].fingerprint() == runs[0].fingerprint()

    def test_two_tenant_deadline_collision(
        self, fleet, snappy_tenant, realtime_tenant
    ):
        """Two tenants timed so their deadlines collide exactly: the
        dispatch key must break ties without leaking insertion order."""
        offset = (
            snappy_tenant.requirement.unusable_s
            - realtime_tenant.requirement.unusable_s
        )
        loads = [
            TenantLoad(snappy_tenant, _colliding_trace(12, arrival_s=0.5)),
            TenantLoad(
                realtime_tenant,
                _colliding_trace(12, arrival_s=0.5 + offset),
            ),
        ]
        ref = ReferenceRouter(fleet, RouterConfig()).run(loads)
        again = RequestRouter(fleet, RouterConfig()).run(loads)
        vec = RequestRouter(fleet, RouterConfig()).run(loads)
        assert vec.fingerprint() == again.fingerprint()
        assert vec.fingerprint() == ref.fingerprint()

    def test_every_request_accounted_for(self, fleet, snappy_tenant):
        """Zero-loss contract on a colliding burst: completed plus
        rejected covers every rid exactly once."""
        loads = [TenantLoad(snappy_tenant, _colliding_trace(24))]
        report = RequestRouter(fleet, RouterConfig()).run(loads)
        seen = sorted(
            [r.request.rid for r in report.completed]
            + [r.request.rid for r in report.rejected]
        )
        assert seen == list(range(24))


@pytest.fixture
def realtime_tenant(snappy_tenant):
    """A second tenant whose (finite) deadline can be made to collide
    with ``snappy``'s by offsetting arrivals."""
    from repro.core.satisfaction import TimeRequirement
    from repro.serving import Tenant

    return Tenant(
        "realtime",
        TimeRequirement(imperceptible_s=0.05, unusable_s=0.25),
        priority=1,
    )
