"""Tests for RouterReport.merge: exact associativity, order
independence, ResilienceStats recombination, percentile recomputation
over merged records, and byte-identity with the object-path oracle."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.satisfaction import SoCBreakdown, TimeRequirement
from repro.obs import linear_percentile
from repro.serving import (
    CompletedRequest,
    EventLog,
    PlatformStats,
    RejectedRequest,
    Request,
    RequestRouter,
    ResilienceStats,
    RouterConfig,
    RouterReport,
    Tenant,
    TenantLoad,
)
from repro.serving.report import _LAZY_FIELDS as LAZY
from repro.workloads import bursty_trace
from tests.serving.oracle import merge_reports
from tests.serving.test_canonical_fingerprint import streamed_payload

#: Fixed platform -> GPU mapping so any two leaves mentioning the
#: same platform agree on its hardware (merge rejects mismatches).
_GPUS = {"P0": "gpu-a", "P1": "gpu-b"}

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


def _request(rid, tenant_name, arrival_s):
    return Request(
        rid=rid,
        tenant=Tenant(tenant_name, _REQUIREMENT, priority=1),
        arrival_s=arrival_s,
    )


#: Arrival clocks drawn from a handful of values, so that records of
#: different tenants and leaves tie on arrival and the merge's
#: tie-breaks decide their order.
TIED_ARRIVALS = st.sampled_from((0.0, 0.5, 0.5, 2.0))


@st.composite
def leaf_reports(draw, arrivals=None):
    """One synthetic single-router report: dense local rids, one
    terminal record per request, events referencing those rids."""
    n_completed = draw(st.integers(min_value=0, max_value=4))
    n_rejected = draw(st.integers(min_value=0, max_value=3))
    horizon_s = draw(
        st.floats(min_value=5.0, max_value=20.0, allow_nan=False)
    )
    tenants = st.sampled_from(("alpha", "beta", "gamma"))
    if arrivals is None:
        arrivals = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
    completed = []
    rejected = []
    events = EventLog()
    rid = 0
    for _ in range(n_completed):
        request = _request(rid, draw(tenants), draw(arrivals))
        latency = draw(
            st.floats(min_value=0.01, max_value=0.6, allow_nan=False)
        )
        platform = draw(st.sampled_from(tuple(_GPUS)))
        record = CompletedRequest(
            request=request,
            platform=platform,
            level=draw(st.integers(min_value=0, max_value=2)),
            batch=draw(st.integers(min_value=1, max_value=4)),
            start_s=request.arrival_s,
            finish_s=request.arrival_s + latency,
            entropy=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ),
            soc=SoCBreakdown(
                soc_time=1.0, soc_accuracy=1.0,
                energy_joules=0.1, value=1.0,
            ),
        )
        completed.append(record)
        events.record(
            "enqueue", request.arrival_s,
            tenant=request.tenant.name, request_ids=(rid,),
        )
        events.record(
            "complete", record.finish_s,
            tenant=request.tenant.name, platform=platform,
            request_ids=(rid,),
        )
        rid += 1
    for _ in range(n_rejected):
        request = _request(rid, draw(tenants), draw(arrivals))
        rejected.append(
            RejectedRequest(request=request, reason="saturated")
        )
        events.record(
            "reject", request.arrival_s,
            tenant=request.tenant.name, request_ids=(rid,),
            reason="saturated",
        )
        rid += 1
    platforms = [
        PlatformStats(
            platform=name,
            gpu=_GPUS[name],
            batches=draw(st.integers(min_value=0, max_value=5)),
            requests=draw(st.integers(min_value=0, max_value=8)),
            busy_s=draw(
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
            ),
            utilization=0.1,
            energy_j=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ),
            mean_level=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ),
            peak_level=draw(st.integers(min_value=0, max_value=3)),
            final_level=0,
            failed_batches=draw(st.integers(min_value=0, max_value=2)),
        )
        for name in sorted(draw(st.sets(st.sampled_from(tuple(_GPUS)),
                                        min_size=1, max_size=2)))
    ]
    resilience = None
    if draw(st.booleans()):
        episodes = draw(st.integers(min_value=0, max_value=3))
        resilience = ResilienceStats(
            faults_injected=draw(st.integers(min_value=0, max_value=5)),
            outages=draw(st.integers(min_value=0, max_value=2)),
            mttr_s=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ) if episodes else 0.0,
            mttr_episodes=episodes,
            retries=draw(st.integers(min_value=0, max_value=4)),
        )
    return RouterReport(
        completed=completed,
        rejected=rejected,
        platforms=platforms,
        events=events,
        horizon_s=horizon_s,
        resilience=resilience,
    )


class TestMergeProperties:
    @settings(max_examples=40, deadline=None)
    @given(leaves=st.lists(leaf_reports(), min_size=3, max_size=3))
    def test_associative(self, leaves):
        """Any grouping of the same leaves merges bit-identically."""
        a, b, c = leaves
        left = RouterReport.merge([RouterReport.merge([a, b]), c])
        right = RouterReport.merge([a, RouterReport.merge([b, c])])
        flat = RouterReport.merge([a, b, c])
        assert left.fingerprint() == flat.fingerprint()
        assert right.fingerprint() == flat.fingerprint()

    @settings(max_examples=40, deadline=None)
    @given(
        leaves=st.lists(leaf_reports(), min_size=2, max_size=4),
        seed=st.randoms(use_true_random=False),
    )
    def test_order_independent(self, leaves, seed):
        """Any permutation of the leaves merges bit-identically."""
        shuffled = list(leaves)
        seed.shuffle(shuffled)
        assert (
            RouterReport.merge(shuffled).fingerprint()
            == RouterReport.merge(leaves).fingerprint()
        )

    @settings(max_examples=25, deadline=None)
    @given(leaves=st.lists(leaf_reports(), min_size=2, max_size=3))
    def test_merge_preserves_totals(self, leaves):
        merged = RouterReport.merge(leaves)
        assert merged.n_offered == sum(r.n_offered for r in leaves)
        assert merged.n_completed == sum(r.n_completed for r in leaves)
        rids = sorted(
            [r.request.rid for r in merged.completed]
            + [r.request.rid for r in merged.rejected]
        )
        assert rids == list(range(merged.n_offered))

    @settings(max_examples=25, deadline=None)
    @given(leaves=st.lists(leaf_reports(), min_size=2, max_size=3))
    def test_percentile_recomputed_over_union(self, leaves):
        """Merged percentiles come from the union of leaf latencies."""
        merged = RouterReport.merge(leaves)
        union = [
            record.latency_s for leaf in leaves for record in leaf.completed
        ]
        for q in (50.0, 95.0, 99.0):
            assert merged.percentile_latency_s(q) == linear_percentile(
                union, q
            )


class TestResilienceMerge:
    def test_counters_sum(self):
        a = ResilienceStats(faults_injected=2, outages=1, retries=3,
                            mttr_s=1.0, mttr_episodes=1)
        b = ResilienceStats(faults_injected=1, outages=0, retries=2,
                            mttr_s=0.0, mttr_episodes=0)
        merged = ResilienceStats.merge([a, b])
        assert merged.faults_injected == 3
        assert merged.outages == 1
        assert merged.retries == 5

    def test_mttr_episode_weighted(self):
        a = ResilienceStats(mttr_s=1.0, mttr_episodes=1)
        b = ResilienceStats(mttr_s=3.0, mttr_episodes=3)
        merged = ResilienceStats.merge([a, b])
        assert merged.mttr_episodes == 4
        assert merged.mttr_s == pytest.approx((1.0 + 9.0) / 4)

    def test_zero_episodes(self):
        merged = ResilienceStats.merge(
            [ResilienceStats(), ResilienceStats()]
        )
        assert merged.mttr_s == 0.0
        assert merged.mttr_episodes == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ResilienceStats.merge([])


class TestMergeValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RouterReport.merge([])

    def test_single_leaf_unchanged(self):
        report = RouterReport(horizon_s=3.0)
        assert RouterReport.merge([report]) is report

    def test_gpu_mismatch_rejected(self):
        def leaf(gpu):
            return RouterReport(
                platforms=[PlatformStats(
                    platform="P0", gpu=gpu, batches=0, requests=0,
                    busy_s=0.0, utilization=0.0, energy_j=0.0,
                    mean_level=0.0, peak_level=0, final_level=0,
                )],
                horizon_s=1.0,
            )
        with pytest.raises(ValueError):
            RouterReport.merge([leaf("gpu-a"), leaf("gpu-b")])

    def test_duplicate_rid_within_leaf_rejected(self):
        request = _request(0, "alpha", 0.0)
        leaf = RouterReport(
            rejected=[
                RejectedRequest(request=request, reason="saturated"),
                RejectedRequest(request=request, reason="saturated"),
            ],
            horizon_s=1.0,
        )
        with pytest.raises(ValueError):
            RouterReport.merge([leaf, RouterReport(horizon_s=1.0)])


class TestMergeEndToEnd:
    @pytest.fixture(scope="class")
    def leaf_runs(self, fleet):
        """Three real single-router runs over distinct tenants."""
        reports = []
        for index in range(3):
            loads = [TenantLoad(
                Tenant("tenant-%d" % index, _REQUIREMENT, priority=1),
                bursty_trace(30, 30.0, seed=100 + index),
            )]
            reports.append(
                RequestRouter(fleet, RouterConfig()).run(loads)
            )
        return reports

    def test_real_reports_merge_associatively(self, leaf_runs):
        a, b, c = leaf_runs
        flat = RouterReport.merge([a, b, c])
        nested = RouterReport.merge([a, RouterReport.merge([b, c])])
        assert flat.fingerprint() == nested.fingerprint()
        assert (
            RouterReport.merge([c, b, a]).fingerprint()
            == flat.fingerprint()
        )

    def test_real_reports_merge_totals(self, leaf_runs):
        merged = RouterReport.merge(leaf_runs)
        assert merged.n_offered == sum(r.n_offered for r in leaf_runs)
        assert merged.horizon_s == max(r.horizon_s for r in leaf_runs)
        union = [
            record.latency_s
            for leaf in leaf_runs
            for record in leaf.completed
        ]
        assert merged.percentile_latency_s(95.0) == linear_percentile(
            union, 95.0
        )


def _groupings(draw, leaves):
    """A random permutation of ``leaves`` cut into 1..3 merged groups
    (a group of one stays a leaf)."""
    order = draw(st.permutations(leaves))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=len(order) - 1),
                max_size=2, unique=True,
            )
        )
    )
    bounds = [0, *cuts, len(order)]
    return [
        RouterReport.merge(order[start:end])
        for start, end in zip(bounds, bounds[1:])
    ]


class TestMergeMatchesOracle:
    """The columnar fold's canonical bytes equal the object-path
    oracle's for every permutation and grouping of the leaves."""

    @settings(max_examples=60, deadline=None)
    @given(
        leaves=st.lists(
            st.one_of(leaf_reports(), leaf_reports(TIED_ARRIVALS)),
            min_size=2, max_size=4,
        ),
        data=st.data(),
    )
    def test_permutations_and_groupings(self, leaves, data):
        oracle = merge_reports(leaves)
        merged = RouterReport.merge(_groupings(data.draw, leaves))
        assert streamed_payload(merged) == streamed_payload(oracle)
        assert merged.per_tenant() == oracle.per_tenant()
        assert merged.percentile_latency_s(95.0) == (
            oracle.percentile_latency_s(95.0)
        )

    @settings(max_examples=20, deadline=None)
    @given(leaves=st.lists(leaf_reports(TIED_ARRIVALS), min_size=2,
                           max_size=3))
    def test_lazy_lists_equal_oracle(self, leaves):
        merged = RouterReport.merge(leaves)
        oracle = merge_reports(leaves)
        assert LAZY.isdisjoint(merged.__dict__)
        assert merged.completed == oracle.completed
        assert merged.rejected == oracle.rejected
        assert merged.events.to_dicts() == oracle.events.to_dicts()

    @settings(max_examples=15, deadline=None)
    @given(leaves=st.lists(leaf_reports(), min_size=2, max_size=3))
    def test_pickle_round_trip(self, leaves):
        merged = RouterReport.merge(leaves)
        payload = streamed_payload(merged)
        clone = pickle.loads(pickle.dumps(merged))
        assert "_source" not in clone.__dict__
        assert streamed_payload(clone) == payload
        assert clone.fingerprint() == merged.fingerprint()

    def test_real_runs_match_oracle(self, fleet):
        reports = [
            RequestRouter(fleet, RouterConfig()).run([
                TenantLoad(
                    Tenant("tenant-%d" % index, _REQUIREMENT, priority=1),
                    bursty_trace(60, 60.0, seed=200 + index),
                )
            ])
            for index in range(3)
        ]
        merged = RouterReport.merge(reports)
        assert streamed_payload(merged) == streamed_payload(
            merge_reports(reports)
        )

    def test_missing_request_id_rejected_like_oracle(self):
        events = EventLog()
        events.record("enqueue", 0.0, tenant="alpha", request_ids=(7,))
        leaf = RouterReport(
            rejected=[RejectedRequest(request=_request(0, "alpha", 0.0),
                                      reason="saturated")],
            events=events,
            horizon_s=1.0,
        )
        other = RouterReport(horizon_s=2.0)
        with pytest.raises(ValueError) as columnar:
            RouterReport.merge([leaf, other])
        with pytest.raises(ValueError) as oracle:
            merge_reports([leaf, other])
        assert str(columnar.value) == str(oracle.value)
        assert "no terminal record" in str(columnar.value)
