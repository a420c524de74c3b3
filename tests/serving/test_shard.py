"""Tests for repro.serving.shard: planner, fault splitting, the
coordinator in inline mode (spawn parity is covered by the pickle
suite and the sharding benchmark), and the columnar qualify/merge fold
against its object-path oracle."""

import pickle

import pytest

from repro.control import ControllerConfig
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultEvent, FaultTrace
from repro.serving import (
    CompletedRequest,
    FleetCoordinator,
    FleetSpec,
    RejectedRequest,
    Request,
    RequestRouter,
    RouterConfig,
    RouterEvent,
    RouterReport,
    Tenant,
    TenantLoad,
)
from repro.serving.report import _LAZY_FIELDS as LAZY
from repro.serving.shard import (
    ShardPlanner,
    ShardSpec,
    parse_shard_platform,
    qualify_report,
    run_shard,
    shard_label,
    shard_platform,
    shard_seed,
    split_fault_trace,
    strip_requests,
)
from repro.serving.shard import coordinator as coordinator_module
from repro.workloads import bursty_trace
from tests.serving import test_shard_shared_fleet as shared_fleet
from tests.serving.oracle import merge_reports
from tests.serving.oracle import qualify_report as oracle_qualify
from tests.serving.test_canonical_fingerprint import streamed_payload

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


def _load(name, n=20, rate_hz=20.0, seed=0, priority=1):
    return TenantLoad(
        Tenant(name, _REQUIREMENT, priority=priority),
        bursty_trace(n, rate_hz, seed=seed),
    )


@pytest.fixture(scope="module")
def fleet_spec(spec):
    # Mirrors the conftest `fleet` fixture (same GPUs, same tuning
    # budget) so coordinator runs are comparable to direct ones.
    return FleetSpec(
        network="alexnet", spec=spec, gpus=("k20c", "tx1"),
        max_tuning_iterations=8,
    )


class TestShardNaming:
    def test_label(self):
        assert shard_label(0) == "s0"
        assert shard_label(12) == "s12"
        with pytest.raises(ValueError):
            shard_label(-1)

    def test_platform_round_trip(self):
        name = shard_platform(3, "K20c")
        assert name == "s3/K20c"
        assert parse_shard_platform(name) == (3, "K20c")

    def test_parse_bare_name(self):
        assert parse_shard_platform("K20c") == (None, "K20c")
        # A slash without the s<digits> prefix is not a shard tag.
        assert parse_shard_platform("rack/K20c") == (None, "rack/K20c")

    def test_seed_derivation(self):
        assert shard_seed(42, 0) == shard_seed(42, 0)
        seeds = {shard_seed(42, shard) for shard in range(16)}
        assert len(seeds) == 16
        assert all(seed >= 0 for seed in seeds)
        assert shard_seed(42, 0) != shard_seed(43, 0)


class TestShardPlanner:
    def test_assignments_stable_and_covering(self):
        planner = ShardPlanner(4)
        loads = [_load("tenant-%d" % i, seed=i) for i in range(12)]
        plan = planner.plan(loads)
        recovered = [
            load for piece in plan.shard_loads for load in piece
        ]
        assert sorted(load.tenant.name for load in recovered) == sorted(
            load.tenant.name for load in loads
        )
        for name, shard in plan.assignments:
            assert shard == planner.shard_of(name)
            assert plan.shard_of(name) == shard

    def test_assignment_independent_of_other_tenants(self):
        few = ShardPlanner(4).plan([_load("anchor")])
        many = ShardPlanner(4).plan(
            [_load("anchor")] + [_load("other-%d" % i) for i in range(6)]
        )
        assert few.shard_of("anchor") == many.shard_of("anchor")

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ValueError):
            ShardPlanner(2).plan([_load("same"), _load("same")])

    def test_unknown_tenant_in_plan(self):
        plan = ShardPlanner(2).plan([_load("known")])
        with pytest.raises(KeyError):
            plan.shard_of("unknown")

    def test_split_load_partitions_trace(self):
        load = _load("big", n=40)
        pieces = ShardPlanner(4).split_load(load)
        assert len(pieces) == 4
        assert all(piece.tenant == load.tenant for piece in pieces)
        assert sum(piece.trace.n_requests for piece in pieces) == 40

    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardPlanner(0)


class TestSplitFaultTrace:
    def test_routes_by_prefix(self):
        trace = FaultTrace([
            FaultEvent(time_s=1.0, kind="outage",
                       platform="s0/K20c", episode=1),
            FaultEvent(time_s=2.0, kind="restore",
                       platform="s0/K20c", episode=1),
            FaultEvent(time_s=1.5, kind="transient", platform="s1/TX1"),
        ])
        pieces = split_fault_trace(trace, 2)
        assert [event.platform for event in pieces[0]] == ["K20c", "K20c"]
        assert [event.platform for event in pieces[1]] == ["TX1"]

    def test_untouched_shards_get_none(self):
        trace = FaultTrace(
            [FaultEvent(time_s=1.0, kind="transient", platform="s0/K20c")]
        )
        pieces = split_fault_trace(trace, 3)
        assert pieces[1] is None and pieces[2] is None

    def test_none_passes_through(self):
        assert split_fault_trace(None, 3) == [None, None, None]

    def test_bare_name_rejected_with_shards(self):
        trace = FaultTrace(
            [FaultEvent(time_s=1.0, kind="transient", platform="K20c")]
        )
        with pytest.raises(ValueError):
            split_fault_trace(trace, 2)

    def test_bare_name_allowed_single_shard(self):
        trace = FaultTrace(
            [FaultEvent(time_s=1.0, kind="transient", platform="K20c")]
        )
        (piece,) = split_fault_trace(trace, 1)
        assert piece[0].platform == "K20c"

    def test_out_of_range_shard_rejected(self):
        trace = FaultTrace(
            [FaultEvent(time_s=1.0, kind="transient", platform="s5/K20c")]
        )
        with pytest.raises(ValueError):
            split_fault_trace(trace, 2)


class TestShardSpecValidation:
    def test_shard_id_range(self, fleet_spec):
        with pytest.raises(ValueError):
            ShardSpec(shard_id=2, n_shards=2, fleet=fleet_spec,
                      config=RouterConfig(), loads=())
        with pytest.raises(ValueError):
            ShardSpec(shard_id=-1, n_shards=2, fleet=fleet_spec,
                      config=RouterConfig(), loads=())

    def test_label(self, fleet_spec):
        solo = ShardSpec(shard_id=0, n_shards=1, fleet=fleet_spec,
                         config=RouterConfig(), loads=())
        assert solo.label is None
        second = ShardSpec(shard_id=1, n_shards=4, fleet=fleet_spec,
                           config=RouterConfig(), loads=())
        assert second.label == "s1"

    def test_fleet_spec_requires_gpus(self, spec):
        with pytest.raises(ValueError):
            FleetSpec(network="alexnet", spec=spec, gpus=())


class TestCoordinatorInline:
    def test_degenerate_equals_direct_router(self, fleet, fleet_spec):
        loads = [_load("solo", n=30, seed=7)]
        direct = RequestRouter(fleet, RouterConfig()).run(loads)
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=1, inline=True
        ).run(shard_loads=[loads])
        assert outcome.report.fingerprint() == direct.fingerprint()
        assert outcome.rehomed == 0
        assert outcome.dead_shards == ()
        assert outcome.failover_target is None

    def test_two_shards_deterministic_and_qualified(self, fleet_spec):
        shard_loads = [
            [_load("t0", n=25, seed=1)],
            [_load("t1", n=25, seed=2)],
        ]

        def run():
            return FleetCoordinator(
                fleet_spec, RouterConfig(), n_shards=2, seed=5,
                inline=True,
            ).run(shard_loads=shard_loads)

        first, second = run(), run()
        assert first.report.fingerprint() == second.report.fingerprint()
        assert first.seeds == (shard_seed(5, 0), shard_seed(5, 1))
        assert len(set(first.seeds)) == 2
        platforms = {stats.platform for stats in first.report.platforms}
        assert platforms == {"s0/K20c", "s0/TX1", "s1/K20c", "s1/TX1"}
        rids = sorted(
            [r.request.rid for r in first.report.completed]
            + [r.request.rid for r in first.report.rejected]
        )
        assert rids == list(range(first.report.n_offered))
        assert first.report.n_offered == 50

    def test_planner_path_places_all_tenants(self, fleet_spec):
        loads = [_load("tenant-%d" % i, n=8, seed=i) for i in range(6)]
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, inline=True
        ).run(loads=loads)
        assert outcome.report.n_offered == 48
        assert len(outcome.shard_reports) == 2

    def test_run_argument_validation(self, fleet_spec):
        coordinator = FleetCoordinator(fleet_spec, inline=True)
        with pytest.raises(ValueError):
            coordinator.run()
        with pytest.raises(ValueError):
            coordinator.run(loads=[], shard_loads=[[]])
        with pytest.raises(ValueError):
            FleetCoordinator(
                fleet_spec, n_shards=2, inline=True
            ).run(shard_loads=[[]])

    def test_constructor_validation(self, fleet_spec):
        with pytest.raises(ValueError):
            FleetCoordinator(fleet_spec, n_shards=0)
        with pytest.raises(ValueError):
            FleetCoordinator(fleet_spec, max_workers=0)

    def test_failover_rehomes_dead_shard(self, fleet_spec):
        """A fully dead shard loses zero requests: everything it
        rejected is re-adjudicated by the healthy target."""
        shard_loads = [
            [_load("t0", n=20, seed=1)],
            [_load("t1", n=20, seed=2)],
        ]
        events = []
        for episode, gpu in enumerate(("K20c", "TX1"), start=1):
            events.append(FaultEvent(
                time_s=0.001, kind="outage",
                platform=shard_platform(1, gpu), episode=episode,
            ))
            events.append(FaultEvent(
                time_s=500.0, kind="restore",
                platform=shard_platform(1, gpu), episode=episode,
            ))
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, inline=True
        ).run(shard_loads=shard_loads, faults=FaultTrace(events))
        assert outcome.dead_shards == (1,)
        assert outcome.failover_target == 0
        assert outcome.rehomed > 0
        reasons = {r.reason for r in outcome.report.rejected}
        assert not reasons.intersection({"outage", "stranded"})
        assert (
            outcome.report.n_completed + len(outcome.report.rejected)
            == outcome.report.n_offered
            == 40
        )
        rids = sorted(
            [r.request.rid for r in outcome.report.completed]
            + [r.request.rid for r in outcome.report.rejected]
        )
        assert rids == list(range(40))

    def test_stitched_spans(self, fleet_spec):
        shard_loads = [
            [_load("t0", n=10, seed=1)],
            [_load("t1", n=10, seed=2)],
        ]
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, inline=True
        ).run(shard_loads=shard_loads, instrument=True)
        buffer = outcome.buffer
        assert buffer is not None
        roots = buffer.children_of(None)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "run"
        assert root.attrs["shards"] == 2
        shard_runs = [
            span
            for span in buffer.children_of(root.span_id)
            if span.name == "run"
        ]
        assert {span.attrs.get("shard") for span in shard_runs} == {
            "s0", "s1",
        }
        assert root.end_s >= max(span.end_s for span in buffer)

    def test_uninstrumented_run_has_no_buffer(self, fleet_spec):
        outcome = FleetCoordinator(fleet_spec, inline=True).run(
            shard_loads=[[_load("t0", n=5)]]
        )
        assert outcome.buffer is None


class TestShardWorker:
    def test_worker_runs_spec(self, fleet_spec):
        spec = ShardSpec(
            shard_id=0, n_shards=1, fleet=fleet_spec,
            config=RouterConfig(), loads=(_load("w", n=10),),
        )
        result = run_shard(spec)
        assert result.shard_id == 0
        assert result.report.n_offered == 10
        assert result.spans is None

    def test_worker_instrumented_spans(self, fleet_spec):
        spec = ShardSpec(
            shard_id=1, n_shards=2, fleet=fleet_spec,
            config=RouterConfig(), loads=(_load("w", n=10),),
            instrument=True,
        )
        result = run_shard(spec)
        assert result.spans
        run_spans = [s for s in result.spans if s["name"] == "run"]
        assert run_spans and all(
            s["attrs"].get("shard") == "s1" for s in run_spans
        )

class TestSpawnGuard:
    def test_stdin_main_fails_fast(self, fleet_spec, monkeypatch):
        """A __main__ without a real file (stdin script) must raise,
        not hang the spawn pool in a respawn loop."""
        import sys
        import types

        fake_main = types.ModuleType("__main__")
        fake_main.__file__ = "<stdin>"
        monkeypatch.setitem(sys.modules, "__main__", fake_main)
        coordinator = FleetCoordinator(fleet_spec, n_shards=2)
        with pytest.raises(RuntimeError, match="stdin"):
            coordinator.run(shard_loads=[[_load("t0")], [_load("t1")]])


def _fold_run(monkeypatch, case):
    """One inline 4-shard coordinator run, plus the raw (unqualified)
    shard reports the coordinator qualified, in shard order."""
    config = RouterConfig(calibrate=case == "calibrate")
    kwargs = {}
    run_kwargs = {
        "shard_loads": shared_fleet._shard_loads(
            n_requests=40, rate_hz=60.0,
            severity=2.0 if case == "calibrate" else 1.0,
        )
    }
    if case == "chaos":
        run_kwargs["faults"] = shared_fleet._dead_shard_faults()
    if case == "controller":
        kwargs["controller"] = ControllerConfig(kind="ewma")
    if case == "instrumented":
        run_kwargs["instrument"] = True
    seen = []
    qualify = coordinator_module.qualify_report

    def recording(report, shard_id):
        seen.append((report, shard_id))
        return qualify(report, shard_id)

    monkeypatch.setattr(coordinator_module, "qualify_report", recording)
    outcome = shared_fleet._coordinator(config, **kwargs).run(**run_kwargs)
    return outcome, seen


def _same_records(report, oracle):
    """Materialized lists equal the oracle's, events field by field."""
    assert report.completed == oracle.completed
    assert report.rejected == oracle.rejected
    assert report.events.to_dicts() == oracle.events.to_dicts()


class TestColumnarFold:
    """Qualified views and the columnar merge are byte-identical to the
    object-path oracle (``tests/serving/oracle/merge.py``)."""

    @pytest.mark.parametrize(
        "case",
        ["clean", "chaos", "controller", "instrumented", "calibrate"],
    )
    def test_views_and_merge_match_oracle(self, case, monkeypatch):
        outcome, seen = _fold_run(monkeypatch, case)
        assert [shard_id for _report, shard_id in seen] == list(
            range(shared_fleet.N_SHARDS)
        )
        # Streamed first: the columnar sources, before anything
        # materializes.
        views = [streamed_payload(view) for view in outcome.shard_reports]
        merged = streamed_payload(outcome.report)
        oracles = [
            oracle_qualify(report, shard_id) for report, shard_id in seen
        ]
        assert views == [streamed_payload(oracle) for oracle in oracles]
        oracle_merged = merge_reports(oracles)
        assert merged == streamed_payload(oracle_merged)
        if case == "chaos":
            assert outcome.rehomed > 0
        for view, oracle in zip(outcome.shard_reports, oracles):
            _same_records(view, oracle)
        _same_records(outcome.report, oracle_merged)

    def test_merge_of_merges_matches_oracle(self, monkeypatch):
        outcome, seen = _fold_run(monkeypatch, "clean")
        views = list(outcome.shard_reports)
        nested = RouterReport.merge(
            [RouterReport.merge(views[:2]), RouterReport.merge(views[2:])]
        )
        oracle = merge_reports(
            [oracle_qualify(report, shard_id) for report, shard_id in seen]
        )
        assert streamed_payload(nested) == streamed_payload(oracle)
        assert nested.fingerprint() == outcome.report.fingerprint()

    def test_strip_requests_on_a_view(self, fleet):
        """A dead shard's ledger stripped through a view equals the
        same strip over the oracle's qualified copy."""
        loads = [_load("t0", n=20, seed=1), _load("t1", n=10, seed=2)]
        faults = FaultTrace([
            FaultEvent(time_s=0.001, kind="outage", platform=gpu,
                       episode=episode)
            for episode, gpu in enumerate(("K20c", "TX1"), start=1)
        ])
        report = RequestRouter(fleet, RouterConfig()).run(
            loads, faults=faults
        )
        rids = [record.request.rid for record in report.rejected][::2]
        assert rids
        stripped = strip_requests(qualify_report(report, 1), rids)
        oracle = strip_requests(oracle_qualify(report, 1), rids)
        assert streamed_payload(stripped) == streamed_payload(oracle)

    def test_pickled_views_and_merge_carry_qualified_names(
        self, monkeypatch
    ):
        outcome, _seen = _fold_run(monkeypatch, "clean")
        for report in (*outcome.shard_reports, outcome.report):
            payload = streamed_payload(report)
            clone = pickle.loads(pickle.dumps(report))
            assert "_source" not in clone.__dict__
            assert LAZY.issubset(clone.__dict__)
            assert streamed_payload(clone) == payload
        for shard_id, view in enumerate(outcome.shard_reports):
            clone = pickle.loads(pickle.dumps(view))
            prefix = shard_label(shard_id) + "/"
            assert clone.completed and all(
                record.platform.startswith(prefix)
                for record in clone.completed
            )
            assert all(
                event.platform.startswith(prefix)
                for event in clone.events
                if event.platform is not None
            )


class TestCleanRunStaysColumnar:
    def test_no_request_or_event_objects(self, monkeypatch):
        """A clean inline 4-shard run builds no per-request or
        per-event object: every shard report, every view and the
        merged report stay unmaterialized."""
        built = []
        for cls in (Request, CompletedRequest, RejectedRequest, RouterEvent):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        outcome = shared_fleet._coordinator().run(
            shard_loads=shared_fleet._shard_loads(n_requests=40,
                                                  rate_hz=60.0)
        )
        outcome.report.fingerprint()
        outcome.report.to_dict(include_events=False)
        assert outcome.report.n_offered == 40 * shared_fleet.N_SHARDS
        assert built == []
        reports = [outcome.report, *outcome.shard_reports]
        reports += [view._source.report for view in outcome.shard_reports]
        for report in reports:
            assert LAZY.isdisjoint(report.__dict__)
