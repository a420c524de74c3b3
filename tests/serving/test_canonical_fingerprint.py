"""Byte-identity of the streamed canonical payload.

``RouterReport.fingerprint`` hashes the pieces of
``RouterReport.canonical_chunks``, which render the payload chunk by
chunk -- from the materialized object lists, or, on a fresh fast-mode
router report, straight from the loop's raw rows.  The oracle
here is the pre-streaming definition kept as test-only code: build
``to_dict(include_events=True, include_requests=True)``, apply the
cache-temperature filtering, ``json.dumps`` it with sorted keys.  Every
test compares the *bytes*, not just the hash.
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.control import ControllerConfig
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.obs import Instrumentation
from repro.obs.instrument import cache_neutral_obs_section
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    RouterReport,
    Tenant,
    TenantLoad,
)
from repro.serving.canonical import (
    COMPLETED_KEYS,
    EVENT_KEYS,
    REJECTED_KEYS,
    Encoded,
    encode_column,
    encode_mappings,
    encode_repeated,
    encode_rows,
    encode_scalar,
)
from repro.serving.report import (
    CompletedRequest,
    ObjectRecords,
    RejectedRequest,
)
from repro.serving.shard import qualify_report
from repro.serving.vec_router import _E_REJR, VecRouterReport
from repro.workloads import bursty_trace, empty_trace, pareto_trace
from tests.serving.oracle import ReferenceRouter

LAZY = ("completed", "rejected", "events")

#: Router class per loop: the production loop and the test oracle.
ROUTERS = {"reference": ReferenceRouter, "vectorized": RequestRouter}


def oracle_payload(report: RouterReport) -> bytes:
    """The canonical payload as ``fingerprint()`` defined it before it
    streamed: one dict tree, one ``json.dumps`` string."""
    data = report.to_dict(include_events=True, include_requests=True)
    data["events"] = [
        {key: value for key, value in event.items() if key != "seq"}
        for event in data["events"]
        if event["kind"] not in ("compile", "cache_hit")
    ]
    data["event_counts"] = {
        kind: count
        for kind, count in data["event_counts"].items()
        if kind not in ("compile", "cache_hit")
    }
    if report.obs is not None:
        data["obs"] = cache_neutral_obs_section(report.obs)
    if report.control is not None:
        control = dict(report.control)
        prewarm = control.get("prewarm")
        if isinstance(prewarm, dict):
            control["prewarm"] = {"requested": prewarm.get("requested")}
        data["control"] = control
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def streamed_payload(report: RouterReport) -> bytes:
    return "".join(report.canonical_chunks()).encode("utf-8")


def assert_byte_identical(report: RouterReport) -> bytes:
    """Streamed bytes (columnar source when the report is fresh), then
    the oracle (which materializes), then the streamed bytes again
    over the object path: all three must match."""
    streamed = streamed_payload(report)
    fingerprint = report.fingerprint()
    oracle = oracle_payload(report)
    assert streamed == oracle
    assert fingerprint == hashlib.sha1(oracle).hexdigest()
    assert streamed_payload(report) == oracle
    return oracle


def _storm_loads(interactive, background, n=300, seed=42):
    return [
        TenantLoad(
            interactive,
            bursty_trace(
                n_requests=n, rate_hz=400.0, burst_factor=6.0,
                burst_fraction=0.3, seed=seed,
            ),
        ),
        TenantLoad(
            background,
            pareto_trace(
                n_requests=n // 4, rate_hz=100.0, alpha=1.5, seed=seed + 1
            ),
        ),
    ]


@pytest.fixture
def loads(snappy_tenant, background_tenant):
    # Load order differs from name order ("bulk" < "snappy"), so the
    # per-tenant section's name sort is exercised.
    bulk = Tenant("bulk", background_tenant.requirement)
    return _storm_loads(snappy_tenant, bulk)


def _faults(loads, seed=3):
    horizon = max(float(load.trace.arrivals_s[-1]) for load in loads) + 0.5
    return generate_fault_trace(
        ["K20c", "TX1"],
        horizon_s=horizon,
        config=FaultTraceConfig(
            outages=1, sm_failures=1, throttles=1, transients=2
        ),
        seed=seed,
    )


class TestByteIdentity:
    def test_vectorized_fast_mode(self, fleet, loads):
        report = RequestRouter(fleet, RouterConfig()).run(loads)
        assert isinstance(report, VecRouterReport)
        assert_byte_identical(report)

    def test_saturation_bursts(self, fleet, snappy_tenant):
        # Tiny queues under a hot burst: whole runs of arrivals are
        # rejected in one compact row, expanded only when rendered.
        report = RequestRouter(fleet, RouterConfig(queue_limit=2)).run(
            [
                TenantLoad(
                    snappy_tenant,
                    bursty_trace(n_requests=400, rate_hz=5000.0, seed=9),
                )
            ]
        )
        assert any(row[0] == _E_REJR for row in report._source.flat)
        assert_byte_identical(report)

    def test_vectorized_chaos_slow_mode(self, fleet, loads):
        report = RequestRouter(fleet, RouterConfig()).run(loads, faults=_faults(loads))
        assert report.resilience is not None
        assert_byte_identical(report)

    def test_reference(self, fleet, loads):
        ref = ReferenceRouter(fleet, RouterConfig()).run(loads)
        vec = RequestRouter(fleet, RouterConfig()).run(loads)
        assert assert_byte_identical(ref) == assert_byte_identical(vec)

    def test_controller(self, fleet, loads):
        config = ControllerConfig(
            kind="ewma", tick_s=0.05, headroom=2.0, alpha=0.3
        )
        report = RequestRouter(fleet, RouterConfig()).run(
            loads, controller=config.build()
        )
        assert report.control is not None
        assert_byte_identical(report)

    @pytest.mark.parametrize("loop", ["reference", "vectorized"])
    def test_instrumented(self, fleet, loads, loop):
        report = ROUTERS[loop](fleet, RouterConfig()).run(
            loads, obs=Instrumentation()
        )
        assert report.obs is not None
        assert_byte_identical(report)

    def test_merged_and_qualified(self, spec, snappy_tenant,
                                  background_tenant):
        fleet_spec = FleetSpec(
            network="alexnet", spec=spec, gpus=("k20c", "tx1"),
            max_tuning_iterations=8,
        )
        interactive = [
            Tenant(
                "snappy-%d" % shard, snappy_tenant.requirement, priority=1
            )
            for shard in range(2)
        ]
        background = [
            Tenant("bulk-%d" % shard, background_tenant.requirement)
            for shard in range(2)
        ]
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, seed=5, inline=True,
        ).run(
            shard_loads=[
                _storm_loads(interactive[shard], background[shard],
                             n=120, seed=shard)
                for shard in range(2)
            ]
        )
        assert outcome.report.merged_from is not None
        assert_byte_identical(outcome.report)
        for shard_id, shard_report in enumerate(outcome.shard_reports):
            assert_byte_identical(qualify_report(shard_report, shard_id))

    @pytest.mark.parametrize("loop", ["reference", "vectorized"])
    def test_escaped_tenant_names(self, fleet, loop):
        odd = [
            Tenant(
                'café "quoted" \\ tenant',
                TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
                priority=1,
            ),
            Tenant("雪☃ \U0001f600 tab\tnew\nline",
                   TimeRequirement.background()),
        ]
        report = ROUTERS[loop](fleet, RouterConfig()).run(
            _storm_loads(*odd, n=120)
        )
        payload = assert_byte_identical(report)
        assert b"\\u00e9" in payload and b'\\"quoted\\"' in payload

    @pytest.mark.parametrize("loop", ["reference", "vectorized"])
    def test_empty_run(self, fleet, snappy_tenant, loop):
        report = ROUTERS[loop](fleet, RouterConfig()).run(
            [TenantLoad(snappy_tenant, empty_trace())]
        )
        assert report.n_offered == 0
        payload = assert_byte_identical(report)
        assert b'"completed":[]' in payload and b'"rejected":[]' in payload

    @pytest.mark.parametrize("loop", ["reference", "vectorized"])
    def test_all_rejected_run(self, fleet, loop):
        hopeless = Tenant(
            "hopeless", TimeRequirement(imperceptible_s=1e-6, unusable_s=1e-6)
        )
        report = ROUTERS[loop](fleet, RouterConfig()).run(
            [TenantLoad(hopeless, bursty_trace(n_requests=60, seed=4))]
        )
        assert report.n_completed == 0
        assert report.n_rejected == 60
        assert_byte_identical(report)

    def test_backends_agree_on_summary(self, fleet, loads):
        ref = ReferenceRouter(fleet, RouterConfig()).run(loads)
        vec = RequestRouter(fleet, RouterConfig()).run(loads)
        assert vec.per_tenant() == ref.per_tenant()
        assert vec.mean_soc == ref.mean_soc
        assert vec.deadline_hits == ref.deadline_hits
        assert vec.percentile_latency_s(95.0) == ref.percentile_latency_s(95.0)
        assert not set(LAZY) & set(vec.__dict__)


class TestFastModeStructure:
    def _fresh(self, fleet, loads):
        report = RequestRouter(fleet, RouterConfig()).run(loads)
        assert isinstance(report, VecRouterReport)
        return report

    def test_summary_and_fingerprint_never_materialize(self, fleet, loads):
        report = self._fresh(fleet, loads)
        payload = report.to_dict(include_events=False)
        report.fingerprint()
        assert not set(LAZY) & set(report.__dict__)
        assert payload["summary"]["offered"] == report.n_offered > 0

    def test_materialized_fields_switch_to_object_path(self, fleet, loads):
        report = self._fresh(fleet, loads)
        fingerprint = report.fingerprint()
        report.completed  # materialize one lazy field
        assert "completed" in report.__dict__
        assert isinstance(report._records(), ObjectRecords)
        assert report.fingerprint() == fingerprint

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (6, 0.0, "energy must be positive"),
            (5, -1.0, "runtime must be non-negative"),
            (8, 0.0, "threshold > 0"),
        ],
    )
    def test_soc_argument_errors_match_object_path(
        self, fleet, loads, field, value, message
    ):
        report = self._fresh(fleet, loads)
        rows = report._source.completed_rows
        # Corrupt one batch row mid-run (energy per item, finish time
        # or entropy threshold): both sources must raise soc()'s error.
        row = list(rows[len(rows) // 2])
        row[field] = value
        rows[len(rows) // 2] = tuple(row)
        with pytest.raises(ValueError, match=message):
            report.fingerprint()
        with pytest.raises(ValueError, match=message):
            report._source.completed()

    def test_deadline_boundary_counts_as_hit(self, fleet, loads):
        report = self._fresh(fleet, loads)
        cols = report._source.cols
        rows = report._source.completed_rows
        # Finish one batch exactly on its latest request's deadline:
        # ``finish_s <= deadline_s`` is a hit in both sources.
        index = next(
            i for i, row in enumerate(rows)
            if cols.tenants[cols.tenant_index_list[max(row[0])]].name
            == "snappy"
        )
        row = list(rows[index])
        row[5] = cols.deadlines_list[max(row[0])]
        rows[index] = tuple(row)
        streamed = streamed_payload(report)
        oracle = oracle_payload(report)
        assert streamed == oracle
        hit = next(
            r for r in report.completed if r.request.rid == max(row[0])
        )
        assert hit.finish_s == hit.request.deadline_s and hit.deadline_hit

    def test_numpy_scalar_inputs_stay_on_object_path(self, fleet,
                                                      background_tenant):
        # A numpy-typed requirement makes the object path's records
        # carry numpy scalars: ``deadline_hit`` becomes a numpy bool,
        # which ``json`` refuses.  The columnar source would render it
        # happily, so it must step aside and keep the error.
        tenant = Tenant(
            "numpy-typed",
            TimeRequirement(
                imperceptible_s=np.float64(0.1), unusable_s=np.float64(0.5)
            ),
            priority=1,
        )
        report = self._fresh(
            fleet, _storm_loads(tenant, background_tenant, n=120)
        )
        assert isinstance(report._records(), ObjectRecords)
        with pytest.raises(TypeError, match="not JSON serializable"):
            report.fingerprint()
        with pytest.raises(TypeError, match="not JSON serializable"):
            oracle_payload(report)

    def test_fingerprint_peak_below_payload(self, fleet, snappy_tenant,
                                            background_tenant):
        report = self._fresh(
            fleet,
            _storm_loads(snappy_tenant, background_tenant, n=4000, seed=7),
        )
        report.to_dict(include_events=False)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fingerprint = report.fingerprint()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        payload = oracle_payload(report)
        assert fingerprint == hashlib.sha1(payload).hexdigest()
        assert peak < len(payload)


class TestEncoderPrimitives:
    """Column encoders against ``json.dumps`` on awkward values."""

    @staticmethod
    def _json(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize(
        "column",
        [
            [0.1, 1e16, 5e-324, -0.0, 0.0, 1.0, 123456.789],
            [math.nan, math.inf, -math.inf, 2.5],
            [1, -7, 2**70],
            [True, False, True],
            ["plain", "café", 'q"uo\\te', "☃\n"],
            [None, "s0/K20c", None],
            [1, 1.0, True, None, "x"],
            [(1, 2), (), (3,)],
            [(1, "a"), [2.5], {"b": 1, "a": [None]}],
            [np.float64(0.5), np.float64(-0.0)],
        ],
    )
    def test_encode_column_matches_json(self, column):
        assert encode_column(column) == [self._json(v) for v in column]
        assert [encode_scalar(v) for v in column] == [
            self._json(v) for v in column
        ]

    def test_float_arrays_keep_signed_zero_and_nan(self):
        values = np.array(
            [0.0, -0.0, math.nan, 0.0, math.inf, -math.inf, 0.1, 0.1]
        )
        expected = [self._json(v) for v in values.tolist()]
        assert encode_column(values) == expected
        assert encode_repeated(values) == expected
        assert isinstance(encode_repeated(values), Encoded)

    def test_encode_mappings_sorts_keys_and_falls_back(self):
        details = [
            {"zeta": 1, "alpha": 2.5, "mid": None},
            {},
            {"only": "x"},
            {"zeta": 3, "alpha": math.inf, "mid": "y"},
            {2: "two", 1: "one"},
            {"nested": {"b": [1, 2], "a": (None,)}},
        ]
        rendered = encode_mappings(details)
        assert isinstance(rendered, Encoded)
        assert rendered == [self._json(d) for d in details]

    def test_record_keys_are_the_sorted_to_dict_keys(self, fleet,
                                                     snappy_tenant):
        report = RequestRouter(fleet, RouterConfig()).run(
            [TenantLoad(snappy_tenant, bursty_trace(n_requests=20, seed=1))]
        )
        completed = report.completed[0].to_dict()
        assert COMPLETED_KEYS == tuple(sorted(completed))
        assert REJECTED_KEYS == tuple(
            sorted(RejectedRequest(report.completed[0].request, "x").to_dict())
        )
        event = report.events[0].to_dict()
        del event["seq"]
        assert EVENT_KEYS == tuple(sorted(event))
        assert isinstance(report.completed[0], CompletedRequest)

    def test_encode_rows_matches_json_objects(self):
        keys = ("a", "b%s", "c")
        columns = [[1, 2], ["x", None], [0.5, math.nan]]
        records = [dict(zip(keys, row)) for row in zip(*columns)]
        assert encode_rows(keys, columns) == [self._json(r) for r in records]
        with pytest.raises(ValueError, match="at least one key"):
            encode_rows((), [])
