"""Differential harness: the router loop vs its reference oracle.

The router loop (:mod:`repro.serving.vec_router`) is an array program
derived from the object-per-event reference loop, which survives as
the test-only oracle in ``tests/serving/oracle``.  The contract is
*bit-identical* ``RouterReport`` fingerprints -- the SHA-1 over every
routing decision, event and request record -- on every seed, trace
shape, config knob, fault schedule, instrumentation mode and control
plane.  Hypothesis draws trace families (MMPP storms, Pareto heavy
tails, diurnal sinusoids, chaos-injected runs) and every draw must
fingerprint identically through both loops.  Keep the oracle until
the golden corpus (``tests/goldens/router_fingerprints.json``) is
judged sufficient on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement
from repro.faults import (
    FaultEvent,
    FaultTrace,
    FaultTraceConfig,
    generate_fault_trace,
)
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.obs import Instrumentation
from repro.serving import (
    ROUTER_BACKENDS,
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.workloads import (
    RequestTrace,
    bursty_trace,
    diurnal_trace,
    pareto_trace,
)
from tests.serving import router_cases
from tests.serving.oracle import ReferenceRouter, reference_loop
from tests.serving.test_canonical_fingerprint import (
    oracle_payload,
    streamed_payload,
)

#: Arrival rate used by the fixed-rate differential traces; high
#: enough to overload the two-platform AlexNet fleet and exercise the
#: degradation ladder and saturation rejection.
RATE_HZ = 400.0

#: Immutable tenant for the hypothesis-driven tests (a module-level
#: constant rather than the function-scoped fixture, which hypothesis
#: would not reset between generated examples).
SNAPPY = Tenant(
    "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
    priority=1,
)


def _trace(family, n, seed):
    if family == "mmpp":
        return bursty_trace(
            n_requests=n, rate_hz=RATE_HZ, burst_factor=6.0,
            burst_fraction=0.3, seed=seed,
        )
    if family == "pareto":
        return pareto_trace(
            n_requests=n, rate_hz=RATE_HZ, alpha=1.5, seed=seed
        )
    return diurnal_trace(
        n_requests=n, base_rate_hz=RATE_HZ / 2.0, amplitude=0.6,
        period_s=1.0, seed=seed,
    )


def _run_both(fleet, loads, config=None, faults=None, obs_pair=None):
    config = config if config is not None else RouterConfig()
    kwargs_a = {}
    kwargs_b = {}
    if faults is not None:
        kwargs_a["faults"] = faults
        kwargs_b["faults"] = faults
    if obs_pair is not None:
        kwargs_a["obs"], kwargs_b["obs"] = obs_pair
    ref = ReferenceRouter(fleet, config).run(loads, **kwargs_a)
    vec = RequestRouter(fleet, config).run(loads, **kwargs_b)
    return ref, vec


def _filtered_events(report):
    """The event log minus cache-temperature noise: raw sequence
    numbers and engine compile/cache-hit relays (the same filter
    ``fingerprint()`` applies)."""
    data = report.to_dict(include_events=True)
    return [
        {key: value for key, value in event.items() if key != "seq"}
        for event in data["events"]
        if event["kind"] not in ("compile", "cache_hit")
    ]


class TestTraceFamilies:
    @settings(max_examples=10, deadline=None)
    @given(
        family=st.sampled_from(["mmpp", "pareto", "diurnal"]),
        n=st.integers(min_value=30, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fingerprints_bit_identical(self, fleet, family, n, seed):
        loads = [TenantLoad(SNAPPY, _trace(family, n, seed))]
        ref, vec = _run_both(fleet, loads)
        assert vec.fingerprint() == ref.fingerprint()

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(min_value=30, max_value=100),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fault_seed=st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_chaos_injected_bit_identical(self, fleet, n, seed, fault_seed):
        loads = [TenantLoad(SNAPPY, _trace("mmpp", n, seed))]
        horizon = float(loads[0].trace.arrivals_s[-1]) + 0.5
        faults = generate_fault_trace(
            ["K20c", "TX1"],
            horizon_s=horizon,
            config=FaultTraceConfig(
                outages=1, sm_failures=1, throttles=1, transients=2
            ),
            seed=fault_seed,
        )
        ref, vec = _run_both(fleet, loads, faults=faults)
        assert vec.fingerprint() == ref.fingerprint()

    def test_retry_landing_on_a_finish_time(self, fleet):
        """A retry whose backoff ends exactly when a platform's batch
        finishes (0.7532551808022938 + exec == 0.7083781071701379 +
        0.05 here) must wait for that batch to land.  Both loops used
        to launch over it and lose its request."""
        loads = [TenantLoad(SNAPPY, _trace("mmpp", 99, 162044))]
        horizon = float(loads[0].trace.arrivals_s[-1]) + 0.5
        faults = generate_fault_trace(
            ["K20c", "TX1"],
            horizon_s=horizon,
            config=FaultTraceConfig(
                outages=1, sm_failures=1, throttles=1, transients=2
            ),
            seed=2048,
        )
        ref, vec = _run_both(fleet, loads, faults=faults)
        assert ref.n_offered == vec.n_offered == 99
        assert vec.fingerprint() == ref.fingerprint()


    @settings(max_examples=8, deadline=None)
    @given(
        family=st.sampled_from(["mmpp", "pareto", "diurnal"]),
        n=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        name=st.text(min_size=1, max_size=12),
    )
    def test_streamed_payload_byte_identical(
        self, fleet, family, n, seed, name
    ):
        """The loop's fresh report streams its payload from raw rows;
        the oracle streams it from objects; both must equal
        the one-string ``json.dumps`` oracle byte for byte, whatever
        the tenant's name (quotes, escapes, non-ASCII) or trace size
        (empty included)."""
        tenant = Tenant(name, SNAPPY.requirement, priority=1)
        loads = [TenantLoad(tenant, _trace(family, n, seed))]
        ref, vec = _run_both(fleet, loads)
        streamed = streamed_payload(vec)
        assert streamed == streamed_payload(ref) == oracle_payload(ref)


class TestConfigMatrix:
    @pytest.mark.parametrize(
        "config",
        [
            RouterConfig(),
            RouterConfig(policy="fifo"),
            RouterConfig(degradation=False),
            RouterConfig(degradation=False, policy="fifo"),
            RouterConfig(degrade_on_admission=False),
            RouterConfig(calibrate=True),
            RouterConfig(resilience=False),
            RouterConfig(retry_limit=0),
            RouterConfig(queue_limit=8),
            RouterConfig(flush_timeout_s=0.001),
            RouterConfig(max_levels=2, batch_growth=3),
        ],
        ids=lambda c: "deg%d-%s-res%d-q%d" % (
            c.degradation, c.policy, c.resilience, c.queue_limit
        ),
    )
    def test_config_knobs_bit_identical(
        self, fleet, snappy_tenant, config
    ):
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 150, 42))]
        ref, vec = _run_both(fleet, loads, config=config)
        assert vec.fingerprint() == ref.fingerprint()
        assert _filtered_events(vec) == _filtered_events(ref)

    def test_multi_tenant_priority_mix(
        self, fleet, snappy_tenant, background_tenant
    ):
        """Two tenants with distinct priorities: the dispatch queue's
        sort key is no longer the identity permutation, so this
        exercises the keyed-sort path of both loops."""
        loads = [
            TenantLoad(snappy_tenant, _trace("mmpp", 120, 1)),
            TenantLoad(background_tenant, _trace("pareto", 80, 2)),
        ]
        ref, vec = _run_both(fleet, loads)
        assert vec.fingerprint() == ref.fingerprint()
        assert _filtered_events(vec) == _filtered_events(ref)


class TestObsExports:
    def test_obs_sections_identical(self, fleet, snappy_tenant):
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 150, 42))]
        # Warm the engine caches first: compile/cache-hit relay counts
        # track cache temperature, not routing behaviour, and would
        # otherwise differ between the first and second run.
        RequestRouter(fleet, RouterConfig()).run(loads)
        obs_ref, obs_vec = Instrumentation(), Instrumentation()
        ref, vec = _run_both(
            fleet, loads, obs_pair=(obs_ref, obs_vec)
        )
        assert vec.fingerprint() == ref.fingerprint()
        assert obs_vec.report_section() == obs_ref.report_section()

    def test_obs_chaos_sections_identical(self, fleet, snappy_tenant):
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 120, 7))]
        horizon = float(loads[0].trace.arrivals_s[-1]) + 0.5
        faults = generate_fault_trace(
            ["K20c", "TX1"],
            horizon_s=horizon,
            config=FaultTraceConfig(outages=1, transients=3),
            seed=3,
        )
        RequestRouter(fleet, RouterConfig()).run(loads, faults=faults)
        obs_ref, obs_vec = Instrumentation(), Instrumentation()
        ref, vec = _run_both(
            fleet, loads, faults=faults, obs_pair=(obs_ref, obs_vec)
        )
        assert vec.fingerprint() == ref.fingerprint()
        assert obs_vec.report_section() == obs_ref.report_section()


class TestControlPlane:
    """Controller runs: ticks, pre-warm, forecast degradation and DVFS
    on lazy ladders, alone and with chaos and instrumentation."""

    @pytest.mark.parametrize("name", router_cases.CONTROLLER_CASES)
    def test_controller_cases_bit_identical(self, fleet, name):
        case = router_cases.CASES[name]
        # Warm the engine caches first: compile/cache-hit relays and
        # prewarm hits track cache temperature, not routing behaviour.
        router_cases.run_case(RequestRouter, fleet, case)
        ref, obs_ref = router_cases.run_case(ReferenceRouter, fleet, case)
        vec, obs_vec = router_cases.run_case(RequestRouter, fleet, case)
        assert vec.fingerprint() == ref.fingerprint()
        assert vec.to_dict(include_events=True) == ref.to_dict(
            include_events=True
        )
        assert vec.control == ref.control
        if case.obs:
            assert obs_vec.report_section() == obs_ref.report_section()

    def test_truncating_ladder_cold_compiles_identically(self, spec):
        """Cold engines: every rung compiles where the oracle compiles
        it -- same compile events, same prewarm misses -- while the
        controller escalates past the ``min_gain`` cut."""
        case = router_cases.CASES["trunc-ewma"]
        reports = []
        for router_class in (ReferenceRouter, RequestRouter):
            fleet = FleetManager(
                alexnet(), spec, architectures=[K20C, JETSON_TX1],
                max_tuning_iterations=8,
            )
            fleet.deploy_all()
            reports.append(router_cases.run_case(router_class, fleet, case)[0])
        ref, vec = reports
        assert vec.to_dict(include_events=True) == ref.to_dict(
            include_events=True
        )
        assert vec.control == ref.control
        assert ref.events.counts["compile"] > 0
        peak = {stats.platform: stats.peak_level for stats in vec.platforms}
        # K20c's ladder ends at level 1, yet its controller went deeper.
        assert peak["K20c"] > 1


class TestSeam:
    def test_unknown_backend_rejected(self, fleet):
        # The old loop's name is gone from src/ too.
        for backend in ("simd", "reference"):
            with pytest.raises(ValueError, match="unknown router backend"):
                RequestRouter(fleet, RouterConfig(), backend=backend)

    def test_backends_registry(self):
        assert ROUTER_BACKENDS == ("vectorized",)

    def test_coordinator_rejects_unknown_backend(self, spec):
        with pytest.raises(ValueError, match="unknown router backend"):
            FleetCoordinator(
                FleetSpec(
                    network="alexnet", spec=spec, gpus=("k20c", "tx1")
                ),
                RouterConfig(),
                n_shards=1,
                backend="simd",
            )

    def test_coordinator_backends_merge_identically(
        self, spec, snappy_tenant
    ):
        fleet_spec = FleetSpec(
            network="alexnet", spec=spec, gpus=("k20c", "tx1")
        )
        shard_loads = [
            [TenantLoad(snappy_tenant, _trace("mmpp", 60, seed))]
            for seed in (11, 12)
        ]

        def merged(**backend):
            return FleetCoordinator(
                fleet_spec, RouterConfig(), n_shards=2, seed=42,
                inline=True, **backend,
            ).run(shard_loads=shard_loads).report.fingerprint()

        with reference_loop():
            reference = merged()
        assert merged() == reference
        assert merged(backend="vectorized") == reference


class TestReportPayloads:
    def test_full_payloads_identical(self, fleet, snappy_tenant):
        """Beyond the fingerprint: completed/rejected ledgers, platform
        rows and summary scalars are exactly equal (floats included --
        the loop must be bit-exact, not close)."""
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 200, 9))]
        ref, vec = _run_both(fleet, loads)
        ref_dict = ref.to_dict(include_requests=True, include_events=False)
        vec_dict = vec.to_dict(include_requests=True, include_events=False)
        for payload in (ref_dict, vec_dict):
            # Engine compile/cache-hit relay counts track cache
            # temperature, not routing behaviour.
            for kind in ("compile", "cache_hit"):
                payload["event_counts"].pop(kind, None)
        assert vec_dict == ref_dict
        assert _filtered_events(vec) == _filtered_events(ref)
        assert vec.mean_soc == ref.mean_soc
        assert np.array_equal(
            np.asarray([r.soc for r in vec.completed]),
            np.asarray([r.soc for r in ref.completed]),
        )


#: Deadline-free tenant for the adversarial draws (module-level for the
#: same reason as :data:`SNAPPY`).
BULK = Tenant("bulk", TimeRequirement.background())


@st.composite
def adversarial_runs(draw):
    """Inputs at the edges of the router's contract.

    Up to three tenants, each with no request, exactly one, or a few
    sharing a handful of arrival clocks (duplicates within and across
    tenants); ``queue_limit`` as small as 1; optionally every platform
    of the fleet out at once, restored or not.
    """
    clocks = st.sampled_from((0.0, 0.0005, 0.002, 0.002, 0.01))
    loads = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        shape = draw(st.sampled_from(("empty", "single", "duplicates")))
        if shape == "empty":
            arrivals = []
        elif shape == "single":
            arrivals = [draw(clocks)]
        else:
            arrivals = sorted(
                draw(st.lists(clocks, min_size=2, max_size=12))
            )
        base = SNAPPY if draw(st.booleans()) else BULK
        tenant = Tenant(
            "%s-%d" % (base.name, index),
            base.requirement,
            priority=draw(st.integers(min_value=0, max_value=2)),
        )
        loads.append(
            TenantLoad(
                tenant,
                RequestTrace(
                    arrivals_s=np.array(arrivals, dtype=float),
                    difficulty=np.array(
                        draw(
                            st.lists(
                                st.sampled_from((0.5, 1.0, 2.0)),
                                min_size=len(arrivals),
                                max_size=len(arrivals),
                            )
                        ),
                        dtype=float,
                    ),
                ),
            )
        )
    faults = None
    if draw(st.booleans()):
        outage_s = draw(st.sampled_from((0.0, 0.001, 0.002)))
        restore_s = draw(st.sampled_from((None, 0.005, 0.05)))
        events = []
        for episode, platform in enumerate(("K20c", "TX1"), start=1):
            events.append(
                FaultEvent(time_s=outage_s, kind="outage",
                           platform=platform, episode=episode)
            )
            if restore_s is not None:
                events.append(
                    FaultEvent(time_s=restore_s, kind="restore",
                               platform=platform, episode=episode)
                )
        faults = FaultTrace(events)
    config = RouterConfig(queue_limit=draw(st.sampled_from((1, 2, 64))))
    return loads, faults, config


def _outcome(router_class, fleet, loads, faults, config):
    """The run's fingerprint, or the ``ValueError`` it raised."""
    try:
        report = router_class(fleet, config).run(loads, faults=faults)
    except ValueError as error:
        return ("ValueError", str(error))
    return ("fingerprint", report.fingerprint())


class TestAdversarialInputs:
    """Same ``ValueError`` or same fingerprint, on inputs at the edges:
    duplicate arrival clocks, empty and single-request tenants, an
    all-platform outage and ``queue_limit=1``."""

    @settings(max_examples=30, deadline=None)
    @given(case=adversarial_runs())
    def test_same_error_or_same_fingerprint(self, fleet, case):
        loads, faults, config = case
        assert _outcome(
            RequestRouter, fleet, loads, faults, config
        ) == _outcome(ReferenceRouter, fleet, loads, faults, config)

    def test_all_platform_outage_with_one_slot_queues(self, fleet):
        """The fixed worst case: every platform dies before the first
        arrival and never returns, with one queue slot per platform."""
        loads = [
            TenantLoad(
                Tenant("snappy-0", SNAPPY.requirement, priority=1),
                RequestTrace(
                    arrivals_s=np.array([0.001, 0.001, 0.002]),
                    difficulty=np.ones(3),
                ),
            ),
            TenantLoad(
                Tenant("bulk-1", BULK.requirement),
                RequestTrace(
                    arrivals_s=np.array([0.001]), difficulty=np.ones(1)
                ),
            ),
        ]
        faults = FaultTrace([
            FaultEvent(time_s=0.0, kind="outage", platform=platform,
                       episode=episode)
            for episode, platform in enumerate(("K20c", "TX1"), start=1)
        ])
        config = RouterConfig(queue_limit=1)
        vec = _outcome(RequestRouter, fleet, loads, faults, config)
        assert vec == _outcome(ReferenceRouter, fleet, loads, faults, config)
        assert vec[0] == "fingerprint"
