"""Differential harness: the vectorized router twin vs the reference.

The vectorized backend (:mod:`repro.serving.vec_router`) re-implements
``RequestRouter.run`` as an array program; its merge contract is
*bit-identical* ``RouterReport`` fingerprints -- the SHA-1 over every
routing decision, event and request record -- on every seed, trace
shape, config knob, fault schedule and instrumentation mode.  These
tests are the oracle gate the rewrite merges behind: hypothesis draws
trace families (MMPP storms, Pareto heavy tails, diurnal sinusoids,
chaos-injected runs) and every draw must fingerprint identically
through both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
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
from repro.serving.shard import ShardSpec
from repro.workloads import bursty_trace, diurnal_trace, pareto_trace
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
    ref = RequestRouter(fleet, config).run(loads, **kwargs_a)
    vec = RequestRouter(fleet, config, backend="vectorized").run(
        loads, **kwargs_b
    )
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
        """The fresh vectorized report streams its payload from raw
        rows; the reference streams it from objects; both must equal
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
        exercises the keyed-sort path of both backends."""
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


class TestSeam:
    def test_unknown_backend_rejected(self, fleet):
        with pytest.raises(ValueError, match="unknown router backend"):
            RequestRouter(fleet, RouterConfig(), backend="simd")

    def test_backends_registry(self):
        assert ROUTER_BACKENDS == ("reference", "vectorized")

    def test_vectorized_rejects_control_plane(
        self, fleet, snappy_tenant
    ):
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 30, 42))]
        router = RequestRouter(
            fleet, RouterConfig(), backend="vectorized"
        )
        with pytest.raises(ValueError, match="control plane"):
            router.run(loads, controller=object())

    def test_shard_spec_carries_backend(self, spec):
        fleet_spec = FleetSpec(
            network="alexnet", spec=spec, gpus=("k20c", "tx1")
        )
        shard = ShardSpec(
            shard_id=0,
            n_shards=1,
            fleet=fleet_spec,
            config=RouterConfig(),
            loads=(),
            seed=42,
            backend="vectorized",
        )
        assert shard.backend == "vectorized"
        assert ShardSpec(
            shard_id=0,
            n_shards=1,
            fleet=fleet_spec,
            config=RouterConfig(),
            loads=(),
            seed=42,
        ).backend == "reference"

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
        fingerprints = {}
        for backend in ROUTER_BACKENDS:
            outcome = FleetCoordinator(
                fleet_spec, RouterConfig(), n_shards=2, seed=42,
                inline=True, backend=backend,
            ).run(shard_loads=shard_loads)
            fingerprints[backend] = outcome.report.fingerprint()
        assert fingerprints["vectorized"] == fingerprints["reference"]


class TestReportPayloads:
    def test_full_payloads_identical(self, fleet, snappy_tenant):
        """Beyond the fingerprint: completed/rejected ledgers, platform
        rows and summary scalars are exactly equal (floats included --
        the vectorized path must be bit-exact, not close)."""
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
