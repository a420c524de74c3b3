"""The deadline-aware multi-tenant request router.

:class:`RequestRouter` is a deterministic discrete-event simulation
sitting above a fleet of deployments and below the workload traces:
arrivals, platform-free, flush-timer, fault-injection, retry,
breaker-probe and control-tick events are processed in strict
(time, sequence) order, so a run is bit-identical given the same
seeds and configuration -- asserted via
:meth:`~repro.serving.report.RouterReport.fingerprint`.

Per event the router:

* **admits** the request against bounded queues, deadline
  feasibility, degrade-before-reject and -- when resilience is on --
  platform health and circuit-breaker state,
* **routes** it to the platform whose current (batch-plan,
  perforation-level) rung promises the best SoC,
* **assembles batches** per platform under the same
  :class:`~repro.core.runtime.server.FlushPolicy` rule the
  single-platform :class:`~repro.core.runtime.server.InferenceServer`
  uses (full batch or flush timeout),
* and lets each platform's
  :class:`~repro.serving.degradation.DegradationController` walk the
  overload ladder as the backlog grows and drains.

Fault injection (:mod:`repro.faults`) plugs into the same event loop:
a :class:`~repro.faults.events.FaultTrace` passed to :meth:`run`
mutates per-platform :class:`~repro.faults.health.PlatformHealth` at
its events' timestamps.  Structural faults (SM failures, bandwidth
loss) re-target the platform's ladder at the degraded architecture
through the engine -- a plan-cache miss keyed on the degraded arch,
so occupancy and optSM are recomputed against the surviving hardware;
thermal throttles scale rungs through the DVFS model without a
recompile; outages and transients fail batches outright.  Batches
therefore complete *at finish time*, not at launch: a batch in flight
when its platform dies is failed and its requests -- along with the
queue -- are re-dispatched across the surviving fleet (failover),
retried with deadline-capped backoff, or rejected with an explicit
reason.  Nothing is ever silently lost: every run ends by checking
that completed plus rejected requests equal the input count.

With ``resilience=False`` the router keeps the
every-platform-is-healthy worldview while the faults still bite --
the chaos benchmark's baseline, demonstrating how one dead platform
silently poisons a health-blind fleet.

The event loop itself lives in :mod:`repro.serving.vec_router`; this
module holds the configuration and the per-run platform-state build
it drives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.fleet import FleetManager
from repro.core.framework import Deployment
from repro.core.runtime.server import default_flush_timeout
from repro.faults.events import FaultTrace
from repro.faults.health import PlatformHealth
from repro.obs.instrument import Instrumentation
from repro.serving.degradation import DegradationController, DegradationLadder
from repro.serving.dispatch import POLICIES, PlatformState
from repro.serving.report import PlatformStats, RouterReport
from repro.serving.request import TenantLoad
from repro.serving.resilience import CircuitBreaker

__all__ = ["RouterConfig", "RequestRouter", "ROUTER_BACKENDS"]

#: The one router loop.  ``backend=`` keeps this single legal value
#: because the repository benchmark still passes it.
ROUTER_BACKENDS = ("vectorized",)


def check_backend(backend: str) -> None:
    """Refuse any ``backend=`` value but the one loop's name."""
    if backend not in ROUTER_BACKENDS:
        raise ValueError(
            "unknown router backend %r (known: %s)"
            % (backend, ", ".join(ROUTER_BACKENDS))
        )


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one router instance.

    ``high_water_batches`` / ``low_water_batches`` are expressed in
    units of the platform's rung-0 batch execution time, so the same
    config is meaningful on a 6 ms server GPU and a 40 ms mobile one.

    The resilience block only matters for fault-injected runs:
    ``resilience=False`` disables health-aware dispatch, retries,
    failover and the circuit breakers while faults still apply -- the
    chaos benchmark's "assume everything is healthy" baseline.
    """

    queue_limit: int = 64
    flush_timeout_s: Optional[float] = None  # default: per deployment
    max_levels: int = 4
    batch_growth: int = 2
    max_batch: int = 64
    min_gain: float = 1.02
    high_water_batches: float = 3.0
    low_water_batches: float = 0.75
    window: int = 2
    degradation: bool = True
    degrade_on_admission: bool = True
    policy: str = "soc"
    #: Feed observed entropies to the deployments' calibrators while
    #: serving at rung 0 (off by default: the router's beyond-threshold
    #: rungs would otherwise fight the calibrator).
    calibrate: bool = False
    # -- resilience ------------------------------------------------------
    resilience: bool = True
    #: Retry budget per request for transient batch failures.
    retry_limit: int = 2
    retry_backoff_s: float = 0.05
    retry_backoff_growth: float = 2.0
    #: Consecutive batch failures that trip a platform's breaker open.
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before half-opening for a probe.
    breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        # The float checks are written as ``not <valid>`` so that NaN,
        # which fails every comparison, is rejected too.
        if self.policy not in POLICIES:
            raise ValueError(
                "unknown policy %r (known: %s)"
                % (self.policy, ", ".join(POLICIES))
            )
        if self.queue_limit < 1:
            raise ValueError(
                "queue_limit must be >= 1, got %r" % (self.queue_limit,)
            )
        if self.flush_timeout_s is not None and not self.flush_timeout_s > 0:
            raise ValueError(
                "flush_timeout_s must be positive (or None for the "
                "per-deployment default), got %r" % (self.flush_timeout_s,)
            )
        if self.max_levels < 1:
            raise ValueError(
                "max_levels must be >= 1, got %r" % (self.max_levels,)
            )
        if self.batch_growth < 1:
            raise ValueError(
                "batch_growth must be >= 1, got %r" % (self.batch_growth,)
            )
        if self.max_batch < 1:
            raise ValueError(
                "max_batch must be >= 1, got %r" % (self.max_batch,)
            )
        if not self.min_gain > 1.0:
            raise ValueError(
                "min_gain must exceed 1.0, got %r" % (self.min_gain,)
            )
        if not 0 <= self.low_water_batches < self.high_water_batches:
            raise ValueError(
                "need 0 <= low_water_batches < high_water_batches, got "
                "low_water_batches=%r, high_water_batches=%r"
                % (self.low_water_batches, self.high_water_batches)
            )
        if self.window < 1:
            raise ValueError("window must be >= 1, got %r" % (self.window,))
        if self.retry_limit < 0:
            raise ValueError(
                "retry_limit must be >= 0, got %r" % (self.retry_limit,)
            )
        if not self.retry_backoff_s > 0:
            raise ValueError(
                "retry_backoff_s must be positive, got %r"
                % (self.retry_backoff_s,)
            )
        if not self.retry_backoff_growth >= 1.0:
            raise ValueError(
                "retry_backoff_growth must be >= 1.0, got %r"
                % (self.retry_backoff_growth,)
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                "breaker_threshold must be >= 1, got %r"
                % (self.breaker_threshold,)
            )
        if not self.breaker_cooldown_s > 0:
            raise ValueError(
                "breaker_cooldown_s must be positive, got %r"
                % (self.breaker_cooldown_s,)
            )


class RequestRouter:
    """Routes multi-tenant traffic across a fleet of deployments."""

    def __init__(
        self,
        deployments: Union[FleetManager, Mapping[str, Deployment]],
        config: Optional[RouterConfig] = None,
        backend: str = "vectorized",
    ) -> None:
        check_backend(backend)
        if isinstance(deployments, FleetManager):
            deployments = deployments.deploy_all()
        if not deployments:
            raise ValueError("router needs at least one deployment")
        self.deployments: Dict[str, Deployment] = {
            name: deployments[name] for name in sorted(deployments)
        }
        self.config = config if config is not None else RouterConfig()

    # -- run -------------------------------------------------------------
    def run(
        self,
        loads: Sequence[TenantLoad],
        faults: Optional[FaultTrace] = None,
        obs: Optional[Instrumentation] = None,
        controller: Optional[object] = None,
    ) -> RouterReport:
        """Serve every tenant's trace; returns the aggregate report.

        Each call is an independent simulation: platform state is
        rebuilt from the deployments (compilation being engine-cached,
        repeat runs are cheap) and nothing carries over between runs.
        ``faults`` optionally subjects the run to a chaos schedule;
        the report then carries :class:`ResilienceStats`.  ``obs``
        optionally observes the run (spans + metrics); the report then
        carries an ``obs`` section and the instrumentation retains the
        full trace buffer and metrics registry for export.  One
        instrumentation instance observes one run.

        ``controller`` optionally attaches a predictive control plane
        (duck-typed to :class:`repro.control.plane.ControlPlane`): the
        router notifies it of every arrival, fires its fixed-cadence
        control ticks as ordinary simulation events, and lets it
        pre-warm plan-cache entries, escalate degradation ladders
        ahead of forecast load, and command per-platform DVFS states.
        Degradation ladders are then built *lazily* so the controller's
        pre-warm decides which rungs compile ahead of dispatch.  One
        controller instance observes one run; the report then carries
        a ``control`` section.
        """
        # cycle-breaker: the loop's repro.sim.vec columns import
        # repro.serving.request, whose package init imports this module.
        from repro.serving.vec_router import run_vectorized

        return run_vectorized(
            self, loads, faults=faults, obs=obs, controller=controller
        )

    # -- setup -----------------------------------------------------------
    def _build_states(self, lazy: bool = False) -> Dict[str, PlatformState]:
        config = self.config
        states: Dict[str, PlatformState] = {}
        for name, deployment in self.deployments.items():
            ladder = DegradationLadder(
                deployment,
                max_levels=config.max_levels if config.degradation else 1,
                batch_growth=config.batch_growth,
                max_batch=config.max_batch,
                min_gain=config.min_gain,
                lazy=lazy,
            )
            base_time = ladder[0].exec_time_s
            controller = DegradationController(
                n_levels=len(ladder),
                high_water_s=config.high_water_batches * base_time,
                low_water_s=config.low_water_batches * base_time,
                window=config.window,
                enabled=config.degradation,
            )
            flush_timeout = (
                config.flush_timeout_s
                if config.flush_timeout_s is not None
                else default_flush_timeout(deployment)
            )
            states[name] = PlatformState(
                name=name,
                deployment=deployment,
                ladder=ladder,
                controller=controller,
                flush_timeout_s=flush_timeout,
                health=PlatformHealth(base=deployment.arch),
                breaker=(
                    CircuitBreaker(
                        failure_threshold=config.breaker_threshold,
                        cooldown_s=config.breaker_cooldown_s,
                    )
                    if config.resilience
                    else None
                ),
                base_ladder=ladder,
            )
        return states

    def _retarget_ladder(self, state: PlatformState) -> None:
        """Recompile the platform's ladder against its current
        (possibly degraded) architecture.

        Every rung keeps its healthy (batch, perforation) shape but is
        recompiled for the degraded chip -- a compile-cache miss keyed
        on the degraded architecture's name, recomputing occupancy and
        optSM for the surviving SMs.  At full structural health the
        original ladder object is restored (and re-degrading to a
        previously seen health state is a pure cache hit).
        """
        deployment = state.deployment
        arch = state.health.architecture()
        if arch is deployment.arch:
            state.ladder = state.base_ladder
            return
        engine = deployment.engine
        rungs = []
        for rung in state.base_ladder.all_rungs():
            plan = engine.compile_with_batch(
                deployment.network,
                rung.batch,
                rung.perforation,
                arch=arch,
            )
            report = engine.execute(
                plan,
                power_gating=deployment.power_gating,
                use_priority_sm=deployment.use_priority_sm,
            )
            rungs.append(
                replace(
                    rung,
                    plan=plan,
                    exec_time_s=report.total_time_s,
                    energy_j=report.total_energy_joules,
                )
            )
        state.ladder = DegradationLadder.from_rungs(deployment, rungs)

    # -- reporting --------------------------------------------------------
    def _platform_stats(
        self, states: Dict[str, PlatformState], horizon: float
    ) -> List[PlatformStats]:
        stats = []
        for name in sorted(states):
            state = states[name]
            stats.append(
                PlatformStats(
                    platform=name,
                    gpu=state.deployment.arch.name,
                    batches=state.batches,
                    requests=state.requests_served,
                    busy_s=state.busy_s,
                    utilization=(
                        state.busy_s / horizon if horizon > 0 else 0.0
                    ),
                    energy_j=state.energy_j,
                    mean_level=state.mean_level(),
                    peak_level=state.controller.peak_level,
                    final_level=state.controller.level,
                    failed_batches=state.failed_batches,
                )
            )
        return stats
