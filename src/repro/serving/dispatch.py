"""Fleet dispatch state: per-platform accounting and in-flight batches.

Each platform of the fleet is wrapped in a :class:`PlatformState`
carrying its deployment, degradation ladder/controller, bounded queue
and outstanding-work accounting.  The router loop
(:mod:`repro.serving.vec_router`) scores each request's candidate
assignment -- one per platform, at that platform's current ladder
level, i.e. a concrete (platform, batch-plan, perforation-level)
triple -- by *predicted* SoC: the analytical time/energy numbers of
the rung's compiled plan plus a deterministic queueing estimate,
pushed through the paper's Eq. 15.  The highest predicted SoC wins
(ties broken by latency, then platform name); a ``fifo`` policy that
ignores SoC and priorities is kept as the baseline the overload
benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

from repro.gpu.dvfs import FrequencyState, scaled_runtime
from repro.serving.degradation import (
    DegradationController,
    DegradationLadder,
    DegradationRung,
)
from repro.serving.request import Request
from repro.serving.resilience import CircuitBreaker

if TYPE_CHECKING:  # duck-typed, avoids importing the framework here
    from repro.core.framework import Deployment
    from repro.faults.health import PlatformHealth

__all__ = ["InFlightBatch", "PlatformState", "POLICIES"]

#: Dispatch policies: ``soc`` scores candidates by predicted SoC and
#: orders queues by (priority, deadline); ``fifo`` routes to the
#: shortest predicted wait and serves strictly in arrival order.
POLICIES = ("soc", "fifo")


@dataclass
class InFlightBatch:
    """One launched batch whose outcome has not yet landed.

    Completion records are materialized when the batch *finishes*, not
    when it launches, so a platform outage (or a transient execution
    failure) can still fail the batch and hand its requests to the
    retry/failover machinery.
    """

    requests: List[Request]
    rung: DegradationRung
    start_s: float
    finish_s: float
    #: Decided at launch (outage underway, or an armed transient
    #: fault): the batch will fail at ``finish_s`` instead of
    #: completing.
    will_fail: bool = False
    #: Open ``execute_batch`` span handle while instrumentation is
    #: observing the run (None otherwise); closed at the batch's
    #: completion/failure/abandonment.
    obs_span: Optional[object] = None


@dataclass
class PlatformState:
    """One platform's live serving state inside the router."""

    name: str
    deployment: "Deployment"
    ladder: DegradationLadder
    controller: DegradationController
    flush_timeout_s: float
    #: Queued requests, as request ids in the router loop.
    queue: list = field(default_factory=list)
    busy_until: float = 0.0
    #: Earliest still-armed flush timer (None when nothing is pending).
    pending_flush_at: Optional[float] = None
    # -- fault / resilience state ---------------------------------------
    #: Live hardware health (None outside fault-injected runs).
    health: Optional["PlatformHealth"] = None
    #: Controller-commanded DVFS state (None at nominal frequency, so
    #: controller-free runs are untouched by the scaling below).
    frequency: Optional[FrequencyState] = None
    #: Per-platform circuit breaker (None when resilience is off).
    breaker: Optional[CircuitBreaker] = None
    #: The ladder compiled against the *healthy* architecture; kept so
    #: recoveries restore it without recompiling.
    base_ladder: Optional[DegradationLadder] = None
    #: The batch currently executing (None while idle).
    inflight: Optional[InFlightBatch] = None
    #: Armed transient faults: each dooms one future batch launch.
    transient_pending: int = 0
    # -- cumulative accounting -----------------------------------------
    batches: int = 0
    requests_served: int = 0
    busy_s: float = 0.0
    energy_j: float = 0.0
    level_sum: int = 0
    failed_batches: int = 0

    def rung_at(self, level: int) -> DegradationRung:
        """The effective rung at a ladder level: the compiled numbers,
        scaled by any active thermal throttle, then by the control
        plane's commanded DVFS state (compute-bound runtime stretch,
        static power tracking V^2)."""
        rung = self.ladder[level]
        if self.health is not None:
            rung = self.health.scale_rung(rung)
        if self.frequency is not None:
            rung = replace(
                rung,
                exec_time_s=scaled_runtime(rung.exec_time_s, self.frequency),
                energy_j=rung.energy_j * self.frequency.static_power_scale,
            )
        return rung

    @property
    def rung(self) -> DegradationRung:
        """The rung currently selected by the degradation controller."""
        return self.rung_at(self.controller.level)

    def available(self, now: float) -> bool:
        """Whether a health-aware router may dispatch here: the
        platform is up and its breaker admits traffic."""
        if self.health is not None and not self.health.up:
            return False
        if self.breaker is not None and not self.breaker.allows(now):
            return False
        return True

    def mean_level(self) -> float:
        """Mean degradation level over all dispatched batches."""
        if self.batches == 0:
            return 0.0
        return self.level_sum / self.batches
