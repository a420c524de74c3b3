"""Reference admission: bounded queues, deadline feasibility, and
degrade-before-reject.

Every arriving request passes through the
:class:`AdmissionController` before it may occupy queue space:

1. **Backpressure and health** -- platforms whose queue is at
   ``queue_limit`` are closed, and (when the controller is
   health-aware) so are platforms that are down or whose circuit
   breaker is open; if every platform is closed the request is
   rejected with ``saturated`` (explicit backpressure instead of
   unbounded queueing).
2. **Placement** -- the dispatcher scores the open platforms and picks
   the best candidate under the active policy.
3. **Feasibility** -- if even the best candidate is predicted to blow
   through the tenant's hard deadline, the controller first tries to
   *degrade*: the smallest deeper ladder level on any open platform
   whose predicted outcome is usable wins, and that platform's
   controller is escalated to it (accuracy-for-latency before giving
   up).  Only when no rung anywhere can make the deadline is the
   request rejected as ``infeasible``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serving.request import Request
from tests.serving.oracle.dispatch import Candidate, Dispatcher

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of admitting one request."""

    admitted: bool
    reason: str  # "ok", "ok-degraded", "saturated" or "infeasible"
    candidate: Optional[Candidate] = None

    @property
    def platform(self) -> Optional[str]:
        """The platform the request was routed to (None on reject)."""
        return self.candidate.platform if self.candidate else None


class AdmissionController:
    """Bounded-queue, deadline-aware admission for the fleet router."""

    def __init__(
        self,
        dispatcher: Dispatcher,
        queue_limit: int,
        degrade_on_admission: bool = True,
        health_aware: bool = True,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.dispatcher = dispatcher
        self.queue_limit = queue_limit
        self.degrade_on_admission = degrade_on_admission
        #: When False the controller routes as if every platform were
        #: permanently healthy -- the pre-fault-layer behaviour the
        #: chaos benchmark uses as its baseline.
        self.health_aware = health_aware

    def open_platforms(self, now: float = 0.0) -> list:
        """Names of platforms with queue space left (and, when
        health-aware, that are up with an admitting breaker)."""
        names = []
        for name, state in self.dispatcher.platforms.items():
            if len(state.queue) >= self.queue_limit:
                continue
            if self.health_aware and not state.available(now):
                continue
            names.append(name)
        return names

    def admit(self, request: Request, now: float) -> AdmissionDecision:
        """Decide one request's fate; escalates a degradation
        controller when that is what admission takes."""
        open_names = self.open_platforms(now)
        if not open_names:
            return AdmissionDecision(admitted=False, reason="saturated")
        best = self.dispatcher.choose(request, now, among=open_names)
        if best.feasible or not request.has_deadline:
            return AdmissionDecision(admitted=True, reason="ok", candidate=best)
        rescue = self._rescue(request, now, open_names)
        if rescue is not None:
            state = self.dispatcher.platforms[rescue.platform]
            state.controller.escalate_to(rescue.level)
            return AdmissionDecision(
                admitted=True, reason="ok-degraded", candidate=rescue
            )
        return AdmissionDecision(admitted=False, reason="infeasible")

    def _rescue(self, request: Request, now: float, open_names) -> Optional[Candidate]:
        """The best feasible deeper-rung candidate, if any.

        Each platform contributes its *shallowest* feasible deeper
        level (degrade no further than needed); among those the usual
        policy ordering picks the winner.
        """
        if not self.degrade_on_admission:
            return None
        feasible = []
        for name in open_names:
            state = self.dispatcher.platforms[name]
            if not state.controller.enabled:
                continue
            for level in range(state.controller.level + 1, len(state.ladder)):
                candidate = self.dispatcher.score(state, request, now, level)
                if candidate.feasible:
                    feasible.append(candidate)
                    break
        if not feasible:
            return None
        return sorted(
            feasible,
            key=lambda c: (-c.predicted_soc, c.predicted_latency_s, c.platform),
        )[0]
