"""Reference placement: SoC-scored candidates and queue ordering.

The :class:`Dispatcher` scores a request's candidate assignments --
one per platform, at that platform's current ladder level, i.e. a
concrete (platform, batch-plan, perforation-level) triple -- by
*predicted* SoC: the analytical time/energy numbers of the rung's
compiled plan plus a deterministic queueing estimate, pushed through
the paper's Eq. 15.  The highest predicted SoC wins (ties broken by
latency, then platform name); a ``fifo`` policy that ignores SoC and
priorities is the baseline the overload benchmark compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.satisfaction import soc
from repro.serving.dispatch import POLICIES, PlatformState
from repro.serving.request import Request

__all__ = ["Candidate", "Dispatcher", "backlog_s", "order_queue"]


def backlog_s(state: PlatformState, now: float) -> float:
    """Outstanding work in seconds: remaining busy time plus the
    queued batches' execution time at the current rung."""
    rung = state.rung
    queued_batches = math.ceil(len(state.queue) / rung.batch)
    return max(state.busy_until - now, 0.0) + queued_batches * rung.exec_time_s


def order_queue(state: PlatformState, policy: str) -> None:
    """Apply the dispatch policy's queue ordering in place."""
    if policy == "fifo":
        state.queue.sort(key=lambda r: r.rid)
    else:
        state.queue.sort(key=lambda r: (-r.tenant.priority, r.deadline_s, r.rid))


@dataclass(frozen=True)
class Candidate:
    """One scored (platform, batch-plan, perforation-level) assignment."""

    platform: str
    level: int
    batch: int
    predicted_latency_s: float
    predicted_soc: float
    predicted_soc_time: float

    @property
    def feasible(self) -> bool:
        """Whether the prediction lands inside the usable region."""
        return self.predicted_soc_time > 0.0


class Dispatcher:
    """Scores and picks candidate assignments across the fleet."""

    def __init__(self, platforms: Dict[str, PlatformState], policy: str = "soc") -> None:
        if policy not in POLICIES:
            raise ValueError(
                "unknown policy %r (known: %s)" % (policy, ", ".join(POLICIES))
            )
        #: Platforms in deterministic (name) order.
        self.platforms = {name: platforms[name] for name in sorted(platforms)}
        self.policy = policy

    def score(
        self,
        state: PlatformState,
        request: Request,
        now: float,
        level: Optional[int] = None,
    ) -> Candidate:
        """Predict the outcome of routing ``request`` to ``state``.

        The queueing estimate is deliberately simple and deterministic:
        remaining busy time, plus one rung execution per full batch
        already queued ahead, plus the flush timeout when the request
        would not complete a batch by itself, plus its own batch's
        execution.
        """
        level = state.controller.level if level is None else level
        rung = state.rung_at(level)
        queued = len(state.queue)
        wait_s = max(state.busy_until - now, 0.0)
        batches_ahead = queued // rung.batch
        fills_batch = (queued + 1) % rung.batch == 0
        assembly_s = 0.0 if fills_batch else state.flush_timeout_s
        latency = (
            wait_s
            + batches_ahead * rung.exec_time_s
            + assembly_s
            + rung.exec_time_s
        )
        breakdown = soc(
            runtime_s=latency,
            requirement=request.tenant.requirement,
            entropy=rung.entropy * request.difficulty,
            entropy_threshold=state.deployment.entropy_threshold,
            energy_joules=rung.energy_per_item_j,
        )
        return Candidate(
            platform=state.name,
            level=level,
            batch=rung.batch,
            predicted_latency_s=latency,
            predicted_soc=breakdown.value,
            predicted_soc_time=breakdown.soc_time,
        )

    def candidates(
        self,
        request: Request,
        now: float,
        among: Optional[Sequence[str]] = None,
    ) -> List[Candidate]:
        """Score every (optionally restricted) platform for a request."""
        names = sorted(among) if among is not None else list(self.platforms)
        return [
            self.score(self.platforms[name], request, now) for name in names
        ]

    def choose(
        self,
        request: Request,
        now: float,
        among: Optional[Sequence[str]] = None,
    ) -> Optional[Candidate]:
        """The best candidate under the active policy (None when no
        platform is eligible)."""
        scored = self.candidates(request, now, among)
        if not scored:
            return None
        if self.policy == "fifo":
            key = lambda c: (c.predicted_latency_s, c.platform)  # noqa: E731
        else:
            key = lambda c: (-c.predicted_soc, c.predicted_latency_s, c.platform)  # noqa: E731
        return sorted(scored, key=key)[0]
