"""Tenants, requests, and multi-tenant load descriptions.

A *tenant* is one traffic source sharing the fleet: it carries its own
time requirement (the deadline the router scores SoC against), a
priority (higher preempts lower in queue ordering), and -- at run time
-- a request trace.  The paper's three task classes map directly onto
tenants via :func:`Tenant.from_spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.satisfaction import TimeRequirement
from repro.core.user_input import ApplicationSpec, infer_requirement
from repro.workloads.generators import RequestTrace

__all__ = ["Tenant", "Request", "TenantLoad", "merge_loads"]


@dataclass(frozen=True)
class Tenant:
    """One traffic source sharing the fleet.

    Attributes
    ----------
    name:
        Unique tenant identifier (used in reports and event logs).
    requirement:
        The satisfaction-vs-runtime curve requests are scored against;
        ``requirement.unusable_s`` is the hard deadline.
    priority:
        Higher-priority tenants are dequeued first (ties broken by
        earliest deadline, then arrival order).
    """

    name: str
    requirement: TimeRequirement
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")

    @classmethod
    def from_spec(cls, spec: ApplicationSpec, priority: int = 0) -> "Tenant":
        """Derive a tenant from an application spec (requirement
        inference per the paper's Section IV.A lookup)."""
        return cls(
            name=spec.name,
            requirement=infer_requirement(spec).time,
            priority=priority,
        )


@dataclass(frozen=True)
class Request:
    """One inference request as the router sees it."""

    rid: int
    tenant: Tenant
    arrival_s: float
    difficulty: float = 1.0

    @property
    def deadline_s(self) -> float:
        """Absolute completion deadline (infinite for background)."""
        return self.arrival_s + self.tenant.requirement.unusable_s

    @property
    def has_deadline(self) -> bool:
        """Whether the tenant's requirement bounds completion at all."""
        return math.isfinite(self.deadline_s)


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's offered traffic for a routing run."""

    tenant: Tenant
    trace: RequestTrace

    def __post_init__(self) -> None:
        if not isinstance(self.tenant, Tenant):
            raise ValueError(
                "tenant must be a Tenant, got %s"
                % (type(self.tenant).__name__,)
            )
        if not isinstance(self.trace, RequestTrace):
            raise ValueError(
                "trace must be a RequestTrace, got %s"
                % (type(self.trace).__name__,)
            )


def merge_loads(loads: Sequence[TenantLoad]) -> List[Request]:
    """Interleave every tenant's trace into one arrival-ordered stream.

    Ordering is total and deterministic: (arrival time, tenant name,
    per-tenant position); request ids are assigned along that order.
    """
    seen = set()
    for load in loads:
        if load.tenant.name in seen:
            raise ValueError("duplicate tenant %r" % (load.tenant.name,))
        seen.add(load.tenant.name)
    keyed = []
    for load in loads:
        trace = load.trace
        for position in range(trace.n_requests):
            keyed.append(
                (
                    float(trace.arrivals_s[position]),
                    load.tenant.name,
                    position,
                    load.tenant,
                    float(trace.difficulty[position]),
                )
            )
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        Request(rid=rid, tenant=tenant, arrival_s=arrival, difficulty=difficulty)
        for rid, (arrival, _name, _pos, tenant, difficulty) in enumerate(keyed)
    ]
