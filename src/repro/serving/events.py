"""Structured router event log.

Every decision the router takes -- admission, rejection, dispatch,
degradation moves, completions, and the engine's compile/cache
activity it observes through the hook bus -- lands here as one
:class:`RouterEvent` with a simulated timestamp and a monotone
sequence number.  The log is the router's audit trail: reports are
aggregations over it plus the completion records, and the determinism
guarantee is asserted by fingerprinting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["RouterEvent", "EventLog"]


@dataclass(frozen=True)
class RouterEvent:
    """One timestamped router decision."""

    seq: int
    time_s: float
    kind: str
    tenant: Optional[str] = None
    platform: Optional[str] = None
    request_ids: Tuple[int, ...] = ()
    detail: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-data view with a stable key order."""
        return {
            "seq": self.seq,
            "time_s": self.time_s,
            "kind": self.kind,
            "tenant": self.tenant,
            "platform": self.platform,
            "request_ids": list(self.request_ids),
            "detail": {key: self.detail[key] for key in sorted(self.detail)},
        }


class EventLog:
    """Ordered, append-only collection of router events."""

    #: The event vocabulary.  ``enqueue``/``reject`` come from
    #: admission, ``dispatch``/``complete`` from the serving loop,
    #: ``degrade``/``restore`` from the degradation controllers, and
    #: ``compile``/``cache_hit`` are relayed engine hook-bus events.
    #: The fault/resilience kinds: ``fault`` marks an injected
    #: :class:`~repro.faults.events.FaultEvent` being applied,
    #: ``batch_failed`` a dispatched batch that did not complete,
    #: ``retry`` a failed request re-entering admission after backoff,
    #: ``failover`` a request rescued off a dead platform, and the
    #: ``breaker_*`` kinds are circuit-breaker state transitions.
    #: The control-plane kinds: ``control_tick`` is one predictive
    #: controller cadence firing, ``prewarm`` a plan-cache entry
    #: planted ahead of need, and ``dvfs`` a commanded frequency move.
    KINDS = (
        "enqueue",
        "reject",
        "dispatch",
        "complete",
        "degrade",
        "restore",
        "compile",
        "cache_hit",
        "fault",
        "batch_failed",
        "retry",
        "failover",
        "breaker_open",
        "breaker_half_open",
        "breaker_close",
        "control_tick",
        "prewarm",
        "dvfs",
    )

    def __init__(self) -> None:
        self._events: List[RouterEvent] = []

    def record(
        self,
        kind: str,
        time_s: float,
        tenant: Optional[str] = None,
        platform: Optional[str] = None,
        request_ids: Tuple[int, ...] = (),
        **detail,
    ) -> RouterEvent:
        """Append one event; returns it."""
        if kind not in self.KINDS:
            raise ValueError(
                "unknown event kind %r (known: %s)"
                % (kind, ", ".join(self.KINDS))
            )
        event = RouterEvent(
            seq=len(self._events),
            time_s=time_s,
            kind=kind,
            tenant=tenant,
            platform=platform,
            request_ids=tuple(request_ids),
            detail=detail,
        )
        self._events.append(event)
        return event

    @classmethod
    def from_events(cls, events: "Iterable[RouterEvent]") -> "EventLog":
        """Rebuild a log from existing events, renumbering sequence ids.

        The merge/qualification paths construct transformed copies of
        events from several logs; this re-bases their ``seq`` numbers
        onto one monotone sequence in the order given (which the
        caller must have made deterministic).
        """
        log = cls()
        for event in events:
            if event.kind not in cls.KINDS:
                raise ValueError(
                    "unknown event kind %r (known: %s)"
                    % (event.kind, ", ".join(cls.KINDS))
                )
            log._events.append(
                RouterEvent(
                    seq=len(log._events),
                    time_s=event.time_s,
                    kind=event.kind,
                    tenant=event.tenant,
                    platform=event.platform,
                    request_ids=tuple(event.request_ids),
                    detail=dict(event.detail),
                )
            )
        return log

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RouterEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> RouterEvent:
        return self._events[index]

    def of_kind(self, kind: str) -> List[RouterEvent]:
        """All events of one kind, in order."""
        if kind not in self.KINDS:
            raise ValueError(
                "unknown event kind %r (known: %s)"
                % (kind, ", ".join(self.KINDS))
            )
        return [event for event in self._events if event.kind == kind]

    @property
    def counts(self) -> Dict[str, int]:
        """Event counts per kind (kinds with zero events included)."""
        counts = {kind: 0 for kind in self.KINDS}
        for event in self._events:
            counts[event.kind] += 1
        return counts

    def to_dicts(self) -> List[dict]:
        """The whole log as plain data (JSON-serializable)."""
        return [event.to_dict() for event in self._events]
