"""Deterministic post-processing of per-shard reports.

Three transforms bridge worker-local reports into one global ledger:

* :func:`qualify_report` -- a view of a shard's report that prefixes
  every platform name with the shard's ``s<k>/`` tag as it is read, so
  the merged report keeps shards disjoint (the merge layer treats
  equal platform names as the same device and would otherwise sum two
  shards' replicas into one row).
* :func:`strip_requests` -- erase re-homed requests from a dead
  shard's ledger so the global report counts each request exactly
  once (the failover target owns their terminal records).
* :func:`stitch_spans` -- re-parent every shard's span tree under one
  synthetic global ``run`` span with densely re-based span ids,
  appending zero-width ``supervise`` spans that record the
  supervision history (attempts, failures) per shard.

All three are pure functions of their inputs; they introduce
no ordering of their own beyond shard-id order, so the coordinator's
output is a deterministic function of the shard results.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.obs.span import Span, TraceBuffer
from repro.serving.events import EventLog
from repro.serving.report import (
    CompletedRequest,
    LazyReport,
    RejectedRequest,
    RouterReport,
    TableRecords,
    event_log,
)
from repro.serving.shard.planner import shard_platform
from repro.serving.shard.worker import ShardResult

__all__ = ["qualify_report", "stitch_spans", "strip_requests"]

#: Event-detail keys whose values name platforms and must be
#: re-qualified alongside the event's own ``platform`` field
#: (failover events carry ``origin``; stranded rejects carry
#: ``platform`` in the detail because the event-level field names the
#: rescue target).
_PLATFORM_DETAIL_KEYS = ("origin", "platform")


def qualify_report(report: RouterReport, shard_id: int) -> RouterReport:
    """A view of one shard's report with every platform name
    qualified as ``s<shard_id>/<platform>``.

    The view shares the shard report's record source and maps names
    as it reads: platform stats rows, completed-request placements,
    and events (both the ``platform`` field and the platform-valued
    detail keys).  Rejected records carry no platform and pass
    through.  Its ``completed`` / ``rejected`` / ``events`` lists
    materialize only when read (see
    :class:`~repro.serving.report.LazyReport`).
    """
    return LazyReport(
        platforms=[
            replace(stats, platform=shard_platform(shard_id, stats.platform))
            for stats in report.platforms
        ],
        horizon_s=report.horizon_s,
        resilience=report.resilience,
        obs=report.obs,
        control=report.control,
        _source=_QualifiedSource(report, shard_id),
    )


class _QualifiedSource:
    """The records of a shard report, platform names qualified."""

    def __init__(self, report: RouterReport, shard_id: int) -> None:
        self.report = report
        self.shard_id = shard_id
        self._records: Optional[TableRecords] = None

    def _name(self, platform: str) -> str:
        return shard_platform(self.shard_id, platform)

    def records(self) -> TableRecords:
        if self._records is None:
            base = self.report._records()
            self._records = TableRecords(
                base.completed_table().renamed(self._name),
                base.rejected_table(),
                partial(self._event_rows, base),
                base.event_counts(),
            )
        return self._records

    def _event_rows(self, base) -> Iterator[tuple]:
        for time_s, kind, tenant, platform, rids, detail in base.event_rows():
            if platform is not None:
                platform = self._name(platform)
            if "origin" in detail or "platform" in detail:
                detail = dict(detail)
                for key in _PLATFORM_DETAIL_KEYS:
                    if key in detail:
                        detail[key] = self._name(str(detail[key]))
            yield (time_s, kind, tenant, platform, rids, detail)

    def completed(self) -> List[CompletedRequest]:
        return [
            replace(record, platform=self._name(record.platform))
            for record in self.report.completed
        ]

    def rejected(self) -> List[RejectedRequest]:
        return list(self.report.rejected)

    def events(self) -> EventLog:
        return event_log(self.records().event_rows())


def strip_requests(report: RouterReport, rids: Iterable[int]) -> RouterReport:
    """Erase a set of (worker-local) request ids from one report.

    Used on a chaos-dead shard after its outage-rejected requests are
    re-homed: their terminal records now live on the failover target,
    so the dead shard must stop claiming them.  Terminal records
    (completed and rejected) for those rids are dropped; events lose
    the rids from their ``request_ids`` and vanish entirely when that
    leaves a previously non-empty id list empty (events that never
    referenced requests, like ``fault`` markers, stay).  Platform
    stats and resilience counters are left as observed -- they
    describe work the shard really did before dying.
    """
    gone = set(rids)
    if not gone:
        return report
    completed = [
        record for record in report.completed if record.request.rid not in gone
    ]
    rejected = [
        record for record in report.rejected if record.request.rid not in gone
    ]
    events = []
    for event in report.events:
        if event.request_ids:
            kept = tuple(
                rid for rid in event.request_ids if rid not in gone
            )
            if not kept:
                continue
            event = replace(event, request_ids=kept)
        events.append(event)
    return RouterReport(
        completed=completed,
        rejected=rejected,
        platforms=list(report.platforms),
        events=EventLog.from_events(events),
        horizon_s=report.horizon_s,
        resilience=report.resilience,
        obs=report.obs,
        control=report.control,
    )


def stitch_spans(
    results: Sequence[ShardResult],
    horizon_s: float,
    n_shards: int,
    supervision: Optional[object] = None,
) -> TraceBuffer:
    """One global trace from every shard's exported spans.

    A synthetic root ``run`` span (id 0, ``shards`` attr) covers the
    whole merged horizon; each shard's spans keep their internal
    structure but get densely re-based ids (shards in shard-id order)
    and their roots re-parented onto the global root.  The result is
    a well-formed :class:`TraceBuffer` -- exportable through the
    standard span/Chrome exporters and fingerprintable like any
    single-run trace.

    When a supervision report (anything with ``records`` carrying
    ``shard_id``/``status``/``attempts``/``failures``) is given, one
    zero-width ``supervise`` span per shard is appended under the
    root, with one child per recorded failure.  They are zero-width
    and carry no wall-clock attrs on purpose: the *shape* of the
    supervision history is deterministic under the fault plan, so the
    stitched trace stays byte-stable run to run, while ``supervise``
    sits in :data:`~repro.obs.span.CACHE_SENSITIVE_SPANS` so trace
    fingerprints ignore supervision entirely.
    """
    stitched: List[Span] = []
    end_s = horizon_s
    offset = 1
    for result in sorted(results, key=lambda r: r.shard_id):
        if not result.spans:
            continue
        for data in result.spans:
            span = Span.from_dict(data)
            parent = span.parent_id
            stitched.append(
                Span(
                    span_id=span.span_id + offset,
                    parent_id=0 if parent is None else parent + offset,
                    name=span.name,
                    start_s=span.start_s,
                    end_s=span.end_s,
                    attrs=dict(span.attrs),
                )
            )
            end_s = max(end_s, span.end_s)
        offset += len(result.spans)
    if supervision is not None:
        records = sorted(
            getattr(supervision, "records", ()),
            key=lambda record: record.shard_id,
        )
        for record in records:
            record_id = offset
            offset += 1
            stitched.append(
                Span(
                    span_id=record_id,
                    parent_id=0,
                    name="supervise",
                    start_s=0.0,
                    end_s=0.0,
                    attrs={
                        "shard": "s%d" % record.shard_id,
                        "status": record.status,
                        "attempts": record.attempts,
                    },
                )
            )
            for failure in record.failures:
                stitched.append(
                    Span(
                        span_id=offset,
                        parent_id=record_id,
                        name="supervise",
                        start_s=0.0,
                        end_s=0.0,
                        attrs={
                            "shard": "s%d" % failure.shard_id,
                            "attempt": failure.attempt,
                            "kind": failure.kind,
                        },
                    )
                )
                offset += 1
    buffer = TraceBuffer()
    buffer.add(
        Span(
            span_id=0,
            parent_id=None,
            name="run",
            start_s=0.0,
            end_s=end_s,
            attrs={"shards": n_shards},
        )
    )
    for span in stitched:
        buffer.add(span)
    return buffer
