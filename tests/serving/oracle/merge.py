"""The object-path report merge and shard qualification (test-only
oracle).

These are the original :meth:`RouterReport.merge` and
:func:`~repro.serving.shard.qualify_report` bodies: they build every
renumbered ``CompletedRequest`` / ``RejectedRequest`` and every
qualified ``RouterEvent`` as objects.  The production fold reads
record columns instead; ``tests/serving/test_report_merge.py`` and
``tests/serving/test_shard.py`` require its ``canonical_chunks()``
to be byte-identical to these.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.obs.instrument import merge_obs_sections
from repro.serving.events import EventLog, RouterEvent
from repro.serving.report import ResilienceStats, RouterReport
from repro.serving.shard.planner import shard_platform

__all__ = ["merge_reports", "qualify_report"]

#: Event-detail keys whose values name platforms.
_PLATFORM_DETAIL_KEYS = ("origin", "platform")


def qualify_report(report: RouterReport, shard_id: int) -> RouterReport:
    """A copy of one shard's report with every platform name
    qualified as ``s<shard_id>/<platform>``."""
    completed = [
        replace(record, platform=shard_platform(shard_id, record.platform))
        for record in report.completed
    ]
    platforms = [
        replace(stats, platform=shard_platform(shard_id, stats.platform))
        for stats in report.platforms
    ]
    events = []
    for event in report.events:
        detail = dict(event.detail)
        for key in _PLATFORM_DETAIL_KEYS:
            if key in detail:
                detail[key] = shard_platform(shard_id, str(detail[key]))
        platform = event.platform
        if platform is not None:
            platform = shard_platform(shard_id, platform)
        events.append(
            replace(event, platform=platform, detail=detail)
        )
    return RouterReport(
        completed=completed,
        rejected=list(report.rejected),
        platforms=platforms,
        events=EventLog.from_events(events),
        horizon_s=report.horizon_s,
        resilience=report.resilience,
        obs=report.obs,
        control=report.control,
    )


def merge_reports(reports: Sequence[RouterReport]) -> RouterReport:
    """Fold reports exactly as :meth:`RouterReport.merge` does, over
    object lists: flatten to leaves, sort them by fingerprint, renumber
    every terminal record by a stable ``(arrival_s, tenant)`` sort and
    interleave events by ``(time_s, leaf, seq)``."""
    reports = list(reports)
    if not reports:
        raise ValueError("RouterReport.merge needs at least one report")
    if len(reports) == 1:
        return reports[0]
    leaves: List[RouterReport] = []
    for report in reports:
        leaves.extend(report.merged_from or (report,))
    leaves.sort(key=lambda leaf: leaf.fingerprint())

    rid_maps: List[Dict[int, int]] = [{} for _ in leaves]
    keyed: List[Tuple[float, str, int, int]] = []
    for index, leaf in enumerate(leaves):
        requests = sorted(
            [record.request for record in leaf.completed]
            + [record.request for record in leaf.rejected],
            key=lambda request: request.rid,
        )
        for request in requests:
            keyed.append(
                (request.arrival_s, request.tenant.name, index, request.rid)
            )
    keyed.sort(key=lambda item: (item[0], item[1]))
    for new_rid, (_arrival, _tenant, index, old_rid) in enumerate(keyed):
        if old_rid in rid_maps[index]:
            raise ValueError(
                "request id %d appears twice in one merged report"
                % (old_rid,)
            )
        rid_maps[index][old_rid] = new_rid

    def renumber(index: int, record):
        request = record.request
        return replace(
            record,
            request=replace(request, rid=rid_maps[index][request.rid]),
        )

    completed = [
        renumber(index, record)
        for index, leaf in enumerate(leaves)
        for record in leaf.completed
    ]
    completed.sort(key=lambda record: record.request.rid)
    rejected = [
        renumber(index, record)
        for index, leaf in enumerate(leaves)
        for record in leaf.rejected
    ]
    rejected.sort(key=lambda record: record.request.rid)

    horizon_s = max(leaf.horizon_s for leaf in leaves)
    stats = [
        leaf.resilience for leaf in leaves if leaf.resilience is not None
    ]
    sections = [leaf.obs for leaf in leaves if leaf.obs is not None]
    controls = [leaf.control for leaf in leaves if leaf.control is not None]
    return RouterReport(
        completed=completed,
        rejected=rejected,
        platforms=RouterReport._merge_platforms(leaves, horizon_s),
        events=_merge_events(leaves, rid_maps),
        horizon_s=horizon_s,
        resilience=ResilienceStats.merge(stats) if stats else None,
        obs=merge_obs_sections(sections) if sections else None,
        control=(
            RouterReport._merge_control_sections(controls)
            if controls
            else None
        ),
        merged_from=tuple(leaves),
    )


def _merge_events(
    leaves: Sequence[RouterReport],
    rid_maps: Sequence[Dict[int, int]],
) -> EventLog:
    """Interleave leaf event logs by (time, leaf, local seq), remapping
    request ids onto the merged numbering."""
    entries: List[Tuple[float, int, int, RouterEvent]] = []
    for index, leaf in enumerate(leaves):
        for event in leaf.events:
            entries.append((event.time_s, index, event.seq, event))
    entries.sort(key=lambda item: (item[0], item[1], item[2]))
    merged: List[RouterEvent] = []
    for _time_s, index, _seq, event in entries:
        try:
            request_ids = tuple(
                rid_maps[index][rid] for rid in event.request_ids
            )
        except KeyError as error:
            raise ValueError(
                "event %r references request id %s with no terminal "
                "record in its report" % (event.kind, error)
            ) from None
        merged.append(replace(event, request_ids=request_ids))
    return EventLog.from_events(merged)
