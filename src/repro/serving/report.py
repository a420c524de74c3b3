"""Router reports: per-tenant and per-platform aggregation.

The :class:`RouterReport` is the routing run's durable outcome: every
completion and rejection, per-tenant SoC / deadline hit-rate /
rejection-rate, per-platform utilization / energy / degradation
profile, and the full event log.  ``to_dict`` / ``to_json`` give a
stable plain-data schema, and :meth:`RouterReport.fingerprint` hashes
the canonical JSON (streamed by :mod:`repro.serving.canonical`) -- the
determinism guarantee ("bit-identical runs") is asserted by comparing
fingerprints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.satisfaction import SoCBreakdown
from repro.obs.instrument import cache_neutral_obs_section, merge_obs_sections
from repro.obs.metrics import linear_percentile
from repro.serving.canonical import (
    CHUNK,
    COMPLETED_KEYS,
    REJECTED_KEYS,
    encode_repeated,
    encode_report,
    event_chunks,
)
from repro.serving.events import EventLog, RouterEvent
from repro.serving.request import Request

__all__ = [
    "CompletedRequest",
    "RejectedRequest",
    "TenantStats",
    "PlatformStats",
    "ResilienceStats",
    "RouterReport",
    "LazyReport",
    "RecordTable",
    "TableRecords",
    "check_conservation",
    "event_log",
]


def check_conservation(
    expected: int, completed: int, rejected: int, where: str
) -> None:
    """Postcondition of every routing run: each input request ends
    exactly once, completed or rejected.

    ``expected`` is the *input* count -- the loads' trace lengths --
    never a count derived from the report itself, so a request that
    vanishes inside a self-consistent report still fails the check.
    """
    if completed + rejected != expected:
        raise RuntimeError(
            "%s lost request conservation: %d completed + %d rejected "
            "!= %d input requests" % (where, completed, rejected, expected)
        )


@dataclass(frozen=True)
class CompletedRequest:
    """One served request's end-to-end accounting."""

    request: Request
    platform: str
    level: int
    batch: int
    start_s: float
    finish_s: float
    entropy: float
    soc: SoCBreakdown

    @property
    def latency_s(self) -> float:
        """Arrival to batch completion."""
        return self.finish_s - self.request.arrival_s

    @property
    def deadline_hit(self) -> bool:
        """Whether the tenant's hard deadline was met."""
        return self.finish_s <= self.request.deadline_s

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "rid": self.request.rid,
            "tenant": self.request.tenant.name,
            "platform": self.platform,
            "level": self.level,
            "batch": self.batch,
            "arrival_s": self.request.arrival_s,
            "start_s": self.start_s,
            "finish_s": self.finish_s,
            "latency_s": self.latency_s,
            "deadline_hit": self.deadline_hit,
            "entropy": self.entropy,
            "soc": self.soc.value,
            "soc_time": self.soc.soc_time,
            "soc_accuracy": self.soc.soc_accuracy,
        }


@dataclass(frozen=True)
class RejectedRequest:
    """One request the router explicitly turned away.

    ``reason`` is ``"saturated"`` or ``"infeasible"`` from admission
    control; under fault injection it may also be ``"failed"`` (batch
    execution failed, retries disabled), ``"retries-exhausted"`` (the
    retry budget ran dry), ``"outage"`` (the platform died and no
    failover target would take the request) or ``"stranded"`` (still
    queued when the simulation drained -- the zero-loss backstop).
    """

    request: Request
    reason: str

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "rid": self.request.rid,
            "tenant": self.request.tenant.name,
            "arrival_s": self.request.arrival_s,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class TenantStats:
    """One tenant's aggregate outcome."""

    tenant: str
    priority: int
    offered: int
    completed: int
    rejected: int
    deadline_hits: int
    mean_soc: float
    mean_latency_s: float

    @property
    def deadline_hit_rate(self) -> float:
        """Hits over *offered* requests: a rejection is a miss."""
        if self.offered == 0:
            return 0.0
        return self.deadline_hits / self.offered

    @property
    def rejection_rate(self) -> float:
        """Rejected over offered requests."""
        if self.offered == 0:
            return 0.0
        return self.rejected / self.offered

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "tenant": self.tenant,
            "priority": self.priority,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_hits": self.deadline_hits,
            "deadline_hit_rate": self.deadline_hit_rate,
            "rejection_rate": self.rejection_rate,
            "mean_soc": self.mean_soc,
            "mean_latency_s": self.mean_latency_s,
        }


@dataclass(frozen=True)
class PlatformStats:
    """One platform's aggregate serving profile."""

    platform: str
    gpu: str
    batches: int
    requests: int
    busy_s: float
    utilization: float
    energy_j: float
    mean_level: float
    peak_level: int
    final_level: int
    #: Batches that launched but did not complete (faulted runs only).
    failed_batches: int = 0

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "platform": self.platform,
            "gpu": self.gpu,
            "batches": self.batches,
            "requests": self.requests,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "energy_j": self.energy_j,
            "mean_level": self.mean_level,
            "peak_level": self.peak_level,
            "final_level": self.final_level,
            "failed_batches": self.failed_batches,
        }


@dataclass(frozen=True)
class ResilienceStats:
    """Recovery metrics of one fault-injected routing run.

    Populated only when a run was given a
    :class:`~repro.faults.events.FaultTrace`; ``None`` on clean runs
    so the report schema of PR 2 is unchanged for them.
    """

    #: Fault events applied during the run.
    faults_injected: int = 0
    #: Full platform outage episodes that began.
    outages: int = 0
    #: Mean time-to-recovery over outage episodes that closed
    #: (restore observed) during the run.
    mttr_s: float = 0.0
    #: Outage episodes that closed during the run -- the weight of
    #: ``mttr_s``, carried so merging reports can recombine the means
    #: exactly (an unweighted mean of means is not associative).
    mttr_episodes: int = 0
    #: Batches that launched and failed (outage or transient).
    batch_failures: int = 0
    #: Failed requests re-admitted after backoff.
    retries: int = 0
    #: Requests moved off a dead platform at outage time.
    failovers: int = 0
    #: Failed-over requests that ultimately completed.
    requests_rescued: int = 0
    #: Circuit-breaker transitions observed.
    breaker_opens: int = 0
    breaker_closes: int = 0

    @classmethod
    def merge(cls, stats: "Sequence[ResilienceStats]") -> "ResilienceStats":
        """Fold several runs' recovery metrics into one.

        Every field is a sum except ``mttr_s``, which recombines as
        the episode-weighted mean -- with the weights carried in
        ``mttr_episodes``, the fold is exact for any grouping of the
        same leaf set in the same order.
        """
        stats = list(stats)
        if not stats:
            raise ValueError("ResilienceStats.merge needs at least one input")
        episodes = sum(s.mttr_episodes for s in stats)
        mttr_s = (
            sum(s.mttr_s * s.mttr_episodes for s in stats) / episodes
            if episodes
            else 0.0
        )
        return cls(
            faults_injected=sum(s.faults_injected for s in stats),
            outages=sum(s.outages for s in stats),
            mttr_s=mttr_s,
            mttr_episodes=episodes,
            batch_failures=sum(s.batch_failures for s in stats),
            retries=sum(s.retries for s in stats),
            failovers=sum(s.failovers for s in stats),
            requests_rescued=sum(s.requests_rescued for s in stats),
            breaker_opens=sum(s.breaker_opens for s in stats),
            breaker_closes=sum(s.breaker_closes for s in stats),
        )

    def to_dict(self) -> dict:
        """Plain-data view with a stable key order."""
        return {
            "faults_injected": self.faults_injected,
            "outages": self.outages,
            "mttr_s": self.mttr_s,
            "mttr_episodes": self.mttr_episodes,
            "batch_failures": self.batch_failures,
            "retries": self.retries,
            "failovers": self.failovers,
            "requests_rescued": self.requests_rescued,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
        }


@dataclass
class RouterReport:
    """Aggregate outcome of one routing run."""

    completed: List[CompletedRequest] = field(default_factory=list)
    rejected: List[RejectedRequest] = field(default_factory=list)
    platforms: List[PlatformStats] = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)
    #: Simulated end of the run (last completion, or last arrival).
    horizon_s: float = 0.0
    #: Recovery metrics of a fault-injected run (None on clean runs).
    resilience: Optional[ResilienceStats] = None
    #: Observability section of an instrumented run (None otherwise):
    #: span counts, the metrics snapshot, and the cache-neutral trace
    #: fingerprint -- see
    #: :meth:`repro.obs.instrument.Instrumentation.report_section`.
    obs: Optional[dict] = None
    #: Control-plane section of a predictively controlled run (None
    #: otherwise): forecaster accuracy per tenant, tick/prewarm/DVFS
    #: counters -- see
    #: :meth:`repro.control.plane.ControlPlane.report_section`.
    control: Optional[dict] = None
    #: The leaf reports this report was folded from (None for a leaf
    #: produced directly by a router run).  :meth:`merge` always
    #: flattens to leaves and folds them in one canonical order, which
    #: is what makes it associative and order-independent bit-for-bit;
    #: the field never enters :meth:`to_dict` or the fingerprint.
    merged_from: Optional[Tuple["RouterReport", ...]] = field(
        default=None, repr=False, compare=False
    )

    # -- fleet-level views ----------------------------------------------
    def _records(self) -> "TableRecords":
        """The record source every aggregate, ``to_dict`` and
        ``fingerprint`` read: here, ``object`` columns built from the
        object lists on each read, so lists mutated or replaced after
        construction still count; a :class:`LazyReport` answers from
        its source's columns instead."""
        events = self.events
        return TableRecords(
            _completed_table(self.completed),
            _rejected_table(self.rejected),
            partial(_event_rows, events),
            events.counts,
        )

    @property
    def n_offered(self) -> int:
        """Every request that reached admission."""
        return self._records().n_offered()

    @property
    def n_completed(self) -> int:
        """Requests served to completion."""
        return self._records().n_completed()

    @property
    def n_rejected(self) -> int:
        """Requests turned away by admission control."""
        return self._records().n_rejected()

    @property
    def deadline_hits(self) -> int:
        """Completions inside their tenant's hard deadline."""
        return self._records().deadline_hits()

    @property
    def deadline_hit_rate(self) -> float:
        """Hits over offered requests (rejections count as misses)."""
        records = self._records()
        return _rate(records.deadline_hits(), records)

    @property
    def rejection_rate(self) -> float:
        """Rejections over offered requests."""
        records = self._records()
        return _rate(records.n_rejected(), records)

    @property
    def mean_soc(self) -> float:
        """Mean SoC over completed requests."""
        return self._records().mean_soc()

    @property
    def total_energy_j(self) -> float:
        """Fleet-wide energy spent serving."""
        return sum(p.energy_j for p in self.platforms)

    def soc_delta(self, clean: "RouterReport") -> float:
        """Mean-SoC delta of this (typically faulted) run against a
        clean reference run: negative means faults cost satisfaction."""
        return self.mean_soc - clean.mean_soc

    def percentile_latency_s(self, q: float) -> float:
        """``q``-th percentile (0..100) of completed-request latency,
        linearly interpolated -- delegated to
        :func:`repro.obs.metrics.linear_percentile`, the same edge
        conventions ``ServerReport.percentile`` uses."""
        return linear_percentile(self._records().latencies(), q)

    # -- per-tenant aggregation -----------------------------------------
    def per_tenant(self) -> List[TenantStats]:
        """Tenant aggregates, sorted by tenant name."""
        return self._records().per_tenant()

    def tenant(self, name: str) -> TenantStats:
        """One tenant's aggregate (KeyError lists known tenants)."""
        for stats in self.per_tenant():
            if stats.tenant == name:
                return stats
        known = ", ".join(s.tenant for s in self.per_tenant())
        raise KeyError("no tenant %r in the report (known: %s)" % (name, known))

    def platform(self, name: str) -> PlatformStats:
        """One platform's aggregate (KeyError lists known platforms)."""
        for stats in self.platforms:
            if stats.platform == name:
                return stats
        known = ", ".join(p.platform for p in self.platforms)
        raise KeyError(
            "no platform %r in the report (known: %s)" % (name, known)
        )

    def rejection_reasons(self) -> Set[str]:
        """The distinct reasons requests were rejected with."""
        return self._records().rejection_reasons()

    # -- merging ---------------------------------------------------------
    @classmethod
    def merge(cls, reports: "Sequence[RouterReport]") -> "RouterReport":
        """Fold several routing runs' reports into one global report.

        Request ids are re-enumerated over the union of all terminal
        records, ordered by ``(arrival_s, tenant name)`` -- the same
        total order :func:`~repro.serving.request.merge_loads` assigns
        rids along, so a report merged from per-tenant partitions of
        one load set numbers requests exactly as a single router run
        over the merged load set would.  Events interleave by
        ``(time_s, leaf, seq)`` with rids remapped; platform stats,
        :class:`ResilienceStats` and obs sections fold with their
        associative merges.

        The fold is *exactly* associative and order-independent:
        inputs are flattened to their leaf reports (via
        ``merged_from``), the leaves are sorted by fingerprint, and
        every aggregate is computed over that canonical sequence --
        so any grouping or permutation of the same leaves produces a
        bit-identical result, floating-point sums included.  Merging a
        single report returns it unchanged (the 1-shard degenerate
        case preserves existing fingerprints by construction).

        The fold reads the leaves' record columns (each leaf's
        :class:`TableRecords` tables and event rows), so merging
        builds no per-request object; the result is a
        :class:`LazyReport` whose ``completed`` / ``rejected`` /
        ``events`` materialize from the leaves on first read.
        """
        reports = list(reports)
        if not reports:
            raise ValueError("RouterReport.merge needs at least one report")
        if len(reports) == 1:
            return reports[0]
        leaves: List[RouterReport] = []
        for report in reports:
            leaves.extend(report.merged_from or (report,))
        leaves.sort(key=lambda leaf: leaf.fingerprint())

        source = _MergedSource(leaves)
        horizon_s = max(leaf.horizon_s for leaf in leaves)
        platforms = cls._merge_platforms(leaves, horizon_s)
        stats = [
            leaf.resilience for leaf in leaves if leaf.resilience is not None
        ]
        resilience = ResilienceStats.merge(stats) if stats else None
        sections = [leaf.obs for leaf in leaves if leaf.obs is not None]
        obs = merge_obs_sections(sections) if sections else None
        controls = [
            leaf.control for leaf in leaves if leaf.control is not None
        ]
        control = (
            cls._merge_control_sections(controls) if controls else None
        )
        return LazyReport(
            platforms=platforms,
            horizon_s=horizon_s,
            resilience=resilience,
            obs=obs,
            control=control,
            merged_from=tuple(leaves),
            _source=source,
        )

    @staticmethod
    def _merge_control_sections(sections: "Sequence[dict]") -> dict:
        """Fold per-shard control-plane sections into one.

        Configuration keys (``kind``/``tick_s``/``horizon_ticks``)
        must agree across shards; counters sum; per-tenant forecaster
        stats fold observation-weighted (a tenant split across shards
        recombines its mean rate exactly and its MAE as the
        observation-weighted mean); the fleet-level forecast error
        recombines tick-weighted.
        """
        if not sections:
            raise ValueError(
                "_merge_control_sections needs at least one section"
            )
        if len(sections) == 1:
            return dict(sections[0])
        for key in ("kind", "tick_s", "horizon_ticks"):
            values = sorted({repr(section.get(key)) for section in sections})
            if len(values) != 1:
                raise ValueError(
                    "control sections disagree on %r across shards: %s"
                    % (key, ", ".join(values))
                )
        ticks = sum(section.get("ticks", 0) for section in sections)
        error_weighted = sum(
            section.get("mean_abs_error_rps", 0.0) * section.get("ticks", 0)
            for section in sections
        )
        tenants: Dict[str, dict] = {}
        for section in sections:
            for name, stats in section.get("tenants", {}).items():
                agg = tenants.setdefault(
                    name,
                    {"observations": 0, "rate_sum": 0.0, "mae_sum": 0.0},
                )
                agg["observations"] += stats["observations"]
                agg["rate_sum"] += (
                    stats["mean_rate_rps"] * stats["observations"]
                )
                agg["mae_sum"] += stats["mae_rps"] * stats["observations"]
        merged_tenants = {
            name: {
                "observations": agg["observations"],
                "mean_rate_rps": (
                    agg["rate_sum"] / agg["observations"]
                    if agg["observations"]
                    else 0.0
                ),
                "mae_rps": (
                    agg["mae_sum"] / agg["observations"]
                    if agg["observations"]
                    else 0.0
                ),
            }
            for name, agg in sorted(tenants.items())
        }
        return {
            "kind": sections[0]["kind"],
            "tick_s": sections[0]["tick_s"],
            "horizon_ticks": sections[0]["horizon_ticks"],
            "ticks": ticks,
            "mean_abs_error_rps": error_weighted / ticks if ticks else 0.0,
            "prewarm": {
                key: sum(
                    section.get("prewarm", {}).get(key, 0)
                    for section in sections
                )
                for key in ("requested", "hits", "misses")
            },
            "degrades": sum(
                section.get("degrades", 0) for section in sections
            ),
            "dvfs_moves": sum(
                section.get("dvfs_moves", 0) for section in sections
            ),
            "tenants": merged_tenants,
        }

    @staticmethod
    def _merge_platforms(
        leaves: "Sequence[RouterReport]", horizon_s: float
    ) -> List[PlatformStats]:
        """Fold per-platform stats across leaves (sums; utilization
        and mean level re-derived against the merged horizon/batch
        count).  Shard-qualified platform names never collide, but
        same-name folding is supported for unqualified merges."""
        by_name: Dict[str, dict] = {}
        for leaf in leaves:
            for stats in leaf.platforms:
                agg = by_name.get(stats.platform)
                if agg is None:
                    by_name[stats.platform] = agg = {
                        "gpu": stats.gpu,
                        "batches": 0,
                        "requests": 0,
                        "busy_s": 0.0,
                        "energy_j": 0.0,
                        "level_batches": 0.0,
                        "peak_level": 0,
                        "final_level": 0,
                        "failed_batches": 0,
                    }
                elif agg["gpu"] != stats.gpu:
                    raise ValueError(
                        "platform %r maps to GPU %r in one report and %r "
                        "in another" % (stats.platform, agg["gpu"], stats.gpu)
                    )
                agg["batches"] += stats.batches
                agg["requests"] += stats.requests
                agg["busy_s"] += stats.busy_s
                agg["energy_j"] += stats.energy_j
                agg["level_batches"] += stats.mean_level * stats.batches
                agg["peak_level"] = max(agg["peak_level"], stats.peak_level)
                agg["final_level"] = max(agg["final_level"], stats.final_level)
                agg["failed_batches"] += stats.failed_batches
        merged = []
        for name in sorted(by_name):
            agg = by_name[name]
            merged.append(
                PlatformStats(
                    platform=name,
                    gpu=agg["gpu"],
                    batches=agg["batches"],
                    requests=agg["requests"],
                    busy_s=agg["busy_s"],
                    utilization=(
                        agg["busy_s"] / horizon_s if horizon_s > 0 else 0.0
                    ),
                    energy_j=agg["energy_j"],
                    mean_level=(
                        agg["level_batches"] / agg["batches"]
                        if agg["batches"]
                        else 0.0
                    ),
                    peak_level=agg["peak_level"],
                    final_level=agg["final_level"],
                    failed_batches=agg["failed_batches"],
                )
            )
        return merged

    # -- export ----------------------------------------------------------
    def to_dict(
        self,
        include_events: bool = True,
        include_requests: bool = False,
    ) -> dict:
        """Stable plain-data schema (JSON-serializable)."""
        data = self._summary_dict(self._records())
        if include_events:
            data["events"] = self.events.to_dicts()
        if include_requests:
            data["completed"] = [r.to_dict() for r in self.completed]
            data["rejected"] = [r.to_dict() for r in self.rejected]
        return data

    def _summary_dict(self, records: "TableRecords") -> dict:
        """``to_dict(include_events=False)``, read off one record
        source: the same values the properties answer one by one."""
        rejected = records.n_rejected()
        hits = records.deadline_hits()
        latencies = records.latencies()
        data = {
            "summary": {
                "offered": records.n_offered(),
                "completed": records.n_completed(),
                "rejected": rejected,
                "deadline_hits": hits,
                "deadline_hit_rate": _rate(hits, records),
                "rejection_rate": _rate(rejected, records),
                "mean_soc": records.mean_soc(),
                "p50_latency_s": linear_percentile(latencies, 50.0),
                "p95_latency_s": linear_percentile(latencies, 95.0),
                "p99_latency_s": linear_percentile(latencies, 99.0),
                "total_energy_j": self.total_energy_j,
                "horizon_s": self.horizon_s,
            },
            "tenants": [stats.to_dict() for stats in records.per_tenant()],
            "platforms": [stats.to_dict() for stats in self.platforms],
            "event_counts": records.event_counts(),
        }
        if self.resilience is not None:
            data["resilience"] = self.resilience.to_dict()
        if self.obs is not None:
            data["obs"] = self.obs
        if self.control is not None:
            data["control"] = self.control
        return data

    def to_json(self, **kwargs) -> str:
        """Canonical JSON rendering of :meth:`to_dict`."""
        return json.dumps(
            self.to_dict(**kwargs), sort_keys=True, separators=(",", ":")
        )

    #: Engine hook relays excluded from the fingerprint: whether a rung
    #: compiles fresh or hits the cache depends on engine cache
    #: temperature, which is explicitly not part of routing behaviour.
    _CACHE_KINDS = ("compile", "cache_hit")

    def fingerprint(self) -> str:
        """SHA-1 over the canonical JSON of every routing decision,
        event and request record: two runs are bit-identical iff these
        match.  Engine compile/cache-hit relays (and the raw sequence
        numbers they shift) are excluded, so a warm engine cache does
        not change the fingerprint -- only routing behaviour does.

        The digest is fed piece by piece from :meth:`canonical_chunks`,
        so neither the payload dict tree nor the whole string is ever
        built."""
        digest = hashlib.sha1()
        for piece in self.canonical_chunks():
            digest.update(piece.encode("utf-8"))
        return digest.hexdigest()

    def canonical_chunks(self) -> Iterator[str]:
        """The document :meth:`fingerprint` hashes, in bounded pieces.

        Joined, the pieces are exactly ``json.dumps(payload,
        sort_keys=True, separators=(",", ":"))`` of
        ``to_dict(include_events=True, include_requests=True)`` with
        the cache-temperature filtering below applied; the record lists
        are rendered chunk by chunk by
        :func:`repro.serving.canonical.encode_report`."""
        records = self._records()
        data = self._summary_dict(records)
        data["event_counts"] = {
            kind: count
            for kind, count in data["event_counts"].items()
            if kind not in self._CACHE_KINDS
        }
        if self.obs is not None:
            # Same rule for the obs section: engine-relayed span counts
            # and metrics vary with cache temperature, the rest must
            # not (the embedded trace fingerprint is already
            # cache-neutral by construction).
            data["obs"] = cache_neutral_obs_section(self.obs)
        if self.control is not None:
            # Prewarm hit/miss split is cache temperature too (a warm
            # engine answers every prewarm from storage); the request
            # count is routing behaviour and stays.
            control = dict(self.control)
            prewarm = control.get("prewarm")
            if isinstance(prewarm, dict):
                control["prewarm"] = {"requested": prewarm.get("requested")}
            data["control"] = control
        return encode_report(
            data,
            {
                "completed": records.completed_columns(),
                "events": records.event_columns(self._CACHE_KINDS),
                "rejected": records.rejected_columns(),
            },
        )


def _rate(count: int, records: "TableRecords") -> float:
    """``count`` over the offered requests (0.0 when none were)."""
    offered = records.n_offered()
    return count / offered if offered else 0.0


def _completed_table(completed: Sequence[CompletedRequest]) -> "RecordTable":
    """``object`` columns over completion records, in list order."""
    requests = [r.request for r in completed]
    socs = [r.soc for r in completed]
    platform, platforms = _indexed([r.platform for r in completed])
    tenant, tenants = _indexed(
        [(q.tenant.name, q.tenant.priority) for q in requests]
    )
    return RecordTable(
        {
            "arrival_s": _objects([q.arrival_s for q in requests]),
            "batch": _objects([r.batch for r in completed]),
            "deadline_hit": _objects([r.deadline_hit for r in completed]),
            "entropy": _objects([r.entropy for r in completed]),
            "finish_s": _objects([r.finish_s for r in completed]),
            "latency_s": _objects([r.latency_s for r in completed]),
            "level": _objects([r.level for r in completed]),
            "platform": platform,
            "rid": _objects([q.rid for q in requests]),
            "soc": _objects([s.value for s in socs]),
            "soc_accuracy": _objects([s.soc_accuracy for s in socs]),
            "soc_time": _objects([s.soc_time for s in socs]),
            "start_s": _objects([r.start_s for r in completed]),
            "tenant": tenant,
        },
        platforms,
        tenants,
    )


def _rejected_table(rejected: Sequence[RejectedRequest]) -> "RecordTable":
    """``object`` columns over rejection records, in list order."""
    requests = [r.request for r in rejected]
    tenant, tenants = _indexed(
        [(q.tenant.name, q.tenant.priority) for q in requests]
    )
    return RecordTable(
        {
            "arrival_s": _objects([q.arrival_s for q in requests]),
            "reason": _objects([r.reason for r in rejected]),
            "rid": _objects([q.rid for q in requests]),
            "tenant": tenant,
        },
        [],
        tenants,
    )


def _event_rows(events: EventLog) -> Iterator[tuple]:
    """``(time_s, kind, tenant, platform, request_ids, detail)`` per
    event, in log order."""
    for event in events:
        yield (
            event.time_s,
            event.kind,
            event.tenant,
            event.platform,
            event.request_ids,
            event.detail,
        )


def _objects(values: list) -> np.ndarray:
    """An ``object`` column holding exactly ``values``: rendering and
    builtin sums over it see the records' own values and types."""
    return np.fromiter(values, dtype=object, count=len(values))


def _indexed(values: list) -> Tuple[np.ndarray, list]:
    """Index codes into the distinct ``values`` (first-seen order)."""
    index: Dict[object, int] = {}
    codes = [index.setdefault(value, len(index)) for value in values]
    return np.array(codes, dtype=np.int64), list(index)


def _concat(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate, leaving out empty parts so that an empty ``object``
    column does not turn a typed column into an ``object`` one."""
    parts = [column for column in columns if len(column)] or list(columns[:1])
    return np.concatenate(parts)


#: Float columns whose values mostly repeat -- batch times across a
#: batch, entropy and SoC across a rung (80-99% of a chunk on the
#: benchmark's storm) -- so a typed chunk renders each distinct value
#: once.  Arrivals and latencies are nearly all distinct.
_REPEATED_KEYS = frozenset(
    ("entropy", "finish_s", "soc", "soc_accuracy", "soc_time", "start_s")
)


class RecordTable:
    """One record list (completed or rejected) as columns, in rid order.

    ``columns`` holds one numpy array per canonical key
    (:data:`~repro.serving.canonical.COMPLETED_KEYS` or
    :data:`~repro.serving.canonical.REJECTED_KEYS`).  The ``platform``
    column holds indices into ``platforms`` (names) and the ``tenant``
    column indices into ``tenants`` (``(name, priority)`` pairs), so
    renaming every platform touches only the short name list.  Columns
    read off a router's typed state are ``float64``/``int64``/``bool``
    arrays; columns read off objects are ``object`` arrays that keep
    the original values.
    """

    __slots__ = ("columns", "platforms", "tenants")

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        platforms: list,
        tenants: list,
    ) -> None:
        self.columns = columns
        self.platforms = platforms
        self.tenants = tenants

    def __len__(self) -> int:
        return len(self.columns["rid"])

    def take(self, order: np.ndarray) -> "RecordTable":
        """The rows at ``order``, in that order."""
        return RecordTable(
            {key: column[order] for key, column in self.columns.items()},
            self.platforms,
            self.tenants,
        )

    def with_column(self, key: str, values: np.ndarray) -> "RecordTable":
        """The same table with one column replaced."""
        columns = dict(self.columns)
        columns[key] = values
        return RecordTable(columns, self.platforms, self.tenants)

    def renamed(self, rename: Callable[[str], str]) -> "RecordTable":
        """The same rows with every platform name passed through
        ``rename``."""
        return RecordTable(
            self.columns, [rename(name) for name in self.platforms],
            self.tenants,
        )

    @classmethod
    def concat(cls, tables: Sequence["RecordTable"]) -> "RecordTable":
        """The tables' rows one after another (index columns shifted
        onto the concatenated name lists)."""
        platforms: list = []
        tenants: list = []
        parts: Dict[str, List[np.ndarray]] = {
            key: [] for key in tables[0].columns
        }
        for table in tables:
            for key, column in table.columns.items():
                if key == "platform":
                    column = column + len(platforms)
                elif key == "tenant":
                    column = column + len(tenants)
                parts[key].append(column)
            platforms.extend(table.platforms)
            tenants.extend(table.tenants)
        return cls(
            {key: _concat(columns) for key, columns in parts.items()},
            platforms,
            tenants,
        )

    def tenant_ranks(self, rank: Dict[str, int]) -> np.ndarray:
        """Each row's tenant name mapped through ``rank``."""
        lookup = np.array(
            [rank[name] for name, _priority in self.tenants], dtype=np.int64
        )
        return lookup[self.columns["tenant"]]

    def chunks(self, keys: Sequence[str]) -> Iterator[tuple]:
        """Canonical column chunks in ``keys`` order (names for the
        index columns)."""
        names = {
            "platform": self.platforms,
            "tenant": [name for name, _priority in self.tenants],
        }
        columns = [(key, self.columns[key], names.get(key)) for key in keys]
        for start in range(0, len(self), CHUNK):
            window = slice(start, start + CHUNK)
            chunk = []
            for key, column, lookup in columns:
                part = column[window]
                if lookup is not None:
                    part = [lookup[index] for index in part.tolist()]
                elif key in _REPEATED_KEYS and part.dtype == np.float64:
                    part = encode_repeated(part)
                chunk.append(part)
            yield tuple(chunk)


class TableRecords:
    """Record source over :class:`RecordTable` columns and event rows.

    Answers every aggregate ``RouterReport`` reads and streams the
    canonical record columns without building a ``Request``,
    ``CompletedRequest``, ``RejectedRequest`` or ``RouterEvent``.  Every
    sum is a builtin ``sum`` over the values in record order, which is
    rid order for every report a router run or a merge produces.
    Router runs, qualified shard views and merged reports answer
    through typed columns; a report built from object lists answers
    through ``object`` columns that hold the records' own values.

    ``event_rows`` is a zero-argument callable returning the events as
    ``(time_s, kind, tenant, platform, request_ids, detail)`` tuples in
    log order; ``counts`` is the per-kind event count.
    """

    def __init__(
        self,
        completed: RecordTable,
        rejected: RecordTable,
        event_rows: Callable[[], Iterator[tuple]],
        counts: Dict[str, int],
    ) -> None:
        self.completed = completed
        self.rejected = rejected
        self._event_rows = event_rows
        self.counts = counts

    # -- aggregates ------------------------------------------------------
    def n_completed(self) -> int:
        return len(self.completed)

    def n_rejected(self) -> int:
        return len(self.rejected)

    def n_offered(self) -> int:
        return len(self.completed) + len(self.rejected)

    def rejection_reasons(self) -> Set[str]:
        return set(self.rejected.columns["reason"].tolist())

    def deadline_hits(self) -> int:
        return int(np.count_nonzero(self.completed.columns["deadline_hit"]))

    def mean_soc(self) -> float:
        soc = self.completed.columns["soc"]
        if not len(soc):
            return 0.0
        return sum(soc.tolist()) / len(soc)

    def latencies(self) -> List[float]:
        return self.completed.columns["latency_s"].tolist()

    def event_counts(self) -> Dict[str, int]:
        return dict(self.counts)

    def per_tenant(self) -> List[TenantStats]:
        """Tenant aggregates, sorted by tenant name.  A tenant's
        priority is that of its first completed record, else of its
        first rejected one."""
        done_table, refused_table = self.completed, self.rejected
        names = sorted(
            {name for name, _ in done_table.tenants}
            | {name for name, _ in refused_table.tenants}
        )
        rank = {name: position for position, name in enumerate(names)}
        done_rank = done_table.tenant_ranks(rank)
        refused_rank = refused_table.tenant_ranks(rank)
        hit = done_table.columns["deadline_hit"]
        soc = done_table.columns["soc"]
        latency = done_table.columns["latency_s"]
        stats = []
        for position, name in enumerate(names):
            done = np.flatnonzero(done_rank == position)
            refused = np.flatnonzero(refused_rank == position)
            n_done = len(done)
            if n_done:
                first = done_table.columns["tenant"][done[0]]
                priority = done_table.tenants[first][1]
            elif len(refused):
                first = refused_table.columns["tenant"][refused[0]]
                priority = refused_table.tenants[first][1]
            else:
                continue
            stats.append(
                TenantStats(
                    tenant=name,
                    priority=priority,
                    offered=n_done + len(refused),
                    completed=n_done,
                    rejected=len(refused),
                    deadline_hits=int(np.count_nonzero(hit[done])),
                    mean_soc=(
                        sum(soc[done].tolist()) / n_done if n_done else 0.0
                    ),
                    mean_latency_s=(
                        sum(latency[done].tolist()) / n_done
                        if n_done
                        else 0.0
                    ),
                )
            )
        return stats

    # -- canonical record columns (key order of repro.serving.canonical)
    def completed_columns(self) -> Iterator[tuple]:
        return self.completed.chunks(COMPLETED_KEYS)

    def rejected_columns(self) -> Iterator[tuple]:
        return self.rejected.chunks(REJECTED_KEYS)

    def event_columns(self, skip_kinds: Sequence[str]) -> Iterator[tuple]:
        return event_chunks(
            row for row in self._event_rows() if row[1] not in skip_kinds
        )

    # -- raw event rows --------------------------------------------------
    def event_rows(self) -> Iterator[tuple]:
        return self._event_rows()


def event_log(rows: Iterable[tuple]) -> EventLog:
    """An :class:`EventLog` of ``(time_s, kind, tenant, platform,
    request_ids, detail)`` rows, numbered in the order given."""
    # A generator, not a list: ``from_events`` copies each event, so a
    # list would hold the whole log twice at the peak.
    return EventLog.from_events(
        RouterEvent(
            seq=seq,
            time_s=time_s,
            kind=kind,
            tenant=tenant,
            platform=platform,
            request_ids=request_ids,
            detail=detail,
        )
        for seq, (time_s, kind, tenant, platform, request_ids, detail)
        in enumerate(rows)
    )


class _LazyField:
    """Non-data descriptor: materializes one deferred report field from
    the report's source on first access and caches it in the instance
    dict (which then shadows the descriptor)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return self
        value = getattr(report._source, self.name)()
        report.__dict__[self.name] = value
        return value


#: The report fields a :class:`LazyReport` materializes on first read.
_LAZY_FIELDS = frozenset(("completed", "rejected", "events"))


class LazyReport(RouterReport):
    """A ``RouterReport`` whose per-request lists and event log
    materialize on first read.

    ``_source`` supplies them: ``completed()`` / ``rejected()`` /
    ``events()`` build the object lists, and ``records()`` returns the
    columnar record source.  Until a lazy field materializes, the
    aggregates, ``to_dict`` without requests and ``fingerprint()`` read
    that columnar source, with byte-identical results; afterwards the
    object lists are authoritative.  Without a
    ``_source`` the class behaves exactly like its dataclass base, so
    ``dataclasses.replace`` keeps working.  Pickling materializes
    first: a lazy report crosses a process boundary as plain objects.
    """

    completed = _LazyField("completed")
    rejected = _LazyField("rejected")
    events = _LazyField("events")

    def __init__(self, *args, _source=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if _source is not None:
            for name in _LAZY_FIELDS:
                del self.__dict__[name]
            self._source = _source

    def _records(self) -> "TableRecords":
        source = self.__dict__.get("_source")
        if source is not None and _LAZY_FIELDS.isdisjoint(self.__dict__):
            return source.records()
        return super()._records()

    def __getstate__(self):
        if self.__dict__.get("_source") is not None:
            _ = (self.completed, self.rejected, self.events)
        state = dict(self.__dict__)
        state.pop("_source", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


class _MergedSource:
    """The record columns of a merged report, folded from its leaves.

    Built once by :meth:`RouterReport.merge` from each leaf's raw
    columns: terminal records get their merged rids from one stable
    sort, the events one interleaving with their rids remapped.  The
    object lists materialize from the leaves' own objects through the
    same per-leaf rid maps.
    """

    def __init__(self, leaves: Sequence[RouterReport]) -> None:
        self.leaves = leaves
        sources = [leaf._records() for leaf in leaves]
        done_tables = [source.completed for source in sources]
        refused_tables = [source.rejected for source in sources]
        names = sorted(
            {
                name
                for table in chain(done_tables, refused_tables)
                for name, _priority in table.tenants
            }
        )
        rank = {name: position for position, name in enumerate(names)}

        # Global rid assignment over every terminal record: a stable
        # sort by (arrival, tenant) with ties resolved by canonical
        # leaf order, then local rid order.
        local_rids, by_rids, arrivals, tenants = [], [], [], []
        for done, refused in zip(done_tables, refused_tables):
            rids = np.concatenate(
                [done.columns["rid"], refused.columns["rid"]]
            )
            _check_unique(rids.tolist())
            by_rid = np.argsort(rids, kind="stable")
            local_rids.append(rids)
            by_rids.append(by_rid)
            arrivals.append(
                np.concatenate(
                    [done.columns["arrival_s"], refused.columns["arrival_s"]]
                )[by_rid]
            )
            tenants.append(
                np.concatenate(
                    [done.tenant_ranks(rank), refused.tenant_ranks(rank)]
                )[by_rid]
            )
        arrival = np.concatenate(arrivals)
        order = np.argsort(np.concatenate(tenants), kind="stable")
        order = order[np.argsort(arrival[order], kind="stable")]
        new_rid = np.empty(len(order), dtype=np.int64)
        new_rid[order] = np.arange(len(order), dtype=np.int64)

        self.rid_maps: List[Dict[int, int]] = []
        done_parts, refused_parts = [], []
        offset = 0
        for rids, by_rid, done, refused in zip(
            local_rids, by_rids, done_tables, refused_tables
        ):
            renumbered = np.empty(len(rids), dtype=np.int64)
            renumbered[by_rid] = new_rid[offset:offset + len(rids)]
            offset += len(rids)
            self.rid_maps.append(
                dict(zip(rids.tolist(), renumbered.tolist()))
            )
            done_parts.append(
                done.with_column("rid", renumbered[:len(done)])
            )
            refused_parts.append(
                refused.with_column("rid", renumbered[len(done):])
            )
        completed = RecordTable.concat(done_parts)
        completed = completed.take(np.argsort(completed.columns["rid"]))
        rejected = RecordTable.concat(refused_parts)
        rejected = rejected.take(np.argsort(rejected.columns["rid"]))

        self.rows = self._merge_events(sources)
        counts = [source.event_counts() for source in sources]
        self._records = TableRecords(
            completed,
            rejected,
            self.rows.__iter__,
            {
                kind: sum(leaf.get(kind, 0) for leaf in counts)
                for kind in EventLog.KINDS
            },
        )

    def _merge_events(self, sources) -> List[tuple]:
        """Interleave leaf event rows by (time, leaf, local seq) --
        per-leaf causal order survives -- remapping request ids onto
        the merged numbering."""
        per_leaf = [list(source.event_rows()) for source in sources]
        rows = list(chain.from_iterable(per_leaf))
        leaf_of = list(
            chain.from_iterable(
                [index] * len(leaf) for index, leaf in enumerate(per_leaf)
            )
        )
        times = np.array([row[0] for row in rows], dtype=np.float64)
        merged = []
        append = merged.append
        rid_maps = self.rid_maps
        for position in np.argsort(times, kind="stable").tolist():
            time_s, kind, tenant, platform, rids, detail = rows[position]
            try:
                rids = tuple(
                    map(rid_maps[leaf_of[position]].__getitem__, rids)
                )
            except KeyError as error:
                raise ValueError(
                    "event %r references request id %s with no terminal "
                    "record in its report" % (kind, error)
                ) from None
            append((time_s, kind, tenant, platform, rids, detail))
        return merged

    def records(self) -> TableRecords:
        return self._records

    def _renumbered(self, name: str) -> list:
        records = [
            replace(
                record,
                request=replace(
                    record.request, rid=rid_map[record.request.rid]
                ),
            )
            for leaf, rid_map in zip(self.leaves, self.rid_maps)
            for record in getattr(leaf, name)
        ]
        records.sort(key=lambda record: record.request.rid)
        return records

    def completed(self) -> List[CompletedRequest]:
        return self._renumbered("completed")

    def rejected(self) -> List[RejectedRequest]:
        return self._renumbered("rejected")

    def events(self) -> EventLog:
        return event_log(self.rows)


def _check_unique(rids: list) -> None:
    """Refuse a leaf that numbers two terminal records alike."""
    if len(set(rids)) != len(rids):
        ordered = sorted(rids)
        twice = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
        raise ValueError(
            "request id %d appears twice in one merged report" % (twice,)
        )
