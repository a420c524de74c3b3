"""FleetCoordinator: launch router shards under supervision, re-home
around dead ones, merge their reports into one deterministic ledger.

The coordinator is the fleet-of-fleets control plane.  It turns one
run description (fleet spec, router config, loads, optional fault
trace) into per-shard :class:`~repro.serving.shard.worker.ShardSpec`
values, executes them -- spawn workers under a
:class:`~repro.resilience.ShardSupervisor` by default, inline for
debugging and coverage -- and folds the results back together.  Each
spawn worker rebuilds the fleet from its spec; inline, the
coordinator deploys its fleet once, on the first shard it serves, and
every later inline attempt (retries, failover and escalation re-runs,
later :meth:`FleetCoordinator.run` calls) serves from that one
:class:`~repro.core.fleet.FleetManager`, so the P-CNN offline phase
runs once per platform rather than once per shard.  Witness
re-executions still build their own fleet, staying cold re-runs.

1. faults are carved per shard via
   :func:`~repro.serving.shard.planner.split_fault_trace`;
2. shards run independently under supervision: per-attempt wall-clock
   timeouts, kill-and-retry on crash/hang/corruption (bounded by the
   supervision config), integrity-validated results, optional
   checkpoint/resume through ``resume_dir``;
3. host-level escalation: a shard that exhausts its retries is
   treated exactly like a chaos-dead one -- its *entire* load is
   folded into the least-busy healthy shard, which re-runs with the
   extra tenants, so zero requests are lost to host faults;
4. cross-shard failover: a shard whose fleet chaos-degraded into
   dead-platform rejections (:data:`DEAD_SHARD_REASONS`) is *dead*;
   its rejected requests are re-homed -- original arrival times and
   difficulties, hence original deadline clocks -- onto the
   least-loaded healthy shard, which re-runs with the extra load;
5. per-shard reports are platform-qualified (``s<k>/...``) and merged
   via :meth:`RouterReport.merge`; spans are stitched under a global
   ``run`` root with fingerprint-neutral ``supervise`` spans and
   ``supervisor_*`` metrics recording the supervision history.

Determinism: every simulated step is a pure function of (fleet spec,
config, loads, faults, seed, n_shards), and supervision retries
re-run identical specs (the sim seed never depends on the attempt),
so same-seed coordinator runs produce bit-identical merged
fingerprints regardless of worker scheduling, retries, or which
attempt of a flaky worker finally landed.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fleet import FleetManager
from repro.faults.events import FaultTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import TraceBuffer
from repro.resilience import (
    CheckpointStore,
    ShardRunRecord,
    ShardSupervisor,
    SupervisionError,
    SupervisionReport,
    SupervisorConfig,
    merge_records,
)
from repro.serving.report import (
    RejectedRequest,
    RouterReport,
    check_conservation,
)
from repro.serving.request import Tenant, TenantLoad
from repro.serving.router import RouterConfig, check_backend
from repro.serving.shard.merge import (
    qualify_report,
    stitch_spans,
    strip_requests,
)
from repro.serving.shard.planner import (
    ShardPlanner,
    shard_seed,
    split_fault_trace,
)
from repro.serving.shard.worker import (
    FleetSpec,
    ShardResult,
    ShardSpec,
    run_shard,
    serve_shard,
)
from repro.workloads.generators import RequestTrace, merge_traces

__all__ = ["FleetCoordinator", "FleetRunOutcome"]

#: Reject reasons only a chaos-dead platform produces: ``outage`` is
#: a request whose in-shard failover found no live platform,
#: ``stranded`` a queued request whose platform died under it.  Any
#: shard reporting one of these is *dead* for cross-shard failover.
DEAD_SHARD_REASONS = ("outage", "stranded")


@dataclass(frozen=True)
class FleetRunOutcome:
    """The merged report plus per-shard diagnostics."""

    #: The global, fingerprintable ledger (all shards merged).
    report: RouterReport
    #: Each shard's own (qualified, post-failover) report, by shard id.
    shard_reports: Tuple[RouterReport, ...]
    #: Each shard's derived RNG seed, by shard id.
    seeds: Tuple[int, ...]
    #: Requests re-homed off dead shards during failover.
    rehomed: int
    #: Shards that rejected requests with reason ``outage``.
    dead_shards: Tuple[int, ...]
    #: The healthy shard that absorbed the re-homed load (None when
    #: no failover happened).
    failover_target: Optional[int]
    #: The stitched global span tree (None unless instrumented).
    buffer: Optional[TraceBuffer] = None
    #: The supervision ledger: per-shard attempts/failures/outcomes.
    supervision: Optional[SupervisionReport] = None
    #: Shards whose retries were exhausted; their whole load was
    #: absorbed by :attr:`escalation_target` (host-level re-homing).
    escalated: Tuple[int, ...] = ()
    #: The healthy shard that absorbed escalated shards' loads.
    escalation_target: Optional[int] = None
    #: Per-shard supervision status (``ok``/``retried``/``resumed``/
    #: ``dead``), by shard id.
    statuses: Tuple[str, ...] = ()


class FleetCoordinator:
    """Launches 1..N router shards over one fleet description.

    ``inline=True`` runs every shard in the calling process (no
    spawn) -- bit-identical results, since workers are deterministic
    either way; injected process faults are pre-empted by the
    supervisor rather than really executed, with the same
    failure/retry sequence.  Inline shards share one fleet, deployed
    on first use and kept for the coordinator's lifetime.
    ``n_shards=1`` is the degenerate case: no platform qualification,
    no shard obs labels, and a merged report whose fingerprint equals
    the plain single-router fingerprint.

    ``processes`` caps the number of concurrently live spawn workers;
    the default is ``min(n_shards, os.cpu_count())`` -- one process
    per shard never made sense past the core count.  ``supervision``
    is the :class:`~repro.resilience.SupervisorConfig` policy
    (timeout, retry budget, witness mode); ``proc_faults`` threads a
    :class:`~repro.resilience.ProcFaultPlan` into every spec; and
    ``resume_dir`` makes completed shard results durable, so a rerun
    after a partial failure executes only the shards that failed.

    Spawn mode follows the standard ``multiprocessing`` contract: a
    script calling :meth:`run` at import time must guard the call
    with ``if __name__ == "__main__":`` or every worker re-runs it
    while bootstrapping.  A ``__main__`` with no real file (stdin
    scripts) is rejected up front -- see :meth:`_check_spawnable`.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        config: Optional[RouterConfig] = None,
        n_shards: int = 1,
        seed: int = 0,
        inline: bool = False,
        max_workers: Optional[int] = None,
        controller: Optional[object] = None,
        processes: Optional[int] = None,
        supervision: Optional[SupervisorConfig] = None,
        proc_faults: Optional[object] = None,
        resume_dir: Optional[str] = None,
        backend: str = "vectorized",
    ) -> None:
        # Validated before any process spawns; there is one router
        # loop, so the shards are not told.
        check_backend(backend)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %r" % (n_shards,))
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                "max_workers must be >= 1, got %r" % (max_workers,)
            )
        if processes is not None and processes < 1:
            raise ValueError(
                "processes must be >= 1, got %r" % (processes,)
            )
        self.fleet = fleet
        self.config = config if config is not None else RouterConfig()
        self.n_shards = n_shards
        self.seed = seed
        self.inline = inline
        self.max_workers = max_workers
        #: Optional picklable controller recipe (see
        #: :attr:`ShardSpec.controller`): every shard builds its own
        #: fresh plane from it, so predictive state never crosses the
        #: process boundary.
        self.controller = controller
        self.processes = processes
        self.supervision = (
            supervision if supervision is not None else SupervisorConfig()
        )
        self.proc_faults = proc_faults
        self.checkpoint = (
            CheckpointStore(resume_dir) if resume_dir is not None else None
        )
        self.planner = ShardPlanner(n_shards)
        #: The fleet every inline attempt serves from (deployed by the
        #: first one; see :meth:`_serve_inline`).
        self._deployed: Optional[FleetManager] = None

    # -- public entry ----------------------------------------------------
    def run(
        self,
        loads: Optional[Sequence[TenantLoad]] = None,
        shard_loads: Optional[Sequence[Sequence[TenantLoad]]] = None,
        faults: Optional[FaultTrace] = None,
        instrument: bool = False,
    ) -> FleetRunOutcome:
        """Execute every shard under supervision and merge.

        Pass exactly one of ``loads`` (a flat tenant mix, partitioned
        by the hash-by-tenant planner) or ``shard_loads`` (explicit
        per-shard placement, e.g. the weak-scaling bench's fixed
        per-shard load).  With more than one shard, ``faults`` must
        address qualified ``s<k>/<platform>`` names.

        Raises :class:`~repro.resilience.SupervisionError` only when
        a shard exhausts its retries *and* nothing can absorb its
        load (single shard, resilience disabled, or no healthy
        shards); completed shards are checkpointed first when a
        ``resume_dir`` is configured, so the rerun is incremental.
        """
        if (loads is None) == (shard_loads is None):
            raise ValueError(
                "pass exactly one of loads= or shard_loads="
            )
        if loads is not None:
            placed = self.planner.plan(list(loads)).shard_loads
        else:
            placed = tuple(tuple(piece) for piece in shard_loads)
            if len(placed) != self.n_shards:
                raise ValueError(
                    "shard_loads has %d entries for %d shards"
                    % (len(placed), self.n_shards)
                )
        shard_faults = split_fault_trace(faults, self.n_shards)
        specs = [
            ShardSpec(
                shard_id=shard_id,
                n_shards=self.n_shards,
                fleet=self.fleet,
                config=self.config,
                loads=placed[shard_id],
                faults=shard_faults[shard_id],
                seed=shard_seed(self.seed, shard_id),
                instrument=instrument,
                controller=self.controller,
                proc_faults=self.proc_faults,
            )
            for shard_id in range(self.n_shards)
        ]
        supervised = self._supervise(specs)
        records = supervised.report.records
        results: List[Optional[ShardResult]] = [
            supervised.results.get(shard_id)
            for shard_id in range(self.n_shards)
        ]
        escalated: List[int] = []
        escalation_target: Optional[int] = None
        failed = [
            shard_id
            for shard_id in range(self.n_shards)
            if results[shard_id] is None
        ]
        if failed:
            if self.n_shards == 1 or not self.config.resilience:
                raise SupervisionError(
                    "shard(s) %s exhausted their retry budget and "
                    "escalation is unavailable (%s)"
                    % (
                        ", ".join("s%d" % shard_id for shard_id in failed),
                        "single shard"
                        if self.n_shards == 1
                        else "resilience disabled",
                    ),
                    SupervisionReport(records),
                )
            escalation_target, results, records, specs = self._escalate(
                specs, results, records, failed
            )
            escalated = failed
        rehomed = 0
        dead: List[int] = []
        target: Optional[int] = None
        if self.n_shards > 1 and self.config.resilience:
            results, records, rehomed, dead, target = self._failover(
                specs, results, records
            )
        reports = [
            result.report if result is not None else RouterReport()
            for result in results
        ]
        if dead:
            reports = self._strip_rehomed(reports, dead)
        if self.n_shards > 1:
            reports = [
                qualify_report(report, shard_id)
                for shard_id, report in enumerate(reports)
            ]
        merged = RouterReport.merge(reports)
        check_conservation(
            sum(load.trace.n_requests for piece in placed for load in piece),
            merged.n_completed,
            merged.n_rejected,
            "fleet coordinator",
        )
        supervision = SupervisionReport(records)
        statuses = self._statuses(records, escalated)
        self._attach_supervision_obs(merged, supervision, escalated)
        buffer = (
            stitch_spans(
                [result for result in results if result is not None],
                merged.horizon_s,
                self.n_shards,
                supervision=supervision,
            )
            if instrument
            else None
        )
        return FleetRunOutcome(
            report=merged,
            shard_reports=tuple(reports),
            seeds=tuple(spec.seed for spec in specs),
            rehomed=rehomed,
            dead_shards=tuple(dead),
            failover_target=target,
            buffer=buffer,
            supervision=supervision,
            escalated=tuple(escalated),
            escalation_target=escalation_target,
            statuses=statuses,
        )

    # -- execution -------------------------------------------------------
    def _effective_processes(self, n_specs: int) -> int:
        """The spawn-worker cap: ``min(n_shards, cpu count)`` unless
        the ``processes`` knob (or legacy ``max_workers``) says less."""
        limit = (
            self.processes
            if self.processes is not None
            else (os.cpu_count() or 1)
        )
        if self.max_workers is not None:
            limit = min(limit, self.max_workers)
        return max(1, min(n_specs, limit))

    def _supervise(self, specs: Sequence[ShardSpec]):
        """Run specs through a fresh supervisor (inline or spawn)."""
        if not self.inline:
            self._check_spawnable()
        supervisor = ShardSupervisor(
            self._serve_inline if self.inline else run_shard,
            config=self.supervision,
            inline=self.inline,
            processes=self._effective_processes(len(specs)),
            checkpoint=self.checkpoint,
            # A witness is an independent cold re-run: its own fleet.
            witness_task=run_shard,
        )
        return supervisor.run(specs)

    def _serve_inline(self, spec: ShardSpec) -> ShardResult:
        """The inline supervisor's task: serve ``spec`` from the
        coordinator's fleet, deploying it on first use.

        Under ``config.calibrate`` every run moves the deployments'
        tuning-path positions as it serves, so a shared fleet would
        hand one shard's calibration state to the next; those runs
        deploy afresh per attempt, as a spawn worker does.
        """
        if self.config.calibrate:
            return run_shard(spec)
        if self._deployed is None:
            self._deployed = self.fleet.build()
        return serve_shard(spec, self._deployed)

    def _run_single(
        self,
        spec: ShardSpec,
        records: Tuple[ShardRunRecord, ...],
        purpose: str,
    ) -> Tuple[ShardResult, Tuple[ShardRunRecord, ...]]:
        """Supervised re-run of one (re-homed) spec; must succeed."""
        rerun = self._supervise([spec])
        records = merge_records(records, rerun.report.records)
        result = rerun.results.get(spec.shard_id)
        if result is None:
            raise SupervisionError(
                "%s target s%d itself exhausted its retry budget"
                % (purpose, spec.shard_id),
                SupervisionReport(records),
            )
        return result, records

    @staticmethod
    def _check_spawnable() -> None:
        """Refuse to spawn when workers cannot re-import ``__main__``.

        Spawn bootstraps each worker by re-running the parent's main
        script from its path.  A ``__main__`` without a real file --
        ``python - <<EOF`` heredocs report ``<stdin>`` -- makes every
        worker die during bootstrap and the supervisor kill-and-retry
        to exhaustion for nothing.  Fail fast with the fix instead.
        """
        main = sys.modules.get("__main__")
        main_file = getattr(main, "__file__", None)
        if main_file is not None and not os.path.exists(main_file):
            raise RuntimeError(
                "spawn workers cannot re-import __main__ from %r "
                "(script fed via stdin?); run from a real file or use "
                "FleetCoordinator(..., inline=True)" % (main_file,)
            )

    # -- escalation (retry-exhausted shards) -----------------------------
    def _escalate(
        self,
        specs: List[ShardSpec],
        results: List[Optional[ShardResult]],
        records: Tuple[ShardRunRecord, ...],
        failed: List[int],
    ) -> Tuple[
        int, List[Optional[ShardResult]], Tuple[ShardRunRecord, ...],
        List[ShardSpec],
    ]:
        """Fold retry-exhausted shards' loads into a healthy shard.

        The supervisor already retried each failed shard to its
        attempt budget; past that point the shard is treated exactly
        like a chaos-dead one, except nothing of it survives -- so
        instead of re-homing rejected requests, its *entire* load
        moves to the healthy shard with the least busy time, which
        re-runs (supervised) with the extra tenants.  Requests keep
        their original arrival clocks; none are lost.
        """
        healthy = [
            shard_id
            for shard_id in range(self.n_shards)
            if results[shard_id] is not None
            and not self._is_dead(results[shard_id].report)
        ]
        if not healthy:
            raise SupervisionError(
                "shard(s) %s exhausted their retry budget and no "
                "healthy shard remains to absorb their load"
                % (", ".join("s%d" % shard_id for shard_id in failed),),
                SupervisionReport(records),
            )
        target = min(
            healthy,
            key=lambda shard_id: (
                sum(
                    stats.busy_s
                    for stats in results[shard_id].report.platforms
                ),
                shard_id,
            ),
        )
        target_spec = self._absorb_spec(
            specs[target], [specs[shard_id] for shard_id in failed]
        )
        result, records = self._run_single(
            target_spec, records, "escalation"
        )
        results = list(results)
        results[target] = result
        specs = list(specs)
        specs[target] = target_spec
        return target, results, records, specs

    @staticmethod
    def _absorb_spec(
        spec: ShardSpec, failed_specs: Sequence[ShardSpec]
    ) -> ShardSpec:
        """The target's spec with whole failed shards' loads folded in.

        Tenant names stay unique as the router requires: a tenant the
        target already serves has the extra trace merged into its
        existing one.  The failed shards' *fault* schedules do not
        travel -- they addressed platforms that no longer run.
        """
        loads = list(spec.loads)
        position = {
            load.tenant.name: index for index, load in enumerate(loads)
        }
        for failed in failed_specs:
            for load in failed.loads:
                name = load.tenant.name
                if name in position:
                    index = position[name]
                    loads[index] = TenantLoad(
                        loads[index].tenant,
                        merge_traces(loads[index].trace, load.trace),
                    )
                else:
                    position[name] = len(loads)
                    loads.append(load)
        return replace(spec, loads=tuple(loads))

    # -- failover (chaos-dead shards) ------------------------------------
    def _failover(
        self,
        specs: List[ShardSpec],
        results: List[Optional[ShardResult]],
        records: Tuple[ShardRunRecord, ...],
    ) -> Tuple[
        List[Optional[ShardResult]], Tuple[ShardRunRecord, ...], int,
        List[int], Optional[int],
    ]:
        """Re-home a dead shard's rejected requests onto a healthy one.

        A shard is dead when its report contains any rejection with a
        reason from :data:`DEAD_SHARD_REASONS` (its own in-shard
        failover already rescued what it could; what is left had
        nowhere to go locally).  *Every* rejected request of a dead
        shard is re-homed -- a dead fleet also rejects with capacity
        reasons like ``saturated``, and the healthy target is the
        honest judge of whether those were chaos casualties or truly
        unservable.  The target is the healthy shard with the least
        total busy time (ties to the lowest shard id); it re-runs
        (supervised) with the extra tenants appended, and re-homed
        requests keep their original arrival times, so their deadline
        clocks are preserved, not reset.  Dead shards' ledgers are
        stripped of the re-homed request ids afterwards so the merged
        report counts each request exactly once.
        """
        self._stranded_by_shard: Dict[int, List[int]] = {}
        outage: Dict[int, List[RejectedRequest]] = {}
        for shard_id, result in enumerate(results):
            if result is not None and self._is_dead(result.report):
                outage[shard_id] = list(result.report.rejected)
        dead = sorted(outage)
        healthy = [
            shard_id
            for shard_id in range(self.n_shards)
            if shard_id not in outage and results[shard_id] is not None
        ]
        if not dead or not healthy:
            return results, records, 0, dead, None
        target = min(
            healthy,
            key=lambda shard_id: (
                sum(
                    stats.busy_s
                    for stats in results[shard_id].report.platforms
                ),
                shard_id,
            ),
        )
        stranded = [
            record for shard_id in dead for record in outage[shard_id]
        ]
        target_spec = self._rehome_spec(specs[target], stranded)
        result, records = self._run_single(target_spec, records, "failover")
        results = list(results)
        results[target] = result
        specs[target] = target_spec
        self._stranded_by_shard = {
            shard_id: [
                record.request.rid for record in outage[shard_id]
            ]
            for shard_id in dead
        }
        rehomed = sum(
            len(rids) for rids in self._stranded_by_shard.values()
        )
        return results, records, rehomed, dead, target

    def _strip_rehomed(
        self, reports: List[RouterReport], dead: List[int]
    ) -> List[RouterReport]:
        """Erase re-homed request ids from dead shards' ledgers."""
        stripped = []
        for shard_id, report in enumerate(reports):
            rids = self._stranded_by_shard.get(shard_id, ())
            stripped.append(
                strip_requests(report, rids) if rids else report
            )
        return stripped

    @staticmethod
    def _is_dead(report: RouterReport) -> bool:
        """Whether one shard's report shows a chaos-dead fleet.

        Two signatures: an explicit dead-platform reject reason
        (:data:`DEAD_SHARD_REASONS`), or injected outages together
        with *any* rejections -- an outage that lands before traffic
        arrives leaves no request in flight to tag with ``outage``,
        so its casualties surface as plain admission rejects.  Both
        are read off the report's record source, so a healthy shard's
        report is never materialized.
        """
        if report.rejection_reasons().intersection(DEAD_SHARD_REASONS):
            return True
        resilience = report.resilience
        return (
            resilience is not None
            and resilience.outages > 0
            and report.n_rejected > 0
        )

    @staticmethod
    def _rehome_spec(
        spec: ShardSpec, stranded: Sequence[RejectedRequest]
    ) -> ShardSpec:
        """The target's spec with the stranded requests' load added.

        Stranded requests are regrouped by tenant into fresh traces
        (original arrivals and difficulties); a tenant the target
        already serves has the extra trace merged into its existing
        one, keeping per-run tenant names unique as the router
        requires.
        """
        tenants: Dict[str, Tenant] = {}
        grouped: Dict[str, List] = {}
        for record in stranded:
            request = record.request
            tenants[request.tenant.name] = request.tenant
            grouped.setdefault(request.tenant.name, []).append(request)
        loads = list(spec.loads)
        position = {
            load.tenant.name: index for index, load in enumerate(loads)
        }
        for name in sorted(grouped):
            requests = sorted(
                grouped[name], key=lambda r: (r.arrival_s, r.rid)
            )
            trace = RequestTrace(
                arrivals_s=np.array(
                    [r.arrival_s for r in requests], dtype=float
                ),
                difficulty=np.array(
                    [r.difficulty for r in requests], dtype=float
                ),
            )
            if name in position:
                index = position[name]
                loads[index] = TenantLoad(
                    loads[index].tenant,
                    merge_traces(loads[index].trace, trace),
                )
            else:
                loads.append(TenantLoad(tenants[name], trace))
        return replace(spec, loads=tuple(loads))

    # -- supervision surfacing -------------------------------------------
    def _statuses(
        self,
        records: Tuple[ShardRunRecord, ...],
        escalated: List[int],
    ) -> Tuple[str, ...]:
        """Per-shard supervision status for tables/JSON (``failed``
        shards surface as ``dead`` -- from the fleet's point of view
        a retry-exhausted shard and a chaos-dead one are the same
        casualty)."""
        by_id = {record.shard_id: record for record in records}
        statuses = []
        for shard_id in range(self.n_shards):
            record = by_id.get(shard_id)
            if shard_id in escalated or (
                record is not None and record.status == "failed"
            ):
                statuses.append("dead")
            elif record is None:
                statuses.append("ok")
            else:
                statuses.append(record.status)
        return tuple(statuses)

    @staticmethod
    def _attach_supervision_obs(
        report: RouterReport,
        supervision: SupervisionReport,
        escalated: List[int],
    ) -> None:
        """Fold supervision tallies into the merged obs section.

        The series all carry the ``supervisor_`` prefix, which
        ``cache_neutral_obs_section`` strips before fingerprinting --
        supervision history (how many attempts the wall clock cost
        us) must never leak into sim fingerprints, the same
        discipline as engine cache temperature.
        """
        if report.obs is None:
            return
        registry = MetricsRegistry()
        tallies = supervision.counters()
        for key in sorted(tallies):
            registry.counter(
                "supervisor_%s_total" % key,
                "supervision tally: %s" % key.replace("_", " "),
            ).inc(tallies[key])
        registry.counter(
            "supervisor_escalated_total",
            "retry-exhausted shards re-homed onto a healthy shard",
        ).inc(len(escalated))
        merged = dict(report.obs.get("metrics", {}))
        merged.update(registry.snapshot())
        section = dict(report.obs)
        section["metrics"] = {
            series: merged[series] for series in sorted(merged)
        }
        report.obs = section
