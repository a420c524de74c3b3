"""The router event loop, over struct-of-arrays state.

:meth:`repro.serving.router.RequestRouter.run` calls
:func:`run_vectorized`, which replays the discrete-event simulation
over column-major state -- :class:`repro.sim.vec.events.ArrivalColumns`
for the request stream, :class:`repro.sim.vec.events.SoAEventQueue`
for the dynamic events (frees, flush timers, retries, breaker probes,
control ticks), plain-Python mirrors of the per-platform hot fields,
and per-(platform, rung) accuracy columns precomputed across the whole
request vector with :func:`repro.sim.vec.scoring.soc_accuracy_vec`.

The loop was derived from an object-per-event reference loop, which
survives as a test-only oracle (``tests/serving/oracle``).  Every
float is produced by the reference's exact expression (same operand
order, same association), every event is emitted at the reference's
exact program point, and the merged arrival/fault/dynamic event
streams replicate the reference heap's ``(time_s, push_seq)`` total
order (arrivals take sequence numbers ``0..n-1``, faults
``n..n+f-1``, dynamic events everything after).  Shared machinery is
reused: platform states come from ``router._build_states``, ladders
re-target through ``router._retarget_ladder``, and the real
``DegradationController``, ``CircuitBreaker``, ``PlatformHealth``,
``RetryPolicy`` and ``ControlPlane`` objects drive their own state
machines.  ``RouterReport.fingerprint()`` is therefore bit-identical
to the oracle's on every seed -- asserted by
``tests/serving/test_backend_equivalence.py`` and frozen in
``tests/goldens/router_fingerprints.json``.

Every run records the same way: requests stay virtual (integer row
ids), each completed batch is one compact row, and events are compact
kind-coded rows (``_E_RAW`` for the fault, resilience and control
kinds).  The returned :class:`~repro.serving.report.LazyReport`
answers its aggregates, ``to_dict(include_events=False)`` and
``fingerprint()`` from columns over those rows, and materializes
``completed`` / ``rejected`` / ``events`` only on first access.

Two loop variants drive the same state and rows:

* **fast** (no faults, no controller, instrumentation disabled):
  admission and the free-dispatch chain are inlined, and whole
  saturation bursts -- every arrival landing before the next dynamic
  event while all queues are full -- are rejected in one
  ``bisect_right`` instead of per-request admission.
* **tracked** (fault-injected, controlled and/or instrumented runs):
  merges the fault stream in, calls every observability/resilience
  hook at the reference's exact call sites (fed ``request_at(rid)``
  where a hook takes a ``Request``), and fires the control plane's
  ticks as a fifth dynamic event kind.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.satisfaction import soc
from repro.faults.events import FaultTrace
from repro.faults.health import PlatformHealth
from repro.obs.instrument import Instrumentation
from repro.serving.degradation import DegradationController
from repro.serving.dispatch import InFlightBatch, PlatformState
from repro.serving.events import EventLog
from repro.serving.report import (
    CompletedRequest,
    LazyReport,
    RecordTable,
    RejectedRequest,
    ResilienceStats,
    TableRecords,
    check_conservation,
    event_log,
)
from repro.serving.request import TenantLoad
from repro.serving.resilience import CircuitBreaker, RetryPolicy
from repro.sim.vec.events import ArrivalColumns, SoAEventQueue
from repro.sim.vec.scoring import (
    soc_accuracy_vec,
    soc_time_vec,
    soc_value_vec,
)

__all__ = ["run_vectorized"]

_INF = math.inf

# Dynamic-event kind codes (arrivals and faults ride their own
# pre-sorted columns; only these five flow through the SoA heap).
_FREE = 0
_FLUSH = 1
_RETRY = 2
_PROBE = 3
_TICK = 4

# Compact event-row codes.  The hot path appends one flat tuple per
# event; :meth:`_VecRaw.events` expands them into ``RouterEvent``
# objects in the exact shape the reference records.
_E_ENQ = 0  # (code, t, rid, pidx, level, soc, latency)
_E_REJ = 1  # (code, t, rid, reason[, pidx, extra_pairs])
_E_DISP = 2  # (code, t, pidx, rids, level, take, capacity, finish)
_E_COMP = 3  # (code, t, pidx, rids, level)
_E_MOVE = 4  # (code, t, pidx, move, level)        cause="backlog"
_E_ADEG = 5  # (code, t, rid, pidx, level)         cause="admission"
_E_REJR = 6  # (code, first_rid, end_rid)          a saturation burst
_E_RAW = 9  # (code, kind, t, tenant, platform, rids, pairs)

#: Event kind of every row code whose kind is fixed.
_CODE_KINDS = {
    _E_ENQ: "enqueue",
    _E_REJ: "reject",
    _E_DISP: "dispatch",
    _E_COMP: "complete",
    _E_ADEG: "degrade",
}


class _P:
    """Hot per-platform mirror of a ``PlatformState``.

    The ``PlatformState`` objects stay authoritative for everything
    the report reads (cumulative accounting, controllers, breakers,
    health); this mirror caches what the inner loop touches per
    arrival -- the current level's (batch, exec, energy-per-item,
    accuracy-column) scalars, the busy horizon, and the queue as a
    list of row ids (the state's own list, so the control plane sees
    it).  The per-level columns hold what ``rung_at`` returns and are
    re-read whenever a fault or a DVFS command may have rescaled them.

    A lazy ladder (controller runs) materializes a rung only where the
    loop first reads it -- admission scoring, the rescue walk, or
    dispatch -- so rungs compile at the same points, in the same
    order, as a ladder read live.  Until then its columns hold
    ``None``.  Levels past a ``min_gain`` truncation read the deepest
    real rung, whose own level ``rl`` is what batches record.
    """

    __slots__ = (
        "index",
        "name",
        "state",
        "ctrl",
        "level",
        "busy_until",
        "queue",
        "dirty",
        "pending_flush_at",
        "ft",
        "thr",
        "n_levels",
        "exec_s",
        "batch",
        "energy",
        "epi",
        "ent",
        "sa",
        "rl",
        "cur_bl",
        "cur_el",
        "cur_epi",
        "cur_sa",
        "inflight",
    )

    def __init__(self, index: int, name: str, state) -> None:
        self.index = index
        self.name = name
        self.state = state
        self.ctrl = state.controller
        self.level = state.controller.level
        self.busy_until = 0.0
        self.queue: List[int] = state.queue
        self.dirty = False
        self.pending_flush_at: Optional[float] = None
        self.ft = state.flush_timeout_s
        self.thr = state.deployment.entropy_threshold
        # One slot per level the controller can reach (a truncated
        # lazy ladder keeps its controller's original depth).
        size = self.ctrl.n_levels
        self.n_levels = len(state.ladder)
        self.exec_s: List[Optional[float]] = [None] * size
        self.batch: List[Optional[int]] = [None] * size
        self.energy: List[Optional[float]] = [None] * size
        self.epi: List[Optional[float]] = [None] * size
        self.ent: List[Optional[float]] = [None] * size
        self.sa: List[Optional[array]] = [None] * size
        self.rl: List[Optional[int]] = [None] * size
        self.inflight: Optional[list] = None

    def rebuild(self) -> None:
        """Re-snapshot every level ``rung_at`` answers without
        compiling; called at build time, after every fault event on
        this platform and after a control tick changed it -- the only
        moments health scaling, DVFS or a ladder re-target can change
        the columns."""
        ladder = self.state.ladder
        for level in range(len(self.batch)):
            if ladder.is_materialized(level):
                self.fill(level)
            else:
                self.exec_s[level] = self.batch[level] = None
                self.energy[level] = self.epi[level] = None
                self.ent[level] = self.sa[level] = self.rl[level] = None
        self.n_levels = len(ladder)
        self.set_level(self.ctrl.level)

    def fill(self, level: int) -> None:
        """Read one level through ``rung_at``, materializing the rung
        if the ladder is lazy."""
        state = self.state
        rung = state.rung_at(level)
        if rung.entropy != self.ent[level]:
            # Entropy feeds the cached accuracy column; rungs never
            # rescale entropy today, so this only fires on first
            # fill -- but correctness must not depend on that.
            self.sa[level] = None
        self.exec_s[level] = rung.exec_time_s
        self.batch[level] = rung.batch
        self.energy[level] = rung.energy_j
        self.epi[level] = rung.energy_per_item_j
        self.ent[level] = rung.entropy
        self.rl[level] = rung.level
        # A lazy materialization may have truncated the ladder.
        self.n_levels = len(state.ladder)
        if level == self.level:
            self.set_level(level)

    def set_level(self, level: int) -> None:
        """Sync the current-level scalar caches (after every
        controller move, admission escalation, or rung rescale)."""
        self.level = level
        self.cur_bl = self.batch[level]
        self.cur_el = self.exec_s[level]
        self.cur_epi = self.epi[level]
        self.cur_sa = self.sa[level]


class _VecRaw:
    """Deferred report ingredients of one vectorized run."""

    __slots__ = ("cols", "flat", "completed_rows", "names", "_records")

    def __init__(self, cols, flat, completed_rows, names) -> None:
        self.cols = cols
        self.flat = flat
        self.completed_rows = completed_rows
        self.names = names
        self._records = None

    def records(self) -> "_VecRecords":
        """The columnar record source, built once per report."""
        if self._records is None:
            self._records = _VecRecords(self)
        return self._records

    def completed(self) -> List[CompletedRequest]:
        out: List[CompletedRequest] = []
        append = out.append
        request_at = self.cols.request_at
        arrivals = self.cols.arrivals_list
        difficulty = self.cols.difficulty_list
        for row in self.completed_rows:
            rids, name, level, take, start, finish, epi, ent, thr = row
            for rid in rids:
                request = request_at(rid)
                entropy = ent * difficulty[rid]
                append(
                    CompletedRequest(
                        request=request,
                        platform=name,
                        level=level,
                        batch=take,
                        start_s=start,
                        finish_s=finish,
                        entropy=entropy,
                        soc=soc(
                            runtime_s=finish - arrivals[rid],
                            requirement=request.tenant.requirement,
                            entropy=entropy,
                            entropy_threshold=thr,
                            energy_joules=epi,
                        ),
                    )
                )
        out.sort(key=lambda record: record.request.rid)
        return out

    def rejections(self) -> Tuple[np.ndarray, List[str]]:
        """Every rejected rid in rid order, with its reason."""
        rids: List[int] = []
        reasons: List[str] = []
        bursts: List[np.ndarray] = []
        for row in self.flat:
            code = row[0]
            if code == _E_REJ:
                rids.append(row[2])
                reasons.append(row[3])
            elif code == _E_REJR:
                bursts.append(np.arange(row[1], row[2], dtype=np.int64))
        rejected = np.concatenate([np.array(rids, dtype=np.int64), *bursts])
        reasons += ["saturated"] * (len(rejected) - len(rids))
        order = np.argsort(rejected, kind="stable")
        return rejected[order], [reasons[index] for index in order.tolist()]

    def rejected(self) -> List[RejectedRequest]:
        rids, reasons = self.rejections()
        request_at = self.cols.request_at
        return [
            RejectedRequest(request=request_at(rid), reason=reason)
            for rid, reason in zip(rids.tolist(), reasons)
        ]

    def event_rows(self) -> Iterator[tuple]:
        """Expand compact rows into ``(time_s, kind, tenant, platform,
        request_ids, detail)`` tuples, in the exact shape the
        reference records its events."""
        cols = self.cols
        arrivals = cols.arrivals_list
        tenant_index = cols.tenant_index_list
        tenant_names = [tenant.name for tenant in cols.tenants]
        names = self.names
        for row in self.flat:
            code = row[0]
            if code == _E_ENQ:
                _, t, rid, pidx, level, value, latency = row
                yield (
                    t,
                    "enqueue",
                    tenant_names[tenant_index[rid]],
                    names[pidx],
                    (rid,),
                    {
                        "level": level,
                        "predicted_soc": value,
                        "predicted_latency_s": latency,
                    },
                )
            elif code == _E_REJ:
                rid = row[2]
                detail = {"reason": row[3]}
                platform = None
                if len(row) > 4:
                    pidx = row[4]
                    platform = names[pidx] if pidx is not None else None
                    detail.update(row[5])
                yield (
                    row[1],
                    "reject",
                    tenant_names[tenant_index[rid]],
                    platform,
                    (rid,),
                    detail,
                )
            elif code == _E_REJR:
                for rid in range(row[1], row[2]):
                    yield (
                        arrivals[rid],
                        "reject",
                        tenant_names[tenant_index[rid]],
                        None,
                        (rid,),
                        {"reason": "saturated"},
                    )
            elif code == _E_DISP:
                _, t, pidx, rids, level, take, capacity, finish = row
                yield (
                    t,
                    "dispatch",
                    None,
                    names[pidx],
                    rids,
                    {
                        "level": level,
                        "batch": take,
                        "capacity": capacity,
                        "finish_s": finish,
                    },
                )
            elif code == _E_COMP:
                _, t, pidx, rids, level = row
                yield (t, "complete", None, names[pidx], rids, {"level": level})
            elif code == _E_MOVE:
                _, t, pidx, move, level = row
                yield (
                    t,
                    move,
                    None,
                    names[pidx],
                    (),
                    {"cause": "backlog", "level": level},
                )
            elif code == _E_ADEG:
                _, t, rid, pidx, level = row
                yield (
                    t,
                    "degrade",
                    tenant_names[tenant_index[rid]],
                    names[pidx],
                    (rid,),
                    {"cause": "admission", "level": level},
                )
            else:  # _E_RAW
                _, kind, t, tenant, platform, rids, pairs = row
                yield (t, kind, tenant, platform, rids, dict(pairs))

    def events(self) -> EventLog:
        return event_log(self.event_rows())


class _VecRecords(TableRecords):
    """Columnar record source over one run's raw rows.

    Builds the :class:`~repro.serving.report.RecordTable` columns
    straight from the compact rows -- no ``Request``,
    ``CompletedRequest``, ``SoCBreakdown`` or ``RouterEvent`` is built.
    Per-request columns are numpy arrays in rid order, computed once
    with the reference's exact float expressions (element-wise
    ``-``/``*``/``/`` round exactly like the scalar ops).
    """

    def __init__(self, raw: _VecRaw) -> None:
        self.tenants = raw.cols.tenants
        counts, rejected = self._scan_flat(raw)
        super().__init__(
            self._build_completed(raw), rejected, raw.event_rows, counts
        )

    def _build_completed(self, raw: _VecRaw) -> RecordTable:
        cols = raw.cols
        rows = raw.completed_rows
        sizes = [len(row[0]) for row in rows]
        total = sum(sizes)
        rid = np.fromiter(
            chain.from_iterable(row[0] for row in rows),
            dtype=np.int64,
            count=total,
        )
        platform_index = {name: index for index, name in enumerate(raw.names)}

        def per_request(values, dtype):
            return np.repeat(np.array(values, dtype=dtype), sizes)

        pidx = per_request([platform_index[row[1]] for row in rows], np.int64)
        level = per_request([row[2] for row in rows], np.int64)
        take = per_request([row[3] for row in rows], np.int64)
        start = per_request([row[4] for row in rows], np.float64)
        finish = per_request([row[5] for row in rows], np.float64)
        epi = per_request([row[6] for row in rows], np.float64)
        ent = per_request([row[7] for row in rows], np.float64)
        thr = per_request([row[8] for row in rows], np.float64)
        tidx = cols.tenant_index[rid]
        arrival = cols.arrivals[rid]
        entropy = ent * cols.difficulty[rid]
        runtime = finish - arrival
        # ``soc()``'s argument checks, raised exactly as materializing
        # ``completed`` would: the first offending request in
        # completion order re-runs the scalar function, which raises
        # its own error.
        bad = (epi <= 0) | (runtime < 0) | (entropy < 0) | (thr <= 0)
        if bad.any():
            first = int(np.argmax(bad))
            soc(
                runtime_s=float(runtime[first]),
                requirement=self.tenants[int(tidx[first])].requirement,
                entropy=float(entropy[first]),
                entropy_threshold=float(thr[first]),
                energy_joules=float(epi[first]),
            )
        imperceptible = np.array(
            [t.requirement.imperceptible_s for t in self.tenants] or [0.0],
            dtype=np.float64,
        )[tidx]
        unusable = np.array(
            [t.requirement.unusable_s for t in self.tenants] or [0.0],
            dtype=np.float64,
        )[tidx]
        soc_time = soc_time_vec(runtime, imperceptible, unusable)
        soc_accuracy = soc_accuracy_vec(entropy, thr)
        order = np.argsort(rid, kind="stable")
        return RecordTable(
            {
                "arrival_s": arrival[order],
                "batch": take[order],
                "deadline_hit": (finish <= cols.deadlines[rid])[order],
                "entropy": entropy[order],
                "finish_s": finish[order],
                "latency_s": runtime[order],
                "level": level[order],
                "platform": pidx[order],
                "rid": rid[order],
                "soc": soc_value_vec(soc_time, soc_accuracy, epi)[order],
                "soc_accuracy": soc_accuracy[order],
                "soc_time": soc_time[order],
                "start_s": start[order],
                "tenant": tidx[order],
            },
            raw.names,
            _tenant_pairs(self.tenants),
        )

    def _scan_flat(self, raw: _VecRaw) -> Tuple[Dict[str, int], RecordTable]:
        """Event counts per kind from the compact rows, and the
        rejected requests."""
        counts = dict.fromkeys(EventLog.KINDS, 0)
        for row in raw.flat:
            code = row[0]
            if code == _E_REJR:
                counts["reject"] += row[2] - row[1]
            elif code == _E_MOVE:
                counts[row[3]] += 1
            elif code == _E_RAW:
                counts[row[1]] += 1
            else:
                counts[_CODE_KINDS[code]] += 1
        rids, reasons = raw.rejections()
        rejected = RecordTable(
            {
                "arrival_s": raw.cols.arrivals[rids],
                "reason": np.array(reasons, dtype=object),
                "rid": rids,
                "tenant": raw.cols.tenant_index[rids],
            },
            [],
            _tenant_pairs(self.tenants),
        )
        return counts, rejected


def _tenant_pairs(tenants) -> List[Tuple[str, int]]:
    return [(tenant.name, tenant.priority) for tenant in tenants]


def _cached_states(router):
    """Fast-mode twin of ``RequestRouter._build_states``.

    Ladder materialization (one compile-and-measure per rung) is the
    dominant fixed cost of a run, yet in fast mode nothing can mutate
    a rung mid-run: there are no faults, so no health rescales and no
    re-targets.  The ladder and derived flush timeout are therefore
    memoized on each *deployment* (so they survive across router
    instances serving the same fleet), keyed by every config knob the
    ladder build reads, and revalidated by *identity* of the current
    tuning entry -- any recalibration or re-target swaps the entry
    object and misses the cache, falling back to a full eager build.
    Per-run mutable state (controller, health, breaker, accounting)
    is always fresh.
    """
    config = router.config
    ladder_key = (
        config.max_levels if config.degradation else 1,
        config.batch_growth,
        config.max_batch,
        config.min_gain,
        config.flush_timeout_s,
    )
    states = {}
    rebuilt = None
    for name, deployment in router.deployments.items():
        cache = deployment.__dict__.setdefault("_vec_ladder_cache", {})
        hit = cache.get(ladder_key)
        if (
            hit is None
            or hit[0] is not deployment.current_entry
            or hit[1] != (deployment.power_gating, deployment.use_priority_sm)
        ):
            if rebuilt is None:
                rebuilt = router._build_states()
            state = rebuilt[name]
            cache[ladder_key] = (
                deployment.current_entry,
                (deployment.power_gating, deployment.use_priority_sm),
                state.ladder,
                state.flush_timeout_s,
            )
            states[name] = state
            continue
        ladder = hit[2]
        base_time = ladder[0].exec_time_s
        states[name] = PlatformState(
            name=name,
            deployment=deployment,
            ladder=ladder,
            controller=DegradationController(
                n_levels=len(ladder),
                high_water_s=config.high_water_batches * base_time,
                low_water_s=config.low_water_batches * base_time,
                window=config.window,
                enabled=config.degradation,
            ),
            flush_timeout_s=hit[3],
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


def run_vectorized(
    router,
    loads: Sequence[TenantLoad],
    faults: Optional[FaultTrace] = None,
    obs: Optional[Instrumentation] = None,
    controller: Optional[object] = None,
) -> LazyReport:
    """Serve every tenant's trace: the body of
    :meth:`RequestRouter.run`, with its signature and report."""
    config = router.config
    if faults is not None:
        unknown = sorted(set(faults.platforms) - set(router.deployments))
        if unknown:
            raise ValueError(
                "fault trace names unknown platforms %s (fleet: %s)"
                % (", ".join(unknown), ", ".join(router.deployments))
            )
    if obs is None:
        obs = Instrumentation.disabled()
    expected = sum(load.trace.n_requests for load in loads)
    # Fast mode: nothing to observe, nothing can fail and nothing
    # steers the fleet, so health / breaker / obs hooks are all
    # provably no-ops and get skipped.
    track = faults is not None or obs.enabled or controller is not None

    flat: List[tuple] = []
    flat_append = flat.append
    now_ref = [0.0]
    obs.run_started(tuple(router.deployments), 0.0)
    unsubscribe = _subscribe_engines(router, flat, obs, now_ref)
    try:
        if track:
            # A controller's pre-warm decides which rungs compile
            # ahead of dispatch, so its ladders stay lazy.
            states = router._build_states(lazy=controller is not None)
        else:
            states = _cached_states(router)
        retry_policy = RetryPolicy(
            limit=config.retry_limit,
            backoff_s=config.retry_backoff_s,
            growth=config.retry_backoff_growth,
        )
        cols = ArrivalColumns(loads)
        n = cols.n
        arrivals = cols.arrivals_list
        tenant_index = cols.tenant_index_list
        has_deadline = cols.has_deadline_list
        request_at = cols.request_at

        tenant_names = [tenant.name for tenant in cols.tenants]
        t_imp = [t.requirement.imperceptible_s for t in cols.tenants]
        t_unu = [t.requirement.unusable_s for t in cols.tenants]
        t_span = [
            t.requirement.unusable_s - t.requirement.imperceptible_s
            for t in cols.tenants
        ]

        ps = [
            _P(index, name, state)
            for index, (name, state) in enumerate(states.items())
        ]
        for p in ps:
            p.rebuild()
        by_name = {p.name: p for p in ps}
        names = [p.name for p in ps]

        fifo = config.policy == "fifo"
        queue_limit = config.queue_limit
        degrade_admission = config.degrade_on_admission and config.degradation
        # Health/breaker gates only bind when resilience is on, and in
        # fast mode (no faults, no failures) they are identically True.
        avail_check = config.resilience and track
        calibrate = config.calibrate
        resilience = config.resilience

        # Queue ordering: the reference's SoC-policy sort key is
        # (-priority, deadline, rid) -- a *total* order (rid breaks
        # every tie), so sorting by each rid's rank along it is
        # equivalent.  The rank vector is one lexsort over the columns;
        # when it comes out as the identity (single tenant, or any mix
        # whose priority order coincides with arrival order), queue
        # sorts collapse to plain integer sorts.
        sort_key = None
        if not fifo and n:
            neg_priority = np.array(
                [-tenant.priority for tenant in cols.tenants],
                dtype=np.int64,
            )[cols.tenant_index]
            idx = np.arange(n)
            order = np.lexsort((idx, cols.deadlines, neg_priority))
            if not np.array_equal(order, idx):
                rank = np.empty(n, dtype=np.int64)
                rank[order] = idx
                sort_key = rank.tolist().__getitem__

        if faults is not None:
            fault_list = list(faults)
        else:
            fault_list = []
        fault_times = [fault.time_s for fault in fault_list]
        nf = len(fault_list)
        dyn = SoAEventQueue(first_seq=n + nf)
        dyn_push = dyn.push
        dyn_peek = dyn.peek_time
        last_arrival_s = arrivals[n - 1] if n else 0.0
        if controller is not None:
            controller.begin(states, 0.0)
            # Pushed before any other dynamic event: the first tick
            # takes sequence number n + f.
            if controller.tick_s <= last_arrival_s:
                dyn_push(controller.tick_s, _TICK, 0)

        completed_rows: List[tuple] = []
        attempts = {}
        rescued_rids = set()
        outage_started = {}
        mttr_episodes: List[float] = []
        counters = {
            "faults_injected": 0,
            "outages": 0,
            "batch_failures": 0,
            "retries": 0,
            "failovers": 0,
            "rejected": 0,
        }
        now = 0.0

        def sa_fill(p: _P, level: int) -> array:
            if p.batch[level] is None:
                p.fill(level)
            # A packed double array: indexing yields the exact Python
            # float a list would hold, at a quarter of the memory.
            column = array(
                "d",
                soc_accuracy_vec(
                    p.ent[level] * cols.difficulty, p.thr
                ).tobytes(),
            )
            p.sa[level] = column
            if level == p.level:
                p.cur_sa = column
            return column

        def admit(
            rid: int,
            now: float,
            # Constants bound as defaults: LOAD_FAST beats LOAD_DEREF
            # on the hottest function in the loop.
            ps=ps,
            queue_limit=queue_limit,
            avail_check=avail_check,
            fifo=fifo,
            tenant_index=tenant_index,
            t_imp=t_imp,
            t_unu=t_unu,
            t_span=t_span,
            has_deadline=has_deadline,
        ):
            """Admission: pick the best open platform under the
            policy, rescuing an infeasible pick by degrading; returns
            ``(platform, level, latency, value, reason)`` with
            ``platform=None`` on rejection.

            The scan body is duplicated inline in the fast loop (the
            hottest path in the loop); any change here must land
            there too -- the differential suite will catch a drift.
            The -inf/+inf seeds make the first open platform win its
            comparison exactly like the reference's first-candidate
            pick (scores are finite and non-negative).
            """
            tidx = tenant_index[rid]
            imp = t_imp[tidx]
            unu = t_unu[tidx]
            span = t_span[tidx]
            best = None
            best_level = 0
            best_st = 0.0
            best_value = -_INF
            best_latency = _INF
            for p in ps:
                queued = len(p.queue)
                if queued >= queue_limit:
                    continue
                if avail_check and not p.state.available(now):
                    continue
                # The accuracy column first: filling it materializes a
                # lazy rung, which is where a live ladder compiles it.
                column = p.cur_sa
                if column is None:
                    column = sa_fill(p, p.level)
                wait = p.busy_until - now
                if wait < 0.0:
                    wait = 0.0
                capacity = p.cur_bl
                exec_s = p.cur_el
                assembly = 0.0 if (queued + 1) % capacity == 0 else p.ft
                latency = (
                    wait + (queued // capacity) * exec_s + assembly + exec_s
                )
                if latency <= imp:
                    st = 1.0
                elif latency >= unu:
                    st = 0.0
                else:
                    st = 1.0 - (latency - imp) / span
                value = st * column[rid] / p.cur_epi
                if fifo:
                    pick = latency < best_latency
                else:
                    pick = value > best_value or (
                        value == best_value and latency < best_latency
                    )
                if pick:
                    best = p
                    best_level = p.level
                    best_value = value
                    best_latency = latency
                    best_st = st
            if best is None:
                return (None, 0, 0.0, 0.0, "saturated")
            if best_st > 0.0 or not has_deadline[rid]:
                return (best, best_level, best_latency, best_value, "ok")
            return admit_tail(rid, now, imp, unu, span)

        def admit_tail(rid, now, imp, unu, span):
            """The deadline-rescue tail of admission: escalate one
            platform's ladder to the shallowest feasible deeper rung,
            or reject as infeasible."""
            if degrade_admission:
                rescue = None
                rescue_level = 0
                rescue_value = rescue_latency = 0.0
                for p in ps:
                    queued = len(p.queue)
                    if queued >= queue_limit:
                        continue
                    if avail_check and not p.state.available(now):
                        continue
                    if not p.ctrl.enabled:
                        continue
                    wait = p.busy_until - now
                    if wait < 0.0:
                        wait = 0.0
                    for level in range(p.level + 1, p.n_levels):
                        if p.batch[level] is None:
                            p.fill(level)
                        capacity = p.batch[level]
                        exec_s = p.exec_s[level]
                        assembly = (
                            0.0 if (queued + 1) % capacity == 0 else p.ft
                        )
                        latency = (
                            wait
                            + (queued // capacity) * exec_s
                            + assembly
                            + exec_s
                        )
                        if latency <= imp:
                            st = 1.0
                        elif latency >= unu:
                            st = 0.0
                        else:
                            st = 1.0 - (latency - imp) / span
                        if st > 0.0:
                            # Shallowest feasible deeper rung per
                            # platform; winner by the SoC sort key.
                            column = p.sa[level]
                            if column is None:
                                column = sa_fill(p, level)
                            value = st * column[rid] / p.epi[level]
                            if (
                                rescue is None
                                or value > rescue_value
                                or (
                                    value == rescue_value
                                    and latency < rescue_latency
                                )
                            ):
                                rescue = p
                                rescue_level = level
                                rescue_value = value
                                rescue_latency = latency
                            break
                if rescue is not None:
                    rescue.ctrl.escalate_to(rescue_level)
                    rescue.set_level(rescue.ctrl.level)
                    return (
                        rescue,
                        rescue_level,
                        rescue_latency,
                        rescue_value,
                        "ok-degraded",
                    )
            return (None, 0, 0.0, 0.0, "infeasible")

        def reject(rid, now, reason, platform_index=None, extra=None):
            counters["rejected"] += 1
            if extra is None:
                flat_append((_E_REJ, now, rid, reason))
            else:
                flat_append((_E_REJ, now, rid, reason, platform_index, extra))
            if track:
                obs.request_rejected(request_at(rid), now, reason)

        def try_dispatch(
            p: _P,
            now: float,
            arrivals=arrivals,
            avail_check=avail_check,
            sort_key=sort_key,
            dyn_push=dyn_push,
        ) -> None:
            queue = p.queue
            # Idle means the in-flight batch has landed, not merely that
            # the clock reached its finish time: an event at exactly
            # that time can run before the batch's free event, and
            # launching then would overwrite (and lose) the batch.
            while p.inflight is None and queue:
                if avail_check and not p.state.available(now):
                    # Down, or breaker open/probing: hold the queue.
                    return
                if p.cur_bl is None:
                    p.fill(p.level)
                if p.dirty:
                    if sort_key is None:
                        queue.sort()
                    else:
                        queue.sort(key=sort_key)
                    p.dirty = False
                head_arrival = arrivals[queue[0]]
                if len(queue) < p.cur_bl and now < head_arrival + p.ft:
                    flush_at = head_arrival + p.ft
                    pending = p.pending_flush_at
                    if pending is None or flush_at < pending:
                        p.pending_flush_at = flush_at
                        dyn_push(flush_at, _FLUSH, p.index)
                    return
                launch(p, now)

        def launch(
            p: _P,
            now: float,
            track=track,
            dyn_push=dyn_push,
            flat_append=flat_append,
        ) -> None:
            state = p.state
            queue = p.queue
            # Columns are indexed by the controller's level; the batch
            # records the level of the rung that serves it.
            current = p.level
            level = p.rl[current]
            capacity = p.cur_bl
            exec_s = p.cur_el
            queued = len(queue)
            take = capacity if queued > capacity else queued
            rids = tuple(queue[:take])
            del queue[:take]
            will_fail = False
            if track:
                if not state.health.up:
                    will_fail = True
                elif state.transient_pending > 0:
                    state.transient_pending -= 1
                    will_fail = True
            finish = now + exec_s
            p.busy_until = finish
            state.batches += 1
            state.level_sum += level
            row = (
                rids,
                level,
                now,
                finish,
                will_fail,
                exec_s,
                p.energy[current],
                p.cur_epi,
                p.ent[current],
                take,
            )
            # Slow mode keeps the row mutable: an outage flips its
            # will_fail flag in flight.
            p.inflight = list(row) if track else row
            if track:
                state.inflight = InFlightBatch(
                    requests=[request_at(rid) for rid in rids],
                    rung=state.rung_at(current),
                    start_s=now,
                    finish_s=finish,
                    will_fail=will_fail,
                )
                if state.breaker is not None:
                    move = state.breaker.on_dispatch(now)
                    if move is not None:
                        flat_append(
                            (_E_RAW, move, now, None, p.name, (), ())
                        )
                        obs.breaker_transition(p.name, move, now)
            dyn_push(finish, _FREE, p.index)
            flat_append(
                (_E_DISP, now, p.index, rids, level, take, capacity, finish)
            )
            if track:
                obs.batch_dispatched(
                    p.name, state.inflight, capacity, len(queue), now
                )
            queued_batches = -(-len(queue) // capacity)
            move = p.ctrl.observe(queued_batches * exec_s)
            if move is not None:
                p.set_level(p.ctrl.level)
                flat_append((_E_MOVE, now, p.index, move, p.ctrl.level))
                if track:
                    obs.degradation_move(p.name, move, p.ctrl.level, now)

        def complete(p: _P, row: list, batch) -> None:
            rids = row[0]
            level = row[1]
            start = row[2]
            finish = row[3]
            exec_s = row[5]
            energy = row[6]
            epi = row[7]
            ent = row[8]
            take = row[9]
            state = p.state
            state.requests_served += take
            state.busy_s += exec_s
            state.energy_j += energy
            if track:
                if state.breaker is not None:
                    move = state.breaker.on_success(now)
                    if move is not None:
                        flat_append(
                            (_E_RAW, move, now, None, p.name, (), ())
                        )
                        obs.breaker_transition(p.name, move, now)
                obs.batch_completed(p.name, batch, finish, energy)
            completed_rows.append(
                (rids, p.name, level, take, start, finish, epi, ent, p.thr)
            )
            flat_append((_E_COMP, finish, p.index, rids, level))
            if track:
                for rid in rids:
                    obs.request_completed(request_at(rid), finish, p.name, level)
            if calibrate and level == 0:
                difficulty = cols.difficulty_list
                batch_entropy = 0.0
                for rid in rids:
                    entropy = ent * difficulty[rid]
                    if entropy > batch_entropy:
                        batch_entropy = entropy
                state.deployment.observe_entropy(batch_entropy)

        def retry_or_reject(rid: int) -> None:
            attempt = attempts.get(rid, 0) + 1
            attempts[rid] = attempt
            if resilience:
                delay = retry_policy.backoff_for(attempt, now, request_at(rid))
                if delay is not None:
                    counters["retries"] += 1
                    flat_append(
                        (
                            _E_RAW,
                            "retry",
                            now,
                            tenant_names[tenant_index[rid]],
                            None,
                            (rid,),
                            (("attempt", attempt), ("backoff_s", delay)),
                        )
                    )
                    obs.retry_scheduled(request_at(rid), now, attempt, delay)
                    dyn_push(now + delay, _RETRY, rid)
                    return
                reject(rid, now, "retries-exhausted")
                return
            reject(rid, now, "failed")

        def on_batch_failure(p: _P, row: list, batch) -> None:
            state = p.state
            state.failed_batches += 1
            counters["batch_failures"] += 1
            rids = row[0]
            flat_append(
                (
                    _E_RAW,
                    "batch_failed",
                    now,
                    None,
                    p.name,
                    rids,
                    (("level", row[1]),),
                )
            )
            obs.batch_failed(p.name, batch, now)
            if state.breaker is not None:
                move = state.breaker.on_failure(now)
                if move is not None:
                    flat_append((_E_RAW, move, now, None, p.name, (), ()))
                    obs.breaker_transition(p.name, move, now)
                    if move == "breaker_open":
                        dyn_push(
                            now + config.breaker_cooldown_s, _PROBE, p.index
                        )
            for rid in rids:
                retry_or_reject(rid)

        def failover(rid: int, origin: str) -> None:
            target, level, latency, value, reason = admit(rid, now)
            if target is None:
                reject(rid, now, "outage", None, (("origin", origin),))
                return
            counters["failovers"] += 1
            rescued_rids.add(rid)
            target.queue.append(rid)
            target.dirty = True
            flat_append(
                (
                    _E_RAW,
                    "failover",
                    now,
                    tenant_names[tenant_index[rid]],
                    target.name,
                    (rid,),
                    (("origin", origin), ("level", level)),
                )
            )
            obs.failover(request_at(rid), now, origin, target.name)
            try_dispatch(target, now)

        def on_outage(p: _P) -> None:
            state = p.state
            if not resilience:
                if p.inflight is not None:
                    p.inflight[4] = True
                    state.inflight.will_fail = True
                return
            victims: List[int] = []
            if p.inflight is not None:
                obs.batch_abandoned(p.name, state.inflight, now)
                victims.extend(p.inflight[0])
                p.inflight = None
                state.inflight = None
            victims.extend(p.queue)
            del p.queue[:]
            p.busy_until = now
            state.busy_until = now
            for rid in sorted(victims):
                failover(rid, p.name)

        def on_fault(p: _P, fault) -> None:
            state = p.state
            consequence = state.health.apply(fault)
            counters["faults_injected"] += 1
            obs.fault(fault, now)
            flat_append(
                (
                    _E_RAW,
                    "fault",
                    now,
                    None,
                    fault.platform,
                    (),
                    (
                        ("fault_kind", fault.kind),
                        ("episode", fault.episode),
                        ("sm_fail_fraction", fault.sm_fail_fraction),
                        ("relative_frequency", fault.relative_frequency),
                        ("bandwidth_scale", fault.bandwidth_scale),
                    ),
                )
            )
            if consequence == "down":
                counters["outages"] += 1
                outage_started[fault.platform] = now
                on_outage(p)
            elif consequence == "up":
                started = outage_started.pop(fault.platform, None)
                if started is not None:
                    mttr_episodes.append(now - started)
                p.rebuild()
                try_dispatch(p, now)
                return
            elif consequence == "recompile":
                router._retarget_ladder(state)
            elif consequence == "transient":
                state.transient_pending += 1
            p.rebuild()

        def on_tick() -> None:
            """One control-plane tick: let the controller forecast and
            act, log its actions, wake every platform it changed, and
            re-arm the next tick while arrivals remain."""
            outcome = controller.tick(now, states)
            flat_append(
                (
                    _E_RAW,
                    "control_tick",
                    now,
                    None,
                    None,
                    (),
                    (
                        ("observed_rps", outcome.observed_rps),
                        ("forecast_rps", outcome.forecast_rps),
                        ("level", outcome.target_level),
                    ),
                )
            )
            obs.control_tick(
                now,
                outcome.observed_rps,
                outcome.forecast_rps,
                outcome.target_level,
                outcome.error_rps,
            )
            for platform, level, batch in outcome.prewarmed:
                flat_append(
                    (
                        _E_RAW,
                        "prewarm",
                        now,
                        None,
                        platform,
                        (),
                        (("level", level), ("batch", batch)),
                    )
                )
                obs.prewarm(platform, level, now)
            for platform, _old, level in outcome.degraded:
                flat_append(
                    (
                        _E_RAW,
                        "degrade",
                        now,
                        None,
                        platform,
                        (),
                        (("cause", "forecast"), ("level", level)),
                    )
                )
                obs.degradation_move(platform, "degrade", level, now)
            for platform, relative_frequency in outcome.dvfs_moves:
                flat_append(
                    (
                        _E_RAW,
                        "dvfs",
                        now,
                        None,
                        platform,
                        (),
                        (("relative_frequency", relative_frequency),),
                    )
                )
                obs.dvfs_move(platform, relative_frequency, now)
            changed = [by_name[name] for name in sorted(outcome.changed_platforms)]
            for p in changed:
                p.rebuild()
            for p in changed:
                try_dispatch(p, now)
            next_tick = now + controller.tick_s
            if next_tick <= last_arrival_s:
                dyn_push(next_tick, _TICK, 0)

        def on_free(p: _P, now: float) -> None:
            row = p.inflight
            if row is not None and row[3] <= now:
                p.inflight = None
                if track:
                    batch = p.state.inflight
                    p.state.inflight = None
                else:
                    batch = None
                if row[4]:
                    on_batch_failure(p, row, batch)
                else:
                    complete(p, row, batch)
            try_dispatch(p, now)

        def on_arrival(rid: int, now: float) -> None:
            p, level, latency, value, reason = admit(rid, now)
            if p is None:
                reject(rid, now, reason)
                return
            if reason == "ok-degraded":
                flat_append((_E_ADEG, now, rid, p.index, p.ctrl.level))
                if track:
                    obs.degradation_move(p.name, "degrade", p.ctrl.level, now)
            p.queue.append(rid)
            p.dirty = True
            flat_append((_E_ENQ, now, rid, p.index, level, value, latency))
            if track:
                obs.request_admitted(
                    request_at(rid), now, p.name, level, reason, len(p.queue)
                )
            if p.inflight is None:
                try_dispatch(p, now)

        # -- the merged event loop --------------------------------------
        # Three pre-ordered streams replace the reference heap: the
        # arrival columns (seqs 0..n-1), the fault trace (n..n+f-1)
        # and the SoA heap (n+f..).  At equal timestamps the lowest
        # sequence number wins, exactly like the reference's
        # (time_s, push_seq) tuples.
        ai = 0
        fi = 0
        if not track:
            # Fast two-stream loop (fast mode never has faults).  The
            # dynamic peek is cached across iterations and re-read only
            # when the heap's version moved; engine hooks cannot fire
            # mid-loop here (every rung is materialized up front and
            # nothing recompiles without faults), so the hook clock
            # (`now_ref`) stays at its build-time value.
            # Per-rid requirement columns: one list index per arrival
            # instead of tenant-index chasing (fancy indexing of the
            # float64 columns converts bit-identically).
            t_imp_arr = np.asarray(t_imp, dtype=np.float64)
            t_unu_arr = np.asarray(t_unu, dtype=np.float64)
            t_span_arr = np.asarray(t_span, dtype=np.float64)
            imp_r = t_imp_arr[cols.tenant_index].tolist()
            unu_r = t_unu_arr[cols.tenant_index].tolist()
            span_r = t_span_arr[cols.tenant_index].tolist()
            version = -1
            td = _INF
            while True:
                if dyn.version != version:
                    version = dyn.version
                    td = dyn_peek()
                ta = arrivals[ai] if ai < n else _INF
                if ta <= td:
                    if ta == _INF:
                        break
                    now = ta
                    rid = ai
                    ai += 1
                    # Inlined fast-mode admission -- the second copy of
                    # ``admit``'s scan (see its docstring; keep both in
                    # sync).  It drops the statically dead fast-mode
                    # branches (``avail_check`` is False without
                    # faults, obs is disabled) and the call/return
                    # overhead, both measurable at one call per
                    # arrival.
                    imp = imp_r[rid]
                    unu = unu_r[rid]
                    span = span_r[rid]
                    best = None
                    best_level = 0
                    best_st = 0.0
                    best_value = -_INF
                    best_latency = _INF
                    for p in ps:
                        queued = len(p.queue)
                        if queued >= queue_limit:
                            continue
                        column = p.cur_sa
                        if column is None:
                            column = sa_fill(p, p.level)
                        wait = p.busy_until - now
                        if wait < 0.0:
                            wait = 0.0
                        capacity = p.cur_bl
                        exec_s = p.cur_el
                        assembly = (
                            0.0 if (queued + 1) % capacity == 0 else p.ft
                        )
                        latency = (
                            wait + (queued // capacity) * exec_s
                            + assembly + exec_s
                        )
                        if latency <= imp:
                            st = 1.0
                        elif latency >= unu:
                            st = 0.0
                        else:
                            st = 1.0 - (latency - imp) / span
                        value = st * column[rid] / p.cur_epi
                        if fifo:
                            pick = latency < best_latency
                        else:
                            pick = value > best_value or (
                                value == best_value
                                and latency < best_latency
                            )
                        if pick:
                            best = p
                            best_level = p.level
                            best_value = value
                            best_latency = latency
                            best_st = st
                    if best is None:
                        reject(rid, now, "saturated")
                        # Every queue is full and nothing can drain
                        # one before the next dynamic event: the whole
                        # burst of arrivals up to (and at) that
                        # timestamp is rejected in one binary search.
                        # The expansion back to per-request reject
                        # events is deferred with the rest of the log.
                        end = bisect_right(arrivals, td, ai, n)
                        if end > ai:
                            flat_append((_E_REJR, ai, end))
                            counters["rejected"] += end - ai
                            ai = end
                        continue
                    if best_st > 0.0 or not has_deadline[rid]:
                        p = best
                        level = best_level
                        latency = best_latency
                        value = best_value
                    else:
                        p, level, latency, value, reason = admit_tail(
                            rid, now, imp, unu, span
                        )
                        if p is None:
                            reject(rid, now, reason)
                            continue
                        flat_append(
                            (_E_ADEG, now, rid, p.index, p.ctrl.level)
                        )
                    p.queue.append(rid)
                    p.dirty = True
                    flat_append(
                        (_E_ENQ, now, rid, p.index, level, value, latency)
                    )
                    if p.inflight is None:
                        try_dispatch(p, now)
                else:
                    time_s, _seq, kind, payload = dyn.pop()
                    now = time_s
                    if kind == _FREE:
                        # Inlined fast-mode ``on_free`` -> ``complete``
                        # -> ``try_dispatch`` -> ``launch`` chain (keep
                        # in sync with those functions).  Fast mode has
                        # no faults, so ``will_fail`` (row[4]) is
                        # always False, batches never fail, and the
                        # availability hold in ``try_dispatch`` cannot
                        # trigger; obs and breaker calls are disabled.
                        p = ps[payload]
                        row = p.inflight
                        if row is not None and row[3] <= time_s:
                            p.inflight = None
                            finish = row[3]
                            ent = row[8]
                            take = row[9]
                            state = p.state
                            state.requests_served += take
                            state.busy_s += row[5]
                            state.energy_j += row[6]
                            rids = row[0]
                            level = row[1]
                            completed_rows.append(
                                (rids, p.name, level, take, row[2],
                                 finish, row[7], ent, p.thr)
                            )
                            flat_append(
                                (_E_COMP, finish, p.index, rids, level)
                            )
                            if calibrate and level == 0:
                                difficulty = cols.difficulty_list
                                batch_entropy = 0.0
                                for crid in rids:
                                    entropy = ent * difficulty[crid]
                                    if entropy > batch_entropy:
                                        batch_entropy = entropy
                                state.deployment.observe_entropy(
                                    batch_entropy
                                )
                        queue = p.queue
                        while p.inflight is None and queue:
                            if p.dirty:
                                if sort_key is None:
                                    queue.sort()
                                else:
                                    queue.sort(key=sort_key)
                                p.dirty = False
                            capacity = p.cur_bl
                            head_arrival = arrivals[queue[0]]
                            if (
                                len(queue) < capacity
                                and time_s < head_arrival + p.ft
                            ):
                                flush_at = head_arrival + p.ft
                                pending = p.pending_flush_at
                                if pending is None or flush_at < pending:
                                    p.pending_flush_at = flush_at
                                    dyn_push(flush_at, _FLUSH, p.index)
                                break
                            current = p.level
                            level = p.rl[current]
                            exec_s = p.cur_el
                            queued = len(queue)
                            take = (
                                capacity if queued > capacity else queued
                            )
                            rids = tuple(queue[:take])
                            del queue[:take]
                            finish = time_s + exec_s
                            p.busy_until = finish
                            state = p.state
                            state.batches += 1
                            state.level_sum += level
                            p.inflight = (
                                rids, level, time_s, finish, False,
                                exec_s, p.energy[current], p.cur_epi,
                                p.ent[current], take,
                            )
                            dyn_push(finish, _FREE, p.index)
                            flat_append(
                                (_E_DISP, time_s, p.index, rids, level,
                                 take, capacity, finish)
                            )
                            queued_batches = -(-len(queue) // capacity)
                            move = p.ctrl.observe(queued_batches * exec_s)
                            if move is not None:
                                p.set_level(p.ctrl.level)
                                flat_append(
                                    (_E_MOVE, time_s, p.index, move,
                                     p.ctrl.level)
                                )
                    elif kind == _FLUSH:
                        p = ps[payload]
                        pending = p.pending_flush_at
                        if pending is not None and pending <= time_s:
                            p.pending_flush_at = None
                        try_dispatch(p, time_s)
                    elif kind == _RETRY:
                        on_arrival(payload, time_s)
                    else:  # _PROBE
                        try_dispatch(ps[payload], time_s)
        else:
            while True:
                ta = arrivals[ai] if ai < n else _INF
                tf = fault_times[fi] if fi < nf else _INF
                td = dyn_peek()
                if ta == _INF and tf == _INF and td == _INF:
                    break
                if ta <= tf and ta <= td:
                    now = ta
                    now_ref[0] = ta
                    rid = ai
                    ai += 1
                    if controller is not None:
                        controller.observe_arrival(request_at(rid), ta)
                    on_arrival(rid, ta)
                elif tf <= td:
                    now = tf
                    now_ref[0] = tf
                    fault = fault_list[fi]
                    fi += 1
                    on_fault(by_name[fault.platform], fault)
                else:
                    time_s, _seq, kind, payload = dyn.pop()
                    now = time_s
                    now_ref[0] = time_s
                    if kind == _FREE:
                        on_free(ps[payload], time_s)
                    elif kind == _FLUSH:
                        p = ps[payload]
                        pending = p.pending_flush_at
                        if pending is not None and pending <= time_s:
                            p.pending_flush_at = None
                        try_dispatch(p, time_s)
                    elif kind == _RETRY:
                        on_arrival(payload, time_s)
                    elif kind == _TICK:
                        on_tick()
                    else:  # _PROBE
                        try_dispatch(ps[payload], time_s)

        # Zero-loss backstop, twin of ``_reject_stranded``: platforms
        # in name order, stranded requests in rid order.
        for p in ps:
            stranded: List[int] = []
            if p.inflight is not None:
                if track:
                    obs.batch_abandoned(p.name, p.state.inflight, now)
                    p.state.inflight = None
                stranded.extend(p.inflight[0])
                p.inflight = None
            stranded.extend(p.queue)
            del p.queue[:]
            for rid in sorted(stranded):
                reject(rid, now, "stranded", platform_index=p.index, extra=())
    finally:
        unsubscribe()

    check_conservation(
        expected,
        sum(row[3] for row in completed_rows),
        counters["rejected"],
        "router run",
    )
    horizon = 0.0
    if completed_rows:
        horizon = max(horizon, max(row[5] for row in completed_rows))
    if n:
        horizon = max(horizon, arrivals[n - 1])
    obs.run_finished(horizon)

    resilience_stats = None
    if faults is not None:
        completed_rids = set(
            chain.from_iterable(row[0] for row in completed_rows)
        )
        breakers = [
            p.state.breaker for p in ps if p.state.breaker is not None
        ]
        resilience_stats = ResilienceStats(
            faults_injected=counters["faults_injected"],
            outages=counters["outages"],
            mttr_s=(
                sum(mttr_episodes) / len(mttr_episodes)
                if mttr_episodes
                else 0.0
            ),
            mttr_episodes=len(mttr_episodes),
            batch_failures=counters["batch_failures"],
            retries=counters["retries"],
            failovers=counters["failovers"],
            requests_rescued=len(rescued_rids & completed_rids),
            breaker_opens=sum(b.opens for b in breakers),
            breaker_closes=sum(b.closes for b in breakers),
        )
    return LazyReport(
        _source=_VecRaw(cols, flat, completed_rows, names),
        platforms=router._platform_stats(states, horizon),
        horizon_s=horizon,
        resilience=resilience_stats,
        obs=obs.report_section() if obs.enabled else None,
        control=(
            controller.report_section() if controller is not None else None
        ),
    )


def _subscribe_engines(router, flat, obs, now_ref):
    """Twin of ``RequestRouter._subscribe_engines`` appending compact
    event rows instead of recording into an ``EventLog``."""
    engines = {}
    for deployment in router.deployments.values():
        engines[id(deployment.engine)] = deployment.engine
    flat_append = flat.append

    def on_compile(key, plan, **_ignored):
        flat_append(
            (
                _E_RAW,
                "compile",
                now_ref[0],
                None,
                key.arch,
                (),
                (
                    ("network", key.network),
                    ("batch", key.batch),
                    ("perforation", key.perforation),
                ),
            )
        )

    def on_cache_hit(kind, key, **_ignored):
        flat_append(
            (
                _E_RAW,
                "cache_hit",
                now_ref[0],
                None,
                getattr(key, "arch", None),
                (),
                (("cache", kind),),
            )
        )

    detachers = []
    for engine in engines.values():
        engine.hooks.subscribe("on_compile", on_compile)
        engine.hooks.subscribe("on_cache_hit", on_cache_hit)
        detachers.append(obs.attach_engine(engine, lambda: now_ref[0]))

    def unsubscribe():
        for engine in engines.values():
            engine.hooks.unsubscribe("on_compile", on_compile)
            engine.hooks.unsubscribe("on_cache_hit", on_cache_hit)
        for detach in detachers:
            detach()

    return unsubscribe
