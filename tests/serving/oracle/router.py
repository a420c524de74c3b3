"""The reference router event loop (test-only oracle).

A deterministic discrete-event simulation over a ``heapq`` of
``(time_s, push_seq, kind, payload)`` tuples: arrival, platform-free,
flush-timer, fault, retry, breaker-probe and control-tick events are
processed in strict (time, sequence) order.  Per event the loop
admits the request through the :class:`AdmissionController`, routes it
to the platform whose current rung promises the best SoC, assembles
batches under the :class:`~repro.core.runtime.server.FlushPolicy`
rule, and lets each platform's degradation controller walk the
overload ladder.  Batches complete at finish time, so outages and
transients can fail them and hand their requests to failover, retry
or an explicit rejection.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.runtime.server import FlushPolicy
from repro.core.satisfaction import soc
from repro.faults.events import FaultEvent, FaultTrace
from repro.obs.instrument import Instrumentation
from repro.serving.dispatch import InFlightBatch, PlatformState
from repro.serving.events import EventLog
from repro.serving.report import (
    CompletedRequest,
    RejectedRequest,
    ResilienceStats,
    RouterReport,
)
from repro.serving.request import Request, TenantLoad, merge_loads
from repro.serving.resilience import RetryPolicy
from repro.serving.router import RequestRouter
from tests.serving.oracle.admission import AdmissionController
from tests.serving.oracle.dispatch import Dispatcher, order_queue

__all__ = ["ReferenceRouter", "reference_loop"]


# Event kinds, in tie-break-irrelevant order (the push sequence number
# is the actual tie-breaker).
_ARRIVAL = "arrival"
_FREE = "free"
_FLUSH = "flush"
_FAULT = "fault"
_RETRY = "retry"
_PROBE = "probe"
_TICK = "tick"


class _RunState:
    """Everything mutable about one reference-loop run."""

    def __init__(
        self,
        events: EventLog,
        retry_policy: RetryPolicy,
        obs: Instrumentation,
    ) -> None:
        self.events = events
        self.retry_policy = retry_policy
        self.obs = obs
        self.completed: List[CompletedRequest] = []
        self.rejected: List[RejectedRequest] = []
        self.states: Dict[str, PlatformState] = {}
        self.admission: Optional[AdmissionController] = None
        #: Delivery attempts per request id (first dispatch counts).
        self.attempts: Dict[int, int] = {}
        #: Request ids moved off a dead platform by failover.
        self.rescued_rids: Set[int] = set()
        self.outage_started: Dict[str, float] = {}
        self.mttr_episodes: List[float] = []
        self.faults_injected = 0
        self.outages = 0
        self.batch_failures = 0
        self.retries = 0
        self.failovers = 0

    def resilience_stats(self) -> ResilienceStats:
        completed_rids = {r.request.rid for r in self.completed}
        episodes = self.mttr_episodes
        breakers = [
            s.breaker for s in self.states.values() if s.breaker is not None
        ]
        return ResilienceStats(
            faults_injected=self.faults_injected,
            outages=self.outages,
            mttr_s=sum(episodes) / len(episodes) if episodes else 0.0,
            mttr_episodes=len(episodes),
            batch_failures=self.batch_failures,
            retries=self.retries,
            failovers=self.failovers,
            requests_rescued=len(self.rescued_rids & completed_rids),
            breaker_opens=sum(b.opens for b in breakers),
            breaker_closes=sum(b.closes for b in breakers),
        )


class ReferenceRouter(RequestRouter):
    """A :class:`RequestRouter` whose :meth:`run` is the reference
    loop; platform-state build, ladder re-targeting and platform
    statistics are the production router's own."""

    # -- run -------------------------------------------------------------
    def run(
        self,
        loads: Sequence[TenantLoad],
        faults: Optional[FaultTrace] = None,
        obs: Optional[Instrumentation] = None,
        controller: Optional[object] = None,
    ) -> RouterReport:
        """Serve every tenant's trace through the reference loop;
        same signature and report as :meth:`RequestRouter.run`."""
        config = self.config
        if faults is not None:
            unknown = sorted(
                set(faults.platforms) - set(self.deployments)
            )
            if unknown:
                raise ValueError(
                    "fault trace names unknown platforms %s (fleet: %s)"
                    % (", ".join(unknown), ", ".join(self.deployments))
                )
        events = EventLog()
        if obs is None:
            obs = Instrumentation.disabled()
        run = _RunState(
            events,
            RetryPolicy(
                limit=config.retry_limit,
                backoff_s=config.retry_backoff_s,
                growth=config.retry_backoff_growth,
            ),
            obs,
        )
        self._now = 0.0
        obs.run_started(tuple(self.deployments), 0.0)
        unsubscribe = self._subscribe_engines(events, obs)
        try:
            run.states = self._build_states(lazy=controller is not None)
            dispatcher = Dispatcher(run.states, policy=config.policy)
            run.admission = AdmissionController(
                dispatcher,
                queue_limit=config.queue_limit,
                degrade_on_admission=(
                    config.degrade_on_admission and config.degradation
                ),
                health_aware=config.resilience,
            )
            requests = merge_loads(loads)

            heap: List[Tuple[float, int, str, object]] = []
            push_seq = 0

            def push(time_s: float, kind: str, payload: object) -> None:
                nonlocal push_seq
                heapq.heappush(heap, (time_s, push_seq, kind, payload))
                push_seq += 1

            for request in requests:
                push(request.arrival_s, _ARRIVAL, request)
            if faults is not None:
                for fault in faults:
                    push(fault.time_s, _FAULT, fault)
            last_arrival_s = requests[-1].arrival_s if requests else 0.0
            if controller is not None:
                controller.begin(run.states, 0.0)
                if controller.tick_s <= last_arrival_s:
                    push(controller.tick_s, _TICK, controller)

            while heap:
                time_s, _seq, kind, payload = heapq.heappop(heap)
                self._now = time_s
                if kind == _ARRIVAL or kind == _RETRY:
                    if kind == _ARRIVAL and controller is not None:
                        controller.observe_arrival(payload, time_s)
                    self._on_arrival(payload, run, push)
                elif kind == _TICK:
                    self._on_tick(payload, run, push, last_arrival_s)
                elif kind == _FREE:
                    self._on_free(payload, run, push)
                elif kind == _FAULT:
                    self._on_fault(payload, run, push)
                elif kind == _PROBE:
                    self._try_dispatch(payload, run, push)
                else:  # _FLUSH
                    state = payload
                    if (
                        state.pending_flush_at is not None
                        and state.pending_flush_at <= time_s
                    ):
                        state.pending_flush_at = None
                    self._try_dispatch(state, run, push)

            self._reject_stranded(run)
        finally:
            unsubscribe()

        horizon = 0.0
        if run.completed:
            horizon = max(horizon, max(r.finish_s for r in run.completed))
        if requests:
            horizon = max(horizon, requests[-1].arrival_s)
        obs.run_finished(horizon)
        return RouterReport(
            completed=sorted(run.completed, key=lambda r: r.request.rid),
            rejected=sorted(run.rejected, key=lambda r: r.request.rid),
            platforms=self._platform_stats(run.states, horizon),
            events=events,
            horizon_s=horizon,
            resilience=(
                run.resilience_stats() if faults is not None else None
            ),
            obs=obs.report_section() if obs.enabled else None,
            control=(
                controller.report_section()
                if controller is not None
                else None
            ),
        )

    # -- setup -----------------------------------------------------------
    def _subscribe_engines(self, events: EventLog, obs: Instrumentation):
        """Relay engine compile/cache activity into the event log (and
        the instrumentation, when enabled) for the duration of one
        run; returns the unsubscribe closure."""
        engines = {}
        for deployment in self.deployments.values():
            engines[id(deployment.engine)] = deployment.engine

        def on_compile(key, plan, **_ignored):
            events.record(
                "compile",
                time_s=self._now,
                platform=key.arch,
                network=key.network,
                batch=key.batch,
                perforation=key.perforation,
            )

        def on_cache_hit(kind, key, **_ignored):
            events.record(
                "cache_hit",
                time_s=self._now,
                platform=getattr(key, "arch", None),
                cache=kind,
            )

        detachers = []
        for engine in engines.values():
            engine.hooks.subscribe("on_compile", on_compile)
            engine.hooks.subscribe("on_cache_hit", on_cache_hit)
            detachers.append(obs.attach_engine(engine, lambda: self._now))

        def unsubscribe():
            for engine in engines.values():
                engine.hooks.unsubscribe("on_compile", on_compile)
                engine.hooks.unsubscribe("on_cache_hit", on_cache_hit)
            for detach in detachers:
                detach()

        return unsubscribe

    # -- event handlers ---------------------------------------------------
    def _on_arrival(self, request, run: _RunState, push) -> None:
        now = self._now
        decision = run.admission.admit(request, now)
        if not decision.admitted:
            self._reject(request, decision.reason, run)
            return
        candidate = decision.candidate
        state = run.states[candidate.platform]
        if decision.reason == "ok-degraded":
            run.events.record(
                "degrade",
                time_s=now,
                platform=state.name,
                tenant=request.tenant.name,
                request_ids=(request.rid,),
                cause="admission",
                level=state.controller.level,
            )
            run.obs.degradation_move(
                state.name, "degrade", state.controller.level, now
            )
        state.queue.append(request)
        run.events.record(
            "enqueue",
            time_s=now,
            tenant=request.tenant.name,
            platform=state.name,
            request_ids=(request.rid,),
            level=candidate.level,
            predicted_soc=candidate.predicted_soc,
            predicted_latency_s=candidate.predicted_latency_s,
        )
        run.obs.request_admitted(
            request,
            now,
            state.name,
            candidate.level,
            decision.reason,
            len(state.queue),
        )
        self._try_dispatch(state, run, push)

    def _on_free(self, state: PlatformState, run: _RunState, push) -> None:
        """A platform's batch reached its finish time: land its
        outcome (complete or fail), then keep the platform busy."""
        now = self._now
        batch = state.inflight
        if batch is not None and batch.finish_s <= now:
            state.inflight = None
            if batch.will_fail:
                self._on_batch_failure(state, batch, run, push)
            else:
                self._complete_batch(state, batch, run)
        self._try_dispatch(state, run, push)

    def _on_fault(self, fault: FaultEvent, run: _RunState, push) -> None:
        """Apply one injected fault to its platform's health and act
        on the consequence."""
        now = self._now
        state = run.states[fault.platform]
        consequence = state.health.apply(fault)
        run.faults_injected += 1
        run.obs.fault(fault, now)
        run.events.record(
            "fault",
            time_s=now,
            platform=fault.platform,
            fault_kind=fault.kind,
            episode=fault.episode,
            sm_fail_fraction=fault.sm_fail_fraction,
            relative_frequency=fault.relative_frequency,
            bandwidth_scale=fault.bandwidth_scale,
        )
        if consequence == "down":
            run.outages += 1
            run.outage_started[fault.platform] = now
            self._on_outage(state, run, push)
        elif consequence == "up":
            started = run.outage_started.pop(fault.platform, None)
            if started is not None:
                run.mttr_episodes.append(now - started)
            # Surviving queue (health-blind mode) gets served again.
            self._try_dispatch(state, run, push)
        elif consequence == "recompile":
            self._retarget_ladder(state)
        elif consequence == "transient":
            state.transient_pending += 1
        # "rescale" needs no action: rungs are scaled lazily through
        # PlatformState.rung_at / PlatformHealth.scale_rung.

    def _on_tick(
        self, controller, run: _RunState, push, last_arrival_s: float
    ) -> None:
        """One control-plane tick: let the controller forecast and
        act, then mirror its actions into the event log and obs, wake
        any platform it changed, and re-arm the next tick (ticks stop
        once the trace's last arrival is behind us -- the drain phase
        is the reactive machinery's business)."""
        now = self._now
        outcome = controller.tick(now, run.states)
        run.events.record(
            "control_tick",
            time_s=now,
            observed_rps=outcome.observed_rps,
            forecast_rps=outcome.forecast_rps,
            level=outcome.target_level,
        )
        run.obs.control_tick(
            now,
            outcome.observed_rps,
            outcome.forecast_rps,
            outcome.target_level,
            outcome.error_rps,
        )
        for platform, level, batch in outcome.prewarmed:
            run.events.record(
                "prewarm",
                time_s=now,
                platform=platform,
                level=level,
                batch=batch,
            )
            run.obs.prewarm(platform, level, now)
        for platform, _old, level in outcome.degraded:
            run.events.record(
                "degrade",
                time_s=now,
                platform=platform,
                cause="forecast",
                level=level,
            )
            run.obs.degradation_move(platform, "degrade", level, now)
        for platform, relative_frequency in outcome.dvfs_moves:
            run.events.record(
                "dvfs",
                time_s=now,
                platform=platform,
                relative_frequency=relative_frequency,
            )
            run.obs.dvfs_move(platform, relative_frequency, now)
        for name in sorted(outcome.changed_platforms):
            self._try_dispatch(run.states[name], run, push)
        next_tick = now + controller.tick_s
        if next_tick <= last_arrival_s:
            push(next_tick, _TICK, controller)

    def _on_outage(self, state: PlatformState, run: _RunState, push) -> None:
        """The platform just died.  Resilient mode evacuates its work
        across the surviving fleet; health-blind mode lets the batch
        in flight time out and fail."""
        if not self.config.resilience:
            if state.inflight is not None:
                state.inflight.will_fail = True
            return
        victims: List[Request] = []
        if state.inflight is not None:
            run.obs.batch_abandoned(state.name, state.inflight, self._now)
            victims.extend(state.inflight.requests)
            state.inflight = None
        victims.extend(state.queue)
        state.queue.clear()
        state.busy_until = self._now
        for request in sorted(victims, key=lambda r: r.rid):
            self._failover(request, state.name, run, push)

    def _failover(
        self, request, origin: str, run: _RunState, push
    ) -> None:
        """Re-dispatch one request off a dead platform through the
        normal admission path (health-aware, so the dead platform is
        excluded); explicit rejection when nobody can take it."""
        now = self._now
        decision = run.admission.admit(request, now)
        if not decision.admitted:
            self._reject(request, "outage", run, origin=origin)
            return
        run.failovers += 1
        run.rescued_rids.add(request.rid)
        target = run.states[decision.candidate.platform]
        target.queue.append(request)
        run.events.record(
            "failover",
            time_s=now,
            tenant=request.tenant.name,
            platform=target.name,
            request_ids=(request.rid,),
            origin=origin,
            level=decision.candidate.level,
        )
        run.obs.failover(request, now, origin, target.name)
        self._try_dispatch(target, run, push)

    def _on_batch_failure(
        self, state: PlatformState, batch: InFlightBatch, run: _RunState, push
    ) -> None:
        """A launched batch did not complete: account it, trip the
        breaker, and walk every member through retry-or-reject."""
        now = self._now
        state.failed_batches += 1
        run.batch_failures += 1
        rids = tuple(r.rid for r in batch.requests)
        run.events.record(
            "batch_failed",
            time_s=now,
            platform=state.name,
            request_ids=rids,
            level=batch.rung.level,
        )
        run.obs.batch_failed(state.name, batch, now)
        if state.breaker is not None:
            move = state.breaker.on_failure(now)
            if move is not None:
                run.events.record(move, time_s=now, platform=state.name)
                run.obs.breaker_transition(state.name, move, now)
                if move == "breaker_open":
                    push(
                        now + self.config.breaker_cooldown_s, _PROBE, state
                    )
        for request in batch.requests:
            self._retry_or_reject(request, run, push)

    def _retry_or_reject(self, request, run: _RunState, push) -> None:
        """Deadline-aware retry with budget-capped backoff; explicit
        rejection once the budget (or the deadline) is spent."""
        now = self._now
        attempt = run.attempts.get(request.rid, 0) + 1
        run.attempts[request.rid] = attempt
        if self.config.resilience:
            delay = run.retry_policy.backoff_for(attempt, now, request)
            if delay is not None:
                run.retries += 1
                run.events.record(
                    "retry",
                    time_s=now,
                    tenant=request.tenant.name,
                    request_ids=(request.rid,),
                    attempt=attempt,
                    backoff_s=delay,
                )
                run.obs.retry_scheduled(request, now, attempt, delay)
                push(now + delay, _RETRY, request)
                return
            self._reject(request, "retries-exhausted", run)
            return
        self._reject(request, "failed", run)

    def _reject(
        self, request, reason: str, run: _RunState, **detail
    ) -> None:
        run.rejected.append(RejectedRequest(request=request, reason=reason))
        run.events.record(
            "reject",
            time_s=self._now,
            tenant=request.tenant.name,
            request_ids=(request.rid,),
            reason=reason,
            **detail,
        )
        run.obs.request_rejected(request, self._now, reason)

    def _reject_stranded(self, run: _RunState) -> None:
        """Zero-loss backstop: any request still queued (or somehow in
        flight) when the event heap drains is explicitly rejected."""
        for name in sorted(run.states):
            state = run.states[name]
            stranded: List[Request] = []
            if state.inflight is not None:
                run.obs.batch_abandoned(name, state.inflight, self._now)
                stranded.extend(state.inflight.requests)
                state.inflight = None
            stranded.extend(state.queue)
            state.queue.clear()
            # Explicit rid order: the inflight batch's internal order
            # and the queue's policy order are incidental here, and a
            # policy-ordered queue with colliding deadlines would
            # otherwise leak dict/insertion order into the event log.
            for request in sorted(stranded, key=lambda r: r.rid):
                self._reject(request, "stranded", run, platform=name)

    def _try_dispatch(self, state: PlatformState, run: _RunState, push) -> None:
        """Launch batches on one platform while it is idle and its
        queue satisfies the flush policy; otherwise arm a flush timer."""
        now = self._now
        # Idle once the in-flight batch has landed: an event at exactly
        # its finish time may run before its free event.
        while state.inflight is None and state.queue:
            if self.config.resilience and not state.available(now):
                # Down, or breaker open/probing: hold the queue.  A
                # probe or restore event will wake the platform up.
                return
            rung = state.rung
            policy = FlushPolicy(
                capacity=rung.batch, timeout_s=state.flush_timeout_s
            )
            order_queue(state, self.config.policy)
            head_arrival = state.queue[0].arrival_s
            if not policy.should_flush(len(state.queue), now, head_arrival):
                flush_at = policy.flush_at(head_arrival)
                if (
                    state.pending_flush_at is None
                    or flush_at < state.pending_flush_at
                ):
                    state.pending_flush_at = flush_at
                    push(flush_at, _FLUSH, state)
                return
            self._launch(state, rung, run, push)

    def _launch(self, state: PlatformState, rung, run: _RunState, push) -> None:
        now = self._now
        take = min(len(state.queue), rung.batch)
        batch_requests = state.queue[:take]
        del state.queue[:take]
        will_fail = False
        if state.health is not None and not state.health.up:
            # Health-blind launch onto a dead platform: doomed.
            will_fail = True
        elif state.transient_pending > 0:
            state.transient_pending -= 1
            will_fail = True
        finish = now + rung.exec_time_s
        state.busy_until = finish
        state.batches += 1
        state.level_sum += rung.level
        state.inflight = InFlightBatch(
            requests=batch_requests,
            rung=rung,
            start_s=now,
            finish_s=finish,
            will_fail=will_fail,
        )
        if state.breaker is not None:
            move = state.breaker.on_dispatch(now)
            if move is not None:
                run.events.record(move, time_s=now, platform=state.name)
                run.obs.breaker_transition(state.name, move, now)
        push(finish, _FREE, state)
        run.events.record(
            "dispatch",
            time_s=now,
            platform=state.name,
            request_ids=tuple(r.rid for r in batch_requests),
            level=rung.level,
            batch=take,
            capacity=rung.batch,
            finish_s=finish,
        )
        run.obs.batch_dispatched(
            state.name, state.inflight, rung.batch, len(state.queue), now
        )
        # Degradation reacts to the *standing* queue left behind: the
        # work the platform is already committed to does not count,
        # mirroring how the calibrator scores only new observations.
        queued_batches = -(-len(state.queue) // rung.batch)  # ceil
        move = state.controller.observe(queued_batches * rung.exec_time_s)
        if move is not None:
            run.events.record(
                move,
                time_s=now,
                platform=state.name,
                cause="backlog",
                level=state.controller.level,
            )
            run.obs.degradation_move(
                state.name, move, state.controller.level, now
            )

    def _complete_batch(
        self, state: PlatformState, batch: InFlightBatch, run: _RunState
    ) -> None:
        """Materialize a successfully finished batch's outcomes."""
        now = self._now
        rung = batch.rung
        take = len(batch.requests)
        state.requests_served += take
        state.busy_s += rung.exec_time_s
        state.energy_j += rung.energy_j
        if state.breaker is not None:
            move = state.breaker.on_success(now)
            if move is not None:
                run.events.record(move, time_s=now, platform=state.name)
                run.obs.breaker_transition(state.name, move, now)
        run.obs.batch_completed(state.name, batch, batch.finish_s, rung.energy_j)
        batch_entropy = 0.0
        for request in batch.requests:
            entropy = rung.entropy * request.difficulty
            batch_entropy = max(batch_entropy, entropy)
            breakdown = soc(
                runtime_s=batch.finish_s - request.arrival_s,
                requirement=request.tenant.requirement,
                entropy=entropy,
                entropy_threshold=state.deployment.entropy_threshold,
                energy_joules=rung.energy_per_item_j,
            )
            run.completed.append(
                CompletedRequest(
                    request=request,
                    platform=state.name,
                    level=rung.level,
                    batch=take,
                    start_s=batch.start_s,
                    finish_s=batch.finish_s,
                    entropy=entropy,
                    soc=breakdown,
                )
            )
        run.events.record(
            "complete",
            time_s=batch.finish_s,
            platform=state.name,
            request_ids=tuple(r.rid for r in batch.requests),
            level=rung.level,
        )
        for request in batch.requests:
            run.obs.request_completed(
                request, batch.finish_s, state.name, rung.level
            )
        if self.config.calibrate and rung.level == 0:
            state.deployment.observe_entropy(batch_entropy)


@contextmanager
def reference_loop():
    """Route every ``RequestRouter.run`` inside the block through the
    reference loop, for code paths that build their own routers
    (shard workers, what-if runs, the CLI)."""
    production = RequestRouter.run

    def run(self, loads, *args, **kwargs):
        return ReferenceRouter(self.deployments, self.config).run(
            loads, *args, **kwargs
        )

    RequestRouter.run = run
    try:
        yield
    finally:
        RequestRouter.run = production
