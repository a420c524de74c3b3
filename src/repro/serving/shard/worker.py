"""The shard worker: one router run behind a spawn-picklable spec.

A shard is one :class:`~repro.serving.router.RequestRouter` over its
own :class:`~repro.core.fleet.FleetManager`, running in a
``multiprocessing`` spawn worker.  Deployments hold engine state
(tuned plans, caches) and never cross the process boundary: the spec
ships *names* -- network, GPUs, tenant loads, fault schedule -- and
the worker rebuilds the fleet locally.  Recompiling in the worker is
invisible to fingerprints because the report's fingerprint is
cache-neutral by construction.

:func:`run_shard` is deliberately a top-level function so
``multiprocessing``'s spawn start method can pickle a reference to it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.fleet import FleetManager
from repro.core.user_input import ApplicationSpec
from repro.faults.events import FaultTrace
from repro.gpu import get_architecture
from repro.nn.models import get_network
from repro.obs.instrument import Instrumentation
from repro.serving.report import RouterReport
from repro.serving.request import TenantLoad
from repro.serving.router import RequestRouter, RouterConfig
from repro.serving.shard.planner import shard_label

__all__ = ["FleetSpec", "ShardResult", "ShardSpec", "ShardWorker", "run_shard"]


@dataclass(frozen=True)
class FleetSpec:
    """A fleet described by names, rebuilt inside each worker.

    Everything here pickles cleanly under spawn; :meth:`build`
    resolves the names against the registries and runs the full
    deployment pipeline, so every shard starts from an identical,
    deterministic fleet.
    """

    network: str
    spec: ApplicationSpec
    gpus: Tuple[str, ...]
    max_tuning_iterations: int = 32

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ValueError("fleet spec needs at least one GPU name")

    def build(self) -> FleetManager:
        """Resolve names and deploy the whole fleet."""
        manager = FleetManager(
            get_network(self.network),
            self.spec,
            architectures=[get_architecture(name) for name in self.gpus],
            max_tuning_iterations=self.max_tuning_iterations,
        )
        manager.deploy_all()
        return manager


@dataclass(frozen=True)
class ShardSpec:
    """One shard's complete, picklable run description.

    ``seed`` is the shard's RNG root, derived by the coordinator via
    :func:`~repro.serving.shard.planner.shard_seed` from the global
    seed and the shard id; any stochastic synthesis a worker performs
    must seed from it.  The routing run itself is deterministic given
    the loads and faults, so the seed's main job is audit: it travels
    into the :class:`ShardResult` unchanged.
    """

    shard_id: int
    n_shards: int
    fleet: FleetSpec
    config: RouterConfig
    loads: Tuple[TenantLoad, ...]
    faults: Optional[FaultTrace] = None
    seed: int = 0
    instrument: bool = False
    #: Optional predictive-controller recipe.  Duck-typed on purpose
    #: (anything picklable with a ``build()`` returning a router
    #: controller, in practice a
    #: :class:`repro.control.plane.ControllerConfig`) so the serving
    #: layer keeps zero imports of :mod:`repro.control`.
    controller: Optional[object] = None
    #: Optional process-fault injection plan.  Duck-typed like
    #: ``controller`` (anything picklable with ``decide(shard_id,
    #: attempt)`` and ``tamper(kind, result)``, in practice a
    #: :class:`repro.resilience.ProcFaultPlan`): the worker consults
    #: it once at the top of :func:`run_shard` and either dies, stalls
    #: or tampers with its own result -- deterministic host-level
    #: chaos for the supervisor to absorb.
    proc_faults: Optional[object] = None
    #: Which supervised attempt this spec describes (audit only: it
    #: feeds fault decisions and result metadata, never the sim seed,
    #: so every attempt of one shard produces the same report
    #: fingerprint).
    attempt: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(
                "n_shards must be >= 1, got %r" % (self.n_shards,)
            )
        if not 0 <= self.shard_id < self.n_shards:
            raise ValueError(
                "shard_id %r out of range for %d shards"
                % (self.shard_id, self.n_shards)
            )
        if self.attempt < 1:
            raise ValueError(
                "attempt must be >= 1, got %r" % (self.attempt,)
            )

    @property
    def label(self) -> Optional[str]:
        """The shard's obs label (``None`` in the 1-shard degenerate
        case so single-shard runs stay byte-identical to unsharded
        ones)."""
        if self.n_shards == 1:
            return None
        return shard_label(self.shard_id)


@dataclass(frozen=True)
class ShardResult:
    """What one shard sends back across the process boundary.

    Spans travel as plain dicts (:meth:`Span.to_dict` form) rather
    than a :class:`~repro.obs.span.TraceBuffer` so the payload stays
    schema-stable under pickle; the coordinator re-hydrates and
    re-parents them when stitching the global trace.
    """

    shard_id: int
    seed: int
    report: RouterReport
    spans: Optional[Tuple[dict, ...]] = None
    #: Which supervised attempt produced this result (audit trail).
    attempt: int = 1
    #: The report fingerprint the worker computed *before* returning.
    #: The supervisor recomputes it from the received report; any
    #: divergence means the payload mutated in flight (or a fault
    #: plan corrupted it) and the attempt is rejected.
    declared_fingerprint: Optional[str] = None


def run_shard(spec: ShardSpec) -> ShardResult:
    """Build the fleet, run the router, package the result.

    Top-level on purpose: the spawn start method pickles a reference
    to this function plus the spec, and nothing else.

    When the spec carries a ``proc_faults`` plan, the worker is its
    own chaos monkey: a ``crash`` decision kills the process outright
    (``os._exit``, no teardown -- exactly what a segfault or OOM kill
    looks like from outside), a ``hang`` sleeps before running (the
    supervisor's timeout judges whether that is fatal), and the
    tamper kinds sabotage the result after the fact.  Decisions are
    pure in ``(plan seed, shard_id, attempt)``, so supervised chaos
    runs replay bit-identically.
    """
    plan = spec.proc_faults
    fault = (
        plan.decide(spec.shard_id, spec.attempt)
        if plan is not None
        else None
    )
    if fault == "crash":
        os._exit(plan.crash_exit_code)
    if fault == "hang":
        time.sleep(plan.hang_s)
    fleet = spec.fleet.build()
    obs = (
        Instrumentation(shard=spec.label) if spec.instrument else None
    )
    router = RequestRouter(fleet, spec.config)
    plane = (
        spec.controller.build() if spec.controller is not None else None
    )
    report = router.run(
        list(spec.loads), faults=spec.faults, obs=obs, controller=plane
    )
    spans = (
        tuple(obs.buffer.to_dicts()) if obs is not None else None
    )
    result = ShardResult(
        shard_id=spec.shard_id,
        seed=spec.seed,
        report=report,
        spans=spans,
        attempt=spec.attempt,
        declared_fingerprint=report.fingerprint(),
    )
    if fault in ("corrupt", "truncate", "forge"):
        result = plan.tamper(fault, result)
    return result


class ShardWorker:
    """Object view of one shard run (a thin veneer over
    :func:`run_shard` for callers that want to hold the spec and
    trigger the run separately)."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec

    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    def run(self) -> ShardResult:
        """Execute the shard in the current process."""
        return run_shard(self.spec)
