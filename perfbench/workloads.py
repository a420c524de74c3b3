"""The four benchmark workloads and the checks every iteration passes.

A workload has two entry points:

* ``setup(seed)`` builds everything an iteration needs from the seed
  (fleet, capacity probe, request traces, fault schedule) and runs the
  first, cold iteration.  It returns the state plus that outcome.
* ``iterate(state)`` runs one more iteration on the same state: what a
  user pays after deployment.

For the serving workloads one iteration is exactly what
``python -m repro serve-fleet --json`` does after its fleet is built:
route, ``to_dict(include_events=False)``, then ``fingerprint()``.
The whole trace is offered at once by a single closed-loop caller:
arrival times are simulated time, so host time measures throughput,
not queueing.

Every call into the program goes through its public API.  Nothing
here trains a network or reads ``benchmarks/.cache``.
"""

import contextlib
import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import repro.serving
from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.gpu import get_architecture
from repro.nn.models import get_network
from repro.schedulers import (
    default_schedulers,
    evaluate_scheduler,
    make_context,
    normalized_rows,
)
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import shard_label, shard_seed
from repro.workloads import bursty_trace, paper_scenarios, pareto_trace

#: The seed whose fingerprints are recorded in ``fingerprints.json``.
DEFAULT_SEED = 42

#: ``serve-fleet``'s fleet and offered load: AlexNet on the paper's
#: K20c + TX1 pair at twice rung-0 capacity.
NETWORK = "alexnet"
GPUS = ("k20c", "tx1")
LOAD = 2.0

#: ``serve-fleet --chaos``'s default fault-schedule seed.  The schedule
#: is fixed; only its horizon follows the seeded traffic.
CHAOS_SEED = 7

#: The EWMA storm controller of ``benchmarks/bench_control_whatif.py``.
STORM_CONTROLLER = ControllerConfig(
    kind="ewma", tick_s=0.05, headroom=2.0, alpha=0.3
)

#: Interactive requests per storm; the Pareto background tenant gets a
#: quarter as many, so it carries 20% of the requests and of the load.
STORM_REQUESTS = 20000
SHARD_COUNT = 4
SHARD_REQUESTS = 2000


@dataclass(frozen=True)
class Outcome:
    """What one iteration produced, as the checks and metrics see it."""

    #: Inputs the benchmark generated (requests, or scheduler
    #: evaluations on ``paper_matrix``).
    expected: int
    #: The program's own accounting of the same inputs.
    offered: int
    completed: int
    rejected: int
    fingerprint: str
    #: Simulated requests served (inference items on ``paper_matrix``).
    requests: int
    #: Scheduler evaluations: (scheduler, scenario, GPU) triples on
    #: ``paper_matrix``; one routing of the whole trace across the
    #: fleet when serving.
    evaluations: int
    deadline_hit_rate: float
    mean_soc: float
    energy_j_per_request: float
    #: Exact work counts a host-speed change must leave identical.
    counts: Dict[str, float]


def serving_backend(controller: bool) -> dict:
    """The ``backend=`` keyword a serving workload passes.

    Vectorized whenever the program advertises it, except with a
    controller, which today's vectorized backend refuses.  When the
    backend seam is gone, no keyword is passed at all.
    """
    if controller or "vectorized" not in repro.serving.ROUTER_BACKENDS:
        return {}
    return {"backend": "vectorized"}


def _interactive_spec() -> ApplicationSpec:
    return ApplicationSpec(
        "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
        entropy_slack=0.30,
    )


def _tenant_pair(offered_hz: float, n_requests: int, seed: int,
                 background_seed: int, suffix: str = "") -> List[TenantLoad]:
    """``serve-fleet``'s tenant pair: a bursty (MMPP) interactive
    tenant with 80% of the load, and a Pareto background tenant."""
    interactive = Tenant.from_spec(_interactive_spec(), priority=1)
    background = Tenant.from_spec(
        ApplicationSpec("background", TaskClass.BACKGROUND), priority=0
    )
    if suffix:
        interactive = replace(interactive, name="interactive-" + suffix)
        background = replace(background, name="background-" + suffix)
    return [
        TenantLoad(
            interactive,
            bursty_trace(n_requests=n_requests, rate_hz=0.8 * offered_hz,
                         seed=seed),
        ),
        TenantLoad(
            background,
            pareto_trace(n_requests=max(1, n_requests // 4),
                         rate_hz=0.2 * offered_hz, seed=background_seed),
        ),
    ]


def _fleet():
    """A deployed fleet and its rung-0 capacity (requests per second),
    probed the way ``serve-fleet`` does."""
    fleet = FleetManager(
        get_network(NETWORK), _interactive_spec(),
        architectures=[get_architecture(name) for name in GPUS],
    )
    capacity = 0.0
    for deployment in fleet.deploy_all().values():
        entry = deployment.current_entry
        execution = deployment.engine.execute(
            entry.compiled,
            power_gating=deployment.power_gating,
            use_priority_sm=deployment.use_priority_sm,
        )
        capacity += entry.compiled.batch / execution.total_time_s
    return fleet, capacity


def _horizon_s(loads) -> float:
    return max(
        float(load.trace.arrivals_s[-1])
        for load in loads
        if load.trace.n_requests
    )


def _chaos_faults(platforms, horizon_s: float):
    """``serve-fleet --chaos``'s fault recipe over one horizon."""
    quarter = 0.25 * horizon_s
    config = FaultTraceConfig(
        outages=1, outage_duration_s=quarter,
        sm_failures=1, sm_failure_duration_s=quarter,
        throttles=1, throttle_duration_s=quarter,
        bandwidth_degradations=1, bandwidth_duration_s=quarter,
        transients=3,
    )
    return generate_fault_trace(
        platforms=sorted(platforms), horizon_s=horizon_s, config=config,
        seed=CHAOS_SEED,
    )


def _serving_outcome(report, expected: int) -> Outcome:
    """One ``serve-fleet --json`` payload plus its fingerprint."""
    payload = report.to_dict(include_events=False)
    fingerprint = report.fingerprint()
    summary = payload["summary"]
    counts = {
        "serving.events": float(sum(payload["event_counts"].values())),
        "serving.batches": float(
            sum(platform["batches"] for platform in payload["platforms"])
        ),
    }
    resilience = payload.get("resilience") or {}
    for key in ("retries", "failovers", "batch_failures",
                "requests_rescued"):
        counts["resilience." + key] = float(resilience.get(key, 0))
    control = payload.get("control") or {}
    counts["control.ticks"] = float(control.get("ticks", 0))
    counts["control.prewarm_requested"] = float(
        (control.get("prewarm") or {}).get("requested", 0)
    )
    counts["control.degrades"] = float(control.get("degrades", 0))
    counts["control.dvfs_moves"] = float(control.get("dvfs_moves", 0))
    completed = summary["completed"]
    return Outcome(
        expected=expected,
        offered=summary["offered"],
        completed=completed,
        rejected=summary["rejected"],
        fingerprint=fingerprint,
        requests=summary["offered"],
        evaluations=1,
        deadline_hit_rate=summary["deadline_hit_rate"],
        mean_soc=summary["mean_soc"],
        energy_j_per_request=(
            summary["total_energy_j"] / completed if completed else 0.0
        ),
        counts=counts,
    )


class Workload:
    """Base class: ``name`` and the two entry points."""

    name = ""

    def __init__(self) -> None:
        #: Opens a span around a call the benchmark itself makes; the
        #: traced run replaces it with its recorder's.
        self.span = no_span
        #: Marks a point between two steps of a long iteration where the
        #: untraced run may calibrate its clock (see ``harness.Clock``).
        self.lap = no_lap

    def setup(self, seed: int):
        raise NotImplementedError

    def iterate(self, state) -> Outcome:
        raise NotImplementedError


def no_span(_name):
    """The untraced run's span: does nothing."""
    return contextlib.nullcontext()


def no_lap() -> None:
    """The traced run's lap: does nothing, so that no calibration lands
    inside a traced iteration."""


class RouterWorkload(Workload):
    """One router over the two-GPU fleet (``storm``, ``chaos_control``)."""

    chaos = False

    def setup(self, seed: int):
        fleet, capacity = _fleet()
        offered = LOAD * capacity
        with self.span("workloads.trace_gen"):
            loads = _tenant_pair(offered, STORM_REQUESTS, seed, seed + 1)
            faults = (
                _chaos_faults(fleet.deploy_all(), _horizon_s(loads))
                if self.chaos else None
            )
        state = {
            "fleet": fleet,
            "loads": loads,
            "faults": faults,
            "expected": sum(load.trace.n_requests for load in loads),
        }
        return state, self.iterate(state)

    def iterate(self, state) -> Outcome:
        router = RequestRouter(
            state["fleet"], RouterConfig(), **serving_backend(self.chaos)
        )
        controller = STORM_CONTROLLER.build() if self.chaos else None
        report = router.run(state["loads"], state["faults"],
                            controller=controller)
        return _serving_outcome(report, state["expected"])


class Storm(RouterWorkload):
    name = "storm"


class ChaosControl(RouterWorkload):
    name = "chaos_control"
    chaos = True


class Shards(Workload):
    name = "shards"

    def setup(self, seed: int):
        # Probe capacity on one fleet: every shard deploys the same
        # fleet, so all shards are offered the same rate (weak scaling).
        _probe, capacity = _fleet()
        offered = LOAD * capacity
        with self.span("workloads.trace_gen"):
            shard_loads = [
                _tenant_pair(
                    offered, SHARD_REQUESTS,
                    shard_seed(seed, shard), shard_seed(seed + 1, shard),
                    suffix=shard_label(shard),
                )
                for shard in range(SHARD_COUNT)
            ]
        state = {
            "shard_loads": shard_loads,
            "expected": sum(
                load.trace.n_requests
                for loads in shard_loads for load in loads
            ),
            "seed": seed,
        }
        return state, self.iterate(state)

    def iterate(self, state) -> Outcome:
        coordinator = FleetCoordinator(
            FleetSpec(network=NETWORK, spec=_interactive_spec(), gpus=GPUS),
            RouterConfig(),
            n_shards=SHARD_COUNT,
            seed=state["seed"],
            inline=True,
            **serving_backend(False),
        )
        outcome = coordinator.run(shard_loads=state["shard_loads"])
        return _serving_outcome(outcome.report, state["expected"])


def _hex(value: float) -> str:
    return float(value).hex()


class PaperMatrix(Workload):
    name = "paper_matrix"

    def setup(self, seed: int):
        # The matrix is fixed by the paper.  The seed permutes the order
        # in which the (GPU, scenario) pairs are evaluated; each pair
        # gets a cold engine, so the order must change no outcome and
        # no amount of work.  Within a pair the schedulers run in the
        # paper's order, as ``repro compare`` runs them.
        pairs = [(gpu, index) for gpu in GPUS
                 for index in range(len(paper_scenarios()))]
        random.Random(seed).shuffle(pairs)
        state = {"pairs": pairs}
        return state, self.iterate(state)

    def iterate(self, state) -> Outcome:
        rows = []
        scenarios = paper_scenarios()
        pcnn = {}
        for position, (gpu, index) in enumerate(state["pairs"]):
            if position:
                self.lap()
            scenario = scenarios[index]
            # A cold engine per scenario, as ``repro compare`` builds.
            ctx = make_context(get_architecture(gpu), scenario.network,
                               scenario.spec)
            outcomes = {}
            for scheduler in default_schedulers():
                with self.span("schedulers." + layer_name(scheduler.name)):
                    outcomes[scheduler.name] = evaluate_scheduler(
                        scheduler, ctx
                    )
            normalized = {
                row["scheduler"]: row for row in normalized_rows(outcomes)
            }
            for name, outcome in outcomes.items():
                norm = normalized[name]
                rows.append([
                    gpu, scenario.name, name, outcome.batch,
                    _hex(outcome.latency_s), _hex(outcome.energy_per_item_j),
                    _hex(outcome.entropy), outcome.powered_sms,
                    _hex(outcome.soc.value), _hex(norm["norm_runtime"]),
                    _hex(norm["norm_energy"]), bool(norm["meets"]),
                ])
                if not (math.isfinite(outcome.latency_s)
                        and math.isfinite(outcome.energy_per_item_j)):
                    raise ValueError(
                        "non-finite outcome for %s/%s/%s"
                        % (gpu, scenario.name, name)
                    )
                if name == "p-cnn":
                    pcnn[(gpu, scenario.name)] = outcome
        rows.sort()
        # Canonical order, so that no sum depends on the seed's order.
        pcnn = [pcnn[key] for key in sorted(pcnn)]
        digest = hashlib.sha1(
            json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        expected = len(state["pairs"]) * len(default_schedulers())
        return Outcome(
            expected=expected,
            offered=len(rows),
            completed=len(rows),
            rejected=0,
            fingerprint=digest,
            requests=sum(int(row[3]) for row in rows),
            evaluations=len(rows),
            deadline_hit_rate=(
                sum(1 for o in pcnn if o.meets_satisfaction) / len(pcnn)
            ),
            mean_soc=sum(o.soc.value for o in pcnn) / len(pcnn),
            energy_j_per_request=(
                sum(o.energy_per_item_j for o in pcnn) / len(pcnn)
            ),
            counts={},
        )


def layer_name(scheduler: str) -> str:
    """A scheduler name made legal as a metric name (``qpe+`` ->
    ``qpe_plus``)."""
    return scheduler.replace("+", "_plus").replace("-", "_")


WORKLOADS = {
    cls.name: cls for cls in (Storm, ChaosControl, Shards, PaperMatrix)
}


def check(outcome: Outcome, reference: Optional[str]) -> Optional[str]:
    """Why an iteration's outcome is wrong, or None when it is right.

    ``reference`` is the fingerprint the outcome must carry.
    """
    if outcome.offered != outcome.completed + outcome.rejected:
        return "offered %d != completed %d + rejected %d" % (
            outcome.offered, outcome.completed, outcome.rejected)
    if outcome.offered != outcome.expected:
        return "offered %d != %d generated inputs" % (
            outcome.offered, outcome.expected)
    if reference is not None and outcome.fingerprint != reference:
        return "fingerprint %s != %s" % (outcome.fingerprint[:12],
                                         reference[:12])
    return None
