"""The router differential matrix, shared by the oracle harness and the
golden corpus.

Each case is one router run on the shared two-platform AlexNet fleet
(``tests/serving/conftest.py``): a bursty storm at ~2x rung-0
capacity, optionally with a seeded chaos schedule, instrumentation
and a predictive controller.  ``trunc-*`` cases raise ``min_gain`` so
the lazy ladders a controller builds truncate mid-run (K20c after
level 1, TX1 after level 2) while the controller still escalates
past the cut.
"""

from dataclasses import dataclass
from typing import Optional

from repro.control import ControllerConfig
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.obs import Instrumentation
from repro.serving import RouterConfig, Tenant, TenantLoad
from repro.workloads import bursty_trace

TENANT = Tenant(
    "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
    priority=1,
)

EWMA = ControllerConfig(kind="ewma", tick_s=0.05, headroom=2.0, alpha=0.3)
HOLT_WINTERS = ControllerConfig(
    kind="holt-winters", tick_s=0.1, season_ticks=4
)

#: Truncates K20c's ladder after level 1 and TX1's after level 2.
TRUNCATING_MIN_GAIN = 1.6


@dataclass(frozen=True)
class Case:
    config: RouterConfig
    controller: Optional[ControllerConfig] = None
    chaos: bool = False
    obs: bool = False


def _matrix():
    cases = {}
    for policy in ("soc", "fifo"):
        for chaos in (False, True):
            for obs in (False, True):
                name = "%s%s%s" % (
                    policy, "-chaos" if chaos else "", "-obs" if obs else ""
                )
                cases[name] = Case(RouterConfig(policy=policy), None, chaos, obs)
    for label, controller in (("ewma", EWMA), ("hw", HOLT_WINTERS)):
        cases[label] = Case(RouterConfig(), controller)
        cases[label + "-chaos-obs"] = Case(
            RouterConfig(), controller, chaos=True, obs=True
        )
    cases["fifo-ewma-chaos"] = Case(
        RouterConfig(policy="fifo"), EWMA, chaos=True
    )
    truncating = RouterConfig(min_gain=TRUNCATING_MIN_GAIN)
    cases["trunc-ewma"] = Case(truncating, EWMA)
    cases["trunc-ewma-chaos-obs"] = Case(truncating, EWMA, chaos=True, obs=True)
    return cases


CASES = _matrix()
CONTROLLER_CASES = sorted(
    name for name, case in CASES.items() if case.controller is not None
)


def loads():
    return [
        TenantLoad(
            TENANT,
            bursty_trace(
                n_requests=300, rate_hz=400.0, burst_factor=6.0,
                burst_fraction=0.3, seed=42,
            ),
        )
    ]


def faults(case_loads):
    horizon = float(case_loads[0].trace.arrivals_s[-1]) + 0.5
    return generate_fault_trace(
        ["K20c", "TX1"],
        horizon_s=horizon,
        config=FaultTraceConfig(
            outages=1, sm_failures=1, throttles=1, transients=2
        ),
        seed=3,
    )


def run_case(router_class, fleet, case):
    """Run one case; returns ``(report, instrumentation or None)``."""
    case_loads = loads()
    obs = Instrumentation() if case.obs else None
    report = router_class(fleet, case.config).run(
        case_loads,
        faults=faults(case_loads) if case.chaos else None,
        obs=obs,
        controller=(
            case.controller.build() if case.controller is not None else None
        ),
    )
    return report, obs
