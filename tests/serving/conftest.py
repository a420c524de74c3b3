"""Shared fixtures for the serving (router) test suite.

Fleet deployment dominates the suite's wall-clock, so one two-platform
fleet is deployed per module and shared; tests that mutate router
state build their own routers (cheap) on top of it.
"""

import pytest

from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.serving import (
    CompletedRequest,
    RejectedRequest,
    Request,
    RouterEvent,
    Tenant,
)


@pytest.fixture(scope="module")
def spec():
    return ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
    )


@pytest.fixture(scope="module")
def fleet(spec):
    manager = FleetManager(
        alexnet(),
        spec,
        architectures=[K20C, JETSON_TX1],
        max_tuning_iterations=8,
    )
    manager.deploy_all()
    return manager


@pytest.fixture(scope="module")
def deployments(fleet):
    return fleet.deploy_all()


@pytest.fixture
def snappy_tenant():
    """An interactive tenant with a deadline tight enough to miss."""
    return Tenant(
        "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
        priority=1,
    )


@pytest.fixture
def background_tenant(spec):
    """A deadline-free tenant (background task class)."""
    background = ApplicationSpec("tagging", TaskClass.BACKGROUND)
    return Tenant.from_spec(background, priority=0)


@pytest.fixture
def constructions(monkeypatch):
    """Class names of every ``Request``, ``CompletedRequest``,
    ``RejectedRequest`` and ``RouterEvent`` built while the test runs,
    in construction order."""
    built = []
    for cls in (Request, CompletedRequest, RejectedRequest, RouterEvent):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built
