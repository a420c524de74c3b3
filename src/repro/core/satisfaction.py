"""User Satisfaction-of-CNN (SoC) metric (paper Sections II.B, V.A).

The paper scores an inference configuration by::

    SoC = SoC_time * SoC_accuracy / Energy            (Eq. 15)

* ``SoC_time`` models the three response-time regions of Fig. 3:
  **imperceptible** (0, T_i] -> 1, **tolerable** (T_i, T_t] -> linear
  decay, **unusable** (T_t, inf) -> 0.  Real-time tasks have no
  tolerable region (T_t = T_i = deadline); background tasks are all
  imperceptible (T_i = inf).
* ``SoC_accuracy`` is 1 while output uncertainty stays under the
  task's entropy threshold and degrades as ``threshold / entropy``
  beyond it.
* ``Energy`` is joules per request.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "TaskClass",
    "TimeRequirement",
    "soc_time",
    "soc_accuracy",
    "soc",
    "SoCBreakdown",
]


class TaskClass:
    """The paper's three application classes (string constants)."""

    INTERACTIVE = "interactive"
    REAL_TIME = "real-time"
    BACKGROUND = "background"

    ALL = (INTERACTIVE, REAL_TIME, BACKGROUND)


@dataclass(frozen=True)
class TimeRequirement:
    """The satisfaction-vs-runtime curve of one task (Fig. 3).

    ``imperceptible_s`` is T_i, ``unusable_s`` is T_t.  For real-time
    tasks both equal the deadline (no tolerable region); for background
    tasks both are infinite.
    """

    imperceptible_s: float
    unusable_s: float

    def __post_init__(self) -> None:
        for name in ("imperceptible_s", "unusable_s"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                # numpy scalars and other reals become plain floats, so
                # every value derived from the bounds stays JSON-clean.
                if not isinstance(value, numbers.Real):
                    raise TypeError(
                        "%s must be a real number, got %r" % (name, value)
                    )
                object.__setattr__(self, name, float(value))
            if math.isnan(getattr(self, name)):
                raise ValueError("%s must not be NaN" % name)
        if self.imperceptible_s <= 0:
            raise ValueError("T_i must be positive")
        if self.unusable_s < self.imperceptible_s:
            raise ValueError("T_t must be >= T_i")

    @classmethod
    def interactive(
        cls, imperceptible_s: float = 0.1, unusable_s: float = 3.0
    ) -> "TimeRequirement":
        """Default interactive thresholds: 100 ms imperceptible [31],
        3 s abandonment [32]."""
        return cls(imperceptible_s, unusable_s)

    @classmethod
    def real_time(cls, deadline_s: float) -> "TimeRequirement":
        """Hard deadline: imperceptible up to the deadline, unusable
        beyond (no tolerable region)."""
        return cls(deadline_s, deadline_s)

    @classmethod
    def background(cls) -> "TimeRequirement":
        """No timing restriction at all."""
        return cls(math.inf, math.inf)

    @property
    def is_unbounded(self) -> bool:
        """True for background tasks."""
        return math.isinf(self.imperceptible_s)

    @property
    def budget_s(self) -> float:
        """The target the offline compiler aims runtime at (T_user):
        the end of the imperceptible region."""
        return self.imperceptible_s


def soc_time(runtime_s: float, requirement: TimeRequirement) -> float:
    """SoC_time: 1 in the imperceptible region, linear decay through
    the tolerable region, 0 once unusable (Fig. 3 / Section V.A)."""
    if runtime_s < 0:
        raise ValueError("runtime must be non-negative")
    if runtime_s <= requirement.imperceptible_s:
        return 1.0
    if runtime_s >= requirement.unusable_s:
        return 0.0
    span = requirement.unusable_s - requirement.imperceptible_s
    return 1.0 - (runtime_s - requirement.imperceptible_s) / span


def soc_accuracy(entropy: float, entropy_threshold: float) -> float:
    """SoC_accuracy: 1 while CNN_entropy <= threshold, else
    threshold / entropy (Section V.A)."""
    if entropy < 0 or entropy_threshold <= 0:
        raise ValueError("entropy must be >= 0 and threshold > 0")
    if entropy <= entropy_threshold:
        return 1.0
    return entropy_threshold / entropy


@dataclass(frozen=True)
class SoCBreakdown:
    """An SoC score with its three factors kept visible."""

    soc_time: float
    soc_accuracy: float
    energy_joules: float
    value: float

    @property
    def meets_satisfaction(self) -> bool:
        """False when the configuration is unusable (SoC = 0), the
        paper's 'x' marks in Fig. 15."""
        return self.value > 0.0


def soc(
    runtime_s: float,
    requirement: TimeRequirement,
    entropy: float,
    entropy_threshold: float,
    energy_joules: float,
) -> SoCBreakdown:
    """Eq. 15: SoC = SoC_time * SoC_accuracy / Energy."""
    if energy_joules <= 0:
        raise ValueError("energy must be positive")
    s_time = soc_time(runtime_s, requirement)
    s_acc = soc_accuracy(entropy, entropy_threshold)
    return SoCBreakdown(
        soc_time=s_time,
        soc_accuracy=s_acc,
        energy_joules=energy_joules,
        value=s_time * s_acc / energy_joules,
    )
