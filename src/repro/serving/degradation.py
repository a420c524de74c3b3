"""Graceful degradation: the overload ladder and its controller.

The paper's run-time manager trades accuracy for latency *per
request* along the tuning path.  Under fleet overload the relevant
trade is throughput: each :class:`DegradationRung` is one operating
point combining a **larger batch** (amortizes per-batch overhead --
the Fig. 8 throughput-vs-batch curve) with **heavier perforation**
(shrinks the GEMMs -- the Fig. 12 ladder continued past the tuning
threshold).  Rung 0 is the deployment's calibrated steady-state entry;
each deeper rung must deliver strictly more throughput or the ladder
stops growing.

:class:`DegradationController` decides *when* to move: it mirrors the
calibrator's windowed hysteresis (one step per violating window, one
step back per comfortable window), driven by the platform's backlog in
seconds of work instead of observed entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.offline.compiler import CompiledPlan
from repro.core.runtime.accuracy_tuning import AnalyticEntropyModel
from repro.nn.perforation import RATE_LADDER, PerforationPlan

if TYPE_CHECKING:  # duck-typed to avoid importing the framework here
    from repro.core.framework import Deployment

__all__ = [
    "escalate_perforation",
    "DegradationRung",
    "DegradationLadder",
    "DegradationController",
]


def escalate_perforation(
    plan: PerforationPlan,
    layer_names: Sequence[str],
    ladder: Sequence[float] = RATE_LADDER,
) -> PerforationPlan:
    """Bump every listed layer one rung up the rate ladder.

    Layers already at the top stay put; the result equals ``plan`` when
    nothing can escalate further (the ladder's fixed point).
    """
    rates = {}
    for name in layer_names:
        current = plan.rate(name)
        above = [rate for rate in ladder if rate > current + 1e-12]
        rates[name] = above[0] if above else current
    return PerforationPlan(
        {name: rate for name, rate in rates.items() if rate > 0.0}
    )


@dataclass(frozen=True)
class DegradationRung:
    """One operating point of a platform's overload ladder."""

    level: int
    batch: int
    perforation: PerforationPlan
    plan: CompiledPlan
    exec_time_s: float
    energy_j: float
    entropy: float

    @property
    def throughput_rps(self) -> float:
        """Steady-state requests per second at this rung."""
        return self.batch / self.exec_time_s

    @property
    def energy_per_item_j(self) -> float:
        """Energy amortized over the batch capacity (the server's
        partial-batch convention)."""
        return self.energy_j / self.batch


class DegradationLadder:
    """The ordered overload ladder of one platform's deployment.

    Level 0 is the deployment's current (calibrated) tuning entry;
    deeper levels double the batch (up to ``max_batch``) and escalate
    every conv layer's perforation one rate-ladder rung, keeping a
    candidate only if it improves throughput by at least ``min_gain``.
    Entropy beyond the tuning table is estimated with the analytic
    model anchored at the dense entry's measured entropy.

    The ladder's *shape* -- each level's (batch, perforation) pair --
    is a cheap fixed-point walk computed up front; the expensive part
    (compiling and executing a plan per level) is the
    *materialization*.  By default every level materializes in
    ``__init__`` (the historical eager behavior, bit-identical compile
    and execute order).  With ``lazy=True`` only level 0 materializes
    and deeper rungs compile on first access -- the control plane's
    mode, where :meth:`prewarm_specs` exposes not-yet-materialized
    levels so the predicted ones can be planted in the engine's plan
    cache ahead of dispatch.

    A level whose measured throughput fails the ``min_gain`` bar
    truncates the ladder there; requests for deeper levels clamp to
    the deepest real rung.
    """

    def __init__(
        self,
        deployment: "Deployment",
        max_levels: int = 4,
        batch_growth: int = 2,
        max_batch: int = 64,
        min_gain: float = 1.02,
        lazy: bool = False,
    ) -> None:
        if max_levels < 1:
            raise ValueError("ladder needs at least one level")
        if batch_growth < 1:
            raise ValueError("batch_growth must be >= 1")
        if min_gain <= 1.0:
            raise ValueError("min_gain must exceed 1.0")
        self.deployment = deployment
        self.min_gain = min_gain
        entry = deployment.current_entry
        base_report = self._execute(entry.compiled)
        self.rungs: List[DegradationRung] = [
            DegradationRung(
                level=0,
                batch=entry.compiled.batch,
                perforation=entry.plan,
                plan=entry.compiled,
                exec_time_s=base_report.total_time_s,
                energy_j=base_report.total_energy_joules,
                entropy=entry.entropy,
            )
        ]
        self._model = AnalyticEntropyModel(
            deployment.network,
            base_entropy=deployment.tuning_table.dense.entropy,
        )
        conv_names = [layer.name for layer in deployment.network.conv_layers]
        # The shape walk: pure arithmetic, no compilation.
        shapes: List[tuple] = []
        batch = entry.compiled.batch
        perforation = entry.plan
        for _level in range(1, max_levels):
            next_batch = min(batch * batch_growth, max(max_batch, batch))
            next_perforation = escalate_perforation(perforation, conv_names)
            if (
                next_batch == batch
                and next_perforation.rates == perforation.rates
            ):
                break  # the ladder's fixed point: nothing left to trade
            shapes.append((next_batch, next_perforation))
            batch = next_batch
            perforation = next_perforation
        self._shapes = shapes
        self._truncated = False
        if not lazy:
            self._materialize_to(len(shapes))

    def _execute(self, plan: CompiledPlan):
        deployment = self.deployment
        return deployment.engine.execute(
            plan,
            power_gating=deployment.power_gating,
            use_priority_sm=deployment.use_priority_sm,
        )

    def _materialize_to(self, level: int) -> None:
        """Compile-and-measure rungs up through ``level`` (clamped)."""
        while (
            not self._truncated
            and len(self.rungs) <= level
            and len(self.rungs) <= len(self._shapes)
        ):
            next_level = len(self.rungs)
            next_batch, next_perforation = self._shapes[next_level - 1]
            deployment = self.deployment
            plan = deployment.engine.compile_with_batch(
                deployment.network,
                next_batch,
                next_perforation,
                arch=deployment.arch,
            )
            report = self._execute(plan)
            throughput = next_batch / report.total_time_s
            if throughput < self.rungs[-1].throughput_rps * self.min_gain:
                # No real capacity gain: the ladder ends here, and the
                # deeper shapes become unreachable.
                self._truncated = True
                del self._shapes[next_level - 1:]
                break
            entropy = max(
                self.rungs[-1].entropy,
                self._model.evaluate(next_perforation).entropy,
            )
            self.rungs.append(
                DegradationRung(
                    level=next_level,
                    batch=next_batch,
                    perforation=next_perforation,
                    plan=plan,
                    exec_time_s=report.total_time_s,
                    energy_j=report.total_energy_joules,
                    entropy=entropy,
                )
            )

    def is_materialized(self, level: int) -> bool:
        """Whether reading ``level`` compiles nothing: the rung exists,
        or the ladder has no shape left to materialize (so deeper
        levels clamp to the deepest real rung)."""
        return level < len(self.rungs) or len(self.rungs) > len(self._shapes)

    def all_rungs(self) -> List[DegradationRung]:
        """Every reachable rung, materializing any still pending."""
        self._materialize_to(len(self._shapes))
        return list(self.rungs)

    def prewarm_specs(self, levels) -> List[tuple]:
        """Compile specs for not-yet-materialized levels among ``levels``.

        Returns ``(network, batch, perforation, arch)`` tuples in level
        order, ready for :meth:`repro.core.engine.ExecutionEngine.prewarm`;
        already-materialized and out-of-range levels are skipped.
        """
        specs = []
        deployment = self.deployment
        for level in sorted(set(levels)):
            if level < len(self.rungs) or level > len(self._shapes):
                continue
            batch, perforation = self._shapes[level - 1]
            specs.append(
                (deployment.network, batch, perforation, deployment.arch)
            )
        return specs

    @classmethod
    def from_rungs(
        cls, deployment: "Deployment", rungs: Sequence[DegradationRung]
    ) -> "DegradationLadder":
        """Wrap pre-built rungs without re-running the ladder search.

        The fault layer uses this to re-target an existing ladder's
        (batch, perforation) configurations at a degraded architecture:
        the *shape* of the ladder is the healthy one, only the compiled
        plans and their time/energy numbers differ.
        """
        if not rungs:
            raise ValueError("ladder needs at least one rung")
        ladder = cls.__new__(cls)
        ladder.deployment = deployment
        ladder.min_gain = 1.02
        ladder.rungs = list(rungs)
        ladder._model = None
        ladder._shapes = [(r.batch, r.perforation) for r in ladder.rungs[1:]]
        ladder._truncated = False
        return ladder

    def __len__(self) -> int:
        """Reachable depth: pending shapes count until truncation."""
        return 1 + len(self._shapes)

    def __getitem__(self, level: int) -> DegradationRung:
        if level < 0:
            raise IndexError("ladder levels are non-negative")
        self._materialize_to(level)
        if level >= len(self.rungs):
            # min_gain truncated the ladder below the requested depth;
            # the deepest real rung stands in.
            return self.rungs[-1]
        return self.rungs[level]

    @property
    def max_level(self) -> int:
        """The deepest available level."""
        return len(self) - 1

    @property
    def peak_throughput_rps(self) -> float:
        """The fleet-planner's capacity number: the deepest rung."""
        return self.all_rungs()[-1].throughput_rps


class DegradationController:
    """Windowed-hysteresis position holder on a degradation ladder.

    ``observe`` is fed the platform's backlog (seconds of queued work)
    after every dispatch and completion.  ``window`` consecutive
    readings above ``high_water_s`` step one level down the ladder
    (degrade); ``window`` consecutive readings below ``low_water_s``
    step back up (restore) -- the same one-step-per-window shape as
    the paper's calibration backtracking, with backlog standing in for
    observed entropy.
    """

    def __init__(
        self,
        n_levels: int,
        high_water_s: float,
        low_water_s: float,
        window: int = 2,
        enabled: bool = True,
    ) -> None:
        if n_levels < 1:
            raise ValueError("controller needs at least one level")
        if not 0 <= low_water_s < high_water_s:
            raise ValueError("need 0 <= low_water_s < high_water_s")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.n_levels = n_levels
        self.high_water_s = high_water_s
        self.low_water_s = low_water_s
        self.window = window
        self.enabled = enabled
        self._level = 0
        self._high_streak = 0
        self._low_streak = 0
        self.peak_level = 0
        self.moves = 0

    @property
    def level(self) -> int:
        """The current ladder position."""
        return self._level

    def observe(self, backlog_s: float) -> Optional[str]:
        """Feed one backlog reading; returns ``"degrade"``,
        ``"restore"`` or ``None``."""
        if not self.enabled or self.n_levels == 1:
            return None
        if backlog_s > self.high_water_s:
            self._high_streak += 1
            self._low_streak = 0
        elif backlog_s < self.low_water_s:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0
        if self._high_streak >= self.window and self._level < self.n_levels - 1:
            self._set(self._level + 1)
            return "degrade"
        if self._low_streak >= self.window and self._level > 0:
            self._set(self._level - 1)
            return "restore"
        return None

    def escalate_to(self, level: int) -> bool:
        """Jump straight to a deeper level (admission-time degrade-
        before-reject).  Returns whether the level changed."""
        if not self.enabled:
            return False
        level = min(level, self.n_levels - 1)
        if level <= self._level:
            return False
        self._set(level)
        return True

    def _set(self, level: int) -> None:
        self._level = level
        self._high_streak = 0
        self._low_streak = 0
        self.peak_level = max(self.peak_level, level)
        self.moves += 1
