"""Host-time spans recorded from outside the program.

The traced run wraps public entry points of the program's layers --
class methods every caller reaches, or the module-level name a caller
looks a function up by -- so that each call opens a span.  A span
records its name, start, end, the span open around it (its parent)
and the iteration it belongs to.  Spans stay in memory and are
written out when the run ends.

A layer's self time is its span's duration minus the part covered by
its child spans; the self time of an iteration's root span is the
part of the iteration no layer covers, reported as ``other``.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, owner class or None for a module-level name, attr).
TARGETS = (
    ("core.deploy_all", "repro.core.fleet", "FleetManager", "deploy_all"),
    ("serving.ladder_build", "repro.serving.degradation",
     "DegradationLadder", "__init__"),
    ("serving.ladder_build", "repro.serving.degradation",
     "DegradationLadder", "from_rungs"),
    ("core.engine.compile", "repro.core.engine", "ExecutionEngine",
     "compile"),
    ("core.engine.compile", "repro.core.engine", "ExecutionEngine",
     "compile_with_batch"),
    ("core.engine.execute", "repro.core.engine", "ExecutionEngine",
     "execute"),
    ("serving.run", "repro.serving.router", "RequestRouter", "run"),
    ("report.summary", "repro.serving.report", "RouterReport", "to_dict"),
    ("report.fingerprint", "repro.serving.report", "RouterReport",
     "fingerprint"),
    ("report.merge", "repro.serving.report", "RouterReport", "merge"),
    ("shard.coordinator_run", "repro.serving.shard.coordinator",
     "FleetCoordinator", "run"),
    ("shard.run_shard", "repro.serving.shard.coordinator", None,
     "run_shard"),
    ("resilience.validate", "repro.resilience.supervisor", None,
     "validate_result"),
    ("sim.simulate_kernel", "repro.core.runtime.scheduler", None,
     "simulate_kernel"),
    ("nn.perforation_grid", "repro.nn.perforation", "PerforationPlan",
     "grid_for"),
    ("core.runtime.tune", "repro.core.runtime.accuracy_tuning",
     "AccuracyTuner", "tune"),
)

#: A call into the key's layer made directly inside the value's layer
#: gets no span: a ``to_dict`` inside ``fingerprint()`` is part of the
#: fingerprint's cost.
ABSORBED = {"report.summary": "report.fingerprint"}

ENGINE_PREFIX = "core.engine."

#: EngineStats counters read around each outermost engine call.
ENGINE_COUNTERS = ("compile_calls", "compile_misses", "execute_calls",
                   "execute_misses")


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, iteration]`` per span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.iteration = 0
        self._open: List[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.iteration]
        )
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def innermost(self) -> Optional[str]:
        return self.spans[self._open[-1]][0] if self._open else None

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._open)

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.iteration, name)] += amount

    def write(self, path) -> None:
        """Write every span as ``[name, start_s, end_s, parent,
        iteration]``, its times on the ``perf_counter`` clock."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "iteration"],
                       "spans": self.spans}, handle)


def _wrapper(recorder: Recorder, layer: str, original: Callable):
    absorbed_by = ABSORBED.get(layer)
    engine = layer.startswith(ENGINE_PREFIX)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if absorbed_by is not None and recorder.innermost() == absorbed_by:
            return original(*args, **kwargs)
        before = None
        if engine and not recorder.inside(ENGINE_PREFIX):
            stats = args[0].stats
            before = [getattr(stats, key) for key in ENGINE_COUNTERS]
        index = recorder.open(layer)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index)
            if before is not None:
                for key, old in zip(ENGINE_COUNTERS, before):
                    recorder.count(ENGINE_PREFIX + key,
                                   getattr(stats, key) - old)

    return traced


def install(recorder: Recorder):
    """Wrap every target; returns a function that removes the wrappers.

    A target the program no longer has is reported on stderr, and its
    layer reads zero.
    """
    undo = []
    for layer, module_name, class_name, attr in TARGETS:
        label = ".".join(filter(None, (module_name, class_name, attr)))
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            raw = (owner.__dict__[attr] if class_name is not None
                   else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError):
            print("perfbench: trace target %s not found; %s reads 0"
                  % (label, layer), file=sys.stderr)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrapper(recorder, layer, raw.__func__))
        else:
            wrapped = _wrapper(recorder, layer, raw)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return uninstall


def self_times(recorder: Recorder) -> Dict[Tuple[int, str], float]:
    """Self time per (iteration, span name); a root span named
    ``iteration`` contributes its uncovered remainder as ``other``."""
    spans = recorder.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _iteration in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[Tuple[int, str], float] = Counter()
    for index, (name, start, end, _parent, iteration) in enumerate(spans):
        key = "other" if name == "iteration" else name
        totals[(iteration, key)] += (end - start) - covered[index]
    return totals


def span_counts(recorder: Recorder) -> Dict[Tuple[int, str], int]:
    """Number of spans per (iteration, span name)."""
    counts: Dict[Tuple[int, str], int] = Counter()
    for name, _start, _end, _parent, iteration in recorder.spans:
        counts[(iteration, name)] += 1
    return counts
