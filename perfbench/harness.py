"""One benchmark run: set-up, timed iterations, checks and metrics.

The untraced run (``--trace 0``) sets the workload up ``SETUPS``
times, each from nothing to the end of its first, cold iteration, and
reports the median as ``setup_s``.  It then runs iterations on the
last set-up for the requested seconds and reports throughput over the
median iteration time, so one slow iteration cannot move it.  Host
times are in reference seconds (see :class:`Clock`).

The traced run (``--trace 1``) installs the spans of :mod:`spans`,
sets up once (iteration 0) and runs traced iterations for half the
requested time, then uninstalls them and runs untraced iterations for
the other half; the difference between the two medians is the
tracing overhead.  Per-layer numbers are per iteration: the
``setup.``-prefixed ones from the cold set-up iteration, the others
averaged over the traced steady iterations.

Every iteration, set-up ones included, is checked (see
:func:`workloads.check`); a failed check or an exception counts as a
failed operation.
"""

import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 3
#: Fewest steady iterations a run times, however long they take.
MIN_ITERATIONS = 3
#: Fresh interpreters timed for ``process.import_s``.
IMPORT_SAMPLES = 3
#: What :func:`calibration_work` takes on the machine the reference
#: seconds are pinned to (see :class:`Clock`).
CALIBRATION_S = 0.1

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("requests_per_s", "1/s"),
    ("evaluations_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("deadline_hit_rate", "ratio"),
    ("mean_soc", "soc"),
    ("energy_j_per_request", "J"),
)

#: Layers reported as self time per iteration (``<layer>_s``) and in
#: the set-up iteration (``setup.<layer>_s``).  ``other`` is the part
#: of an iteration no layer covers.
SCHEDULERS = ("performance-preferred", "energy-efficient", "qpe", "qpe+",
              "p-cnn", "ideal")
TIME_LAYERS = (
    "workloads.trace_gen", "core.deploy_all", "serving.ladder_build",
    "core.engine.compile", "core.engine.execute", "serving.run",
    "report.summary", "report.fingerprint", "report.merge",
    "shard.coordinator_run", "shard.run_shard", "resilience.validate",
) + tuple(
    "schedulers." + workloads.layer_name(name) for name in SCHEDULERS
) + (
    "sim.simulate_kernel", "nn.perforation_grid", "core.runtime.tune",
    "other",
)
#: Span counts reported per iteration, for both phases.
CALL_LAYERS = ("core.deploy_all", "report.fingerprint", "report.merge",
               "sim.simulate_kernel")
#: Exact work counts read off the serving report (steady phase).
REPORT_COUNTS = (
    "serving.events", "serving.batches", "resilience.retries",
    "resilience.failovers", "resilience.batch_failures",
    "resilience.requests_rescued", "control.ticks",
    "control.prewarm_requested", "control.degrades", "control.dvfs_moves",
)


def per_layer_units():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    metrics = []
    for prefix in ("", "setup."):
        metrics += [(prefix + layer + "_s", "s") for layer in TIME_LAYERS]
        metrics += [(prefix + layer + "_calls", "count")
                    for layer in CALL_LAYERS]
        for kind in ("compile", "execute"):
            metrics += [
                (prefix + "core.engine.%s_calls" % kind, "count"),
                (prefix + "core.engine.%s_hit_ratio" % kind, "ratio"),
            ]
        metrics.append((prefix + "iteration_s", "s"))
    metrics.append(("serving.run_us_per_request", "us"))
    metrics += [(name, "count") for name in REPORT_COUNTS]
    metrics += [
        ("trace.untraced_iteration_s", "s"),
        ("trace.overhead_pct", "%"),
        ("process.import_s", "s"),
    ]
    return metrics


class Tally:
    """Attempted and failed operations, and the fingerprint every
    iteration must carry."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Call ``fn`` as one checked operation; returns its outcome
        (None when it failed)."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        outcome = result[1] if isinstance(result, tuple) else result
        if self.reference is None:
            self.reference = outcome.fingerprint
        problem = workloads.check(outcome, self.reference)
        if problem is not None:
            self.failed += 1
            print("perfbench: failed iteration: %s" % problem,
                  file=sys.stderr)
            return None
        return result


def calibration_work():
    """A fixed piece of pure-Python work: loops, dict and list churn and
    JSON encoding, like the program's own hot paths."""
    total = 0
    for i in range(300000):
        total += i * i % 7
    for _round in range(25):
        # Small tables, so the calibration adds little to peak memory.
        table = {str(i): [i, float(i)] for i in range(2000)}
        total += len(json.dumps(table))
    return total


class Clock:
    """Times sections of a run in reference seconds.

    The speed of a shared machine drifts by tens of percent over tens
    of seconds, which no window of a few iterations averages out.  So
    each timed section is bracketed by :func:`calibration_work`, and
    its raw seconds are scaled by ``CALIBRATION_S`` over the mean
    calibration time measured just before and just after it.  On a
    machine where the calibration takes ``CALIBRATION_S``, reference
    seconds are host seconds.
    """

    def __init__(self) -> None:
        self._last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        # With the collector off, the calibration's time cannot depend
        # on how many objects the workload keeps alive; it makes no
        # cycles, so reference counting frees all it allocates.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_work()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def time(self, around, fn, *args):
        """``(result, raw seconds, reference seconds)`` of one call made
        inside the ``around`` context.

        A long call may mark points between its steps with :meth:`lap`.
        Each step is then scaled by the calibrations on either side of
        it, which tracks the machine's speed more closely.
        """
        self._raw = self._reference = 0.0
        gc.collect()
        with around:
            self._start = time.perf_counter()
            result = fn(*args)
            end = time.perf_counter()
        self._close(end)
        return result, self._raw, self._reference

    def lap(self) -> None:
        """End the running step here; the next starts after a
        calibration."""
        self._close(time.perf_counter())
        self._start = time.perf_counter()

    def _close(self, end: float) -> None:
        raw = end - self._start
        before, self._last = self._last, self._calibrate()
        self._raw += raw
        self._reference += raw * CALIBRATION_S / ((before + self._last) / 2)


def _steady(workload, state, tally, clock, seconds, around):
    """Checked iterations for ``seconds`` (at least MIN_ITERATIONS).

    Returns the raw and the reference seconds of the good iterations,
    and the last good outcome.
    """
    raw, reference, last = [], [], None
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < MIN_ITERATIONS or time.perf_counter() < deadline:
        attempts += 1
        outcome, raw_s, reference_s = clock.time(
            around(attempts), tally.run, workload.iterate, state)
        if outcome is not None:
            raw.append(raw_s)
            reference.append(reference_s)
            last = outcome
    if last is None:
        raise RuntimeError("no iteration of %s succeeded" % workload.name)
    return raw, reference, last


def _untraced(_iteration):
    return contextlib.nullcontext()


def _setup(workload, seed, tally, clock, around=contextlib.nullcontext()):
    """One checked set-up: ``(state, reference seconds)``."""
    result, _raw_s, reference_s = clock.time(around, tally.run,
                                             workload.setup, seed)
    if result is None:
        raise RuntimeError("set-up of %s failed" % workload.name)
    return result[0], reference_s


def _reference(workload, seed):
    """The recorded fingerprint at the default seed, else None (the
    first iteration's fingerprint becomes the reference)."""
    if seed == workloads.DEFAULT_SEED:
        with open(HERE / "fingerprints.json") as handle:
            return json.load(handle)[workload.name]
    return None


def measure(workload, seed, seconds):
    """The untraced run: every end-to-end metric."""
    tally = Tally(_reference(workload, seed))
    clock = Clock()
    workload.lap = clock.lap
    setup_times = []
    for _ in range(SETUPS):
        # Drop the previous set-up first, so that the peak memory holds
        # one set-up, as a user's process would.
        state = None
        state, elapsed = _setup(workload, seed, tally, clock)
        setup_times.append(elapsed)
    _raw, times, outcome = _steady(workload, state, tally, clock, seconds,
                                   _untraced)
    iteration_s = statistics.median(times)
    values = {
        "requests_per_s": outcome.requests / iteration_s,
        "evaluations_per_s": outcome.evaluations / iteration_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "deadline_hit_rate": outcome.deadline_hit_rate,
        "mean_soc": outcome.mean_soc,
        "energy_j_per_request": outcome.energy_j_per_request,
    }
    return tally, {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END
    }


def import_seconds():
    """Median wall time of a fresh interpreter importing ``repro``."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            cwd=str(ROOT), check=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def trace(workload, seed, seconds, spans_path):
    """The traced run: every per-layer metric."""
    tally = Tally(_reference(workload, seed))
    recorder = spans.Recorder()

    @contextlib.contextmanager
    def traced(iteration):
        recorder.iteration = iteration
        with recorder.span("iteration"):
            yield

    clock = Clock()
    uninstall = spans.install(recorder)
    workload.span = recorder.span
    try:
        state, _elapsed = _setup(workload, seed, tally, clock, traced(0))
        _raw, traced_times, outcome = _steady(
            workload, state, tally, clock, seconds / 2.0, traced)
    finally:
        uninstall()
        workload.span = workloads.no_span
    plain_raw, plain_times, _ = _steady(workload, state, tally, clock,
                                        seconds / 2.0, _untraced)
    recorder.write(spans_path)
    values = layer_values(recorder, outcome)
    values["trace.untraced_iteration_s"] = statistics.median(plain_raw)
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_times) / statistics.median(plain_times)
        - 1.0
    )
    values["process.import_s"] = import_seconds()
    return tally, {
        name: {"value": values[name], "unit": unit}
        for name, unit in per_layer_units()
    }


def layer_values(recorder, outcome):
    """Per-layer values from a traced run's spans.

    Iteration 0 is the set-up; iterations 1.. are steady.  Failed
    iterations' spans are included: they cost time too.
    """
    self_s = spans.self_times(recorder)
    calls = spans.span_counts(recorder)
    phases = {"setup.": [0],
              "": sorted({i for i, _ in self_s if i > 0})}
    values = {}
    for prefix, iterations in phases.items():
        n = float(len(iterations)) or 1.0

        def mean(table, key, iterations=iterations, n=n):
            return sum(table.get((i, key), 0) for i in iterations) / n

        for layer in TIME_LAYERS:
            values[prefix + layer + "_s"] = mean(self_s, layer)
        for layer in CALL_LAYERS:
            values[prefix + layer + "_calls"] = mean(calls, layer)
        for kind in ("compile", "execute"):
            made = mean(recorder.counts, spans.ENGINE_PREFIX + kind + "_calls")
            missed = mean(recorder.counts,
                          spans.ENGINE_PREFIX + kind + "_misses")
            values[prefix + "core.engine.%s_calls" % kind] = made
            values[prefix + "core.engine.%s_hit_ratio" % kind] = (
                (made - missed) / made if made else 0.0
            )
        values[prefix + "iteration_s"] = sum(
            end - start
            for name, start, end, _parent, i in recorder.spans
            if name == "iteration" and i in iterations
        ) / n
    values["serving.run_us_per_request"] = (
        1e6 * values["serving.run_s"] / outcome.requests
        if outcome.requests else 0.0
    )
    for name in REPORT_COUNTS:
        values[name] = outcome.counts.get(name, 0.0)
    return values
