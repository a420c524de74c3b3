"""Vectorized SoC curves (element-wise twins of
:mod:`repro.core.satisfaction`).

Each function evaluates the scalar reference's exact operation order
element-wise over float64 arrays, so every output element is
bit-identical to calling the scalar function on the same inputs: the
linear-decay branch is ``1.0 - (runtime - T_i) / span`` with ``span =
T_u - T_i``, the accuracy tail is ``threshold / entropy``, and Eq. 15
is ``soc_time * soc_accuracy / energy`` in that association.  Branches
are realized with ``np.where`` masks; the masked-out lanes may compute
``inf``/``nan`` intermediates (e.g. a background tenant's infinite
span), which is why the arithmetic runs under ``np.errstate`` -- the
selected lanes match the scalar branch outcomes exactly.

Used by the vectorized router backend to precompute per-(platform,
rung) accuracy columns across the whole request vector and a fast-mode
report's per-request SoC columns, and by the differential tests as the
array-vs-scalar oracle pairing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["soc_time_vec", "soc_accuracy_vec", "soc_value_vec"]


def soc_time_vec(
    runtimes_s: np.ndarray, imperceptible_s, unusable_s
) -> np.ndarray:
    """Element-wise :func:`repro.core.satisfaction.soc_time`; a
    requirement's bounds are scalars or arrays aligned with
    ``runtimes_s`` (one requirement per element)."""
    runtimes = np.asarray(runtimes_s, dtype=np.float64)
    if np.any(runtimes < 0):
        raise ValueError("runtime must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        span = unusable_s - imperceptible_s
        decayed = 1.0 - (runtimes - imperceptible_s) / span
    return np.where(
        runtimes <= imperceptible_s,
        1.0,
        np.where(runtimes >= unusable_s, 0.0, decayed),
    )


def soc_accuracy_vec(entropies: np.ndarray, entropy_threshold) -> np.ndarray:
    """Element-wise :func:`repro.core.satisfaction.soc_accuracy`; the
    threshold is a scalar or an array aligned with ``entropies``."""
    values = np.asarray(entropies, dtype=np.float64)
    if np.any(values < 0) or np.any(np.asarray(entropy_threshold) <= 0):
        raise ValueError("entropy must be >= 0 and threshold > 0")
    with np.errstate(divide="ignore", over="ignore"):
        degraded = entropy_threshold / values
    return np.where(values <= entropy_threshold, 1.0, degraded)


def soc_value_vec(
    soc_times: np.ndarray,
    soc_accuracies: np.ndarray,
    energy_joules,
) -> np.ndarray:
    """Element-wise Eq. 15 value: ``soc_time * soc_accuracy / energy``;
    the energy is a scalar or an array aligned with the factors."""
    if np.any(np.asarray(energy_joules) <= 0):
        raise ValueError("energy must be positive")
    times = np.asarray(soc_times, dtype=np.float64)
    accuracies = np.asarray(soc_accuracies, dtype=np.float64)
    return times * accuracies / energy_joules
