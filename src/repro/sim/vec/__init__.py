"""Struct-of-arrays primitives of the router's hot path.

* :mod:`repro.sim.vec.events` -- the SoA primitives: a ``(time, seq)``
  keyed binary heap over parallel scalar columns
  (:class:`SoAEventQueue`, pop-order bit-identical to ``heapq``) and
  the column-major arrival stream (:class:`ArrivalColumns`, ordering
  bit-identical to :func:`repro.serving.request.merge_loads`).
* :mod:`repro.sim.vec.scoring` -- element-wise SoC curves evaluated
  across whole request vectors with the exact scalar op order of
  :mod:`repro.core.satisfaction`.

The consumer is the router event loop, :mod:`repro.serving.vec_router`.
Equivalence with the scalar functions is enforced by
``tests/sim/test_vec_equivalence.py`` and ``tests/sim/test_soa_events.py``;
the loop's bit-identical ``RouterReport`` fingerprints by
``tests/serving/test_backend_equivalence.py``.
"""

from repro.sim.vec.events import ArrivalColumns, SoAEventQueue
from repro.sim.vec.scoring import (
    soc_accuracy_vec,
    soc_time_vec,
    soc_value_vec,
)

__all__ = [
    "ArrivalColumns",
    "SoAEventQueue",
    "soc_accuracy_vec",
    "soc_time_vec",
    "soc_value_vec",
]
