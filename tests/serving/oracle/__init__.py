"""The reference router loop and report fold, kept as test-only
oracles.

:class:`ReferenceRouter` is the original object-per-event
discrete-event loop the single router loop in
:mod:`repro.serving.vec_router` was derived from: every arrival is a
``Request``, every heap entry a tuple, every admission scored through
:class:`Dispatcher` candidates.  It shares the production router's
platform-state build, ladder re-targeting and platform statistics, so
it differs from the production loop only in the code under test.

The differential harness (``tests/serving/test_backend_equivalence.py``)
requires bit-identical fingerprints between the two; the benchmarks
time it as the reference row of the ref/vec speedup gate.
:func:`reference_loop` routes every ``RequestRouter`` built inside a
``with`` block (shard workers, what-if runs, the CLI) through the
oracle.

:func:`merge_reports` and :func:`qualify_report` are the object-path
report merge and shard qualification; the production fold, which
reads record columns, must match them byte for byte.
"""

from tests.serving.oracle.admission import AdmissionController
from tests.serving.oracle.dispatch import Dispatcher, backlog_s, order_queue
from tests.serving.oracle.merge import merge_reports, qualify_report
from tests.serving.oracle.router import ReferenceRouter, reference_loop

__all__ = [
    "AdmissionController",
    "Dispatcher",
    "ReferenceRouter",
    "backlog_s",
    "merge_reports",
    "order_queue",
    "qualify_report",
    "reference_loop",
]
