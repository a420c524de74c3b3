"""Frozen fingerprints of the router differential matrix.

``tests/goldens/router_fingerprints.json`` pins the router loop's
fingerprint on every case of :mod:`tests.serving.router_cases` --
fifo/soc policies, chaos on/off, instrumentation on/off, EWMA and
Holt-Winters controllers, and a ladder ``min_gain`` truncates mid-run
under a controller -- so the loop is checked without running the
reference oracle.  Re-pin with ``pytest --update-goldens`` only for an
intended behaviour change.
"""

import pytest

from repro.serving import RequestRouter
from tests.serving import router_cases

#: Python 3.12 made builtin ``sum`` over floats compensated, which
#: moves the last bits of every mean the reports fingerprint; the
#: corpus was recorded under plain left-to-right summation.
COMPENSATED_SUM = sum([0.1] * 10) == 1.0


@pytest.mark.skipif(
    COMPENSATED_SUM,
    reason="corpus recorded with uncompensated float sum (Python < 3.12)",
)
def test_router_fingerprints_match_golden_corpus(fleet, golden):
    golden(
        "router_fingerprints",
        {
            name: router_cases.run_case(RequestRouter, fleet, case)[
                0
            ].fingerprint()
            for name, case in sorted(router_cases.CASES.items())
        },
    )
