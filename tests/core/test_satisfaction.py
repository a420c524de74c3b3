"""Tests for repro.core.satisfaction: SoC and its factors (Eq. 15)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.satisfaction import (
    TaskClass,
    TimeRequirement,
    soc,
    soc_accuracy,
    soc_time,
)


class TestTimeRequirement:
    def test_interactive_defaults(self):
        req = TimeRequirement.interactive()
        assert req.imperceptible_s == pytest.approx(0.1)
        assert req.unusable_s == pytest.approx(3.0)

    def test_real_time_has_no_tolerable_region(self):
        req = TimeRequirement.real_time(1 / 60)
        assert req.imperceptible_s == req.unusable_s

    def test_background_unbounded(self):
        req = TimeRequirement.background()
        assert req.is_unbounded
        assert math.isinf(req.budget_s)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            TimeRequirement(1.0, 0.5)

    def test_rejects_zero_ti(self):
        with pytest.raises(ValueError):
            TimeRequirement(0.0, 1.0)

    @pytest.mark.parametrize(
        "bounds",
        [(math.nan, math.nan), (math.nan, 1.0), (0.1, math.nan)],
    )
    def test_rejects_nan(self, bounds):
        with pytest.raises(ValueError, match="NaN"):
            TimeRequirement(*bounds)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError, match="imperceptible_s"):
            TimeRequirement("0.1", 1.0)

    def test_numpy_bounds_become_floats(self):
        req = TimeRequirement(np.float64(0.1), np.float32(0.5))
        assert type(req.imperceptible_s) is float
        assert type(req.unusable_s) is float
        assert req == TimeRequirement(0.1, float(np.float32(0.5)))


class TestSoCTime:
    def test_imperceptible_region(self):
        req = TimeRequirement.interactive()
        assert soc_time(0.05, req) == 1.0
        assert soc_time(0.1, req) == 1.0

    def test_unusable_region(self):
        req = TimeRequirement.interactive()
        assert soc_time(3.0, req) == 0.0
        assert soc_time(100.0, req) == 0.0

    def test_tolerable_linear_decay(self):
        """Fig. 3: satisfaction degrades linearly between T_i and T_t."""
        req = TimeRequirement.interactive()
        mid = (0.1 + 3.0) / 2
        assert soc_time(mid, req) == pytest.approx(0.5)
        assert soc_time(0.1 + 0.29, req) == pytest.approx(0.9)

    def test_real_time_cliff(self):
        req = TimeRequirement.real_time(1 / 30)
        assert soc_time(1 / 30, req) == 1.0
        assert soc_time(1 / 30 + 1e-6, req) == 0.0

    def test_background_always_satisfied(self):
        req = TimeRequirement.background()
        assert soc_time(1e6, req) == 1.0

    def test_rejects_negative_runtime(self):
        with pytest.raises(ValueError):
            soc_time(-1.0, TimeRequirement.interactive())

    @given(t=st.floats(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing(self, t):
        req = TimeRequirement.interactive()
        assert soc_time(t, req) >= soc_time(t + 0.1, req)


class TestSoCAccuracy:
    def test_under_threshold_is_one(self):
        assert soc_accuracy(0.8, 1.0) == 1.0
        assert soc_accuracy(1.0, 1.0) == 1.0

    def test_over_threshold_ratio(self):
        assert soc_accuracy(2.0, 1.0) == pytest.approx(0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            soc_accuracy(-0.1, 1.0)
        with pytest.raises(ValueError):
            soc_accuracy(1.0, 0.0)


class TestSoC:
    def test_eq15_composition(self):
        req = TimeRequirement.interactive()
        breakdown = soc(0.05, req, entropy=0.5, entropy_threshold=1.0,
                        energy_joules=2.0)
        assert breakdown.value == pytest.approx(1.0 * 1.0 / 2.0)
        assert breakdown.meets_satisfaction

    def test_unusable_zeroes_soc(self):
        req = TimeRequirement.real_time(0.01)
        breakdown = soc(0.02, req, 0.5, 1.0, 1.0)
        assert breakdown.value == 0.0
        assert not breakdown.meets_satisfaction

    def test_less_energy_more_satisfaction(self):
        req = TimeRequirement.background()
        low = soc(1.0, req, 0.5, 1.0, 0.5)
        high = soc(1.0, req, 0.5, 1.0, 2.0)
        assert low.value > high.value

    def test_rejects_zero_energy(self):
        with pytest.raises(ValueError):
            soc(1.0, TimeRequirement.background(), 0.5, 1.0, 0.0)

    def test_task_class_constants(self):
        assert set(TaskClass.ALL) == {
            "interactive",
            "real-time",
            "background",
        }
