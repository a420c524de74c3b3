"""Differential tests: the vectorized scorers vs their scalar oracles.

Two vectorized rewrites are checked bit-for-bit against the scalar
implementations, which stay in the tree as reference oracles:

* :func:`repro.analysis.batched_kernel_scores` vs the scalar
  :func:`repro.sim.engine.analytic_kernel_time_s` loop it replaces in
  the engine's compile sweep (and the tuner winner it implies);
* the element-wise SoC curves in :mod:`repro.sim.vec.scoring` vs the
  scalar :mod:`repro.core.satisfaction` functions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import batched_kernel_scores
from repro.core.offline.kernel_tuning import (
    PCNN_BACKEND,
    candidate_kernels,
    kernel_score,
    tune_layer_kernel,
)
from repro.core.satisfaction import TimeRequirement, soc_accuracy, soc_time
from repro.gpu import JETSON_TX1, K20C
from repro.gpu.kernels import GemmShape, make_kernel
from repro.gpu.spilling import apply_spill, plan_spill, stair_points
from repro.sim.engine import analytic_kernel_time_s
from repro.sim.vec import (
    soc_accuracy_vec,
    soc_time_vec,
    soc_value_vec,
)

ARCHS = (K20C, JETSON_TX1)

SHAPES = (
    GemmShape(m_rows=96, n_cols=363, k_depth=128),
    GemmShape(m_rows=128, n_cols=729, k_depth=1200),
    GemmShape(m_rows=384, n_cols=169, k_depth=2304),
)


class TestBatchedScores:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_elementwise_equal_to_scalar(self, arch, shape):
        kernels = []
        tlps = []
        for base in candidate_kernels(arch):
            for tlp, regs in stair_points(arch, base):
                kernels.append(apply_spill(base, plan_spill(
                    arch, base, regs, tlp
                )))
                tlps.append(tlp)
        scores = batched_kernel_scores(
            arch, kernels, tlps, shape, library=PCNN_BACKEND
        )
        expected = np.asarray(
            [
                analytic_kernel_time_s(
                    arch, kernel, shape, library=PCNN_BACKEND, tlp=tlp
                )
                for kernel, tlp in zip(kernels, tlps)
            ],
            dtype=np.float64,
        )
        assert np.array_equal(scores, expected)

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_tuner_winner_unchanged(self, arch):
        """The vectorized sweep inside ``tune_layer_kernel`` picks the
        same kernel, TLP and score the scalar loop picked (first
        minimum wins on ties, like the old strict ``<`` update)."""
        for shape in SHAPES:
            tuned = tune_layer_kernel(arch, shape)
            best = None
            for base in candidate_kernels(arch):
                for tlp, regs in stair_points(arch, base):
                    kernel = apply_spill(
                        base, plan_spill(arch, base, regs, tlp)
                    )
                    score = kernel_score(
                        arch, kernel, shape, tlp, backend=PCNN_BACKEND
                    )
                    if best is None or score < best[0]:
                        best = (score, kernel.name, tlp)
            assert best is not None
            assert (
                tuned.score, tuned.kernel.name, tuned.tlp
            ) == best

    def test_length_mismatch_rejected(self):
        kernel = make_kernel(64, 64)
        with pytest.raises(ValueError, match="kernels and tlps"):
            batched_kernel_scores(K20C, [kernel], [1, 2], SHAPES[0])

    def test_zero_tlp_rejected_like_reference(self):
        kernel = make_kernel(64, 64)
        with pytest.raises(ValueError, match="does not fit"):
            batched_kernel_scores(K20C, [kernel], [0], SHAPES[0])

    def test_empty_sweep(self):
        scores = batched_kernel_scores(K20C, [], [], SHAPES[0])
        assert scores.shape == (0,)


class TestSocCurves:
    REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)
    BOUNDS = (REQUIREMENT.imperceptible_s, REQUIREMENT.unusable_s)

    @settings(max_examples=100, deadline=None)
    @given(
        runtimes=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1, max_size=32,
        )
    )
    def test_soc_time_elementwise(self, runtimes):
        vec = soc_time_vec(np.asarray(runtimes), *self.BOUNDS)
        scalar = [soc_time(r, self.REQUIREMENT) for r in runtimes]
        assert vec.tolist() == scalar

    @settings(max_examples=100, deadline=None)
    @given(
        entropies=st.lists(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
            min_size=1, max_size=32,
        ),
        threshold=st.floats(
            min_value=1e-3, max_value=8.0, allow_nan=False
        ),
    )
    def test_soc_accuracy_elementwise(self, entropies, threshold):
        vec = soc_accuracy_vec(np.asarray(entropies), threshold)
        scalar = [soc_accuracy(e, threshold) for e in entropies]
        assert vec.tolist() == scalar

    def test_soc_value_composition(self):
        runtimes = np.asarray([0.05, 0.2, 0.7])
        entropies = np.asarray([0.5, 1.5, 3.0])
        value = soc_value_vec(
            soc_time_vec(runtimes, *self.BOUNDS),
            soc_accuracy_vec(entropies, 1.0),
            energy_joules=2.0,
        )
        expected = [
            soc_time(r, self.REQUIREMENT) * soc_accuracy(e, 1.0) / 2.0
            for r, e in zip(runtimes.tolist(), entropies.tolist())
        ]
        assert value.tolist() == expected

    def test_validation_matches_scalar_contract(self):
        with pytest.raises(ValueError):
            soc_time_vec(np.asarray([-0.1]), *self.BOUNDS)
        with pytest.raises(ValueError):
            soc_accuracy_vec(np.asarray([1.0]), 0.0)
        with pytest.raises(ValueError):
            soc_value_vec(np.asarray([1.0]), np.asarray([1.0]), 0.0)
