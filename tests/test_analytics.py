"""Unit tests for the fidelity baselines."""

import numpy as np
import pytest

from qstkit import analytics, qcore, sampling

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES


class TestFidelityStack:
    def test_matches_scalar_fidelity(self):
        """Stacked qcore.fidelity must agree with the per-pair loop."""
        rng = sampling.stream(909)
        for m in (1, 2, 3):
            rhos = np.stack([sampling.sample_state(m, HS, rng) for _ in range(40)])
            sigmas = np.stack([sampling.sample_state(m, BURES, rng) for _ in range(40)])
            batch = qcore.fidelity(rhos, sigmas)
            loop = [qcore.fidelity(r, s) for r, s in zip(rhos, sigmas)]
            assert batch.shape == (40,)
            np.testing.assert_allclose(batch, loop, atol=1e-12)
            mixed = qcore.maximally_mixed(m)
            against_mixed = [qcore.fidelity(r, mixed) for r in rhos]
            np.testing.assert_allclose(qcore.fidelity(rhos, mixed), against_mixed, atol=1e-12)


class TestMonteCarlo:
    def test_reproducible_with_fixed_seed(self):
        a = analytics.mc_avg_fidelity("hilbert-schmidt", 2, 500, seed=3)
        b = analytics.mc_avg_fidelity("hilbert-schmidt", 2, 500, seed=3)
        assert a == b

    def test_standard_error_scales_as_inverse_sqrt_pairs(self):
        """stderr(1e3) / stderr(1e5) is close to sqrt(100) = 10."""
        _, err_small = analytics.mc_avg_fidelity("hilbert-schmidt", 2, 1000, seed=5)
        _, err_large = analytics.mc_avg_fidelity("hilbert-schmidt", 2, 100000, seed=5)
        assert err_small / err_large == pytest.approx(10.0, rel=0.15)

    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError, match="at least 100"):
            analytics.mc_avg_fidelity("hilbert-schmidt", 2, 10)
        with pytest.raises(ValueError, match="at least 100"):
            analytics.mc_avg_fidelity_vs_mixed("hilbert-schmidt", 2, 10)

    def test_vs_mixed_range_and_reproducibility(self):
        mean, err = analytics.mc_avg_fidelity_vs_mixed("bures", 2, 500, seed=9)
        assert 0.0 < mean <= 1.0 and err > 0.0
        assert (mean, err) == analytics.mc_avg_fidelity_vs_mixed("bures", 2, 500, seed=9)

    def test_mixed_baseline_exceeds_random_pair_baseline(self):
        """Guessing I/N always beats guessing another random state, on average."""
        for dim in (2, 4, 8):
            pair, _ = analytics.mc_avg_fidelity("hilbert-schmidt", dim, 2000, seed=11)
            mixed, _ = analytics.mc_avg_fidelity_vs_mixed("hilbert-schmidt", dim, 2000, seed=12)
            assert mixed > pair

    @pytest.mark.parametrize("against_mixed", [False, True])
    @pytest.mark.parametrize("measure,m", [("hilbert-schmidt", 3), ("bures", 2)])
    def test_chunking_does_not_change_fidelities(self, monkeypatch, measure, m, against_mixed):
        default = analytics._mc_fidelities(measure, m, 40, 21, against_mixed)
        monkeypatch.setattr(analytics, "_MC_CHUNK", 7)
        chunked = analytics._mc_fidelities(measure, m, 40, 21, against_mixed)
        assert chunked.tobytes() == default.tobytes()

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            analytics.mc_avg_fidelity("hilbert-schmidt", 3, 200)
