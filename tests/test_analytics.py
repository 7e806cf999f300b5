"""Unit tests for the fidelity baselines: stacked fidelity and ``adapt.mc_fidelities``."""

import numpy as np
import pytest

from qstkit import adapt, cli, qcore, sampling

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES


def curve(fids):
    return adapt._curve("baseline", HS, 1, 1, "random-pair", fids)


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
        a = adapt.mc_fidelities(HS, 1, 500, 3, against_mixed=False)
        b = adapt.mc_fidelities(HS, 1, 500, 3, against_mixed=False)
        assert a.shape == (500,)
        assert a.tobytes() == b.tobytes()

    def test_standard_error_scales_as_inverse_sqrt_pairs(self):
        """stderr(1e3) / stderr(1e5) is close to sqrt(100) = 10."""
        err_small = curve(adapt.mc_fidelities(HS, 1, 1000, 5, against_mixed=False)).stderr
        err_large = curve(adapt.mc_fidelities(HS, 1, 100000, 5, against_mixed=False)).stderr
        assert err_small / err_large == pytest.approx(10.0, rel=0.15)

    def test_rejects_tiny_runs(self):
        for against_mixed in (False, True):
            with pytest.raises(ValueError, match="at least 100"):
                adapt.mc_fidelities(HS, 1, 10, 0, against_mixed)

    def test_vs_mixed_range_and_reproducibility(self):
        fids = adapt.mc_fidelities(BURES, 1, 500, 9, against_mixed=True)
        assert np.all((fids > 0.0) & (fids <= 1.0)) and curve(fids).stderr > 0.0
        assert fids.tobytes() == adapt.mc_fidelities(BURES, 1, 500, 9, True).tobytes()

    def test_mixed_baseline_exceeds_random_pair_baseline(self):
        """Guessing I/N always beats guessing another random state, on average."""
        for n in (1, 2, 3):
            pair = adapt.mc_fidelities(HS, n, 2000, 11, against_mixed=False).mean()
            mixed = adapt.mc_fidelities(HS, n, 2000, 12, against_mixed=True).mean()
            assert mixed > pair

    @pytest.mark.parametrize("against_mixed", [False, True])
    @pytest.mark.parametrize("measure,m", [("hilbert-schmidt", 3), ("bures", 2)])
    def test_chunking_does_not_change_fidelities(self, monkeypatch, measure, m, against_mixed):
        default = adapt.mc_fidelities(measure, m, 140, 21, against_mixed)
        monkeypatch.setattr(adapt, "_MC_CHUNK", 7)
        chunked = adapt.mc_fidelities(measure, m, 140, 21, against_mixed)
        assert chunked.tobytes() == default.tobytes()

    def test_dimension_validation(self, tmp_path, capsys):
        """A dimension that is not a power of two is a usage error."""
        capsys.readouterr()
        assert cli.main(["baselines", "--dims", "3", "--pairs", "200",
                         "--out-dir", str(tmp_path / "b")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "power of two" in err and "Traceback" not in err
