"""Unit tests for the tau-vector parameterization."""

import numpy as np
import pytest

from qstkit import cholesky, qcore, sampling


class TestLayout:
    def test_four_by_four_positions(self):
        """The d=4 layout, slot by slot (0-indexed rows and columns)."""
        rows, cols = cholesky.tau_layout(4)
        expected = [
            (0, 0), (1, 1), (2, 2), (3, 3),  # tau 0..3
            (1, 0), (2, 1), (3, 2),          # pairs (4,5) (6,7) (8,9)
            (2, 0), (3, 1),                  # pairs (10,11) (12,13)
            (3, 0),                          # pair (14,15)
        ]
        assert list(zip(rows.tolist(), cols.tolist())) == expected

    def test_two_by_two_positions(self):
        rows, cols = cholesky.tau_layout(2)
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (1, 1), (1, 0)]

    def test_layout_covers_all_slots(self):
        """Diagonal slots plus complex pairs account for every real coefficient."""
        for d in (2, 4, 8, 16):
            rows, cols = cholesky.tau_layout(d)
            assert len(rows) == d * (d + 1) // 2
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
            assert all(r >= c for r, c in zip(rows, cols))
            assert d + 2 * (len(rows) - d) == d * d

    def test_matrix_assembly_matches_documented_positions(self):
        tau = np.arange(16, dtype=float)
        t = cholesky.tau_to_matrix(tau)
        assert t[1, 0] == 4 + 5j
        assert t[2, 1] == 6 + 7j
        assert t[3, 2] == 8 + 9j
        assert t[2, 0] == 10 + 11j
        assert t[3, 1] == 12 + 13j
        assert t[3, 0] == 14 + 15j
        np.testing.assert_array_equal(np.diag(t), [0, 1, 2, 3])
        assert np.all(np.triu(t, 1) == 0)

    def test_matrix_roundtrip(self):
        rng = sampling.stream(401)
        tau = rng.standard_normal(16)
        np.testing.assert_array_equal(
            cholesky.matrix_to_tau(cholesky.tau_to_matrix(tau)), tau
        )

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="power of two"):
            cholesky.tau_layout(3)
        with pytest.raises(ValueError, match="4\\*\\*m"):
            cholesky.tau_to_matrix(np.ones(5))


class TestTauToRho:
    def test_single_diagonal_entry_gives_pure_state(self):
        tau = np.zeros(16)
        tau[0] = 1.0
        rho = cholesky.tau_to_rho(tau)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_equal_diagonal_gives_maximally_mixed(self):
        tau = np.zeros(16)
        tau[:4] = 1.0
        np.testing.assert_allclose(cholesky.tau_to_rho(tau), np.eye(4) / 4, atol=1e-15)

    def test_any_tau_yields_physical_state(self):
        """Physicality holds by construction for arbitrary coefficients."""
        rng = sampling.stream(402)
        for _ in range(10000):
            m = int(rng.integers(1, 3))
            tau = rng.standard_normal(4**m) * 10.0 ** rng.integers(-3, 3)
            rho = cholesky.tau_to_rho(tau)
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12

    def test_scale_invariance(self):
        rng = sampling.stream(403)
        tau = rng.standard_normal(16)
        np.testing.assert_allclose(
            cholesky.tau_to_rho(tau), cholesky.tau_to_rho(3.7 * tau), atol=1e-14
        )

    def test_zero_tau_rejected(self):
        with pytest.raises(ArithmeticError, match="zero norm"):
            cholesky.tau_to_rho(np.zeros(16))


class TestRhoToTau:
    def test_pure_basis_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        tau = cholesky.rho_to_tau(rho)
        assert tau[0] == pytest.approx(1.0, abs=1e-9)
        assert np.abs(tau[1:]).max() <= 1e-6

    def test_maximally_mixed(self):
        tau = cholesky.rho_to_tau(np.eye(4, dtype=complex) / 4)
        np.testing.assert_allclose(tau[:4], tau[0], atol=1e-12)
        assert np.abs(tau[4:]).max() <= 1e-9

    def test_unit_norm_and_nonnegative_diagonal(self):
        rng = sampling.stream(404)
        for _ in range(100):
            tau = cholesky.rho_to_tau(sampling.sample_hs(2, rng))
            assert np.linalg.norm(tau) == pytest.approx(1.0, abs=1e-12)
            assert np.all(tau[:4] >= 0)

    def test_roundtrip_fidelity(self):
        """Full-rank states reconstruct with fidelity deficit below 1e-9."""
        rng = sampling.stream(405)
        for m in (2, 3):
            for _ in range(300):
                rho = sampling.sample_hs(m, rng)
                back = cholesky.tau_to_rho(cholesky.rho_to_tau(rho))
                assert 1.0 - qcore.fidelity(rho, back) <= 1e-9

    def test_rank_deficient_roundtrip(self):
        """Pure states pay at most the regularization cost."""
        ket = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        rho = np.outer(ket, ket.conj())
        back = cholesky.tau_to_rho(cholesky.rho_to_tau(rho))
        assert 1.0 - qcore.fidelity(rho, back) <= 1e-6
