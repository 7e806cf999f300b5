"""Unit tests for the linear-algebra and quantum-information primitives."""

import numpy as np
import pytest

from qstkit import qcore, sampling

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def pure(ket):
    return np.outer(ket, ket.conj())


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


class TestTensorProduct:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(
            qcore.tensor_product(np.eye(2, dtype=complex), np.eye(2, dtype=complex)), np.eye(4)
        )

    def test_pure_times_mixed_expands_directly(self):
        out = qcore.tensor_product(pure(KET0), np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_matches_elementwise_loop_oracle(self):
        """Entry (i*2+k, j*2+l) must equal a[i,j] * b[k,l]."""
        rng = sampling.stream(101)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = qcore.tensor_product(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert abs(got[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) <= 1e-15


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = sampling.stream(102)
        rho = sampling.sample_hs(1, rng)
        sigma = sampling.sample_hs(2, rng)
        joint = qcore.tensor_product(rho, sigma)
        np.testing.assert_allclose(qcore.partial_trace(joint, {1, 2}), rho, atol=1e-14)
        np.testing.assert_allclose(qcore.partial_trace(joint, {0}), sigma, atol=1e-14)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        reduced = qcore.partial_trace(pure(bell), {1})
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-15)

    def test_matches_index_summation_oracle(self):
        """Tracing qubits {0, 2} of a 3-qubit state against an explicit loop."""
        rho = sampling.sample_hs(3, sampling.stream(103))
        got = qcore.partial_trace(rho, {0, 2})
        want = np.zeros((2, 2), dtype=complex)
        for i1 in range(2):
            for j1 in range(2):
                for i0 in range(2):
                    for i2 in range(2):
                        row = i0 * 4 + i1 * 2 + i2
                        col = i0 * 4 + j1 * 2 + i2
                        want[i1, j1] += rho[row, col]
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_preserves_trace_and_physicality(self):
        rng = sampling.stream(104)
        for _ in range(20):
            rho = sampling.sample_hs(3, rng)
            reduced = qcore.partial_trace(rho, {1})
            assert abs(np.trace(reduced) - 1.0) <= 1e-12
            assert qcore.is_physical(reduced)

    def test_append_then_trace_recovers_original(self):
        rng = sampling.stream(105)
        rho = sampling.sample_hs(2, rng)
        sigma = sampling.sample_hs(1, rng)
        joint = qcore.tensor_product(rho, sigma)
        np.testing.assert_allclose(qcore.partial_trace(joint, {2}), rho, atol=1e-12)

    def test_empty_removal_is_a_copy(self):
        rho = sampling.sample_hs(2, sampling.stream(106))
        out = qcore.partial_trace(rho, set())
        np.testing.assert_array_equal(out, rho)
        assert out is not rho

    def test_rejects_bad_indices(self):
        rho = sampling.sample_hs(2, sampling.stream(107))
        with pytest.raises(ValueError, match="out of range"):
            qcore.partial_trace(rho, {5})
        with pytest.raises(ValueError, match="every qubit"):
            qcore.partial_trace(rho, {0, 1})


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(qcore.sqrt_psd(np.eye(3, dtype=complex)), np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        out = qcore.sqrt_psd(np.diag([0.25, 0.75]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.5, np.sqrt(0.75)]), atol=1e-15)

    def test_multiply_back_oracle(self):
        """R @ R must reproduce the input for random PSD matrices."""
        rng = sampling.stream(108)
        for _ in range(25):
            g = sampling.ginibre(4, rng)
            m = g @ g.conj().T
            m = (m + m.conj().T) / 2
            r = qcore.sqrt_psd(m)
            assert np.abs(r @ r - m).max() <= 1e-12
            assert np.abs(r - r.conj().T).max() <= 1e-12

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            qcore.sqrt_psd(np.diag([1.0, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_stack_with_one_bad_member_rejected(self):
        """Every member of a stack is checked, not only the first."""
        good = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        non_psd = good.copy()
        non_psd[2] = np.diag([1.0, -0.5])
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            qcore.sqrt_psd(non_psd)
        non_hermitian = good.copy()
        non_hermitian[1] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.sqrt_psd(non_hermitian)
        np.testing.assert_allclose(qcore.sqrt_psd(good), good * np.sqrt(2), atol=1e-15)

    def test_clamps_roundoff_negatives(self):
        out = qcore.sqrt_psd(np.diag([1.0, -5e-11]).astype(complex))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = sampling.stream(109)
        for m in (1, 2, 3):
            rho = sampling.sample_hs(m, rng)
            assert qcore.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert qcore.fidelity(pure(KET0), pure(KET1)) == pytest.approx(0.0, abs=1e-15)

    def test_mixed_versus_pure_is_overlap(self):
        """F(rho, |psi><psi|) = <psi|rho|psi> for pure second argument."""
        assert qcore.fidelity(np.eye(2, dtype=complex) / 2, pure(KET0)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        rng = sampling.stream(110)
        for _ in range(50):
            rho = sampling.sample_hs(2, rng)
            sigma = sampling.sample_bures(2, rng)
            assert abs(qcore.fidelity(rho, sigma) - qcore.fidelity(sigma, rho)) <= 1e-10

    def test_range(self):
        rng = sampling.stream(111)
        for _ in range(50):
            f = qcore.fidelity(sampling.sample_hs(2, rng), sampling.sample_hs(2, rng))
            assert 0.0 <= f <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qcore.fidelity(np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex) / 4)

    def test_monotone_under_partial_trace(self):
        """F(rho_AB, sigma_AB) <= F(Tr_B rho, Tr_B sigma) for every single-qubit trace."""
        rng = sampling.stream(112)
        for m in (2, 3):
            for _ in range(1000):
                rho = sampling.sample_hs(m, rng)
                sigma = sampling.sample_hs(m, rng)
                full = qcore.fidelity(rho, sigma)
                for q in range(m):
                    reduced = qcore.fidelity(
                        qcore.partial_trace(rho, {q}), qcore.partial_trace(sigma, {q})
                    )
                    assert full <= reduced + 1e-9


class TestProjectPhysical:
    def test_physical_state_is_fixed_point(self):
        rho = sampling.sample_hs(2, sampling.stream(113))
        np.testing.assert_allclose(qcore.project_physical(rho), rho, atol=1e-14)

    def test_clamp_and_renormalize(self):
        out = qcore.project_physical(np.diag([1.5, -0.5]).astype(complex))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_perturbed_state_becomes_physical(self):
        rng = sampling.stream(114)
        for _ in range(50):
            rho = sampling.sample_hs(2, rng)
            noisy = rho + 1e-3 * random_hermitian(4, rng)
            assert qcore.is_physical(qcore.project_physical(noisy))

    def test_zero_trace_rejected(self):
        with pytest.raises(np.linalg.LinAlgError, match="zero trace"):
            qcore.project_physical(np.diag([-1.0, -2.0]).astype(complex))


class TestChecks:
    def test_is_physical_accepts_samples(self):
        rng = sampling.stream(115)
        assert qcore.is_physical(sampling.sample_hs(2, rng))
        assert qcore.is_physical(sampling.sample_bures(2, rng))

    def test_assert_physical_messages(self):
        with pytest.raises(ValueError, match="Hermiticity"):
            qcore.assert_physical(np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="trace"):
            qcore.assert_physical(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="eigenvalue"):
            qcore.assert_physical(np.diag([1.5, -0.5]).astype(complex))

    def test_qubit_count_table(self):
        accepted = [
            (2, 2, 1), (4, 2, 2), (8, 2, 3), (1024, 2, 10),
            (4, 4, 1), (16, 4, 2), (64, 4, 3),
            (6, 6, 1), (36, 6, 2), (216, 6, 3), (6**8, 6, 8),
        ]
        for size, base, k in accepted:
            assert qcore.qubit_count(size, base) == k
        for base in (2, 4, 6):
            for size in (0, 1, 35, 37, 215, 217):
                with pytest.raises(ValueError, match=rf"{base}\*\*m"):
                    qcore.qubit_count(size, base)

    def test_num_qubits_validation(self):
        assert qcore.num_qubits(np.eye(8)) == 3
        with pytest.raises(ValueError, match="power of two"):
            qcore.num_qubits(np.eye(3))
        with pytest.raises(ValueError, match="square"):
            qcore.num_qubits(np.zeros((2, 3)))
