"""Unit tests for the linear-algebra and quantum-information primitives."""

import numpy as np
import pytest

from oracles import ginibre, maximally_mixed, sample_state
from qstkit import qcore, sampling

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def pure(ket):
    return np.outer(ket, ket.conj())


class TestTensorProduct:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(
            np.kron(np.eye(2, dtype=complex), np.eye(2, dtype=complex)), np.eye(4)
        )

    def test_pure_times_mixed_expands_directly(self):
        out = np.kron(pure(KET0), np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_matches_elementwise_loop_oracle(self):
        """Entry (i*2+k, j*2+l) must equal a[i,j] * b[k,l]."""
        rng = sampling.stream(101)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = np.kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert abs(got[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) <= 1e-15


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = sampling.stream(102)
        rho = sample_state(1, HS, rng)
        sigma = sample_state(2, HS, rng)
        joint = np.kron(rho, sigma)
        np.testing.assert_allclose(qcore.partial_trace(joint, {1, 2}), rho, atol=1e-14)
        np.testing.assert_allclose(qcore.partial_trace(joint, {0}), sigma, atol=1e-14)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        reduced = qcore.partial_trace(pure(bell), {1})
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-15)

    def test_matches_index_summation_oracle(self):
        """Tracing qubits {0, 2} of a 3-qubit state against an explicit loop."""
        rho = sample_state(3, HS, sampling.stream(103))
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
            rho = sample_state(3, HS, rng)
            reduced = qcore.partial_trace(rho, {1})
            assert abs(np.trace(reduced) - 1.0) <= 1e-12
            qcore.assert_physical(reduced)

    def test_append_then_trace_recovers_original(self):
        rng = sampling.stream(105)
        rho = sample_state(2, HS, rng)
        sigma = sample_state(1, HS, rng)
        joint = np.kron(rho, sigma)
        np.testing.assert_allclose(qcore.partial_trace(joint, {2}), rho, atol=1e-12)

    def test_empty_removal_is_a_copy(self):
        rho = sample_state(2, HS, sampling.stream(106))
        out = qcore.partial_trace(rho, set())
        np.testing.assert_array_equal(out, rho)
        assert out is not rho

    def test_rejects_bad_indices(self):
        rho = sample_state(2, HS, sampling.stream(107))
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
            g = ginibre(4, rng)
            m = g @ g.conj().T
            m = (m + m.conj().T) / 2
            r = qcore.sqrt_psd(m)
            assert np.abs(r @ r - m).max() <= 1e-12
            assert np.abs(r - r.conj().T).max() <= 1e-12

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            qcore.sqrt_psd(np.diag([1.0, -0.5]).astype(complex))

    def test_stack_with_one_bad_member_rejected(self):
        """Every member of a stack is checked, not only the first."""
        good = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        non_psd = good.copy()
        non_psd[2] = np.diag([1.0, -0.5])
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            qcore.sqrt_psd(non_psd)
        np.testing.assert_allclose(qcore.sqrt_psd(good), good * np.sqrt(2), atol=1e-15)

    def test_clamps_roundoff_negatives(self):
        out = qcore.sqrt_psd(np.diag([1.0, -5e-11]).astype(complex))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = sampling.stream(109)
        for m in (1, 2, 3):
            rho = sample_state(m, HS, rng)
            assert qcore.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert qcore.fidelity(pure(KET0), pure(KET1)) == pytest.approx(0.0, abs=1e-15)

    def test_mixed_versus_pure_is_overlap(self):
        """F(rho, |psi><psi|) = <psi|rho|psi> for pure second argument."""
        assert qcore.fidelity(np.eye(2, dtype=complex) / 2, pure(KET0)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        rng = sampling.stream(110)
        for _ in range(50):
            rho = sample_state(2, HS, rng)
            sigma = sample_state(2, BURES, rng)
            assert abs(qcore.fidelity(rho, sigma) - qcore.fidelity(sigma, rho)) <= 1e-10

    def test_range(self):
        rng = sampling.stream(111)
        for _ in range(50):
            f = qcore.fidelity(sample_state(2, HS, rng),
                               sample_state(2, HS, rng))
            assert 0.0 <= f <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qcore.fidelity(np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex) / 4)

    def test_monotone_under_partial_trace(self):
        """F(rho_AB, sigma_AB) <= F(Tr_B rho, Tr_B sigma) for every single-qubit trace."""
        rng = sampling.stream(112)
        for m in (2, 3):
            for _ in range(1000):
                rho = sample_state(m, HS, rng)
                sigma = sample_state(m, HS, rng)
                full = qcore.fidelity(rho, sigma)
                for q in range(m):
                    reduced = qcore.fidelity(
                        qcore.partial_trace(rho, {q}), qcore.partial_trace(sigma, {q})
                    )
                    assert full <= reduced + 1e-9


class TestChecks:
    def test_assert_physical_accepts_samples(self):
        rng = sampling.stream(115)
        qcore.assert_physical(sample_state(2, HS, rng))
        qcore.assert_physical(sample_state(2, BURES, rng))
        qcore.assert_physical(sampling.sample_streams(2, BURES, 115, 0, 50, 2))

    def test_assert_physical_messages(self):
        """Each violated invariant of one matrix, with its context and deviation."""
        cases = {
            "state: expected a square matrix, got shape (2, 3)": np.zeros((2, 3)),
            "state: expected a square matrix, got shape (4,)": np.zeros(4),
            "state: non-finite entries": np.array([[np.nan, 0], [0, 0.5]]),
            "state: Hermiticity violated by 1.000e-01": np.array([[0.5, 0.1], [0.2, 0.5]]),
            "state: trace deviates from 1 by 1.000e+00": np.eye(2),
            "x: negative eigenvalue -5.000e-01": np.diag([1.5, -0.5]),
        }
        for message, rho in cases.items():
            context = message.split(":")[0]
            with pytest.raises(ValueError) as info:
                qcore.assert_physical(rho.astype(complex), context)
            assert str(info.value) == message

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, np.inf], [0.0, 0.5]]), "non-finite entries"),
        (np.array([[0.5, 0.1], [0.2, 0.5]]), "Hermiticity violated by 1.000e-01"),
        (np.diag([0.7, 0.5]), "trace deviates from 1 by 2.000e-01"),
        (np.diag([1.5, -0.5]), "negative eigenvalue -5.000e-01"),
    ])
    def test_assert_physical_stack_with_one_bad_member(self, bad, message):
        """A (2, 3, 2, 2) stack of good states with one bad member raises its message."""
        stack = np.stack([sampling.sample_streams(1, HS, 116, 0, 3, 1)[0]] * 2)
        qcore.assert_physical(stack, "stack")
        stack[1, 2] = bad
        with pytest.raises(ValueError) as info:
            qcore.assert_physical(stack, "stack")
        assert str(info.value) == f"stack: {message}"

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


class TestFidelityStack:
    def test_matches_scalar_fidelity(self):
        """Stacked qcore.fidelity must agree with the per-pair loop."""
        rng = sampling.stream(909)
        for m in (1, 2, 3):
            rhos = np.stack([sample_state(m, HS, rng) for _ in range(40)])
            sigmas = np.stack([sample_state(m, BURES, rng) for _ in range(40)])
            batch = qcore.fidelity(rhos, sigmas)
            loop = [qcore.fidelity(r, s) for r, s in zip(rhos, sigmas)]
            assert batch.shape == (40,)
            np.testing.assert_allclose(batch, loop, atol=1e-12)
            mixed = maximally_mixed(m)
            against_mixed = [qcore.fidelity(r, mixed) for r in rhos]
            np.testing.assert_allclose(qcore.fidelity(rhos, mixed), against_mixed, atol=1e-12)


class TestFidelityToMixed:
    """Both the closed form and ``fidelity`` take square roots of eigenvalues, so a state
    whose lowest eigenvalue is near zero loses digits in either as eps / sqrt(lowest): its
    round-off of a few eps is amplified by the slope of sqrt there. Bures draws reach a
    lowest eigenvalue of 1e-11; Hilbert-Schmidt draws agree within 1e-13 outright."""

    @pytest.mark.parametrize("measure", [HS, BURES])
    def test_matches_uhlmann_fidelity_against_mixed(self, measure):
        eps = np.finfo(float).eps
        for n in (1, 2, 3):
            states = sampling.sample_streams(n, measure, 31, 0, 300, 1)[0]
            want = qcore.fidelity(states, maximally_mixed(n))
            got = qcore.fidelity_to_mixed(states)
            assert got.shape == (300,)
            lowest = np.linalg.eigvalsh(states)[:, 0]
            bound = 1e-13 + 2**n * eps / np.sqrt(np.maximum(lowest, eps))
            assert np.all(np.abs(got - want) <= bound)
            if measure == HS:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_exact_cases(self):
        """A pure state gives 1/d; a diagonal state gives (sum_i sqrt(p_i))**2 / d."""
        eps = np.finfo(float).eps
        for n in (1, 2, 3):
            d = 2**n
            basis = np.zeros((d, d), dtype=complex)
            basis[-1, -1] = 1.0
            assert qcore.fidelity_to_mixed(basis) == 1 / d
            # A random pure state's zero eigenvalues carry round-off of a few eps,
            # which the square root turns into about sqrt(eps).
            ket = ginibre(d, sampling.stream(32 + n))[0]
            got = qcore.fidelity_to_mixed(pure(ket / np.linalg.norm(ket)))
            assert got == pytest.approx(1 / d, abs=d * np.sqrt(eps))
            p = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
            assert qcore.fidelity_to_mixed(np.diag(p).astype(complex)) == pytest.approx(
                np.sqrt(p).sum() ** 2 / d, abs=1e-15)

    def test_single_state_gives_float(self):
        got = qcore.fidelity_to_mixed(maximally_mixed(2))
        assert isinstance(got, float) and got == pytest.approx(1.0, abs=1e-15)

    def test_checks_as_sqrt_psd(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            qcore.fidelity_to_mixed(np.diag([1.0 + 1e-6, -1e-6]).astype(complex))
