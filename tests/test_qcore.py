"""Unit tests for the linear-algebra and quantum-information primitives."""

import numpy as np
import pytest
from scipy.linalg import sqrtm

from oracles import ginibre, sample_factor, sample_state, state
from qstkit import cholesky, qcore, sampling

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def pure(ket):
    return np.outer(ket, ket.conj())


def norm_sq(a):
    """Tr AA† of a factor, or of each factor of a stack."""
    return (np.abs(a) ** 2).sum(axis=(-2, -1))


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


def ket(d, rng):
    """A random unit ket of dimension d, as a (d, 1) factor."""
    k = ginibre(d, rng)[:, :1]
    return k / np.linalg.norm(k)


def uhlmann_fidelity(rho, sigma):
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2 of two density matrices, by ``sqrtm``."""
    root = sqrtm(rho)
    return np.trace(sqrtm(root @ sigma @ root)).real ** 2


class TestPartialTrace:
    """``partial_trace`` takes a factor A of the state AA†/Tr(AA†) and returns a factor;
    each test compares the states of both through the oracle ``state``."""

    def test_product_state_factorizes(self):
        rng = sampling.stream(102)
        a = sample_factor(1, HS, rng)
        b = sample_factor(2, HS, rng)
        joint = np.kron(a, b)
        np.testing.assert_allclose(state(qcore.partial_trace(joint, {1, 2})), state(a),
                                   atol=1e-14)
        np.testing.assert_allclose(state(qcore.partial_trace(joint, {0})), state(b), atol=1e-14)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        reduced = qcore.partial_trace(bell[:, None], {1})
        assert reduced.shape == (2, 2)
        np.testing.assert_allclose(state(reduced), np.eye(2) / 2, atol=1e-15)

    def test_matches_index_summation_oracle(self):
        """Tracing qubits {0, 2} of a 3-qubit state against an explicit loop."""
        a = sample_factor(3, HS, sampling.stream(103))
        rho = state(a)
        got = state(qcore.partial_trace(a, {0, 2}))
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
        """Tr AA† is kept: the traced rows only move into the columns."""
        rng = sampling.stream(104)
        for _ in range(20):
            a = sample_factor(3, HS, rng)
            reduced = qcore.partial_trace(a, {1})
            assert reduced.shape == (4, 16)
            assert abs(norm_sq(reduced) / norm_sq(a) - 1.0) <= 1e-12
            qcore.assert_physical(qcore.density(reduced))

    def test_append_then_trace_recovers_original(self):
        rng = sampling.stream(105)
        a = sample_factor(2, HS, rng)
        b = sample_factor(1, HS, rng)
        joint = np.kron(a, b)
        np.testing.assert_allclose(state(qcore.partial_trace(joint, {2})), state(a), atol=1e-12)

    def test_traces_compose_on_stacks(self):
        """Tracing qubit 0 of a wide factor after qubit 0 of a stack equals tracing qubits
        {0, 1} at once, member by member."""
        factors = sampling.sample_streams(3, BURES, 113, 0, 5, 1)[0]
        twice = qcore.partial_trace(qcore.partial_trace(factors, {0}), {0})
        once = qcore.partial_trace(factors, {0, 1})
        assert twice.shape == once.shape == (5, 2, 32)
        for a, b, full in zip(twice, once, factors):
            np.testing.assert_allclose(state(a), state(b), atol=1e-15)
            np.testing.assert_array_equal(b, qcore.partial_trace(full, {0, 1}))

    def test_empty_removal_is_a_copy(self):
        a = sample_factor(2, HS, sampling.stream(106))
        out = qcore.partial_trace(a, set())
        np.testing.assert_array_equal(out, a)
        assert out is not a and not np.shares_memory(out, a)

    def test_rejects_bad_indices(self):
        a = sample_factor(2, HS, sampling.stream(107))
        with pytest.raises(ValueError, match="out of range"):
            qcore.partial_trace(a, {5})
        with pytest.raises(ValueError, match="every qubit"):
            qcore.partial_trace(a, {0, 1})


class TestFidelity:
    """``fidelity`` takes factors: a ket column for a pure state, ``np.eye(d)`` for I/d."""

    def test_self_fidelity_is_one(self):
        rng = sampling.stream(109)
        for m in (1, 2, 3):
            a = sample_factor(m, HS, rng)
            assert qcore.fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert qcore.fidelity(KET0[:, None], KET1[:, None]) == pytest.approx(0.0, abs=1e-15)

    def test_mixed_versus_pure_is_overlap(self):
        """F(rho, |psi><psi|) = <psi|rho|psi> for a pure second argument; a density
        matrix passed as the factor would name another state and miss it."""
        assert qcore.fidelity(np.eye(2), KET0[:, None]) == pytest.approx(0.5, abs=1e-15)
        rng = sampling.stream(114)
        for m in (1, 2, 3):
            a, psi = sample_factor(m, HS, rng), ket(2**m, rng)
            want = (psi.conj().T @ state(a) @ psi).real.item()
            assert qcore.fidelity(a, psi) == pytest.approx(want, abs=1e-14)

    def test_symmetry(self):
        rng = sampling.stream(110)
        for _ in range(50):
            a = sample_factor(2, HS, rng)
            b = sample_factor(2, BURES, rng)
            assert abs(qcore.fidelity(a, b) - qcore.fidelity(b, a)) <= 1e-10

    def test_range(self):
        rng = sampling.stream(111)
        for _ in range(50):
            f = qcore.fidelity(sample_factor(2, HS, rng), sample_factor(2, HS, rng))
            assert 0.0 <= f <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qcore.fidelity(np.eye(2), np.eye(4))

    def test_monotone_under_partial_trace(self):
        """F(rho_AB, sigma_AB) <= F(Tr_B rho, Tr_B sigma) for every single-qubit trace."""
        rng = sampling.stream(112)
        for m in (2, 3):
            for _ in range(1000):
                a = sample_factor(m, HS, rng)
                b = sample_factor(m, HS, rng)
                full = qcore.fidelity(a, b)
                for q in range(m):
                    reduced = qcore.fidelity(
                        qcore.partial_trace(a, {q}), qcore.partial_trace(b, {q})
                    )
                    assert full <= reduced + 1e-9

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_near_pure_closed_form(self, d):
        """rho = (1-e)|psi><psi| + e I/d, the wide factor [sqrt(1-e) psi | sqrt(e/d) I],
        against a pure phi: F = (1-e)|<psi|phi>|**2 + e/d, in both argument orders."""
        rng = sampling.stream(117, d)
        for eps in (1e-6, 1e-9, 1e-12):
            for _ in range(50):
                psi, phi = ket(d, rng), ket(d, rng)
                a = np.hstack([np.sqrt(1 - eps) * psi, np.sqrt(eps / d) * np.eye(d)])
                want = (1 - eps) * abs((psi.conj().T @ phi).item()) ** 2 + eps / d
                assert abs(qcore.fidelity(a, phi) - want) <= 1e-14
                assert abs(qcore.fidelity(phi, a) - want) <= 1e-14

    @pytest.mark.parametrize("measure", [HS, BURES])
    def test_matches_sqrtm_uhlmann_oracle(self, measure):
        """Pair stacks at m = 1, 2, 3 against the Uhlmann formula with scipy's ``sqrtm``."""
        for m in (1, 2, 3):
            a, b = sampling.sample_streams(m, measure, 118, 0, 100, 2)
            got = qcore.fidelity(a, b)
            want = [uhlmann_fidelity(state(x), state(y)) for x, y in zip(a, b)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)

    def test_wide_factors_match_direct_svd(self):
        """fig2's shape, m=3 traced to n=1 (2 x 32 factors): the QR that squares a wide
        factor first leaves the sum of the singular values of A†B as it was."""
        net_taus = sampling.stream(119).standard_normal((200, 64))
        a = qcore.partial_trace(cholesky.tau_to_matrix(net_taus), {0, 1})
        b = qcore.partial_trace(sampling.sample_streams(3, HS, 119, 0, 200, 1)[0], {0, 1})
        assert a.shape == b.shape == (200, 2, 32)
        s = np.linalg.svd(a.conj().swapaxes(-1, -2) @ b, compute_uv=False).sum(axis=-1)
        want = s**2 / (norm_sq(a) * norm_sq(b))
        np.testing.assert_allclose(qcore.fidelity(a, b), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("value, message", [(0.0, "zero norm"), (np.nan, "not finite"),
                                                (np.inf, "not finite")])
    def test_factor_without_state_rejected_before_svd(self, monkeypatch, value, message):
        """One member of a stack that defines no state raises ArithmeticError from the
        norms, before the SVD runs."""
        good = sampling.sample_streams(1, HS, 120, 0, 3, 1)[0]
        bad = good.copy()
        bad[1] = 0.0
        bad[1, 0, 1] = value

        def svd(*_, **__):
            raise AssertionError("the SVD ran")

        monkeypatch.setattr(np.linalg, "svd", svd)
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ArithmeticError, match=message):
                qcore.fidelity(a, b)


class TestChecks:
    def test_assert_physical_accepts_samples(self):
        rng = sampling.stream(115)
        qcore.assert_physical(sample_state(2, HS, rng))
        qcore.assert_physical(sample_state(2, BURES, rng))
        qcore.assert_physical(qcore.density(sampling.sample_streams(2, BURES, 115, 0, 50, 2)))

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
        stack = np.stack([qcore.density(sampling.sample_streams(1, HS, 116, 0, 3, 1)[0])] * 2)
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


class TestFidelityStack:
    def test_matches_scalar_fidelity(self):
        """Stacked qcore.fidelity must agree with the per-pair loop."""
        rng = sampling.stream(909)
        for m in (1, 2, 3):
            rhos = np.stack([sample_factor(m, HS, rng) for _ in range(40)])
            sigmas = np.stack([sample_factor(m, BURES, rng) for _ in range(40)])
            batch = qcore.fidelity(rhos, sigmas)
            loop = [qcore.fidelity(r, s) for r, s in zip(rhos, sigmas)]
            assert batch.shape == (40,)
            np.testing.assert_allclose(batch, loop, atol=1e-12)
            mixed = np.eye(2**m)
            to_mixed = [qcore.fidelity(r, mixed) for r in rhos]
            np.testing.assert_allclose(qcore.fidelity(rhos, mixed), to_mixed, atol=1e-12)


class TestFidelityToMixed:
    """Fidelity against I/d is ``fidelity(a, np.eye(d))``, the closed form
    (sum of the singular values of A)**2 / (d Tr AA†)."""

    @pytest.mark.parametrize("measure", [HS, BURES])
    def test_matches_uhlmann_fidelity_to_mixed(self, measure):
        """The ``sqrtm`` oracle takes the square root of rho, so a state whose lowest
        eigenvalue is near zero loses digits in it as eps / sqrt(lowest): its round-off of
        a few eps is amplified by the slope of sqrt there. Bures draws reach a lowest
        eigenvalue of 1e-11; Hilbert-Schmidt draws agree within 1e-13 outright."""
        eps = np.finfo(float).eps
        for n in (1, 2, 3):
            d = 2**n
            factors = sampling.sample_streams(n, measure, 31, 0, 300, 1)[0]
            got = qcore.fidelity(factors, np.eye(d))
            assert got.shape == (300,)
            states = [state(a) for a in factors]
            want = np.array([uhlmann_fidelity(rho, np.eye(d) / d) for rho in states])
            lowest = np.linalg.eigvalsh(states)[:, 0]
            bound = 1e-13 + d * eps / np.sqrt(np.maximum(lowest, eps))
            assert np.all(np.abs(got - want) <= bound)
            if measure == HS:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_exact_cases(self):
        """A pure state gives 1/d; a diagonal state gives (sum_i sqrt(p_i))**2 / d."""
        for n in (1, 2, 3):
            d = 2**n
            basis = np.zeros((d, 1))
            basis[-1] = 1.0
            assert qcore.fidelity(basis, np.eye(d)) == 1 / d
            assert qcore.fidelity(ket(d, sampling.stream(32 + n)), np.eye(d)) == pytest.approx(
                1 / d, abs=1e-15)
            p = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
            assert qcore.fidelity(np.diag(np.sqrt(p)), np.eye(d)) == pytest.approx(
                np.sqrt(p).sum() ** 2 / d, abs=1e-15)

    def test_single_state_gives_float(self):
        got = qcore.fidelity(np.eye(4), np.eye(4))
        assert isinstance(got, float) and got == pytest.approx(1.0, abs=1e-15)
