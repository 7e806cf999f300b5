"""Unit tests for the seeded random-ensemble generators."""

import itertools

import numpy as np
import pytest
from scipy import stats

from oracles import ginibre, sample_factor, sample_state
from qstkit import neuralnet, qcore, sampling, tomography

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES


class TestStreams:
    def test_same_key_is_identical(self):
        a = sampling.stream(7, 3).standard_normal(16)
        b = sampling.stream(7, 3).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = sampling.stream(7, 0).standard_normal(16)
        b = sampling.stream(7, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("index", [0, neuralnet.TRAIN_STREAM])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1])
    def test_rekeyed_state_is_the_fresh_stream_state(self, seed, index):
        rng = sampling.stream(99, 5)
        rng.standard_normal(7)  # a used state: counter and buffer both moved
        sampling._rekeyer(rng.bit_generator, seed)(index)
        fresh = sampling.stream(seed, index)
        # The repr shows every field, array values and dtypes alike.
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        np.testing.assert_array_equal(rng.standard_normal(9), fresh.standard_normal(9))

    def test_sub_seed_is_deterministic_and_label_sensitive(self):
        assert sampling.sub_seed(11, "train") == sampling.sub_seed(11, "train")
        assert sampling.sub_seed(11, "train") != sampling.sub_seed(11, "test")
        assert sampling.sub_seed(11, "train") == 4381772290212249387  # the dataset contract


class TestGinibre:
    def test_shape_and_dtype(self):
        g = ginibre(4, sampling.stream(1))
        assert g.shape == (4, 4) and np.iscomplexobj(g)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            ginibre(3, sampling.stream(5)), ginibre(3, sampling.stream(5))
        )

    def test_entry_statistics(self):
        """Real parts have mean 0 and variance 1/2, within 3 sigma at 1e5 entries."""
        rng = sampling.stream(2)
        entries = np.concatenate([ginibre(100, rng).real.ravel() for _ in range(10)])
        n = entries.size
        assert abs(entries.mean()) <= 3 * np.sqrt(0.5 / n)
        assert abs(entries.var() - 0.5) <= 3 * np.sqrt(2.0 / n) * 0.5


class TestHilbertSchmidt:
    def test_construction_invariants(self):
        rng = sampling.stream(3)
        for m in (1, 2, 3):
            rho = sample_state(m, HS, rng)
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12
            qcore.assert_physical(rho)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sample_state(2, HS, sampling.stream(9)),
            sample_state(2, HS, sampling.stream(9)),
        )

    def test_matches_per_state_formula(self):
        """The factor is G; its state is bitwise G G† / Tr(G G†), hermitized as (W + W†)/2."""
        for m in (1, 2, 3):
            g = ginibre(2**m, sampling.stream(13, m))
            w = g @ g.conj().T
            w = w / np.trace(w).real
            expected = (w + w.conj().T) / 2
            got = sampling.sample_streams(m, HS, 13, m, m + 1, 1)[0, 0]
            assert got.tobytes() == g.tobytes()
            assert qcore.density(got).tobytes() == expected.tobytes()

    def test_mean_pair_fidelity_single_qubit(self):
        """10^4 independent pairs reproduce the 0.67 reference value."""
        fids = qcore.fidelity(*sampling.sample_streams(1, HS, 200, 0, 10000, 2))
        assert fids.mean() == pytest.approx(0.67, abs=0.01)

    def test_mean_pair_fidelity_two_qubits(self):
        """10^4 independent pairs reproduce the 0.59 reference value."""
        fids = qcore.fidelity(*sampling.sample_streams(2, HS, 201, 0, 10000, 2))
        assert fids.mean() == pytest.approx(0.59, abs=0.01)

    def test_purity_matches_moment_oracle(self):
        """Single-qubit HS purity converges to E[Tr rho^2] = 2N/(N^2+1) = 0.8.

        The oracle value follows from Wishart moments: the trace of GG† is
        independent of its normalized spectrum, so E[Tr W^2 / (Tr W)^2] =
        E[Tr W^2] / E[(Tr W)^2] = 2N^3 / (N^2 (N^2+1)).
        """
        rng = sampling.stream(4)
        purities = np.empty(100000)
        for i in range(purities.size):
            rho = sample_state(1, HS, rng)
            purities[i] = np.trace(rho @ rho).real
        stderr = purities.std(ddof=1) / np.sqrt(purities.size)
        assert abs(purities.mean() - 0.8) <= 3 * stderr


class TestHaarUnitary:
    def test_unitarity(self):
        rng = sampling.stream(6)
        for d in (2, 4, 8):
            u = sampling._haar(ginibre(d, rng))
            assert np.abs(u @ u.conj().T - np.eye(d)).max() <= 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sampling._haar(ginibre(4, sampling.stream(8))),
            sampling._haar(ginibre(4, sampling.stream(8))),
        )

    def test_eigenphase_uniformity(self):
        """Eigenvalue phases of 10^4 Haar draws are uniform on the circle."""
        rng = sampling.stream(7)
        phases = np.concatenate(
            [np.angle(np.linalg.eigvals(sampling._haar(ginibre(2, rng))))
             for _ in range(10000)]
        )
        counts, _ = np.histogram(phases, bins=12, range=(-np.pi, np.pi))
        assert stats.chisquare(counts).pvalue > 0.001


class TestBures:
    def test_construction_invariants(self):
        rng = sampling.stream(10)
        for m in (1, 2, 3):
            qcore.assert_physical(sample_state(m, BURES, rng))

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sample_state(2, BURES, sampling.stream(12)),
            sample_state(2, BURES, sampling.stream(12)),
        )

    def test_matches_per_state_formula(self):
        """Bitwise equal to A A† / Tr(A A†), A = (I + U)G, hermitized as (W + W†)/2."""
        for m in (1, 2, 3):
            d, rng = 2**m, sampling.stream(14, m)
            g = ginibre(d, rng)
            q, r = np.linalg.qr(ginibre(d, rng))
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            a = (np.eye(d) + u) @ g
            w = a @ a.conj().T
            w = w / np.trace(w).real
            expected = (w + w.conj().T) / 2
            got = sampling.sample_streams(m, BURES, 14, m, m + 1, 1)[0, 0]
            assert got.tobytes() == a.tobytes()
            assert qcore.density(got).tobytes() == expected.tobytes()

    def test_mean_pair_fidelity_single_qubit(self):
        """10^4 independent pairs reproduce the 0.590 reference value."""
        fids = qcore.fidelity(*sampling.sample_streams(1, BURES, 202, 0, 10000, 2))
        assert fids.mean() == pytest.approx(0.590, abs=0.01)


class TestEnsembles:
    def test_spec_validation(self):
        """The dataset builder checks the qubit count and the count, the sampler the measure."""
        for m, measure, count, reason in ((0, HS, 10, "m=0"), (5, HS, 10, "m=5"),
                                          (2, HS, 0, "count=0"), (2, "uniform", 10, "measure")):
            with pytest.raises(ValueError, match=reason):
                tomography.sample_dataset(m, measure, count, 1)

    def test_bit_identical_across_runs(self):
        a = sampling.sample_streams(2, sampling.MEASURE_BURES, 42, 0, 20, 1)[0]
        b = sampling.sample_streams(2, sampling.MEASURE_BURES, 42, 0, 20, 1)[0]
        np.testing.assert_array_equal(a, b)

    def test_states_independent_of_chunking(self):
        """State i depends only on (seed, i), not on how the range is split.

        The second range spans two full blocks of normals and part of a third,
        from a nonzero start, and is split off the block grid.
        """
        block = sampling.BLOCK
        for measure, (start, stop, split) in itertools.product(
                sampling.MEASURES, ((0, 10, 4), (5, 5 + 2 * block + 3, 5 + block + 37))):
            full = sampling.sample_streams(1, measure, 3, start, stop, 1)[0]
            lo = sampling.sample_streams(1, measure, 3, start, split, 1)[0]
            hi = sampling.sample_streams(1, measure, 3, split, stop, 1)[0]
            assert full.tobytes() == np.concatenate([lo, hi]).tobytes()

    @pytest.mark.parametrize("measure", sampling.MEASURES)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rows_equal_batch_of_one(self, m, measure):
        """Row i of the stacked sampler is sample_factor on stream(seed, i), and the stack's
        states are sample_state's, bit for bit."""
        factors = sampling.sample_streams(m, measure, 17, 0, 40, 1)[0]
        for i, (a, rho) in enumerate(zip(factors, qcore.density(factors))):
            assert a.tobytes() == sample_factor(m, measure, sampling.stream(17, i)).tobytes()
            assert rho.tobytes() == sample_state(m, measure, sampling.stream(17, i)).tobytes()

    @pytest.mark.parametrize("measure", sampling.MEASURES)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stacks_are_exactly_hermitian(self, m, measure):
        """The states of every sampled stack equal their conjugate transpose exactly:
        ``cholesky.rho_to_tau`` trusts its input to."""
        for states in qcore.density(sampling.sample_streams(m, measure, 19, 0, 300 // m, 2)):
            np.testing.assert_array_equal(states, states.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("measure", sampling.MEASURES)
    def test_pairs_are_consecutive_draws_of_one_stream(self, measure):
        for count in (20, sampling.BLOCK + 5):  # within one block of normals, then across
            pairs = sampling.sample_streams(2, measure, 8, 5, 5 + count, 2)
            assert pairs.shape == (2, count, 4, 4)
            assert pairs[0].flags.c_contiguous and pairs[1].flags.c_contiguous
            for j in range(count):
                rng = sampling.stream(8, 5 + j)
                for s in range(2):
                    assert pairs[s, j].tobytes() == sample_factor(2, measure, rng).tobytes()

    @pytest.mark.parametrize("measure", sampling.MEASURES)
    def test_rekeyed_rows_equal_fresh_streams_at_high_indices(self, measure):
        """m=4 pairs from streams 2**64 - 2 on, where the 64-bit index wraps to 0 and 1."""
        start = 2**64 - 2
        pairs = sampling.sample_streams(4, measure, 23, start, start + 4, 2)
        for j in range(4):
            rng = sampling.stream(23, start + j)
            for s in range(2):
                assert pairs[s, j].tobytes() == sample_factor(4, measure, rng).tobytes()


def zero_draws(monkeypatch, index=None):
    """Make the generators ``sampling.stream`` returns draw zeros.

    With ``index`` None every normal is zeroed. Otherwise only the first
    Ginibre draw (the first 2*d*d normals) that a fresh state of stream
    ``index`` yields is zeroed, for any seed. The zeroed normals are still
    taken from the generator, as a degenerate draw is.
    """
    original = sampling.stream

    class ZeroingGenerator:
        def __init__(self, rng):
            self.rng = rng
            self.bit_generator = rng.bit_generator

        def standard_normal(self, size=None, out=None):
            state = self.bit_generator.state
            fresh = (not state["state"]["counter"].any() and state["buffer_pos"] == 4
                     and state["state"]["key"][1] == index)
            x = self.rng.standard_normal(size=size, out=out)
            if index is None:
                x[...] = 0.0
            elif fresh:
                x.reshape(-1)[: 2 * x.shape[-1] ** 2] = 0.0
            return x

    monkeypatch.setattr(sampling, "stream",
                        lambda seed, index=0: ZeroingGenerator(original(seed, index)))


class TestZeroTrace:
    @pytest.mark.parametrize("per_stream", [1, 2])
    @pytest.mark.parametrize("measure", sampling.MEASURES)
    def test_draw_raises_naming_its_stream(self, monkeypatch, measure, per_stream):
        """Stream 2's zeroed draw comes back as the zero factor at index 2, the others
        untouched; ``qcore.density`` and ``qcore.fidelity`` reject its state."""
        zero_draws(monkeypatch, index=2)
        factors = sampling.sample_streams(2, measure, 31, 0, 5, per_stream)
        assert not factors[0, 2].any() and factors[0, [0, 1, 3, 4]].all(axis=(-2, -1)).all()
        with pytest.raises(ArithmeticError, match="zero norm"):
            qcore.density(factors)
        with pytest.raises(ArithmeticError, match="zero norm"):
            qcore.fidelity(factors[0], np.eye(4))
