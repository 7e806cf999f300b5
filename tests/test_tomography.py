"""Unit tests for Pauli-6 measurement simulation and the dataset container."""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from oracles import (joint_index, linear_inversion, maximally_mixed, measure_tensordot,
                     sample_factor, sample_state)
from qstkit import cholesky, cli, qcore, sampling, tomography

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestProjectors:
    def test_z_plus_is_computational_zero(self):
        projs = tomography.pauli6_projectors()
        np.testing.assert_allclose(projs[4], np.diag([1.0, 0.0]), atol=1e-15)

    def test_projector_identities(self):
        """Each projector is rank-1 Hermitian idempotent with unit trace."""
        for p in tomography.pauli6_projectors():
            np.testing.assert_allclose(p @ p, p, atol=1e-15)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-15)

    def test_eigenvector_signs(self):
        """Index 2j projects onto the +1 eigenvector of its Pauli, 2j+1 onto -1."""
        projs = tomography.pauli6_projectors()
        for axis, (plus, minus) in zip((X, Y, Z), ((0, 1), (2, 3), (4, 5))):
            np.testing.assert_allclose(axis @ projs[plus], projs[plus], atol=1e-15)
            np.testing.assert_allclose(axis @ projs[minus], -projs[minus], atol=1e-15)

    def test_completeness_per_axis(self):
        projs = tomography.pauli6_projectors()
        for j in range(3):
            np.testing.assert_allclose(projs[2 * j] + projs[2 * j + 1], np.eye(2), atol=1e-15)


class TestJointIndex:
    def test_place_values(self):
        assert joint_index((4, 4)) == 28
        assert joint_index((0,)) == 0
        assert joint_index((1, 0, 5)) == 41

    def test_bijection_exhaustive(self):
        for m in (1, 2, 3):
            seen = {
                joint_index(s) for s in itertools.product(range(6), repeat=m)
            }
            assert seen == set(range(6**m))

    def test_matches_base6_enumeration(self):
        """Settings in lexicographic order, qubit 0 first, get indices 0, 1, 2, ..."""
        for m in (1, 2, 3):
            for index, settings in enumerate(itertools.product(range(6), repeat=m)):
                assert joint_index(settings) == index

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            joint_index((6,))


class TestMeasure:
    def test_single_qubit_z_eigenstate(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            tomography.measure(rho), [0.5, 0.5, 0.5, 0.5, 1.0, 0.0], atol=1e-15
        )

    def test_maximally_mixed_is_uniform(self):
        """Every projective outcome of I/2**m is exactly (1/2)**m."""
        for m in (1, 2, 3):
            v = tomography.measure(maximally_mixed(m))
            np.testing.assert_allclose(v, np.full(6**m, 0.5**m), atol=1e-15)

    @pytest.mark.parametrize("measure", [HS, BURES])
    def test_equals_tensordot_contraction_bit_for_bit(self, measure):
        projectors = tomography.pauli6_projectors()
        for m in (1, 2, 3, 4):
            for rho in qcore.density(sampling.sample_streams(m, measure, 305, 0, 20, 1)[0]):
                got, want = tomography.measure(rho), measure_tensordot(rho, projectors)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_generated_dataset_equals_tensordot_contraction_bytes(self, tmp_path, monkeypatch):
        """A ``generate`` file is byte-identical with ``measure`` replaced by the oracle."""
        argv = ["generate", "--m", "3", "--count", "30", "--seed", "306", "--out"]
        assert cli.main(argv + [str(tmp_path / "new.qst")]) == 0
        projectors = tomography.pauli6_projectors()
        monkeypatch.setattr(tomography, "measure", lambda rho: measure_tensordot(rho, projectors))
        assert cli.main(argv + [str(tmp_path / "old.qst")]) == 0
        assert (tmp_path / "new.qst").read_bytes() == (tmp_path / "old.qst").read_bytes()

    def test_matches_kronecker_projector_oracle(self):
        """Contraction path equals explicit joint projectors and traces."""
        rho = sample_state(2, HS, sampling.stream(301))
        got = tomography.measure(rho)
        projs = tomography.pauli6_projectors()
        for s0 in range(6):
            for s1 in range(6):
                joint = np.kron(projs[s0], projs[s1])
                want = np.trace(rho @ joint).real
                assert abs(got[joint_index((s0, s1))] - want) <= 1e-13

    def test_per_axis_normalization(self):
        rho = sample_state(3, HS, sampling.stream(302))
        v = tomography.measure(rho)
        for axes in itertools.product(range(3), repeat=3):
            total = sum(
                v[joint_index([2 * a + o for a, o in zip(axes, outcomes)])]
                for outcomes in itertools.product(range(2), repeat=3)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_product_states_factorize(self):
        """Joint measurements of product states are products of marginals."""
        rng = sampling.stream(303)
        rho = sample_state(1, HS, rng)
        sigma = sample_state(1, HS, rng)
        joint = tomography.measure(np.kron(rho, sigma))
        np.testing.assert_allclose(
            joint, np.outer(tomography.measure(rho), tomography.measure(sigma)).ravel(),
            atol=1e-13,
        )

    def test_linearity(self):
        rng = sampling.stream(304)
        rho = sample_state(2, HS, rng)
        sigma = sample_state(2, HS, rng)
        lam = 0.3
        mixed = lam * rho + (1 - lam) * sigma
        np.testing.assert_allclose(
            tomography.measure(mixed),
            lam * tomography.measure(rho) + (1 - lam) * tomography.measure(sigma),
            atol=1e-12,
        )

    def test_inverted_by_linear_inversion_oracle(self):
        """The dual-frame inversion of the exact probabilities gives the state back."""
        rng = sampling.stream(305)
        for m in (1, 2, 3, 4):
            for _ in range(5):
                rho = sample_state(m, HS, rng)
                assert np.abs(linear_inversion(tomography.measure(rho)) - rho).max() <= 1e-12


class TestSampleDataset:
    def test_rejects_non_physical_member(self, monkeypatch):
        """Every block is checked, so one bad member among good ones in a later block is
        caught, named by the same message as a bad member of a one-block dataset."""
        density, calls = qcore.density, []

        def bad_second_block(factors):
            states = density(factors)
            calls.append(len(states))
            if len(calls) == 2:
                states[2] = np.diag([1.5, -0.5])
            return states

        monkeypatch.setattr(qcore, "density", bad_second_block)
        with pytest.raises(ValueError, match="sampled states: negative eigenvalue -5.000e-01"):
            tomography.sample_dataset(1, HS, sampling.BLOCK + 4, 9)
        assert calls == [sampling.BLOCK, 4]

    def test_checks_physicality_once_per_stack(self, monkeypatch):
        """The checked blocks, in order, are the states of the factors, each state once."""
        calls = []
        check = qcore.assert_physical
        monkeypatch.setattr(qcore, "assert_physical", lambda *a: calls.append(a) or check(*a))
        count = 2 * sampling.BLOCK + 3
        factors, ds = tomography.sample_dataset(2, HS, count, 3)
        assert [len(states) for states, _ in calls] == [sampling.BLOCK] * 2 + [3]
        checked = np.concatenate([states for states, _ in calls])
        assert checked.tobytes() == qcore.density(factors).tobytes()
        assert ds.measurements.shape == (count, 36)

    @pytest.mark.parametrize("m, measure, count, bound_mb",
                             [(3, HS, 2000, 10.2), (3, BURES, 2000, 9.4), (4, BURES, 600, 14.45)])
    def test_peak_memory(self, m, measure, count, bound_mb):
        """The tracemalloc peak stays under a bound between the streamed peak (7.71 MB at
        m=3, 14.24 MB at m=4) and those of whole-count temporaries: the dataset builder's
        (12.76 MB at m=3, 17.35 MB at m=4) or only the Bures sampler's (11.16 and 14.68 MB).
        The outputs alone are 6.53 and 9.91 MB. Measured with numpy 2.4.6."""
        tomography.sample_dataset(m, measure, 3, 1)  # builds the measurement plan
        tracemalloc.start()
        try:
            tomography.sample_dataset(m, measure, count, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6

    @pytest.mark.parametrize("measure", [HS, BURES])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_records_are_stacked_rows_then_taus(self, m, measure):
        """The block filled in place holds the bits of the measurement rows stacked, then
        one whole-stack ``rho_to_tau`` of the same states, for counts within, at and across
        the boundaries of ``sampling.BLOCK``; the factors there are their streams' own
        draws, bit for bit."""
        block = sampling.BLOCK
        for count in (6, block - 1, block, block + 1, 2 * block + 3):
            factors, ds = tomography.sample_dataset(m, measure, count, 2**40 + m)
            states = qcore.density(factors)
            expected = np.hstack([np.stack([tomography.measure(rho) for rho in states]),
                                  cholesky.rho_to_tau(states)])
            assert ds.records.shape == (count, 6**m + 4**m)
            assert ds.records.tobytes() == expected.tobytes()
            for i in {0, 5, block - 1, block, count - 1} & set(range(count)):
                want = sample_factor(m, measure, sampling.stream(2**40 + m, i))
                assert factors[i].tobytes() == want.tobytes()


class TestDatasetFormat:
    def _dataset(self, m=2, count=5, seed=7):
        ds = tomography.sample_dataset(m, sampling.MEASURE_HS, max(count, 1), seed)[1]
        return tomography.Dataset(m, ds.measure, seed, ds.records[:count])

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.qst"
        ds = self._dataset()
        tomography.write_dataset(path, ds)
        back = tomography.read_dataset(path)
        assert back.num_qubits == ds.num_qubits
        assert back.measure == ds.measure
        assert back.seed == ds.seed
        assert back.count == ds.count
        np.testing.assert_array_equal(back.measurements, ds.measurements)
        np.testing.assert_array_equal(back.taus, ds.taus)

    def test_read_copies_nothing(self, tmp_path):
        """A read dataset's records are a read-only view of the file's bytes, and its
        measurements and taus are views of those records."""
        path = tmp_path / "data.qst"
        tomography.write_dataset(path, self._dataset())
        ds = tomography.read_dataset(path)
        assert not ds.records.flags.writeable
        assert np.shares_memory(ds.measurements, ds.records)
        assert np.shares_memory(ds.taus, ds.records)
        with pytest.raises(ValueError, match="read-only"):
            ds.taus[0, 0] = 1.0

    def test_writes_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.qst", tmp_path / "b.qst"
        tomography.write_dataset(a, self._dataset())
        tomography.write_dataset(b, self._dataset())
        assert a.read_bytes() == b.read_bytes()

    def test_zero_records_not_written(self, tmp_path):
        """No records makes a file the reader rejects, so the writer refuses it up front."""
        path = tmp_path / "empty.qst"
        with pytest.raises(ValueError, match="no records"):
            tomography.write_dataset(path, self._dataset(count=0))
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qst"
        tomography.write_dataset(path, self._dataset())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(tomography.FormatError, match="magic"):
            tomography.read_dataset(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "short.qst"
        tomography.write_dataset(path, self._dataset())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(tomography.FormatError, match="expected"):
            tomography.read_dataset(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "vers.qst"
        tomography.write_dataset(path, self._dataset())
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(tomography.FormatError, match="version"):
            tomography.read_dataset(path)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("scale, shift, error", [
        (1.0, -2.0, r"outside \[0, 1\]"),  # one entry below zero
        (0.5, 0.0, "sum to 1"),  # a row at half weight
        (1.0, 1e-8, "sum to 1"),  # one outcome 1e-8 too likely
        (1.0, 1e-12, None),  # within the tolerance
    ])
    def test_rows_must_be_probabilities(self, tmp_path, m, scale, shift, error):
        path = tmp_path / "rows.qst"
        ds = self._dataset(m=m)
        ds.measurements[3] *= scale
        ds.measurements[3, -1] += shift
        tomography.write_dataset(path, ds)
        if error is None:
            tomography.read_dataset(path)
        else:
            with pytest.raises(tomography.FormatError, match=f"record 3 .*{error}"):
                tomography.read_dataset(path)

    def test_little_endian_layout(self, tmp_path):
        """Header <8sII16s16sQQ {magic, version, m, measure, setting order, count, seed},
        then per-state records of measurement doubles then tau doubles, LE."""
        path = tmp_path / "layout.qst"
        ds = self._dataset(m=1, count=2)
        tomography.write_dataset(path, ds)
        raw = path.read_bytes()
        assert raw[:64] == struct.pack("<8sII16s16sQQ", b"QST6DSET", 1, 1, b"hilbert-schmidt",
                                       b"X+X-Y+Y-Z+Z-", 2, 7)
        records = np.hstack([ds.measurements, ds.taus]).astype("<f8")
        assert raw[64:] == records.tobytes()
        first = np.frombuffer(raw, dtype="<f8", count=10, offset=64)
        np.testing.assert_array_equal(first[:6], ds.measurements[0])
        np.testing.assert_array_equal(first[6:], ds.taus[0])
