"""Unit tests for measurement padding and the experiment drivers."""

import csv
import itertools

import numpy as np
import pytest

from qstkit import adapt, cholesky, neuralnet, qcore, sampling, tomography


def tiny_net(m=2, seed=3):
    cfg = neuralnet.NetworkConfig(
        num_qubits=m, conv_filters=2, dense_widths=(8, 4), seed=seed
    )
    return neuralnet.Network.build(cfg, sampling.stream(seed, neuralnet.TRAIN_STREAM))


class TestEngineeredPad:
    def test_same_size_is_identity(self):
        v = tomography.measure(sampling.sample_hs(2, sampling.stream(701)))
        np.testing.assert_array_equal(adapt.engineered_pad(v, 2), v)

    def test_zero_state_blocks(self):
        """|0> padded 1 -> 2 qubits: every 6-block is the original halved."""
        v = tomography.measure(np.diag([1.0, 0.0]).astype(complex))
        out = adapt.engineered_pad(v, 2)
        assert out.shape == (36,)
        for block in range(6):
            np.testing.assert_allclose(out[6 * block : 6 * block + 6], v / 2, atol=1e-15)

    def test_matches_extension_measurement_oracle(self):
        """Padding equals measuring the state extended with I/2 factors."""
        rng = sampling.stream(702)
        for n, m in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
            for _ in range(5):
                rho = sampling.sample_hs(n, rng)
                extended = rho
                for _ in range(m - n):
                    extended = qcore.tensor_product(qcore.maximally_mixed(1), extended)
                got = adapt.engineered_pad(tomography.measure(rho), m)
                want = tomography.measure(extended)
                assert np.abs(got - want).max() <= 1e-13

    def test_preserves_per_axis_normalization(self):
        rho = sampling.sample_hs(1, sampling.stream(703))
        out = adapt.engineered_pad(tomography.measure(rho), 2)
        for axes in itertools.product(range(3), repeat=2):
            total = sum(
                out[tomography.joint_index([2 * a + o for a, o in zip(axes, outs)])]
                for outs in itertools.product(range(2), repeat=2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError, match="pad"):
            adapt.engineered_pad(np.zeros(36), 1)


class TestZeroPad:
    def test_same_size_is_identity(self):
        v = tomography.measure(sampling.sample_hs(2, sampling.stream(704)))
        np.testing.assert_array_equal(adapt.zero_pad(v, 2), v)

    def test_first_block_carries_values(self):
        v = tomography.measure(sampling.sample_hs(1, sampling.stream(705)))
        out = adapt.zero_pad(v, 2)
        np.testing.assert_array_equal(out[:6], v)
        assert np.all(out[6:] == 0.0)

    def test_mass_conservation(self):
        v = tomography.measure(sampling.sample_hs(1, sampling.stream(706)))
        assert adapt.zero_pad(v, 3).sum() == pytest.approx(v.sum(), abs=1e-12)

    def test_violates_per_axis_normalization(self):
        """Zero padding is not a physical measurement vector for n < m."""
        rho = sampling.sample_hs(1, sampling.stream(707))
        out = adapt.zero_pad(tomography.measure(rho), 2)
        sums = []
        for axes in itertools.product(range(3), repeat=2):
            sums.append(sum(
                out[tomography.joint_index([2 * a + o for a, o in zip(axes, outs)])]
                for outs in itertools.product(range(2), repeat=2)
            ))
        assert max(abs(s - 1.0) for s in sums) > 0.5


def plain_inference(net, values):
    """The unpadded network path written out: forward the rows, decode each tau."""
    taus = net.forward(neuralnet.grids_from_measurements(values), train=False)
    return cholesky.tau_to_rho(taus)


class TestReconstructAdaptive:
    def test_same_size_equals_plain_inference(self):
        net = tiny_net()
        v = tomography.measure(sampling.sample_hs(2, sampling.stream(708)))[None]
        for mode in adapt.PADDING_MODES:
            np.testing.assert_array_equal(adapt.reconstruct(net, v, mode), plain_inference(net, v))

    def test_output_dimension_and_physicality(self):
        net = tiny_net()
        rng = sampling.stream(709)
        for n in (1, 2):
            rhos = [sampling.sample_hs(n, rng) for _ in range(3)]
            values = np.stack([tomography.measure(rho) for rho in rhos])
            out = adapt.reconstruct(net, values, "engineered")
            assert out.shape == (3, 2**n, 2**n)
            assert all(qcore.is_physical(rho) for rho in out)

    def test_modes_differ_for_padded_input(self):
        net = tiny_net()
        v = tomography.measure(sampling.sample_hs(1, sampling.stream(710)))[None]
        a = adapt.reconstruct(net, v, "engineered")
        b = adapt.reconstruct(net, v, "zero")
        assert np.abs(a - b).max() > 1e-12

    def test_oversized_input_rejected(self):
        net = tiny_net()
        with pytest.raises(ValueError, match="trained on"):
            adapt.reconstruct(net, np.zeros((1, 216)), "engineered")
        with pytest.raises(ValueError, match="mode"):
            adapt.reconstruct(net, np.zeros((1, 36)), "reflect")

    def test_chunked_rows_match_one_row_calls(self):
        """250 rows at batch size 100 (last chunk partial) against 250 one-row calls."""
        net = tiny_net()
        assert net.config.batch_size == 100
        states = sampling.sample_ensemble(sampling.EnsembleSpec(2, "hilbert-schmidt", 250), 711)
        values = np.stack([tomography.measure(rho) for rho in states])
        batched = adapt.reconstruct(net, values, "engineered")
        rows = np.stack([adapt.reconstruct(net, v[None], "engineered")[0] for v in values])
        assert batched.shape == (250, 4, 4)
        assert np.abs(batched - rows).max() <= 1e-12
        np.testing.assert_array_equal(adapt.reconstruct(net, values, "engineered"), batched)


class TestExperiments:
    def test_subsystem_records_bookkeeping(self):
        """A single product test state yields one record with m fidelities."""
        net = tiny_net()
        rho = qcore.tensor_product(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])).astype(complex)
        records = adapt.subsystem_experiment(net, [rho], sampling.MEASURE_HS)
        assert len(records) == 1
        rec = records[0]
        assert rec.m == rec.n == 2
        assert len(rec.fidelities) == 2
        assert all(0.0 <= f <= 1.0 for f in rec.fidelities)

    def test_padding_experiment_covers_modes_and_sizes(self):
        nets = {2: tiny_net()}
        ensembles = {
            1: sampling.sample_ensemble(sampling.EnsembleSpec(1, "hilbert-schmidt", 3), 4),
            2: sampling.sample_ensemble(sampling.EnsembleSpec(2, "hilbert-schmidt", 3), 5),
        }
        records, baselines = adapt.padding_experiment(nets, ensembles, "hilbert-schmidt")
        assert len(records) == 12  # 2 sizes x 3 states x 2 modes
        assert baselines == []
        keys = {(r.m, r.n, r.mode) for r in records}
        assert keys == {(2, n, mode) for n in (1, 2) for mode in adapt.PADDING_MODES}
        order = [(r.n, r.state_id, r.mode) for r in records]
        assert order == [
            (n, i, mode) for n in (1, 2) for i in range(3) for mode in adapt.PADDING_MODES
        ]

    def test_summarize_levels(self):
        records = [
            adapt.ExperimentRecord("fig2", "hilbert-schmidt", 2, 2, "none", i, (0.8, 0.9))
            for i in range(4)
        ]
        summary = adapt.summarize(records)
        assert [(s.n, s.mean) for s in summary] == [(1, 0.9), (2, 0.8)]
        assert all(s.count == 4 for s in summary)
        assert all(s.stderr == 0.0 for s in summary)

    def test_csv_schemas(self, tmp_path):
        records = [
            adapt.ExperimentRecord("fig2", "hilbert-schmidt", 2, 2, "none", 0, (0.8, 0.9)),
            adapt.ExperimentRecord("fig3", "hilbert-schmidt", 2, 1, "zero", 0, (0.7,)),
        ]
        rec_path = tmp_path / "records.csv"
        adapt.write_records_csv(rec_path, records)
        with open(rec_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "experiment", "measure", "m", "n", "mode", "state_id",
            "fidelity_full", "fidelity_trace1",
        ]
        assert rows[2][6] == "0.700000000000" and rows[2][7] == ""

        sum_path = tmp_path / "summary.csv"
        adapt.write_summary_csv(sum_path, adapt.summarize(records))
        with open(sum_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "measure", "m", "n", "mode", "mean", "stderr", "count"]
        assert len(rows) == 4

    def test_baseline_curves_schema(self):
        rows = adapt.baseline_curves([1], "hilbert-schmidt", pairs=200, seed=7)
        assert [r.mode for r in rows] == ["random-pair", "max-mixed"]
        assert all(r.experiment == "baseline" and r.m == r.n == 1 for r in rows)
        assert all(0.0 < r.mean < 1.0 for r in rows)
