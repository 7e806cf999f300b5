"""Unit tests for measurement padding, the experiment drivers and the Monte Carlo baselines."""

import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import joint_index, linear_inversion, maximally_mixed, sample_state
from qstkit import adapt, cholesky, cli, neuralnet, qcore, sampling, tomography
from test_neuralnet import tiny_net

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES


class TestEngineeredPad:
    def test_same_size_is_identity(self):
        v = tomography.measure(sample_state(2, HS, sampling.stream(701)))
        np.testing.assert_array_equal(adapt.pad_measurements(v, 2, "engineered"), v)

    def test_zero_state_blocks(self):
        """|0> padded 1 -> 2 qubits: every 6-block is the original halved."""
        v = tomography.measure(np.diag([1.0, 0.0]).astype(complex))
        out = adapt.pad_measurements(v, 2, "engineered")
        assert out.shape == (36,)
        for block in range(6):
            np.testing.assert_allclose(out[6 * block : 6 * block + 6], v / 2, atol=1e-15)

    def test_matches_extension_measurement_oracle(self):
        """Padding equals measuring the state extended with I/2 factors."""
        rng = sampling.stream(702)
        for n, m in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
            for _ in range(5):
                rho = sample_state(n, HS, rng)
                extended = rho
                for _ in range(m - n):
                    extended = np.kron(maximally_mixed(1), extended)
                got = adapt.pad_measurements(tomography.measure(rho), m, "engineered")
                want = tomography.measure(extended)
                assert np.abs(got - want).max() <= 1e-13

    def test_inverts_to_maximally_mixed_extension(self):
        """Linear inversion of the padded vector gives I/2**(m-n) ⊗ rho."""
        rng = sampling.stream(712)
        for n, m in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
            for _ in range(5):
                rho = sample_state(n, HS, rng)
                padded = adapt.pad_measurements(tomography.measure(rho), m, "engineered")
                got = linear_inversion(padded)
                want = np.kron(maximally_mixed(m - n), rho)
                assert np.abs(got - want).max() <= 1e-12

    def test_preserves_per_axis_normalization(self):
        rho = sample_state(1, HS, sampling.stream(703))
        out = adapt.pad_measurements(tomography.measure(rho), 2, "engineered")
        for axes in itertools.product(range(3), repeat=2):
            total = sum(
                out[joint_index([2 * a + o for a, o in zip(axes, outs)])]
                for outs in itertools.product(range(2), repeat=2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestZeroPad:
    def test_same_size_is_identity(self):
        v = tomography.measure(sample_state(2, HS, sampling.stream(704)))
        np.testing.assert_array_equal(adapt.pad_measurements(v, 2, "zero"), v)

    def test_first_block_carries_values(self):
        v = tomography.measure(sample_state(1, HS, sampling.stream(705)))
        out = adapt.pad_measurements(v, 2, "zero")
        np.testing.assert_array_equal(out[:6], v)
        assert np.all(out[6:] == 0.0)

    def test_mass_conservation(self):
        v = tomography.measure(sample_state(1, HS, sampling.stream(706)))
        assert adapt.pad_measurements(v, 3, "zero").sum() == pytest.approx(v.sum(), abs=1e-12)

    def test_violates_per_axis_normalization(self):
        """Zero padding is not a physical measurement vector for n < m."""
        rho = sample_state(1, HS, sampling.stream(707))
        out = adapt.pad_measurements(tomography.measure(rho), 2, "zero")
        sums = []
        for axes in itertools.product(range(3), repeat=2):
            sums.append(sum(
                out[joint_index([2 * a + o for a, o in zip(axes, outs)])]
                for outs in itertools.product(range(2), repeat=2)
            ))
        assert max(abs(s - 1.0) for s in sums) > 0.5


def plain_inference(net, values):
    """The unpadded network path written out: predict the rows' taus, decode each one."""
    return cholesky.tau_to_matrix(net.predict(values))


class TestReconstructAdaptive:
    def test_same_size_equals_plain_inference(self):
        _, net = tiny_net()
        v = tomography.measure(sample_state(2, HS, sampling.stream(708)))[None]
        for mode in adapt.PADDING_MODES:
            np.testing.assert_array_equal(adapt.reconstruct(net, v, mode), plain_inference(net, v))

    def test_output_dimension_and_physicality(self):
        _, net = tiny_net()
        rng = sampling.stream(709)
        for n in (1, 2):
            rhos = [sample_state(n, HS, rng) for _ in range(3)]
            values = np.stack([tomography.measure(rho) for rho in rhos])
            out = adapt.reconstruct(net, values, "engineered")
            assert out.shape == (3, 2**n, 4 * 2 ** (2 - n))
            qcore.assert_physical(qcore.density(out))

    def test_modes_differ_for_padded_input(self):
        _, net = tiny_net()
        v = tomography.measure(sample_state(1, HS, sampling.stream(710)))[None]
        a = adapt.reconstruct(net, v, "engineered")
        b = adapt.reconstruct(net, v, "zero")
        assert np.abs(a - b).max() > 1e-12

    def test_oversized_input_rejected(self):
        _, net = tiny_net()
        with pytest.raises(ValueError, match="trained on"):
            adapt.reconstruct(net, np.zeros((1, 216)), "engineered")
        with pytest.raises(ValueError, match="mode"):
            adapt.reconstruct(net, np.zeros((1, 36)), "reflect")

    def test_chunked_rows_match_one_row_calls(self):
        """250 rows (last chunk partial) against one-row calls, a permutation and a 33-row
        slice, bit for bit, through a network of default widths."""
        cfg = neuralnet.NetworkConfig(num_qubits=2, seed=3)
        net = neuralnet.Network.build(cfg, sampling.stream(3, neuralnet.TRAIN_STREAM))
        states = sampling.sample_streams(2, "hilbert-schmidt", 711, 0, 250, 1)[0]
        values = np.stack([tomography.measure(rho) for rho in states])
        batched = adapt.reconstruct(net, values, "engineered")
        rows = np.stack([adapt.reconstruct(net, v[None], "engineered")[0] for v in values])
        assert batched.shape == (250, 4, 4)
        np.testing.assert_array_equal(rows, batched)
        order = sampling.stream(712).permutation(250)
        np.testing.assert_array_equal(adapt.reconstruct(net, values[order], "engineered"),
                                      batched[order])
        np.testing.assert_array_equal(adapt.reconstruct(net, values[7:40], "engineered"),
                                      batched[7:40])


def measured(factors):
    return factors, np.stack([tomography.measure(rho) for rho in qcore.density(factors)])


class TestExperiments:
    def test_subsystem_records_bookkeeping(self):
        """A single product test state, |0><0| ⊗ I/2 as its factor, yields one record row
        with m fidelities."""
        _, net = tiny_net()
        factor = np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex)
        records, summaries = adapt.subsystem_experiment(net, *measured(factor[None]), HS)
        assert len(records) == 1
        experiment, measure, m, n, mode, state_id, *fids = records[0]
        assert (experiment, measure, m, n, mode, state_id) == ("fig2", HS, 2, 2, "none", 0)
        assert len(fids) == 2
        assert all(0.0 <= f <= 1.0 for f in fids)
        assert [(s.n, s.mean, s.stderr, s.count) for s in summaries] == [
            (1, fids[1], 0.0, 1), (2, fids[0], 0.0, 1)]

    def test_padding_experiment_covers_modes_and_sizes(self):
        nets = {2: tiny_net()[1]}
        ensembles = {
            1: measured(sampling.sample_streams(1, HS, 4, 0, 3, 1)[0]),
            2: measured(sampling.sample_streams(2, HS, 5, 0, 3, 1)[0]),
        }
        records, summaries = adapt.padding_experiment(nets, ensembles, HS)
        assert len(records) == 12  # 2 sizes x 3 states x 2 modes
        keys = {(r[2], r[3], r[4]) for r in records}
        assert keys == {(2, n, mode) for n in (1, 2) for mode in adapt.PADDING_MODES}
        order = [(r[3], r[5], r[4]) for r in records]
        assert order == [
            (n, i, mode) for n in (1, 2) for i in range(3) for mode in adapt.PADDING_MODES
        ]
        assert [(s.m, s.n, s.mode, s.count) for s in summaries] == [
            (2, n, mode, 3) for n in (1, 2) for mode in adapt.PADDING_MODES]

    def test_padding_experiment_predicts_each_same_size_ensemble_once(self, monkeypatch):
        """At n = m both modes share one prediction, and so bit-equal fidelities."""
        calls = []
        predict = neuralnet.Network.predict

        def counted(net, rows):
            calls.append(len(rows))
            return predict(net, rows)

        monkeypatch.setattr(neuralnet.Network, "predict", counted)
        ensembles = {
            1: measured(sampling.sample_streams(1, HS, 4, 0, 3, 1)[0]),
            2: measured(sampling.sample_streams(2, HS, 5, 0, 3, 1)[0]),
        }
        records, summaries = adapt.padding_experiment({2: tiny_net()[1]}, ensembles, HS)
        assert calls == [3, 3, 3]  # n = 1 in each mode, then n = 2 once
        engineered, zero = (np.array([r[6] for r in records if (r[3], r[4]) == (2, mode)])
                            for mode in adapt.PADDING_MODES)
        np.testing.assert_array_equal(engineered.view(np.uint64), zero.view(np.uint64))
        engineered, zero = summaries[2:]
        assert (engineered.mean, engineered.stderr) == (zero.mean, zero.stderr)

    def test_subsystem_summary_levels(self):
        """One summary per subsystem size, smallest first, over every state."""
        _, net = tiny_net()
        states = sampling.sample_streams(2, HS, 6, 0, 4, 1)[0]
        records, summaries = adapt.subsystem_experiment(net, *measured(states), HS)
        assert [(s.experiment, s.m, s.n, s.mode, s.count) for s in summaries] == [
            ("fig2", 2, 1, "none", 4), ("fig2", 2, 2, "none", 4)]
        for s, column in zip(summaries, (7, 6)):
            assert s.mean == pytest.approx(np.mean([r[column] for r in records]), abs=1e-15)
            assert s.stderr > 0.0

    def test_csv_schemas(self, tmp_path):
        records = [
            ("fig2", HS, 2, 2, "none", 0, 0.8, 0.9),
            ("fig3", HS, 2, 1, "zero", 0, 0.7),
        ]
        rec_path = tmp_path / "records.csv"
        adapt.write_records_csv(rec_path, records)
        with open(rec_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "experiment", "measure", "m", "n", "mode", "state_id",
            "fidelity_full", "fidelity_trace1",
        ]
        assert rows[1][6:] == ["0.800000000000", "0.900000000000"]
        assert rows[2][6] == "0.700000000000" and rows[2][7] == ""

        sum_path = tmp_path / "summary.csv"
        adapt.write_summary_csv(sum_path, [adapt._curve("fig2", HS, 2, n, "none", np.array([f, f]))
                                           for n, f in ((1, 0.9), (2, 0.8))])
        with open(sum_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "measure", "m", "n", "mode", "mean", "stderr", "count"]
        assert rows[1] == ["fig2", HS, "2", "1", "none", "0.900000000000", "0.000000000000", "2"]
        assert len(rows) == 3

    def test_baseline_curves_schema(self):
        rows = adapt.baseline_curves(HS, 200, [1], 7)
        assert [r.mode for r in rows] == ["random-pair", "max-mixed"]
        assert all(r.experiment == "baseline" and r.m == r.n == 1 for r in rows)
        assert all(0.0 < r.mean < 1.0 for r in rows)
        fids = adapt.mc_fidelities(HS, 1, 200, sampling.sub_seed(7, f"baseline-pair-{HS}-2"))
        assert rows == [adapt._curve("baseline", HS, 1, 1, mode, row)
                        for mode, row in zip(("random-pair", "max-mixed"), fids)]


def curve(fids):
    return adapt._curve("baseline", HS, 1, 1, "random-pair", fids)


class TestMonteCarlo:
    def test_reproducible_with_fixed_seed(self):
        a = adapt.mc_fidelities(HS, 1, 500, 3)
        b = adapt.mc_fidelities(HS, 1, 500, 3)
        assert a.shape == (2, 500)
        assert a.tobytes() == b.tobytes()

    def test_standard_error_scales_as_inverse_sqrt_pairs(self):
        """stderr(1e3) / stderr(1e5) is close to sqrt(100) = 10."""
        err_small = curve(adapt.mc_fidelities(HS, 1, 1000, 5)[0]).stderr
        err_large = curve(adapt.mc_fidelities(HS, 1, 100000, 5)[0]).stderr
        assert err_small / err_large == pytest.approx(10.0, rel=0.15)

    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError, match="at least 100"):
            adapt.mc_fidelities(HS, 1, 10, 0)

    def test_vs_mixed_range_and_reproducibility(self):
        fids = adapt.mc_fidelities(BURES, 1, 500, 9)[1]
        assert np.all((fids > 0.0) & (fids <= 1.0)) and curve(fids).stderr > 0.0
        assert fids.tobytes() == adapt.mc_fidelities(BURES, 1, 500, 9)[1].tobytes()

    def test_mixed_baseline_exceeds_random_pair_baseline(self):
        """Guessing I/N always beats guessing another random state, on average."""
        for n in (1, 2, 3):
            pair = adapt.mc_fidelities(HS, n, 2000, 11)[0].mean()
            mixed = adapt.mc_fidelities(HS, n, 2000, 12)[1].mean()
            assert mixed > pair

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("measure,m", [("hilbert-schmidt", 3), ("bures", 2)])
    def test_chunking_does_not_change_fidelities(self, monkeypatch, measure, m, mixed):
        """Neither row, the pairs' (0) or the max-mixed one (1), depends on the chunk."""
        default = adapt.mc_fidelities(measure, m, 140, 21)[int(mixed)]
        monkeypatch.setattr(sampling, "BLOCK", 7)
        chunked = adapt.mc_fidelities(measure, m, 140, 21)[int(mixed)]
        assert chunked.tobytes() == default.tobytes()

    def test_mixed_rows_match_uhlmann_fidelity_across_a_chunk(self):
        """Rows against I/2**n equal the Uhlmann fidelity's closed form there,
        (sum of sqrt(eigenvalue))**2 / d, on both sides of a ``sampling.BLOCK`` boundary
        (Hilbert-Schmidt draws; see test_qcore for Bures)."""
        for n in (1, 2, 3):
            count = sampling.BLOCK + 100
            states = qcore.density(sampling.sample_streams(n, HS, 23, 0, count, 1)[0])
            spectra = np.clip(np.linalg.eigvalsh(states), 0.0, None)
            want = np.sqrt(spectra).sum(axis=-1) ** 2 / 2**n
            got = adapt.mc_fidelities(HS, n, count, 23)[1]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("measure", [HS, BURES])
    def test_mixed_row_is_the_one_state_draw_across_a_chunk(self, measure):
        """Row 1 compares each pair's first state, bit for bit the stream's one-state
        draw, with I/2**n: a mixed baseline and its pairs' row share one draw."""
        count = sampling.BLOCK + 100
        for n in (1, 2, 3):
            one = sampling.sample_streams(n, measure, 25, 0, count, 1)[0]
            want = qcore.fidelity(one, np.eye(2**n))
            assert adapt.mc_fidelities(measure, n, count, 25)[1].tobytes() == want.tobytes()

    def test_peak_memory(self):
        """The tracemalloc peak of 5000 m=3 pairs stays under a bound between that of
        ``sampling.BLOCK`` (256-pair) chunks (1.66 MB; 4.80 MB in chunks of 1024) and that of
        4096-pair chunks (16.93 MB). Measured with numpy 2.4.6."""
        adapt.mc_fidelities(HS, 3, 100, 1)
        tracemalloc.start()
        try:
            adapt.mc_fidelities(HS, 3, 5000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.0e6

    def test_dimension_validation(self, tmp_path, capsys):
        """A dimension that is not a power of two is a usage error."""
        capsys.readouterr()
        assert cli.main(["baselines", "--dims", "3", "--pairs", "200",
                         "--out-dir", str(tmp_path / "b")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "power of two" in err and "Traceback" not in err
