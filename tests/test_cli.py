"""End-to-end tests of the command-line interface."""

import csv
import struct

import numpy as np
import pytest

from qstkit import adapt, cli, neuralnet, sampling, tomography


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small trained checkpoint shared by reconstruct/experiment tests."""
    root = tmp_path_factory.mktemp("cli-trained")
    data = root / "train.qst"
    assert run("generate", "--out", data, "--m", 2, "--count", 260, "--seed", 21) == 0
    out_dir = root / "run"
    assert run(
        "train", "--dataset", data, "--out-dir", out_dir,
        "--val-count", 60, "--epochs", 4, "--seed", 9,
    ) == 0
    return root, out_dir / "checkpoint.qstck"


class TestGenerate:
    def test_writes_expected_record_count(self, tmp_path):
        out = tmp_path / "d.qst"
        assert run("generate", "--out", out, "--m", 2, "--count", 10, "--seed", 7) == 0
        ds = tomography.read_dataset(out)
        assert ds.count == 10
        assert ds.measurements.shape == (10, 36)
        assert ds.taus.shape == (10, 16)
        expected = 64 + 10 * (36 + 16) * 8
        assert out.stat().st_size == expected

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.qst", tmp_path / "b.qst"
        for out in (a, b):
            assert run("generate", "--out", out, "--m", 1, "--count", 8, "--seed", 3,
                       "--measure", "bures") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_roundtrip_and_config_written(self, tmp_path):
        out = tmp_path / "d.qst"
        assert run("generate", "--out", out, "--m", 3, "--count", 4, "--seed", 5) == 0
        ds = tomography.read_dataset(out)
        assert (ds.num_qubits, ds.measure, ds.seed, ds.count) == (3, "hilbert-schmidt", 5, 4)
        config = (tmp_path / "d.qst.config.ini").read_text()
        assert "seed = 5" in config and "m = 3" in config

    def test_worker_count_is_invisible_in_output(self, tmp_path):
        a, b = tmp_path / "a.qst", tmp_path / "b.qst"
        assert run("generate", "--out", a, "--m", 2, "--count", 30, "--seed", 4) == 0
        assert run("generate", "--out", b, "--m", 2, "--count", 30, "--seed", 4,
                   "--workers", 2) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nm = 2\ncount = 6\nseed = 13\n")
        out = tmp_path / "d.qst"
        assert run("generate", "--config", cfg, "--out", out, "--count", 9) == 0
        ds = tomography.read_dataset(out)
        assert ds.count == 9 and ds.seed == 13 and ds.num_qubits == 2


class TestTrain:
    def test_smoke_run_writes_artifacts(self, trained):
        root, checkpoint = trained
        assert checkpoint.exists()
        rows = read_csv(checkpoint.parent / "history.csv")
        assert rows[0] == ["epoch", "mean_loss", "val_mean_fidelity"]
        assert len(rows) == 1 + 4
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])
        config = (checkpoint.parent / "config.ini").read_text()
        assert "best_epoch" in config and "serial_mode = True" in config

    def test_separate_validation_dataset(self, tmp_path):
        tr, va = tmp_path / "tr.qst", tmp_path / "va.qst"
        assert run("generate", "--out", tr, "--m", 2, "--count", 120, "--seed", 1) == 0
        assert run("generate", "--out", va, "--m", 2, "--count", 30, "--seed", 2) == 0
        assert run("train", "--dataset", tr, "--val-dataset", va,
                   "--out-dir", tmp_path / "run", "--epochs", 2, "--seed", 3) == 0

    def test_deterministic_artifacts(self, tmp_path):
        data = tmp_path / "d.qst"
        assert run("generate", "--out", data, "--m", 2, "--count", 150, "--seed", 6) == 0
        for name in ("r1", "r2"):
            assert run("train", "--dataset", data, "--out-dir", tmp_path / name,
                       "--val-count", 30, "--epochs", 3, "--seed", 8) == 0
        assert (tmp_path / "r1" / "checkpoint.qstck").read_bytes() == \
               (tmp_path / "r2" / "checkpoint.qstck").read_bytes()
        assert (tmp_path / "r1" / "history.csv").read_bytes() == \
               (tmp_path / "r2" / "history.csv").read_bytes()

    def test_resumed_runs_are_deterministic(self, tmp_path, trained):
        root, checkpoint = trained
        data = root / "train.qst"
        for name in ("resume1", "resume2"):
            assert run("train", "--dataset", data, "--out-dir", tmp_path / name,
                       "--val-count", 60, "--epochs", 2, "--seed", 9,
                       "--init-checkpoint", checkpoint) == 0
        assert (tmp_path / "resume1" / "checkpoint.qstck").read_bytes() == \
               (tmp_path / "resume2" / "checkpoint.qstck").read_bytes()
        assert (tmp_path / "resume1" / "history.csv").read_bytes() == \
               (tmp_path / "resume2" / "history.csv").read_bytes()

    def test_mismatched_checkpoint_rejected(self, tmp_path, trained):
        _, checkpoint = trained
        data3 = tmp_path / "m3.qst"
        assert run("generate", "--out", data3, "--m", 3, "--count", 40, "--seed", 2) == 0
        code = run("train", "--dataset", data3, "--out-dir", tmp_path / "x",
                   "--val-count", 10, "--epochs", 1, "--init-checkpoint", checkpoint)
        assert code == cli.EXIT_DATA


class TestReconstruct:
    def test_same_size_matches_plain_inference(self, trained, tmp_path):
        root, checkpoint = trained
        data = root / "train.qst"
        out_dir = tmp_path / "rec"
        assert run("reconstruct", "--checkpoint", checkpoint, "--input", data,
                   "--out-dir", out_dir, "--mode", "engineered") == 0
        states = cli.read_states(out_dir / "states.qstst")
        ds = tomography.read_dataset(data)
        net, _ = neuralnet.network_from_checkpoint(checkpoint)
        np.testing.assert_array_equal(states, adapt.reconstruct(net, ds.measurements, "engineered"))
        rows = read_csv(out_dir / "fidelity.csv")
        assert rows[0] == ["state_id", "fidelity"]
        assert len(rows) == 1 + ds.count

    def test_padding_modes_differ(self, trained, tmp_path):
        root, checkpoint = trained
        small = tmp_path / "n1.qst"
        assert run("generate", "--out", small, "--m", 1, "--count", 5, "--seed", 31) == 0
        for mode in adapt.PADDING_MODES:
            assert run("reconstruct", "--checkpoint", checkpoint, "--input", small,
                       "--out-dir", tmp_path / mode, "--mode", mode) == 0
        a = cli.read_states(tmp_path / "engineered" / "states.qstst")
        b = cli.read_states(tmp_path / "zero" / "states.qstst")
        assert a[0].shape == (2, 2)
        assert np.abs(a[0] - b[0]).max() > 1e-12

    def test_reloaded_states_are_physical(self, trained, tmp_path):
        from qstkit import qcore
        root, checkpoint = trained
        small = tmp_path / "n1.qst"
        assert run("generate", "--out", small, "--m", 1, "--count", 4, "--seed", 33) == 0
        assert run("reconstruct", "--checkpoint", checkpoint, "--input", small,
                   "--out-dir", tmp_path / "rec") == 0
        for rho in cli.read_states(tmp_path / "rec" / "states.qstst"):
            assert qcore.is_physical(rho)

    def test_n_larger_than_m_rejected(self, trained, tmp_path):
        root, checkpoint = trained
        big = tmp_path / "n3.qst"
        assert run("generate", "--out", big, "--m", 3, "--count", 3, "--seed", 35) == 0
        assert run("reconstruct", "--checkpoint", checkpoint, "--input", big,
                   "--out-dir", tmp_path / "x") == cli.EXIT_USAGE


class TestExperiments:
    def test_fig2_schema(self, trained, tmp_path):
        _, checkpoint = trained
        out_dir = tmp_path / "fig2"
        assert run("experiment", "--name", "fig2", "--checkpoint", checkpoint,
                   "--out-dir", out_dir, "--test-count", 6, "--seed", 1) == 0
        rows = read_csv(out_dir / "summary.csv")
        assert rows[0] == ["experiment", "measure", "m", "n", "mode", "mean", "stderr", "count"]
        curves = {(r[2], r[3]) for r in rows[1:]}
        assert curves == {("2", "2"), ("2", "1")}

    def test_fig3_schema_includes_baselines(self, trained, tmp_path):
        _, checkpoint = trained
        out_dir = tmp_path / "fig3"
        assert run("experiment", "--name", "fig3", "--checkpoint", f"2={checkpoint}",
                   "--out-dir", out_dir, "--test-count", 5, "--pairs", 300, "--seed", 1) == 0
        rows = read_csv(out_dir / "summary.csv")
        modes = {(r[0], r[3], r[4]) for r in rows[1:]}
        for n in ("1", "2"):
            assert ("fig3", n, "engineered") in modes
            assert ("fig3", n, "zero") in modes
            assert ("baseline", n, "random-pair") in modes
            assert ("baseline", n, "max-mixed") in modes
        assert len(read_csv(out_dir / "records.csv")) == 1 + 2 * 5 * 2

    def test_baselines_command(self, tmp_path):
        out_dir = tmp_path / "base"
        assert run("baselines", "--out-dir", out_dir, "--pairs", 400,
                   "--dims", "2,4", "--seed", 2) == 0
        rows = read_csv(out_dir / "summary.csv")
        assert len(rows) == 1 + 4
        means = {(r[3], r[4]): float(r[5]) for r in rows[1:]}
        assert means[("1", "max-mixed")] > means[("1", "random-pair")]

    def test_experiment_deterministic(self, tmp_path):
        for name in ("b1", "b2"):
            assert run("baselines", "--out-dir", tmp_path / name, "--pairs", 300,
                       "--dims", "2", "--seed", 5) == 0
        assert (tmp_path / "b1" / "summary.csv").read_bytes() == \
               (tmp_path / "b2" / "summary.csv").read_bytes()

    def test_missing_checkpoint_is_usage_error(self, tmp_path):
        assert run("experiment", "--name", "fig2", "--out-dir", tmp_path / "x") == cli.EXIT_USAGE


CORRUPTIONS = ("garbage", "truncated", "zero-records", "nan-measurement", "inf-tau",
               "unknown-measure", "nan-checkpoint")


def corrupt(kind, data, checkpoint, tmp_path):
    """(dataset, checkpoint) paths, one of them carrying a defect of the given kind."""
    bad = tmp_path / "bad"
    if kind == "garbage":
        bad.write_bytes(b"not a dataset at all")
    elif kind == "truncated":
        bad.write_bytes(data.read_bytes()[:-8])
    elif kind == "nan-checkpoint":
        raw = checkpoint.read_bytes()
        bad.write_bytes(raw[:-8] + struct.pack("<d", np.nan))  # last accumulator entry
        return data, bad
    else:
        ds = tomography.read_dataset(data)
        if kind == "zero-records":
            ds.measurements, ds.taus = ds.measurements[:0], ds.taus[:0]
        elif kind == "nan-measurement":
            ds.measurements[0, 5] = np.nan
        elif kind == "inf-tau":
            ds.taus[3, 2] = np.inf
        else:
            ds.measure = "garbage"
        tomography.write_dataset(bad, ds)
    return bad, checkpoint


class TestExitCodes:
    def test_unknown_flag(self):
        assert run("generate", "--nope") == cli.EXIT_USAGE

    def test_unknown_command(self):
        assert run("destroy") == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["train", "reconstruct"])
    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_corrupt_dataset_is_data_error(self, trained, tmp_path, capsys, command, corruption):
        root, checkpoint = trained
        data, checkpoint = corrupt(corruption, root / "train.qst", checkpoint, tmp_path)
        if command == "train":
            argv = ["train", "--dataset", data, "--val-count", 10, "--epochs", 1,
                    "--init-checkpoint", checkpoint]
        else:
            argv = ["reconstruct", "--checkpoint", checkpoint, "--input", data]
        capsys.readouterr()
        assert run(*argv, "--out-dir", tmp_path / "x") == cli.EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    def test_all_zero_checkpoint_is_numerical_error(self, trained, tmp_path, capsys):
        """Zero weights give all-zero taus, which define no state."""
        root, _ = trained
        config = neuralnet.NetworkConfig(num_qubits=2)
        params = neuralnet.Network.build(config).parameters()
        checkpoint = tmp_path / "zero.qstck"
        neuralnet.save_checkpoint(checkpoint, config, params, [np.zeros_like(p) for p in params])
        capsys.readouterr()
        code = run("reconstruct", "--checkpoint", checkpoint, "--input", root / "train.qst",
                   "--out-dir", tmp_path / "x")
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "zero norm" in err and "Traceback" not in err

    def test_no_finite_validation_epoch_is_numerical_error(self, trained, tmp_path, capsys,
                                                           monkeypatch):
        root, _ = trained
        monkeypatch.setattr(neuralnet, "mean_reconstruction_fidelity", lambda *a: float("nan"))
        capsys.readouterr()
        code = run("train", "--dataset", root / "train.qst", "--out-dir", tmp_path / "x",
                   "--val-count", 60, "--epochs", 2)
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "no epoch produced a finite validation fidelity" in err
        assert "Traceback" not in err

    def test_bad_val_count_is_usage_error(self, tmp_path):
        data = tmp_path / "d.qst"
        assert run("generate", "--out", data, "--m", 2, "--count", 10, "--seed", 1) == 0
        assert run("train", "--dataset", data, "--out-dir", tmp_path / "x",
                   "--val-count", 10, "--epochs", 1) == cli.EXIT_USAGE

    def test_help_exits_zero(self):
        assert run("--help") == cli.EXIT_OK
