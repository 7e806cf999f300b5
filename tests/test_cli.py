"""End-to-end tests of the command-line interface."""

import argparse
import configparser
import csv
import importlib
import os
import struct
import subprocess
import sys
import tomllib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qstkit
from oracles import sample_state
from qstkit import adapt, cholesky, cli, neuralnet, qcore, sampling, tomography
from test_neuralnet import improving_epochs, traced_peak, zero_net
from test_sampling import zero_draws


def run(*argv):
    return cli.main([str(a) for a in argv])


def run_module(*argv, flags=(), cwd=None, env=None, module="qstkit"):
    """``python [flags] -m module argv`` in a child process in ``cwd``, with this package
    on its path and the variables of ``env`` set."""
    src = str(Path(qstkit.__file__).parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *flags, "-m", module, *map(str, argv)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)


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

    @pytest.mark.parametrize("measure", sampling.MEASURES)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_file_equals_per_state_rows(self, tmp_path, m, measure):
        """State i of a generated file is sample_state on a fresh stream(seed, i)."""
        count, seed = 5, 2**63 + 7
        out = tmp_path / "g.qst"
        assert run("generate", "--out", out, "--m", m, "--measure", measure,
                   "--count", count, "--seed", seed) == 0
        states = np.stack([sample_state(m, measure, sampling.stream(seed, i))
                           for i in range(count)])
        expected = tmp_path / "e.qst"
        tomography.write_dataset(expected, tomography.Dataset(m, measure, seed, np.hstack([
            np.stack([tomography.measure(rho) for rho in states]), cholesky.rho_to_tau(states)])))
        assert out.read_bytes() == expected.read_bytes()

    def test_header_roundtrip_and_config_written(self, tmp_path):
        out = tmp_path / "d.qst"
        assert run("generate", "--out", out, "--m", 3, "--count", 4, "--seed", 5) == 0
        ds = tomography.read_dataset(out)
        assert (ds.num_qubits, ds.measure, ds.seed, ds.count) == (3, "hilbert-schmidt", 5, 4)
        config = (tmp_path / "d.qst.config.ini").read_text()
        assert "seed = 5" in config and "m = 3" in config

    def test_config_with_removed_workers_key_still_runs(self, tmp_path):
        """A .config.ini written when generate still took --workers re-executes unchanged."""
        cfg = tmp_path / "old.qst.config.ini"
        cfg.write_text("[run]\ncommand = generate\nm = 2\nmeasure = bures\ncount = 30\n"
                       "seed = 4\nworkers = 2\nout = old.qst\nformat_version = 1\n\n")
        a, b = tmp_path / "a.qst", tmp_path / "b.qst"
        assert run("generate", "--out", a, "--m", 2, "--measure", "bures", "--count", 30,
                   "--seed", 4) == 0
        assert run("generate", "--config", cfg, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "workers" not in (tmp_path / "b.qst.config.ini").read_text()

    def test_workers_flag_is_a_usage_error(self, tmp_path):
        assert run("generate", "--out", tmp_path / "a.qst", "--workers", 2) == cli.EXIT_USAGE

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nm = 2\ncount = 6\nseed = 13\n")
        out = tmp_path / "d.qst"
        assert run("generate", "--config", cfg, "--out", out, "--count", 9) == 0
        ds = tomography.read_dataset(out)
        assert ds.count == 9 and ds.seed == 13 and ds.num_qubits == 2

    def test_percent_in_out_path_is_literal(self, tmp_path, capsys):
        """A ``%`` in a path goes into the dataset path and its config.ini verbatim."""
        out = tmp_path / "p%d" / "x.qst"
        capsys.readouterr()
        assert run("generate", "--out", out, "--count", 5) == 0
        assert "Traceback" not in capsys.readouterr().err
        config = configparser.ConfigParser(interpolation=None)
        config.read(tmp_path / "p%d" / "x.qst.config.ini")
        assert config["run"]["out"] == str(out)
        assert tomography.read_dataset(out).count == 5

    def test_percent_in_config_value_is_literal(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nm = 1\ncount = 4\nout = a%b.qst\n")
        out = tmp_path / "d.qst"
        capsys.readouterr()
        assert run("generate", "--config", cfg, "--out", out) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert tomography.read_dataset(out).count == 4


class TestTrain:
    def test_smoke_run_writes_artifacts(self, trained):
        root, checkpoint = trained
        assert checkpoint.exists()
        rows = read_csv(checkpoint.parent / "history.csv")
        assert rows[0] == ["epoch", "mean_loss", "val_mean_fidelity"]
        assert len(rows) == 1 + 4
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])
        config = (checkpoint.parent / "config.ini").read_text()
        assert "best_epoch" in config

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

    def test_resumed_run_peak(self, tmp_path):
        """A 3-epoch run at m=2 default widths resumed from a checkpoint, on a seed where two
        or more epochs improve, peaks under a bound between its peak (7.45 MB) and that of a
        run in which ``cmd_train`` or ``train`` still holds the init network, its loaded
        vectors and its gradient vector (11.09 MB), or which copies a fresh snapshot at each
        improving epoch (8.58 MB). Measured with numpy 2.4.6."""
        _, ds = tomography.sample_dataset(2, sampling.MEASURE_HS, 120, 5)
        tomography.write_dataset(tmp_path / "d.qst", ds)
        flags = ["train", "--dataset", tmp_path / "d.qst", "--val-count", 20, "--seed", 1]
        assert run(*flags, "--epochs", 1, "--out-dir", tmp_path / "init") == 0
        peak = traced_peak(lambda: run(
            *flags, "--epochs", 3, "--init-checkpoint", tmp_path / "init" / "checkpoint.qstck",
            "--out-dir", tmp_path / "resumed"))
        rows = read_csv(tmp_path / "resumed" / "history.csv")[1:]
        assert len(rows) == 3 and len(improving_epochs([float(r[2]) for r in rows])) >= 2
        assert peak < 8.4e6

    def test_deterministic_under_two_blas_threads(self, tmp_path):
        """Two m=3 runs under OPENBLAS_NUM_THREADS=2 write the same files, byte for byte.

        The contract names the BLAS thread count, since the dense layers' GEMMs
        sum in another order under another count; a fixed count repeats exactly.
        """
        assert run("generate", "--out", tmp_path / "d.qst", "--m", 3, "--count", 400,
                   "--seed", 4) == 0
        runs = [tmp_path / name for name in ("r1", "r2")]
        for root in runs:
            root.mkdir()
            proc = run_module("train", "--dataset", Path("..", "d.qst"), "--out-dir", "run",
                              "--val-count", 100, "--epochs", 2, "--seed", 5, cwd=root,
                              env={"OPENBLAS_NUM_THREADS": "2"})
            assert proc.returncode == 0, proc.stderr
        files = sorted(p.name for p in (runs[0] / "run").iterdir())
        assert files == sorted(p.name for p in (runs[1] / "run").iterdir())
        assert "checkpoint.qstck" in files
        for name in files:
            assert (runs[0] / "run" / name).read_bytes() == \
                   (runs[1] / "run" / name).read_bytes(), name

    def test_mismatched_checkpoint_rejected(self, tmp_path, trained):
        _, checkpoint = trained
        data3 = tmp_path / "m3.qst"
        assert run("generate", "--out", data3, "--m", 3, "--count", 40, "--seed", 2) == 0
        code = run("train", "--dataset", data3, "--out-dir", tmp_path / "x",
                   "--val-count", 10, "--epochs", 1, "--init-checkpoint", checkpoint)
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "x").exists()

    def test_checkpoint_of_another_architecture_rejected(self, tmp_path, trained, capsys):
        """Resuming a 3-filter run from a 25-filter checkpoint names both conv1 shapes."""
        root, checkpoint = trained
        capsys.readouterr()
        code = run("train", "--dataset", root / "train.qst", "--out-dir", tmp_path / "x",
                   "--filters", 3, "--val-count", 60, "--epochs", 1,
                   "--init-checkpoint", checkpoint)
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "(3, 1, 2, 2)" in err[0] and "(25, 1, 2, 2)" in err[0]
        assert not (tmp_path / "x").exists()


class TestReconstruct:
    def test_same_size_matches_plain_inference(self, trained, tmp_path):
        root, checkpoint = trained
        data = root / "train.qst"
        out_dir = tmp_path / "rec"
        assert run("reconstruct", "--checkpoint", checkpoint, "--input", data,
                   "--out-dir", out_dir, "--mode", "engineered") == 0
        states = tomography.read_states(out_dir / "states.qstst")
        ds = tomography.read_dataset(data)
        net = neuralnet.load_checkpoint(checkpoint)
        factors = adapt.reconstruct(net, ds.measurements, "engineered")
        np.testing.assert_array_equal(states, qcore.density(factors))
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
        a = tomography.read_states(tmp_path / "engineered" / "states.qstst")
        b = tomography.read_states(tmp_path / "zero" / "states.qstst")
        assert a[0].shape == (2, 2)
        assert np.abs(a[0] - b[0]).max() > 1e-12

    def test_reloaded_states_are_physical(self, trained, tmp_path):
        from qstkit import qcore
        root, checkpoint = trained
        small = tmp_path / "n1.qst"
        assert run("generate", "--out", small, "--m", 1, "--count", 4, "--seed", 33) == 0
        assert run("reconstruct", "--checkpoint", checkpoint, "--input", small,
                   "--out-dir", tmp_path / "rec") == 0
        qcore.assert_physical(tomography.read_states(tmp_path / "rec" / "states.qstst"))

    def test_one_state_file_matches_its_row_in_a_larger_file(self, trained, tmp_path):
        """A state reconstructed alone has the bits it has as row 0 of 120."""
        _, checkpoint = trained
        states = []
        for count in (1, 120):
            data, out_dir = tmp_path / f"{count}.qst", tmp_path / f"rec{count}"
            assert run("generate", "--out", data, "--m", 1, "--count", count, "--seed", 8) == 0
            assert run("reconstruct", "--checkpoint", checkpoint, "--input", data,
                       "--out-dir", out_dir) == 0
            states.append(tomography.read_states(out_dir / "states.qstst"))
        assert states[0][0].tobytes() == states[1][0].tobytes()

    def test_checkpoint_network_is_built_once(self, trained, tmp_path, monkeypatch):
        """``load_checkpoint`` constructs the network it returns, and nothing constructs
        another."""
        root, checkpoint = trained
        init, built = neuralnet.Network.__init__, []
        monkeypatch.setattr(neuralnet.Network, "__init__",
                            lambda net, config, params, accumulator: built.append(config) or
                            init(net, config, params, accumulator))
        assert run("reconstruct", "--checkpoint", checkpoint, "--input", root / "train.qst",
                   "--out-dir", tmp_path / "rec") == 0
        assert len(built) == 1

    def test_n_larger_than_m_rejected(self, trained, tmp_path, capsys):
        """One line from ``adapt.reconstruct``'s check, and no output directory."""
        root, checkpoint = trained
        big = tmp_path / "n3.qst"
        assert run("generate", "--out", big, "--m", 3, "--count", 3, "--seed", 35) == 0
        capsys.readouterr()
        assert run("reconstruct", "--checkpoint", checkpoint, "--input", big,
                   "--out-dir", tmp_path / "x") == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: input has 3 qubits but the network was trained on 2"]
        assert not (tmp_path / "x").exists()


def states_file(path, states=None):
    """A two-state one-qubit states container, or one of ``states``."""
    if states is None:
        states = np.stack([np.diag([0.75, 0.25]), np.array([[0.5, 0.5j], [-0.5j, 0.5]])])
    if len(states):
        tomography.write_states(path, states)
    else:  # no writer makes a zero-record file: the header alone, count 0
        path.write_bytes(struct.pack("<8sIIQ", b"QSTSTATE", 1, 1, 0))
    return states


class TestStatesFormat:
    def test_little_endian_layout(self, tmp_path):
        """Header <8sIIQ {magic, version, n, count}, then row-major complex128 matrices."""
        path = tmp_path / "s.qstst"
        states = states_file(path)
        raw = path.read_bytes()
        assert raw[:24] == struct.pack("<8sIIQ", b"QSTSTATE", 1, 1, 2)
        assert raw[24:] == states.astype("<c16").tobytes()
        np.testing.assert_array_equal(tomography.read_states(path), states)

    @pytest.mark.parametrize("kind, match", [
        ("truncated", "payload"), ("bad-magic", "magic"), ("zero-records", "no records"),
        ("nan", "non-finite"), ("n-40", "implausible"),
    ])
    def test_corrupt_states_rejected(self, tmp_path, kind, match):
        path = tmp_path / "s.qstst"
        states = states_file(path)
        raw = bytearray(path.read_bytes())
        if kind == "truncated":
            del raw[-8:]
        elif kind == "bad-magic":
            raw[:4] = b"NOPE"
        elif kind == "n-40":
            struct.pack_into("<I", raw, 12, 40)
        if kind == "zero-records":
            states_file(path, states[:0])
        elif kind == "nan":
            states[1, 0, 1] = np.nan
            states_file(path, states)
        else:
            path.write_bytes(bytes(raw))
        with pytest.raises(tomography.FormatError, match=match):
            tomography.read_states(path)

    def test_zero_records_not_written(self, tmp_path):
        path = tmp_path / "s.qstst"
        with pytest.raises(ValueError, match="no records"):
            tomography.write_states(path, np.zeros((0, 2, 2)))
        assert not path.exists()

    def test_misshapen_dataset_not_written(self, tmp_path):
        """The writer rejects records its own reader would reject, before opening a file."""
        path = tmp_path / "d.qst"
        dataset = tomography.Dataset(2, sampling.MEASURE_HS, 7, np.full((3, 6 + 16), 0.5))
        with pytest.raises(ValueError, match=r"shape \(3, 22\), not \(count, 52\)"):
            tomography.write_dataset(path, dataset)
        assert not path.exists()

    def test_single_matrix_not_written(self, tmp_path):
        path = tmp_path / "s.qstst"
        with pytest.raises(ValueError, match=r"\(count, d, d\) stack"):
            tomography.write_states(path, np.eye(2))
        assert not path.exists()

    def test_non_square_stack_not_written(self, tmp_path):
        """The writer refuses a stack its own reader would reject, before opening a file."""
        path = tmp_path / "s.qstst"
        with pytest.raises(ValueError, match=r"\(count, d, d\) stack"):
            tomography.write_states(path, np.zeros((3, 2, 4), dtype=complex))
        assert not path.exists()


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
        """With ``--pairs 0`` fig3 writes its own rows and no baseline rows."""
        _, checkpoint = trained
        for pairs in (300, 0):
            out_dir = tmp_path / f"fig3-{pairs}"
            assert run("experiment", "--name", "fig3", "--checkpoint", f"2={checkpoint}",
                       "--out-dir", out_dir, "--test-count", 5, "--pairs", pairs,
                       "--seed", 1) == 0
            rows = read_csv(out_dir / "summary.csv")
            modes = {(r[0], r[3], r[4]) for r in rows[1:]}
            fig3 = {("fig3", n, mode) for n in ("1", "2") for mode in ("engineered", "zero")}
            baselines = {("baseline", n, mode)
                         for n in ("1", "2") for mode in ("random-pair", "max-mixed")}
            assert modes == (fig3 | baselines if pairs else fig3)
            assert len(rows) == 1 + len(modes)
            if pairs:  # the baseline rows of n = 1, 2, seeded from --seed's fig3-baseline seed
                adapt.write_summary_csv(tmp_path / "want.csv", adapt.baseline_curves(
                    sampling.MEASURE_HS, pairs, [1, 2], sampling.sub_seed(1, "fig3-baseline")))
                assert rows[-4:] == read_csv(tmp_path / "want.csv")[1:]
            assert len(read_csv(out_dir / "records.csv")) == 1 + 2 * 5 * 2

    @pytest.mark.parametrize("pairs", [50, -5])
    def test_fig3_checks_pairs_before_reconstructing(self, trained, tmp_path, monkeypatch,
                                                     pairs):
        """A --pairs the Monte Carlo estimates reject fails before any reconstruction."""
        _, checkpoint = trained

        def padding_experiment(*_):
            raise AssertionError("reconstructed before the baselines were estimated")

        monkeypatch.setattr(adapt, "padding_experiment", padding_experiment)
        out_dir = tmp_path / "fig3"
        assert run("experiment", "--name", "fig3", "--checkpoint", checkpoint,
                   "--pairs", pairs, "--out-dir", out_dir) == cli.EXIT_USAGE
        assert not (out_dir / "records.csv").exists()

    def test_summary_rows_agree_with_records(self, trained, tmp_path):
        """Every summary row is the mean, stderr and count of its records column."""
        _, checkpoint = trained
        data = tmp_path / "m3.qst"
        assert run("generate", "--out", data, "--m", 3, "--count", 30, "--seed", 8) == 0
        assert run("train", "--dataset", data, "--filters", 2, "--dense-widths", "8,4",
                   "--val-count", 10, "--epochs", 1, "--out-dir", tmp_path / "m3") == 0
        m3 = tmp_path / "m3" / "checkpoint.qstck"
        for name, extra in (("fig2", []), ("fig3", ["--pairs", 0])):
            out_dir = tmp_path / name
            assert run("experiment", "--name", name, "--checkpoint", checkpoint,
                       "--checkpoint", m3, "--test-count", 7, *extra,
                       "--out-dir", out_dir) == 0
            header, *records = read_csv(out_dir / "records.csv")
            summaries = read_csv(out_dir / "summary.csv")[1:]
            assert sum(int(s[7]) for s in summaries) == sum(
                r[6 + level] != "" for r in records for level in range(len(header) - 6))
            for experiment, _, m, n, mode, mean, stderr, count in summaries:
                level = int(m) - int(n) if name == "fig2" else 0
                fids = np.array([float(r[6 + level]) for r in records
                                 if (r[2], r[4]) == (m, mode) and (name == "fig2" or r[3] == n)])
                assert experiment == name and int(count) == len(fids) == 7
                assert abs(float(mean) - fids.mean()) <= 1e-11
                assert abs(float(stderr) - fids.std(ddof=1) / np.sqrt(len(fids))) <= 1e-11

    def test_baselines_command(self, tmp_path):
        """Both rows of a dimension come from one draw of pairs, seeded by its label."""
        out_dir = tmp_path / "base"
        assert run("baselines", "--out-dir", out_dir, "--pairs", 400,
                   "--dims", "2,4", "--seed", 2) == 0
        rows = read_csv(out_dir / "summary.csv")
        assert len(rows) == 1 + 4
        means = {(r[3], r[4]): float(r[5]) for r in rows[1:]}
        assert means[("1", "max-mixed")] > means[("1", "random-pair")]
        hs = sampling.MEASURE_HS
        want = [adapt._curve("baseline", hs, n, n, mode, fids) for n in (1, 2)
                for mode, fids in zip(("random-pair", "max-mixed"), adapt.mc_fidelities(
                    hs, n, 400, sampling.sub_seed(2, f"baseline-pair-{hs}-{2**n}")))]
        adapt.write_summary_csv(tmp_path / "want.csv", want)
        assert (out_dir / "summary.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_experiment_deterministic(self, tmp_path):
        for name in ("b1", "b2"):
            assert run("baselines", "--out-dir", tmp_path / name, "--pairs", 300,
                       "--dims", "2", "--seed", 5) == 0
        assert (tmp_path / "b1" / "summary.csv").read_bytes() == \
               (tmp_path / "b2" / "summary.csv").read_bytes()

    def test_missing_checkpoint_is_usage_error(self, tmp_path):
        assert run("experiment", "--name", "fig2", "--out-dir", tmp_path / "x") == cli.EXIT_USAGE

    def test_checkpoint_path_with_equals_sign(self, trained, tmp_path, monkeypatch):
        """Only a decimal number before the first ``=`` is read as an ``m=`` prefix."""
        _, checkpoint = trained
        monkeypatch.chdir(tmp_path)
        path = Path("runs", "lr=0.01", "checkpoint.qstck")
        path.parent.mkdir(parents=True)
        path.write_bytes(checkpoint.read_bytes())
        for out_dir, entry in (("plain", path), ("prefixed", f"2={path}")):
            assert run("experiment", "--name", "fig2", "--checkpoint", entry,
                       "--out-dir", out_dir, "--test-count", 4, "--seed", 1) == 0
        assert run("experiment", "--name", "fig2", "--checkpoint", f"3={path}",
                   "--out-dir", "wrong-m", "--test-count", 4) == cli.EXIT_USAGE


# Checkpoint headers declaring a config no network can be built from: the
# offset and format of the one config field each changes, and its new value.
# m = 12 asks for a dense layer far larger than memory.
BAD_CHECKPOINT_HEADERS = {
    "checkpoint-dropout-1.5": (36, "<d", 1.5),
    "checkpoint-m-1": (12, "<I", 1),
    "checkpoint-kernel-9": (20, "<I", 9),
    "checkpoint-pool-3": (24, "<I", 3),
    "checkpoint-m-12": (12, "<I", 12),
    "checkpoint-learning-rate-nan": (44, "<d", np.nan),
}
CORRUPTIONS = ("garbage", "truncated", "zero-records", "nan-measurement", "inf-tau",
               "zero-tau", "tiny-tau", "huge-tau", "unknown-measure", "measurement-7",
               "scaled-row", "nan-checkpoint", *BAD_CHECKPOINT_HEADERS)


def corrupt(kind, data, checkpoint, tmp_path):
    """(dataset, checkpoint) paths, one of them carrying a defect of the given kind."""
    bad = tmp_path / "bad"
    if kind in BAD_CHECKPOINT_HEADERS:
        raw = bytearray(checkpoint.read_bytes())
        offset, fmt, value = BAD_CHECKPOINT_HEADERS[kind]
        struct.pack_into(fmt, raw, offset, value)
        bad.write_bytes(bytes(raw))
        return data, bad
    if kind == "garbage":
        bad.write_bytes(b"not a dataset at all")
    elif kind == "truncated":
        bad.write_bytes(data.read_bytes()[:-8])
    elif kind == "nan-checkpoint":
        raw = checkpoint.read_bytes()
        bad.write_bytes(raw[:-8] + struct.pack("<d", np.nan))  # last accumulator entry
        return data, bad
    elif kind == "zero-records":  # no writer makes one: the header with count 0, no payload
        raw = bytearray(data.read_bytes()[:64])
        struct.pack_into("<Q", raw, 48, 0)  # count, after magic, version, m and both tags
        bad.write_bytes(bytes(raw))
    else:
        ds = tomography.read_dataset(data)
        ds.records = ds.records.copy()  # a read dataset is a read-only view of its file
        if kind == "nan-measurement":
            ds.measurements[0, 5] = np.nan
        elif kind == "inf-tau":
            ds.taus[3, 2] = np.inf
        elif kind == "zero-tau":  # a target that defines no state
            ds.taus[7] = 0.0
        elif kind == "tiny-tau":  # squared norm 1e-320, in the validation split
            ds.taus[-1] = 0.0
            ds.taus[-1, 0] = 1e-160
        elif kind == "huge-tau":  # squared norm overflows, in the validation split
            ds.taus[-1] *= 1e200
        elif kind == "measurement-7":  # no probability
            ds.measurements[2, 9] = 7.0
        elif kind == "scaled-row":  # each basis sums to 3
            ds.measurements[4] *= 3.0
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
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert not (tmp_path / "x").exists()

    def test_seeded_mutations_get_a_data_exit_code(self, tmp_path, capsys):
        """100 seeded mutations of a tiny m=2 dataset or checkpoint, each reconstructed.

        A mutation flips a bit anywhere or in the first 120 bytes, truncates the
        file, or appends zeros. Every run exits 0, 2 or 3 with at most one stderr
        line and no traceback, and exits 2 exactly when a reader rejects the
        mutated file as malformed.
        """
        data, run_dir = tmp_path / "d.qst", tmp_path / "run"
        assert run("generate", "--out", data, "--m", 2, "--count", 30, "--seed", 4) == 0
        assert run("train", "--dataset", data, "--filters", 2, "--dense-widths", "8,8",
                   "--val-count", 10, "--epochs", 1, "--out-dir", run_dir) == 0
        originals = {"d.qst": data.read_bytes(),
                     "c.qstck": (run_dir / "checkpoint.qstck").read_bytes()}
        rng = np.random.default_rng(0)
        codes = []
        for i in range(100):
            target = rng.choice(list(originals))
            raw = bytearray(originals[target])
            kind = rng.integers(4)
            if kind < 2:  # a bit flip anywhere, or in the first 120 bytes
                bit = rng.integers(8 * (len(raw) if kind == 0 else 120))
                raw[bit // 8] ^= 1 << (bit % 8)
            elif kind == 2:
                raw = raw[: rng.integers(len(raw))]
            else:
                raw += bytes(int(rng.integers(1, 64)))
            case = tmp_path / f"m{i}"
            case.mkdir()
            for name, original in originals.items():
                (case / name).write_bytes(raw if name == target else original)
            capsys.readouterr()
            code = run("reconstruct", "--checkpoint", case / "c.qstck",
                       "--input", case / "d.qst", "--out-dir", case / "out")
            err = capsys.readouterr().err
            assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERICAL), (i, err)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err, i
            malformed = False
            for read, name in ((tomography.read_dataset, "d.qst"),
                               (neuralnet.load_checkpoint, "c.qstck")):
                try:
                    read(case / name)
                except tomography.FormatError:
                    malformed = True
            assert (code == cli.EXIT_DATA) == malformed, (i, code, err)
            codes.append(code)
        assert {cli.EXIT_OK, cli.EXIT_DATA} <= set(codes)  # both outcomes are exercised

    def test_all_zero_checkpoint_is_numerical_error(self, trained, tmp_path, capsys):
        """Zero weights give all-zero taus, which define no state."""
        root, _ = trained
        net = zero_net(neuralnet.NetworkConfig(num_qubits=2))
        checkpoint = tmp_path / "zero.qstck"
        neuralnet.save_checkpoint(checkpoint, net)
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

    @pytest.mark.parametrize("command", ["train", "reconstruct"])
    def test_non_finite_network_output_is_numerical_error(self, trained, tmp_path, capsys,
                                                          monkeypatch, command):
        """Inference that returns NaN taus defines no state: exit 3, not a usage error."""
        root, checkpoint = trained
        forward = neuralnet.Network.forward

        def nan_inference(self, grids, train=False, rng=None):
            out = forward(self, grids, train=train, rng=rng)
            return out if train else np.full_like(out, np.nan)

        monkeypatch.setattr(neuralnet.Network, "forward", nan_inference)
        argv = {"train": ["train", "--dataset", root / "train.qst", "--val-count", 60,
                          "--epochs", 1],
                "reconstruct": ["reconstruct", "--checkpoint", checkpoint,
                                "--input", root / "train.qst"]}[command]
        capsys.readouterr()
        assert run(*argv, "--out-dir", tmp_path / "x") == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err

    def test_zero_trace_draws_are_numerical_error(self, tmp_path, capsys, monkeypatch):
        """``generate`` meets the zero factors in ``qcore.density``."""
        zero_draws(monkeypatch)
        capsys.readouterr()
        assert run("generate", "--out", tmp_path / "z.qst", "--count", 3) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "zero norm" in err and "Traceback" not in err

    def test_zero_trace_pairs_are_numerical_error(self, tmp_path, capsys, monkeypatch):
        """``baselines`` meets the zero factors in ``qcore.fidelity``."""
        zero_draws(monkeypatch)
        capsys.readouterr()
        assert run("baselines", "--pairs", 100, "--dims", 2,
                   "--out-dir", tmp_path / "b") == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "zero norm" in err and "Traceback" not in err

    def test_failed_commands_leave_no_output_directory(self, trained, tmp_path, monkeypatch):
        root, _ = trained
        data = root / "train.qst"
        monkeypatch.chdir(tmp_path)
        for argv, code in (
            (["baselines", "--dims", 1048576, "--pairs", 100, "--out-dir", "b"], cli.EXIT_USAGE),
            (["generate", "--m", 5, "--count", 3, "--out", "g/x.qst"], cli.EXIT_USAGE),
            (["train", "--dataset", data, "--val-count", 60, "--epochs", 1,
              "--learning-rate", 1e300, "--out-dir", "t"], cli.EXIT_NUMERICAL),
            (["experiment", "--name", "fig3", "--checkpoint", "missing.qstck",
              "--out-dir", "e"], cli.EXIT_USAGE),
        ):
            assert run(*argv) == code, argv
        assert list(tmp_path.iterdir()) == []

    # Each request is over 1 PiB, so it fails at allocation without touching memory.
    @pytest.mark.parametrize("argv", [
        ["baselines", "--dims", 1048576, "--pairs", 100, "--out-dir", "x"],
        ["generate", "--m", 4, "--count", 10**12, "--out", "x.qst"],
    ])
    def test_oversized_request_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate ")
        assert " PiB " in err[0]
        assert not (tmp_path / "x.qst").exists()

    def test_floating_point_error_is_one_numerical_line(self, tmp_path):
        """An overflowing run exits 3 with one line; no numpy warning reaches stderr."""
        data = tmp_path / "d.qst"
        assert run("generate", "--out", data, "--m", 2, "--count", 300, "--seed", 1) == 0
        proc = run_module("train", "--dataset", data, "--out-dir", tmp_path / "x",
                          "--val-count", 50, "--epochs", 2, "--learning-rate", 1e300)
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert proc.stderr.splitlines() == ["numerical failure: overflow encountered in dot"]

    # A seed outside 0..2**64-1, the range of a file header's seed field and of the master
    # seed of sampling.sub_seed, or a batch size beyond the checkpoint's uint32 field.
    @pytest.mark.parametrize("command, setting", [
        ("generate", ("--seed", -1)), ("generate", ("--seed", 2**64)),
        ("train", ("--seed", -1)), ("train", ("--seed", 2**64)),
        ("train", ("--batch-size", 2**32)),
        ("fig2", ("--seed", -1)), ("fig2", ("--seed", 2**64)),
        ("fig3", ("--seed", -1)), ("fig3", ("--seed", 2**64)),
        ("baselines", ("--seed", -1)), ("baselines", ("--seed", 2**64)),
    ], ids=["generate-seed-negative", "generate-seed-2**64", "train-seed-negative",
            "train-seed-2**64", "train-batch-size-2**32", "fig2-seed-negative",
            "fig2-seed-2**64", "fig3-seed-negative", "fig3-seed-2**64",
            "baselines-seed-negative", "baselines-seed-2**64"])
    def test_setting_the_header_cannot_hold_is_usage_error(self, trained, tmp_path, capsys,
                                                            monkeypatch, command, setting):
        """Rejected before any work: one error line, no traceback, no directory left."""
        root, checkpoint = trained
        monkeypatch.chdir(tmp_path)
        experiment = ["experiment", "--checkpoint", checkpoint, "--test-count", 5,
                      "--out-dir", "run", "--name"]
        argv = {"generate": ["generate", "--count", 3, "--out", "sub/x.qst"],
                "train": ["train", "--dataset", root / "train.qst", "--val-count", 60,
                          "--epochs", 1, "--out-dir", "run"],
                "fig2": experiment + ["fig2"],
                "fig3": experiment + ["fig3", "--pairs", 100],
                "baselines": ["baselines", "--pairs", 100, "--out-dir", "run"]}[command]
        capsys.readouterr()
        assert run(*argv, *setting) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(setting[1]) in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_bad_val_count_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.qst"
        assert run("generate", "--out", data, "--m", 2, "--count", 10, "--seed", 1) == 0
        capsys.readouterr()
        assert run("train", "--dataset", data, "--out-dir", tmp_path / "x",
                   "--val-count", 10, "--epochs", 1) == cli.EXIT_USAGE
        assert "--val-count 10 is outside 1..9" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run("--help") == cli.EXIT_OK

    def test_python_m_qstkit(self):
        """``python -m qstkit`` runs the command line, with no warning from runpy."""
        proc = run_module("--help", flags=("-W", "error"))
        assert proc.returncode == 0, proc.stderr
        assert "usage: qstkit" in proc.stdout

    def test_python_m_qstkit_cli_is_refused(self, tmp_path):
        """``python -m qstkit.cli`` runs no command: it exits 1 with one line naming the
        entry point (after runpy's own warning about the module it imports twice)."""
        proc = run_module("generate", "--out", "z.qst", cwd=tmp_path, module="qstkit.cli")
        assert proc.returncode == cli.EXIT_USAGE
        lines = [line for line in proc.stderr.splitlines() if "RuntimeWarning" not in line]
        assert lines == ["error: qstkit.cli is not an entry point; run python -m qstkit"]
        assert not (tmp_path / "z.qst").exists() and proc.stdout == ""

    def test_console_script_is_main(self, monkeypatch, capsys):
        """The installed ``qstkit`` script calls ``cli.main()`` and exits with its value."""
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        module, _, name = pyproject["project"]["scripts"]["qstkit"].partition(":")
        target = getattr(importlib.import_module(module), name)
        assert target is cli.main
        monkeypatch.setattr(sys, "argv", ["qstkit", "--help"])
        assert target() == cli.EXIT_OK
        assert "usage: qstkit" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["linalg-error", "missing-dataset", "missing-checkpoint",
                                      "out-under-a-file", "config-without-section",
                                      "repeated-dims", "learning-rate-nan",
                                      "learning-rate-inf", "missing-config",
                                      "checkpoint-m-repeated", "no-filters",
                                      "one-dense-width", "no-val-count",
                                      "negative-val-count",
                                      "val-dataset-of-another-m"])
    def test_failures_get_their_exit_code(self, trained, tmp_path, capsys, monkeypatch, case):
        """One message line naming the failure, no traceback and no output directory."""
        root, checkpoint = trained
        data, regular, val = root / "train.qst", tmp_path / "regular", tmp_path / "val1.qst"
        regular.write_text("m = 2\n")
        train = ["train", "--dataset", data, "--epochs", 1, "--out-dir", tmp_path / "x"]
        argv, code, named = {
            "linalg-error": (["reconstruct", "--checkpoint", checkpoint, "--input", data,
                              "--out-dir", tmp_path / "x"], cli.EXIT_NUMERICAL, "svd failed"),
            "missing-dataset": (["train", "--dataset", tmp_path / "missing.qst",
                                 "--out-dir", tmp_path / "x"], cli.EXIT_USAGE, "missing.qst"),
            "missing-checkpoint": (["reconstruct", "--checkpoint", tmp_path / "missing.qstck",
                                    "--input", data, "--out-dir", tmp_path / "x"],
                                   cli.EXIT_USAGE, "missing.qstck"),
            "out-under-a-file": (["generate", "--out", regular / "x.qst"], cli.EXIT_USAGE,
                                 "regular"),
            "config-without-section": (["generate", "--config", regular, "--out",
                                        tmp_path / "d.qst"], cli.EXIT_USAGE, "section"),
            "repeated-dims": (["baselines", "--dims", "2,2", "--pairs", 100,
                               "--out-dir", tmp_path / "x"], cli.EXIT_USAGE, "repeats"),
            "learning-rate-nan": (["train", "--dataset", data, "--learning-rate", "nan",
                                   "--out-dir", tmp_path / "x"], cli.EXIT_USAGE,
                                  "learning rate"),
            "learning-rate-inf": (["train", "--dataset", data, "--learning-rate", "inf",
                                   "--out-dir", tmp_path / "x"], cli.EXIT_USAGE,
                                  "learning rate"),
            "missing-config": (["generate", "--config", tmp_path / "missing.ini", "--out",
                                tmp_path / "x" / "d.qst"], cli.EXIT_USAGE,
                               "config file not found"),
            "checkpoint-m-repeated": (["experiment", "--name", "fig2", "--checkpoint",
                                       checkpoint, "--checkpoint", f"2={checkpoint}",
                                       "--out-dir", tmp_path / "x"], cli.EXIT_USAGE,
                                      "two checkpoints given for m=2"),
            "no-filters": ([*train, "--filters", 0], cli.EXIT_USAGE,
                           "conv filters must be positive"),
            "one-dense-width": ([*train, "--dense-widths", 8], cli.EXIT_USAGE,
                                "expected two positive dense widths"),
            "no-val-count": ([*train, "--val-count", 0], cli.EXIT_USAGE,
                             "--val-count 0 is outside 1..259"),
            "negative-val-count": ([*train, "--val-count", -5], cli.EXIT_USAGE,
                                   "--val-count -5 is outside 1..259"),
            "val-dataset-of-another-m": ([*train, "--val-dataset", val], cli.EXIT_USAGE,
                                         "rows of 36 entries, got 36 and 6"),
        }[case]
        if case == "linalg-error":
            def svd(*_, **__):
                raise np.linalg.LinAlgError("svd failed")
            monkeypatch.setattr(np.linalg, "svd", svd)
        if case == "val-dataset-of-another-m":
            assert run("generate", "--out", val, "--m", 1, "--count", 3) == 0
        capsys.readouterr()
        assert run(*argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, setting, option", [
        (["generate", "--out", "d.qst"], "m = two", "--m"),
        (["train", "--dataset", "d.qst", "--out-dir", "x"], "dropout = x", "--dropout"),
        (["train", "--dataset", "d.qst", "--out-dir", "x"], "epochs = 1.5", "--epochs"),
        (["reconstruct", "--checkpoint", "c.qstck", "--input", "d.qst", "--out-dir", "x"],
         "mode = bogus", "--mode"),
        (["baselines", "--out-dir", "x"], "measure = uniform", "--measure"),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, argv, setting, option):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[run]\n{setting}\n")
        capsys.readouterr()
        assert run(*argv, "--config", cfg) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {option}: invalid" in err and "Traceback" not in err

    @pytest.mark.parametrize("removed", ["reconstruct --seed", "reconstruct --n",
                                         "experiment --name baselines", "train --profile full"])
    def test_removed_routes_are_usage_errors(self, trained, tmp_path, removed):
        root, checkpoint = trained
        if removed == "experiment --name baselines":
            argv = ["experiment", "--name", "baselines", "--pairs", 300, "--dims", "2"]
        elif removed == "train --profile full":
            argv = ["train", "--dataset", root / "train.qst", "--profile", "full",
                    "--val-count", 60, "--epochs", 1]
        else:
            argv = ["reconstruct", "--checkpoint", checkpoint, "--input", root / "train.qst",
                    removed.split()[1], 2]
        assert run(*argv, "--out-dir", tmp_path / "x") == cli.EXIT_USAGE


@pytest.fixture(scope="module")
def rerun_inputs(trained, tmp_path_factory):
    """Input files for re-running each command from a config file."""
    root, checkpoint = trained
    tmp = tmp_path_factory.mktemp("cli-rerun")
    io = SimpleNamespace(data=root / "train.qst", checkpoint=checkpoint,
                         val=tmp / "val.qst", small=tmp / "n1.qst")
    assert run("generate", "--out", io.val, "--m", 2, "--count", 30, "--seed", 2) == 0
    assert run("generate", "--out", io.small, "--m", 1, "--count", 5, "--seed", 3) == 0
    return io


# Per command: the argv head, settings off their defaults, the path flags, and
# a config file with the same settings in the format earlier versions wrote
# (removed and unknown keys, path keys pointing elsewhere or left empty).
RERUN_CASES = {
    "generate": (
        ["generate"], ["--m", 1, "--measure", "bures", "--count", 7, "--seed", 3],
        lambda io, out: ["--out", out / "d.qst"],
        "command = generate\nm = 1\nmeasure = bures\ncount = 7\nseed = 3\nworkers = 2\n"
        "out = elsewhere.qst\nformat_version = 1\n",
    ),
    "train": (
        ["train"], ["--val-count", 60, "--epochs", 2, "--filters", 3,
                    "--dense-widths", "8,4", "--dropout", 0.25, "--learning-rate", 0.05,
                    "--batch-size", 32, "--seed", 4],
        lambda io, out: ["--dataset", io.data, "--out-dir", out],
        "command = train\ndataset = elsewhere.qst\nval_dataset = \nval_count = 60\n"
        "profile = full\nm = 2\nfilters = 3\ndense_widths = 8,4\ndropout = 0.25\n"
        "learning_rate = 0.05\nbatch_size = 32\nepochs = 2\nseed = 4\ninit_checkpoint = \n"
        "best_epoch = 1\nserial_mode = True\n",
    ),
    "train-resumed": (
        ["train"], ["--epochs", 1, "--learning-rate", 0.02, "--batch-size", 50, "--seed", 5],
        lambda io, out: ["--dataset", io.data, "--val-dataset", io.val,
                         "--init-checkpoint", io.checkpoint, "--out-dir", out],
        "command = train\ndataset = elsewhere.qst\nval_dataset = elsewhere-val.qst\n"
        "val_count = 200\nprofile = desk\nm = 2\nfilters = 25\ndense_widths = 512,256\n"
        "dropout = 0.5\nlearning_rate = 0.02\nbatch_size = 50\nepochs = 1\nseed = 5\n"
        "init_checkpoint = elsewhere.qstck\nbest_epoch = 1\nserial_mode = True\n",
    ),
    "reconstruct": (
        ["reconstruct"], ["--mode", "zero"],
        lambda io, out: ["--checkpoint", io.checkpoint, "--input", io.small, "--out-dir", out],
        "command = reconstruct\ncheckpoint = elsewhere.qstck\ninput = elsewhere.qst\nn = 1\n"
        "m = 2\nmode = zero\ncount = 5\nstates_format_version = 1\n",
    ),
    "experiment-fig2": (
        ["experiment", "--name", "fig2"], ["--measure", "bures", "--test-count", 4, "--seed", 2],
        lambda io, out: ["--checkpoint", io.checkpoint, "--out-dir", out],
        "command = experiment\nname = fig2\nseed = 2\nmeasure = bures\n"
        "checkpoints = elsewhere.qstck\ntest_count = 4\npairs = 20000\ndims = 2,4,8\n",
    ),
    "baselines": (
        ["baselines"], ["--measure", "bures", "--pairs", 150, "--dims", "2,4", "--seed", 6],
        lambda io, out: ["--out-dir", out],
        "command = experiment\nname = baselines\nseed = 6\nmeasure = bures\ncheckpoints = \n"
        "test_count = 500\npairs = 150\ndims = 2,4\n",
    ),
}


def outputs(out_dir):
    """(bytes of every artifact but the config file, by name; settings of the config file)."""
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()
             if not p.name.endswith("config.ini")}
    (config,) = out_dir.glob("*config.ini")
    parser = configparser.ConfigParser()
    parser.read(config)
    return files, {k: v for k, v in parser["run"].items() if k in cli.CONFIG_KEYS}


# Options a config file does not set: the config file itself, the experiment's name,
# and the paths of inputs and outputs.
NOT_SETTINGS = {"config", "name", "out", "dataset", "val_dataset", "init_checkpoint",
                "checkpoint", "checkpoints", "input", "out_dir"}


def test_config_keys_are_the_settings_of_the_commands():
    """A key of a removed option, or an option with no key, fails here."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for p in commands.choices.values() for a in p._actions if a.dest != "help"}
    assert cli.CONFIG_KEYS == dests - NOT_SETTINGS


class TestConfigRerun:
    @pytest.mark.parametrize("case, option", [("experiment-fig2", "pairs"),
                                              ("train-resumed", "val_count")])
    def test_unread_option_is_not_recorded(self, rerun_inputs, tmp_path, case, option):
        """fig2 reads no --pairs, and a run with --val-dataset no --val-count."""
        head, settings, paths, _ = RERUN_CASES[case]
        flag = "--" + option.replace("_", "-")
        assert run(*head, *settings, flag, 150, *paths(rerun_inputs, tmp_path)) == 0
        parser = configparser.ConfigParser()
        parser.read(tmp_path / "config.ini")
        assert option not in parser["run"]

    @pytest.mark.parametrize("case", list(RERUN_CASES))
    def test_config_reruns_are_byte_identical(self, rerun_inputs, tmp_path, case):
        """The written config.ini, or an old-format one, plus the paths repeats a run."""
        head, settings, paths, old_config = RERUN_CASES[case]
        assert run(*head, *settings, *paths(rerun_inputs, tmp_path / "flags")) == 0
        expected = outputs(tmp_path / "flags")
        assert expected[0]
        (written,) = (tmp_path / "flags").glob("*config.ini")
        old = tmp_path / "old.ini"
        old.write_text("[run]\n" + old_config)
        for name, config in (("written", written), ("old", old)):
            assert run(*head, "--config", config, *paths(rerun_inputs, tmp_path / name)) == 0
            assert outputs(tmp_path / name) == expected


class TestM4Smoke:
    """m = 4 end to end with small widths: a 36x36 grid, one epoch, n = 1..3 padded up."""

    def test_generate_train_reconstruct_fig3(self, tmp_path):
        from qstkit import qcore
        data = tmp_path / "m4.qst"
        assert run("generate", "--m", 4, "--count", 40, "--seed", 41, "--out", data) == 0
        assert run("train", "--dataset", data, "--filters", 2, "--dense-widths", "8,4",
                   "--batch-size", 10, "--epochs", 1, "--val-count", 10, "--seed", 42,
                   "--out-dir", tmp_path / "run") == 0
        checkpoint = tmp_path / "run" / "checkpoint.qstck"
        net = neuralnet.load_checkpoint(checkpoint)
        assert net.config.num_qubits == 4 and net.config.tau_width == 256
        for n in (1, 2, 3):
            small = tmp_path / f"n{n}.qst"
            assert run("generate", "--m", n, "--count", 5, "--seed", 50 + n, "--out", small) == 0
            for mode in adapt.PADDING_MODES:
                out_dir = tmp_path / f"rec-n{n}-{mode}"
                assert run("reconstruct", "--checkpoint", checkpoint, "--input", small,
                           "--mode", mode, "--out-dir", out_dir) == 0
                states = tomography.read_states(out_dir / "states.qstst")
                assert states.shape == (5, 2**n, 2**n)
                qcore.assert_physical(states)
                assert len(read_csv(out_dir / "fidelity.csv")) == 1 + 5
        out_dir = tmp_path / "fig3"
        assert run("experiment", "--name", "fig3", "--checkpoint", f"4={checkpoint}",
                   "--test-count", 5, "--pairs", 0, "--out-dir", out_dir) == 0
        rows = read_csv(out_dir / "summary.csv")[1:]
        assert {(r[0], r[2], r[3], r[4]) for r in rows} == {
            ("fig3", "4", str(n), mode) for n in (1, 2, 3, 4) for mode in adapt.PADDING_MODES}
        assert len(rows) == 4 * 2 and all(int(r[7]) == 5 for r in rows)
