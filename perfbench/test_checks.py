"""Each benchmark correctness check passes on real artifacts and rejects a corrupted copy.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from qstkit import cli  # noqa: E402


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    run("generate", "--out", root / "hs.qst", "--m", 2, "--count", 30, "--seed", 5)
    run("generate", "--out", root / "bures.qst", "--m", 2, "--count", 30, "--seed", 6,
        "--measure", "bures")
    run("generate", "--out", root / "ck.qst", "--m", 2, "--count", 120, "--seed", 7)
    run("train", "--dataset", root / "ck.qst", "--val-count", 20, "--epochs", 1,
        "--out-dir", root / "m2", "--seed", 7)
    run("generate", "--out", root / "n1.qst", "--m", 1, "--count", 20, "--seed", 8)
    run("reconstruct", "--checkpoint", root / "m2" / "checkpoint.qstck",
        "--input", root / "n1.qst", "--out-dir", root / "rec")
    run("baselines", "--out-dir", root / "baselines", "--pairs", 1000, "--seed", 9)
    return root


@pytest.fixture
def copy(artifacts, tmp_path):
    """A fresh copy of one artifact (file or directory) to corrupt."""
    def make(name):
        src, dst = artifacts / name, tmp_path / name
        if src.is_dir():
            shutil.copytree(src, dst)
        else:
            shutil.copy(src, dst)
        return dst
    return make


def _rewrite_record(path, index, column, delta):
    m = checks.read_dataset_file(path)[0]
    width = 6**m + 4**m
    offset = checks.DATASET_HEADER.size + 8 * (index * width + column)
    raw = bytearray(path.read_bytes())
    (value,) = struct.unpack_from("<d", raw, offset)
    struct.pack_into("<d", raw, offset, value + delta)
    path.write_bytes(bytes(raw))


def _edit_csv(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("name", ["hs.qst", "bures.qst"])
def test_measurement_oracle_rejects_perturbed_record(artifacts, copy, name):
    assert checks.check_measurements(artifacts / name) is None
    bad = copy(name)
    _rewrite_record(bad, index=3, column=7, delta=1e-9)
    assert "record 3 measurements" in checks.check_measurements(bad)


@pytest.mark.parametrize("name", ["hs.qst", "bures.qst"])
def test_tau_oracle_rejects_perturbed_tau(artifacts, copy, name):
    assert checks.check_taus(artifacts / name) is None
    bad = copy(name)
    _rewrite_record(bad, index=5, column=36 + 2, delta=1e-3)
    assert "record 5 tau" in checks.check_taus(bad)


def test_fidelity_oracle_rejects_edited_row(artifacts, copy):
    pytest.importorskip("scipy")
    assert checks.check_fidelity_rows(artifacts / "rec", artifacts / "n1.qst",
                                      cli.read_states) is None
    bad = copy("rec")
    row = (bad / "fidelity.csv").read_text().splitlines()[3]
    state_id, value = row.split(",")
    _edit_csv(bad / "fidelity.csv", row, f"{state_id},{float(value) - 1e-6:.12f}")
    problem = checks.check_fidelity_rows(bad, artifacts / "n1.qst", cli.read_states)
    assert f"row {state_id}" in problem


def test_physicality_rejects_non_unit_trace_state(artifacts, copy):
    assert checks.check_states_physical(artifacts / "rec", cli.read_states) is None
    bad = copy("rec")
    states = cli.read_states(bad / "states.qstst")
    states[2] = states[2] * 1.01
    cli.write_states(bad / "states.qstst", states)
    assert "state 2 is not of unit trace" in checks.check_states_physical(bad, cli.read_states)


def test_baseline_check_rejects_shifted_mean(artifacts, copy):
    summary = artifacts / "baselines" / "summary.csv"
    assert checks.check_baselines(summary) is None
    bad = copy("baselines") / "summary.csv"
    row = next(r for r in checks._read_csv(bad) if r["mode"] == "random-pair" and r["n"] == "2")
    _edit_csv(bad, row["mean"], "0.650000000000")
    assert "dim 4 mean" in checks.check_baselines(bad)


def test_history_check_rejects_non_finite_row(artifacts, copy):
    assert checks.check_history(artifacts / "m2" / "history.csv") is None
    bad = copy("m2") / "history.csv"
    row = checks._read_csv(bad)[0]
    _edit_csv(bad, row["val_mean_fidelity"], "nan")
    assert "non-finite" in checks.check_history(bad)


def test_summary_check_rejects_out_of_range_mean(artifacts, copy):
    assert checks.check_summary(artifacts / "baselines" / "summary.csv") is None
    bad = copy("baselines") / "summary.csv"
    _edit_csv(bad, checks._read_csv(bad)[0]["mean"], "1.250000000000")
    assert "outside [0, 1]" in checks.check_summary(bad)


def test_digest_sees_a_single_changed_byte(artifacts, copy):
    bad = copy("rec")
    clean = worker.digest(artifacts / "rec")
    assert worker.digest(bad) == clean
    raw = bytearray((bad / "states.qstst").read_bytes())
    raw[-1] ^= 1
    (bad / "states.qstst").write_bytes(bytes(raw))
    assert worker.digest(bad) != clean


def test_oracle_projectors_are_complete():
    # The 36 two-qubit projectors are 9 settings times 4 outcomes, each
    # setting's outcomes resolving the identity.
    total = checks.pauli_projectors(2).sum(axis=0)
    np.testing.assert_allclose(total, 9 * np.eye(4), atol=1e-15)


def test_tracer_patches_every_binding_site_and_restores_it(tmp_path):
    import types

    import qstkit
    from tracer import Tracer, layer_metrics

    originals = (qstkit.qcore.fidelity, qstkit.cli.fidelity, qstkit.neuralnet.Dense.forward)
    tracer = Tracer()
    tracer.install(qstkit)
    try:
        assert qstkit.cli.fidelity is qstkit.qcore.fidelity is not originals[0]
        assert cli.main(["generate", "--out", str(tmp_path / "a.qst"), "--m", "2",
                         "--count", "5"]) == 0
    finally:
        tracer.uninstall()
    assert (qstkit.qcore.fidelity, qstkit.cli.fidelity,
            qstkit.neuralnet.Dense.forward) == originals
    metrics = layer_metrics(tracer.summary(), tracer, passes=1)
    assert metrics["tomography.measure.calls"]["value"] == 5
    assert metrics["cli.generate.self_ms"]["value"] > 0
    assert "neuralnet.m2.conv1.fwd_ms" not in metrics

    # A package without some modules or functions is traced without error.
    partial = types.SimpleNamespace(qcore=types.SimpleNamespace(__name__="x"))
    tracer = Tracer()
    tracer.install(partial)
    tracer.uninstall()
    assert "adapt.reconstruct_adaptive.calls" not in layer_metrics({}, tracer, passes=1)
