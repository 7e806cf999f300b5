"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The full suite trains four desk-scale networks
(m in {2,3} for both sampling measures) and takes several minutes.

All seeds are fixed: datasets derive from sub-seeds of DATA_SEED, network
training uses NET_SEED, so every number below is reproducible bit for bit.
"""

import itertools
import time

import numpy as np
import pytest

from oracles import maximally_mixed, sample_factor, sample_state, state
from qstkit import adapt, cholesky, cli, neuralnet, qcore, sampling, tomography

pytestmark = pytest.mark.acceptance

DATA_SEED = 11
NET_SEED = 11
DESK_TRAIN = 4000
DESK_VAL = 200
DESK_EPOCHS = 50
TEST_COUNT = 500
FIG2_COUNT = 300

HS = sampling.MEASURE_HS
BURES = sampling.MEASURE_BURES


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} | {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def make_dataset(m, measure, count, label):
    factors, ds = tomography.sample_dataset(m, measure, count, sampling.sub_seed(DATA_SEED, label))
    return factors, ds.measurements, ds.taus


def mc_mean(measure, n, count, label, against_mixed):
    """Mean Monte Carlo fidelity of random pairs, or against I/2**n."""
    seed = sampling.sub_seed(DATA_SEED, label)
    return float(adapt.mc_fidelities(measure, n, count, seed, against_mixed).mean())


@pytest.fixture(scope="module")
def desk_networks():
    """Desk-scale trained networks keyed by (measure, m), with wall times."""
    nets = {}
    for measure in (HS, BURES):
        for m in (2, 3):
            _, tr_meas, tr_taus = make_dataset(m, measure, DESK_TRAIN, f"train-{measure}-{m}")
            _, va_meas, va_taus = make_dataset(m, measure, DESK_VAL, f"val-{measure}-{m}")
            config = neuralnet.NetworkConfig(num_qubits=m, max_epochs=DESK_EPOCHS, seed=NET_SEED)
            start = time.perf_counter()
            net, _ = neuralnet.train(config, tr_meas, tr_taus, va_meas, va_taus)
            nets[(measure, m)] = (net, time.perf_counter() - start)
    return nets


def mean_test_fidelity(net, measure):
    m = net.config.num_qubits
    factors, meas, _ = make_dataset(m, measure, TEST_COUNT, f"test-{measure}-{m}")
    estimates = adapt.reconstruct(net, meas, "engineered")
    return float(np.mean(qcore.fidelity(estimates, factors)))


def padding_means(net, measure):
    truth, meas, _ = make_dataset(1, measure, TEST_COUNT, f"test-{measure}-1")
    eng = np.mean(qcore.fidelity(adapt.reconstruct(net, meas, "engineered"), truth))
    zero = np.mean(qcore.fidelity(adapt.reconstruct(net, meas, "zero"), truth))
    return float(eng), float(zero)


def fig2_summaries(net, measure):
    factors, meas, _ = make_dataset(
        net.config.num_qubits, measure, FIG2_COUNT, f"test-{measure}-{net.config.num_qubits}"
    )
    _, summaries = adapt.subsystem_experiment(net, factors, meas, measure)
    return summaries[::-1]  # full state first


def assert_fig2_trend(criterion, summaries):
    detail = "  ".join(f"n={s.n}: {s.mean:.4f}±{s.stderr:.4f}" for s in summaries)
    ok = all(
        b.mean >= a.mean - 2 * (a.stderr + b.stderr)
        for a, b in zip(summaries, summaries[1:])
    )
    report(criterion, ok, f"subsystem means non-decreasing within 2 SE: {detail}")


def test_c01_baseline_reproduction():
    """MC mean pair fidelities reproduce 0.67 / 0.59 / 0.57 and Bures 0.590."""
    start = time.perf_counter()
    results = {}
    for n, want in ((1, 0.67), (2, 0.59), (3, 0.57)):
        results[f"hs{2**n}"] = (mc_mean(HS, n, 100000, f"c1-hs-{2**n}", False), want)
    results["bures2"] = (mc_mean(BURES, 1, 100000, "c1-bures-2", False), 0.590)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}: {got:.4f} (want {want}±0.01)" for k, (got, want) in results.items())
    ok = all(abs(got - want) <= 0.01 for got, want in results.values()) and elapsed < 120
    report("criterion 1 (baseline reproduction)", ok, f"{detail}; {elapsed:.0f}s (limit 120s)")


def test_c02_monotonicity_suite():
    """F(full) <= F(reduced) + 1e-9 over 1000 HS pairs and every trace-down."""
    violations = 0
    checks = 0
    for m in (2, 3):
        subsets = [
            set(c)
            for size in range(1, m)
            for c in itertools.combinations(range(m), size)
        ]
        for i in range(1000):
            rng = sampling.stream(sampling.sub_seed(DATA_SEED, f"c2-{m}"), i)
            a = sample_factor(m, HS, rng)
            b = sample_factor(m, HS, rng)
            full = qcore.fidelity(a, b)
            for remove in subsets:
                reduced = qcore.fidelity(
                    qcore.partial_trace(a, remove), qcore.partial_trace(b, remove)
                )
                checks += 1
                if full > reduced + 1e-9:
                    violations += 1
    report(
        "criterion 2 (monotonicity suite)",
        violations == 0,
        f"{violations} violations in {checks} trace-down comparisons",
    )


def test_c03_padding_oracle():
    """Engineered padding equals exact measurement of the I/2-extended state."""
    worst = 0.0
    for n, m in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
        for i in range(100):
            rng = sampling.stream(sampling.sub_seed(DATA_SEED, f"c3-{n}-{m}"), i)
            rho = sample_state(n, HS, rng)
            extended = rho
            for _ in range(m - n):
                extended = np.kron(maximally_mixed(1), extended)
            got = adapt.pad_measurements(tomography.measure(rho), m, "engineered")
            want = tomography.measure(extended)
            worst = max(worst, float(np.abs(got - want).max()))
    report(
        "criterion 3 (padding oracle)",
        worst <= 1e-13,
        f"max deviation {worst:.2e} over 600 states (limit 1e-13)",
    )


def test_c04_cholesky_roundtrip():
    """Roundtrip fidelity deficit <= 1e-9 on HS states; d=4 layout exact."""
    worst = 0.0
    for m in (2, 3):
        for i in range(1000):
            rng = sampling.stream(sampling.sub_seed(DATA_SEED, f"c4-{m}"), i)
            a = sample_factor(m, HS, rng)
            back = cholesky.tau_to_matrix(cholesky.rho_to_tau(state(a)))
            worst = max(worst, 1.0 - qcore.fidelity(a, back))
    rows, cols = cholesky.tau_layout(4)
    layout_ok = list(zip(rows.tolist(), cols.tolist())) == [
        (0, 0), (1, 1), (2, 2), (3, 3),
        (1, 0), (2, 1), (3, 2), (2, 0), (3, 1), (3, 0),
    ]
    report(
        "criterion 4 (Cholesky roundtrip)",
        worst <= 1e-9 and layout_ok,
        f"worst fidelity deficit {worst:.2e} over 2000 states; layout exact: {layout_ok}",
    )


def test_c05_gradient_correctness():
    """Finite differences (h=1e-5) agree with analytic gradients everywhere."""
    config = neuralnet.NetworkConfig(
        num_qubits=2, conv_filters=2, dense_widths=(8, 4), seed=3
    )
    net = neuralnet.Network.build(config, sampling.stream(config.seed, neuralnet.TRAIN_STREAM))
    rng = sampling.stream(sampling.sub_seed(DATA_SEED, "c5"))
    grids = rng.random((5, 1, 6, 6))
    targets = rng.standard_normal((5, 16)) * 0.3

    def loss_value():
        return neuralnet.loss(net.forward(grids, train=True, rng=sampling.stream(1234)), targets)

    neuralnet.compute_gradients(net, grids, targets, sampling.stream(1234))
    grads = net.grads.copy()
    params = net.params  # every layer's w and b are views into it
    h = 1e-5
    worst = 0.0
    checked = 0
    for idx in range(params.size):
        orig = params[idx]
        params[idx] = orig + h
        up = loss_value()
        params[idx] = orig - h
        down = loss_value()
        params[idx] = orig
        fd = (up - down) / (2 * h)
        scale = max(abs(fd), abs(grads[idx]), 1e-8)
        worst = max(worst, abs(fd - grads[idx]) / scale)
        checked += 1
    report(
        "criterion 5 (gradient correctness)",
        worst <= 1e-4,
        f"worst relative error {worst:.2e} over all {checked} parameters (limit 1e-4)",
    )


def test_c06_desk_scale_training(desk_networks):
    """m=2 HS network at desk scale reaches >= 0.85 test fidelity."""
    net, train_seconds = desk_networks[(HS, 2)]
    fid = mean_test_fidelity(net, HS)
    mixed_mean = mc_mean(HS, 2, 20000, "c6-mixed", True)
    ok = fid >= 0.85 and fid > 0.59 and fid > mixed_mean and train_seconds < 1200
    report(
        "criterion 6 (desk-scale training)",
        ok,
        f"test fidelity {fid:.4f} (need >=0.85, > random-pair 0.59, "
        f"> mixed baseline {mixed_mean:.4f}); training {train_seconds:.0f}s (limit 1200s)",
    )


def test_c07_fig3_ordering(desk_networks):
    """Engineered beats zero padding by >= 5 points; zero is near random-pair."""
    net, _ = desk_networks[(HS, 2)]
    eng, zero = padding_means(net, HS)
    random_pair = mc_mean(HS, 1, 20000, "c7-rp", False)
    ok = (eng - zero >= 0.05) and (zero >= random_pair - 0.02)
    report(
        "criterion 7 (fig3 ordering)",
        ok,
        f"engineered {eng:.4f} vs zero {zero:.4f} (margin {eng - zero:.4f}, need >=0.05); "
        f"zero vs random-pair {random_pair:.4f} - 0.02",
    )


def test_c08_fig2_trend(desk_networks):
    """m=3 HS subsystem fidelities are non-decreasing toward smaller systems."""
    net, _ = desk_networks[(HS, 3)]
    assert_fig2_trend("criterion 8 (fig2 trend)", fig2_summaries(net, HS))


def test_c09_bures_replication(desk_networks):
    """Criteria 6-8 rerun on Bures ensembles (threshold relaxed to 0.80)."""
    net2, _ = desk_networks[(BURES, 2)]
    fid = mean_test_fidelity(net2, BURES)
    mixed_mean = mc_mean(BURES, 2, 20000, "c9-mixed", True)
    report(
        "criterion 9a (Bures desk-scale training)",
        fid >= 0.80 and fid > mixed_mean,
        f"test fidelity {fid:.4f} (need >=0.80 and > mixed baseline {mixed_mean:.4f})",
    )

    eng, zero = padding_means(net2, BURES)
    random_pair = mc_mean(BURES, 1, 20000, "c9-rp", False)
    report(
        "criterion 9b (Bures fig3 ordering)",
        (eng - zero >= 0.05) and (zero >= random_pair - 0.02),
        f"engineered {eng:.4f} vs zero {zero:.4f}; "
        f"zero vs random-pair {random_pair:.4f} - 0.02",
    )

    net3, _ = desk_networks[(BURES, 3)]
    assert_fig2_trend("criterion 9c (Bures fig2 trend)", fig2_summaries(net3, BURES))


def test_c10_determinism(tmp_path):
    """Two serial CLI runs produce byte-identical datasets, checkpoints, CSVs."""
    artifacts = {}
    for tag in ("run1", "run2"):
        root = tmp_path / tag
        data = root / "data.qst"
        assert cli.main(["generate", "--out", str(data), "--m", "2",
                         "--count", "120", "--seed", "17"]) == 0
        assert cli.main(["train", "--dataset", str(data), "--out-dir", str(root / "train"),
                         "--val-count", "20", "--epochs", "3", "--seed", "17"]) == 0
        assert cli.main(["reconstruct", "--checkpoint", str(root / "train" / "checkpoint.qstck"),
                         "--input", str(data), "--out-dir", str(root / "rec")]) == 0
        assert cli.main(["baselines", "--out-dir", str(root / "base"), "--pairs", "500",
                         "--dims", "2", "--seed", "17"]) == 0
        artifacts[tag] = {
            rel: (root / rel).read_bytes()
            for rel in (
                "data.qst", "train/checkpoint.qstck", "train/history.csv",
                "rec/states.qstst", "rec/fidelity.csv", "base/summary.csv",
            )
        }
    mismatched = [
        rel for rel in artifacts["run1"] if artifacts["run1"][rel] != artifacts["run2"][rel]
    ]
    report(
        "criterion 10 (determinism)",
        not mismatched,
        f"byte-compared {len(artifacts['run1'])} artifacts"
        + (f"; mismatches: {mismatched}" if mismatched else "; all identical"),
    )
