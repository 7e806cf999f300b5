"""Unit tests for the from-scratch network, its gradients, and checkpoints."""

import numpy as np
import pytest

from qstkit import adapt, cholesky, neuralnet, qcore, sampling, tomography

TINY = dict(num_qubits=2, conv_filters=2, dense_widths=(8, 4))


def tiny_net(seed=3):
    cfg = neuralnet.NetworkConfig(seed=seed, **TINY)
    rng = sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM)
    return cfg, neuralnet.Network.build(cfg, rng)


def small_dataset(m, count, seed, measure=sampling.MEASURE_HS):
    spec = sampling.EnsembleSpec(m, measure, count)
    states = sampling.sample_ensemble(spec, seed)
    meas = np.stack([tomography.measure(rho) for rho in states])
    taus = np.stack([cholesky.rho_to_tau(rho) for rho in states])
    return states, meas, taus


class TestReshape:
    def test_grid_shapes(self):
        assert neuralnet.grid_shape(2) == (6, 6)
        assert neuralnet.grid_shape(3) == (36, 6)
        assert neuralnet.grid_shape(4) == (36, 36)

    def test_row_major_placement(self):
        """Joint index 28 lands at grid position (4, 4) for m=2."""
        v = np.zeros((1, 36))
        v[0, 28] = 1.0
        grid = neuralnet.grids_from_measurements(v)[0, 0]
        assert grid[4, 4] == 1.0 and grid.sum() == 1.0

    def test_flatten_roundtrip(self):
        v = sampling.stream(501).random((1, 216))
        grids = neuralnet.grids_from_measurements(v)
        assert grids.shape == (1, 1, 36, 6)
        np.testing.assert_array_equal(grids.ravel(), v[0])

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError, match="too narrow"):
            neuralnet.grid_shape(1)

    def test_batch_grids(self):
        meas = sampling.stream(502).random((7, 36))
        grids = neuralnet.grids_from_measurements(meas)
        assert grids.shape == (7, 1, 6, 6)
        np.testing.assert_array_equal(grids[3, 0].ravel(), meas[3])


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        cfg = neuralnet.NetworkConfig(num_qubits=2)
        net = neuralnet.Network.build(cfg)  # zero weights
        out = net.forward(sampling.stream(503).random((4, 1, 6, 6)))
        np.testing.assert_array_equal(out, np.zeros((4, 16)))

    def test_inference_is_bitwise_deterministic(self):
        _, net = tiny_net()
        grids = sampling.stream(504).random((3, 1, 6, 6))
        a = net.forward(grids, train=False)
        b = net.forward(grids, train=False)
        np.testing.assert_array_equal(a, b)

    def test_hand_computed_conv_and_pool(self):
        """Single 2x2 filter on a 3x3 input, worked out by hand.

        input [[1,2,0],[0,1,3],[4,1,0]], filter [[1,0],[-1,2]], bias 0.5:
        conv(0,0) = 1 - 0 + 2*1 + 0.5 = 3.5    conv(0,1) = 2 - 1 + 6 + 0.5 = 7.5
        conv(1,0) = 0 - 4 + 2  + 0.5 = -1.5    conv(1,1) = 1 - 1 + 0 + 0.5 = 0.5
        ReLU zeroes the -1.5; maxpool over the 2x2 map keeps 7.5.
        """
        conv = neuralnet.Conv2D(1, 1, 2)
        conv.w[0, 0] = [[1.0, 0.0], [-1.0, 2.0]]
        conv.b[0] = 0.5
        x = np.array([[[[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 1.0, 0.0]]]])
        out = conv.forward(x)
        np.testing.assert_allclose(out[0, 0], [[3.5, 7.5], [-1.5, 0.5]], atol=1e-15)
        relu = neuralnet.ReLU()
        pooled = neuralnet.MaxPool2D(2).forward(relu.forward(out))
        np.testing.assert_allclose(pooled[0, 0], [[7.5]], atol=1e-15)

    def test_pool_floor_discards_trailing_row(self):
        x = np.arange(15.0).reshape(1, 1, 5, 3)
        pool = neuralnet.MaxPool2D(2)
        out = pool.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[4.0], [10.0]])
        dx = pool.backward(np.array([[[[2.0], [3.0]]]]))
        want = np.zeros((5, 3))
        want[1, 1], want[3, 1] = 2.0, 3.0
        np.testing.assert_array_equal(dx[0, 0], want)  # dropped row 4 and column 2 stay zero

    def test_dropout_train_versus_infer(self):
        layer = neuralnet.Dropout(0.5)
        x = np.ones((4, 10))
        np.testing.assert_array_equal(layer.forward(x, train=False), x)
        masked = layer.forward(x, train=True, rng=sampling.stream(505))
        assert set(np.unique(masked)) <= {0.0, 2.0}
        with pytest.raises(ValueError, match="generator"):
            layer.forward(x, train=True)


def conv_oracle(x, w, b, dout):
    """Scalar nested loops: output, dw, db and dx of a valid stride-1 convolution."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    out = np.zeros((n, f, oh, ow))
    dw, db, dx = np.zeros_like(w), np.zeros_like(b), np.zeros_like(x)
    for i, j, r, t in np.ndindex(n, f, oh, ow):
        out[i, j, r, t] = b[j]
        db[j] += dout[i, j, r, t]
        for ch, p, q in np.ndindex(c, k, k):
            out[i, j, r, t] += w[j, ch, p, q] * x[i, ch, r + p, t + q]
            dw[j, ch, p, q] += dout[i, j, r, t] * x[i, ch, r + p, t + q]
            dx[i, ch, r + p, t + q] += dout[i, j, r, t] * w[j, ch, p, q]
    return out, dw, db, dx


def pool_oracle(x, s, dout):
    """Scalar loops: each window's maximum, its gradient to the first maximum (row-major)."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // s, w // s))
    dx = np.zeros_like(x)
    for i, ch, r, t in np.ndindex(out.shape):
        best = None
        for p, q in np.ndindex(s, s):
            if best is None or x[i, ch, r * s + p, t * s + q] > x[best]:
                best = (i, ch, r * s + p, t * s + q)
        out[i, ch, r, t] = x[best]
        dx[best] = dout[i, ch, r, t]
    return out, dx


class TestKernels:
    @pytest.mark.parametrize("k", [2, 3])
    def test_conv_matches_loop_oracle(self, k):
        rng = sampling.stream(520 + k)
        x = rng.standard_normal((2, 3, 7, 4))
        conv = neuralnet.Conv2D(3, 2, k, rng)
        conv.b[:] = rng.standard_normal(2)
        out = conv.forward(x)
        dout = rng.standard_normal(out.shape)
        dx = conv.backward(dout)
        want = conv_oracle(x, conv.w, conv.b, dout)
        for got, ref in zip((out, conv.dw, conv.db, dx), want):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_pool_tie_goes_to_first_maximum(self):
        """Windows [[1, 3], [3, 0]] and all-zero (dead ReLU) ties."""
        x = np.array([[[[1.0, 3.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]]]])
        pool = neuralnet.MaxPool2D(2)
        np.testing.assert_array_equal(pool.forward(x), [[[[3.0, 0.0]]]])
        dx = pool.backward(np.array([[[[5.0, 7.0]]]]))
        np.testing.assert_array_equal(dx, [[[[0.0, 5.0, 7.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]])

    @pytest.mark.parametrize("size, shape", [(2, (5, 3)), (2, (36, 6)), (3, (7, 8))])
    def test_pool_matches_loop_oracle(self, size, shape):
        rng = sampling.stream(530 + size)
        # Rounded non-negative values: many ties, as after a ReLU.
        x = np.maximum(np.round(rng.standard_normal((2, 3) + shape), 1), 0.0)
        pool = neuralnet.MaxPool2D(size)
        out = pool.forward(x)
        dout = rng.standard_normal(out.shape)
        want_out, want_dx = pool_oracle(x, size, dout)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(pool.backward(dout), want_dx)


class TestLoss:
    def test_identical_vectors(self):
        v = sampling.stream(506).standard_normal(16)
        assert neuralnet.loss(v, v) == 0.0

    def test_unit_difference(self):
        assert neuralnet.loss(np.ones(16), np.zeros(16)) == pytest.approx(1.0)

    def test_matches_scalar_loop_oracle(self):
        rng = sampling.stream(507)
        pred = rng.standard_normal((5, 16))
        target = rng.standard_normal((5, 16))
        want = sum(
            (pred[i, j] - target[i, j]) ** 2 for i in range(5) for j in range(16)
        ) / (5 * 16)
        assert abs(neuralnet.loss(pred, target) - want) <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            neuralnet.loss(np.ones(16), np.ones(15))


class TestGradients:
    def test_zero_at_perfect_fit(self):
        """Target equal to the prediction (same dropout masks) gives zero grads."""
        _, net = tiny_net()
        grids = sampling.stream(508).random((4, 1, 6, 6))
        pred = net.forward(grids, train=True, rng=sampling.stream(42))
        value, grads = neuralnet.compute_gradients(net, grids, pred, sampling.stream(42))
        assert value == 0.0
        assert max(np.abs(g).max() for g in grads) <= 1e-10

    def test_finite_difference_all_layer_types(self):
        """Central differences (h=1e-5) against every parameter of the tiny net.

        The tiny configuration (2 filters, dense widths 8 and 4) has 168
        trainable parameters in total, so the check is exhaustive and covers
        every layer type including the dropout path.
        """
        _, net = tiny_net()
        rng = sampling.stream(509)
        grids = rng.random((5, 1, 6, 6))
        targets = rng.standard_normal((5, 16)) * 0.3

        def loss_value():
            pred = net.forward(grids, train=True, rng=sampling.stream(1234))
            return neuralnet.loss(pred, targets)

        _, grads = neuralnet.compute_gradients(net, grids, targets, sampling.stream(1234))
        grads = [g.copy() for g in grads]
        params = net.parameters()
        h = 1e-5
        checked = 0
        for p, g in zip(params, grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                up = loss_value()
                flat_p[idx] = orig - h
                down = loss_value()
                flat_p[idx] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(flat_g[idx]), 1e-8)
                assert abs(fd - flat_g[idx]) / scale <= 1e-4
                checked += 1
        assert checked == sum(p.size for p in params)

    def test_batch_doubling_invariance(self):
        """Duplicating every example leaves the mean-loss gradient unchanged."""
        _, net = tiny_net()
        rng = sampling.stream(510)
        grids = rng.random((4, 1, 6, 6))
        targets = rng.standard_normal((4, 16))
        cfg = neuralnet.NetworkConfig(seed=3, dropout_rate=0.0, **{k: v for k, v in TINY.items()})
        net = neuralnet.Network.build(cfg, sampling.stream(3, neuralnet.TRAIN_STREAM))
        _, single = neuralnet.compute_gradients(net, grids, targets, None)
        single = [g.copy() for g in single]
        doubled_grids = np.concatenate([grids, grids])
        doubled_targets = np.concatenate([targets, targets])
        _, double = neuralnet.compute_gradients(net, doubled_grids, doubled_targets, None)
        for a, b in zip(single, double):
            assert np.abs(a - b).max() <= 1e-12


class TestAdagrad:
    def test_zero_gradient_leaves_parameters(self):
        p = np.ones(4)
        opt = neuralnet.Adagrad([p], 0.01)
        opt.step([np.zeros(4)])
        np.testing.assert_array_equal(p, np.ones(4))

    def test_first_step_is_signed_learning_rate(self):
        """From a zero accumulator the step is lr * sign(g) for |g| >> eps."""
        p = np.zeros(3)
        opt = neuralnet.Adagrad([p], 0.01)
        opt.step([np.array([0.5, -2.0, 1e-3])])
        np.testing.assert_allclose(p, [-0.01, 0.01, -0.01], rtol=1e-4)

    def test_accumulators_never_decrease(self):
        rng = sampling.stream(511)
        p = np.zeros(8)
        opt = neuralnet.Adagrad([p], 0.01)
        prev = opt.accumulators[0].copy()
        for _ in range(100):
            opt.step([rng.standard_normal(8)])
            assert np.all(opt.accumulators[0] >= prev)
            prev = opt.accumulators[0].copy()


class TestTraining:
    def test_overfits_ten_states(self):
        """Loss on a 10-state training set drops markedly over 50 epochs."""
        _, meas, taus = small_dataset(2, 10, 601)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=4, dense_widths=(32, 16),
            batch_size=10, max_epochs=50, seed=1, dropout_rate=0.0,
        )
        _, _, history = neuralnet.train(cfg, meas, taus, meas, taus)
        assert history.losses[49] < history.losses[0]

    def test_deterministic_history(self):
        _, meas, taus = small_dataset(2, 60, 602)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=3, dense_widths=(16, 8), max_epochs=4, seed=5
        )
        _, _, h1 = neuralnet.train(cfg, meas[:40], taus[:40], meas[40:], taus[40:])
        _, _, h2 = neuralnet.train(cfg, meas[:40], taus[:40], meas[40:], taus[40:])
        assert h1.losses == h2.losses
        assert h1.val_fidelities == h2.val_fidelities
        assert h1.best_epoch == h2.best_epoch

    def test_validation_fidelities_in_range_and_best_selected(self):
        _, meas, taus = small_dataset(2, 60, 603)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=3, dense_widths=(16, 8), max_epochs=5, seed=6
        )
        net, _, history = neuralnet.train(cfg, meas[:40], taus[:40], meas[40:], taus[40:])
        assert all(0.0 <= f <= 1.0 for f in history.val_fidelities)
        best = neuralnet.mean_reconstruction_fidelity(net, meas[40:], taus[40:])
        assert best == pytest.approx(max(history.val_fidelities), abs=1e-12)

    def test_best_epoch_beats_first_epoch(self):
        """On a 20+ epoch run with 1000+ states, selection can only improve."""
        _, meas, taus = small_dataset(2, 1100, 604)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=4, dense_widths=(32, 16), max_epochs=20, seed=2
        )
        _, _, history = neuralnet.train(cfg, meas[:1000], taus[:1000], meas[1000:], taus[1000:])
        assert max(history.val_fidelities) >= history.val_fidelities[0]

    def test_m_mismatch_rejected(self):
        _, meas, taus = small_dataset(2, 20, 605)
        cfg = neuralnet.NetworkConfig(num_qubits=3, max_epochs=1)
        with pytest.raises(ValueError, match="config expects"):
            neuralnet.train(cfg, meas, taus, meas, taus)


class TestInfer:
    """Inference goes through the one batched path, ``adapt.reconstruct``."""

    def test_untrained_output_is_physical(self):
        _, net = tiny_net()
        rhos = adapt.reconstruct(net, sampling.stream(606).random((20, 36)), "engineered")
        assert all(qcore.is_physical(rho) for rho in rhos)

    def test_bitwise_repeatable(self):
        _, net = tiny_net()
        v = sampling.stream(607).random((1, 36))
        np.testing.assert_array_equal(
            adapt.reconstruct(net, v, "engineered"), adapt.reconstruct(net, v, "engineered")
        )

    def test_trained_network_beats_mixed_state_guess(self):
        """After a short training run, reconstruction beats the I/4 baseline."""
        states, meas, taus = small_dataset(2, 1100, 608)
        cfg = neuralnet.NetworkConfig(num_qubits=2, max_epochs=20, seed=4)
        net, _, _ = neuralnet.train(cfg, meas[:1000], taus[:1000], meas[1000:], taus[1000:])
        held_states, held_meas, _ = small_dataset(2, 40, 609)
        held_states = np.stack(held_states)
        estimates = adapt.reconstruct(net, held_meas, "engineered")
        net_fid = np.mean(qcore.fidelity(estimates, held_states))
        mixed_fid = np.mean(qcore.fidelity(held_states, qcore.maximally_mixed(2)))
        assert net_fid > mixed_fid

    def test_wrong_length_rejected(self):
        _, net = tiny_net()
        with pytest.raises(ValueError, match="power of six"):
            adapt.reconstruct(net, np.zeros((1, 7)), "engineered")
        with pytest.raises(ValueError, match="trained on"):
            adapt.reconstruct(net, np.zeros((1, 216)), "engineered")


class TestCheckpoints:
    def test_roundtrip_is_bitwise(self, tmp_path):
        cfg, net = tiny_net(seed=8)
        opt = neuralnet.Adagrad(net.parameters(), cfg.learning_rate)
        opt.step([np.full_like(p, 0.125) for p in net.parameters()])
        path = tmp_path / "model.qstck"
        neuralnet.save_checkpoint(path, cfg, net.parameters(), opt.accumulators)
        loaded, opt2 = neuralnet.network_from_checkpoint(path)
        v = sampling.stream(610).random((3, 36))
        np.testing.assert_array_equal(
            adapt.reconstruct(net, v, "engineered"), adapt.reconstruct(loaded, v, "engineered")
        )
        for a, b in zip(opt.accumulators, opt2.accumulators):
            np.testing.assert_array_equal(a, b)
        assert loaded.config == cfg

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "model.qstck"
        cfg, net = tiny_net()
        opt = neuralnet.Adagrad(net.parameters(), cfg.learning_rate)
        neuralnet.save_checkpoint(path, cfg, net.parameters(), opt.accumulators)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(neuralnet.FormatError, match="magic"):
            neuralnet.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.qstck"
        cfg, net = tiny_net()
        opt = neuralnet.Adagrad(net.parameters(), cfg.learning_rate)
        neuralnet.save_checkpoint(path, cfg, net.parameters(), opt.accumulators)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(neuralnet.FormatError, match="payload"):
            neuralnet.load_checkpoint(path)

    def test_corrupt_shape_table_detected(self, tmp_path):
        path = tmp_path / "model.qstck"
        cfg, net = tiny_net()
        opt = neuralnet.Adagrad(net.parameters(), cfg.learning_rate)
        neuralnet.save_checkpoint(path, cfg, net.parameters(), opt.accumulators)
        raw = bytearray(path.read_bytes())
        # First shape-table entry sits after magic+version+config block.
        off = 8 + 4 + 24 + 8 + 8 + 4 + 4 + 8 + 4
        raw[off : off + 4] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(neuralnet.FormatError):
            neuralnet.load_checkpoint(path)
