"""Unit tests for the from-scratch network, its gradients, and checkpoints."""

import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import initial_params
from qstkit import adapt, neuralnet, qcore, sampling, tomography

TINY = dict(num_qubits=2, conv_filters=2, dense_widths=(8, 4))


def tiny_net(seed=3):
    cfg = neuralnet.NetworkConfig(seed=seed, **TINY)
    rng = sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM)
    return cfg, neuralnet.Network.build(cfg, rng)


def zero_net(cfg):
    """The network of ``cfg`` with every parameter zero."""
    size = sum(math.prod(shape) for shape in neuralnet.tensor_shapes(cfg))
    return neuralnet.Network(cfg, np.zeros(size), np.zeros(size))


def conv_layer(w, b, pool=1, relu=False):
    """A standalone Conv2D over the given weights and biases, with its own gradients; no
    ReLU unless asked for."""
    return neuralnet.Conv2D(w, b, np.empty_like(w), np.empty_like(b), pool, relu)


def pool_layer(channels):
    """A pooled 1x1 convolution with identity weights, zero biases and no ReLU: the pool
    alone."""
    return conv_layer(np.eye(channels).reshape(channels, channels, 1, 1), np.zeros(channels),
                      neuralnet.POOL)


def small_dataset(m, count, seed, measure=sampling.MEASURE_HS):
    factors, ds = tomography.sample_dataset(m, measure, count, seed)
    return factors, ds.measurements, ds.taus


def held_state(net):
    """(layer index, attribute) of every piece of forward state a layer holds."""
    return [(i, name) for i, layer in enumerate(net.layers)
            for name in ("out", "x", "first", "cols", "mask", "in_shape")
            if getattr(layer, name, None) is not None]


def improving_epochs(val_fidelities):
    """The epochs whose validation fidelity beats every earlier one's: each takes a snapshot."""
    return [e for e, f in enumerate(val_fidelities) if all(f > g for g in val_fidelities[:e])]


def peak_from_first_batch(monkeypatch, run) -> int:
    """The tracemalloc peak of ``run()`` from its first training batch on. At m=2 default
    widths the build's orthogonal QR of a 512 x 512 draw peaks above any later point of a run
    (8.78 MB; 12.51 MB with a checkpoint loaded, whether or not it is kept), so the peak is
    reset as the first ``compute_gradients`` starts."""
    compute, started = neuralnet.compute_gradients, []

    def reset_at_first(*args):
        if not started:
            started.append(tracemalloc.reset_peak())
        return compute(*args)

    monkeypatch.setattr(neuralnet, "compute_gradients", reset_at_first)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


class TestBuild:
    def test_tensor_shapes(self):
        """Conv1 and conv2 weights and biases, then the three dense layers'; m=3's conv2
        leaves a 16 x 1 map of 25 channels, so 400 inputs to the first dense layer."""
        assert neuralnet.tensor_shapes(neuralnet.NetworkConfig(num_qubits=3)) == [
            (25, 1, 2, 2), (25,), (25, 25, 2, 2), (25,),
            (400, 512), (512,), (512, 256), (256,), (256, 64), (64,)]

    @pytest.mark.parametrize("m, filters, widths",
                             [(2, 25, (512, 256)), (3, 25, (512, 256)), (4, 2, (8, 4))])
    def test_initial_params_equal_oracle_bit_for_bit(self, m, filters, widths):
        cfg = neuralnet.NetworkConfig(num_qubits=m, conv_filters=filters, dense_widths=widths,
                                      seed=11)
        net = neuralnet.Network.build(cfg, sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM))
        want = initial_params(m, filters, widths, sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM))
        np.testing.assert_array_equal(net.params.view(np.uint64), want.view(np.uint64))

    def test_five_layers_line_up_with_tensor_shapes(self):
        """conv1, conv2, dense1, dense2, output: the layers take the tensor shapes in
        checkpoint order, and only the output layer has no ReLU and drops its input."""
        cfg = neuralnet.NetworkConfig(num_qubits=3, dropout_rate=0.25)
        layers = zero_net(cfg).layers
        assert [type(layer) for layer in layers] == [
            neuralnet.Conv2D, neuralnet.Conv2D, neuralnet.Dense, neuralnet.Dense, neuralnet.Dense]
        shapes = neuralnet.tensor_shapes(cfg)
        assert [layer.w.shape for layer in layers] == shapes[::2]
        assert [layer.b.shape for layer in layers] == shapes[1::2]
        assert [layer.relu for layer in layers] == [True] * 4 + [False]
        assert [layer.pool for layer in layers[:2]] == [neuralnet.POOL, 1]
        assert [layer.dropout for layer in layers[2:]] == [0.0, 0.0, cfg.dropout_rate]

    def test_layers_are_views_of_the_vectors(self):
        _, net = tiny_net()
        assert len(net.layers) == 5
        for layer in net.layers:
            assert all(np.shares_memory(t, vector) for t, vector in (
                (layer.w, net.params), (layer.b, net.params),
                (layer.dw, net.grads), (layer.db, net.grads)))


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        cfg = neuralnet.NetworkConfig(num_qubits=2)
        net = zero_net(cfg)
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
        maxpool over the 2x2 map keeps 7.5, and ReLU keeps it; the ReLU of the unpooled
        map zeroes -1.5.
        """
        w, b = np.array([[[[1.0, 0.0], [-1.0, 2.0]]]]), np.array([0.5])
        x = np.array([[[[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 1.0, 0.0]]]])
        out = conv_layer(w, b).forward(x)
        np.testing.assert_allclose(out[0, 0], [[3.5, 7.5], [-1.5, 0.5]], atol=1e-15)
        out = conv_layer(w, b, relu=True).forward(x)
        np.testing.assert_allclose(out[0, 0], [[3.5, 7.5], [0.0, 0.5]], atol=1e-15)
        pooled = conv_layer(w, b, neuralnet.POOL, relu=True).forward(x)
        np.testing.assert_allclose(pooled[0, 0], [[7.5]], atol=1e-15)

    def test_pool_floor_discards_trailing_row(self):
        x = np.arange(15.0).reshape(1, 1, 5, 3)
        pool = pool_layer(1)
        out = pool.forward(x, train=True)
        np.testing.assert_array_equal(out[0, 0], [[4.0], [10.0]])
        dx = pool.backward(np.array([[[[2.0], [3.0]]]]))
        want = np.zeros((5, 3))
        want[1, 1], want[3, 1] = 2.0, 3.0
        np.testing.assert_array_equal(dx[0, 0], want)  # dropped row 4 and column 2 stay zero

    def test_dropout_train_versus_infer(self):
        """The output layer over identity weights and zero biases passes its dropped input
        through."""
        w = np.eye(10)
        layer = neuralnet.Dense(w, np.zeros(10), np.empty_like(w), np.empty(10), relu=False,
                                dropout=0.5)
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


def pooled_conv_oracle(x, w, b, s, dout):
    """``conv_oracle`` then ``pool_oracle``: output, dw, db and dx of a convolution followed
    by s x s max pooling."""
    n, _, h, wd = x.shape
    f, _, k, _ = w.shape
    maps = conv_oracle(x, w, b, np.zeros((n, f, h - k + 1, wd - k + 1)))[0]
    out, dmaps = pool_oracle(maps, s, dout)
    return (out, *conv_oracle(x, w, b, dmaps)[1:])


class TestKernels:
    @pytest.mark.parametrize("k", [2, 3])
    def test_conv_matches_loop_oracle(self, k):
        """Unpooled, then pooled as conv1 is."""
        rng = sampling.stream(520 + k)
        x = rng.standard_normal((2, 3, 7, 4))
        w = rng.standard_normal((2, 3, k, k)) * np.sqrt(2.0 / (3 * k * k))
        b = rng.standard_normal(2)
        for pool in (1, neuralnet.POOL):
            conv = conv_layer(w, b, pool)
            out = conv.forward(x, train=True)
            dout = rng.standard_normal(out.shape)
            dx = conv.backward(dout)
            want = pooled_conv_oracle(x, w, b, pool, dout)
            for got, ref in zip((out, conv.dw, conv.db, dx), want):
                assert got.shape == ref.shape
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_pool_tie_goes_to_first_maximum(self):
        """Windows [[1, 3], [3, 0]] and all-zero (dead ReLU) ties."""
        x = np.array([[[[1.0, 3.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]]]])
        pool = pool_layer(1)
        np.testing.assert_array_equal(pool.forward(x, train=True), [[[[3.0, 0.0]]]])
        dx = pool.backward(np.array([[[[5.0, 7.0]]]]))
        np.testing.assert_array_equal(dx, [[[[0.0, 5.0, 7.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]])

    @pytest.mark.parametrize("size, shape", [(2, (5, 3)), (2, (36, 6))])
    def test_pool_matches_loop_oracle(self, size, shape):
        rng = sampling.stream(530 + size)
        # Rounded values give many ties: non-negative as after a ReLU, and
        # signed, with negative ties, as the conv output the network pools.
        signed = np.round(rng.standard_normal((2, 3) + shape), 1)
        for x in (np.maximum(signed, 0.0), signed):
            pool = pool_layer(3)
            out = pool.forward(x, train=True)
            dout = rng.standard_normal(out.shape)
            want_out, _, _, want_dx = pooled_conv_oracle(x, pool.w, pool.b, size, dout)
            np.testing.assert_array_equal(out, want_out)
            np.testing.assert_array_equal(pool.backward(dout), want_dx)


def reference_network(net):
    """A network over ``net``'s parameters built from the reference layers of ``oracles``:
    conv1 unpooled, then a separate max pool, and conv2, each followed by a separate ReLU,
    a separate flatten, dense layers without their own ReLU or dropout, each hidden one
    followed by a ReLU, and a separate dropout ahead of the output layer."""
    ref = neuralnet.Network(net.config, net.params, net.accumulator)
    conv1, conv2, dense1, dense2, out = ref.layers

    def bare(layer):
        return neuralnet.Dense(layer.w, layer.b, layer.dw, layer.db, relu=False)

    ref.layers = [oracles.Conv2D(conv1.w, conv1.b, conv1.dw, conv1.db), oracles.MaxPool2D(),
                  oracles.ReLU(), oracles.Conv2D(conv2.w, conv2.b, conv2.dw, conv2.db),
                  oracles.ReLU(), oracles.Flatten(), bare(dense1), oracles.ReLU(),
                  bare(dense2), oracles.ReLU(), oracles.Dropout(net.config.dropout_rate),
                  bare(out)]
    return ref


class TestReferenceFrontEnd:
    """The pooled conv1 and the im2col conv2 give the bits of the reference front end."""

    @pytest.mark.parametrize("count", [1, 37, 100])
    @pytest.mark.parametrize("settings", [dict(num_qubits=2), dict(num_qubits=3), TINY,
                                          dict(num_qubits=4, conv_filters=2, dense_widths=(8, 4))],
                             ids=["m2", "m3", "tiny", "m4-smoke"])
    def test_forward_gradients_and_predict_are_bit_equal(self, settings, count):
        cfg = neuralnet.NetworkConfig(seed=13, **settings)
        net = neuralnet.Network.build(cfg, sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM))
        rng = sampling.stream(560, count)
        grids = rng.random((count, 1) + neuralnet.grid_shape(cfg.num_qubits))
        targets = rng.standard_normal((count, cfg.tau_width))
        results = []
        for network in (net, reference_network(net)):
            results.append([
                network.forward(grids),
                network.forward(grids, train=True, rng=sampling.stream(43)),
                np.float64(neuralnet.compute_gradients(network, grids, targets,
                                                       sampling.stream(43))),
                network.grads.copy(),
                network.predict(grids.reshape(count, -1)),
            ])
        for got, want in zip(*results):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestWindowIndex:
    def test_one_cached_index_serves_every_batch_size(self):
        """The im2col index is keyed without the row count and cannot be written."""
        cfg = neuralnet.NetworkConfig(num_qubits=3, seed=13)
        net = neuralnet.Network.build(cfg, sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM))
        rng = sampling.stream(561)
        sizes = []
        for count in (1, 37, 100):
            grids = rng.random((count, 1) + neuralnet.grid_shape(3))
            net.forward(grids)
            neuralnet.compute_gradients(net, grids, rng.standard_normal((count, cfg.tau_width)),
                                        sampling.stream(43))
            sizes.append(neuralnet._window_index.cache_info().currsize)
        assert sizes[1:] == sizes[:1] * 2
        idx = neuralnet._window_index(1, 36, 6, 2, 0, 0, 2, 17, 2)
        assert idx.shape == (34, 4)
        with pytest.raises(ValueError):
            idx[0, 0] = 0


class OldReLU:
    """The ReLU form the network used before pooling moved ahead of conv1's ReLU."""

    def forward(self, x, train=False, rng=None):
        self.mask = x > 0
        return x * self.mask

    def backward(self, dout):
        return dout * self.mask


class TestLayerOrder:
    def test_pool_then_relu_matches_relu_then_pool(self):
        """conv -> pool -> ReLU gives the output and gradients of conv -> ReLU -> pool.

        Rounded inputs and half-integer conv1 weights give conv1 maps with
        exact ties, negative ones included; the reference network shares the
        parameters of ``Network.build``'s, with the reference front end (a separate conv
        and pool) and every ReLU in the old form.
        """
        cfg, net = tiny_net()
        rng = sampling.stream(540)
        conv1, *_ = net.layers
        assert (type(conv1), conv1.pool, conv1.relu) == (neuralnet.Conv2D, neuralnet.POOL, True)
        conv1.w[...] = np.round(2 * conv1.w) / 2
        conv1.b[...] = [-0.5, 0.5]
        old = reference_network(net)
        old_conv1, old_pool, _, *old_rest = old.layers
        old.layers = [old_conv1, OldReLU(), old_pool] + [
            OldReLU() if isinstance(layer, oracles.ReLU) else layer for layer in old_rest]
        grids = np.round(rng.standard_normal((6, 1, 6, 6)))
        targets = rng.standard_normal((6, 16))
        maps = old_conv1.forward(grids)
        assert (maps < 0).any() and (maps > 0).any()
        taps = np.stack(old_pool._taps(maps))
        top = taps.max(axis=0)
        assert ((taps == top).sum(axis=0)[top < 0] > 1).any()  # a window with a negative tie

        results = []
        for network in (net, old):
            out = network.forward(grids, train=True, rng=sampling.stream(41))
            value = neuralnet.compute_gradients(network, grids, targets, sampling.stream(41))
            results.append((out, value, network.grads))
        (out, value, grads), (old_out, old_value, old_grads) = results
        np.testing.assert_array_equal(out, old_out)
        assert value == old_value
        np.testing.assert_array_equal(grads, old_grads)


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
        value = neuralnet.compute_gradients(net, grids, pred, sampling.stream(42))
        assert value == 0.0
        assert np.abs(net.grads).max() <= 1e-10

    def test_finite_difference_all_layer_types(self):
        """Central differences (h=1e-5) against every parameter of the tiny net.

        The tiny configuration (2 filters, dense widths 8 and 4) has 168
        trainable parameters in total, so the check is exhaustive and covers
        every layer type including the dropout path.
        """
        cfg, net = tiny_net()
        rng = sampling.stream(509)
        grids = rng.random((5, 1, 6, 6))
        targets = rng.standard_normal((5, 16)) * 0.3

        def loss_value():
            pred = net.forward(grids, train=True, rng=sampling.stream(1234))
            return neuralnet.loss(pred, targets)

        neuralnet.compute_gradients(net, grids, targets, sampling.stream(1234))
        grads = net.grads.copy()
        params = net.params  # every layer's w and b are views into it
        h = 1e-5
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
            assert abs(fd - grads[idx]) / scale <= 1e-4
            checked += 1
        assert checked == sum(math.prod(s) for s in neuralnet.tensor_shapes(cfg)) == 168

    def test_conv2_keeps_its_im2col_from_a_training_forward_to_its_weight_gradient(
            self, monkeypatch):
        """A training batch gathers conv2's windows once, in the forward pass, and conv1's
        five times (four pool taps, then the full map in its weight gradient); no conv holds
        an im2col matrix after an inference forward or after the backward pass."""
        cfg = neuralnet.NetworkConfig(num_qubits=3, seed=3)
        net = neuralnet.Network.build(cfg, sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM))
        convs = net.layers[:2]
        cols, gathered = neuralnet.Conv2D._cols, []
        monkeypatch.setattr(neuralnet.Conv2D, "_cols", lambda layer, *args: gathered.append(
            convs.index(layer)) or cols(layer, *args))
        rng = sampling.stream(517)
        grids = rng.random((7, 1) + neuralnet.grid_shape(3))
        net.forward(grids, train=True, rng=sampling.stream(46))
        assert convs[0].cols is None and convs[1].cols.shape == (7 * 16, 25 * 2 * 2)
        net.forward(grids)
        assert [conv.cols for conv in convs] == [None, None]
        gathered.clear()
        neuralnet.compute_gradients(net, grids, rng.standard_normal((7, cfg.tau_width)),
                                    sampling.stream(46))
        assert gathered == [0, 0, 0, 0, 1, 0]
        assert [conv.cols for conv in convs] == [None, None]

    def test_backward_frees_the_forward_state(self):
        """After ``predict``, also one that follows a training forward, and after a batch, no
        layer holds its output, its input, a pool index, an im2col matrix, a dropout mask or
        its input shape, so conv1's full-size map is built with conv1's output and conv2's
        already freed."""
        _, net = tiny_net()
        rng = sampling.stream(513)
        grids = rng.random((5, 1, 6, 6))
        net.forward(grids, train=True, rng=sampling.stream(44))
        assert all(layer.out is not None for layer in net.layers)
        assert net.layers[-1].mask is not None
        net.predict(grids.reshape(5, 36))
        assert held_state(net) == []
        neuralnet.compute_gradients(net, grids, rng.standard_normal((5, 16)), sampling.stream(44))
        assert held_state(net) == []

    @pytest.mark.parametrize("rate", [0.5, 0.0])
    def test_backward_leaves_the_callers_dout(self, rate):
        """Each ReLU masks its dout in place, but the caller's dout reaches only the output
        layer, which has none."""
        cfg = neuralnet.NetworkConfig(seed=3, dropout_rate=rate, **TINY)
        net = neuralnet.Network.build(cfg, sampling.stream(3, neuralnet.TRAIN_STREAM))
        rng = sampling.stream(514)
        pred = net.forward(rng.random((5, 1, 6, 6)), train=True, rng=sampling.stream(45))
        dout = rng.standard_normal(pred.shape)
        kept = dout.copy()
        net.backward(dout)
        assert np.abs(net.grads).max() > 0
        np.testing.assert_array_equal(dout.view(np.uint64), kept.view(np.uint64))

    @pytest.mark.parametrize("m, bound_mb", [(2, 1.32), (3, 5.05)])
    def test_training_batch_peak(self, m, bound_mb):
        """The tracemalloc peak of one 100-row training batch at default widths stays under a
        bound between its peak (1.255 MB at m=2, where conv2's kept im2col matrix is alive at
        the peak, and 4.884 MB at m=3) and those of a ReLU mask that copies dout (1.552 and
        5.207 MB), which keeps the unmasked array alive through ``Network.backward``'s loop,
        and of dense layers that keep their inputs after their backward pass (1.448 and
        5.819 MB). Measured with numpy 2.4.6."""
        cfg = neuralnet.NetworkConfig(num_qubits=m)
        rng = sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM)
        net = neuralnet.Network.build(cfg, rng)
        data = sampling.stream(515)
        grids = data.random((100, 1) + neuralnet.grid_shape(m))
        targets = data.standard_normal((100, cfg.tau_width))
        neuralnet.compute_gradients(net, grids, targets, rng)  # caches the im2col indices
        tracemalloc.start()
        try:
            neuralnet.compute_gradients(net, grids, targets, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6

    def test_batch_doubling_invariance(self):
        """Duplicating every example leaves the mean-loss gradient unchanged."""
        _, net = tiny_net()
        rng = sampling.stream(510)
        grids = rng.random((4, 1, 6, 6))
        targets = rng.standard_normal((4, 16))
        cfg = neuralnet.NetworkConfig(seed=3, dropout_rate=0.0, **{k: v for k, v in TINY.items()})
        net = neuralnet.Network.build(cfg, sampling.stream(3, neuralnet.TRAIN_STREAM))
        neuralnet.compute_gradients(net, grids, targets, None)
        single = net.grads.copy()
        doubled_grids = np.concatenate([grids, grids])
        doubled_targets = np.concatenate([targets, targets])
        neuralnet.compute_gradients(net, doubled_grids, doubled_targets, None)
        assert np.abs(single - net.grads).max() <= 1e-12


class TestAdagrad:
    def test_zero_gradient_leaves_parameters(self):
        p = np.ones(4)
        neuralnet.adagrad_step(p, np.zeros_like(p), np.zeros(4), 0.01)
        np.testing.assert_array_equal(p, np.ones(4))

    def test_first_step_is_signed_learning_rate(self):
        """From a zero accumulator the step is lr * sign(g) for |g| >> eps."""
        p = np.zeros(3)
        neuralnet.adagrad_step(p, np.zeros_like(p), np.array([0.5, -2.0, 1e-3]), 0.01)
        np.testing.assert_allclose(p, [-0.01, 0.01, -0.01], rtol=1e-4)

    def test_accumulators_never_decrease(self):
        rng = sampling.stream(511)
        p, accumulator = np.zeros(8), np.zeros(8)
        prev = accumulator.copy()
        for _ in range(100):
            neuralnet.adagrad_step(p, accumulator, rng.standard_normal(8), 0.01)
            assert np.all(accumulator >= prev)
            prev = accumulator.copy()

    @pytest.mark.parametrize("size", [
        1, neuralnet._ADAGRAD_BLOCK - 1, neuralnet._ADAGRAD_BLOCK, neuralnet._ADAGRAD_BLOCK + 1,
        3 * neuralnet._ADAGRAD_BLOCK + 7,
        *(sum(math.prod(shape) for shape in neuralnet.tensor_shapes(
            neuralnet.NetworkConfig(num_qubits=m))) for m in (2, 3))])
    def test_blocked_step_equals_whole_vector_step(self, size):
        """50 steps a slice at a time give the bits of 50 steps over the whole vectors, at
        lengths around the slice size and at the m=2 and m=3 parameter counts, with elements
        whose gradient is always zero and whole slices of zero gradient at some steps."""
        block = neuralnet._ADAGRAD_BLOCK
        rng = sampling.stream(516, size)
        params = rng.standard_normal(size)
        want, accumulator, want_acc = params.copy(), np.zeros(size), np.zeros(size)
        for step in range(50):
            grads = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 2)
            grads[::7] = 0.0
            if step % 5 == 0:
                start = (step // 5) % math.ceil(size / block) * block
                grads[start : start + block] = 0.0
            oracles.adagrad_step(want, want_acc, grads.copy(), 0.01)
            neuralnet.adagrad_step(params, accumulator, grads, 0.01)
        np.testing.assert_array_equal(params.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(accumulator.view(np.uint64), want_acc.view(np.uint64))

    def test_step_matches_plain_formula(self):
        """50 steps on several shapes' concatenation equal a += g*g;
        p -= lr*g/(sqrt(a)+1e-8) per shape, bit for bit."""
        rng = sampling.stream(512)
        shapes = [(3, 1, 2, 2), (3,), (17, 5), (5,)]
        want = [rng.standard_normal(shape) for shape in shapes]
        want_acc = [np.zeros_like(p) for p in want]
        params = np.concatenate([p.ravel() for p in want])
        accumulator = np.zeros_like(params)
        for _ in range(50):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2) for shape in shapes]
            for p, g, a in zip(want, grads, want_acc):
                a += g * g
                p -= 0.01 * g / (np.sqrt(a) + 1e-8)
            neuralnet.adagrad_step(params, accumulator,
                                   np.concatenate([g.ravel() for g in grads]), 0.01)
        np.testing.assert_array_equal(params, np.concatenate([p.ravel() for p in want]))
        np.testing.assert_array_equal(accumulator,
                                      np.concatenate([a.ravel() for a in want_acc]))


class TestTraining:
    def test_overfits_ten_states(self):
        """Loss on a 10-state training set drops markedly over 50 epochs."""
        _, meas, taus = small_dataset(2, 10, 601)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=4, dense_widths=(32, 16),
            batch_size=10, max_epochs=50, seed=1, dropout_rate=0.0,
        )
        _, history = neuralnet.train(cfg, meas, taus, meas, taus)
        assert history.losses[49] < history.losses[0]

    def test_deterministic_history(self):
        _, meas, taus = small_dataset(2, 60, 602)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=3, dense_widths=(16, 8), max_epochs=4, seed=5
        )
        _, h1 = neuralnet.train(cfg, meas[:40], taus[:40], meas[40:], taus[40:])
        _, h2 = neuralnet.train(cfg, meas[:40], taus[:40], meas[40:], taus[40:])
        assert h1.losses == h2.losses
        assert h1.val_fidelities == h2.val_fidelities
        assert h1.best_epoch == h2.best_epoch

    def test_validation_fidelities_in_range_and_best_selected(self):
        _, meas, taus = small_dataset(2, 60, 603)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=3, dense_widths=(16, 8), max_epochs=5, seed=6
        )
        net, history = neuralnet.train(cfg, meas[:40], taus[:40], meas[40:], taus[40:])
        assert all(0.0 <= f <= 1.0 for f in history.val_fidelities)
        best = neuralnet.mean_reconstruction_fidelity(net, meas[40:], taus[40:])
        assert best == pytest.approx(max(history.val_fidelities), abs=1e-12)

    def test_best_epoch_beats_first_epoch(self):
        """On a 20+ epoch run with 1000+ states, selection can only improve."""
        _, meas, taus = small_dataset(2, 1100, 604)
        cfg = neuralnet.NetworkConfig(
            num_qubits=2, conv_filters=4, dense_widths=(32, 16), max_epochs=20, seed=2
        )
        _, history = neuralnet.train(cfg, meas[:1000], taus[:1000], meas[1000:], taus[1000:])
        assert max(history.val_fidelities) >= history.val_fidelities[0]

    def test_training_run_peak(self, monkeypatch):
        """A 3-epoch run at m=2 default widths, on a seed where every epoch improves, peaks
        from its first batch under a bound between its peak with the one snapshot refreshed in
        place (7.46 MB) and that of a fresh snapshot copied at each improving epoch while the
        last is alive (9.25 MB). Measured with numpy 2.4.6."""
        _, meas, taus = small_dataset(2, 120, 5)
        cfg = neuralnet.NetworkConfig(num_qubits=2, max_epochs=3, seed=1)
        runs = []
        peak = peak_from_first_batch(monkeypatch, lambda: runs.append(
            neuralnet.train(cfg, meas[:100], taus[:100], meas[100:], taus[100:])))
        assert len(improving_epochs(runs[0][1].val_fidelities)) >= 2
        assert peak < 8.3e6

    def test_best_epoch_snapshot_is_kept_bit_for_bit(self):
        """A 5-epoch run whose best epoch b is neither the first nor the last returns the
        bytes of the same run stopped after b + 1 epochs: the snapshot is a copy, refreshed at
        b, not a view of the vectors that later epochs step."""
        _, meas, taus = small_dataset(2, 120, 5)
        cfg = neuralnet.NetworkConfig(num_qubits=2, max_epochs=5, seed=0)
        net, history = neuralnet.train(cfg, meas[:100], taus[:100], meas[100:], taus[100:])
        b = history.best_epoch
        assert 0 < b < 4
        cut, _ = neuralnet.train(replace(cfg, max_epochs=b + 1), meas[:100], taus[:100],
                                 meas[100:], taus[100:])
        assert net.params.tobytes() == cut.params.tobytes()
        assert net.accumulator.tobytes() == cut.accumulator.tobytes()

    def test_resumed_run_forms_no_orthogonal_matrix(self, monkeypatch):
        """With ``np.linalg.qr`` raising, a resumed run still trains, and gives the bytes of
        the same resumed run with it in place."""
        _, meas, taus = small_dataset(2, 40, 612)
        cfg = neuralnet.NetworkConfig(num_qubits=2, max_epochs=2, seed=3)
        init = neuralnet.Network.build(cfg, sampling.stream(8))
        runs = [neuralnet.train(cfg, meas[:30], taus[:30], meas[30:], taus[30:], init)]

        def no_qr(*args, **kwargs):
            raise AssertionError("a resumed run took a QR")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        runs.append(neuralnet.train(cfg, meas[:30], taus[:30], meas[30:], taus[30:], init))
        (a, a_history), (b, b_history) = runs
        assert a_history == b_history
        assert a.params.tobytes() == b.params.tobytes()
        assert a.accumulator.tobytes() == b.accumulator.tobytes()

    def test_resumed_run_draws_no_normal(self, monkeypatch):
        """With a training stream that raises on ``standard_normal``, a resumed run still
        trains, and gives the bytes of the same resumed run on the plain stream: its stream
        starts at the first shuffle."""
        _, meas, taus = small_dataset(2, 40, 612)
        cfg = neuralnet.NetworkConfig(num_qubits=2, max_epochs=2, seed=3)
        init = neuralnet.Network.build(cfg, sampling.stream(8))
        runs = [neuralnet.train(cfg, meas[:30], taus[:30], meas[30:], taus[30:], init)]

        class NoNormals(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                raise AssertionError("a resumed run drew a normal")

        stream = sampling.stream
        monkeypatch.setattr(sampling, "stream", lambda *args: NoNormals(stream(*args).bit_generator))
        runs.append(neuralnet.train(cfg, meas[:30], taus[:30], meas[30:], taus[30:], init))
        (a, a_history), (b, b_history) = runs
        assert a_history == b_history
        assert a.params.tobytes() == b.params.tobytes()
        assert a.accumulator.tobytes() == b.accumulator.tobytes()

    def test_init_state_of_another_architecture_rejected(self):
        """Equal parameter counts, other shapes: the per-tensor check names the first pair."""
        _, meas, taus = small_dataset(2, 20, 605)
        cfg = neuralnet.NetworkConfig(num_qubits=2, conv_filters=2, dense_widths=(6, 4),
                                      max_epochs=1)
        source = zero_net(neuralnet.NetworkConfig(num_qubits=2, conv_filters=3,
                                                  dense_widths=(2, 4)))
        assert source.params.size == zero_net(cfg).params.size
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 1, 2, 2\) vs \(3, 1, 2, 2\)"):
            neuralnet.train(cfg, meas, taus, meas, taus, source)

    def test_m_mismatch_rejected(self):
        _, meas, taus = small_dataset(2, 20, 605)
        cfg = neuralnet.NetworkConfig(num_qubits=3, max_epochs=1)
        with pytest.raises(ValueError, match="config expects"):
            neuralnet.train(cfg, meas, taus, meas, taus)


class TestInfer:
    """Inference goes through the one batched path, ``adapt.reconstruct``."""

    def test_untrained_output_is_physical(self):
        _, net = tiny_net()
        factors = adapt.reconstruct(net, sampling.stream(606).random((20, 36)), "engineered")
        qcore.assert_physical(qcore.density(factors))

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
        net, _ = neuralnet.train(cfg, meas[:1000], taus[:1000], meas[1000:], taus[1000:])
        held_factors, held_meas, _ = small_dataset(2, 40, 609)
        estimates = adapt.reconstruct(net, held_meas, "engineered")
        net_fid = np.mean(qcore.fidelity(estimates, held_factors))
        mixed_fid = np.mean(qcore.fidelity(held_factors, np.eye(4)))
        assert net_fid > mixed_fid

    def test_predict_ignores_batch_size(self, monkeypatch):
        """Networks over one ``params`` that differ only in batch size predict the same bits,
        and every forward ``predict`` makes has exactly ``PREDICT_ROWS`` rows."""
        configs = [neuralnet.NetworkConfig(num_qubits=2, batch_size=b) for b in (1, 7, 2**32 - 1)]
        params = neuralnet.Network.build(configs[0], sampling.stream(610)).params
        rows = sampling.stream(611).random((250, 36))
        forward, seen = neuralnet.Network.forward, []
        monkeypatch.setattr(neuralnet.Network, "forward",
                            lambda net, grids, *a, **k: seen.append(len(grids)) or
                            forward(net, grids, *a, **k))
        first, *rest = (neuralnet.Network(cfg, params, np.zeros_like(params)).predict(rows)
                        for cfg in configs)
        for taus in rest:
            np.testing.assert_array_equal(taus, first)
        assert seen == [neuralnet.PREDICT_ROWS] * 9

    def test_predict_peak(self):
        """The tracemalloc peak of ``predict`` on 250 m=3 rows at default widths, after a
        warm-up call, stays under a bound between its peak with no layer keeping an inference
        forward's outputs and inputs (2.65 MB) and that of layers that keep them (4.45 MB).
        Measured with numpy 2.4.6."""
        cfg = neuralnet.NetworkConfig(num_qubits=3)
        net = neuralnet.Network.build(cfg, sampling.stream(cfg.seed, neuralnet.TRAIN_STREAM))
        rows = sampling.stream(616).random((250, 6**3))
        net.predict(rows)  # caches the im2col indices
        tracemalloc.start()
        try:
            net.predict(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.3e6

    def test_wrong_length_rejected(self):
        _, net = tiny_net()
        with pytest.raises(ValueError, match="power of six"):
            adapt.reconstruct(net, np.zeros((1, 7)), "engineered")
        with pytest.raises(ValueError, match="trained on"):
            adapt.reconstruct(net, np.zeros((1, 216)), "engineered")


class TestCheckpoints:
    def test_roundtrip_is_bitwise(self, tmp_path):
        """A network whose accumulator an Adagrad step changed loads as a network with the
        saved parameters and accumulator, bit for bit."""
        cfg, net = tiny_net(seed=8)
        neuralnet.adagrad_step(net.params, net.accumulator, np.full_like(net.params, 0.125),
                               cfg.learning_rate)
        assert net.accumulator.all()
        path = tmp_path / "model.qstck"
        neuralnet.save_checkpoint(path, net)
        loaded = neuralnet.load_checkpoint(path)
        assert isinstance(loaded, neuralnet.Network) and loaded.config == cfg
        assert loaded.params.tobytes() == net.params.tobytes()
        assert loaded.accumulator.tobytes() == net.accumulator.tobytes()
        v = sampling.stream(610).random((3, 36))
        np.testing.assert_array_equal(
            adapt.reconstruct(net, v, "engineered"), adapt.reconstruct(loaded, v, "engineered")
        )

    def test_little_endian_layout(self, tmp_path):
        """Header <8sI6IddIIQI {magic, version, m, filters, kernel, pool, two dense widths,
        dropout, learning rate, batch size, epochs, seed, tensor count}, a <I{ndim}I shape
        entry per parameter tensor, then every parameter and accumulator as LE doubles."""
        path = tmp_path / "model.qstck"
        _, net = tiny_net(seed=8)
        params = [t for layer in net.layers for t in (layer.w, layer.b)]
        accumulators = [np.full_like(p, 0.25) for p in params]
        net.accumulator[...] = 0.25
        neuralnet.save_checkpoint(path, net)
        header = struct.pack("<8sI6IddIIQI", b"QSTCKPT\x00", 1, 2, 2, 2, 2, 8, 4, 0.5, 0.01,
                             100, 50, 8, 10)
        header += b"".join(struct.pack(f"<I{p.ndim}I", p.ndim, *p.shape) for p in params)
        payload = b"".join(t.astype("<f8").tobytes() for t in params + accumulators)
        assert path.read_bytes() == header + payload

    def test_loaded_network_is_a_read_only_view(self, tmp_path):
        cfg, net = tiny_net(seed=8)
        path = tmp_path / "model.qstck"
        net.accumulator[...] = 0.25
        neuralnet.save_checkpoint(path, net)
        loaded = neuralnet.load_checkpoint(path)
        assert not loaded.params.flags.writeable and not loaded.accumulator.flags.writeable
        np.testing.assert_array_equal(loaded.params, net.params)
        assert [t.shape for layer in loaded.layers
                for t in (layer.w, layer.b)] == neuralnet.tensor_shapes(cfg)
        assert loaded.grads.flags.writeable and loaded.grads.shape == net.params.shape

    def test_training_from_a_loaded_checkpoint_matches_the_saved_state(self, tmp_path):
        """A run resumed from the file's read-only vectors writes the bytes of one resumed
        from the writeable arrays that were saved."""
        _, meas, taus = small_dataset(2, 40, 611)
        cfg = neuralnet.NetworkConfig(max_epochs=2, **TINY)
        net, _ = neuralnet.train(cfg, meas[:30], taus[:30], meas[30:], taus[30:])
        path = tmp_path / "model.qstck"
        neuralnet.save_checkpoint(path, net)
        runs = [neuralnet.train(cfg, meas[:30], taus[:30], meas[30:], taus[30:], init)
                for init in (net, neuralnet.load_checkpoint(path))]
        (a, a_history), (b, b_history) = runs
        assert a_history == b_history
        np.testing.assert_array_equal(a.params.view(np.uint64), b.params.view(np.uint64))
        np.testing.assert_array_equal(a.accumulator, b.accumulator)

    def test_shapes_beyond_the_table_fields_are_format_error(self, tmp_path):
        """m = 12 asks for a dense layer of 25 * 23326**2 inputs, more than a uint32 holds."""
        net = zero_net(neuralnet.NetworkConfig(num_qubits=2))
        path = tmp_path / "model.qstck"
        neuralnet.save_checkpoint(path, net)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 12, 12)
        path.write_bytes(bytes(raw))
        with pytest.raises(neuralnet.FormatError, match="no network"):
            neuralnet.load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 2**64),
                                              ("batch_size", 2**32), ("max_epochs", 2**32)])
    def test_config_beyond_the_header_fields_rejected(self, field, value):
        """A config that ``save_checkpoint`` could not write is rejected when made."""
        with pytest.raises(ValueError, match=f"{field}={value}.* does not fit the checkpoint"):
            neuralnet.NetworkConfig(num_qubits=2, **{field: value})

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "model.qstck"
        _, net = tiny_net()
        neuralnet.save_checkpoint(path, net)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(neuralnet.FormatError, match="magic"):
            neuralnet.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.qstck"
        _, net = tiny_net()
        neuralnet.save_checkpoint(path, net)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(neuralnet.FormatError, match="payload"):
            neuralnet.load_checkpoint(path)

    def test_corrupt_shape_table_detected(self, tmp_path):
        path = tmp_path / "model.qstck"
        _, net = tiny_net()
        neuralnet.save_checkpoint(path, net)
        raw = bytearray(path.read_bytes())
        # First shape-table entry sits after magic+version+config block.
        off = 8 + 4 + 24 + 8 + 8 + 4 + 4 + 8 + 4
        raw[off : off + 4] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(neuralnet.FormatError):
            neuralnet.load_checkpoint(path)
