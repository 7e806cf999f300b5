"""From-scratch convolutional network mapping measurement vectors to tau vectors.

Architecture (valid boundaries, stride 1, all double precision):

    input grid -> conv 2x2 (25 filters) -> maxpool 2x2 (stride 2, floor) -> ReLU
               -> conv 2x2 (25 filters, ReLU) -> flatten
               -> dense (512, ReLU) -> dense (256, ReLU)
               -> inverted dropout (rate 0.5, training only)
               -> linear output of 4**m tau coefficients

``Network.layers`` is ``Conv2D(conv1, POOL)``, ``Conv2D(conv2)``, ``Dense(dense1)``,
``Dense(dense2)``, ``Dense(out, relu=False, dropout=rate)``: five layers, one per checkpointed
w and b. Each hidden layer applies its ReLU in place on its own output, ``Dense`` flattens its
input, and the output layer drops its input in training. Conv1 computes only the outputs its
pool reads, one window tap at a time, with the bits of a separate conv and pool; its ReLU runs
after the pool, on a quarter of the elements, which changes nothing: a monotone ReLU commutes
with the max and routes the gradient to the same tap.

A 6**m measurement vector is laid out row-major on a 6**ceil(m/2) by
6**floor(m/2) grid (m=2: 6x6, m=3: 36x6, m=4: 36x36). m=1 is rejected: the
grid is a single column, too narrow for 2x2 kernels; single-qubit states are
handled by padding into a larger network instead.

Training minimizes the mean square loss between predicted and target tau with Adagrad
(``adagrad_step``, once per batch, one cache-sized slice of the vectors at a time), shuffling
batches each epoch, and keeps the parameters and accumulator of the epoch with the best mean
validation fidelity in one snapshot, refreshed in place at each improving epoch; an ``init``
network is copied, then released, and the weights it replaces are never drawn. Everything
random (weight init, shuffling, dropout masks) is drawn from one Philox stream derived from the
config seed, so a (seed, data, config) triple fully determines the run. A layer holds what a
training forward saves for its backward only until that backward (``_Weighted``).
``Network.predict`` is the one inference path, forwarding rows in zero-filled chunks of
``PREDICT_ROWS``; validation and ``adapt.reconstruct`` use it.
A network is its config plus flat vectors ``params``, ``grads`` and Adagrad's ``accumulator``,
which ``adagrad_step`` steps in place; each layer's w, b, dw and db are views cut by
``tensor_shapes(config)``.
A checkpoint is one network: ``load_checkpoint`` builds it over one read-only, aligned copy of
the file's ``params`` and ``accumulator``. Its header records the fixed kernel and pool (2).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from . import cholesky, qcore, sampling, tomography
from .tomography import FormatError

# Stream index reserved for training (weight init, shuffling, dropout); far
# above any per-state dataset stream index.
TRAIN_STREAM = (1 << 64) - 1

CHECKPOINT_MAGIC = b"QSTCKPT\x00"
CHECKPOINT_VERSION = 1
# m, filters, kernel, pool, the other NetworkConfig fields (dense widths flat), tensor count.
_CONFIG = struct.Struct("<6IddIIQI")

# The one architecture: 2x2 convolution kernels and 2x2 max pooling.
KERNEL = POOL = 2
# Rows of every inference forward, so a row's taus never depend on how many rows share the
# call. Not batch_size, which may be 2**32 - 1; 100 is its default.
PREDICT_ROWS = 100

# Adagrad's denominator offset: no 0/0 where every gradient so far was zero.
_ADAGRAD_EPS = 1e-8
# Elements per slice of an Adagrad step: three slices and the scratch vector, 1 MB, stay in
# cache between the step's passes. Of 8,192 to 65,536, the fastest at m=2 and m=3.
_ADAGRAD_BLOCK = 32768


def grid_shape(m: int) -> tuple[int, int]:
    """Input grid dimensions for an m-qubit measurement vector."""
    if m < 2:
        raise ValueError(
            f"m={m} gives a 6**{m}-entry grid too narrow for 2x2 kernels; "
            "train on m >= 2 and reconstruct smaller systems via padding"
        )
    return 6 ** math.ceil(m / 2), 6 ** (m // 2)


def grids_from_measurements(measurements: np.ndarray) -> np.ndarray:
    """Lay (count, 6**m) measurement rows out row-major as (count, 1, rows, cols) grids."""
    count, width = measurements.shape
    rows, cols = grid_shape(qcore.qubit_count(width, 6))
    return measurements.reshape(count, 1, rows, cols)


@dataclass
class NetworkConfig:
    """Hyperparameters; defaults follow the desk recipe (the paper's trains 300 epochs)."""

    num_qubits: int
    conv_filters: int = 25
    dense_widths: tuple[int, int] = (512, 256)
    dropout_rate: float = 0.5
    learning_rate: float = 0.01
    batch_size: int = 100
    max_epochs: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        grid_shape(self.num_qubits)
        if self.conv_filters < 1:
            raise ValueError(f"conv filters must be positive, got {self.conv_filters}")
        if len(self.dense_widths) != 2 or min(self.dense_widths) < 1:
            raise ValueError(f"expected two positive dense widths, got {self.dense_widths}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if not 0 < self.learning_rate < math.inf or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("learning rate, batch size and max epochs must be positive and finite")
        self._header(0)

    def _header(self, tensor_count: int) -> bytes:
        """The checkpoint's config header; a ValueError if a setting does not fit its field."""
        m, filters, widths, *rest = astuple(self)
        try:
            return _CONFIG.pack(m, filters, KERNEL, POOL, *widths, *rest, tensor_count)
        except struct.error as exc:
            raise ValueError(f"{self} does not fit the checkpoint header: {exc}") from exc

    @property
    def tau_width(self) -> int:
        return 4**self.num_qubits


class _Weighted:
    """A layer with weights ``w``, biases ``b`` and their gradients ``dw``, ``db``: views of
    a network's ``params`` and ``grads``; with ``relu``, a ReLU on its output.

    Each forward replaces the layer's saved state: a training forward saves what its backward
    reads, an inference forward saves nothing, and the backward pass removes it all."""

    def __init__(self, w: np.ndarray, b: np.ndarray, dw: np.ndarray, db: np.ndarray,
                 relu: bool = True):
        self.w, self.b, self.dw, self.db, self.relu = w, b, dw, db, relu

    def _activate(self, out, train):
        """The ReLU, in place on the layer's own output, saved for the backward mask by a
        training forward."""
        if self.relu:
            np.maximum(out, 0.0, out=out)
        self.out = out if train else None
        return out

    def _mask(self, dout):
        """dout through the ReLU, in place: every masked dout is a new array made by the layer
        above (the caller's reaches only the output layer, which has none). With the output
        dropped here and conv2's input by its weight gradient, conv1's output is freed before
        conv1's full-size map is built: the peak of a training batch."""
        if self.relu:
            dout *= self.out > 0
        self.out = None
        return dout


@functools.cache
def _window_index(c, h, w, k, p, q, s, oh, ow) -> np.ndarray:
    """Flat offsets into one channels-last (h, w, c) map of the k x k windows of the outputs
    at rows p + s*i, columns q + s*j: (oh * ow, c * k * k), each window in (channel, row,
    column) order. Read-only, as one array serves every batch size."""
    i, j, ch, a, b = np.ogrid[:oh, :ow, :c, :k, :k]
    idx = (((p + s * i + a) * w + q + s * j + b) * c + ch).reshape(oh * ow, c * k * k)
    idx.flags.writeable = False
    return idx


class Conv2D(_Weighted):
    """Valid-boundary stride-1 convolution, weights (filters, channels, k, k), then
    ``pool`` x ``pool`` max pooling, stride ``pool``, floor division (``pool`` 1: none), and
    the ReLU.

    Only the outputs the pool reads are computed, one window tap (p, q) at a time: the
    outputs at rows p + s*i and columns q + s*j are one GEMM of their im2col rows (one
    ``take`` of a cached window index), plus the bias, and the output keeps the running max.
    Each is the same GEMM row, bias sum and max as in a full map pooled afterwards, so it has
    those bits. Outputs have shape (n, f, ph, pw) but channels-last memory, so the next
    layer's slices step over contiguous channels.

    The weight gradient reads, pooled (conv1), the input and per output the tap of its
    window's first maximum (row-major, as argmax picks), but no im2col matrix, as the full
    map's differs from every tap's; unpooled (conv2), its one im2col matrix, which is the
    full map's. It routes dout to the first maximum's tap of a full-size map, zero elsewhere,
    and runs its im2col GEMM.
    """

    def __init__(self, w, b, dw, db, pool=1, relu=True):
        super().__init__(w, b, dw, db, relu)
        self.pool = pool

    def _cols(self, x, p, q, s, oh, ow):
        """im2col rows (n * oh * ow, c * k * k) of the outputs at rows p + s*i, columns
        q + s*j: one row per output, its window in (channel, row, column) order, gathered
        from the channels-last input by one ``take`` of ``_window_index``."""
        n, c, h, w = x.shape
        idx = _window_index(c, h, w, self.w.shape[-1], p, q, s, oh, ow)
        cols = np.take(x.transpose(0, 2, 3, 1).reshape(n, -1), idx, axis=1)
        return cols.reshape(n * oh * ow, -1)

    def forward(self, x, train=False, rng=None):
        f, s, k = len(self.w), self.pool, self.w.shape[-1]
        ph, pw = (x.shape[2] - k + 1) // s, (x.shape[3] - k + 1) // s
        # only a training forward is followed by a backward pass
        pooled = train and s > 1
        self.x = x if pooled else None
        self.first = np.zeros((len(x), ph, pw, f), np.uint8) if pooled else None
        bias = np.tile(self.b, ph * pw)  # over whole rows: a long inner loop, the same adds
        for t, (p, q) in enumerate(np.ndindex(s, s)):
            cols = self._cols(x, p, q, s, ph, pw)
            self.cols = cols if train and s == 1 else None
            tap = np.dot(cols, self.w.reshape(f, -1).T)
            tap = tap.reshape(len(x), -1)
            tap += bias
            tap = tap.reshape(len(x), ph, pw, f)
            if t == 0:
                out = tap
                continue
            if self.first is not None:  # t exceeds every earlier tap index: a masked write
                np.maximum(self.first, (tap > out) * np.uint8(t), out=self.first)
            np.maximum(out, tap, out=out)
        return self._activate(out.transpose(0, 3, 1, 2), train)  # channels-last, (n, f, ph, pw)

    def _unpool(self, dout):
        """dout of the full conv map: each output's at its first maximum's tap, zero at
        the other taps and in the rows and columns the floor division drops."""
        if self.pool == 1:
            return dout
        s, k = self.pool, self.w.shape[-1]
        n, f, ph, pw = dout.shape
        full = np.zeros((n, self.x.shape[2] - k + 1, self.x.shape[3] - k + 1, f))
        full = full.transpose(0, 3, 1, 2)
        first = self.first.transpose(0, 3, 1, 2)
        for t, (p, q) in enumerate(np.ndindex(s, s)):
            np.multiply(dout, first == t, out=full[:, :, p : ph * s : s, q : pw * s : s])
        return full

    def weight_grads(self, dout):
        """Write dw and db, without the input gradient ``backward`` also returns; returns
        the full map's dout."""
        dout = self._unpool(self._mask(dout))
        _, f, oh, ow = dout.shape
        cols = self._cols(self.x, 0, 0, 1, oh, ow) if self.cols is None else self.cols
        self.x = self.cols = self.first = None
        self.dw[...] = np.dot(dout.transpose(1, 0, 2, 3).reshape(f, -1), cols).reshape(
            self.dw.shape)
        np.einsum("nfhw->f", dout, out=self.db)  # twice as fast as sum() on channels-last dout
        return dout

    def backward(self, dout):
        dout = self.weight_grads(dout)
        n, _, oh, ow = dout.shape
        _, c, k, _ = self.w.shape
        # Columns (n, oh, ow, c, k, k), then col2im: add each tap back at its offset.
        cols = np.tensordot(dout, self.w, axes=([1], [0]))
        dx = np.zeros((n, oh + k - 1, ow + k - 1, c))
        for p in range(k):
            for q in range(k):
                dx[:, p : p + oh, q : q + ow] += cols[..., p, q]
        return dx.transpose(0, 3, 1, 2)


def _orthogonal(shape: tuple[int, int], rng, gain: float) -> np.ndarray:
    """gain * Q of the reduced QR of a (max, min) normal draw, sign-fixed from R's diagonal:
    orthonormal columns, transposed to orthonormal rows for a wide shape."""
    q, r = np.linalg.qr(rng.standard_normal((max(shape), min(shape))))
    q = q * np.where(np.diagonal(r) >= 0, 1.0, -1.0)
    return gain * (q if shape[0] >= shape[1] else q.T)


class Dense(_Weighted):
    """Fully connected layer over the flattened input; weights (inputs, outputs). A training
    forward at a ``dropout`` rate first drops that input, scaling kept units by 1/(1-rate)."""

    def __init__(self, w, b, dw, db, relu=True, dropout=0.0):
        super().__init__(w, b, dw, db, relu)
        self.dropout = dropout

    def forward(self, x, train=False, rng=None):
        in_shape, x = x.shape, x.reshape(len(x), -1)
        self.mask = None
        if train and self.dropout != 0.0:
            if rng is None:
                raise ValueError("training-mode dropout needs a random generator")
            self.mask = (rng.random(x.shape) >= self.dropout) / (1.0 - self.dropout)
            x = x * self.mask
        self.in_shape, self.x = (in_shape, x) if train else (None, None)
        out = x @ self.w
        out += self.b
        return self._activate(out, train)

    def backward(self, dout):
        dout = self._mask(dout)
        np.matmul(self.x.T, dout, out=self.dw)
        self.x = None  # so dense1's input, conv2's output, is freed before conv2's backward
        dout.sum(axis=0, out=self.db)
        dx = dout @ self.w.T
        if self.mask is not None:
            dx *= self.mask
        dx = dx.reshape(self.in_shape)
        self.mask = self.in_shape = None
        return dx


def tensor_shapes(config: NetworkConfig) -> list[tuple[int, ...]]:
    """Each weighted layer's w then b shape, in checkpoint order: conv1, conv2, then the
    three dense layers."""
    f, (d1, d2), tau = config.conv_filters, config.dense_widths, config.tau_width
    # Map side after conv, pool and conv; at least 1, as every grid side is >= 6.
    h, w = ((side - KERNEL + 1) // POOL - KERNEL + 1 for side in grid_shape(config.num_qubits))
    return [(f, 1, KERNEL, KERNEL), (f,), (f, f, KERNEL, KERNEL), (f,),
            (f * h * w, d1), (d1,), (d1, d2), (d2,), (d2, tau), (tau,)]


class Network:
    """The layer pipeline over a flat parameter vector ``params`` cut into the
    ``tensor_shapes`` of its config, ``grads`` cut the same way, and ``accumulator``."""

    def __init__(self, config: NetworkConfig, params: np.ndarray, accumulator: np.ndarray):
        self.config, self.params, self.accumulator = config, params, accumulator
        self.grads = np.zeros(params.shape)
        shapes = tensor_shapes(config)
        cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        p, g = ([t.reshape(shape) for t, shape in zip(np.split(v, cuts), shapes)]
                for v in (params, self.grads))
        conv1, conv2, dense1, dense2, out = zip(p[::2], p[1::2], g[::2], g[1::2])  # w, b, dw, db
        self.layers = [Conv2D(*conv1, POOL), Conv2D(*conv2), Dense(*dense1), Dense(*dense2),
                       Dense(*out, relu=False, dropout=config.dropout_rate)]

    @classmethod
    def build(cls, config: NetworkConfig, rng) -> "Network":
        """A network of weights drawn from ``rng``, zero biases and a zero accumulator:
        He-normal convolutions, then orthogonal dense layers from r * c normals each, gain
        sqrt(2) where a ReLU follows and 1 for the linear output. Orthogonal starts reach usable
        validation fidelity in far fewer Adagrad epochs than scaled-normal ones at desk scale."""
        shapes = tensor_shapes(config)
        gains = iter((np.sqrt(2.0), np.sqrt(2.0), 1.0))
        weights = [rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[1:]))
                   if len(shape) == 4 else _orthogonal(shape, rng, next(gains))
                   for shape in shapes[::2]]
        tensors = (t for w, b in zip(weights, shapes[1::2]) for t in (w, np.zeros(b)))
        params = np.concatenate([t.ravel() for t in tensors])
        return cls(config, params, np.zeros_like(params))

    def forward(self, grids: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = grids
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def predict(self, measurements: np.ndarray) -> np.ndarray:
        """(count, 4**m) taus of (count, 6**m) rows, forwarded ``PREDICT_ROWS`` rows at a
        time; the last chunk is zero-filled and its extra outputs dropped."""
        grids = grids_from_measurements(measurements)
        taus = np.empty((len(grids), self.config.tau_width))
        for start in range(0, len(grids), PREDICT_ROWS):
            rows = grids[start : start + PREDICT_ROWS]
            chunk = np.zeros((PREDICT_ROWS,) + rows.shape[1:])
            chunk[: len(rows)] = rows
            taus[start : start + len(rows)] = self.forward(chunk)[: len(rows)]
        return taus

    def backward(self, dout: np.ndarray) -> None:
        first, *rest = self.layers
        for layer in reversed(rest):
            dout = layer.backward(dout)
        first.weight_grads(dout)  # the input is data, so no input gradient


def loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over all components of the squared tau difference."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def compute_gradients(net: Network, grids, targets, rng) -> float:
    """Training-mode forward/backward into ``net.grads``; returns the batch loss."""
    pred = net.forward(grids, train=True, rng=rng)
    value = loss(pred, targets)
    net.backward(2.0 * (pred - targets) / pred.size)
    return value


def adagrad_step(params: np.ndarray, accumulator: np.ndarray, grads: np.ndarray,
                 learning_rate: float) -> None:
    """accumulator += g**2; params -= (lr * g) / (sqrt(accumulator) + 1e-8), on flat vectors
    stepped in place; the update overwrites ``grads``.

    The vectors are stepped ``_ADAGRAD_BLOCK`` elements at a time, with one scratch vector of
    that size, so each slice's seven passes run in cache; every element sees the same
    operations in the same order as a step over the whole vectors, so the bits are its bits."""
    scratch = np.empty(min(_ADAGRAD_BLOCK, len(params)))
    for start in range(0, len(params), _ADAGRAD_BLOCK):
        p, a, g = (v[start : start + _ADAGRAD_BLOCK] for v in (params, accumulator, grads))
        den = scratch[: len(p)]
        a += np.multiply(g, g, out=den)
        den = np.sqrt(a, out=den)
        den += _ADAGRAD_EPS
        g *= learning_rate
        p -= np.divide(g, den, out=g)


@dataclass
class TrainingHistory:
    """Per-epoch mean training loss and mean validation fidelity."""

    losses: list[float] = field(default_factory=list)
    val_fidelities: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 0-based index of the epoch whose parameters were kept


def mean_reconstruction_fidelity(net: Network, measurements: np.ndarray, taus: np.ndarray) -> float:
    """Mean fidelity between the predicted states and the targets' states."""
    estimates = cholesky.tau_to_matrix(net.predict(measurements))
    return float(np.mean(qcore.fidelity(estimates, cholesky.tau_to_matrix(taus))))


def train(
    config: NetworkConfig,
    train_measurements: np.ndarray,
    train_taus: np.ndarray,
    val_measurements: np.ndarray,
    val_taus: np.ndarray,
    init: Network | None = None,
) -> tuple[Network, TrainingHistory]:
    """Run the full training loop; returns the network at its best validation epoch, copied
    back from the one snapshot that each improving epoch refreshes in place.

    ``init`` (a network, as ``load_checkpoint`` returns) replaces the drawn weights and zero
    accumulator; its config must give the same tensor shapes. No weight is drawn, so the
    stream starts at the first shuffle. ``init`` is copied, then released, so a network no
    caller holds (``cmd_train``'s) is freed before the first batch."""
    if len(train_measurements) == 0 or len(val_measurements) == 0:
        raise ValueError("training and validation sets must be non-empty")
    if {train_measurements.shape[1], val_measurements.shape[1]} != {6**config.num_qubits}:
        raise ValueError(f"config expects rows of {6**config.num_qubits} entries, got "
                         f"{train_measurements.shape[1]} and {val_measurements.shape[1]}")

    rng = sampling.stream(config.seed, TRAIN_STREAM)
    if init is None:
        net = Network.build(config, rng)
    else:
        for dst, src in zip(tensor_shapes(config), tensor_shapes(init.config)):
            if dst != src:
                raise ValueError(f"parameter shape mismatch: {dst} vs {src}")
        net = Network(config, init.params.copy(), init.accumulator.copy())
        del init

    grids = grids_from_measurements(train_measurements)
    count = grids.shape[0]

    history = TrainingHistory()
    best_fid, best_state = -1.0, None
    for epoch in range(config.max_epochs):
        order = rng.permutation(count)
        batch_losses = []
        for start in range(0, count, config.batch_size):
            idx = order[start : start + config.batch_size]
            value = compute_gradients(net, grids[idx], train_taus[idx], rng)
            adagrad_step(net.params, net.accumulator, net.grads, config.learning_rate)
            batch_losses.append(value)
        val_fid = mean_reconstruction_fidelity(net, val_measurements, val_taus)
        history.losses.append(float(np.mean(batch_losses)))
        history.val_fidelities.append(val_fid)
        if val_fid > best_fid:
            best_fid = val_fid
            history.best_epoch = epoch
            best_state = best_state or (np.empty_like(net.params), np.empty_like(net.accumulator))
            best_state[0][...], best_state[1][...] = net.params, net.accumulator

    if best_state is None:
        raise ArithmeticError("no epoch produced a finite validation fidelity")
    net.params[...], net.accumulator[...] = best_state
    return net, history


def _shape_table(shapes) -> bytes:
    """Each shape's ndim then its dimensions, as little-endian uint32s."""
    return b"".join(struct.pack(f"<I{len(shape)}I", len(shape), *shape) for shape in shapes)


def save_checkpoint(path, net: Network) -> None:
    """Versioned binary checkpoint: header, config, shape table, then the network's
    ``params`` and ``accumulator`` vectors."""
    shapes = tensor_shapes(net.config)
    tomography.write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                               net.config._header(len(shapes)) + _shape_table(shapes),
                               [net.params, net.accumulator], "<f8")


def load_checkpoint(path) -> Network:
    """Read a checkpoint; returns the ready-to-infer network.

    The header's config, the shape table and the payload length are checked before
    anything is built; the network's ``params`` and ``accumulator`` are one read-only,
    8-byte aligned copy of the file's vectors."""
    fields, payload = tomography.read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                                _CONFIG)
    m, filters, kernel, pool, d1, d2, *rest, n_tensors = fields
    if (kernel, pool) != (KERNEL, POOL):
        raise FormatError(f"{path}: kernel {kernel} and pool {pool}, expected {KERNEL} and {POOL}")
    try:
        config = NetworkConfig(m, filters, (d1, d2), *rest)
        shapes = tensor_shapes(config)
        table = _shape_table(shapes)  # struct.error: a dimension beyond uint32
    except (ValueError, struct.error) as exc:
        raise FormatError(f"{path}: no network can be built from the header: {exc}") from exc
    if n_tensors != len(shapes) or payload[: len(table)] != table:
        raise FormatError(f"{path}: shape table does not match the declared config")
    size = sum(math.prod(shape) for shape in shapes)
    values = tomography.payload_array(path, payload[len(table) :], "<f8", (2, size)).copy()
    values.flags.writeable = False
    return Network(config, *values)
