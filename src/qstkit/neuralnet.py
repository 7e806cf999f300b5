"""From-scratch convolutional network mapping measurement vectors to tau vectors.

Architecture (valid boundaries, stride 1, all double precision):

    input grid -> conv 2x2 (25 filters, ReLU) -> maxpool 2x2 (stride 2, floor)
               -> conv 2x2 (25 filters, ReLU) -> flatten
               -> dense (512, ReLU) -> dense (256, ReLU)
               -> inverted dropout (rate 0.5, training only)
               -> linear output of 4**m tau coefficients

A 6**m measurement vector is laid out row-major on a 6**ceil(m/2) by
6**floor(m/2) grid (m=2: 6x6, m=3: 36x6, m=4: 36x36). m=1 is rejected: the
grid is a single column, too narrow for 2x2 kernels; single-qubit states are
handled by padding into a larger network instead.

Training minimizes the mean square loss between predicted and target tau
with Adagrad, shuffling batches each epoch, and keeps the parameters from
the epoch with the best mean validation fidelity. Everything random (weight
init, shuffling, dropout masks) is drawn from one Philox stream derived from
the config seed, so a (seed, data, config) triple fully determines the run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cholesky, qcore, sampling
from .tomography import FormatError

# Stream index reserved for training (weight init, shuffling, dropout); far
# above any per-state dataset stream index.
TRAIN_STREAM = (1 << 64) - 1

CHECKPOINT_MAGIC = b"QSTCKPT\x00"
CHECKPOINT_VERSION = 1


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
    """Hyperparameters; defaults follow the training recipe."""

    num_qubits: int
    conv_filters: int = 25
    kernel_size: int = 2
    pool_size: int = 2
    dense_widths: tuple[int, int] = (512, 256)
    dropout_rate: float = 0.5
    learning_rate: float = 0.01
    batch_size: int = 100
    max_epochs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        grid_shape(self.num_qubits)
        if self.conv_filters < 1 or self.kernel_size < 1 or self.pool_size < 1:
            raise ValueError("conv filters, kernel and pool sizes must be positive")
        if len(self.dense_widths) != 2 or min(self.dense_widths) < 1:
            raise ValueError(f"expected two positive dense widths, got {self.dense_widths}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("learning rate, batch size and max epochs must be positive")

    @property
    def tau_width(self) -> int:
        return 4**self.num_qubits


class Conv2D:
    """Valid-boundary stride-1 convolution; weights (filters, channels, k, k).

    Each pass is one GEMM over a sliding-window view of the input (im2col).
    Outputs have shape (n, f, oh, ow) but channels-last memory, so the pool's
    strided taps and the next layer's windows step over contiguous channels.
    """

    def __init__(self, channels: int, filters: int, kernel: int, rng=None):
        self.kernel = kernel
        if rng is None:
            self.w = np.zeros((filters, channels, kernel, kernel))
        else:
            scale = np.sqrt(2.0 / (channels * kernel * kernel))
            self.w = rng.standard_normal((filters, channels, kernel, kernel)) * scale
        self.b = np.zeros(filters)

    def forward(self, x, train=False, rng=None):
        k = self.kernel
        # (n, c, oh, ow, k, k) view of every k x k window; no copy, kept for backward.
        self.windows = sliding_window_view(x, (k, k), axis=(2, 3))
        out = np.tensordot(self.windows, self.w, axes=([1, 4, 5], [1, 2, 3]))
        out += self.b
        return out.transpose(0, 3, 1, 2)  # channels-last memory, (n, f, oh, ow) shape

    def backward(self, dout):
        k = self.kernel
        n, c, oh, ow = self.windows.shape[:4]
        self.dw = np.tensordot(dout, self.windows, axes=([0, 2, 3], [0, 2, 3]))
        self.db = np.einsum("nfhw->f", dout)  # twice as fast as sum() on channels-last dout
        # Columns (n, oh, ow, c, k, k), then col2im: add each tap back at its offset.
        cols = np.tensordot(dout, self.w, axes=([1], [0]))
        dx = np.zeros((n, oh + k - 1, ow + k - 1, c))
        for p in range(k):
            for q in range(k):
                dx[:, p : p + oh, q : q + ow] += cols[..., p, q]
        return dx.transpose(0, 3, 1, 2)


class ReLU:
    def forward(self, x, train=False, rng=None):
        self.mask = x > 0
        return x * self.mask

    def backward(self, dout):
        return dout * self.mask


class MaxPool2D:
    """Square max pooling, stride equal to size, floor division (no padding).

    The maximum is taken elementwise over size**2 strided views of the input
    ("taps"), one per position in the window, each of shape (n, c, ph, pw).
    """

    def __init__(self, size: int):
        self.size = size

    def _taps(self, x):
        """The s*s strided views x[:, :, p::s, q::s] over whole windows, row-major."""
        s = self.size
        ph, pw = x.shape[2] // s, x.shape[3] // s
        return [x[:, :, p : ph * s : s, q : pw * s : s] for p in range(s) for q in range(s)]

    def forward(self, x, train=False, rng=None):
        taps = self._taps(x)
        out = taps[0].copy(order="K")
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        self.in_shape = x.shape
        # One mask per tap marking each window's first maximum in row-major
        # order, the one argmax picks; the backward pass routes dout through it.
        unclaimed = np.ones_like(out, dtype=bool)
        self.masks = []
        for tap in taps:
            first = (tap == out) & unclaimed
            unclaimed &= ~first
            self.masks.append(first)
        return out

    def backward(self, dout):
        n, c, h, w = self.in_shape
        # Channels-last like the conv output; rows and columns dropped by the
        # floor division stay zero.
        dx = np.zeros((n, h, w, c)).transpose(0, 3, 1, 2)
        for first, dtap in zip(self.masks, self._taps(dx)):
            np.multiply(dout, first, out=dtap)
        return dx


class Flatten:
    def forward(self, x, train=False, rng=None):
        self.in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self.in_shape)


def _orthogonal(shape: tuple[int, int], rng, gain: float) -> np.ndarray:
    """Orthogonal matrix slice (QR of a square normal draw, sign-fixed)."""
    big = max(shape)
    q, r = np.linalg.qr(rng.standard_normal((big, big)))
    q = q * np.where(np.diagonal(r) >= 0, 1.0, -1.0)
    return gain * q[: shape[0], : shape[1]]


class Dense:
    """Fully connected layer with orthogonal init.

    Hidden layers use gain sqrt(2) (ReLU follows); the linear output layer
    uses gain 1. Orthogonal starts reach usable validation fidelity in far
    fewer Adagrad epochs than scaled-normal starts at desk-scale budgets.
    """

    def __init__(self, n_in: int, n_out: int, rng=None, linear=False):
        if rng is None:
            self.w = np.zeros((n_in, n_out))
        else:
            self.w = _orthogonal((n_in, n_out), rng, 1.0 if linear else np.sqrt(2.0))
        self.b = np.zeros(n_out)

    def forward(self, x, train=False, rng=None):
        self.x = x
        return x @ self.w + self.b

    def backward(self, dout):
        self.dw = self.x.T @ dout
        self.db = dout.sum(axis=0)
        return dout @ self.w.T


class Dropout:
    """Inverted dropout: scales kept units by 1/(1-rate) so inference is identity."""

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self.mask = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs a random generator")
        self.mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self.mask

    def backward(self, dout):
        return dout if self.mask is None else dout * self.mask


class Network:
    """The layer pipeline plus parameter bookkeeping."""

    def __init__(self, config: NetworkConfig, layers: list):
        self.config = config
        self.layers = layers

    @classmethod
    def build(cls, config: NetworkConfig, rng=None) -> "Network":
        """Construct the pipeline; ``rng=None`` gives zero weights (for loading)."""
        k, f = config.kernel_size, config.conv_filters
        h, w = grid_shape(config.num_qubits)
        for which in ("first", "second"):
            if h < k or w < k:
                raise ValueError(f"{which} conv input {h}x{w} is smaller than the kernel")
            h, w = h - k + 1, w - k + 1
            if which == "first":
                h, w = h // config.pool_size, w // config.pool_size
        d1, d2 = config.dense_widths
        layers = [
            Conv2D(1, f, k, rng),
            ReLU(),
            MaxPool2D(config.pool_size),
            Conv2D(f, f, k, rng),
            ReLU(),
            Flatten(),
            Dense(f * h * w, d1, rng),
            ReLU(),
            Dense(d1, d2, rng),
            ReLU(),
            Dropout(config.dropout_rate),
            Dense(d2, config.tau_width, rng, linear=True),
        ]
        return cls(config, layers)

    def forward(self, grids: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = grids
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, dout: np.ndarray) -> None:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            if isinstance(layer, (Conv2D, Dense)):
                out.extend([layer.w, layer.b])
        return out

    def gradients(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            if isinstance(layer, (Conv2D, Dense)):
                out.extend([layer.dw, layer.db])
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        for dst, src in zip(self.parameters(), params, strict=True):
            if dst.shape != src.shape:
                raise ValueError(f"parameter shape mismatch: {dst.shape} vs {src.shape}")
            dst[...] = src


def loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over all components of the squared tau difference."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def loss_gradient(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size


def compute_gradients(net: Network, grids, targets, rng) -> tuple[float, list[np.ndarray]]:
    """Training-mode forward/backward; returns (batch loss, gradient list)."""
    pred = net.forward(grids, train=True, rng=rng)
    value = loss(pred, targets)
    net.backward(loss_gradient(pred, targets))
    return value, net.gradients()


class Adagrad:
    """accumulator += g**2; parameter -= lr * g / (sqrt(accumulator) + eps)."""

    def __init__(self, params: list[np.ndarray], learning_rate: float, eps: float = 1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.eps = eps
        self.accumulators = [np.zeros_like(p) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g, a in zip(self.params, grads, self.accumulators, strict=True):
            a += g * g
            p -= self.learning_rate * g / (np.sqrt(a) + self.eps)


@dataclass
class TrainingHistory:
    """Per-epoch mean training loss and mean validation fidelity."""

    losses: list[float] = field(default_factory=list)
    val_fidelities: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 0-based index of the epoch whose parameters were kept


def mean_reconstruction_fidelity(net: Network, measurements: np.ndarray, taus: np.ndarray) -> float:
    """Mean fidelity between the reconstructed states and the targets' states."""
    from . import adapt  # adapt builds on this module

    estimates = adapt.reconstruct(net, measurements, adapt.PADDING_ENGINEERED)
    return float(np.mean(qcore.fidelity(estimates, cholesky.tau_to_rho(taus))))


def train(
    config: NetworkConfig,
    train_measurements: np.ndarray,
    train_taus: np.ndarray,
    val_measurements: np.ndarray,
    val_taus: np.ndarray,
    init_params: list[np.ndarray] | None = None,
    init_accumulators: list[np.ndarray] | None = None,
) -> tuple[Network, Adagrad, TrainingHistory]:
    """Run the full training loop; returns the best-validation-epoch parameters."""
    if len(train_measurements) == 0 or len(val_measurements) == 0:
        raise ValueError("training and validation sets must be non-empty")
    if train_measurements.shape[1] != 6**config.num_qubits:
        raise ValueError(
            f"dataset rows have {train_measurements.shape[1]} entries, "
            f"config expects {6 ** config.num_qubits}"
        )

    rng = sampling.stream(config.seed, TRAIN_STREAM)
    net = Network.build(config, rng)
    if init_params is not None:
        net.set_parameters(init_params)
    opt = Adagrad(net.parameters(), config.learning_rate)
    if init_accumulators is not None:
        for dst, src in zip(opt.accumulators, init_accumulators, strict=True):
            dst[...] = src

    grids = grids_from_measurements(train_measurements)
    count = grids.shape[0]

    history = TrainingHistory()
    best_fid = -1.0
    best_params: list[np.ndarray] = []
    best_accums: list[np.ndarray] = []
    for epoch in range(config.max_epochs):
        order = rng.permutation(count)
        batch_losses = []
        for start in range(0, count, config.batch_size):
            idx = order[start : start + config.batch_size]
            value, grads = compute_gradients(net, grids[idx], train_taus[idx], rng)
            opt.step(grads)
            batch_losses.append(value)
        val_fid = mean_reconstruction_fidelity(net, val_measurements, val_taus)
        history.losses.append(float(np.mean(batch_losses)))
        history.val_fidelities.append(val_fid)
        if val_fid > best_fid:
            best_fid = val_fid
            history.best_epoch = epoch
            best_params = [p.copy() for p in net.parameters()]
            best_accums = [a.copy() for a in opt.accumulators]

    if not best_params:
        raise ArithmeticError("no epoch produced a finite validation fidelity")
    net.set_parameters(best_params)
    for dst, src in zip(opt.accumulators, best_accums, strict=True):
        dst[...] = src
    return net, opt, history


def save_checkpoint(path, config: NetworkConfig, params, accumulators) -> None:
    """Versioned binary checkpoint: header, config, shape table, then payload."""
    params = list(params)
    accumulators = list(accumulators)
    if len(params) != len(accumulators):
        raise ValueError("parameter and accumulator lists differ in length")
    head = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    head.append(
        struct.pack(
            "<6I",
            config.num_qubits,
            config.conv_filters,
            config.kernel_size,
            config.pool_size,
            *config.dense_widths,
        )
    )
    head.append(
        struct.pack(
            "<ddIIQ",
            config.dropout_rate,
            config.learning_rate,
            config.batch_size,
            config.max_epochs,
            config.seed,
        )
    )
    head.append(struct.pack("<I", len(params)))
    for p in params:
        head.append(struct.pack("<I", p.ndim))
        head.append(struct.pack(f"<{p.ndim}I", *p.shape))
    with open(path, "wb") as fh:
        fh.write(b"".join(head))
        for tensor in params + accumulators:
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (config, params, accumulators)."""
    raw = Path(path).read_bytes()
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw):
            raise FormatError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    magic, version = take("<8sI")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    m, filters, kernel, pool, d1, d2 = take("<6I")
    dropout, lr, batch, epochs, seed = take("<ddIIQ")
    config = NetworkConfig(
        num_qubits=m,
        conv_filters=filters,
        kernel_size=kernel,
        pool_size=pool,
        dense_widths=(d1, d2),
        dropout_rate=dropout,
        learning_rate=lr,
        batch_size=batch,
        max_epochs=epochs,
        seed=seed,
    )
    (n_tensors,) = take("<I")
    shapes = []
    for _ in range(n_tensors):
        (ndim,) = take("<I")
        shapes.append(take(f"<{ndim}I"))

    expected = Network.build(config).parameters()
    if len(expected) != n_tensors or any(
        e.shape != s for e, s in zip(expected, shapes, strict=True)
    ):
        raise FormatError(f"{path}: shape table does not match the declared config")

    counts = [int(np.prod(s, dtype=np.int64)) for s in shapes]
    payload = 8 * 2 * sum(counts)
    if len(raw) - off != payload:
        raise FormatError(f"{path}: payload is {len(raw) - off} bytes, expected {payload}")
    if not np.all(np.isfinite(np.frombuffer(raw, dtype="<f8", offset=off))):
        raise FormatError(f"{path}: non-finite parameter or accumulator values")

    def read_block():
        nonlocal off
        out = []
        for shape, n in zip(shapes, counts):
            out.append(np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape).copy())
            off += 8 * n
        return out

    return config, read_block(), read_block()


def network_from_checkpoint(path) -> tuple[Network, Adagrad]:
    """Rebuild a ready-to-infer network (and its optimizer state) from disk."""
    config, params, accums = load_checkpoint(path)
    net = Network.build(config)
    net.set_parameters(params)
    opt = Adagrad(net.parameters(), config.learning_rate)
    for dst, src in zip(opt.accumulators, accums, strict=True):
        dst[...] = src
    return net, opt
