"""Independent oracles the tests compare the library against.

They are written from the definitions, not from the library's code paths:
the Pauli-6 projectors are built from the Pauli matrices here, not taken
from ``tomography.pauli6_projectors``, and random states are drawn one at a
time in plain 2-D numpy, not through ``sampling.sample_streams``. The one
exception is ``measure_tensordot``, ``tomography.measure``'s contraction
written as one ``np.tensordot`` per qubit: it is the bit-for-bit reference of
the spelled-out steps, so it takes the library's projectors as given. The
other is the network's reference front end, ``Conv2D`` (one ``np.tensordot``
over a sliding-window view) and ``MaxPool2D`` (a separate strided-tap pool):
the bit-for-bit reference of ``neuralnet.Conv2D``'s pooled, tap-by-tap GEMMs, with
``ReLU``, ``Flatten`` and ``Dropout`` layers of their own, the reference of the ReLU each
weighted layer applies and of the flatten and the dropout ``neuralnet.Dense`` does. A third
is ``adagrad_step``, one Adagrad step over the whole vectors at once: the bit-for-bit
reference of ``neuralnet.adagrad_step``, which steps them a slice at a time. They import
nothing but numpy.
"""

import numpy as np

sliding_window_view = np.lib.stride_tricks.sliding_window_view
# The network's pool size, ``neuralnet.POOL``.
POOL = 2

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def maximally_mixed(k: int) -> np.ndarray:
    """I/2**k, the uniform-ignorance state on k qubits."""
    d = 2**k
    return np.eye(d, dtype=complex) / d


def ginibre(d: int, rng) -> np.ndarray:
    """d x d matrix G = (re + i·im)/√2, re and im the next 2·d² standard normals of ``rng``."""
    re, im = rng.standard_normal((2, d, d))
    return (re + 1j * im) / np.sqrt(2.0)


def sample_factor(m: int, measure: str, rng) -> np.ndarray:
    """Factor A of the next m-qubit "hilbert-schmidt" or "bures" state that ``rng`` yields.

    G is one Ginibre draw; A = G for Hilbert-Schmidt, and A = (I + Q·diag(r/|r|))G
    for Bures, Q and r from the QR of a second draw.
    """
    d = 2**m
    a = ginibre(d, rng)
    if measure == "bures":
        q, r = np.linalg.qr(ginibre(d, rng))
        a = (np.eye(d) + q * (np.diagonal(r) / np.abs(np.diagonal(r)))) @ a
    elif measure != "hilbert-schmidt":
        raise ValueError(f"unknown measure {measure!r}")
    return a


def state(a: np.ndarray) -> np.ndarray:
    """The state of one 2-D factor A: W = AA†, then W/Tr W, then (W + W†)/2."""
    w = a @ a.conj().T
    w = w / np.trace(w).real
    return (w + w.conj().T) / 2


def sample_state(m: int, measure: str, rng) -> np.ndarray:
    """The next m-qubit state that ``rng`` yields: the state of ``sample_factor``."""
    return state(sample_factor(m, measure, rng))


def joint_index(settings) -> int:
    """Base-6 index of a joint setting tuple, qubit 0 most significant."""
    index = 0
    for s in settings:
        s = int(s)
        if not 0 <= s < 6:
            raise ValueError(f"setting index out of range: {s}")
        index = index * 6 + s
    return index


def linear_inversion(probabilities: np.ndarray) -> np.ndarray:
    """The state with the given exact Pauli-6 probabilities: ρ = Σ_s p_s ⊗_q (Π_{s_q} − I/3).

    Π_{2j} and Π_{2j+1} are (I ± σ_j)/2 for σ = X, Y, Z; Π − I/3 is their
    dual frame, since Σ_s Tr(ρΠ_s)(Π_s − I/3) = ρ for every one-qubit ρ. The
    joint frame is built with ``np.kron``, qubit 0 the most-significant
    factor, so entry ``joint_index(s)`` of ``probabilities`` meets the joint
    operator of setting s.
    """
    eye = np.eye(2)
    single = [(eye + sign * sigma) / 2 - eye / 3 for sigma in PAULIS for sign in (1, -1)]
    frame = single
    while len(frame) < len(probabilities):
        frame = [np.kron(a, b) for a in frame for b in single]
    return np.tensordot(probabilities, np.stack(frame), axes=1)


def measure_tensordot(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Pauli-6 probabilities of ``rho`` by one ``np.tensordot`` per qubit.

    ``projectors`` is the (6, 2, 2) stack in setting order. The current qubit's
    row index is axis 0 and its column index axis ``remaining``; Tr(rho Π)
    pairs the row index with the projector's ket index. The new settings axis
    lands at the end, so after m contractions the axes read (s_0, ..., s_{m-1}).
    """
    m = len(rho).bit_length() - 1
    t = rho.reshape((2,) * (2 * m))
    for remaining in range(m, 0, -1):
        t = np.tensordot(t, projectors, axes=((0, remaining), (2, 1)))
    return np.clip(t.real.reshape(-1), 0.0, 1.0)


def initial_params(m: int, filters: int, widths: tuple[int, int], rng) -> np.ndarray:
    """The m-qubit network's initial parameter vector, drawn from ``rng`` in layer order.

    The input is a 6**ceil(m/2) by 6**floor(m/2) grid; a valid 2x2 convolution, a 2x2
    max pool with floor division and a second valid 2x2 convolution leave an h x w map
    of ``filters`` channels. Each convolution's (filters, channels, 2, 2) weights are
    He-normal, standard normals times sqrt(2 / fan-in) with fan-in 4·channels. Each dense
    layer's (n_in, n_out) weights are the leading block of Q·diag(±1), the signs those of
    R's diagonal, from the QR of one max(n_in, n_out)-square standard normal draw, times
    the gain: sqrt(2) for the two hidden layers, 1 for the 4**m outputs. Every bias is
    zero, and each layer's weights then biases are flattened row-major, one after another.
    """
    h, w = ((6 ** side - 1) // 2 - 1 for side in ((m + 1) // 2, m // 2))
    tensors = []
    for channels in (1, filters):
        scale = np.sqrt(2.0 / (4 * channels))
        tensors += [rng.standard_normal((filters, channels, 2, 2)) * scale, np.zeros(filters)]
    sizes = (filters * h * w, *widths, 4**m)
    for n_in, n_out, gain in zip(sizes, sizes[1:], (np.sqrt(2.0), np.sqrt(2.0), 1.0)):
        q, r = np.linalg.qr(rng.standard_normal((max(n_in, n_out),) * 2))
        signs = np.where(np.diagonal(r) < 0, -1.0, 1.0)
        tensors += [gain * (q * signs)[:n_in, :n_out], np.zeros(n_out)]
    return np.concatenate([t.ravel() for t in tensors])


class _Weighted:
    """A layer with weights ``w``, biases ``b`` and their gradients ``dw``, ``db``: views of
    a network's ``params`` and ``grads``."""

    def __init__(self, w: np.ndarray, b: np.ndarray, dw: np.ndarray, db: np.ndarray):
        self.w, self.b, self.dw, self.db = w, b, dw, db


class Conv2D(_Weighted):
    """Valid-boundary stride-1 convolution; weights (filters, channels, k, k).

    Each pass is one GEMM over a sliding-window view of the input (im2col).
    Outputs have shape (n, f, oh, ow) but channels-last memory, so the pool's
    strided taps and the next layer's windows step over contiguous channels.
    """

    def forward(self, x, train=False, rng=None):
        k = self.w.shape[-1]
        # (n, c, oh, ow, k, k) view of every k x k window; no copy, kept for backward.
        self.windows = sliding_window_view(x, (k, k), axis=(2, 3))
        out = np.tensordot(self.windows, self.w, axes=([1, 4, 5], [1, 2, 3]))
        out += self.b
        return out.transpose(0, 3, 1, 2)  # channels-last memory, (n, f, oh, ow) shape

    def weight_grads(self, dout):
        """Write dw and db, without the input gradient ``backward`` also returns."""
        self.dw[...] = np.tensordot(dout, self.windows, axes=([0, 2, 3], [0, 2, 3]))
        np.einsum("nfhw->f", dout, out=self.db)  # twice as fast as sum() on channels-last dout

    def backward(self, dout):
        self.weight_grads(dout)
        n, c, oh, ow, _, k = self.windows.shape
        # Columns (n, oh, ow, c, k, k), then col2im: add each tap back at its offset.
        cols = np.tensordot(dout, self.w, axes=([1], [0]))
        dx = np.zeros((n, oh + k - 1, ow + k - 1, c))
        for p in range(k):
            for q in range(k):
                dx[:, p : p + oh, q : q + ow] += cols[..., p, q]
        return dx.transpose(0, 3, 1, 2)


class MaxPool2D:
    """``POOL`` x ``POOL`` max pooling, stride ``POOL``, floor division (no padding).

    The maximum is taken elementwise over POOL**2 strided views of the input
    ("taps"), one per position in the window, each of shape (n, c, ph, pw).
    """

    def _taps(self, x):
        """The s*s strided views x[:, :, p::s, q::s] over whole windows, row-major."""
        s = POOL
        ph, pw = x.shape[2] // s, x.shape[3] // s
        return [x[:, :, p : ph * s : s, q : pw * s : s] for p in range(s) for q in range(s)]

    def forward(self, x, train=False, rng=None):
        taps = self._taps(x)
        out = taps[0].copy(order="K")
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        self.masks = None
        if not train:  # only a training forward is followed by a backward pass
            return out
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


class ReLU:
    """max(x, 0) into a new array; the backward pass masks dout by the kept output."""

    def forward(self, x, train=False, rng=None):
        self.out = np.maximum(x, 0.0)
        return self.out

    def backward(self, dout):
        mask, self.out = self.out > 0, None
        return dout * mask


class Flatten:
    """(n, ...) to (n, features), row-major; the backward pass restores the shape."""

    def forward(self, x, train=False, rng=None):
        self.in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self.in_shape)


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


def adagrad_step(params, accumulator, grads, learning_rate):
    """a += g*g; p -= (lr*g) / (sqrt(a) + 1e-8), each operation over the whole flat vectors,
    in place; the update overwrites ``grads``."""
    accumulator += grads * grads
    den = np.sqrt(accumulator)
    den += 1e-8
    grads *= learning_rate
    params -= np.divide(grads, den, out=grads)
