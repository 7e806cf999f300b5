"""Seeded random ensembles: Philox streams and the one Hilbert-Schmidt / Bures sampler.

Reproducibility contract
------------------------
Every draw comes from numpy's Philox4x64-10 counter-based generator, which is
a fixed, platform-independent algorithm. ``stream(seed, index)`` keys the
cipher with the pair ``(seed, index)``; distinct indices give statistically
independent streams. Stream i's draws are those of Philox keyed ``(seed, i)``
at counter 0. ``sample_streams``, the library's one sampler, draws the factors
(``qcore``'s convention) of the states of stream i from exactly those draws, so
the output does not depend on how the index range is split into chunks. It
rekeys one generator to each stream in turn, through one reused state dict and
the public Philox state setter, rather than build one per stream, and works one
block of ``BLOCK`` streams at a time: their normals go into the complex draws
at once, and a Bures block's factors are made from those draws alone, with the
bytes of sampling each stream alone. It checks the measure; the qubit-count and
count limits of a dataset, and its physicality, are checked by
``tomography.sample_dataset``, and a factor's norm by ``qcore`` where it is used.

``sub_seed(seed, label)`` derives further 64-bit seeds from a string label
via SHA-256 for coarser partitioning (train/validation/test roles and the
like). Both derivations are part of the on-disk dataset contract: a dataset
header records the master seed, and ``(seed, i)`` regenerate state i exactly.

A single generator must not be shared across threads.
"""

from __future__ import annotations

import hashlib

import numpy as np

MEASURE_HS = "hilbert-schmidt"
MEASURE_BURES = "bures"
MEASURES = (MEASURE_HS, MEASURE_BURES)

_MASK64 = (1 << 64) - 1

# The one chunk size for sampled stacks, so that no temporary spans a whole range: a block's
# normals go into one real buffer (0.5 MB for m=3 pairs) and join the complex draws by two
# copies, and a Bures block's draws and Haar unitaries are block-sized too.
# ``tomography.sample_dataset`` measures, and ``adapt.mc_fidelities`` compares, in blocks of it.
BLOCK = 256


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for stream ``index`` of master ``seed``."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sub_seed(seed: int, label: str) -> int:
    """Derive a 64-bit seed from a master seed in 0..2**64-1 and a label: the first 8 bytes,
    little-endian, of the SHA-256 of the seed's 8 little-endian bytes, "/" and the label."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} is outside 0..2**64-1")
    digest = hashlib.sha256(seed.to_bytes(8, "little") + b"/" + label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from stacked Ginibre draws: Q of the QR, column j times r_jj/|r_jj|.

    The phase fix makes the distribution exactly Haar, not QR-convention dependent.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _rekeyer(bit_generator: np.random.Philox, seed: int):
    """A function that sets ``bit_generator`` to the state of a fresh ``stream(seed, index)``.

    Same key, counter 0 and an empty buffer, so the draws that follow are the
    fresh stream's. The state dict, of plain ints, is built once; each call sets
    only the index word of its key and hands the same dict to the public setter,
    much cheaper than building a new Philox, which gathers OS entropy for a seed
    it then ignores.
    """
    key = [seed & _MASK64, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(index: int) -> None:
        key[1] = index & _MASK64
        bit_generator.state = state

    return rekey


def sample_streams(m: int, measure: str, seed: int, start: int, stop: int,
                   per_stream: int) -> np.ndarray:
    """Factors of the states of streams start..stop-1, a (per_stream, stop - start, d, d) stack.

    Entry [s, j] is the factor of the s-th state of ``stream(seed, start + j)``.
    Per state, a stream yields the draw G and then, for Bures, the draw U's Haar
    unitary comes from; each draw is 2·d² normals, the real block and then the
    imaginary one, divided by √2. Hilbert-Schmidt: the factor is G. Bures: it is
    (I + U)G. One generator is rekeyed to each stream in turn (one state dict,
    reused) and makes all of the stream's normals in one call, into a real block
    of ``BLOCK`` streams; each block becomes complex draws by one real-part and
    one imaginary-part copy: Hilbert-Schmidt draws straight into the output
    stack, Bures draws into one reused block, whose (I + U)G products are written
    into the stack. Each operation acts on each state alone, so the bytes do not
    depend on the block. A zero draw, of probability zero, comes back as a zero
    factor.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    draws, d, n = 1 if measure == MEASURE_HS else 2, 2**m, stop - start
    factors = np.empty((per_stream, n, d, d), dtype=complex)
    bures = np.empty((per_stream, min(BLOCK, n), 2, d, d), dtype=complex) if draws == 2 else None
    normals = np.empty((min(BLOCK, n), per_stream, draws, 2, d, d))
    rng = stream(seed, start)
    rekey = _rekeyer(rng.bit_generator, seed)
    for b in range(0, n, BLOCK):
        block = normals[:n - b]
        for j, row in enumerate(block):
            rekey(start + b + j)
            rng.standard_normal(out=row)
        out = factors[:, b:b + len(block)]
        z = out[:, :, None] if draws == 1 else bures[:, :len(block)]
        z.real[...] = block[:, :, :, 0].swapaxes(0, 1)
        z.imag[...] = block[:, :, :, 1].swapaxes(0, 1)
        z /= np.sqrt(2.0)  # as the complex division (re + i·im)/√2, bit for bit
        if draws == 2:
            np.matmul(np.eye(d) + _haar(z[:, :, 1]), z[:, :, 0], out=out)
    return factors
