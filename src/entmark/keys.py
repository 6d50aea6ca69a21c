"""Watermark key derivation and resampling.

A generation's key material is derived deterministically from a seed block
(the unwatermarked token prefix plus a salt): SHA-256 turns the seed block
into a 32-byte PRF key, and the ChaCha20 block function in counter mode turns
(key, counter) pairs into independent uniforms in [0, 1). Every sequence
position owns a disjoint counter range, so the inverse-transform element and
the binary element of the same position never share stream values and can be
re-derived independently.

Counter layout per position (stride = N + L + 1 slots):

    +0            inverse-transform u
    +1 .. +N-1    Fisher-Yates draws for the rank permutation
    +N .. +N+L-1  per-bit uniforms for binary sampling
    +N+L          reserved

The null keys of the detection permutation test are not PRF-derived; they
come from an explicit ``numpy.random.Generator`` supplied by the caller.
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

PRF_ID = "sha256-chacha20/53"
_CHACHA_CONST = np.array(
    [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32
)


@dataclass(frozen=True)
class SeedBlock:
    """Unwatermarked prefix tokens plus salt; hashes to the PRF key."""

    tokens: tuple
    salt: bytes

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))

    def canonical_bytes(self) -> bytes:
        out = [struct.pack(">I", len(self.tokens))]
        out += [struct.pack(">I", t) for t in self.tokens]
        return b"".join(out)


def derive_prf_key(seed: SeedBlock) -> bytes:
    """32-byte key = SHA-256(salt || length-prefixed token ids)."""
    return hashlib.sha256(seed.salt + seed.canonical_bytes()).digest()


# Counters per vectorized pass. At this width the 26-row working buffer
# (1.6 MiB) stays in a core's L2 cache: on a Xeon with 2 MiB L2 per core,
# 101,632 counters took 34 ms in such passes, 43 ms at twice the width and
# 62 ms in one full-width pass, while narrower passes pay per-call overhead.
_PASS = 16_384


def _quarter_steps(a, b, c, d, tmp):
    """The four add-xor-rotate steps of a quarter round on whole 4-row
    blocks, in place: five ufunc calls per step, nothing allocated."""
    for x, y, z, r in ((a, b, d, 16), (c, d, b, 12), (a, b, d, 8), (c, d, b, 7)):
        np.add(x, y, out=x)
        np.bitwise_xor(z, x, out=z)
        np.left_shift(z, r, out=tmp)
        np.right_shift(z, 32 - r, out=z)
        np.bitwise_or(z, tmp, out=z)


def chacha20_blocks(key: bytes, counters, nonce: bytes = b"\x00" * 12) -> np.ndarray:
    """ChaCha20 block function for an array of 32-bit block counters.

    Returns the 16 output words per counter as a uint32 array of shape
    (len(counters), 16). All arithmetic is the RFC construction (constants |
    key | counter | nonce, 20 rounds, feed forward), vectorized over the
    counters in cache-sized passes.
    """
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    counters = np.asarray(counters, dtype=np.uint32).ravel()
    n = counters.size
    init = np.zeros((16, 1), dtype=np.uint32)  # row 12 (the counter) stays 0
    init[0:4, 0] = _CHACHA_CONST
    init[4:12, 0] = np.frombuffer(key, dtype="<u4")
    init[13:16, 0] = np.frombuffer(nonce, dtype="<u4")
    out = np.empty((16, n), dtype=np.uint32)
    # state blocks a 0:4, b 4:9, c 9:15, d 15:22 (b, c and d with 1, 2 and 3
    # spare rows for the diagonal round), rotation scratch 22:26
    buf = np.empty((26, min(n, _PASS)), dtype=np.uint32)
    for lo in range(0, n, _PASS):
        hi = min(lo + _PASS, n)
        w = buf[:, : hi - lo]
        a, b, c, d, tmp = w[0:4], w[4:9], w[9:15], w[15:22], w[22:26]
        rows = ((a, 0), (b, 4), (c, 8), (d, 12))  # block, first state row
        for x, r in rows:
            x[0:4] = init[r : r + 4]
        d[0] = counters[lo:hi]
        for _ in range(10):
            _quarter_steps(a, b[0:4], c[0:4], d[0:4], tmp)  # column round
            # diagonal round: with b's first row, c's first two and d's first
            # three copied past their ends, quarter round i works on row i
            # of a, b[1:5], c[2:6] and d[3:7]
            b[4:5] = b[0:1]
            c[4:6] = c[0:2]
            d[4:7] = d[0:3]
            _quarter_steps(a, b[1:5], c[2:6], d[3:7], tmp)
            b[0:1] = b[4:5]
            c[0:2] = c[4:6]
            d[0:3] = d[4:7]
        block = out[:, lo:hi]
        for x, r in rows:
            np.add(x[0:4], init[r : r + 4], out=block[r : r + 4])
        block[12] += counters[lo:hi]
    return out.T


def uniform_block(key: bytes, indices) -> np.ndarray:
    """Uniforms in [0, 1) for an array of 64-bit stream indices.

    Index i selects the ChaCha20 block with counter word ``i & 0xffffffff``
    and first nonce word ``i >> 32``; the block's first 8 bytes, read as a
    little-endian u64, give the top 53 bits of the uniform.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty(idx.shape, dtype=np.float64)
    flat = idx.ravel()
    high = (flat >> np.uint64(32)).astype(np.uint32)
    low = flat.astype(np.uint32)
    # group by high word so each group is one vectorized block-function call
    for h in np.unique(high):
        sel = high == h
        nonce = struct.pack("<I", int(h)) + b"\x00" * 8
        words = chacha20_blocks(key, low[sel], nonce)
        u64 = words[:, 0].astype(np.uint64) | (words[:, 1].astype(np.uint64) << np.uint64(32))
        out.ravel()[np.flatnonzero(sel)] = (u64 >> np.uint64(11)) * 2.0**-53
    return out


def key_bits(n_vocab: int, code=None) -> int:
    """Binary uniforms per key position (L in the counter layout): the
    code's longest word, else the fixed-length code size."""
    return code.max_bits if code is not None else max(1, (n_vocab - 1).bit_length())


def _first_slots(start: int, n: int, n_vocab: int, n_bits: int) -> np.ndarray:
    """Stream index of slot +0 of positions start .. start+n-1."""
    return np.arange(start, start + n, dtype=np.uint64) * np.uint64(n_vocab + n_bits + 1)


@dataclass(frozen=True)
class ItsKeyElement:
    """One inverse-transform key element: a uniform and a token-rank map."""

    u: float
    ranks: np.ndarray  # ranks[token id] = 0-based rank


@dataclass(frozen=True)
class BsKeyElement:
    """One binary-sampling key element: max_bits uniforms, one per bit."""

    u: np.ndarray


class ItsKeySequence:
    kind = "its"

    def __init__(self, u: np.ndarray, ranks: np.ndarray):
        self.u = np.asarray(u, dtype=np.float64)
        self.ranks = np.asarray(ranks, dtype=np.int64)
        if self.ranks.ndim != 2 or self.ranks.shape[:1] != self.u.shape:
            raise ValueError("mismatched key arrays")
        # checked once here, so the detection cost can gather ranks unchecked
        if self.ranks.size and (self.ranks.min() < 0 or self.ranks.max() >= self.n_vocab):
            raise ValueError(f"key rank out of range 0..{self.n_vocab - 1}")

    @property
    def n(self) -> int:
        return self.u.size

    @property
    def n_vocab(self) -> int:
        return self.ranks.shape[1]

    def element(self, i: int) -> ItsKeyElement:
        return ItsKeyElement(float(self.u[i]), self.ranks[i])


class BsKeySequence:
    kind = "bs"

    def __init__(self, u: np.ndarray):
        self.u = np.atleast_2d(np.asarray(u, dtype=np.float64))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def n_bits(self) -> int:
        return self.u.shape[1]

    def element(self, i: int) -> BsKeyElement:
        return BsKeyElement(self.u[i])


def _fisher_yates(uniforms: np.ndarray) -> np.ndarray:
    """Shuffle 0..N-1 per row from iid uniforms; returns rank maps.

    Row i of ``uniforms`` holds the N-1 draws for one permutation, consumed
    at steps s = N-1 .. 1. The shuffled arrangement lists the token at each
    rank; the returned array is its inverse (token -> rank).
    """
    n_rows, n_draws = uniforms.shape
    n = n_draws + 1
    steps = np.arange(n - 1, 0, -1)
    targets = np.minimum((uniforms.T * (steps + 1)[:, None]).astype(np.int64), steps[:, None])
    # token-major, so the slots swapped at one step are contiguous rows
    order = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, n_rows))
    rows = np.arange(n_rows)
    for s, j in zip(steps, targets):
        held = order[s].copy()
        order[s] = order[j, rows]
        order[j, rows] = held
    ranks = np.empty((n_rows, n), dtype=np.int64)
    ranks[rows, order] = np.arange(n)[:, None]
    return ranks


def derive_its_sequence(prf_key: bytes, n: int, n_vocab: int, n_bits: int | None = None,
                        start: int = 0) -> ItsKeySequence:
    """Inverse-transform key elements for positions start .. start+n-1."""
    if n_bits is None:
        n_bits = key_bits(n_vocab)
    base = _first_slots(start, n, n_vocab, n_bits)
    idx = base[:, None] + np.arange(n_vocab, dtype=np.uint64)[None, :]
    vals = uniform_block(prf_key, idx)
    return ItsKeySequence(vals[:, 0], _fisher_yates(vals[:, 1:]))


def derive_bs_sequence(prf_key: bytes, n: int, n_vocab: int, n_bits: int,
                       start: int = 0) -> BsKeySequence:
    """Binary-sampling key elements for positions start .. start+n-1."""
    base = _first_slots(start, n, n_vocab, n_bits)
    idx = base[:, None] + np.uint64(n_vocab) + np.arange(n_bits, dtype=np.uint64)[None, :]
    return BsKeySequence(uniform_block(prf_key, idx))


def derive_key_sequence(seed: SeedBlock, kind: str, n: int, n_vocab: int, n_bits: int):
    """Seed-determined key sequence of the requested sampler kind."""
    key = derive_prf_key(seed)
    if kind == "its":
        return derive_its_sequence(key, n, n_vocab, n_bits)
    if kind == "bs":
        return derive_bs_sequence(key, n, n_vocab, n_bits)
    raise ValueError(f"unknown key kind {kind!r}")


def resample_key_sequence(rng: np.random.Generator, kind: str, n: int, n_vocab: int, n_bits: int,
                          count: int = 1):
    """``count`` fresh iid key sequences from the harness RNG (the
    permutation-test null), stacked key after key into one sequence of
    count * n rows.

    One call draws exactly the doubles ``count`` successive calls would:
    per its key, n uniforms and then n * N rank draws; per bs key, n rows of
    n_bits uniforms.
    """
    if kind == "its":
        draws = rng.random((count, n * (n_vocab + 1)))
        ranks = np.argsort(draws[:, n:].reshape(count, n, n_vocab), axis=2)
        return ItsKeySequence(draws[:, :n].ravel(), ranks.reshape(count * n, n_vocab))
    if kind == "bs":
        return BsKeySequence(rng.random((count * n, n_bits)))
    raise ValueError(f"unknown key kind {kind!r}")
