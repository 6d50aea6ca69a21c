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


def _rotl(x, n):
    return (x << np.uint32(n)) | (x >> np.uint32(32 - n))


def _quarter_round(s, a, b, c, d):
    s[a] += s[b]
    s[d] = _rotl(s[d] ^ s[a], 16)
    s[c] += s[d]
    s[b] = _rotl(s[b] ^ s[c], 12)
    s[a] += s[b]
    s[d] = _rotl(s[d] ^ s[a], 8)
    s[c] += s[d]
    s[b] = _rotl(s[b] ^ s[c], 7)


_QR_PLAN = (
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14),
)
_MASK = 0xFFFFFFFF
_SCALAR_BATCH_LIMIT = 32


def _chacha_rounds_scalar(state):
    """One block's 20 rounds on a 16-entry list of Python ints."""
    x = list(state)
    for _ in range(10):
        for a, b, c, d in _QR_PLAN:
            x[a] = (x[a] + x[b]) & _MASK
            x[d] ^= x[a]
            x[d] = ((x[d] << 16) | (x[d] >> 16)) & _MASK
            x[c] = (x[c] + x[d]) & _MASK
            x[b] ^= x[c]
            x[b] = ((x[b] << 12) | (x[b] >> 20)) & _MASK
            x[a] = (x[a] + x[b]) & _MASK
            x[d] ^= x[a]
            x[d] = ((x[d] << 8) | (x[d] >> 24)) & _MASK
            x[c] = (x[c] + x[d]) & _MASK
            x[b] ^= x[c]
            x[b] = ((x[b] << 7) | (x[b] >> 25)) & _MASK
    return [(w + s) & _MASK for w, s in zip(x, state)]


def chacha20_blocks(key: bytes, counters, nonce: bytes = b"\x00" * 12) -> np.ndarray:
    """ChaCha20 block function for an array of 32-bit block counters.

    Returns the 16 output words per counter as a uint32 array of shape
    (len(counters), 16). All arithmetic is the RFC construction (constants |
    key | counter | nonce, 20 rounds, feed forward). Large batches run
    vectorized over counters; small ones take a scalar path with identical
    results.
    """
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    counters = np.asarray(counters, dtype=np.uint32)
    n = counters.size
    if n <= _SCALAR_BATCH_LIMIT:
        base = (
            [int(w) for w in _CHACHA_CONST]
            + [int(w) for w in np.frombuffer(key, dtype="<u4")]
            + [0]
            + [int(w) for w in np.frombuffer(nonce, dtype="<u4")]
        )
        out = np.empty((n, 16), dtype=np.uint32)
        for i, ctr in enumerate(counters.ravel()):
            base[12] = int(ctr)
            out[i] = _chacha_rounds_scalar(base)
        return out
    state = np.empty((16, n), dtype=np.uint32)
    state[0:4] = _CHACHA_CONST[:, None]
    state[4:12] = np.frombuffer(key, dtype="<u4").astype(np.uint32)[:, None]
    state[12] = counters
    state[13:16] = np.frombuffer(nonce, dtype="<u4").astype(np.uint32)[:, None]
    work = state.copy()
    with np.errstate(over="ignore"):
        for _ in range(10):
            for a, b, c, d in _QR_PLAN:
                _quarter_round(work, a, b, c, d)
        work += state
    return work.T


def chacha20_block_bytes(key: bytes, counter: int, nonce: bytes = b"\x00" * 12) -> bytes:
    """One 64-byte keystream block, little-endian serialized."""
    words = chacha20_blocks(key, [counter], nonce)[0]
    return words.astype("<u4").tobytes()


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


def uniform_stream(key: bytes, index: int) -> float:
    """Single uniform in [0, 1) at a stream index; stateless, reproducible."""
    return float(uniform_block(key, [index])[0])


def key_bits(n_vocab: int, code=None) -> int:
    """Binary uniforms per key position (L in the counter layout): the
    code's longest word, else the fixed-length code size."""
    return code.max_bits if code is not None else max(1, (n_vocab - 1).bit_length())


def _stride(n_vocab: int, n_bits: int) -> int:
    return n_vocab + n_bits + 1


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
    order = np.tile(np.arange(n, dtype=np.int64), (n_rows, 1))
    rows = np.arange(n_rows)
    for step, s in enumerate(range(n - 1, 0, -1)):
        j = np.minimum((uniforms[:, step] * (s + 1)).astype(np.int64), s)
        tmp = order[rows, s].copy()
        order[rows, s] = order[rows, j]
        order[rows, j] = tmp
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n, dtype=np.int64)[None, :].repeat(n_rows, 0), axis=1)
    return ranks


def derive_its_sequence(prf_key: bytes, n: int, n_vocab: int, n_bits: int | None = None,
                        start: int = 0) -> ItsKeySequence:
    """Inverse-transform key elements for positions start .. start+n-1."""
    if n_bits is None:
        n_bits = key_bits(n_vocab)
    stride = _stride(n_vocab, n_bits)
    if n == 0:
        return ItsKeySequence(np.empty(0), np.empty((0, n_vocab), dtype=np.int64))
    base = (np.arange(start, start + n, dtype=np.uint64)) * np.uint64(stride)
    if n_vocab == 1:
        return ItsKeySequence(uniform_block(prf_key, base), np.zeros((n, 1), dtype=np.int64))
    idx = base[:, None] + np.arange(n_vocab, dtype=np.uint64)[None, :]
    vals = uniform_block(prf_key, idx)
    return ItsKeySequence(vals[:, 0], _fisher_yates(vals[:, 1:]))


def derive_bs_sequence(prf_key: bytes, n: int, n_vocab: int, n_bits: int,
                       start: int = 0) -> BsKeySequence:
    """Binary-sampling key elements for positions start .. start+n-1."""
    stride = _stride(n_vocab, n_bits)
    if n == 0:
        return BsKeySequence(np.empty((0, n_bits)))
    base = (np.arange(start, start + n, dtype=np.uint64)) * np.uint64(stride)
    idx = base[:, None] + np.uint64(n_vocab) + np.arange(n_bits, dtype=np.uint64)[None, :]
    return BsKeySequence(uniform_block(prf_key, idx))


def its_element(prf_key: bytes, position: int, n_vocab: int, n_bits: int | None = None) -> ItsKeyElement:
    return derive_its_sequence(prf_key, 1, n_vocab, n_bits, start=position).element(0)


def bs_element(prf_key: bytes, position: int, n_bits: int, n_vocab: int) -> BsKeyElement:
    return derive_bs_sequence(prf_key, 1, n_vocab, n_bits, start=position).element(0)


def derive_key_sequence(seed: SeedBlock, kind: str, n: int, n_vocab: int, n_bits: int):
    """Seed-determined key sequence of the requested sampler kind."""
    key = derive_prf_key(seed)
    if kind == "its":
        return derive_its_sequence(key, n, n_vocab, n_bits)
    if kind == "bs":
        return derive_bs_sequence(key, n, n_vocab, n_bits)
    raise ValueError(f"unknown key kind {kind!r}")


def resample_key_sequence(rng: np.random.Generator, kind: str, n: int, n_vocab: int, n_bits: int):
    """Fresh iid key sequence from the harness RNG (the permutation-test null)."""
    if kind == "its":
        u = rng.random(n)
        ranks = np.argsort(rng.random((n, n_vocab)), axis=1).astype(np.int64)
        return ItsKeySequence(u, ranks)
    if kind == "bs":
        return BsKeySequence(rng.random((n, n_bits)))
    raise ValueError(f"unknown key kind {kind!r}")
