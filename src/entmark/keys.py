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


# Blocks per library call: 256 KiB of keystream, of which each block's first 8
# bytes are kept. On a 2-core Xeon a 105,205-block span took 2.7 ms in such
# passes, ~4 ms in passes of 1,024 or 16,384, and a 2.1M-block span 69 ms
# against 280 ms in passes of 2**20, whose keystream no longer fits in cache.
_PASS = 4096


def chacha20_blocks(key: bytes, counter: int, count: int, nonce: bytes = bytes(12)) -> np.ndarray:
    """RFC 8439 ChaCha20 blocks ``counter .. counter+count-1`` under one
    nonce, as a (count, 16) array of uint32 words, from the ``cryptography``
    package's stream cipher.

    The counter is one 32-bit word; a run past 2**32 raises, since RFC 8439
    leaves the counter's overflow undefined.
    """
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    if counter < 0 or counter + count > 2**32:
        raise ValueError("block counters must stay within 0 .. 2**32 - 1")
    cipher = Cipher(algorithms.ChaCha20(key, struct.pack("<I", counter) + nonce), mode=None)
    stream = cipher.encryptor().update(bytes(64 * count))
    return np.frombuffer(stream, dtype="<u4").reshape(count, 16)


def uniform_block(key: bytes, first: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) at stream indices ``first .. first+count-1``.

    Index i selects the ChaCha20 block with counter word ``i & 0xffffffff``
    and first nonce word ``i >> 32``; the block's first 8 bytes, read as a
    little-endian u64, give the top 53 bits of the uniform. The span is drawn
    in passes of at most ``_PASS`` blocks, cut wherever the high word changes.
    """
    if first < 0 or first + count > 2**64:
        raise ValueError("stream indices must stay within 0 .. 2**64 - 1")
    out = np.empty(count, dtype=np.float64)
    done = 0
    while done < count:
        high, low = divmod(first + done, 2**32)
        size = min(_PASS, count - done, 2**32 - low)
        blocks = chacha20_blocks(key, low, size, struct.pack("<I", high) + bytes(8))
        word = blocks.view("<u8")[:, 0]
        out[done : done + size] = (word >> np.uint64(11)) * 2.0**-53
        done += size
    return out


def key_bits(n_vocab: int, code=None) -> int:
    """Binary uniforms per key position (L in the counter layout): the
    code's longest word, else the fixed-length code size."""
    return code.max_bits if code is not None else max(1, (n_vocab - 1).bit_length())


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

    @classmethod
    def _of_argsort(cls, u: np.ndarray, ranks: np.ndarray) -> "ItsKeySequence":
        """Wrap float64 ``u`` and the int64 ``ranks`` of an argsort, which
        are in range by construction, without the range scan."""
        seq = cls.__new__(cls)
        seq.u, seq.ranks = u, ranks
        return seq

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
    stride = n_vocab + n_bits + 1
    slots = uniform_block(prf_key, start * stride, n * stride).reshape(n, stride)
    return ItsKeySequence(slots[:, 0].copy(), _fisher_yates(slots[:, 1:n_vocab]))


def derive_bs_sequence(prf_key: bytes, n: int, n_vocab: int, n_bits: int,
                       start: int = 0) -> BsKeySequence:
    """Binary-sampling key elements for positions start .. start+n-1."""
    stride = n_vocab + n_bits + 1
    slots = uniform_block(prf_key, start * stride, n * stride).reshape(n, stride)
    return BsKeySequence(slots[:, n_vocab : n_vocab + n_bits].copy())


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
        return ItsKeySequence._of_argsort(draws[:, :n].ravel(),
                                          ranks.reshape(count * n, n_vocab))
    if kind == "bs":
        return BsKeySequence(rng.random((count * n, n_bits)))
    raise ValueError(f"unknown key kind {kind!r}")
