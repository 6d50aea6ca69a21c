"""Watermark key derivation and resampling.

A generation's key material is derived deterministically from a seed block
(the unwatermarked token prefix plus a salt): SHA-256 turns the seed block
into a 32-byte PRF key (``derive_prf_key``), and the ChaCha20 block function
in counter mode turns (key, counter) pairs into independent uniforms in
[0, 1), from which ``derive_key_sequence`` builds either kind of key. Every
sequence position owns a disjoint counter range, so the inverse-transform
element and the binary element of the same position never share stream values
and can be re-derived independently.

Counter layout per position (stride = N + L + 1 slots):

    +0            inverse-transform u
    +1 .. +N-1    Fisher-Yates draws for the rank permutation
    +N .. +N+L-1  per-bit uniforms for binary sampling
    +N+L          reserved

The null keys of the detection permutation test are not PRF-derived; they
come from an explicit ``numpy.random.Generator`` supplied by the caller.
"""

import functools
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
# bytes are kept. Written by ``update_into`` straight into the returned array,
# 4,096 blocks took ~70 us (~300 us through ``update``, which allocates the
# plaintext and the keystream as two fresh 256 KiB bytes) and a 105,205-block
# span ~2.0 ms on a 2-core Xeon. Passes of 1,024, 2,048 or 16,384 blocks were
# slower, 8,192 no clearly faster; passes of 2**20 no longer fit in cache.
_PASS = 4096


@functools.cache
def _zero_plaintext() -> memoryview:
    """The 64 * _PASS zero bytes each pass encrypts, made on the first draw;
    a process that derives no key never holds them."""
    return memoryview(bytes(64 * _PASS))


def chacha20_blocks(key: bytes, counter: int, count: int, nonce: bytes = bytes(12)) -> np.ndarray:
    """RFC 8439 ChaCha20 blocks ``counter .. counter+count-1`` under one
    nonce, as a fresh (count, 16) array of uint32 words, which the
    ``cryptography`` package's stream cipher writes in place.

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
    out = np.empty((count, 16), dtype="<u4")
    if count == 0:  # a memoryview cannot cast an empty array
        return out
    zeros = _zero_plaintext()
    encryptor = Cipher(algorithms.ChaCha20(key, struct.pack("<I", counter) + nonce),
                       mode=None).encryptor()
    buf = memoryview(out).cast("B")
    for done in range(0, len(buf), len(zeros)):
        chunk = buf[done : done + len(zeros)]
        encryptor.update_into(zeros[: len(chunk)], chunk)
    return out


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


class ItsKeySequence:
    """Inverse-transform keys, one position per row: the uniforms ``u`` and
    two (n, N) int64 maps, ``order`` (rank -> token) and ``ranks`` (token ->
    rank), each the other's row-wise inverse. The float64 and int64 arrays
    are wrapped as given, so the maps' rows must be permutations, as
    derivation and the null draw make them. A derived key holds the
    Fisher-Yates ``order``, which generation reads, and builds ``ranks``
    from it when detection first asks; racing threads compute the same
    array, so that cache needs no lock. A null key is drawn as ranks, is
    never sampled from, and has ``order`` None."""

    kind = "its"

    def __init__(self, u: np.ndarray, *, order: np.ndarray | None = None,
                 ranks: np.ndarray | None = None):
        self.u, self.order, self._ranks = u, order, ranks

    @property
    def n(self) -> int:
        return self.u.size

    @property
    def n_vocab(self) -> int:
        return (self.order if self._ranks is None else self._ranks).shape[1]

    @property
    def ranks(self) -> np.ndarray:
        """Each token's rank per row, ``order``'s inverse unless given."""
        if self._ranks is None:
            self._ranks = _inverse(self.order)
        return self._ranks


class BsKeySequence:
    """Binary-sampling keys, one position per row: the (n, L) bit uniforms
    ``u``."""

    kind = "bs"

    def __init__(self, u: np.ndarray):
        self.u = np.atleast_2d(np.asarray(u, dtype=np.float64))

    @property
    def n(self) -> int:
        return self.u.shape[0]


# Bytes of swap targets the shuffle computes at a time (20 steps at n = 397
# positions, one past n = 4096), small enough that the buffer is reused
# rather than faulted in again on every derivation. At n = 397, N = 256 a
# derivation took 4.7 ms against 4.9 ms with all N - 1 steps in one table,
# and 372 minor page faults a generate-wide op against 569; 128 and 256 KiB
# were no faster (one core of a 2-core Xeon, medians of 300 interleaved calls).
_TARGET_BYTES = 2**16


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse of each permutation along the last axis, as int64:
    ``ranks[..., order[..., r]] = r``."""
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(order.shape[-1]), axis=-1)
    return ranks


def _fisher_yates(uniforms: np.ndarray) -> np.ndarray:
    """Shuffle 0..N-1 per row from iid uniforms; returns ``order``, the
    token at each rank, (rows, N) int64.

    Row i of ``uniforms`` holds the N-1 draws for one permutation, consumed
    at steps s = N-1 .. 1: step s swaps slot s with slot floor(u (s+1)),
    capped at s. The shuffle runs token-major, so the slots swapped at one
    step are contiguous rows, and ``order`` is a transposed view of it. The
    inverse, each token's rank, is not built here: ``ItsKeySequence.ranks``
    makes it when detection asks.
    """
    n_rows, n_draws = uniforms.shape
    n = n_draws + 1
    steps = np.arange(n - 1, 0, -1)
    cols = np.arange(n_rows)
    # token-major, so the slots swapped at one step are contiguous rows
    order = np.empty((n, n_rows), dtype=np.int64)
    order[...] = np.arange(n)[:, None]
    flat = order.reshape(-1)
    # the slot each step swaps with, truncated as astype would and made a
    # flat index into ``order``, for a batch of steps at a time
    batch = max(1, _TARGET_BYTES // (8 * max(1, n_rows)))
    targets = np.empty((min(batch, n_draws), n_rows), dtype=np.int64)
    for first in range(0, n_draws, batch):
        part = steps[first : first + batch]
        t = targets[: part.size]
        np.multiply(uniforms.T[first : first + part.size], (part + 1)[:, None], out=t,
                    casting="unsafe")
        np.minimum(t, part[:, None], out=t)
        t *= n_rows
        t += cols
        for s, j in zip(part, t):
            row = order[s]
            held = row.copy()
            row[...] = flat[j]
            flat[j] = held
    return order.T


def derive_key_sequence(prf_key: bytes, kind: str, n: int, n_vocab: int, n_bits: int,
                        start: int = 0):
    """Key sequence of sampler ``kind`` for positions start .. start+n-1 of
    ``prf_key``'s stream, ``n_bits`` uniforms a position for the bit walk."""
    if kind not in ("its", "bs"):
        raise ValueError(f"unknown key kind {kind!r}")
    stride = n_vocab + n_bits + 1
    slots = uniform_block(prf_key, start * stride, n * stride).reshape(n, stride)
    if kind == "its":
        order = _fisher_yates(slots[:, 1:n_vocab])
        return ItsKeySequence(slots[:, 0].copy(), order=order)
    return BsKeySequence(slots[:, n_vocab : n_vocab + n_bits].copy())


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
        return ItsKeySequence(draws[:, :n].ravel(), ranks=ranks.reshape(count * n, n_vocab))
    if kind == "bs":
        return BsKeySequence(rng.random((count * n, n_bits)))
    raise ValueError(f"unknown key kind {kind!r}")
