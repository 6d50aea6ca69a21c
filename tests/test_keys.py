import hashlib
import itertools

import numpy as np
import pytest
from scipy import stats

from entmark.keys import (_PASS, BsKeySequence, ItsKeySequence, SeedBlock, chacha20_blocks,
                          derive_key_sequence, derive_prf_key, key_bits, resample_key_sequence,
                          uniform_block)
from oracles import resample_its_two_calls, scalar_chacha20_block, scatter_ranks

KEY = bytes(range(32))


def block_bytes(key, counter, nonce):
    """One 64-byte keystream block, little-endian serialized."""
    return chacha20_blocks(key, counter, 1, nonce)[0].astype("<u4").tobytes()


def its_element(key, position, n_vocab):
    """The its key of one position: its uniform and rank map."""
    seq = derive_key_sequence(key, "its", 1, n_vocab, key_bits(n_vocab), start=position)
    return seq.u[0], seq.ranks[0]


def bs_element(key, position, n_bits, n_vocab):
    """The bs key of one position: its bit uniforms."""
    return derive_key_sequence(key, "bs", 1, n_vocab, n_bits, start=position).u[0]


def test_chacha20_rfc_vector():
    # RFC 8439 2.3.2: key 00..1f, counter 1, nonce 000000090000004a00000000
    nonce = bytes.fromhex("000000090000004a00000000")
    expected = bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )
    assert block_bytes(KEY, 1, nonce) == expected


def test_chacha20_against_library():
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

    def library_stream(key, counter, nonce, n_blocks):
        full = counter.to_bytes(4, "little") + nonce
        return Cipher(algorithms.ChaCha20(key, full), mode=None).encryptor().update(
            bytes(64 * n_blocks))

    rng = np.random.default_rng(0)
    for _ in range(5):
        key = rng.bytes(32)
        counter = int(rng.integers(0, 2**32))
        nonce = rng.bytes(12)
        assert block_bytes(key, counter, nonce) == library_stream(key, counter, nonce, 1)
    # one contiguous 40-block run, the counter staying within 32 bits
    key, nonce = rng.bytes(32), rng.bytes(12)
    start = int(rng.integers(0, 2**32 - 40))
    words = chacha20_blocks(key, start, 40, nonce)
    assert words.astype("<u4").tobytes() == library_stream(key, start, nonce, 40)


def test_chacha_blocks_match_scalar_oracle():
    # one stream as long as a full uniform_block pass and a 37-block tail
    rng = np.random.default_rng(9)
    key, nonce = rng.bytes(32), rng.bytes(12)
    count = _PASS + 37
    start = int(rng.integers(0, 2**32 - count))
    words = chacha20_blocks(key, start, count, nonce)
    assert words.shape == (count, 16) and words.dtype == np.uint32
    for ctr, row in enumerate(words.tolist(), start):
        assert row == scalar_chacha20_block(key, ctr, nonce)


def test_chacha_blocks_stay_within_the_32_bit_counter():
    nonce = bytes(range(12))
    last = chacha20_blocks(KEY, 2**32 - 3, 3, nonce)[-1]
    assert last.tolist() == scalar_chacha20_block(KEY, 2**32 - 1, nonce)
    for counter, count in ((2**32 - 3, 4), (2**32, 1), (-1, 2)):
        with pytest.raises(ValueError, match="block counters"):
            chacha20_blocks(KEY, counter, count, nonce)


def test_chacha_blocks_of_no_blocks():
    words = chacha20_blocks(KEY, 7, 0)
    assert words.shape == (0, 16) and words.dtype == np.uint32


def test_v1_key_bytes_are_pinned():
    # sha256 of the derived key bytes, recorded before the block function
    # and Fisher-Yates were vectorized; PRF_ID v1 must never change them
    def digest(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]

    its = derive_key_sequence(KEY, "its", 397, 256, 8)
    assert digest(its.u, its.ranks) == "a398f5324c3d1ad5"
    # counters of these positions cross into the 2**32 high (nonce) word
    its = derive_key_sequence(KEY, "its", 3, 256, 8, start=16207422)
    assert digest(its.u, its.ranks) == "984a41b5de042e80"
    assert digest(derive_key_sequence(KEY, "bs", 397, 8, 3).u) == "f2d80cc74b9330bd"


def test_uniform_stream_determinism_and_range():
    a = uniform_block(KEY, 12345, 1)[0]
    assert a == uniform_block(KEY, 12345, 1)[0]
    assert a != uniform_block(KEY, 12346, 1)[0]
    big = uniform_block(KEY, 0, 10_000)
    assert big.min() >= 0.0 and big.max() < 1.0
    assert big[12] == uniform_block(KEY, 12, 1)[0]  # stateless: index, not call order
    # indices above 32 bits roll into the nonce word and stay consistent
    hi = 2**40 + 7
    assert uniform_block(KEY, hi, 1)[0] == uniform_block(KEY, hi - 7, 8)[7]
    assert uniform_block(KEY, hi, 1)[0] != uniform_block(KEY, hi & 0xFFFFFFFF, 1)[0]


def test_uniform_span_across_the_high_word_equals_its_halves():
    # a span over a multiple of 2**32 is cut there, and passes of _PASS
    # blocks meet on both sides of the cut
    edge = 3 * 2**32
    first, count = edge - _PASS - 5, 2 * _PASS + 11
    whole = uniform_block(KEY, first, count)
    below = uniform_block(KEY, first, edge - first)
    above = uniform_block(KEY, edge, first + count - edge)
    assert whole.tobytes() == below.tobytes() + above.tobytes()
    # the first index past the edge is counter 0 under high word 3
    word = scalar_chacha20_block(KEY, 0, (3).to_bytes(4, "little") + bytes(8))
    assert above[0] == ((word[0] | word[1] << 32) >> 11) * 2.0**-53


def test_uniform_stream_ks_uniformity():
    u = uniform_block(KEY, 0, 1_000_000)
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_stream_pair_independence():
    u = uniform_block(KEY, 0, 200_000)
    rho = np.corrcoef(u[0::2], u[1::2])[0, 1]
    assert abs(rho) < 0.01


def test_derive_prf_key():
    s1 = SeedBlock((1, 2, 3), b"salt")
    assert derive_prf_key(s1) == derive_prf_key(SeedBlock((1, 2, 3), b"salt"))
    assert derive_prf_key(s1) != derive_prf_key(SeedBlock((1, 2, 4), b"salt"))
    assert derive_prf_key(s1) != derive_prf_key(SeedBlock((1, 2, 3), b"pepper"))
    assert len(derive_prf_key(SeedBlock((), b""))) == 32
    # canonical serialization is length-prefixed, so (1,2)+(3,) != (1,)+(2,3)
    assert derive_prf_key(SeedBlock((12,), b"")) != derive_prf_key(SeedBlock((), b"\x00\x00\x00\x0c"))


def test_prf_key_collision_resistance():
    # inputs are distinct by construction (the counter is part of the block)
    rng = np.random.default_rng(3)
    seen = set()
    for i in range(100_000):
        tokens = (i, *rng.integers(0, 50, size=rng.integers(0, 4)).tolist())
        seen.add(derive_prf_key(SeedBlock(tokens, rng.bytes(4))))
    assert len(seen) == 100_000


def test_its_element_determinism_and_edge():
    u1, ranks1 = its_element(KEY, 5, 4)
    u2, ranks2 = its_element(KEY, 5, 4)
    assert u1 == u2 and np.array_equal(ranks1, ranks2)
    assert sorted(ranks1.tolist()) == [0, 1, 2, 3]
    _, single = its_element(KEY, 0, 1)
    assert np.array_equal(single, [0])


def test_empty_and_single_token_derivation():
    # no positions, and a one-token vocabulary, take the general path to
    # the arrays a special case would build
    for n_vocab in (1, 2, 8):
        its = derive_key_sequence(KEY, "its", 0, n_vocab, key_bits(n_vocab), start=5)
        assert its.u.shape == (0,) and its.ranks.shape == (0, n_vocab)
        assert its.u.dtype == np.float64 and its.ranks.dtype == np.int64
        bs = derive_key_sequence(KEY, "bs", 0, n_vocab, 3, start=5)
        assert bs.u.shape == (0, 3) and bs.u.dtype == np.float64
    # N = 1, L = 1: a stride of 3 slots, the uniform in slot +0
    single = derive_key_sequence(KEY, "its", 6, 1, key_bits(1), start=4)
    want = uniform_block(KEY, 4 * 3, 6 * 3)[::3]
    assert single.u.tobytes() == want.tobytes()
    assert single.ranks.dtype == np.int64
    assert np.array_equal(single.ranks, np.zeros((6, 1)))


def test_its_sequence_matches_elements():
    seq = derive_key_sequence(KEY, "its", 7, 5, key_bits(5))
    for i in range(7):
        u, ranks = its_element(KEY, i, 5)
        assert u == seq.u[i]
        assert np.array_equal(ranks, seq.ranks[i])


def test_element_order_is_the_rank_argsort():
    derived = derive_key_sequence(KEY, "its", 9, 256, key_bits(256))
    resampled = resample_key_sequence(np.random.default_rng(4), "its", 3, 8, 3, count=2)
    hand = ItsKeySequence(np.full(3, 0.5), [[2, 0, 1], [1, 1, 0], [0, 0, 0]])
    for seq in (derived, resampled, hand):
        for i in range(seq.n):
            assert np.array_equal(seq.order[i], seq.ranks[i].argsort())
        assert seq.order is seq.order  # computed once, then cached


def _check_ranks_are_the_scatter(seq):
    want = scatter_ranks(seq.order)
    assert seq.ranks.dtype == np.int64 and seq.ranks.shape == (seq.n, seq.n_vocab)
    assert np.array_equal(seq.ranks, want)
    assert seq.ranks is seq.ranks  # computed once, then cached


@pytest.mark.parametrize("n, n_vocab, start", [(0, 1, 0), (0, 8, 3), (6, 1, 4), (1, 2, 0),
                                                (9, 5, 2), (40, 256, 0), (3, 256, 16207422)])
def test_derived_ranks_on_demand_equal_the_eager_scatter(n, n_vocab, start):
    # a derived key keeps its order; the rank table, made on first use, is
    # the scatter derivation used to make eagerly
    seq = derive_key_sequence(KEY, "its", n, n_vocab, key_bits(n_vocab), start=start)
    _check_ranks_are_the_scatter(seq)


def test_resampled_and_hand_built_ranks_equal_the_scatter():
    resampled = resample_key_sequence(np.random.default_rng(5), "its", 7, 8, 3, count=3)
    hand = ItsKeySequence(np.full(3, 0.5), [[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    for seq in (resampled, hand):
        _check_ranks_are_the_scatter(seq)


def test_permutation_uniformity():
    n_draws = 100_000
    seq = derive_key_sequence(KEY, "its", n_draws, 4, key_bits(4))
    perms = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
    idx = np.array([perms[tuple(r)] for r in seq.ranks.tolist()])
    freq = np.bincount(idx, minlength=24) / n_draws
    sigma = np.sqrt((1 / 24) * (23 / 24) / n_draws)
    assert np.all(np.abs(freq - 1 / 24) <= 3 * sigma)


def test_bs_element_determinism_and_shape():
    u = bs_element(KEY, 9, 3, 8)
    assert u.shape == (3,)
    assert np.array_equal(u, bs_element(KEY, 9, 3, 8))
    seq = derive_key_sequence(KEY, "bs", 12, 8, 3)
    assert np.array_equal(seq.u[9], u)
    flat = derive_key_sequence(KEY, "bs", 3000, 8, 3).u.ravel()
    assert stats.kstest(flat, "uniform").pvalue > 0.01


def test_its_bs_share_positions_disjointly():
    # same position, both kinds derivable; the bs uniforms do not reuse the
    # its values (disjoint counters)
    its_u, _ = its_element(KEY, 2, 8)
    bs = bs_element(KEY, 2, 3, 8)
    assert its_u not in bs.tolist()


def test_resample_key_sequence():
    rng = np.random.default_rng(0)
    empty = resample_key_sequence(rng, "its", 0, 4, 2)
    assert empty.n == 0
    a = resample_key_sequence(rng, "bs", 5, 4, 2)
    b = resample_key_sequence(rng, "bs", 5, 4, 2)
    assert not np.array_equal(a.u, b.u)
    its = resample_key_sequence(rng, "its", 6, 4, 2)
    assert isinstance(its, ItsKeySequence)
    assert all(sorted(r.tolist()) == [0, 1, 2, 3] for r in its.ranks)
    with pytest.raises(ValueError):
        resample_key_sequence(rng, "gumbel", 5, 4, 2)


@pytest.mark.parametrize("kind, n_vocab", [("its", 2), ("its", 8), ("its", 256), ("bs", 8)])
def test_resample_batch_equals_successive_draws(kind, n_vocab):
    # a chunk of null keys drawn in one call must be the keys that successive
    # one-key calls draw, and leave the generator where they leave it
    n, count, n_bits = 13, 4, 3
    batch_rng, step_rng = np.random.default_rng(30), np.random.default_rng(30)
    batch = resample_key_sequence(batch_rng, kind, n, n_vocab, n_bits, count=count)
    keys = [resample_key_sequence(step_rng, kind, n, n_vocab, n_bits) for _ in range(count)]
    assert batch.n == count * n
    assert batch.u.tobytes() == np.concatenate([key.u for key in keys]).tobytes()
    if kind == "its":
        assert np.array_equal(batch.ranks, np.concatenate([key.ranks for key in keys]))
    assert batch_rng.random() == step_rng.random()


@pytest.mark.parametrize("n_vocab", [2, 8, 256])
def test_resample_its_draws_two_call_stream(n_vocab):
    key = resample_key_sequence(np.random.default_rng(31), "its", 9, n_vocab, 8)
    u, ranks = resample_its_two_calls(np.random.default_rng(31), 9, n_vocab)
    assert key.u.tobytes() == u.tobytes()
    assert np.array_equal(key.ranks, ranks)


def test_derive_key_sequence_kinds():
    key = derive_prf_key(SeedBlock((4, 5), b"s"))
    its = derive_key_sequence(key, "its", 3, 4, 2)
    bs = derive_key_sequence(key, "bs", 3, 4, 2)
    assert isinstance(its, ItsKeySequence) and isinstance(bs, BsKeySequence)
    assert its.n == bs.n == 3
    with pytest.raises(ValueError):
        derive_key_sequence(key, "nope", 3, 4, 2)


def test_its_key_sequence_rejects_out_of_range_ranks():
    u = np.full(2, 0.5)
    ItsKeySequence(u, [[2, 0, 1], [0, 1, 2]])
    for bad in ([[0, 1, 2], [0, 3, 1]], [[0, -1, 2], [0, 1, 2]]):
        with pytest.raises(ValueError, match=r"key rank out of range 0\.\.2"):
            ItsKeySequence(u, bad)
    with pytest.raises(ValueError, match="mismatched"):
        ItsKeySequence(u, [0, 1])
