import numpy as np
import pytest

from entmark.coding import build_codes, build_huffman_codes, codes_for_lm, prefix_mass
from entmark.detection import h_hard, h_soft
from entmark.lm import skewed_lm
from entmark.sampling import Row, sample_bs
from oracles import node_of, path_probability, scalar_h_hard, scalar_h_soft, scalar_sample_bs


def test_fixed_codes_canonical():
    code = build_codes(4)
    assert code.codes == ("00", "01", "10", "11")
    code3 = build_codes(3)
    assert code3.max_bits == 2
    assert code3.codes == ("00", "01", "10")
    unused = node_of(code3, "11")  # an unused pattern: a leaf with no members
    assert code3.leaf[unused] == 2 and code3.members[unused].size == 0
    with pytest.raises(ValueError, match="degenerate"):
        build_codes(1)


def _assert_words_reach_their_leaves(code):
    # each token's word walks down the tree to a leaf that reads as it and
    # holds it alone
    for t, word in enumerate(code.codes):
        v = node_of(code, word)
        assert code.leaf[v] == t and code.members[v].tolist() == [t]


def test_encode_decode_round_trip():
    code = build_codes(4)
    assert code.codes[2] == "10"
    assert code.leaf[node_of(code, "10")] == 2
    assert build_codes(2).codes[0] == "0"
    for n in (2, 3, 5, 8, 11):
        _assert_words_reach_their_leaves(build_codes(n))


def test_bit_conditional_examples():
    # P(next bit = 1 | prefix), the ratio the samplers take at each node
    def bit_conditional(p, code, prefix):
        one = prefix_mass(p, code, node_of(code, prefix + "1"))
        return one / prefix_mass(p, code, node_of(code, prefix))

    code = build_codes(4)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert bit_conditional(p, code, "") == pytest.approx(0.7)
    assert bit_conditional(p, code, "1") == pytest.approx(0.4 / 0.7)
    assert bit_conditional(np.array([1.0, 0, 0, 0]), code, "") == 0.0
    with pytest.raises(ValueError, match="leaves the code tree"):
        bit_conditional(p, code, "10")  # a full code word has no next bit


def test_prefix_mass_splits():
    code = build_codes(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(3))
        for prefix in ("", "0", "1"):
            node = prefix_mass(p, code, node_of(code, prefix))
            assert node == pytest.approx(
                prefix_mass(p, code, node_of(code, prefix + "0"))
                + prefix_mass(p, code, node_of(code, prefix + "1"))
            )
    assert prefix_mass(np.ones(3) / 3, code, node_of(code, "")) == pytest.approx(1.0)


def test_path_probability_telescopes():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 8):
        code = build_codes(n)
        for trial in range(10):
            p = rng.dirichlet(np.ones(n))
            if trial % 3 == 0 and n > 2:
                p[rng.integers(n)] = 0.0
                p = p / p.sum()
            total = sum(path_probability(p, code, format(v, f"0{code.max_bits}b"))
                        for v in range(2**code.max_bits))
            assert total == pytest.approx(1.0, abs=1e-9)
            for t in range(n):
                assert path_probability(p, code, code.codes[t]) == pytest.approx(p[t], abs=1e-12)


def test_huffman_codes():
    code = build_huffman_codes([5, 1, 1, 1])
    assert code.mode == "huffman"
    assert len(code.codes[0]) < len(code.codes[1])  # heavy token gets a short word
    # prefix-free
    for i, a in enumerate(code.codes):
        for j, b in enumerate(code.codes):
            if i != j:
                assert not b.startswith(a)
    _assert_words_reach_their_leaves(code)
    assert build_huffman_codes([5, 1, 1, 1]).codes == code.codes  # deterministic
    with pytest.raises(ValueError):
        build_huffman_codes([1.0])
    with pytest.raises(ValueError):
        build_huffman_codes([1.0, 0.0])


def test_codes_for_lm_modes():
    lm = skewed_lm(4)
    assert codes_for_lm(lm, "fixed").codes == ("00", "01", "10", "11")
    h1 = codes_for_lm(lm, "huffman")
    h2 = codes_for_lm(lm, "huffman")
    assert h1.codes == h2.codes
    with pytest.raises(ValueError):
        codes_for_lm(lm, "arithmetic")


def test_tree_walks_match_string_oracles():
    # fixed codes of any size (unused patterns included) and Huffman codes,
    # against distributions with zero-mass tokens and subtrees
    rng = np.random.default_rng(8)
    for trial in range(90):
        if trial % 3 == 2:
            code = build_huffman_codes(rng.integers(1, 50, size=int(rng.integers(2, 40))))
        else:
            code = build_codes(int(rng.integers(2, 70)))
        n = code.n_tokens
        p = rng.dirichlet(np.ones(n))
        if trial % 2:
            p[rng.random(n) < 0.5] = 0.0
            if trial % 4 == 3:
                p[: n // 2] = 0.0  # a zero-mass half of the tree
            if p.sum() == 0.0:
                p[-1] = 1.0
            p /= p.sum()
        u = rng.random((150, code.max_bits))
        u[rng.random(u.shape) < 0.05] = 0.5  # exercise > and >= at 1/2
        want = [scalar_sample_bs(p, code, row) for row in u]
        row = Row(p)
        assert [sample_bs(row, code, bits) for bits in u] == want
        assert h_hard(u, code).tobytes() == scalar_h_hard(u, code).tobytes()
        assert h_soft(u, code).tobytes() == scalar_h_soft(u, code).tobytes()


def test_deep_code_maps_match_string_oracles():
    # weights 2**i make a 59-level Huffman chain: token 59 is "1", token t
    # is 59 - t zeros then a one, and tokens 0 and 1 end 59 bits down, so
    # the maps' walk and their 2**-depth scaling run at every depth to 59
    code = build_huffman_codes(2.0 ** np.arange(60))
    assert code.max_bits == 59
    assert sorted({len(w) for w in code.codes}) == list(range(1, 60))
    rng = np.random.default_rng(12)
    rows = []
    for word in code.codes:
        for half in ("0.5 on ones", "random"):
            # bits of this word, then noise the word never reads
            u = rng.random(code.max_bits)
            for j, bit in enumerate(word):
                u[j] = 0.5 * rng.random() + (0.5 if bit == "1" else 0.0)
                if bit == "1" and half == "0.5 on ones":
                    u[j] = 0.5  # soft reads a 1 here, hard a 0
            rows.append(u)
    u = np.vstack(rows + [rng.random((200, code.max_bits))])
    u[-100:][rng.random((100, code.max_bits)) < 0.1] = 0.5
    depths = code.depth[[node_of(code, w) for w in code.codes]]
    assert sorted(set(depths.tolist())) == list(range(1, 60))
    assert h_soft(u, code).tobytes() == scalar_h_soft(u, code).tobytes()
    assert h_hard(u, code).tobytes() == scalar_h_hard(u, code).tobytes()
