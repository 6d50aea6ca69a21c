import numpy as np
import pytest
from scipy import stats

from entmark.lm import (MarkovLM, Vocabulary, apply_temperature, apply_top_p,
                        build_vocabulary, load_lm, peaked_lm, save_lm, skewed_lm,
                        tokenize, train_from_text, train_markov, uniform_lm,
                        validate_distribution)


def small_vocab():
    return Vocabulary(("a", "b"))


def test_vocabulary_invariants():
    v = Vocabulary(("a", "b", "c"))
    assert v.size == 3
    assert v.id_of("b") == 1
    assert v.decode(v.encode(["c", "a"])) == ["c", "a"]
    with pytest.raises(ValueError):
        Vocabulary(("a",))
    with pytest.raises(ValueError):
        Vocabulary(("a", "a"))
    with pytest.raises(ValueError):
        v.id_of("z")


def test_train_markov_hand_count():
    # corpus a b a b: pair (a,b) twice, (b,a) once
    lm = train_markov([0, 1, 0, 1], small_vocab(), smoothing=1.0)
    p = lm.next_distribution([0])
    assert p[1] == pytest.approx((2 + 1) / (2 + 1 * 2))
    assert p[0] == pytest.approx(0.25)


def test_train_markov_balanced_pairs_uniform():
    # every ordered pair equally often -> uniform rows
    lm = MarkovLM(small_vocab(), np.array([[5, 5], [5, 5]]))
    for t in (0, 1):
        assert np.allclose(lm.next_distribution([t]), [0.5, 0.5])


def test_train_markov_insufficient_corpus():
    with pytest.raises(ValueError, match="insufficient corpus"):
        train_markov([0], small_vocab(), 1.0)


def test_next_distribution_edges():
    lm = train_markov([0, 1, 0, 1], small_vocab(), 1.0)
    with pytest.raises(ValueError):
        lm.next_distribution([])
    with pytest.raises(ValueError):
        lm.next_distribution([7])
    # zero counts, any smoothing -> uniform
    zero = MarkovLM(small_vocab(), np.zeros((2, 2), dtype=np.int64), smoothing=3.7)
    assert np.allclose(zero.next_distribution([1]), [0.5, 0.5])


def test_next_distribution_fuzz_valid():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        vocab = Vocabulary(tuple(f"t{i}" for i in range(n)))
        corpus = rng.integers(n, size=rng.integers(2, 40)).tolist()
        lm = train_markov(corpus, vocab, float(rng.uniform(0.1, 3)))
        for t in range(n):
            validate_distribution(lm.next_distribution([t]))
        validate_distribution(lm.start_distribution())


def test_train_next_round_trip_chisquare():
    rng = np.random.default_rng(1)
    lm = train_markov(rng.integers(3, size=500).tolist(),
                      Vocabulary(("x", "y", "z")), 0.5)
    row = lm.next_distribution([1])
    draws = rng.choice(3, size=100_000, p=row)
    counts = np.bincount(draws, minlength=3)
    p = stats.chisquare(counts, row * counts.sum()).pvalue
    assert p > 0.01


def test_top_p_identity_and_renormalize():
    p = np.array([0.5, 0.3, 0.2])
    assert np.allclose(apply_top_p(p, 1.0), p)
    out = apply_top_p(p, 0.8)
    assert np.allclose(out, [0.625, 0.375, 0.0])
    onehot = apply_top_p(np.array([1.0, 0.0, 0.0]), 0.3)
    assert np.allclose(onehot, [1, 0, 0])
    with pytest.raises(ValueError):
        apply_top_p(p, 0.0)


def test_top_p_tie_break_ascending_id():
    out = apply_top_p(np.array([0.3, 0.3, 0.4]), 0.69)
    # descending order with stable ties: id2 (0.4) then id0 (0.3)
    assert out[1] == 0.0
    assert np.allclose(out[[2, 0]], [0.4 / 0.7, 0.3 / 0.7])


def test_top_p_not_idempotent_in_general():
    # Renormalizing can push the head above the threshold, so a second
    # application may truncate further; composition only ever shrinks support.
    p = np.array([0.79, 0.11, 0.10])
    once = apply_top_p(p, 0.8)
    twice = apply_top_p(once, 0.8)
    assert np.count_nonzero(once) == 2
    assert np.count_nonzero(twice) == 1
    assert set(np.flatnonzero(twice)) <= set(np.flatnonzero(once))


def test_top_p_support_shrinks_property():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.dirichlet(np.ones(rng.integers(2, 8)))
        top_p = float(rng.uniform(0.05, 1.0))
        once = apply_top_p(p, top_p)
        twice = apply_top_p(once, top_p)
        validate_distribution(once)
        assert set(np.flatnonzero(twice)) <= set(np.flatnonzero(once))


def test_temperature():
    p = np.array([0.8, 0.2])
    assert np.allclose(apply_temperature(p, 1.0), p)
    assert np.allclose(apply_temperature(np.array([0.5, 0.5]), 7.3), [0.5, 0.5])
    cold = apply_temperature(p, 1e-9)
    assert np.allclose(cold, [1.0, 0.0])
    hot = apply_temperature(p, 1e9)
    assert np.allclose(hot, [0.5, 0.5], atol=1e-6)
    with pytest.raises(ValueError):
        apply_temperature(p, 0.0)


def test_nan_fails_the_checks():
    # NaN compares false both ways, so a check written as "x <= 0" passes it
    nan = float("nan")
    with pytest.raises(ValueError, match="sums to"):
        validate_distribution([nan, 0.5, 0.5])
    for smoothing in (nan, float("inf")):
        with pytest.raises(ValueError, match="smoothing must be finite and > 0"):
            MarkovLM(small_vocab(), np.zeros((2, 2), dtype=np.int64), smoothing=smoothing)
    with pytest.raises(ValueError, match="temperature must be > 0"):
        apply_temperature(np.array([0.8, 0.2]), nan)


def test_tokenize_and_vocab():
    assert tokenize("ab cd ab") == ["ab", "cd", "ab"]
    assert tokenize("ab cd", "char") == ["a", "b", "c", "d"]
    with pytest.raises(ValueError):
        tokenize("x", "words")
    v = build_vocabulary(["b", "a", "b", "c"])
    assert v.tokens == ("b", "a", "c")


def test_save_load_round_trip(tmp_path):
    lm = train_from_text("the cat sat on the mat the cat", smoothing=0.7)
    path = tmp_path / "model.json"
    save_lm(lm, path)
    back = load_lm(path)
    assert back.vocab.tokens == lm.vocab.tokens
    assert back.smoothing == lm.smoothing
    assert np.array_equal(back.counts, lm.counts)
    assert np.array_equal(back.bos_counts, lm.bos_counts)
    path.write_text('{"format": "nope"}')
    with pytest.raises(ValueError):
        load_lm(path)


def test_builtin_lms():
    u = uniform_lm(4)
    assert np.allclose(u.next_distribution([2]), 0.25)
    s = skewed_lm(4)
    assert np.allclose(s.next_distribution([0]), [0.4, 0.3, 0.2, 0.1])
    pk = peaked_lm(8, 0.95)
    assert pk.next_distribution([0])[1] == pytest.approx(0.95, abs=0.005)
    with pytest.raises(ValueError):
        peaked_lm(4, 0.1)
