import json

import numpy as np
import pytest
from scipy import stats

from entmark import lm as lmmod
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
    assert v.encode(["c", "a"]) == [2, 0]
    with pytest.raises(ValueError):
        Vocabulary(("a",))
    with pytest.raises(ValueError):
        Vocabulary(("a", "a"))
    with pytest.raises(ValueError, match="^unknown token 'z'$"):
        v.id_of("z")
    words = tuple(f"w{i}" for i in np.random.default_rng(0).permutation(2000))
    big = Vocabulary(words)
    assert [big.id_of(t) for t in words] == [words.index(t) for t in words]


def test_train_markov_hand_count():
    # corpus a b a b: pair (a,b) twice, (b,a) once
    lm = train_markov([0, 1, 0, 1], small_vocab(), smoothing=1.0)
    p = lm.context_distribution([0])
    assert p[1] == pytest.approx((2 + 1) / (2 + 1 * 2))
    assert p[0] == pytest.approx(0.25)


def test_train_markov_balanced_pairs_uniform():
    # every ordered pair equally often -> uniform rows
    lm = MarkovLM(small_vocab(), np.array([[5, 5], [5, 5]]))
    for t in (0, 1):
        assert np.allclose(lm.context_distribution([t]), [0.5, 0.5])


def test_train_markov_insufficient_corpus():
    with pytest.raises(ValueError, match="insufficient corpus"):
        train_markov([0], small_vocab(), 1.0)


def test_next_distribution_edges():
    lm = train_markov([0, 1, 0, 1], small_vocab(), 1.0)
    with pytest.raises(ValueError):
        lm.context_distribution([7])
    # zero counts, any smoothing -> uniform
    zero = MarkovLM(small_vocab(), np.zeros((2, 2), dtype=np.int64), smoothing=3.7)
    assert np.allclose(zero.context_distribution([1]), [0.5, 0.5])


def test_next_distribution_is_one_object_per_token():
    lm = skewed_lm(5)
    for t in range(5):
        row = lm.context_distribution([t])
        assert lm.context_distribution([3, t]) is row
        assert not row.flags.writeable
    start = lm.context_distribution([])
    assert lm.context_distribution([]) is start and not start.flags.writeable
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=rf"^token id {bad} out of range 0\.\.4$"):
            lm.context_distribution([0, bad])


def test_next_distribution_fuzz_valid():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        vocab = Vocabulary(tuple(f"t{i}" for i in range(n)))
        corpus = rng.integers(n, size=rng.integers(2, 40)).tolist()
        lm = train_markov(corpus, vocab, float(rng.uniform(0.1, 3)))
        for t in range(n):
            validate_distribution(lm.context_distribution([t]))
        validate_distribution(lm.context_distribution([]))


def test_train_next_round_trip_chisquare():
    rng = np.random.default_rng(1)
    lm = train_markov(rng.integers(3, size=500).tolist(),
                      Vocabulary(("x", "y", "z")), 0.5)
    row = lm.context_distribution([1])
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


def test_smoothing_past_a_float_is_refused():
    # an int past the float range compares below inf but cannot be converted
    with pytest.raises(ValueError, match="smoothing must be finite and > 0"):
        MarkovLM(small_vocab(), np.zeros((2, 2), dtype=np.int64), smoothing=10**400)


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
    assert np.allclose(u.context_distribution([2]), 0.25)
    s = skewed_lm(4)
    assert np.allclose(s.context_distribution([0]), [0.4, 0.3, 0.2, 0.1])
    pk = peaked_lm(8, 0.95)
    assert pk.context_distribution([0])[1] == pytest.approx(0.95, abs=0.005)
    with pytest.raises(ValueError):
        peaked_lm(4, 0.1)


def _model_doc(**fields):
    doc = {"format": "bigram-lm/1", "vocab": ["a", "b"], "smoothing": 1.0,
           "counts": [[0, 3], [1, 0]], "bos_counts": [2, 0]}
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize("doc,message", [
    ([], "must hold a JSON object"),
    (_model_doc(format="bigram-lm/0"), "unsupported model format"),
    ({"format": "bigram-lm/1", "smoothing": 1.0, "counts": [], "bos_counts": []},
     "lacks required field 'vocab'"),
    (_model_doc(bos_counts=None), "lacks required field 'bos_counts'"),
    (_model_doc(vocab=[0, 1]), "field 'vocab' must be a list of strings"),
    (_model_doc(vocab="ab"), "field 'vocab' must be a list of strings"),
    (_model_doc(vocab=["a", "a"]), "distinct"),
    (_model_doc(smoothing="x"), "field 'smoothing' must be a finite number > 0"),
    (_model_doc(smoothing=True), "field 'smoothing'"),
    (_model_doc(smoothing=0), "field 'smoothing'"),
    (_model_doc(counts=[[0, 1e300], [1, 0]]), "field 'counts' must be"),
    (_model_doc(counts=[[0, 0.5], [1, 0]]), "field 'counts' must be"),
    (_model_doc(counts=[[0, True], [1, 0]]), "field 'counts' must be"),
    (_model_doc(counts=[[0, "3"], [1, 0]]), "field 'counts' must be"),
    (_model_doc(counts=[[0, 1], [1]]), "field 'counts' must be"),
    (_model_doc(counts=[0, 1]), "field 'counts' must be"),
    (_model_doc(counts=[[0, 2**64], [1, 0]]), "field 'counts' must be"),
    (_model_doc(counts=[[0, 2**63], [1, 0]]), "field 'counts' must be"),
    (_model_doc(counts=[[0, -1], [1, 0]]), "field 'counts' must be"),
    (_model_doc(bos_counts=[2**64, 0]), "field 'bos_counts' must be"),
    (_model_doc(bos_counts=[-1, 0]), "field 'bos_counts' must be"),
    (_model_doc(smoothing=10**400), "field 'smoothing'"),
    (_model_doc(smoothing=float("inf")), "field 'smoothing'"),
    (_model_doc(bos_counts=[1, 2, 3]), "field 'bos_counts' must be"),
    (_model_doc(bos_counts={"a": 1}), "field 'bos_counts' must be"),
])
def test_load_lm_names_the_bad_field(tmp_path, doc, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_lm(path)


def test_model_size_is_bounded_before_allocation(tmp_path, monkeypatch):
    monkeypatch.setattr(lmmod, "MAX_MODEL_BYTES", 16 * 64 * 64)
    assert uniform_lm(64).size == 64
    for build in (uniform_lm, skewed_lm, lambda n: peaked_lm(n, 0.5)):
        with pytest.raises(ValueError, match="65-token model is past the"):
            build(65)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model_doc(vocab=[f"t{i}" for i in range(65)],
                                          counts=[[0] * 65] * 65, bos_counts=[0] * 65)))
    with pytest.raises(ValueError, match="65-token model"):
        load_lm(path)
