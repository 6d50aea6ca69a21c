import itertools
import json
import re

import numpy as np
import pytest
from scipy import stats

from entmark import generation as genmod, keys as keymod
from entmark.coding import codes_for_lm
from entmark.detection import DetectionConfig, detect_seed_scan
from entmark.generation import (MAX_KEY_BYTES, GenerationResult, generate, generate_baseline,
                                key_sequence_for, replay_boundary, watermark_entropy)
from entmark.lm import (MarkovLM, Vocabulary, apply_temperature, apply_top_p, peaked_lm,
                        skewed_lm, uniform_lm)
from entmark.sampling import Row, sample_multinomial
from oracles import per_token_generate


def test_watermark_entropy():
    p = np.array([0.25, 0.75])
    assert watermark_entropy(p, 1) == pytest.approx(0.25)
    assert watermark_entropy(np.array([1.0, 0.0]), 0) == 0.0
    assert watermark_entropy(p, 0) == pytest.approx(0.75)
    assert watermark_entropy(np.array([0.5, 0.5]), 0) == 0.5
    with pytest.raises(ValueError):
        watermark_entropy(p, 5)


def test_lambda_inf_never_watermarks():
    lm = skewed_lm(4)
    res = generate(lm, [], float("inf"), 20, "its", b"s", np.random.default_rng(0))
    assert res.boundary is None
    # the watermark branch is unreachable, so the rollout equals the baseline
    base = generate_baseline(lm, [], 20, np.random.default_rng(0))
    assert res.tokens == base


def test_deterministic_lm_is_consistent():
    # cold temperature makes every row exactly one-hot: zero watermark
    # entropy forever, so outputs repeat across calls with unrelated rngs
    lm = peaked_lm(4, 0.9)
    runs = [
        generate(lm, [0], 1.0, 15, "its", b"s", np.random.default_rng(seed),
                 temperature=1e-9).tokens
        for seed in (1, 2, 3)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert all(r.count(r[0]) >= 0 for r in runs)
    res = generate(lm, [0], 1.0, 15, "its", b"s", np.random.default_rng(9), temperature=1e-9)
    assert res.boundary is None


def test_boundary_uniform_two_tokens():
    # uniform rows over N=2 add 0.5 entropy per token: the gate closes at 2
    lm = uniform_lm(2)
    res = generate(lm, [], 1.0, 10, "its", b"s", np.random.default_rng(4))
    assert res.boundary == 2
    assert res.seed_block().tokens == tuple(res.tokens[:2])


def test_boundary_crossing_semantics():
    lm = skewed_lm(4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        res = generate(lm, [], 1.3, 12, "bs", rng.bytes(8), rng)
        s = res.boundary
        assert s is not None
        assert replay_boundary(lm, res.tokens, 1.3) == s
        # entropy below the gate before the boundary token, at or above after
        probs = [lm.context_distribution(res.tokens[:i]) for i in range(s)]
        alphas = [1 - float(p[t]) for p, t in zip(probs, res.tokens)]
        assert sum(alphas[:-1]) < 1.3 <= sum(alphas)


def test_lambda_zero_seeds_from_prompt():
    lm = skewed_lm(4)
    prompt = [2, 1]
    res = generate(lm, prompt, 0.0, 8, "its", b"pepper", np.random.default_rng(0))
    assert res.boundary == 0
    assert res.seed_block().tokens == (2, 1)
    # fully key-determined: unrelated rngs give identical outputs
    res2 = generate(lm, prompt, 0.0, 8, "its", b"pepper", np.random.default_rng(77))
    assert res.tokens == res2.tokens
    # ... and a different prompt gives a different key stream
    res3 = generate(lm, [1, 2], 0.0, 8, "its", b"pepper", np.random.default_rng(0))
    assert res.tokens != res3.tokens


def test_post_boundary_determinism_bs():
    lm = uniform_lm(4)
    res = generate(lm, [], 0.0, 10, "bs", b"fixed", np.random.default_rng(0))
    res2 = generate(lm, [], 0.0, 10, "bs", b"fixed", np.random.default_rng(123))
    assert res.tokens == res2.tokens


@pytest.mark.parametrize("sampler,coding", [
    ("its", "fixed"), ("bs", "fixed"), ("bs", "huffman"), ("multinomial", "fixed")])
@pytest.mark.parametrize("temperature,top_p", [(None, None), (0.7, None), (None, 0.8),
                                               (1.6, 0.9)])
def test_generate_matches_a_per_token_loop(sampler, coding, temperature, top_p):
    # per-call rows give the tokens and boundary of a loop that checks and
    # transforms every token's row afresh and samples from the bare array
    model = skewed_lm(6)
    code = codes_for_lm(model, coding) if sampler == "bs" else None
    for seed in range(4):
        lam = (0.0, 1.0, 3.0, float("inf"))[seed]
        res = generate(model, [2], lam, 50, sampler, bytes([seed, 7]),
                       np.random.default_rng(seed), code=code, top_p=top_p,
                       temperature=temperature)
        want = per_token_generate(model, [2], lam, 50, sampler, bytes([seed, 7]),
                                  np.random.default_rng(seed), code=code, top_p=top_p,
                                  temperature=temperature)
        assert (res.tokens, res.boundary) == want


@pytest.mark.parametrize("sampler", ["its", "bs", "multinomial"])
def test_gate_edges_match_the_per_token_loop(sampler, monkeypatch):
    # every token of uniform_lm(4) adds 0.75 of entropy, so the gate closes
    # after 0, 1, 2, 2 and 4 tokens for these finite thresholds; at m = 1
    # and 2 it closes on the last token, leaving no watermarked position
    derived = []
    derive = keymod.derive_key_sequence
    monkeypatch.setattr(keymod, "derive_key_sequence",
                        lambda *args, **kw: derived.append(args) or derive(*args, **kw))
    closed_on_last = 0
    for lm in (uniform_lm(4), skewed_lm(6)):
        code = codes_for_lm(lm) if sampler == "bs" else None
        for m, lam, prompt in itertools.product((1, 2, 3, 5), (0, 0.5, 1, 1.5, 3, float("inf")),
                                                ([], [2])):
            seed = m + 10 * len(prompt)
            derived.clear()
            res = generate(lm, prompt, lam, m, sampler, b"edge", np.random.default_rng(seed),
                           code=code)
            keyed = sampler != "multinomial" and res.boundary is not None and res.boundary < m
            assert len(derived) == keyed
            want = per_token_generate(lm, prompt, lam, m, sampler, b"edge",
                                      np.random.default_rng(seed), code=code)
            assert (res.tokens, res.boundary) == want
            assert replay_boundary(lm, res.tokens, lam, prompt) == res.boundary
            if res.boundary == m:
                closed_on_last += 1
                with pytest.raises(ValueError, match="no watermarked positions"):
                    key_sequence_for(res, lm.size, code, kind="bs" if code else "its")
    assert closed_on_last >= 6  # m = 1, lam = 0.5 and m = 2, lam = 1, 1.5 on uniform_lm(4)


def test_its_generation_never_builds_a_rank_table(monkeypatch):
    # the its sampler reads each position's order; the rank table, its
    # inverse, is left for detection to build
    def spy(order):
        raise AssertionError("generation built a rank table")

    monkeypatch.setattr(keymod, "_inverse", spy)
    for model, lam in ((skewed_lm(256), 2.0), (peaked_lm(8, 0.4), 0.0)):
        res = generate(model, [], lam, 60, "its", b"no ranks", np.random.default_rng(5))
        assert res.boundary is not None and res.boundary < 60


def test_generate_validation():
    lm = uniform_lm(2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate(lm, [], 1.0, 0, "its", b"s", rng)
    with pytest.raises(ValueError):
        generate(lm, [], -1.0, 5, "its", b"s", rng)
    with pytest.raises(ValueError, match="entropy threshold must be >= 0"):
        generate(lm, [], float("nan"), 5, "its", b"s", rng)
    with pytest.raises(ValueError):
        generate(lm, [], 1.0, 5, "gumbel", b"s", rng)
    with pytest.raises(ValueError):
        generate(lm, [9], 1.0, 5, "its", b"s", rng)
    code3 = codes_for_lm(uniform_lm(3))
    with pytest.raises(ValueError):
        generate(lm, [], 1.0, 5, "bs", b"s", rng, code=code3)


def test_generate_baseline_frequencies():
    lm = skewed_lm(4)
    rng = np.random.default_rng(6)
    tokens = generate_baseline(lm, [0], 40_000, rng)
    assert len(tokens) == 40_000
    # conditional frequencies after token 0 match the model row
    nxt = [b for a, b in zip(tokens, tokens[1:]) if a == 0]
    counts = np.bincount(nxt, minlength=4)
    p = stats.chisquare(counts, lm.context_distribution([0]) * len(nxt)).pvalue
    assert p > 0.01


def test_record_round_trip():
    lm = skewed_lm(4)
    res = generate(lm, [1], 1.0, 6, "bs", b"\x01\x02", np.random.default_rng(0),
                   rng_seed=0, top_p=0.9)
    rec = json.loads(res.to_json())
    assert rec["sampler"] == "bs" and rec["salt"] == "0102"
    back = GenerationResult.from_record(rec)
    assert back.tokens == res.tokens
    assert back.boundary == res.boundary
    assert back.seed_block() == res.seed_block()
    inf = generate(lm, [], float("inf"), 4, "its", b"s", np.random.default_rng(0))
    back_inf = GenerationResult.from_record(json.loads(inf.to_json()))
    assert back_inf.lam == float("inf")


def test_generate_baseline_is_a_plain_multinomial_rollout():
    lm = skewed_lm(4)
    for kw in ({}, {"top_p": 0.8}, {"temperature": 0.7}, {"top_p": 0.9, "temperature": 1.3}):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        got = generate_baseline(lm, [1], 40, rng_a, **kw)
        want = []
        for _ in range(40):
            probs = lm.context_distribution([1] + want)
            if "temperature" in kw:
                probs = apply_temperature(probs, kw["temperature"])
            if "top_p" in kw:
                probs = apply_top_p(probs, kw["top_p"])
            want.append(sample_multinomial(Row(probs), rng_b))
        assert got == want
        assert rng_a.random() == rng_b.random()  # same number of draws


def test_record_seed_tokens_decide_the_seed_block():
    res = generate(skewed_lm(4), [], 1.0, 30, "its", b"s", np.random.default_rng(2))
    rec = res.to_record()
    assert "seed_tokens" not in rec  # generation records carry no copy
    rec["tokens"][: res.boundary] = [3] * res.boundary  # an attack hit the prefix
    rec["seed_tokens"] = res.tokens[: res.boundary]
    back = GenerationResult.from_record(rec)
    assert back.seed_block() == res.seed_block()
    assert back.to_record() == rec


@pytest.mark.parametrize("field, value, message", [
    ("salt", None, "lacks required field 'salt'"),
    ("m", None, "lacks required field 'm'"),
    ("salt", 7, "'salt' must be a hex string"),
    ("salt", "zz", "'salt' must be a hex string"),
    ("boundary", True, "'boundary' must be null or an integer"),
    ("lambda", "two", "'lambda' must be a number"),
    ("sampler", "gumbel", "'sampler' must be one of"),
    ("tokens", [1, "2"], "'tokens' must be a list of integer token ids"),
    ("tokens", [1, 2.0], "'tokens' must be a list of integer token ids"),
    ("seed_tokens", [-1], "'seed_tokens': token id -1 out of range"),
    ("prompt", [2**32], "'prompt': token id 4294967296 out of range"),
    ("coding", "unary", "'coding' must be one of"),
    ("prf_id", "made-up-prf/v9", "'prf_id' must be 'sha256-chacha20/53'"),
    ("prf_id", 7, "'prf_id' must be 'sha256-chacha20/53'"),
    ("top_p", "x", "'top_p' must be null or a number in (0, 1]"),
    ("top_p", 0, "'top_p' must be null or a number in (0, 1]"),
    ("top_p", 1.5, "'top_p' must be null or a number in (0, 1]"),
    ("temperature", [1], "'temperature' must be null or a number > 0"),
    ("temperature", 0.0, "'temperature' must be null or a number > 0"),
    ("temperature", True, "'temperature' must be null or a number > 0"),
])
def test_from_record_names_the_bad_field(field, value, message):
    rec = generate(skewed_lm(4), [], 1.0, 30, "its", b"s", np.random.default_rng(2)).to_record()
    if value is None:
        del rec[field]
    else:
        rec[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        GenerationResult.from_record(rec)


@pytest.mark.parametrize("line", [[], 3, "x", None])
def test_from_record_needs_an_object(line):
    with pytest.raises(ValueError, match="JSON object"):
        GenerationResult.from_record(line)


def test_key_sequence_for():
    lm = uniform_lm(4)
    res = generate(lm, [], 1.0, 10, "its", b"s", np.random.default_rng(1))
    ks = key_sequence_for(res, lm.size)
    assert ks.n == res.m - res.boundary
    never = generate(lm, [], float("inf"), 10, "its", b"s", np.random.default_rng(1))
    with pytest.raises(ValueError):
        key_sequence_for(never, lm.size)
    multi = generate(lm, [], 1.0, 10, "multinomial", b"s", np.random.default_rng(1))
    with pytest.raises(ValueError):
        key_sequence_for(multi, lm.size)
    # forcing a cost kind on a multinomial record is allowed for null scoring
    forced = key_sequence_for(multi, lm.size, kind="its")
    assert forced.kind == "its"


def test_key_sequence_for_bounds_m(monkeypatch):
    class Derived(Exception):
        pass

    def derive(*args):
        raise Derived

    lm = uniform_lm(4)
    res = generate(lm, [], 1.0, 10, "its", b"s", np.random.default_rng(1))
    monkeypatch.setattr(keymod, "derive_key_sequence", derive)
    res.m = 10**15
    for kind in ("its", "bs"):  # rejected before anything is derived
        with pytest.raises(ValueError, match="record field 'm' = 1000000000000000"):
            key_sequence_for(res, lm.size, kind=kind)
    res.m = res.boundary + MAX_KEY_BYTES // (8 * lm.size)  # the largest key allowed
    with pytest.raises(Derived):
        key_sequence_for(res, lm.size)


def test_scan_mode_derives_keys_under_the_same_bound(monkeypatch):
    class Derived(Exception):
        pass

    def derive(*args):
        raise Derived

    lm = uniform_lm(4)
    res = generate(lm, [], 1.0, 60, "its", b"s", np.random.default_rng(1))
    monkeypatch.setattr(keymod, "derive_key_sequence", derive)
    monkeypatch.setattr(genmod, "MAX_KEY_BYTES", 1000)  # 31 positions over 4 tokens
    with pytest.raises(ValueError, match="record field 'm' = 60"):
        key_sequence_for(res, lm.size)
    config = DetectionConfig(cost="its", T=3, s_max=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="scan candidate s = 0 needs 60 key positions"):
        detect_seed_scan(res.tokens, config, res.salt, lm.size, rng)
    monkeypatch.setattr(genmod, "MAX_KEY_BYTES", 60 * 4 * 8)  # the whole text fits
    with pytest.raises(Derived):
        detect_seed_scan(res.tokens, config, res.salt, lm.size, rng)


def test_pre_boundary_faithfulness_empirical():
    # conditioned on crossing at s=1 (first token entropy >= lambda), the
    # first-token law matches the base LM row
    vocab = Vocabulary(("a", "b", "c"))
    lm = MarkovLM(vocab, np.zeros((3, 3), dtype=np.int64), np.array([6, 3, 1]), 1.0)
    rng = np.random.default_rng(7)
    first = [generate(lm, [], 0.3, 3, "its", rng.bytes(4), rng).tokens[0]
             for _ in range(6_000)]
    counts = np.bincount(first, minlength=3)
    expected = lm.context_distribution([]) * len(first)
    assert stats.chisquare(counts, expected).pvalue > 0.01
