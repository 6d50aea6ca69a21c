import numpy as np
import pytest

from entmark.attacks import AttackSpec, apply_attacks, attack, parse_attack_spec
from entmark.detection import DetectionConfig, detect_pvalue
from entmark.generation import generate, key_sequence_for
from entmark.keys import resample_key_sequence
from entmark.lm import peaked_lm


def test_rate_zero_identity():
    rng = np.random.default_rng(0)
    y = rng.integers(8, size=50).tolist()
    for kind in ("substitute", "insert", "delete"):
        assert attack(y, AttackSpec(kind, 0.0), 8, rng) == y


def test_delete_rate_one_empties():
    rng = np.random.default_rng(1)
    assert attack([1, 2, 3], AttackSpec("delete", 1.0), 8, rng) == []


def test_crop():
    rng = np.random.default_rng(2)
    y = [10, 11, 12, 13, 14]
    assert attack(y, AttackSpec("crop", crop_lo=2, crop_hi=4), 20, rng) == [11, 12, 13]
    with pytest.raises(ValueError):
        attack(y, AttackSpec("crop", crop_lo=4, crop_hi=2), 20, rng)
    with pytest.raises(ValueError):
        attack(y, AttackSpec("crop", crop_lo=1, crop_hi=9), 20, rng)


def test_substitute_never_self():
    rng = np.random.default_rng(3)
    y = [3] * 2000
    out = attack(y, AttackSpec("substitute", 1.0), 5, rng)
    assert len(out) == len(y)
    assert all(t != 3 for t in out)
    assert set(out) <= {0, 1, 2, 4}


def test_delete_expected_length():
    rng = np.random.default_rng(4)
    m, rate, trials = 200, 0.3, 2000
    lengths = [len(attack(list(range(m)), AttackSpec("delete", rate), 8, rng))
               for _ in range(trials)]
    mean = np.mean(lengths)
    sigma = np.sqrt(m * rate * (1 - rate) / trials)
    assert abs(mean - m * (1 - rate)) <= 3 * sigma


def test_insert_expected_length():
    rng = np.random.default_rng(5)
    m, rate, trials = 200, 0.25, 2000
    lengths = [len(attack(list(range(m)), AttackSpec("insert", rate), 8, rng))
               for _ in range(trials)]
    sigma = np.sqrt(m * rate * (1 - rate) / trials)
    assert abs(np.mean(lengths) - m * (1 + rate)) <= 3 * sigma


def test_parse_specs_and_presets():
    (spec,) = parse_attack_spec("substitute:0.1")
    assert spec == AttackSpec("substitute", 0.1)
    (crop,) = parse_attack_spec("crop:2:5")
    assert (crop.crop_lo, crop.crop_hi) == (2, 5)
    proxy = parse_attack_spec("paraphrase-proxy")
    assert [(s.kind, s.rate) for s in proxy] == [("substitute", 0.25), ("insert", 0.10)]
    with pytest.raises(ValueError):
        parse_attack_spec("translate:0.5")
    with pytest.raises(ValueError):
        parse_attack_spec("substitute")
    with pytest.raises(ValueError):
        AttackSpec("substitute", 1.5)


def test_spec_text_round_trips():
    for text in ("substitute:0.1", "insert:0.25", "delete:1.0", "crop:1:20", "paraphrase-proxy"):
        specs = parse_attack_spec(text)
        assert [s for spec in specs for s in parse_attack_spec(str(spec))] == specs
    assert [str(s) for s in parse_attack_spec("crop:1:20")] == ["crop:1:20"]
    assert str(AttackSpec("substitute", 1 / 3)) == f"substitute:{1 / 3!r}"


def test_apply_attacks_chains():
    rng = np.random.default_rng(6)
    y = list(range(100))
    out = apply_attacks(y, parse_attack_spec("paraphrase-proxy"), 200, rng)
    assert out != y
    assert y == list(range(100))  # input untouched


def test_detection_survives_substitution():
    # 10% substitution on long high-entropy text: the median watermark
    # p-value stays below 0.05 while key-independent text is unaffected
    lm = peaked_lm(8, 0.4)
    rng = np.random.default_rng(7)
    spec = AttackSpec("substitute", 0.1)
    config = DetectionConfig(cost="its", T=99)
    marked_p = []
    null_p = []
    for _ in range(11):
        res = generate(lm, [], 2.0, 400, "its", rng.bytes(16), rng)
        hit = attack(res.tokens, spec, lm.size, rng)
        keyseq = key_sequence_for(res, lm.size)
        marked_p.append(detect_pvalue(hit, keyseq, config, rng, lm.size).p_value)
        fresh = resample_key_sequence(rng, "its", keyseq.n, lm.size, 3)
        null_p.append(detect_pvalue(hit, fresh, config, rng, lm.size).p_value)
    assert np.median(marked_p) < 0.05
    assert np.median(null_p) > 0.1
