import numpy as np
import pytest

from entmark.metrics import auc_score, roc_auc, tpr_at_fpr
from oracles import pairwise_auc


def test_auc_basic_cases():
    assert auc_score([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert auc_score([1.0, 2.0], [1.0, 2.0]) == 0.5
    assert auc_score([0.9, 0.4], [0.5, 0.1]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        auc_score([], [1.0])


def test_auc_matches_pairwise_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n_pos = int(rng.integers(1, 50))
        n_neg = int(rng.integers(1, 50))
        # quantize to force ties
        pos = np.round(rng.normal(0.3, 1, n_pos), 1)
        neg = np.round(rng.normal(0.0, 1, n_neg), 1)
        assert auc_score(pos, neg) == pytest.approx(pairwise_auc(pos.tolist(), neg.tolist()))


def test_roc_summary_monotone():
    rng = np.random.default_rng(1)
    pos = rng.normal(1, 1, 80)
    neg = rng.normal(0, 1, 120)
    s = roc_auc(pos, neg)
    assert 0.0 <= s.auc <= 1.0
    assert np.all(np.diff(s.tpr) >= 0)
    assert np.all(np.diff(s.fpr) >= 0)
    assert s.tpr[-1] == 1.0 and s.fpr[-1] == 1.0
    rec = s.to_record()
    assert set(rec) == {"auc", "tpr_at_fpr01", "thresholds", "tpr", "fpr"}


def test_tpr_at_fpr():
    # 100 negatives, 1% allows exactly one above threshold
    neg = np.arange(100, dtype=float)
    pos = np.array([98.5, 99.5, 200.0, -5.0])
    # threshold is the 2nd largest negative (98): fpr = 1/100
    assert tpr_at_fpr(pos, neg, 0.01) == pytest.approx(3 / 4)
    assert tpr_at_fpr(pos, neg, 1.0) == 1.0
    assert tpr_at_fpr([5.0], [1.0], 0.5) in (0.0, 1.0)
    # an fpr outside [0, 1] has no threshold; a negative one used to index
    # the sorted negatives from the end
    assert tpr_at_fpr([0.25, 0.6], [0.1, 0.2, 0.3, 0.4], 0.0) == 0.5
    for bad in (-0.3, -1e-9, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"fpr must be in \[0, 1\]"):
            tpr_at_fpr([0.25, 0.6], [0.1, 0.2, 0.3, 0.4], bad)


def test_roc_counts_match_brute_force_on_ties():
    rng = np.random.default_rng(2)
    for n_pos, n_neg in ((1, 1), (7, 3), (300, 500)):
        # few distinct values, so most thresholds split tied scores
        pos = rng.integers(0, 6, n_pos) / 2.0
        neg = rng.integers(-2, 4, n_neg) / 2.0
        s = roc_auc(pos, neg)
        assert s.thresholds.tobytes() == np.append(
            np.unique(np.concatenate([pos, neg]))[::-1], -np.inf).tobytes()
        t = s.thresholds[:-1]
        assert s.tpr.tobytes() == np.append([(pos > x).mean() for x in t], 1.0).tobytes()
        assert s.fpr.tobytes() == np.append([(neg > x).mean() for x in t], 1.0).tobytes()


def test_nan_scores_are_rejected():
    for pos, neg in (([0.5, np.nan], [0.1]), ([0.5], [np.nan])):
        for score in (auc_score, roc_auc, tpr_at_fpr):
            with pytest.raises(ValueError, match="NaN"):
                score(pos, neg)
