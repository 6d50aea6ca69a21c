"""Score-set evaluation: ROC curves, AUC, and TPR at a fixed empirical FPR.

Scores are oriented so that larger means more watermarked (callers pass -phi
or -p_value). AUC is the probability that a random positive outscores a
random negative, ties counted half.
"""

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class RocSummary:
    thresholds: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray
    auc: float
    tpr_at_fpr01: float

    def to_record(self) -> dict:
        return {
            "auc": self.auc,
            "tpr_at_fpr01": self.tpr_at_fpr01,
            "thresholds": self.thresholds.tolist(),
            "tpr": self.tpr.tolist(),
            "fpr": self.fpr.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())


def _scores(pos, neg):
    """Both score sets as float64 arrays, each non-empty and free of NaN
    (a NaN score is above no threshold and has no rank)."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one score on each side")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise ValueError("scores must not be NaN")
    return pos, neg


def auc_score(pos, neg) -> float:
    """P(pos > neg) with ties counted 1/2, from each positive's count of
    negatives below it and tied with it in the sorted negatives."""
    pos, neg = _scores(pos, neg)
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (pos.size * neg.size))


def tpr_at_fpr(pos, neg, fpr: float = 0.01) -> float:
    """TPR at the largest threshold whose empirical FPR stays <= fpr.

    The threshold is the (floor(fpr * #neg) + 1)-th largest negative score
    and classification is strict (score > threshold), so at most that many
    negatives are ever flagged.
    """
    pos, neg = _scores(pos, neg)
    allowed = int(np.floor(fpr * neg.size))
    if allowed >= neg.size:
        return 1.0
    threshold = np.sort(neg)[::-1][allowed]
    return float(np.mean(pos > threshold))


def roc_auc(pos, neg) -> RocSummary:
    """Full threshold sweep plus AUC and TPR at 1% empirical FPR."""
    pos, neg = _scores(pos, neg)
    cuts = np.unique(np.concatenate([pos, neg]))[::-1]

    def above(scores):
        # the share of scores > each cut, counted on the sorted scores, then
        # all of them at the closing -inf threshold
        n_above = scores.size - np.searchsorted(np.sort(scores), cuts, side="right")
        return np.append(n_above / scores.size, 1.0)

    return RocSummary(
        thresholds=np.append(cuts, -np.inf),
        tpr=above(pos),
        fpr=above(neg),
        auc=auc_score(pos, neg),
        tpr_at_fpr01=tpr_at_fpr(pos, neg, 0.01),
    )
