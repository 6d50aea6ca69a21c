import math

import numpy as np
import pytest

from entmark import experiments as ex
from entmark.attacks import parse_attack_spec
from entmark.coding import build_codes
from entmark.detection import h_soft
from entmark.lm import peaked_lm, skewed_lm, uniform_lm


def test_collision_bound_closed_form():
    assert ex.collision_bound(365, 0.5) == pytest.approx(22.49438689, abs=1e-6)
    assert ex.collision_bound(365, 1e-9) == pytest.approx(0.0, abs=1e-3)
    with pytest.raises(ValueError):
        ex.collision_bound(0, 0.5)
    with pytest.raises(ValueError):
        ex.collision_bound(10, 1.0)
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ex.collision_bound(k, 0.5)


def test_seed_collisions_quick():
    rec = ex.run_seed_collisions(uniform_lm(8), 8.0, 200, 25, seed=1)
    assert rec.passed
    assert rec.metrics["no_boundary"] == 0
    assert rec.metrics["collision_fraction"] <= 1.0


def test_covariance_gap_quick():
    rec = ex.run_covariance_gap(2, 50, 1500, seed=2)
    assert rec.passed
    assert rec.bounds["closed_form"] == pytest.approx(50 * 0.25 * 0.5)
    with pytest.raises(ValueError):
        ex.run_covariance_gap(2, 50, 0, seed=0)
    with pytest.raises(ValueError):
        ex.run_covariance_gap(6, 50, 10, seed=0)


def test_covariance_gap_deterministic_dist_is_zero():
    # a one-hot row pins eta(Y), so generating and fresh keys have the same
    # expected cost and the gap vanishes
    rng = np.random.default_rng(3)
    code = build_codes(4)
    reps = 4000
    eta_c = 2 / 3 - 0.5  # token id 2 of 4
    d_secret = -(h_soft(rng.random((reps, 2)), code) - 0.5) * eta_c
    d_fresh = -(h_soft(rng.random((reps, 2)), code) - 0.5) * eta_c
    gap = (d_fresh - d_secret).mean()
    se = (d_fresh - d_secret).std(ddof=1) / math.sqrt(reps)
    assert abs(gap) <= 3 * se


def test_hoeffding_quick_and_vacuous():
    rec = ex.run_hoeffding_bound(uniform_lm(2), (20, 60), 500, seed=4)
    assert rec.passed
    assert rec.metrics["20"] <= rec.bounds["20"]
    det = ex.run_hoeffding_bound(peaked_lm(4, 0.999), (20,), 150, seed=5)
    assert det.passed
    assert det.bounds["20"] > 1.9  # alpha ~ 0 makes the bound vacuous
    with pytest.raises(ValueError):
        ex.run_hoeffding_bound(uniform_lm(2), (20,), 0, seed=0)


def test_pvalue_validity_quick():
    rec = ex.run_pvalue_validity(8, 40, 150, 19, costs=("its",), alphas=(0.1,),
                                 seed=6, k=30)
    # quick variant: loose slack; the acceptance suite runs the strict one
    assert rec.metrics["its_at_0.1"] <= 0.1 + 0.08


def test_indistinguishability_arms():
    rec = ex.run_indistinguishability(skewed_lm(4), 1.0, 6, 2000, seed=7)
    assert rec.passed
    # lambda = inf never watermarks: both corpora are plain rollouts
    inf = ex.run_indistinguishability(skewed_lm(4), float("inf"), 6, 800, seed=8)
    assert inf.passed
    with pytest.raises(ValueError):
        ex.run_indistinguishability(skewed_lm(4), 1.0, 6, 0, seed=0)


def test_indistinguishability_deterministic_lm_identical():
    counts = np.zeros((2, 2), dtype=np.int64)
    counts[0, 1] = counts[1, 0] = 10**9
    from entmark.lm import MarkovLM, Vocabulary

    lm = MarkovLM(Vocabulary(("a", "b")), counts, np.array([10**9, 0]), 1e-9)
    rec = ex.run_indistinguishability(lm, 5.0, 6, 300, seed=9)
    assert rec.passed
    assert all(p == 1.0 for p in rec.metrics.values())


def test_two_corpus_chisquare_identical():
    corpus = [[0, 1, 2], [2, 1, 0]]
    out = ex.two_corpus_chisquare(corpus, corpus, 3)
    assert out["unigram"] == 1.0 and out["bigram"] == 1.0


def test_detect_curve_tiny_structure():
    lm = peaked_lm(8, 0.4)
    rec = ex.run_detect_curve(lm, 2.0, (30, 60), kinds=("its",), n_pos=25,
                              n_neg=40, seed=10, k=25)
    assert set(rec.metrics) == {"its_m30", "its_m60"}
    assert all(0.0 <= v <= 1.0 for v in rec.metrics.values())


def test_attack_auc_tiny_structure():
    lm = peaked_lm(8, 0.4)
    rec = ex.run_attack_auc(lm, 2.0, 150, kinds=("its",),
                            attack_specs=parse_attack_spec("substitute:0.1"),
                            n_pos=30, n_neg=45, seed=11)
    assert 0.9 <= rec.metrics["its_clean"] <= 1.0
    assert rec.metrics["its_attacked"] >= rec.metrics["its_clean"] - 0.2


def test_error_lower_bound_arms():
    det = ex.run_error_lower_bound(peaked_lm(8, 0.995), 0.1, 10, 800, seed=12)
    assert det.metrics["estimate"] > 0.9
    unif = ex.run_error_lower_bound(uniform_lm(8), 0.1, 40, 400, seed=13, lam=2.0)
    assert unif.metrics["estimate"] < 0.05
    empty = ex.run_error_lower_bound(uniform_lm(8), 0.1, 0, 50, seed=14)
    assert empty.metrics["estimate"] == 1.0
    with pytest.raises(ValueError):
        ex.run_error_lower_bound(uniform_lm(8), 0.1, 5, 0, seed=0)
    for c in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="finite"):
            ex.run_error_lower_bound(uniform_lm(8), c, 5, 10, seed=0)


def test_experiment_record_serialization():
    rec = ex.run_covariance_gap(2, 20, 100, seed=15)
    doc = rec.to_record()
    assert doc["experiment"] == "covariance-gap"
    assert "prf_id" in doc and "seed" in doc
    assert isinstance(rec.to_json(), str)


# Records of the experiments that walk a model token by token, pinned byte for
# byte: hoeffding on a non-uniform model (the per-token bs walk), the error
# floor on a skewed model with a gate (the multinomial walk) and the
# covariance gap (the uniform model's vectorised bs draw).
PINNED_RECORDS = (
    (lambda: ex.run_hoeffding_bound(peaked_lm(8, 0.4), (5, 20), 200, seed=21),
     '{"experiment": "hoeffding-block-bound", "config": {"n_vocab": 8, "k_values": [5, 20], '
     '"reps": 200}, "metrics": {"5": 0.14, "20": 0.01}, "bounds": {"5": 1.958285389513369, '
     '"20": 1.866074786984631}, "passed": true, "seed": 21, "prf_id": "sha256-chacha20/53"}'),
    (lambda: ex.run_error_lower_bound(skewed_lm(8), 2.5, 4, 200, seed=22, lam=3.3),
     '{"experiment": "error-lower-bound", "config": {"c": 2.5, "m": 4, "samples": 200, '
     '"lambda": 3.3, "n_vocab": 8}, "metrics": {"estimate": 9.722141619788965e-05, '
     '"se": 7.821194099916722e-06}, "bounds": {}, "passed": null, "seed": 22, '
     '"prf_id": "sha256-chacha20/53"}'),
    (lambda: ex.run_covariance_gap(4, 20, 200, seed=23),
     '{"experiment": "covariance-gap", "config": {"n_vocab": 4, "m": 20, "reps": 200}, '
     '"metrics": {"gap": 2.090404954758613, "se": 0.042132050773015024, '
     '"deviation_sigmas": 0.16784422537080068}, "bounds": {"closed_form": 2.083333333333333}, '
     '"passed": true, "seed": 23, "prf_id": "sha256-chacha20/53"}'),
)


@pytest.mark.parametrize("run, want", PINNED_RECORDS,
                         ids=("hoeffding", "error-floor", "covariance-gap"))
def test_per_token_walk_records_are_pinned(run, want):
    assert run().to_json() == want
