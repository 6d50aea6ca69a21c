"""Executable checks of the scheme's statistical guarantees.

Each runner sets up a small controlled model, simulates the relevant piece of
the pipeline under an explicit seed, and compares the measured quantity
against its closed-form bound or identity. Results come back as
ExperimentRecord values carrying the full configuration, the measurements,
the bound, and a pass flag, so a run is reproducible from its own record.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import metrics
from .attacks import apply_attacks
from .coding import build_codes, codes_for_lm
from .detection import DEFAULT_BLOCK, DetectionConfig, detect_pvalue, h_soft, phi
from .generation import (GenerationResult, generate, generate_baseline, key_sequence_for,
                         replay_boundary)
from .keys import PRF_ID, derive_prf_key, resample_key_sequence
from .lm import MarkovLM, uniform_lm
from .sampling import Row, row_source, sample_bs, sample_bs_many, sample_multinomial


@dataclass
class ExperimentRecord:
    name: str
    config: dict
    metrics: dict
    bounds: dict = field(default_factory=dict)
    passed: bool | None = None
    seed: int | None = None
    prf_id: str = PRF_ID

    def to_record(self) -> dict:
        return {
            "experiment": self.name,
            "config": self.config,
            "metrics": self.metrics,
            "bounds": self.bounds,
            "passed": self.passed,
            "seed": self.seed,
            "prf_id": self.prf_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())


def collision_bound(k: float, p: float) -> float:
    """Birthday bound: max draws l with collision probability <= p among k
    cells, l <= sqrt(k * (-2 ln(1 - p)))."""
    if not 0 < k < math.inf:  # NaN fails too
        raise ValueError("k must be positive and finite")
    if not 0 <= p < 1:
        raise ValueError("p must be in [0, 1)")
    return math.sqrt(k * (-2.0 * math.log1p(-p)))


def run_seed_collisions(lm: MarkovLM, lam: float, t: int, m: int, seed: int) -> ExperimentRecord:
    """Fraction of t generations whose seed block repeats an earlier one.

    All generations share one salt (one watermarked model); the fraction is
    checked against the (t-1) * 2^-lambda union bound plus 3 binomial sigma.
    """
    if t < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    salt = rng.bytes(16)
    seen = set()
    collisions = 0
    no_boundary = 0
    for _ in range(t):
        res = generate(lm, [], lam, m, "its", salt, rng)
        block = res.seed_block()
        if block is None:
            no_boundary += 1
            continue
        key = derive_prf_key(block)
        if key in seen:
            collisions += 1
        seen.add(key)
    frac = collisions / t
    bound = (t - 1) * 2.0 ** (-lam)
    sigma = math.sqrt(max(frac * (1 - frac), 1e-12) / t)
    return ExperimentRecord(
        name="seed-collisions",
        config={"lambda": lam, "t": t, "m": m, "n_vocab": lm.size},
        metrics={"collision_fraction": frac, "collisions": collisions,
                 "no_boundary": no_boundary, "sigma": sigma},
        bounds={"union_bound": min(bound, 1.0)},
        passed=frac <= min(bound, 1.0) + 3 * sigma,
        seed=seed,
    )


def _ngram_counts(corpus, n_vocab: int, order: int) -> np.ndarray:
    counts = np.zeros(n_vocab**order, dtype=np.int64)
    for tokens in corpus:
        arr = np.asarray(tokens, dtype=np.int64)
        if order == 1:
            np.add.at(counts, arr, 1)
        else:
            idx = arr[:-1] * n_vocab + arr[1:]
            np.add.at(counts, idx, 1)
    return counts


def two_corpus_chisquare(corpus_a, corpus_b, n_vocab: int) -> dict:
    """Unigram and bigram homogeneity chi-square p-values for two corpora."""
    out = {}
    for order, label in ((1, "unigram"), (2, "bigram")):
        a = _ngram_counts(corpus_a, n_vocab, order)
        b = _ngram_counts(corpus_b, n_vocab, order)
        keep = (a + b) > 0
        table = np.stack([a[keep], b[keep]])
        if table.shape[1] < 2:
            out[label] = 1.0
            continue
        _, p, _, _ = stats.chi2_contingency(table, correction=False)
        out[label] = float(p)
    return out


def run_indistinguishability(lm: MarkovLM, lam: float, m: int, samples: int,
                             seed: int = 0) -> ExperimentRecord:
    """n-gram frequency comparison of watermarked vs unwatermarked corpora,
    one watermarked corpus per key-driven sampler (its and bs).

    Every watermarked sample uses a fresh salt, modeling independent
    sessions; with a single salt, repeat prefixes deliberately repeat their
    continuations, which is the scheme's intended behavior rather than a
    distribution match.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    baseline = [generate_baseline(lm, [], m, rng) for _ in range(samples)]
    code = codes_for_lm(lm)  # one code, so the rows keep their bit-walk tables
    pvals = {}
    for sampler in ("its", "bs"):
        marked = []
        for _ in range(samples):
            res = generate(lm, [], lam, m, sampler, rng.bytes(16), rng,
                           code=code if sampler == "bs" else None)
            marked.append(res.tokens)
        pvals[sampler] = two_corpus_chisquare(marked, baseline, lm.size)
    flat = {f"{s}_{g}": p for s, d in pvals.items() for g, p in d.items()}
    return ExperimentRecord(
        name="indistinguishability",
        config={"lambda": lam, "m": m, "samples": samples, "n_vocab": lm.size,
                "samplers": ["its", "bs"]},
        metrics=flat,
        bounds={"min_p": 0.01},
        passed=all(p > 0.01 for p in flat.values()),
        seed=seed,
    )


def _uniform_eta_var(n_vocab: int) -> float:
    e = np.arange(n_vocab) / (n_vocab - 1)
    return float(np.var(e))


def run_covariance_gap(n_vocab: int, m: int, reps: int, seed: int) -> ExperimentRecord:
    """Monte Carlo check that the fresh-minus-generating key cost gap equals
    m * Var(eta) * mean(1 - p) for binary sampling on a uniform model.

    The vocabulary size must be a power of two: only then are all code bits
    exactly balanced, which is what makes the identity exact.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if reps < 2:  # the standard error needs two replications
        raise ValueError("reps must be >= 2")
    if n_vocab & (n_vocab - 1):
        raise ValueError("n_vocab must be a power of two")
    rng = np.random.default_rng(seed)
    code = build_codes(n_vocab)
    tokens, u, u_fresh = _bs_blocks(uniform_lm(n_vocab), m, reps, rng, code)
    d_secret, d_fresh = _soft_costs(tokens, u, u_fresh, n_vocab, code)
    per_rep = (d_fresh - d_secret).reshape(reps, m).sum(axis=1)
    gap = float(per_rep.mean())
    se = float(per_rep.std(ddof=1) / math.sqrt(reps))
    closed = m * _uniform_eta_var(n_vocab) * (1.0 - 1.0 / n_vocab)
    return ExperimentRecord(
        name="covariance-gap",
        config={"n_vocab": n_vocab, "m": m, "reps": reps},
        metrics={"gap": gap, "se": se, "deviation_sigmas": (gap - closed) / se},
        bounds={"closed_form": closed},
        passed=abs(gap - closed) <= 3 * se,
        seed=seed,
    )


def _is_uniform(lm: MarkovLM) -> bool:
    return bool(np.all(lm.counts == 0) and np.all(lm.bos_counts == 0))


def _bs_blocks(lm, k, reps, rng, code):
    """reps watermarked blocks of length k: (tokens, key u, fresh u)."""
    if _is_uniform(lm):
        u = rng.random((reps * k, code.max_bits))
        tokens = sample_bs_many(Row(np.full(lm.size, 1.0 / lm.size)), code, u)
        u_fresh = rng.random((reps * k, code.max_bits))
        return tokens.reshape(reps, k), u.reshape(reps, k, -1), u_fresh.reshape(reps, k, -1)
    tokens = np.empty((reps, k), dtype=np.int64)
    u = rng.random((reps, k, code.max_bits))
    u_fresh = rng.random((reps, k, code.max_bits))
    rows = row_source(lm)
    for r in range(reps):
        ctx = []
        for i, bits in enumerate(u[r].tolist()):
            tok = sample_bs(rows(ctx), code, bits)
            tokens[r, i] = tok
            ctx.append(tok)
    return tokens, u, u_fresh


def _soft_costs(tokens, u, u_fresh, n_vocab, code):
    """Per-token soft bs costs of the blocks under their generating keys u
    and under the fresh keys, each a flat array in token order."""
    centered_eta = tokens.ravel() / (n_vocab - 1) - 0.5
    return tuple(-(h_soft(key.reshape(-1, code.max_bits), code) - 0.5) * centered_eta
                 for key in (u, u_fresh))


def run_hoeffding_bound(lm: MarkovLM, k_values, reps: int, seed: int) -> ExperimentRecord:
    """Empirical P(fresh-key block cost <= generating-key block cost) per
    block length k, against 2 exp(-k Var(eta)^2 alpha^2 / 2).

    Var(eta) and the mean watermark entropy alpha in the bound are estimated
    from the generated blocks themselves (exact values for a uniform model).
    A near-deterministic model drives alpha to 0 and the bound above 1,
    making it vacuous but still satisfied.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    if any(int(k) < 1 for k in k_values):
        raise ValueError("every block length k must be >= 1")
    rng = np.random.default_rng(seed)
    code = build_codes(lm.size)
    results = {}
    passed = True
    for k in k_values:
        tokens, u, u_fresh = _bs_blocks(lm, int(k), reps, rng, code)
        flat = tokens.ravel()
        if _is_uniform(lm):
            var_eta = _uniform_eta_var(lm.size)
            alpha = 1.0 - 1.0 / lm.size
        else:
            var_eta = float(np.var(flat / (lm.size - 1)))
            probs_of = np.array([
                lm.context_distribution(row[:i].tolist())[row[i]]
                for row in tokens for i in range(len(row))
            ])
            alpha = float(np.mean(1.0 - probs_of))
        d_secret, d_fresh = _soft_costs(tokens, u, u_fresh, lm.size, code)
        d_secret = d_secret.reshape(reps, int(k)).sum(axis=1)
        d_fresh = d_fresh.reshape(reps, int(k)).sum(axis=1)
        frac = float(np.mean(d_fresh <= d_secret))
        bound = 2.0 * math.exp(-int(k) * var_eta**2 * alpha**2 / 2.0)
        sigma = math.sqrt(max(frac * (1 - frac), 1e-12) / reps)
        results[int(k)] = {"false_match": frac, "bound": bound, "sigma": sigma}
        passed = passed and frac <= bound + 3 * sigma
    return ExperimentRecord(
        name="hoeffding-block-bound",
        config={"n_vocab": lm.size, "k_values": [int(k) for k in k_values], "reps": reps},
        metrics={str(k): v["false_match"] for k, v in results.items()},
        bounds={str(k): v["bound"] for k, v in results.items()},
        passed=passed,
        seed=seed,
    )


def run_pvalue_validity(n_vocab: int, length: int, trials: int, T: int,
                        costs=("its", "bs"), alphas=(0.01, 0.05, 0.1),
                        seed: int = 0, k: int | None = None) -> ExperimentRecord:
    """Null calibration: on key-independent text, P(p <= a) should not
    exceed a (up to Monte Carlo slack)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    code = build_codes(n_vocab)
    rates = {}
    passed = True
    for cost in costs:
        config = DetectionConfig(cost=cost, k=k, T=T)
        pvals = np.empty(trials)
        for i in range(trials):
            y = rng.integers(n_vocab, size=length)
            keyseq = resample_key_sequence(rng, cost, length, n_vocab, code.max_bits)
            pvals[i] = detect_pvalue(y, keyseq, config, rng, n_vocab, code).p_value
        for a in alphas:
            rate = float(np.mean(pvals <= a))
            rates[f"{cost}_at_{a}"] = rate
            passed = passed and rate <= a + 0.02
    return ExperimentRecord(
        name="pvalue-validity",
        config={"n_vocab": n_vocab, "length": length, "trials": trials, "T": T,
                "costs": list(costs), "alphas": list(alphas)},
        metrics=rates,
        bounds={str(a): a + 0.02 for a in alphas},
        passed=passed,
        seed=seed,
    )


def _score_text(tokens, keyseq, n_vocab, code, k=None):
    """Watermark evidence score of a text against a key sequence: -phi."""
    kk = min(len(tokens), k or DEFAULT_BLOCK)
    return -phi(tokens, keyseq, kk, n_vocab, code).value


def watermarked_scores(lm, lam, m, kind, count, rng, code, attack_specs=None,
                       k=None) -> np.ndarray:
    """Generate watermarked texts (fresh salt each) and score each against
    the key sequence its own seed block derives."""
    scores = np.empty(count)
    for i in range(count):
        res = generate(lm, [], lam, m, kind, rng.bytes(16), rng,
                       code=code if kind == "bs" else None)
        if res.boundary is None or res.m - res.boundary < 1:
            scores[i] = -np.inf  # gate never closed: no watermark present
            continue
        keyseq = key_sequence_for(res, lm.size, code=code, kind=kind)
        tokens = res.tokens
        if attack_specs:
            tokens = apply_attacks(tokens, attack_specs, lm.size, rng)
        scores[i] = _score_text(tokens, keyseq, lm.size, code, k)
    return scores


def null_scores(lm, lam, m, kind, count, rng, code, attack_specs=None,
                k=None) -> np.ndarray:
    """Score unwatermarked rollouts through the same pipeline: each text's
    candidate seed is found by entropy replay and hashed with a fresh salt."""
    scores = np.empty(count)
    for i in range(count):
        tokens = generate_baseline(lm, [], m, rng)
        if attack_specs:
            tokens = apply_attacks(tokens, attack_specs, lm.size, rng)
        s = replay_boundary(lm, tokens, lam)
        if s is None or len(tokens) - s < 1:
            scores[i] = -np.inf
            continue
        unmarked = GenerationResult(tokens, s, kind, rng.bytes(16), lam, len(tokens))
        keyseq = key_sequence_for(unmarked, lm.size, code=code)
        scores[i] = _score_text(tokens, keyseq, lm.size, code, k)
    return scores


def run_detect_curve(lm: MarkovLM, lam: float, m_values, kinds=("its", "bs"),
                     n_pos: int = 160, n_neg: int = 240, seed: int = 0,
                     k: int | None = None) -> ExperimentRecord:
    """True-positive rate at 1% empirical FPR as a function of text length."""
    rng = np.random.default_rng(seed)
    code = build_codes(lm.size)
    tprs = {}
    for kind in kinds:
        for m in m_values:
            pos = watermarked_scores(lm, lam, m, kind, n_pos, rng, code, k=k)
            neg = null_scores(lm, lam, m, kind, n_neg, rng, code, k=k)
            tprs[f"{kind}_m{m}"] = metrics.tpr_at_fpr(pos, neg, 0.01)
    monotone = all(
        all(tprs[f"{kind}_m{a}"] <= tprs[f"{kind}_m{b}"]
            for a, b in zip(m_values, list(m_values)[1:]))
        for kind in kinds
    )
    final_ok = all(tprs[f"{kind}_m{max(m_values)}"] >= 0.9 for kind in kinds)
    return ExperimentRecord(
        name="detectability-curve",
        config={"lambda": lam, "m_values": list(m_values), "kinds": list(kinds),
                "n_pos": n_pos, "n_neg": n_neg, "n_vocab": lm.size},
        metrics=tprs,
        bounds={"tpr_at_max_m": 0.9},
        passed=monotone and final_ok,
        seed=seed,
    )


def run_attack_auc(lm: MarkovLM, lam: float, m: int, kinds=("its", "bs"),
                   attack_specs=(), n_pos: int = 160, n_neg: int = 240, seed: int = 0,
                   k: int | None = None) -> ExperimentRecord:
    """Clean vs post-attack AUC for each sampler/cost kind; passes when each
    clean AUC is >= 0.95 and the attack takes less than 0.15 off it."""
    rng = np.random.default_rng(seed)
    code = build_codes(lm.size)
    out = {}
    passed = True
    for kind in kinds:
        clean_pos = watermarked_scores(lm, lam, m, kind, n_pos, rng, code, k=k)
        clean_neg = null_scores(lm, lam, m, kind, n_neg, rng, code, k=k)
        atk_pos = watermarked_scores(lm, lam, m, kind, n_pos, rng, code,
                                     attack_specs=attack_specs, k=k)
        atk_neg = null_scores(lm, lam, m, kind, n_neg, rng, code,
                              attack_specs=attack_specs, k=k)
        auc_clean = metrics.auc_score(clean_pos, clean_neg)
        auc_attacked = metrics.auc_score(atk_pos, atk_neg)
        out[f"{kind}_clean"] = auc_clean
        out[f"{kind}_attacked"] = auc_attacked
        passed = passed and auc_clean >= 0.95 and (auc_clean - auc_attacked) < 0.15
    return ExperimentRecord(
        name="attack-auc",
        config={"lambda": lam, "m": m, "kinds": list(kinds), "n_pos": n_pos,
                "n_neg": n_neg, "n_vocab": lm.size,
                "attacks": [str(spec) for spec in attack_specs]},
        metrics=out,
        bounds={"clean_auc": 0.95, "max_degradation": 0.15},
        passed=passed,
        seed=seed,
    )


def run_error_lower_bound(lm: MarkovLM, c: float, m: int, samples: int,
                          seed: int = 0, lam: float | None = None) -> ExperimentRecord:
    """Monte Carlo estimate of E[exp(-c * sum alpha) 1{every realized token
    probability >= exp(-c)}], the floor under FNR + FPR for any detector.

    With ``lam`` set, texts whose running entropy never reaches the gate are
    scored 0: the scheme labels them negative by construction, removing them
    from the indistinguishable set.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if not 0 <= c < math.inf:  # NaN fails too
        raise ValueError("c must be >= 0 and finite")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    floor = math.exp(-c)
    vals = np.empty(samples)
    rows = row_source(lm)
    for i in range(samples):
        ctx = []
        alpha_sum = 0.0
        inside = True
        for _ in range(m):
            row = rows(ctx)
            tok = sample_multinomial(row, rng)
            p_tok = float(row.p[tok])
            inside = inside and p_tok >= floor
            alpha_sum += 1.0 - p_tok
            ctx.append(tok)
        val = math.exp(-c * alpha_sum) if inside else 0.0
        if lam is not None and alpha_sum < lam:
            val = 0.0  # gate never closed: labeled negative by construction
        vals[i] = val
    est = float(vals.mean())
    return ExperimentRecord(
        name="error-lower-bound",
        config={"c": c, "m": m, "samples": samples, "lambda": lam, "n_vocab": lm.size},
        metrics={"estimate": est, "se": float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0},
        seed=seed,
    )
