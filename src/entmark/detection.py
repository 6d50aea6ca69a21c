"""Alignment-cost watermark detection with a resampling p-value.

The test statistic phi is the minimum alignment cost over every length-k text
block paired with every key offset (key indexing wraps around), where the
cost is a negative covariance between centered key values and centered token
positions eta(y) = id / (N - 1):

    its:  d(y, key) = -sum (u_l - 1/2) (eta(rank_l(y_l)) - 1/2)
    bs:   d(y, key) = -sum (h(u_l) - 1/2) (eta(y_l) - 1/2)

The p-value ranks phi under the supplied key among phi under T freshly
resampled key sequences. For binary keys, h maps a key element's uniforms to
[0, 1) and comes in two constructions:

* ``hard``: threshold each uniform at 1/2, decode the resulting bit pattern
  (clamping unused patterns to the nearest valid code word), and take eta of
  the decoded token.
* ``soft`` (default in costs): reconstruct the CDF position the bit path
  encodes, ``0.c1c2...cL`` plus a within-cell residual recycled from the last
  uniform. Conditioned on a token a uniform-row model sampled with these
  uniforms, soft h is exactly uniform on that token's CDF interval, which
  makes the fresh-vs-generating key cost gap equal m * Var(eta) * mean(1-p).
  The hard map over-weights the cell endpoints and inflates that gap, so it
  is kept for inspection but not used as the cost default.

The (i, j) search grid and the T resamples are embarrassingly parallel; this
implementation evaluates them sequentially through a compiled kernel when the
extension built, with a NumPy fallback that returns bit-identical results.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .coding import TokenCode
from .keys import (BsKeySequence, SeedBlock, derive_key_sequence, key_bits,
                   resample_key_sequence)

# Fixed at import, with no option: the compiled kernel when the extension
# built, else its bit-identical NumPy twin. DEFAULT_BACKEND names the one in use.
try:
    from ._alignment import min_block_cost

    HAVE_COMPILED = True
except ImportError:
    from ._alignment_py import min_block_cost

    HAVE_COMPILED = False

DEFAULT_BACKEND = "compiled" if HAVE_COMPILED else "python"
DEFAULT_BLOCK = 50
DEFAULT_RESAMPLES = 99
H_MODES = ("soft", "hard")


def eta(tokens, n_vocab: int) -> np.ndarray:
    """Map token ids 0..N-1 onto [0, 1] with mean 1/2 under uniform ids."""
    if n_vocab < 2:
        raise ValueError("eta needs a vocabulary of at least 2 tokens")
    ids = np.asarray(tokens, dtype=np.float64)
    if np.any(ids < 0) or np.any(ids > n_vocab - 1):
        raise ValueError("token id out of range")
    return ids / (n_vocab - 1)


def _descend(bits, code: TokenCode) -> np.ndarray:
    """The code-tree node each row of 0/1 ``bits`` reaches, one level per
    column; a row that reaches a leaf early stays on it."""
    node = np.zeros(bits.shape[0], dtype=np.int64)
    for j in range(code.max_bits):
        node = code.child[node, bits[:, j]]
    return node


def h_hard(u, code: TokenCode) -> np.ndarray:
    """Threshold-and-decode h: eta of the leaf the bits 1(u > 1/2) reach;
    an unused fixed-code pattern reads as token N-1."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    node = _descend((u > 0.5).astype(np.int64), code)
    return code.leaf[node] / (code.n_tokens - 1)


def h_soft(u, code: TokenCode) -> np.ndarray:
    """CDF-position h: the dyadic cell of the leaf the bits 1(u >= 1/2)
    reach, plus a residual recycled from the uniform of its last bit;
    uniform on [0, 1) under uniform keys."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    node = _descend((u >= 0.5).astype(np.int64), code)
    depth = code.depth[node]
    rho = 2.0 * u[np.arange(u.shape[0]), depth - 1]
    rho -= np.floor(rho)
    return code.lo[node] + np.ldexp(rho, -depth)


def h_values(keyseq: BsKeySequence, code: TokenCode, h_mode: str = "soft") -> np.ndarray:
    """Map every key element to [0, 1) for the binary cost.

    The soft reconstruction lives in code order, which only coincides with
    token-id order (the order eta uses) for fixed-length canonical codes;
    variable-length codes therefore always use the decode-based hard map.
    """
    if h_mode not in H_MODES:
        raise ValueError(f"unknown h mode {h_mode!r}")
    if h_mode == "soft" and code.mode == "fixed":
        return h_soft(keyseq.u, code)
    return h_hard(keyseq.u, code)


def _cost_matrix(tokens, keyseq, n_vocab, code, h_mode):
    """Per-pair cost contributions, shape (n keys, text length)."""
    y = np.asarray(tokens, dtype=np.int64)
    if keyseq.kind == "its":
        if keyseq.n_vocab != n_vocab:
            raise ValueError("key permutation size does not match vocabulary")
        # eta without its range scan: ItsKeySequence checked the ranks
        et = keyseq.ranks[:, y] / (n_vocab - 1)
        return -((keyseq.u - 0.5)[:, None] * (et - 0.5))
    if keyseq.kind == "bs":
        if code is None:
            raise ValueError("binary cost requires a token code")
        h = h_values(keyseq, code, h_mode)
        # eta without its range scans: _token_ids checked the text
        return -np.outer(h - 0.5, y / (n_vocab - 1) - 0.5)
    raise ValueError(f"unknown key kind {keyseq.kind!r}")


@dataclass(frozen=True)
class PhiResult:
    value: float
    best_i: int
    best_j: int


def phi(tokens, keyseq, k: int, n_vocab: int, code: TokenCode | None = None,
        h_mode: str = "soft") -> PhiResult:
    """Minimum block-alignment cost over all (text start, key offset) pairs."""
    y = _token_ids(tokens, n_vocab)
    if keyseq.n < 1:
        raise ValueError("key sequence is empty")
    if len(y) < k:
        raise ValueError("text shorter than block")
    costs = _cost_matrix(y, keyseq, n_vocab, code, h_mode)
    value, i, j = min_block_cost(costs, k)
    return PhiResult(value, int(i), int(j))


@dataclass
class DetectionConfig:
    """Knobs of the permutation test (block length, resamples, cost kind)."""

    cost: str = "its"
    k: int | None = None  # None: min(len(text), 50)
    T: int = DEFAULT_RESAMPLES
    s_max: int | None = None
    h_mode: str = "soft"

    def block_for(self, text_len: int) -> int:
        k = self.k if self.k is not None else min(text_len, DEFAULT_BLOCK)
        if not 1 <= k <= text_len:
            raise ValueError("text shorter than block")
        return k

    def validate(self):
        if self.cost not in ("its", "bs"):
            raise ValueError(f"unknown cost kind {self.cost!r}")
        if self.T < 1:
            raise ValueError("resample count T must be >= 1")
        if self.h_mode not in H_MODES:
            raise ValueError(f"unknown h mode {self.h_mode!r}")
        if self.s_max is not None and self.s_max < 0:
            raise ValueError("scan bound s_max must be >= 0")
        return self


@dataclass
class DetectionReport:
    """Permutation-test outcome; p_value = (1 + #{null <= observed}) / (T+1)."""

    p_value: float
    phi0: float
    best_i: int
    best_j: int
    k: int
    T: int
    cost: str
    mode: str
    boundary: int | None = None
    phi_null: np.ndarray = field(default=None, repr=False)
    scanned: list = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "p_value": self.p_value,
            "phi0": self.phi0,
            "k": self.k,
            "T": self.T,
            "cost": self.cost,
            "mode": self.mode,
            "boundary": self.boundary,
            "best_i": self.best_i,
            "best_j": self.best_j,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())


def _token_ids(tokens, n_vocab: int) -> np.ndarray:
    """The text as int64 ids, checked against 0..N-1 before any key gather
    can wrap a negative id or index past the vocabulary."""
    if n_vocab < 2:
        raise ValueError("detection needs a vocabulary of at least 2 tokens")
    y = np.asarray(tokens, dtype=np.int64)
    bad = (y < 0) | (y >= n_vocab)
    if bad.any():
        raise ValueError(f"token id {int(y[bad][0])} out of range 0..{n_vocab - 1}")
    return y


def detect_pvalue(tokens, keyseq, config: DetectionConfig, rng: np.random.Generator,
                  n_vocab: int, code: TokenCode | None = None,
                  boundary: int | None = None) -> DetectionReport:
    """Rank phi under the supplied key among T resampled-key statistics."""
    config.validate()
    y = _token_ids(tokens, n_vocab)
    k = config.block_for(len(y))
    if config.cost != keyseq.kind:
        raise ValueError(f"cost kind {config.cost!r} does not match key kind {keyseq.kind!r}")
    n_bits = code.max_bits if code is not None else 1
    observed = phi(y, keyseq, k, n_vocab, code, config.h_mode)
    null = np.empty(config.T)
    for t in range(config.T):
        resampled = resample_key_sequence(rng, keyseq.kind, keyseq.n, n_vocab, n_bits)
        null[t] = phi(y, resampled, k, n_vocab, code, config.h_mode).value
    p_value = (1.0 + float(np.sum(null <= observed.value))) / (config.T + 1)
    return DetectionReport(
        p_value=p_value, phi0=observed.value, best_i=observed.best_i, best_j=observed.best_j,
        k=k, T=config.T, cost=config.cost, mode="key", boundary=boundary, phi_null=null,
    )


def detect_seed_scan(tokens, config: DetectionConfig, salt: bytes, n_vocab: int,
                     rng: np.random.Generator, code: TokenCode | None = None) -> DetectionReport:
    """Detect without a shared key: enumerate candidate entropy boundaries.

    Each candidate prefix y[:s] is hashed into a key sequence for the suffix
    y[s:], the permutation test runs per candidate with fresh null keys, and
    the smallest p-value is Bonferroni-corrected by the number of candidates.
    """
    config.validate()
    y = _token_ids(tokens, n_vocab)
    k = config.block_for(len(y))
    if len(y) <= k + 1:
        raise ValueError("text too short for a boundary scan")
    s_hi = len(y) - k - 1
    if config.s_max is not None:
        s_hi = min(s_hi, config.s_max)
    candidates = list(range(s_hi + 1))
    n_bits = key_bits(n_vocab, code)
    best = None
    scanned = []
    for s in candidates:
        seed = SeedBlock(tuple(int(t) for t in y[:s]), salt)
        keyseq = derive_key_sequence(seed, config.cost, len(y) - s, n_vocab, n_bits)
        rep = detect_pvalue(y[s:], keyseq, config, rng, n_vocab, code)
        scanned.append({"s": s, "p_value": rep.p_value, "phi0": rep.phi0})
        if best is None or rep.p_value < best[1].p_value:
            best = (s, rep)
    s_win, rep = best
    corrected = min(1.0, len(candidates) * rep.p_value)
    return DetectionReport(
        p_value=corrected, phi0=rep.phi0, best_i=rep.best_i, best_j=rep.best_j,
        k=k, T=config.T, cost=config.cost, mode="scan", boundary=s_win,
        phi_null=rep.phi_null, scanned=scanned,
    )


def replay_boundary(lm, tokens, lam: float, prompt=()) -> int | None:
    """Where the entropy gate would close along ``tokens`` under ``lm``.

    Replays the raw model rows; if generation modified them (top-p,
    temperature), the replayed boundary is an approximation of the recorded
    one.
    """
    if lam <= 0:
        return 0
    acc = 0.0
    ctx = list(prompt)
    for i, tok in enumerate(tokens):
        probs = lm.context_distribution(ctx)
        acc += 1.0 - float(probs[int(tok)])
        ctx.append(int(tok))
        if acc >= lam:
            return i + 1
    return None
