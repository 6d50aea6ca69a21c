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

A key's cost against a text depends only on (key row, token), so a null key
is built as a cost table against the text's U distinct tokens
(U <= min(N, L)), from which each text position reads its token's column.
Tables are stored token-major as doubled slabs, (U, 2n) per table with key
rows 0..n-1 written twice, so the wrapped diagonal a text position reads is
a contiguous block, and one slide adds and subtracts it in place at each
text step. Two searches read that slide: ``min_block_cost`` copies each
step's window into one grid (``phi``'s) and finds its row-major first
minimum (i, j) once at the end, and ``detect_pvalue`` keeps only an
elementwise running minimum over a stack of null slabs, since a null
statistic enters the p-value by its value alone. Null keys are drawn
a batch per call, and each draw writes its tables straight into the slab.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .coding import TokenCode
from .generation import bounded_key_sequence
from .keys import BsKeySequence, SeedBlock, key_bits, resample_key_sequence

# The one alignment kernel's name, read by the benchmark's environment report.
DEFAULT_BACKEND = "python"
DEFAULT_BLOCK = 50
DEFAULT_RESAMPLES = 99
H_MODES = ("soft", "hard")
# Byte budgets of detect_pvalue's null batches. One search takes as many
# slabs as fit in _CHUNK_BYTES (16 n U bytes a key, U the text's distinct
# tokens); it makes three NumPy calls per text step whatever the batch. On a
# 2-core Xeon, its detection at n ~ L = 400, N = 8, T = 99 (50 KB slabs)
# took 28-30 ms from 2 MiB to 16 MiB (all 99 nulls in one search from 8 MiB
# up) and 35-36 ms at 512 KiB; at N = 256 over 400 tokens (U ~ 200, 1.3 MB
# slabs) 301-314 ms at 8 MiB, 275-303 ms at 32 MiB and 395-403 ms at 2 MiB
# (quartiles of 9-32 calls each). One draw takes as many keys as fit in
# _DRAW_BYTES (its: 8 n N bytes of ranks a key; bs: 8 n n_bits of uniforms),
# which keeps a wide its draw cache-sized: at n = L = 400, N = 256, 256 KiB
# and 1 MiB took 299-317 ms against 334-351 ms at 4 MiB, and at N = 8
# 128 KiB to 1 MiB took 26-35 ms against 35-39 ms at 4 MiB.
_CHUNK_BYTES = 8 << 20
_DRAW_BYTES = 256 << 10


def _descend(bits, code: TokenCode) -> np.ndarray:
    """The code-tree node each row of 0/1 ``bits`` reaches, one level per
    column; a row that reaches a leaf early stays on it. Each level is one
    1-D ``take`` from the flattened child table, at ``2 * node + bit``."""
    child = code.child.ravel()
    node = np.zeros(bits.shape[0], dtype=np.int64)
    for j in range(code.max_bits):
        node = child.take(2 * node + bits[:, j])
    return node


def h_hard(u, code: TokenCode) -> np.ndarray:
    """Threshold-and-decode h: eta of the leaf the bits 1(u > 1/2) reach;
    an unused fixed-code pattern reads as token N-1."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    return code.leaf.take(_descend(u > 0.5, code)) / (code.n_tokens - 1)


def h_soft(u, code: TokenCode) -> np.ndarray:
    """CDF-position h: the dyadic cell of the leaf the bits 1(u >= 1/2)
    reach, plus a residual recycled from the uniform of its last bit;
    uniform on [0, 1) under uniform keys. Each row's last-bit uniform is
    one flat ``take``, and the cell width 2**-depth an ``ldexp`` by the
    code's int32 depths."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    node = _descend(u >= 0.5, code)
    depth = code.depth.take(node)
    rho = 2.0 * u.ravel().take(np.arange(0, u.size, u.shape[1]) + (depth - 1))
    rho -= np.floor(rho)
    return code.lo.take(node) + np.ldexp(rho, -depth)


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


def _cost_table(keyseq, n_vocab, code, h_mode, tokens, out) -> np.ndarray:
    """Write every key row's cost against each token id in ``tokens`` into
    ``out``, for the count keys stacked in ``keyseq``, token-major: out has
    shape (len(tokens), count, n keys), and key b's row r at token c lands
    in out[c, b, r]. Returns ``out``."""
    count, n = out.shape[1:]
    # -(a * b) is a * (-b) to the bit, so the negation rides on the small factor
    if keyseq.kind == "its":
        if keyseq.n_vocab != n_vocab:
            raise ValueError("key permutation size does not match vocabulary")
        # eta without its range scan: ItsKeySequence checked the ranks, or
        # they are permutations by construction
        eta = np.arange(n_vocab) / (n_vocab - 1) - 0.5
        ranks = keyseq.ranks[:, tokens].T.reshape(len(tokens), count, n)
        return np.multiply(eta[ranks], np.negative(keyseq.u.reshape(count, n) - 0.5), out=out)
    if keyseq.kind == "bs":
        if code is None:
            raise ValueError("binary cost requires a token code")
        h = h_values(keyseq, code, h_mode).reshape(count, n)
        eta = np.negative(tokens / (n_vocab - 1) - 0.5)
        return np.multiply(h - 0.5, eta[:, None, None], out=out)
    raise ValueError(f"unknown key kind {keyseq.kind!r}")


def _cost_matrix(tokens, keyseq, n_vocab, code, h_mode):
    """Per-pair cost contributions, shape (n keys, text length)."""
    y = np.asarray(tokens, dtype=np.int64)  # _token_ids checked the text
    table = np.empty((y.size, 1, keyseq.n))
    return _cost_table(keyseq, n_vocab, code, h_mode, y, table)[:, 0].T


def _windows(slabs: np.ndarray, cols, k: int):
    """The wrapped-diagonal slide over tables held as doubled slabs, shape
    (U, 2n, ...): slabs[c, r] is key row r % n at the tables' c-th column,
    and text position l reads column cols[l], so its wrapped diagonal is the
    contiguous block slabs[cols[l], l % n:l % n + n].

    Yields, at each text start i in turn, one buffer updated in place:
    s[j] is the window of text start i at key offset (i + j) % n, so row i
    of the search grid is s rolled by i. The first window is summed in l
    order from 0, then each text step does one subtract and one add.
    """
    n = slabs.shape[1] // 2
    diags = [slabs[c, l % n:l % n + n] for l, c in enumerate(cols.tolist())]
    s = np.zeros((n,) + slabs.shape[2:])
    for l in range(k):
        s += diags[l]
    yield s
    for i in range(1, len(diags) - k + 1):
        s -= diags[i - 1]
        s += diags[i - 1 + k]
        yield s


def _min_diagonal_costs(slabs: np.ndarray, cols, k: int) -> np.ndarray:
    """The minimum window of each of the B tables stacked as (U, 2n, B)
    slabs (see ``_windows``): ``min_block_cost``'s value for every grid,
    without its (i, j). A window sum is never -0.0 (the slide starts from
    +0.0), so the elementwise running minimum keeps the scan's bytes."""
    low = np.full((slabs.shape[1] // 2,) + slabs.shape[2:], np.inf)
    for s in _windows(slabs, cols, k):
        np.minimum(low, s, out=low)
    return low.min(axis=0)


def min_block_cost(costs: np.ndarray, k: int):
    """The block-alignment search on one (n keys, L) cost grid.

    For every text start i and key offset j, D(i, j) = sum_{l<k}
    costs[(j + l) % n, i + l] is slid along the wrapped diagonals: the first
    window summed in l order from 0, then one subtract and one add per text
    step, each step's window copied into a (L - k + 1, n) grid with no
    reduction. Returns (min cost, text start i, key offset j); ties take the
    row-major smallest (i, j), as a strict-< scan keeps: one ``min`` over the
    grid gives the value, the first row holding it is i, and that row rolled
    into key-offset order gives j by ``argmin``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n, length = costs.shape
    if n < 1:
        raise ValueError("need at least one key element")
    if not 1 <= k <= length:
        raise ValueError("block length k must be in 1..text length")
    slab = np.empty((length, 2 * n))
    slab[:, :n] = slab[:, n:] = costs.T
    grid = np.empty((length - k + 1, n))
    for i, s in enumerate(_windows(slab, np.arange(length), k)):
        grid[i] = s
    best = grid.min()
    i = int((grid == best).any(axis=1).argmax())
    j = int(np.roll(grid[i], i).argmin())
    return float(best), i, j


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
    return PhiResult(*min_block_cost(costs, k))


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
    n_bits = key_bits(n_vocab, code)
    observed = phi(y, keyseq, k, n_vocab, code, config.h_mode)
    # the nulls of consecutive resamples: keys drawn a batch at a time, and
    # their cost tables against the text's distinct tokens searched a chunk
    # of slabs at a time
    n = keyseq.n
    tokens, cols = np.unique(y, return_inverse=True)
    key_width = n_vocab if keyseq.kind == "its" else n_bits  # ranks or uniforms a row
    per_draw = max(1, _DRAW_BYTES // (8 * n * key_width))
    per_search = max(1, _CHUNK_BYTES // (16 * n * tokens.size))
    null = np.empty(config.T)
    for start in range(0, config.T, per_search):
        stop = min(start + per_search, config.T)
        slabs = np.empty((tokens.size, 2 * n, stop - start))
        # the draws fill the second half key-major, (U, B, n), so each writes
        # its tables in place in contiguous rows
        staged = slabs.reshape(tokens.size, 2, -1)[:, 1].reshape(tokens.size, -1, n)
        for i in range(0, stop - start, per_draw):
            count = min(per_draw, stop - start - i)
            resampled = resample_key_sequence(rng, keyseq.kind, n, n_vocab, n_bits, count)
            _cost_table(resampled, n_vocab, code, config.h_mode, tokens,
                        staged[:, i:i + count])
            del resampled  # free these ranks before the next draw allocates its own
        # move them to the first half and double them a token at a time: the
        # halves interleave, so a whole-slab copy would stage its source in a
        # half-slab temporary
        for c in range(tokens.size):
            slabs[c, :n] = staged[c].T
            slabs[c, n:] = slabs[c, :n]
        null[start:stop] = _min_diagonal_costs(slabs, cols, k)
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
    best = None
    scanned = []
    for s in candidates:
        seed = SeedBlock(tuple(int(t) for t in y[:s]), salt)
        keyseq = bounded_key_sequence(seed, config.cost, len(y) - s, n_vocab, code,
                                      f"scan candidate s = {s}")
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
