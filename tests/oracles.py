"""Independent brute-force oracles the tests check the fast paths against,
and the test-only helpers built on the package's primitives.

The oracles are deliberately written from the definitions (plain loops, no
imports from the package's hot paths), so a test that compares against an
oracle is a genuine dual route.
"""

import itertools
import struct

import numpy as np

from entmark.coding import TokenCode, codes_for_lm, prefix_mass
from entmark.generation import GenerationResult, key_sequence_for, watermark_entropy
from entmark.lm import apply_temperature, apply_top_p, validate_distribution
from entmark.sampling import Row, sample_bs, sample_its, sample_multinomial


def eta(tokens, n_vocab: int) -> np.ndarray:
    """Map token ids 0..N-1 onto [0, 1] with mean 1/2 under uniform ids."""
    if n_vocab < 2:
        raise ValueError("eta needs a vocabulary of at least 2 tokens")
    ids = np.asarray(tokens, dtype=np.float64)
    if np.any(ids < 0) or np.any(ids > n_vocab - 1):
        raise ValueError("token id out of range")
    return ids / (n_vocab - 1)


def brute_min_block_cost(costs, k):
    """Triple-loop alignment search; ties keep the smallest (i, j)."""
    costs = np.asarray(costs, dtype=np.float64)
    n, length = costs.shape
    best = (np.inf, -1, -1)
    for i in range(length - k + 1):
        for j in range(n):
            v = 0.0
            for l in range(k):
                v += costs[(j + l) % n, i + l]
            if v < best[0]:
                best = (v, i, j)
    return best


def scalar_min_block_cost(costs, k):
    """Scalar bit reference for ``detection.min_block_cost`` and the
    stacked search behind it.

    The first window is summed in l order, then each text step does one
    subtract and one add per key offset; the scan is row-major with a strict
    ``<``, so ties keep the smallest (i, j). The NumPy kernel must match this
    on every grid of a stack bit for bit, not just within a tolerance.
    """
    m = np.ascontiguousarray(costs, dtype=np.float64)
    n, length = m.shape
    s = [0.0] * n
    for l in range(k):
        for j0 in range(n):
            s[j0] += m[(j0 + l) % n, l]
    best, best_i, best_j = s[0], 0, 0
    for j in range(n):
        if s[j] < best:
            best, best_j = s[j], j
    for i in range(1, length - k + 1):
        for j0 in range(n):
            v = s[j0] - m[(j0 + i - 1) % n, i - 1]
            s[j0] = v + m[(j0 + i - 1 + k) % n, i - 1 + k]
        for j in range(n):
            v = s[(j - i) % n]
            if v < best:
                best, best_i, best_j = v, i, j
    return float(best), best_i, best_j


def scalar_chacha20_block(key: bytes, counter: int, nonce: bytes) -> list:
    """RFC 8439 section 2.3 block function on plain Python ints: the 16
    output words of one block (constants | key | counter | nonce, ten
    column-and-diagonal double rounds, feed forward)."""
    mask = 0xFFFFFFFF
    state = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574,
             *struct.unpack("<8I", key), counter, *struct.unpack("<3I", nonce)]
    x = list(state)

    def rotl(v, n):
        return ((v << n) | (v >> (32 - n))) & mask

    def quarter_round(a, b, c, d):
        x[a] = (x[a] + x[b]) & mask
        x[d] = rotl(x[d] ^ x[a], 16)
        x[c] = (x[c] + x[d]) & mask
        x[b] = rotl(x[b] ^ x[c], 12)
        x[a] = (x[a] + x[b]) & mask
        x[d] = rotl(x[d] ^ x[a], 8)
        x[c] = (x[c] + x[d]) & mask
        x[b] = rotl(x[b] ^ x[c], 7)

    for _ in range(10):
        quarter_round(0, 4, 8, 12)
        quarter_round(1, 5, 9, 13)
        quarter_round(2, 6, 10, 14)
        quarter_round(3, 7, 11, 15)
        quarter_round(0, 5, 10, 15)
        quarter_round(1, 6, 11, 12)
        quarter_round(2, 7, 8, 13)
        quarter_round(3, 4, 9, 14)
    return [(w + s) & mask for w, s in zip(x, state)]


def its_law_exact(probs):
    """Law of inverse-transform sampling averaged over all permutations,
    with the uniform integrated analytically per permutation.

    For a fixed rank order the selected token is a step function of u whose
    step widths are exactly the token probabilities, so each permutation
    contributes the original distribution; the average is computed anyway to
    exercise the rank plumbing.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = p.size
    law = np.zeros(n)
    count = 0
    for order in itertools.permutations(range(n)):
        prev = 0.0
        for tok in order:
            cum = prev + p[tok]
            law[tok] += cum - prev
            prev = cum
        count += 1
    return law / count


def its_law_grid(probs, sampler, n_grid=10_000):
    """Empirical law over all permutations x a midpoint u-grid, calling the
    sampler under test for every (permutation, u) pair."""
    p = np.asarray(probs, dtype=np.float64)
    n = p.size
    law = np.zeros(n)
    us = (np.arange(n_grid) + 0.5) / n_grid
    count = 0
    for order in itertools.permutations(range(n)):
        ranks = np.empty(n, dtype=np.int64)
        ranks[list(order)] = np.arange(n)
        for token, weight in sampler(p, ranks, us):
            law[token] += weight
        count += 1
    return law / count


def bs_law_exact(probs, codes, bit_rule):
    """Exact law of bitwise sampling: enumerate every bit path, multiplying
    the u-measure of each decision.

    ``codes`` maps token id -> bit string. ``bit_rule(q)`` returns the
    u-measure of choosing bit 1 when the conditional 1-probability is q (the
    sampler under test fixes this measure; distribution preservation means
    it must equal q).
    """
    p = np.asarray(probs, dtype=np.float64)
    law = np.zeros(p.size)

    def mass(prefix):
        return sum(p[i] for i, c in enumerate(codes) if c.startswith(prefix))

    def walk(prefix, measure):
        hits = [i for i, c in enumerate(codes) if c == prefix]
        if hits:
            law[hits[0]] += measure
            return
        node = mass(prefix)
        if node <= 0 or measure == 0.0:
            return
        q = mass(prefix + "1") / node
        m1 = bit_rule(q)
        walk(prefix + "1", measure * m1)
        walk(prefix + "0", measure * (1.0 - m1))

    walk("", 1.0)
    return law


def _string_maps(code):
    """Code word -> token, and every realizable prefix -> the ascending ids
    of the tokens whose words extend it."""
    decode = {c: i for i, c in enumerate(code.codes)}
    node_ids = {}
    for i, c in enumerate(code.codes):
        for j in range(len(c) + 1):
            node_ids.setdefault(c[:j], []).append(i)
    return decode, {k: np.asarray(v, dtype=np.int64) for k, v in node_ids.items()}


def scalar_sample_bs(probs, code, u) -> int:
    """Binary sampling grown as a bit string: bit = 1 iff u_j >= 1 - q, q
    the mass of the tokens under prefix + "1" over the running mass of the
    prefix, until the prefix is a code word."""
    p = np.asarray(probs, dtype=np.float64)
    decode, node_ids = _string_maps(code)

    def mass(prefix):
        ids = node_ids.get(prefix)
        return 0.0 if ids is None else float(p[ids].sum())

    prefix = ""
    node = mass(prefix)
    while prefix not in decode:
        one = mass(prefix + "1")
        if u[len(prefix)] >= 1.0 - one / node:
            prefix, node = prefix + "1", one
        else:
            prefix, node = prefix + "0", node - one
    return decode[prefix]


def scalar_h_hard(u, code) -> np.ndarray:
    """Threshold-and-decode h per row: a fixed code reads its L bits
    1(u > 1/2) as an integer clamped to N-1 (unused patterns clamp to the
    last word); a variable-length code grows the prefix until it is a word."""
    decode, _ = _string_maps(code)
    out = []
    for row in np.atleast_2d(u):
        bits = "".join("1" if x > 0.5 else "0" for x in row)
        if code.mode == "fixed":
            tok = min(int(bits[: code.max_bits], 2), code.n_tokens - 1)
        else:
            prefix = ""
            while prefix not in decode:
                prefix += bits[len(prefix)]
            tok = decode[prefix]
        out.append(tok / (code.n_tokens - 1))
    return np.array(out)


def scalar_h_soft(u, code) -> np.ndarray:
    """CDF-position h per row: the dyadic cell of the bits 1(u >= 1/2)
    (all L bits for a fixed code, unused patterns included; up to the
    completed word otherwise) plus frac(2 u) of the last bit's uniform."""
    decode, _ = _string_maps(code)
    out = []
    for row in np.atleast_2d(u):
        if code.mode == "fixed":
            n_bits = code.max_bits
            vals = int("".join("1" if x >= 0.5 else "0" for x in row[:n_bits]), 2)
            rho = 2.0 * row[n_bits - 1]
            rho -= np.floor(rho)
            out.append((vals + rho) / (1 << n_bits))
            continue
        lo, width, prefix = 0.0, 1.0, ""
        while prefix not in decode:
            width *= 0.5
            if row[len(prefix)] >= 0.5:
                prefix, lo = prefix + "1", lo + width
            else:
                prefix += "0"
        rho = 2.0 * row[len(prefix) - 1]
        rho -= np.floor(rho)
        out.append(lo + width * rho)
    return np.array(out)


def argsort_sample_its(probs, u: float, ranks) -> int:
    """Inverse-transform sampling with the rank order recomputed on every
    call and zero-mass tokens dropped from it: the first token with mass, in
    ascending rank, whose cumulative mass reaches ``u``, else the last."""
    p = np.asarray(probs, dtype=np.float64)
    order = np.asarray(ranks).argsort()
    order = order[p[order] > 0.0]
    cum = p[order].cumsum()
    return int(order[min(int(cum.searchsorted(u, side="left")), order.size - 1)])


def scatter_ranks(order) -> np.ndarray:
    """Each row's rank map, the inverse of its token order, by one broadcast
    fancy scatter: ranks[i, order[i, r]] = r, int64."""
    order = np.asarray(order)
    n_rows, n_vocab = order.shape
    ranks = np.empty((n_rows, n_vocab), dtype=np.int64)
    ranks[np.arange(n_rows)[:, None], order] = np.arange(n_vocab)
    return ranks


def resample_its_two_calls(rng, n: int, n_vocab: int):
    """An its null key drawn in two calls: n uniforms, then n rows of N
    draws argsorted into rank maps. Returns (u, ranks)."""
    u = rng.random(n)
    ranks = np.argsort(rng.random((n, n_vocab)), axis=1)
    return u, ranks


def grid_costs(tokens, keyseq, n_vocab: int, code=None, h_mode: str = "soft") -> np.ndarray:
    """The (n keys, L) cost grid built directly: gather each key row's rank
    of every text token (its) or take each row's h value (bs, soft only for
    fixed codes), divide by N - 1 and take the centered product."""
    y = np.asarray(tokens, dtype=np.int64)
    if keyseq.kind == "its":
        et = keyseq.ranks[:, y] / (n_vocab - 1)
        return -((keyseq.u - 0.5)[:, None] * (et - 0.5))
    soft = h_mode == "soft" and code.mode == "fixed"
    h = scalar_h_soft(keyseq.u, code) if soft else scalar_h_hard(keyseq.u, code)
    return -np.outer(h - 0.5, y / (n_vocab - 1) - 0.5)


def pairwise_auc(pos, neg):
    """AUC by direct comparison of every (positive, negative) pair."""
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def cost_its(tokens, u_block, ranks_block, n_vocab: int) -> float:
    """Negative-covariance cost of one text block against one its-key block."""
    y = np.asarray(tokens, dtype=np.int64)
    u = np.asarray(u_block, dtype=np.float64)
    ranks = np.asarray(ranks_block, dtype=np.int64)
    if not (len(y) == len(u) == len(ranks)):
        raise ValueError("block lengths differ")
    if len(y) == 0:
        return 0.0
    positioned = ranks[np.arange(len(y)), y]
    return float(-np.sum((u - 0.5) * (eta(positioned, n_vocab) - 0.5)))


def cost_bs(tokens, h_block, n_vocab: int) -> float:
    """Negative-covariance cost of one text block against h values of a
    bs-key block."""
    y = np.asarray(tokens, dtype=np.int64)
    h = np.asarray(h_block, dtype=np.float64)
    if len(y) != len(h):
        raise ValueError("block lengths differ")
    if len(y) == 0:
        return 0.0
    return float(-np.sum((h - 0.5) * (eta(y, n_vocab) - 0.5)))


def node_of(code: TokenCode, prefix: str) -> int:
    """Node id of a bit prefix, walked down from the root of ``code``'s tree."""
    v = 0
    for bit in prefix:
        if code.leaf[v] >= 0 or bit not in ("0", "1"):
            raise ValueError(f"bit string {prefix!r} leaves the code tree")
        v = code.child[v, int(bit)]
    return int(v)


def path_probability(probs: np.ndarray, code: TokenCode, bits: str) -> float:
    """Probability of a full bit path under sequential bit sampling.

    Product of the per-bit conditionals along ``bits``; zero as soon as the
    path enters a zero-mass subtree. Equals ``probs[t]`` for the code word
    ``code.codes[t]``, which is the content of the telescoping identity.
    """
    p = validate_distribution(probs)
    prob = 1.0
    for j, b in enumerate(bits):
        node = prefix_mass(p, code, node_of(code, bits[:j]))
        if node <= 0.0:
            return 0.0
        q1 = prefix_mass(p, code, node_of(code, bits[:j] + "1")) / node
        prob *= q1 if b == "1" else 1.0 - q1
    return prob


def per_token_generate(lm, prompt, lam, m, sampler, salt, rng, code=None,
                       top_p=None, temperature=None):
    """Gated generation as a plain per-token loop: every token transforms
    its row afresh and hands a fresh ``Row``, checked again, to the public
    sampler. Returns (tokens, boundary)."""
    if sampler == "bs" and code is None:
        code = codes_for_lm(lm)
    tokens, acc, boundary, keyseq = [], 0.0, None, None
    for _ in range(m):
        probs = lm.context_distribution(list(prompt) + tokens)
        if temperature is not None:
            probs = apply_temperature(probs, temperature)
        if top_p is not None:
            probs = apply_top_p(probs, top_p)
        row = Row(probs)
        if boundary is None and acc >= lam:
            boundary = len(tokens)
            if sampler != "multinomial":
                partial = GenerationResult(list(tokens), boundary, sampler, salt, lam, m,
                                           list(prompt))
                keyseq = key_sequence_for(partial, lm.size, code)
        if boundary is None or sampler == "multinomial":
            tok = sample_multinomial(row, rng)
            acc += watermark_entropy(probs, tok)
        elif sampler == "its":
            j = len(tokens) - boundary
            tok = sample_its(row, keyseq.u[j], keyseq.order[j])
        else:
            tok = sample_bs(row, code, keyseq.u[len(tokens) - boundary])
        tokens.append(tok)
    if boundary is None and acc >= lam:
        boundary = len(tokens)
    return tokens, boundary
