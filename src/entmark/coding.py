"""Binary token codes and per-bit conditional probabilities.

Binary sampling selects a token one bit at a time, so every token needs a bit
string and every bit needs a conditional probability under the current token
distribution. The reference code is fixed length: token id ``i`` gets the
``ceil(log2 N)``-bit big-endian representation of ``i``, and bit patterns at
or above ``N`` are unused. A variable-length Huffman code built from a weight
table is available behind ``mode="huffman"``.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

from .lm import validate_distribution

CODING_MODES = ("fixed", "huffman")


def code_length(n_tokens: int) -> int:
    if n_tokens < 2:
        raise ValueError("degenerate vocabulary: need at least 2 tokens")
    return (n_tokens - 1).bit_length()


@dataclass(frozen=True)
class TokenCode:
    """Bijection between token ids and prefix-free bit strings.

    ``codes[i]`` is the bit string of token ``i``; ``max_bits`` bounds every
    code length (and equals it exactly in fixed mode). ``node_ids`` maps each
    realizable bit prefix to the array of token ids beneath it, which is what
    bitwise sampling walks. Immutable; concurrent reads are safe.
    """

    n_tokens: int
    max_bits: int
    mode: str
    codes: tuple
    _decode: dict = field(repr=False)
    node_ids: dict = field(repr=False)

    def encode(self, token: int) -> str:
        if not 0 <= token < self.n_tokens:
            raise ValueError(f"token id {token} out of range")
        return self.codes[token]

    def decode(self, bits: str) -> int:
        try:
            return self._decode[bits]
        except KeyError:
            raise ValueError(f"invalid code word {bits!r}") from None

    def is_leaf(self, prefix: str) -> bool:
        return prefix in self._decode


def _finish(n_tokens, max_bits, mode, codes):
    decode = {c: i for i, c in enumerate(codes)}
    node_ids = {}
    for i, c in enumerate(codes):
        for j in range(len(c) + 1):
            node_ids.setdefault(c[:j], []).append(i)
    node_ids = {k: np.asarray(v, dtype=np.int64) for k, v in node_ids.items()}
    return TokenCode(n_tokens, max_bits, mode, tuple(codes), decode, node_ids)


def build_codes(n_tokens: int) -> TokenCode:
    """Fixed-length canonical code: token i -> big-endian binary of i."""
    n_bits = code_length(n_tokens)
    codes = [format(i, f"0{n_bits}b") for i in range(n_tokens)]
    return _finish(n_tokens, n_bits, "fixed", codes)


def build_huffman_codes(weights) -> TokenCode:
    """Prefix-free variable-length code from per-token weights.

    Classic two-least-weights merging with deterministic tie-breaking
    (smallest contained token id wins), so equal weight tables always yield
    the same code.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("degenerate vocabulary: need at least 2 tokens")
    if np.any(w <= 0):
        raise ValueError("huffman weights must be positive")
    n = w.size
    heap = [(float(w[i]), i, i) for i in range(n)]  # (weight, min_id, node)
    heapq.heapify(heap)
    children = {}
    next_node = n
    while len(heap) > 1:
        w0, m0, a = heapq.heappop(heap)
        w1, m1, b = heapq.heappop(heap)
        children[next_node] = (a, b)
        heapq.heappush(heap, (w0 + w1, min(m0, m1), next_node))
        next_node += 1
    codes = [""] * n
    stack = [(heap[0][2], "")]
    while stack:
        node, prefix = stack.pop()
        if node < n:
            codes[node] = prefix
        else:
            zero, one = children[node]
            stack.append((zero, prefix + "0"))
            stack.append((one, prefix + "1"))
    return _finish(n, max(len(c) for c in codes), "huffman", codes)


def codes_for_lm(lm, mode: str = "fixed") -> TokenCode:
    """Deterministically derive the code table a model's records use."""
    if mode == "fixed":
        return build_codes(lm.size)
    if mode == "huffman":
        weights = lm.counts.sum(axis=0) + lm.bos_counts + 1
        return build_huffman_codes(weights)
    raise ValueError(f"unknown coding mode {mode!r}")


def prefix_mass(probs: np.ndarray, code: TokenCode, prefix: str) -> float:
    """Total probability of tokens whose code starts with ``prefix``."""
    ids = code.node_ids.get(prefix)
    if ids is None:
        return 0.0
    return float(probs[ids].sum())


def bit_conditional(probs: np.ndarray, code: TokenCode, prefix: str) -> float:
    """P(next bit = 1 | code starts with prefix) under ``probs``."""
    p = validate_distribution(probs)
    if p.size != code.n_tokens:
        raise ValueError("distribution size does not match code")
    if code.is_leaf(prefix):
        raise ValueError(f"prefix {prefix!r} is already a full code word")
    node = prefix_mass(p, code, prefix)
    if node <= 0.0:
        raise ValueError(f"unreachable prefix {prefix!r}")
    return prefix_mass(p, code, prefix + "1") / node

