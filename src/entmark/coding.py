"""Binary token codes and per-bit conditional probabilities.

Binary sampling selects a token one bit at a time, so every token needs a bit
string and every bit needs a conditional probability under the current token
distribution. The reference code is fixed length: token id ``i`` gets the
``ceil(log2 N)``-bit big-endian representation of ``i``, and bit patterns at
or above ``N`` are unused. A variable-length Huffman code built from a weight
table is available behind ``mode="huffman"``. Either code is held as one
integer tree, built once, that the samplers and the detection maps walk by
node id; the bit strings remain for encoding, decoding and inspection.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

CODING_MODES = ("fixed", "huffman")


def code_length(n_tokens: int) -> int:
    if n_tokens < 2:
        raise ValueError("degenerate vocabulary: need at least 2 tokens")
    return (n_tokens - 1).bit_length()


@dataclass(frozen=True)
class TokenCode:
    """Bijection between token ids and prefix-free bit strings, as a tree.

    ``codes[i]`` is the bit string of token ``i``; ``max_bits`` bounds every
    code length (and equals it exactly in fixed mode). Node 0 is the empty
    prefix; ``child[node, bit]`` extends it by one bit (a leaf is its own
    child), ``leaf[node]`` is the token a leaf reads as (-1 for inner nodes),
    ``members[node]`` the ascending ids of the tokens beneath it, and
    ``[lo, lo + 2**-depth)`` the dyadic cell its prefix spells (``depth`` is
    int32, the exponent type ``np.ldexp`` takes without a cast). A fixed
    code over N < 2**L tokens keeps each unused pattern as a leaf with no
    members that reads as token N-1; Huffman trees are full. ``branches[node]`` is
    ``(leaf, child0, child1)`` as Python ints, for walks one node at a time.
    Immutable; concurrent reads are safe.
    """

    n_tokens: int
    max_bits: int
    mode: str
    codes: tuple
    child: np.ndarray = field(repr=False, compare=False)
    leaf: np.ndarray = field(repr=False, compare=False)
    members: tuple = field(repr=False, compare=False)
    lo: np.ndarray = field(repr=False, compare=False)
    depth: np.ndarray = field(repr=False, compare=False)
    branches: tuple = field(repr=False, compare=False)

    def node(self, prefix: str) -> int:
        """Node id of a bit prefix, walked down from the root."""
        v = 0
        for bit in prefix:
            if self.leaf[v] >= 0 or bit not in ("0", "1"):
                raise ValueError(f"bit string {prefix!r} leaves the code tree")
            v = self.child[v, int(bit)]
        return int(v)

    def encode(self, token: int) -> str:
        if not 0 <= token < self.n_tokens:
            raise ValueError(f"token id {token} out of range")
        return self.codes[token]

    def decode(self, bits: str) -> int:
        v = self.node(bits)
        if self.leaf[v] < 0 or self.members[v].size == 0:
            raise ValueError(f"invalid code word {bits!r}")
        return int(self.leaf[v])


def _finish(n_tokens, max_bits, mode, codes):
    words = list(codes)
    if mode == "fixed":  # unused patterns become empty leaves
        words += [format(v, f"0{max_bits}b") for v in range(n_tokens, 1 << max_bits)]
    # every prefix once, each after its parent, so node 0 is the empty prefix
    prefixes = list(dict.fromkeys(w[:j] for w in words for j in range(len(w) + 1)))
    ids = {b: v for v, b in enumerate(prefixes)}
    token_of = {w: t for t, w in enumerate(words)}
    members = [[] for _ in prefixes]
    for t, w in enumerate(codes):
        for j in range(len(w) + 1):
            members[ids[w[:j]]].append(t)
    child = [(ids.get(b + "0", v), ids.get(b + "1", v)) for v, b in enumerate(prefixes)]
    leaf = [min(token_of.get(b, -1), n_tokens - 1) for b in prefixes]
    return TokenCode(
        n_tokens, max_bits, mode, tuple(codes),
        child=np.array(child),
        leaf=np.array(leaf),
        members=tuple(np.array(m, dtype=np.int64) for m in members),
        lo=np.array([sum(0.5 ** (j + 1) for j, c in enumerate(b) if c == "1") for b in prefixes]),
        depth=np.array([len(b) for b in prefixes], dtype=np.int32),
        branches=tuple((t, c0, c1) for t, (c0, c1) in zip(leaf, child)),
    )


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


def prefix_mass(probs: np.ndarray, code: TokenCode, node: int) -> float:
    """Total probability of the tokens beneath code-tree node ``node``."""
    return float(probs[code.members[node]].sum())

