"""Toy bigram language model with additive smoothing.

The model is the next-token distribution oracle for the whole toolkit: it is
the smallest model whose per-token entropy can be dialed up and down (via the
training corpus, the smoothing constant, or the temperature / top-p
transforms), which is all the generation and detection experiments need.

Token ids are 0-based integers in ``range(vocab.size)`` everywhere.
"""

import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

DIST_ATOL = 1e-9
LM_FORMAT = "bigram-lm/1"
# Bound on N * N * 16, the bytes of a model's count table and its rows,
# checked before either is allocated (N <= 4096).
MAX_MODEL_BYTES = 2**28


def validate_distribution(probs: np.ndarray) -> np.ndarray:
    """Check that ``probs`` is a probability vector; returns it as float64."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a non-empty 1-d vector")
    # a valid row costs one pass each for the minimum and the sum; NaN fails the sum
    if not np.minimum.reduce(p) >= 0 and (p < 0).any():
        raise ValueError("distribution has negative entries")
    total = np.add.reduce(p)
    if not abs(total - 1.0) <= DIST_ATOL:
        raise ValueError(f"distribution sums to {total!r}, expected 1")
    return p


@dataclass(frozen=True)
class Vocabulary:
    """Ordered set of distinct token strings; ids are list positions."""

    tokens: tuple

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) < 2:
            raise ValueError("vocabulary needs at least 2 tokens")
        ids = {token: i for i, token in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ValueError("vocabulary tokens must be distinct")
        object.__setattr__(self, "_ids", ids)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ValueError(f"unknown token {token!r}") from None

    def encode(self, tokens) -> list:
        return [self.id_of(t) for t in tokens]

    def check_ids(self, ids) -> None:
        for i in ids:
            if not 0 <= int(i) < self.size:
                raise ValueError(f"token id {i} out of range 0..{self.size - 1}")


class MarkovLM:
    """Order-1 Markov model over token ids with additive smoothing.

    ``counts[a, b]`` is the number of adjacent pairs ``(a, b)`` seen in
    training; ``bos_counts[b]`` counts sequence-initial tokens so that the
    empty context is representable. Immutable after construction, so shared
    concurrent reads are safe. ``context_distribution`` returns one read-only
    view per token, the same object on every call.
    """

    def __init__(self, vocab: Vocabulary, counts, bos_counts=None, smoothing: float = 1.0):
        if not 0 < smoothing <= sys.float_info.max:  # NaN, inf and past-float ints fail
            raise ValueError("smoothing must be finite and > 0")
        n = vocab.size
        _check_model_size(n)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (n, n) or np.any(counts < 0):
            raise ValueError("counts must be a nonnegative NxN matrix")
        if bos_counts is None:
            bos_counts = np.zeros(n, dtype=np.int64)
        bos_counts = np.asarray(bos_counts, dtype=np.int64)
        if bos_counts.shape != (n,) or np.any(bos_counts < 0):
            raise ValueError("bos_counts must be a nonnegative N vector")
        self.vocab = vocab
        self.counts = counts
        self.bos_counts = bos_counts
        self.smoothing = float(smoothing)
        self.counts.setflags(write=False)
        self.bos_counts.setflags(write=False)
        # rows are consulted once per generated token; precompute them
        num = counts + self.smoothing
        rows = num / num.sum(axis=1, keepdims=True)
        rows.setflags(write=False)
        self._rows = tuple(rows)
        start = bos_counts + self.smoothing
        self._start_row = start / start.sum()
        self._start_row.setflags(write=False)

    @property
    def size(self) -> int:
        return self.vocab.size

    def context_distribution(self, prefix) -> np.ndarray:
        """Next-token distribution after the token ids ``prefix``; the empty
        prefix takes the start row."""
        if len(prefix) == 0:
            return self._start_row
        last = int(prefix[-1])
        if not 0 <= last < len(self._rows):  # a negative id would wrap
            raise ValueError(f"token id {last} out of range 0..{len(self._rows) - 1}")
        return self._rows[last]


def train_markov(corpus, vocab: Vocabulary, smoothing: float = 1.0) -> MarkovLM:
    """Count adjacent token-id pairs of ``corpus`` into a MarkovLM."""
    ids = [int(t) for t in corpus]
    if len(ids) < 2:
        raise ValueError("insufficient corpus: need at least 2 tokens")
    vocab.check_ids(ids)
    n = vocab.size
    counts = np.zeros((n, n), dtype=np.int64)
    a = np.asarray(ids[:-1])
    b = np.asarray(ids[1:])
    np.add.at(counts, (a, b), 1)
    bos = np.zeros(n, dtype=np.int64)
    bos[ids[0]] += 1
    return MarkovLM(vocab, counts, bos, smoothing)


def apply_top_p(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Keep the smallest descending-probability prefix with mass >= top_p.

    Ties between equal probabilities are broken by ascending token id. The
    surviving mass is renormalized; dropped tokens get exact zeros.
    """
    p = validate_distribution(probs)
    if not 0 < top_p <= 1:
        raise ValueError("top_p must be in (0, 1]")
    if top_p == 1.0:
        return p
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    keep = int(np.searchsorted(cum, top_p, side="left")) + 1
    out = np.zeros_like(p)
    kept = order[:keep]
    out[kept] = p[kept] / p[kept].sum()
    return out


def apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Rescale probabilities as p**(1/temperature) and renormalize."""
    p = validate_distribution(probs)
    if not temperature > 0:  # NaN fails too
        raise ValueError("temperature must be > 0")
    if temperature == 1.0:
        return p
    pos = p > 0
    # normalize by the max first so very cold temperatures do not underflow
    logp = np.log(p[pos] / p[pos].max())
    w = np.exp(logp / temperature)
    out = np.zeros_like(p)
    out[pos] = w / w.sum()
    return out


def tokenize(text: str, mode: str = "whitespace") -> list:
    """Split corpus text into tokens: whitespace words or single characters."""
    if mode == "whitespace":
        return text.split()
    if mode == "char":
        return [c for c in text if not c.isspace()]
    raise ValueError(f"unknown tokenizer mode {mode!r}")


def build_vocabulary(tokens) -> Vocabulary:
    """Vocabulary of the distinct tokens, in order of first appearance."""
    seen = dict.fromkeys(tokens)
    return Vocabulary(tuple(seen))


def train_from_text(text: str, mode: str = "whitespace", smoothing: float = 1.0) -> MarkovLM:
    toks = tokenize(text, mode)
    if len(toks) < 2:
        raise ValueError("insufficient corpus: need at least 2 tokens")
    vocab = build_vocabulary(toks)
    return train_markov(vocab.encode(toks), vocab, smoothing)


def save_lm(lm: MarkovLM, path) -> None:
    doc = {
        "format": LM_FORMAT,
        "vocab": list(lm.vocab.tokens),
        "smoothing": lm.smoothing,
        "counts": lm.counts.tolist(),
        "bos_counts": lm.bos_counts.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _check_model_size(n_tokens: int) -> None:
    """Refuse an N-token model past MAX_MODEL_BYTES before it is built."""
    if n_tokens * n_tokens * 16 > MAX_MODEL_BYTES:
        raise ValueError(f"a {n_tokens}-token model is past the {MAX_MODEL_BYTES >> 20} MiB "
                         f"model limit (N x N counts and rows, 16 bytes a cell)")


def _count_table(value, shape: tuple):
    """``value`` as the int64 array of ``shape`` a model is built from, if it
    is nested lists of integer counts in 0..2**63-1; else None."""
    if type(value) is not list:
        return None
    if not value:  # np.array cannot tell an empty list's depth
        return np.zeros(shape, dtype=np.int64) if shape[0] == 0 else None
    try:
        # int64 only if every entry is an int, or a bool, that fits it
        table = np.array(value)
    except ValueError:  # ragged
        return None
    if table.dtype != np.int64 or table.shape != shape or table.min() < 0:
        return None
    entries = itertools.chain.from_iterable(value) if len(shape) == 2 else value
    return None if bool in set(map(type, entries)) else table


# The fields of a model file: parse, given the vocabulary size n, to the
# value the model is built from or None, and the expected shape. A count
# must fit int64 and the smoothing a float.
_MODEL_FIELDS = {
    "vocab": (lambda v, n: v if type(v) is list and set(map(type, v)) <= {str} else None,
              "a list of strings"),
    "smoothing": (lambda v, n: v if type(v) in (int, float) and 0 < v <= sys.float_info.max
                  else None, "a finite number > 0"),
    "counts": (lambda v, n: _count_table(v, (n, n)),
               "an N x N table of counts in 0..2**63-1, N the vocabulary size"),
    "bos_counts": (lambda v, n: _count_table(v, (n,)),
                   "a list of N counts in 0..2**63-1, N the vocabulary size"),
}


def _check_model(doc) -> dict:
    """The model file's fields, parsed; the count tables as int64 arrays."""
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    if doc.get("format") != LM_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    for name in _MODEL_FIELDS:
        if name not in doc:
            raise ValueError(f"model lacks required field {name!r}")
    n = len(doc["vocab"]) if type(doc["vocab"]) is list else 0
    fields = {}
    for name, (parse, what) in _MODEL_FIELDS.items():
        fields[name] = parse(doc[name], n)
        if fields[name] is None:
            raise ValueError(f"model field {name!r} must be {what}")
    return fields


def load_lm(path) -> MarkovLM:
    """Read a model file; a ValueError names the first missing or malformed
    field."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fields = _check_model(doc)
    vocab = Vocabulary(tuple(fields["vocab"]))
    return MarkovLM(vocab, fields["counts"], fields["bos_counts"], fields["smoothing"])


def _numbered_vocab(n_tokens: int) -> Vocabulary:
    _check_model_size(n_tokens)  # before a builtin model allocates its counts
    width = len(str(n_tokens - 1))
    return Vocabulary(tuple(f"t{i:0{width}d}" for i in range(n_tokens)))


def uniform_lm(n_tokens: int, smoothing: float = 1.0) -> MarkovLM:
    """LM whose every row is exactly uniform (zero counts, smoothing only)."""
    vocab = _numbered_vocab(n_tokens)
    return MarkovLM(vocab, np.zeros((n_tokens, n_tokens), dtype=np.int64), None, smoothing)


def skewed_lm(n_tokens: int, smoothing: float = 1.0) -> MarkovLM:
    """LM whose rows are distinct non-uniform ramps (row i is the descending
    ramp N-1..0 rotated by i), giving bigram structure with high entropy."""
    vocab = _numbered_vocab(n_tokens)
    ramp = np.arange(n_tokens - 1, -1, -1, dtype=np.int64)
    counts = np.stack([np.roll(ramp, i) for i in range(n_tokens)])
    return MarkovLM(vocab, counts, ramp.copy(), smoothing)


def peaked_lm(n_tokens: int, top_prob: float, smoothing: float = 1.0) -> MarkovLM:
    """LM where each token's favorite successor (id+1 mod N) has ~top_prob mass.

    Used to realize low-entropy / near-deterministic regimes. The dominant
    count is solved from ``(c + s) / (c + N s) = top_prob``.
    """
    if not 1.0 / n_tokens < top_prob < 1.0:
        raise ValueError("top_prob must be in (1/N, 1)")
    s = smoothing
    c = s * (n_tokens * top_prob - 1.0) / (1.0 - top_prob)
    c = int(round(c))
    vocab = _numbered_vocab(n_tokens)
    counts = np.zeros((n_tokens, n_tokens), dtype=np.int64)
    for i in range(n_tokens):
        counts[i, (i + 1) % n_tokens] = c
    bos = np.zeros(n_tokens, dtype=np.int64)
    bos[0] = c
    return MarkovLM(vocab, counts, bos, smoothing)
