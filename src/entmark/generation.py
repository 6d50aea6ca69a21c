"""Entropy-gated watermark generation.

Tokens are sampled unwatermarked (multinomial) until the running watermark
entropy -- the sum of 1 - p(chosen token) -- reaches the threshold. The
prefix emitted so far then becomes the seed block, the key sequence for the
remaining budget is derived from it, and every later token comes from the
key-driven sampler. A threshold of 0 starts watermarking at the first token
with the prompt as seed; a threshold of inf never starts it. ``_gate`` is the
one place the threshold is applied: ``generate`` samples through it and
``replay_boundary`` runs it over a given text to find where its gate closed.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import keys as keymod
from .coding import CODING_MODES, TokenCode, codes_for_lm
from .keys import PRF_ID, SeedBlock
from .lm import MarkovLM
from .sampling import SAMPLER_KINDS, row_source, sample_bs, sample_its, sample_multinomial


def watermark_entropy(probs: np.ndarray, token: int) -> float:
    """Per-token watermark entropy accumulated toward the gating threshold:
    1 - p(token), in [0, 1]."""
    p = np.asarray(probs, dtype=np.float64)
    if not 0 <= token < p.size:
        raise ValueError("token id out of range")
    return float(1.0 - p[token])


# Bound on n * N * 8, the bytes of an its key's token order (and more than a
# bs key's n * L uniforms take). Deriving an its key peaks at ~2x its order,
# the key stream's slots and the order itself (34 MB for the 16 MB of
# n = 8000, N = 256, by tracemalloc), so a key at this limit needs ~256 MiB
# of working memory while it is derived. The key then holds 1x, its order,
# and 2x once detection builds the rank table.
MAX_KEY_BYTES = 2**27


def _is_ids(value) -> bool:
    return type(value) is list and all(type(t) is int for t in value)


def _is_number(value) -> bool:
    return type(value) in (int, float)


# The fields a record is read back with: check and expected shape; the first
# six are required. Ids must also fit the 4-byte words a seed block hashes.
_RECORD_FIELDS = {
    "tokens": (_is_ids, "a list of integer token ids"),
    "boundary": (lambda v: v is None or type(v) is int and v >= 0, "null or an integer >= 0"),
    "sampler": (lambda v: v in SAMPLER_KINDS, f"one of {SAMPLER_KINDS}"),
    "lambda": (lambda v: v == "inf" or _is_number(v) and v >= 0, 'a number >= 0 or "inf"'),
    "salt": (lambda v: type(v) is str and re.fullmatch("([0-9a-fA-F]{2})*", v), "a hex string"),
    "m": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "prompt": (_is_ids, "a list of integer token ids"),
    "coding": (lambda v: v in CODING_MODES, f"one of {CODING_MODES}"),
    "seed_tokens": (_is_ids, "a list of integer token ids"),
    "prf_id": (lambda v: v == PRF_ID, f"{PRF_ID!r}, the only key derivation"),
    "top_p": (lambda v: v is None or _is_number(v) and 0 < v <= 1, "null or a number in (0, 1]"),
    "temperature": (lambda v: v is None or _is_number(v) and v > 0, "null or a number > 0"),
}
_REQUIRED_FIELDS = tuple(_RECORD_FIELDS)[:6]


def _check_record(rec) -> None:
    if not isinstance(rec, dict):
        raise ValueError("record must be a JSON object")
    for name, (valid, what) in _RECORD_FIELDS.items():
        if name not in rec:
            if name in _REQUIRED_FIELDS:
                raise ValueError(f"record lacks required field {name!r}")
        elif not valid(rec[name]):
            raise ValueError(f"record field {name!r} must be {what}")
    for name in ("tokens", "prompt", "seed_tokens"):
        bad = [t for t in rec.get(name, ()) if not 0 <= t < 2**32]
        if bad:
            raise ValueError(f"record field {name!r}: token id {bad[0]} out of range")


@dataclass
class GenerationResult:
    """One generated sequence plus everything needed to re-derive its keys."""

    tokens: list
    boundary: int | None
    sampler: str
    salt: bytes
    lam: float
    m: int
    prompt: list = field(default_factory=list)
    prf_id: str = PRF_ID
    rng_seed: int | None = None
    coding: str = "fixed"
    top_p: float | None = None
    temperature: float | None = None
    seed_tokens: list | None = None  # set once an attack has rewritten tokens

    def seed_block(self) -> SeedBlock | None:
        """Seed block the key sequence was (or would be) derived from."""
        if self.boundary is None:
            return None
        if self.seed_tokens is not None:  # the original seed, kept by attacks
            return SeedBlock(self.seed_tokens, self.salt)
        return SeedBlock(self.tokens[: self.boundary] if self.boundary else self.prompt, self.salt)

    def to_record(self) -> dict:
        rec = {
            "tokens": [int(t) for t in self.tokens],
            "boundary": self.boundary,
            "sampler": self.sampler,
            "lambda": self.lam if np.isfinite(self.lam) else "inf",
            "salt": self.salt.hex(),
            "m": self.m,
            "prf_id": self.prf_id,
            "rng_seed": self.rng_seed,
            "prompt": [int(t) for t in self.prompt],
            "coding": self.coding,
        }
        if self.top_p is not None:
            rec["top_p"] = self.top_p
        if self.temperature is not None:
            rec["temperature"] = self.temperature
        if self.seed_tokens is not None:
            rec["seed_tokens"] = [int(t) for t in self.seed_tokens]
        return rec

    @classmethod
    def from_record(cls, rec) -> "GenerationResult":
        """Parse one record; a ValueError names the first missing or
        malformed field."""
        _check_record(rec)
        return cls(
            tokens=list(rec["tokens"]),
            boundary=rec["boundary"],
            sampler=rec["sampler"],
            salt=bytes.fromhex(rec["salt"]),
            lam=float(rec["lambda"]),
            m=rec["m"],
            prompt=list(rec.get("prompt", [])),
            prf_id=rec.get("prf_id", PRF_ID),
            rng_seed=rec.get("rng_seed"),
            coding=rec.get("coding", "fixed"),
            top_p=rec.get("top_p"),
            temperature=rec.get("temperature"),
            seed_tokens=rec.get("seed_tokens"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_record())


def _gate(rows, context, lam: float, limit: int, pick):
    """The entropy gate: extend ``context`` by up to ``limit`` tokens, each
    ``pick(row)`` of the row ``rows(context)`` gives, until their running
    watermark entropy reaches ``lam``. Returns the tokens and the boundary,
    their count if the gate closed, else None."""
    if not lam >= 0:  # NaN fails too
        raise ValueError("entropy threshold must be >= 0")
    tokens = []
    acc = 0.0
    while acc < lam:
        if len(tokens) == limit:
            return tokens, None
        row = rows(context)
        tok = pick(row)
        acc += watermark_entropy(row.p, tok)
        tokens.append(tok)
        context.append(tok)
    return tokens, len(tokens)


def generate(lm: MarkovLM, prompt, lam: float, m: int, sampler: str, salt: bytes,
             rng: np.random.Generator, code: TokenCode | None = None,
             top_p: float | None = None, temperature: float | None = None,
             rng_seed: int | None = None) -> GenerationResult:
    """Generate ``m`` tokens in two phases: multinomial draws through the
    entropy gate, then, if it closed before ``m``, the rest from the key
    sequence its seed block derives (the multinomial sampler keeps drawing
    multinomially and derives none).

    Each model row is transformed (temperature, then top-p) and checked
    once per model and setting by ``row_source``, and its sampler tables
    (the CDF, and the bit walks' step table for the last code walked) are
    reused by every later token drawn from it, in this call and later ones.
    Passing the same ``code`` to every call keeps the step tables; a bs call
    without one builds a fresh code and refills them. The key's uniforms are
    turned into Python floats once per call, so the keyed loop hands the
    samplers plain floats.
    """
    if sampler not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler kind {sampler!r}")
    if m < 1:
        raise ValueError("generation budget m must be >= 1")
    prompt = [int(t) for t in prompt]
    lm.vocab.check_ids(prompt)
    if sampler == "bs" and code is None:
        code = codes_for_lm(lm)
    if code is not None and code.n_tokens != lm.size:
        raise ValueError("token code does not match vocabulary size")

    context = list(prompt)  # prompt + tokens, grown in step with tokens
    rows = row_source(lm, temperature, top_p)
    tokens, boundary = _gate(rows, context, lam, m, lambda row: sample_multinomial(row, rng))
    keyseq = None
    if sampler != "multinomial" and len(tokens) < m:  # the gate closed before m
        partial = GenerationResult(tokens, boundary, sampler, salt, lam, m, prompt)
        keyseq = key_sequence_for(partial, lm.size, code)
        u = keyseq.u.tolist()  # the samplers compare plain floats fastest
    for j in range(m - len(tokens)):
        row = rows(context)
        if keyseq is None:
            tok = sample_multinomial(row, rng)
        elif sampler == "its":
            tok = sample_its(row, u[j], keyseq.order[j])
        else:
            tok = sample_bs(row, code, u[j])
        tokens.append(tok)
        context.append(tok)
    return GenerationResult(
        tokens=tokens, boundary=boundary, sampler=sampler, salt=salt, lam=lam, m=m,
        prompt=prompt, rng_seed=rng_seed, coding=(code.mode if code else "fixed"),
        top_p=top_p, temperature=temperature,
    )


def replay_boundary(lm: MarkovLM, tokens, lam: float, prompt=(), top_p: float | None = None,
                    temperature: float | None = None) -> int | None:
    """Where the entropy gate closed along ``tokens`` under ``lm``: the gate
    ``generate`` runs, over the given tokens and the same rows."""
    given = iter(tokens)
    return _gate(row_source(lm, temperature, top_p), list(prompt), lam, len(tokens),
                 lambda row: int(next(given)))[1]


def generate_baseline(lm: MarkovLM, prompt, m: int, rng: np.random.Generator,
                      top_p: float | None = None, temperature: float | None = None) -> list:
    """Unwatermarked control arm: a pure multinomial rollout."""
    return generate(lm, prompt, float("inf"), m, "multinomial", b"", rng,
                    top_p=top_p, temperature=temperature).tokens


def key_sequence_for(result: GenerationResult, n_vocab: int, code: TokenCode | None = None,
                     kind: str | None = None):
    """The key sequence a generation consumes after its boundary, from its
    seed block; generation and key-mode detection derive keys here.

    ``kind`` defaults to the generating sampler; a multinomial record has no
    keys unless a kind is forced.
    """
    seed = result.seed_block()
    if seed is None:
        raise ValueError("generation never crossed the entropy threshold; no keys exist")
    kind = kind or result.sampler
    if kind == "multinomial":
        raise ValueError("multinomial generations carry no watermark keys")
    n = result.m - result.boundary
    if n < 1:
        raise ValueError("no watermarked positions to derive keys for")
    return bounded_key_sequence(seed, kind, n, n_vocab, code, f"record field 'm' = {result.m}")


def bounded_key_sequence(seed: SeedBlock, kind: str, n: int, n_vocab: int,
                         code: TokenCode | None, source: str):
    """The n-position key sequence of ``seed``, refused past MAX_KEY_BYTES
    before anything is derived; every key derivation goes through here.
    ``source`` names what asked for the n positions in the error."""
    if n * n_vocab * 8 > MAX_KEY_BYTES:
        raise ValueError(f"{source} needs {n} key positions over {n_vocab} tokens, "
                         f"past the {MAX_KEY_BYTES >> 20} MiB key limit")
    return keymod.derive_key_sequence(keymod.derive_prf_key(seed), kind, n, n_vocab,
                                      keymod.key_bits(n_vocab, code))
