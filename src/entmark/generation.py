"""Entropy-gated watermark generation.

Tokens are sampled unwatermarked (multinomial) until the running watermark
entropy -- the sum of 1 - p(chosen token) -- reaches the threshold. The
prefix emitted so far then becomes the seed block, the key sequence for the
remaining budget is derived from it, and every later token comes from the
key-driven sampler. A threshold of 0 starts watermarking at the first token
with the prompt as seed; a threshold of inf never starts it.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import keys as keymod
from .coding import TokenCode, codes_for_lm
from .keys import PRF_ID, SeedBlock
from .lm import MarkovLM, apply_temperature, apply_top_p
from .sampling import check_sampler_kind, sample_bs, sample_its, sample_multinomial

ENTROPY_KINDS = ("selection", "shannon")


def watermark_entropy(probs: np.ndarray, token: int, kind: str = "selection") -> float:
    """Per-token watermark entropy accumulated toward the gating threshold.

    The reference measure is 1 - p(token), in [0, 1]. The Shannon variant
    -log2 p(token) is available as a configuration hook.
    """
    p = np.asarray(probs, dtype=np.float64)
    if not 0 <= token < p.size:
        raise ValueError("token id out of range")
    if kind == "selection":
        return float(1.0 - p[token])
    if kind == "shannon":
        return float(-np.log2(max(p[token], 1e-300)))
    raise ValueError(f"unknown entropy kind {kind!r}")


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
    entropy_kind: str = "selection"
    top_p: float | None = None
    temperature: float | None = None

    def seed_block(self) -> SeedBlock | None:
        """Seed block the key sequence was (or would be) derived from."""
        if self.boundary is None:
            return None
        if self.boundary == 0:
            return SeedBlock(tuple(self.prompt), self.salt)
        return SeedBlock(tuple(self.tokens[: self.boundary]), self.salt)

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
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "GenerationResult":
        lam = rec["lambda"]
        return cls(
            tokens=list(rec["tokens"]),
            boundary=rec["boundary"],
            sampler=rec["sampler"],
            salt=bytes.fromhex(rec["salt"]),
            lam=float("inf") if lam == "inf" else float(lam),
            m=rec["m"],
            prompt=list(rec.get("prompt", [])),
            prf_id=rec.get("prf_id", PRF_ID),
            rng_seed=rec.get("rng_seed"),
            coding=rec.get("coding", "fixed"),
            top_p=rec.get("top_p"),
            temperature=rec.get("temperature"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_record())


def _transform(probs, top_p, temperature):
    if temperature is not None:
        probs = apply_temperature(probs, temperature)
    if top_p is not None:
        probs = apply_top_p(probs, top_p)
    return probs


def generate(lm: MarkovLM, prompt, lam: float, m: int, sampler: str, salt: bytes,
             rng: np.random.Generator, code: TokenCode | None = None,
             top_p: float | None = None, temperature: float | None = None,
             entropy_kind: str = "selection", rng_seed: int | None = None) -> GenerationResult:
    """Run the gated generation loop for a budget of ``m`` tokens."""
    check_sampler_kind(sampler)
    if m < 1:
        raise ValueError("generation budget m must be >= 1")
    if lam < 0:
        raise ValueError("entropy threshold must be >= 0")
    prompt = [int(t) for t in prompt]
    lm.vocab.check_ids(prompt)
    if sampler == "bs" and code is None:
        code = codes_for_lm(lm)
    if code is not None and code.n_tokens != lm.size:
        raise ValueError("token code does not match vocabulary size")

    tokens: list = []
    acc = 0.0
    boundary: int | None = None
    keyseq = None
    consumed = 0
    for _ in range(m):
        probs = _transform(lm.context_distribution(prompt + tokens), top_p, temperature)
        if boundary is None and acc >= lam:
            boundary = len(tokens)
            keyseq = _derive_for(sampler, tokens, prompt, salt, m - boundary, lm.size, code)
        if boundary is None:
            tok = sample_multinomial(probs, rng)
            acc += watermark_entropy(probs, tok, entropy_kind)
        elif sampler == "its":
            tok = sample_its(probs, keyseq.element(consumed))
            consumed += 1
        elif sampler == "bs":
            tok = sample_bs(probs, code, keyseq.element(consumed))
            consumed += 1
        else:
            tok = sample_multinomial(probs, rng)
        tokens.append(tok)
    if boundary is None and acc >= lam:
        boundary = len(tokens)  # crossed on the last token; empty suffix
    return GenerationResult(
        tokens=tokens, boundary=boundary, sampler=sampler, salt=salt, lam=lam, m=m,
        prompt=prompt, rng_seed=rng_seed, coding=(code.mode if code else "fixed"),
        entropy_kind=entropy_kind, top_p=top_p, temperature=temperature,
    )


def _derive_for(sampler, tokens, prompt, salt, n, n_vocab, code):
    if sampler not in ("its", "bs"):
        return None
    seed = SeedBlock(tuple(tokens) if tokens else tuple(prompt), salt)
    return keymod.derive_key_sequence(seed, sampler, n, n_vocab, keymod.key_bits(n_vocab, code))


def generate_baseline(lm: MarkovLM, prompt, m: int, rng: np.random.Generator,
                      top_p: float | None = None, temperature: float | None = None) -> list:
    """Unwatermarked control arm: a pure multinomial rollout."""
    if m < 1:
        raise ValueError("generation budget m must be >= 1")
    prompt = [int(t) for t in prompt]
    lm.vocab.check_ids(prompt)
    tokens: list = []
    for _ in range(m):
        probs = _transform(lm.context_distribution(prompt + tokens), top_p, temperature)
        tokens.append(sample_multinomial(probs, rng))
    return tokens


def key_sequence_for(result: GenerationResult, n_vocab: int, code: TokenCode | None = None,
                     kind: str | None = None, n: int | None = None):
    """Re-derive the key sequence a generation consumed (detector side).

    ``kind`` defaults to the generating sampler; a multinomial record has no
    keys unless a kind is forced. ``n`` defaults to the consumable suffix
    length m - boundary.
    """
    seed = result.seed_block()
    if seed is None:
        raise ValueError("generation never crossed the entropy threshold; no keys exist")
    kind = kind or result.sampler
    if kind == "multinomial":
        raise ValueError("multinomial generations carry no watermark keys")
    if n is None:
        n = result.m - result.boundary
    if n < 1:
        raise ValueError("no watermarked positions to derive keys for")
    return keymod.derive_key_sequence(seed, kind, n, n_vocab, keymod.key_bits(n_vocab, code))
