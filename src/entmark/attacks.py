"""Token-level corruption models for robustness measurements.

Substitution, insertion, deletion, and cropping cover the edit patterns the
detector's block alignment is designed to survive. Heavier rewriting attacks
that require an external model are represented only by a named proxy preset
(substitute 0.25 then insert 0.1); it is a stand-in, not a paraphraser.
"""

from dataclasses import dataclass

import numpy as np

ATTACK_KINDS = ("substitute", "insert", "delete", "crop")

PRESETS = {
    "paraphrase-proxy": (("substitute", 0.25), ("insert", 0.10)),
}


@dataclass(frozen=True)
class AttackSpec:
    """One corruption step: an edit kind with a per-token rate or crop range.

    Crop bounds are 1-based inclusive positions.
    """

    kind: str
    rate: float = 0.0
    crop_lo: int | None = None
    crop_hi: int | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind == "crop":
            if self.crop_lo is None or self.crop_hi is None:
                raise ValueError("crop needs lo and hi bounds")
        elif not 0.0 <= self.rate <= 1.0:
            raise ValueError("attack rate must be in [0, 1]")

    def __str__(self) -> str:
        """The notation parse_attack_spec reads back to this spec."""
        if self.kind == "crop":
            return f"crop:{self.crop_lo}:{self.crop_hi}"
        return f"{self.kind}:{self.rate!r}"


def parse_attack_spec(text: str) -> list:
    """Parse CLI notation: 'substitute:0.1', 'crop:2:5', or a preset name."""
    if text in PRESETS:
        return [AttackSpec(kind, rate) for kind, rate in PRESETS[text]]
    parts = text.split(":")
    kind = parts[0]
    if kind == "crop":
        if len(parts) != 3:
            raise ValueError("crop spec is crop:<lo>:<hi> (1-based inclusive)")
        return [AttackSpec("crop", crop_lo=int(parts[1]), crop_hi=int(parts[2]))]
    if len(parts) != 2:
        raise ValueError(f"attack spec {text!r} is <kind>:<rate>")
    return [AttackSpec(kind, float(parts[1]))]


def attack(tokens, spec: AttackSpec, n_vocab: int, rng: np.random.Generator) -> list:
    """Apply one corruption step; the input list is not modified."""
    y = [int(t) for t in tokens]
    if spec.kind == "substitute":
        out = []
        for t in y:
            if rng.random() < spec.rate:
                r = int(rng.integers(n_vocab - 1))
                out.append(r + (1 if r >= t else 0))  # uniform over the others
            else:
                out.append(t)
        return out
    if spec.kind == "insert":
        out = []
        for t in y:
            out.append(t)
            if rng.random() < spec.rate:
                out.append(int(rng.integers(n_vocab)))
        return out
    if spec.kind == "delete":
        return [t for t in y if rng.random() >= spec.rate]
    lo, hi = spec.crop_lo, spec.crop_hi
    if not (1 <= lo <= hi <= len(y)):
        raise ValueError(f"empty or out-of-range crop [{lo}, {hi}] for length {len(y)}")
    return y[lo - 1 : hi]


def apply_attacks(tokens, specs, n_vocab: int, rng: np.random.Generator) -> list:
    out = list(tokens)
    for spec in specs:
        out = attack(out, spec, n_vocab, rng)
    return out
