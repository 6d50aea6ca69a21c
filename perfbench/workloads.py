"""The benchmark's four workloads: set-up, seeded inputs, one operation, digest.

Every workload draws its inputs from a fixed pool of entries. Entry ``j`` is
built from the NumPy seed sequence ``[tag, j, 0]`` and its operation gets a
fresh generator seeded ``[tag, j, 1]``, so an entry always yields the same
output; ``reference.json`` holds that output's digest for every entry. The
run seed only chooses the order in which the pool is visited, which is what
lets a run with any seed check every operation against a recorded reference.

One operation is one user-level call into the public API, made through the
module attribute (``detection.detect_pvalue``, not a name bound at import) so
that the tracer's wrappers see it.
"""

import hashlib
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from entmark import coding, detection, generation, keys, lm as lmmod

LAMBDA = 2.0  # entropy gate of every generated text
M = 400  # token budget of every generated text
T = 99  # permutation-test resamples
N_SHORT = 8  # vocabulary of detect-short
LEN_SHORT = 60  # text length of detect-short (criterion 06)
WIDE_VOCAB = 256
WIDE_MODEL = "skewed-256.json"


def entry_rng(name: str, j: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(name.encode()), j, stream])


def _digest(*chunks: bytes) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]


def detect_digest(report) -> str:
    """Exact bytes of the fields a detection answer is judged by."""
    return _digest(struct.pack("<ddqq", report.p_value, report.phi0,
                               report.best_i, report.best_j))


def generate_digest(result) -> str:
    boundary = -1 if result.boundary is None else result.boundary
    return _digest(np.asarray(result.tokens, dtype="<i8").tobytes(),
                   struct.pack("<q", boundary))


@dataclass
class Context:
    """What set-up builds once per process: model, code and detector config."""

    lm: object = None
    code: object = None
    config: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int
    setup: Callable[[Path], Context]
    make_input: Callable[[Context, np.random.Generator], object]
    op: Callable[[Context, object, np.random.Generator], object]
    digest: Callable[[object], str]
    prepare: Callable[[Path], None] = lambda workdir: None


# detect-long: key-mode detection of watermarked m=400 records, its cost.

def _setup_detect_long(workdir):
    return Context(lm=lmmod.peaked_lm(8, 0.4),
                   config=detection.DetectionConfig(cost="its", T=T))


def _input_detect_long(ctx, rng):
    return generation.generate(ctx.lm, [], LAMBDA, M, "its", rng.bytes(16), rng)


def _op_detect_long(ctx, record, rng):
    # what `entmark detect --mode key` does per record
    keyseq = generation.key_sequence_for(record, ctx.lm.size, kind="its")
    return detection.detect_pvalue(record.tokens, keyseq, ctx.config, rng, ctx.lm.size,
                                   boundary=record.boundary)


# detect-short: the criterion-06 shape, key-independent text, bs cost.

def _setup_detect_short(workdir):
    return Context(code=coding.build_codes(N_SHORT),
                   config=detection.DetectionConfig(cost="bs", T=T, h_mode="soft"))


def _input_detect_short(ctx, rng):
    tokens = rng.integers(N_SHORT, size=LEN_SHORT)
    keyseq = keys.resample_key_sequence(rng, "bs", LEN_SHORT, N_SHORT, ctx.code.max_bits)
    return tokens, keyseq


def _op_detect_short(ctx, item, rng):
    tokens, keyseq = item
    return detection.detect_pvalue(tokens, keyseq, ctx.config, rng, N_SHORT, ctx.code)


# generate-wide / generate-narrow: gated generation, fresh salt and RNG per op.

def _prepare_wide(workdir):
    lmmod.save_lm(lmmod.skewed_lm(WIDE_VOCAB), workdir / WIDE_MODEL)


def _setup_wide(workdir):
    return Context(lm=lmmod.load_lm(workdir / WIDE_MODEL))


def _setup_narrow(workdir):
    lm = lmmod.peaked_lm(8, 0.4)
    return Context(lm=lm, code=coding.codes_for_lm(lm, "fixed"))


def _input_salt(ctx, rng):
    return rng.bytes(16)


def _op_generate_its(ctx, salt, rng):
    return generation.generate(ctx.lm, [], LAMBDA, M, "its", salt, rng)


def _op_generate_bs(ctx, salt, rng):
    return generation.generate(ctx.lm, [], LAMBDA, M, "bs", salt, rng, code=ctx.code)


# Pool sizes exceed the operations one 30 s run completes today, so runs with
# different seeds visit different subsets; a faster program cycles the pool.
WORKLOADS = {w.name: w for w in (
    Workload("detect-long", 32, _setup_detect_long, _input_detect_long,
             _op_detect_long, detect_digest),
    Workload("detect-short", 400, _setup_detect_short, _input_detect_short,
             _op_detect_short, detect_digest),
    Workload("generate-wide", 480, _setup_wide, _input_salt,
             _op_generate_its, generate_digest, prepare=_prepare_wide),
    Workload("generate-narrow", 3200, _setup_narrow, _input_salt,
             _op_generate_bs, generate_digest),
)}
