"""Sampling functions that combine a token distribution with a key element.

All three samplers reproduce the input distribution exactly when their key
material is uniform: inverse-transform sampling walks the CDF in the key's
random rank order, binary sampling resolves one code bit per key uniform, and
multinomial sampling is the keyless control. The bit rule is

    bit_j = 1  iff  u_j >= 1 - P(bit_j = 1 | sampled prefix)

so that a large uniform pushes the walk toward the high end of the code-order
CDF, matching the geometry of the inverse-transform rule (large u, late rank).
"""

import numpy as np

from .coding import TokenCode, prefix_mass
from .keys import BsKeyElement, ItsKeyElement
from .lm import validate_distribution

SAMPLER_KINDS = ("its", "bs", "multinomial")


def sample_its(probs: np.ndarray, elem: ItsKeyElement) -> int:
    """First token, in ascending key-rank order, whose cumulative mass
    reaches the key uniform."""
    p = validate_distribution(probs)
    ranks = np.asarray(elem.ranks)
    if ranks.shape != p.shape:
        raise ValueError("permutation size does not match distribution")
    order = np.argsort(ranks)
    cum = np.cumsum(p[order])
    idx = int(np.searchsorted(cum, elem.u, side="left"))
    return int(order[min(idx, p.size - 1)])


def sample_bs(probs: np.ndarray, code: TokenCode, elem: BsKeyElement) -> int:
    """Resolve code bits most-significant first until a code word is complete.

    Zero-probability branches are never taken: their conditional is 0 or 1,
    which forces the bit regardless of the uniform, so unused bit patterns
    are unreachable.
    """
    p = validate_distribution(probs)
    if p.size != code.n_tokens:
        raise ValueError("distribution size does not match code")
    u = np.asarray(elem.u, dtype=np.float64)
    prefix = ""
    node = prefix_mass(p, code, prefix)
    if node <= 0.0:
        raise ValueError("distribution has no mass")
    for j in range(code.max_bits):
        if code.is_leaf(prefix):
            break
        if j >= u.size:
            raise ValueError("key element has too few uniforms for this code")
        one = prefix_mass(p, code, prefix + "1")
        q = one / node
        if u[j] >= 1.0 - q:
            prefix += "1"
            node = one
        else:
            prefix += "0"
            node = node - one
    return code.decode(prefix)


def sample_bs_many(probs: np.ndarray, code: TokenCode, u: np.ndarray) -> np.ndarray:
    """Vectorized sample_bs for many key elements against one fixed-length code.

    ``u`` has shape (count, L). Walks all rows through the code tree level by
    level using a per-node conditional table; agrees with sample_bs element
    for element.
    """
    if code.mode != "fixed":
        raise ValueError("sample_bs_many supports fixed-length codes only")
    p = validate_distribution(probs)
    if p.size != code.n_tokens:
        raise ValueError("distribution size does not match code")
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    n_bits = code.max_bits
    if u.shape[1] < n_bits:
        raise ValueError("key elements have too few uniforms for this code")
    cum = np.concatenate(([0.0], np.cumsum(p)))
    vals = np.zeros(u.shape[0], dtype=np.int64)
    for j in range(n_bits):
        shift = n_bits - j
        lo = np.minimum(vals << shift, p.size)
        hi = np.minimum((vals + 1) << shift, p.size)
        mid = np.minimum(lo + (1 << (shift - 1)), p.size)
        node = cum[hi] - cum[lo]
        one = cum[hi] - cum[mid]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(node > 0, one / np.where(node > 0, node, 1.0), 0.0)
        bit = u[:, j] >= 1.0 - q
        vals = (vals << 1) | bit.astype(np.int64)
    return vals


def sample_multinomial(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Standard inverse-CDF draw with a fresh uniform from ``rng``."""
    p = validate_distribution(probs)
    cum = np.cumsum(p)
    idx = int(np.searchsorted(cum, rng.random(), side="left"))
    return min(idx, p.size - 1)
