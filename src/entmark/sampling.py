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
    order = elem.order
    if order.shape != p.shape:
        raise ValueError("permutation size does not match distribution")
    cum = p[order].cumsum()
    idx = int(cum.searchsorted(elem.u, side="left"))
    return int(order[min(idx, p.size - 1)])


def sample_bs(probs: np.ndarray, code: TokenCode, elem: BsKeyElement) -> int:
    """Walk the code tree from the root, one bit per uniform, until a leaf.

    Zero-probability branches are never taken: their conditional is 0 or 1,
    which forces the bit regardless of the uniform, so unused bit patterns
    are unreachable.
    """
    p = validate_distribution(probs)
    if p.size != code.n_tokens:
        raise ValueError("distribution size does not match code")
    u = np.asarray(elem.u, dtype=np.float64)
    v = 0
    node = prefix_mass(p, code, v)
    for j in range(code.max_bits):
        if code.leaf[v] >= 0:
            break
        if j >= u.size:
            raise ValueError("key element has too few uniforms for this code")
        one = prefix_mass(p, code, code.child[v, 1])
        q = one / node
        if u[j] >= 1.0 - q:
            v, node = code.child[v, 1], one
        else:
            v, node = code.child[v, 0], node - one
    return int(code.leaf[v])


def sample_bs_many(probs: np.ndarray, code: TokenCode, u: np.ndarray) -> np.ndarray:
    """Vectorized sample_bs for many key elements.

    ``u`` has shape (count, max_bits). Every row walks the code tree one
    level per column with sample_bs's arithmetic (rows at a leaf stay
    there), so the two agree element for element.
    """
    p = validate_distribution(probs)
    if p.size != code.n_tokens:
        raise ValueError("distribution size does not match code")
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    if u.shape[1] < code.max_bits:
        raise ValueError("key elements have too few uniforms for this code")
    mass = np.array([prefix_mass(p, code, v) for v in range(len(code.members))])
    v = np.zeros(u.shape[0], dtype=np.int64)
    node = np.full(u.shape[0], mass[0])
    for j in range(code.max_bits):
        one = mass[code.child[v, 1]]
        bit = u[:, j] >= 1.0 - one / node
        v = code.child[v, bit.astype(np.int64)]
        node = np.where(bit, one, node - one)
    return code.leaf[v]


def sample_multinomial(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Standard inverse-CDF draw with a fresh uniform from ``rng``."""
    p = validate_distribution(probs)
    cum = np.cumsum(p)
    idx = int(np.searchsorted(cum, rng.random(), side="left"))
    return min(idx, p.size - 1)
