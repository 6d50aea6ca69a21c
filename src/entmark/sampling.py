"""Sampling functions that combine a token distribution with key uniforms.

All three samplers reproduce the input distribution exactly when their key
material is uniform: inverse-transform sampling walks the CDF in the key's
random rank order, binary sampling resolves one code bit per key uniform, and
multinomial sampling is the keyless control. The bit rule is

    bit_j = 1  iff  u_j >= 1 - P(bit_j = 1 | sampled prefix)

so that a large uniform pushes the walk toward the high end of the code-order
CDF, matching the geometry of the inverse-transform rule (large u, late rank).

Each sampler takes a ``Row``, a distribution checked once when it is built
that holds the tables the samplers derive from it, so a caller drawing many
tokens from the same few rows pays for each row once, and the key's plain
arrays: a uniform and a token order, or a row of bit uniforms per draw.
``row_source`` is the one place a model's rows are transformed (temperature,
then top-p) into rows.
"""

import numpy as np

from .coding import TokenCode, prefix_mass
from .lm import apply_temperature, apply_top_p, validate_distribution

SAMPLER_KINDS = ("its", "bs", "multinomial")


class Row:
    """A checked token distribution and the tables sampling builds from it.

    ``p`` is the distribution, validated once here. The CDF for
    ``sample_multinomial`` and, per token code, the node masses for the bit
    walks are filled on first use and reused by every later draw. A row does
    not copy ``probs``, so the caller must not change it while the row lives.
    Filling a table is idempotent, so threads sharing a row compute the same
    values and need no lock.
    """

    __slots__ = ("p", "_cdf", "_masses")

    def __init__(self, probs):
        self.p = validate_distribution(probs)
        self._cdf = None
        self._masses = {}  # id(code) -> (code, node masses); the code pins its id

    def cdf(self) -> np.ndarray:
        if self._cdf is None:
            self._cdf = np.cumsum(self.p)
        return self._cdf

    def masses(self, code: TokenCode) -> list:
        """Mass of each node of ``code`` under this row, by node id; a slot is
        None until a walk fills it with ``prefix_mass``."""
        entry = self._masses.get(id(code))
        if entry is None:
            if self.p.size != code.n_tokens:
                raise ValueError("distribution size does not match code")
            entry = self._masses[id(code)] = (code, [None] * len(code.branches))
        return entry[1]


def row_source(lm, temperature: float | None = None, top_p: float | None = None):
    """``row_of(context)``: the ``Row`` of ``lm``'s next-token distribution
    after ``context``, temperature then top-p applied, built once per distinct
    model row and returned for it from then on; the model must not change a
    row it has returned while ``row_of`` is in use."""
    rows = {}  # id(model row) -> (model row, Row); the pinned row keeps its id unique

    def row_of(context) -> Row:
        probs = lm.context_distribution(context)
        entry = rows.get(id(probs))
        if entry is None:
            p = probs if temperature is None else apply_temperature(probs, temperature)
            if top_p is not None:
                p = apply_top_p(p, top_p)
            entry = rows[id(probs)] = (probs, Row(p))
        return entry[1]

    return row_of


_TINY = np.nextafter(0.0, 1.0)  # reached first by the first position with mass


def _reach(cum: np.ndarray, u) -> int:
    """First position whose cumulative mass ``cum`` reaches ``u``. A draw of
    0 or past the total mass (which may fall short of 1 by rounding) takes
    the nearest position with mass instead, so a zero-mass position, whose
    cumulative mass equals its predecessor's, is never chosen."""
    if not 0.0 < u <= cum[-1]:
        u = cum[-1] if u > 0.0 else _TINY
    return int(cum.searchsorted(u, side="left"))


def sample_its(row: Row, u: float, order: np.ndarray) -> int:
    """First token, in the key's rank order ``order`` (the token at each
    rank), whose cumulative mass reaches the key uniform ``u``."""
    p = row.p
    if order.shape != p.shape:
        raise ValueError("permutation size does not match distribution")
    return int(order[_reach(p[order].cumsum(), u)])


# Below this, a 0-branch mass computed as ``node - one`` is checked against
# the branch's own mass: over masses that sum to ~1 rounding leaves ~1e-16 a
# level, so an empty branch always falls below it, and a light real branch
# only costs the lookup.
_ROUNDING = 1e-9


def _mass(row: Row, code: TokenCode, mass: list, v: int) -> float:
    """Entry ``v`` of ``row``'s node-mass table ``mass`` for ``code``,
    filled with ``prefix_mass`` on first use."""
    m = mass[v]
    if m is None:
        m = mass[v] = prefix_mass(row.p, code, v)
    return m


def sample_bs(row: Row, code: TokenCode, u: np.ndarray) -> int:
    """Walk the code tree from the root, one bit per key uniform in ``u``,
    until a leaf.

    Zero-probability branches are never taken, so unused bit patterns are
    unreachable: an empty 1-branch has q = 0, which no uniform in [0, 1)
    reaches, and an empty 0-branch has q = 1 in exact arithmetic. In floating
    point ``node - one`` can leave q just below 1 over it, so where that
    difference is within rounding of 0 the walk looks up the branch's own
    mass and never enters it if that is 0.0.
    """
    mass = row.masses(code)
    u = np.asarray(u, dtype=np.float64)
    branches = code.branches
    v = 0
    node = mass[0]
    if node is None:
        node = mass[0] = prefix_mass(row.p, code, 0)
    for j in range(code.max_bits):
        leaf, zero, one_id = branches[v]
        if leaf >= 0:
            break
        if j >= u.size:
            raise ValueError("key has too few uniforms for this code")
        one = mass[one_id]
        if one is None:
            one = mass[one_id] = prefix_mass(row.p, code, one_id)
        if u[j] >= 1.0 - one / node:
            v, node = one_id, one
        elif node - one >= _ROUNDING or _mass(row, code, mass, zero) > 0.0:
            v, node = zero, node - one
        else:  # an empty 0-branch that rounding left just above 0
            v, node = one_id, one
    return branches[v][0]


def sample_bs_many(row: Row, code: TokenCode, u: np.ndarray) -> np.ndarray:
    """Vectorized sample_bs for many key elements.

    ``u`` has shape (count, max_bits). Every row walks the code tree one
    level per column with sample_bs's arithmetic and node masses (rows at a
    leaf stay there) and the same refusal of an empty 0-branch, so the two
    agree element for element.
    """
    masses = row.masses(code)
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    if u.shape[1] < code.max_bits:
        raise ValueError("key elements have too few uniforms for this code")
    mass = np.array([_mass(row, code, masses, v) for v in range(len(masses))])
    v = np.zeros(u.shape[0], dtype=np.int64)
    node = np.full(u.shape[0], mass[0])
    for j in range(code.max_bits):
        one = mass[code.child[v, 1]]
        bit = (u[:, j] >= 1.0 - one / node) | (mass[code.child[v, 0]] == 0.0)
        v = code.child[v, bit.astype(np.int64)]
        node = np.where(bit, one, node - one)
    return code.leaf[v]


def sample_multinomial(row: Row, rng: np.random.Generator) -> int:
    """Standard inverse-CDF draw with a fresh uniform from ``rng``."""
    return _reach(row.cdf(), rng.random())
