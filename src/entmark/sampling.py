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
arrays: a uniform and a token order, or a row of bit uniforms per draw. A
bit walk reads one step of the row's step table per bit, a threshold and the
node each bit leads to, so it costs one lookup and one float compare a bit.
``row_source`` is the one place a model's rows are transformed (temperature,
then top-p) into rows; it keeps them per model, so every walk over one model
and setting builds each row once.
"""

import weakref

import numpy as np

from .coding import TokenCode, prefix_mass
from .lm import apply_temperature, apply_top_p, validate_distribution

SAMPLER_KINDS = ("its", "bs", "multinomial")

# Below this, a 0-branch mass computed as ``node - one`` is checked against
# the branch's own mass: over masses that sum to ~1 rounding leaves ~1e-16 a
# level, so an empty branch always falls below it, and a light real branch
# only costs the lookup.
_ROUNDING = 1e-9


class Row:
    """A checked token distribution and the tables sampling builds from it.

    ``p`` is the distribution, validated once here. The CDF for
    ``sample_multinomial`` and the step table of the bit walks over the
    token code last walked are filled on first use and reused by every
    later draw; a walk over another code replaces the step table, so a row
    holds at most one. A row does not copy ``probs``, so the caller must not
    change it while the row lives. Filling a table is idempotent, so threads
    sharing a row compute the same values and need no lock.
    """

    __slots__ = ("p", "_cdf", "_table")

    def __init__(self, probs):
        self.p = validate_distribution(probs)
        self._cdf = None
        self._table = None  # (code, steps, path masses) of the code last walked

    def cdf(self) -> np.ndarray:
        if self._cdf is None:
            self._cdf = np.cumsum(self.p)
        return self._cdf

    def table(self, code: TokenCode) -> tuple:
        """``(code, steps, path masses)``: the step table of the bit walks
        over ``code`` under this row, by node id, where the step of an inner
        node is None until ``step`` fills it. A walker fills the table it
        holds, so a thread that replaces the row's table with another code's
        leaves the walks of other threads whole."""
        table = self._table
        if table is None or table[0] is not code:
            if self.p.size != code.n_tokens:
                raise ValueError("distribution size does not match code")
            paths = [None] * len(code.branches)
            paths[0] = prefix_mass(self.p, code, 0)
            table = self._table = (code, [None] * len(paths), paths)
        return table

    def step(self, table: tuple, v: int) -> tuple:
        """Fill and return the step of inner node ``v`` in ``table``, a table
        of this row whose step of ``v``'s parent is filled: ``(threshold,
        after bit 0, after bit 1)``, where a walk at ``v`` takes bit 1 iff
        its uniform is >= threshold, and goes next to a node id, or to
        ``~token`` at a leaf.

        The threshold is ``1 - one / node``: ``node`` is the mass the walk
        carries into ``v`` (``prefix_mass`` at the root and at each 1-branch,
        the parent's ``node - one`` at a 0-branch) and ``one`` that of its
        1-branch. An empty 1-branch has threshold 1, which no uniform in
        [0, 1) reaches, and an empty 0-branch has threshold 0 in exact
        arithmetic. In floating point ``node - one`` can leave the threshold
        just above 0 over it, so where that difference is within rounding of
        0 the branch's own mass is looked up, and if it is 0.0 both bits lead
        to the 1-branch.
        """
        code, steps, paths = table
        _, zero, one = code.branches[v]
        node = paths[v]
        mass = paths[one] = prefix_mass(self.p, code, one)
        paths[zero] = node - mass
        if paths[zero] < _ROUNDING and prefix_mass(self.p, code, zero) == 0.0:
            zero = one  # an empty 0-branch that rounding left just above 0
        # sample_bs_many fills the steps below empty branches too; no uniform
        # in [0, 1) reaches a node that carries no mass, so its threshold only
        # has to be a number
        threshold = 1.0 - mass / node if node > 0.0 else 1.0
        step = steps[v] = (threshold, _after(code, zero), _after(code, one))
        return step


def _after(code: TokenCode, v: int) -> int:
    """Where a step to node ``v`` leads: ``~token`` at a leaf, else ``v``."""
    leaf = code.branches[v][0]
    return ~leaf if leaf >= 0 else v


# model -> ((temperature, top_p), {last token, or None for the start row: Row}):
# one setting's rows per model, dropped with the model
_ROWS = weakref.WeakKeyDictionary()


def row_source(lm, temperature: float | None = None, top_p: float | None = None):
    """``row_of(context)``: the ``Row`` of ``lm``'s next-token distribution
    after ``context``, temperature then top-p applied.

    The model must be order-1 and immutable, as ``MarkovLM`` is: its row
    after ``context`` is then fixed by ``context[-1]`` (the start row by an
    empty context), and rows are kept by that token. Each row is built once,
    on the first context that ends in its token, through
    ``lm.context_distribution``, so a token no row is kept for still meets
    its range check. The rows are kept per model across calls, for the last
    (temperature, top-p) asked of it, and freed with the model.
    """
    setting = (temperature, top_p)
    entry = _ROWS.get(lm)
    if entry is None or entry[0] != setting:
        entry = _ROWS[lm] = (setting, {})
    rows = entry[1]

    def row_of(context) -> Row:
        last = context[-1] if len(context) else None
        row = rows.get(last)
        if row is None:
            p = lm.context_distribution(context)
            if temperature is not None:
                p = apply_temperature(p, temperature)
            if top_p is not None:
                p = apply_top_p(p, top_p)
            row = rows.setdefault(last, Row(p))
        return row

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


def sample_bs(row: Row, code: TokenCode, u) -> int:
    """Walk the code tree from the root, one bit per key uniform in ``u``,
    until a leaf, reading each bit's threshold and next node from ``row``'s
    step table (see ``Row.step``), so zero-probability branches are never
    taken. ``u`` may be an array or a list; a list of Python floats is the
    fastest to walk.
    """
    table = row.table(code)
    steps = table[1]
    v = 0
    for x in u:
        threshold, zero, one = steps[v] or row.step(table, v)
        v = one if x >= threshold else zero
        if v < 0:
            return ~v
    raise ValueError("key has too few uniforms for this code")


def sample_bs_many(row: Row, code: TokenCode, u: np.ndarray) -> np.ndarray:
    """Vectorized sample_bs for many key elements.

    ``u`` has shape (count, max_bits). Every row walks the code tree one
    level per column through the same step table as sample_bs, with every
    step filled, so the two agree element for element.
    """
    table = row.table(code)
    steps = table[1]
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    if u.shape[1] < code.max_bits:
        raise ValueError("key elements have too few uniforms for this code")
    for v, (leaf, _, _) in enumerate(code.branches):  # each node after its parent
        if leaf < 0 and steps[v] is None:
            row.step(table, v)
    flat = np.array([s or (0.0, 0, 0) for s in steps])  # leaves have no step
    threshold, after = flat[:, 0], flat[:, 1:].astype(np.int64)
    v = np.zeros(u.shape[0], dtype=np.int64)
    for j in range(code.max_bits):
        inner = np.flatnonzero(v >= 0)
        w = v[inner]
        v[inner] = after[w, (u[inner, j] >= threshold[w]).astype(np.int64)]
    return ~v


def sample_multinomial(row: Row, rng: np.random.Generator) -> int:
    """Standard inverse-CDF draw with a fresh uniform from ``rng``."""
    return _reach(row.cdf(), rng.random())
