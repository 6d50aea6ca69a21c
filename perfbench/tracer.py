"""Outside-in span tracer for the benchmark's traced runs.

The tracer replaces entmark functions with timing wrappers wherever they are
bound (every ``entmark.*`` module attribute that is the original function, or
the class attribute for a method), so calls made inside the library between
its own modules are seen without changing any file under ``src/``. Spans
(id, layer, parent, op, start, end) are appended to flat arrays in memory and
written out when the run ends; a layer's self time is its span duration minus
the time its direct child spans cover.
"""

import functools
import itertools
import sys
from array import array
from time import perf_counter

import numpy as np

from entmark import coding, detection, generation, keys, lm, sampling

ROOT = "op"
MAX_SPANS = 1_000_000  # ~32 MB of spans; a traced run stops early at this


def _align_cells(args, kwargs, result):
    costs = args[0] if args else kwargs["costs"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    n, length = np.shape(costs)
    return {"detection.align.cells": n * (length - k + 1)}


def _generated_tokens(args, kwargs, result):
    post_gate = 0 if result.boundary is None else len(result.tokens) - result.boundary
    return {"generation.tokens": len(result.tokens), "generation.watermarked": post_gate}


# (layer name, owner of the original, attribute, counter or None)
LAYERS = (
    ("detection.pvalue", detection, "detect_pvalue", None),
    ("detection.phi", detection, "phi", None),
    ("detection.cost_matrix", detection, "_cost_matrix", None),
    ("detection.align", detection, "min_block_cost", _align_cells),
    ("keys.resample", keys, "resample_key_sequence", None),
    ("keys.derive", keys, "derive_key_sequence", None),
    ("generation.generate", generation, "generate", _generated_tokens),
    ("sampling.its", sampling, "sample_its", None),
    ("sampling.bs", sampling, "sample_bs", None),
    ("coding.prefix_mass", coding, "prefix_mass", None),
    ("lm.validate_distribution", lm, "validate_distribution", None),
    ("lm.context_distribution", lm.MarkovLM, "context_distribution", None),
)

# The public call an op makes. Its self time holds all the work inside it that
# no other layer wraps, so coverage is also reported without it.
ENTRY_LAYERS = ("detection.pvalue", "generation.generate")

# Counted without a span: one ChaCha20 block per counter, and the uniforms
# drawn from those blocks (each block holds eight 64-bit words).
COUNTERS = (
    (keys, "chacha20_blocks", lambda a, kw, out: {"keys.chacha_blocks": len(out)}),
    (keys, "uniform_block", lambda a, kw, out: {"keys.uniforms": np.size(out)}),
)


def _bindings(owner, fn):
    """Every (namespace, attribute) that currently holds ``fn``."""
    if isinstance(owner, type):
        return [(owner, name) for name, value in vars(owner).items() if value is fn]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "entmark" or mod_name.startswith("entmark.")):
            found += [(mod, name) for name, value in vars(mod).items() if value is fn]
    return found


class Tracer:
    """Records one span per wrapped call made while an op is open."""

    def __init__(self):
        self.layers = [ROOT]
        self.missing = []
        self.counts = dict.fromkeys(
            ["detection.align.cells", "generation.tokens", "generation.watermarked",
             "keys.chacha_blocks", "keys.uniforms"], 0)
        self._ints = array("i")  # sid, layer, parent sid, op id per span
        self._times = array("d")  # start, end per span
        self._stack = [-1]
        self._sids = itertools.count()
        self._op = -1
        self._root = None
        self._patches = []  # (namespace, attribute, original, wrapper)
        for name, owner, attr, count in LAYERS:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            inner = self._counted(fn, count) if count else fn
            self._plan(owner, fn, self._span(inner, name))
        for owner, attr, count in COUNTERS:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(attr)
                continue
            self._plan(owner, fn, self._counted(fn, count))

    # -- installing wrappers ------------------------------------------------

    def install(self):
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, fn, _ in self._patches:
            setattr(target, attr, fn)

    def _plan(self, owner, fn, wrapper):
        self._patches += [(target, attr, fn, wrapper) for target, attr in _bindings(owner, fn)]

    def _counted(self, fn, count):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._op >= 0:
                for key, value in count(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def _span(self, fn, name):
        layer = len(self.layers)
        self.layers.append(name)
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        new_sid = self._sids.__next__
        add_ints, add_times = self._ints.extend, self._times.extend

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            sid = new_sid()
            parent = stack[-1]
            push(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                pop()
                add_ints((sid, layer, parent, op))
                add_times((t0, t1))

        return wrapper

    # -- op boundaries --------------------------------------------------------

    @property
    def full(self) -> bool:
        return len(self._times) >= 2 * MAX_SPANS

    def begin_op(self, op_id: int):
        sid = next(self._sids)
        self._op = op_id
        self._stack.append(sid)
        self._root = (sid, perf_counter())

    def end_op(self):
        t1 = perf_counter()
        sid, t0 = self._root
        self._stack.pop()
        self._ints.extend((sid, 0, -1, self._op))
        self._times.extend((t0, t1))
        self._op = -1

    # -- results --------------------------------------------------------------

    def spans(self):
        """(ints, times) arrays of the spans recorded inside ops."""
        ints = np.frombuffer(self._ints, dtype=np.int32).reshape(-1, 4).copy()
        times = np.frombuffer(self._times, dtype=np.float64).reshape(-1, 2).copy()
        inside = ints[:, 3] >= 0
        return ints[inside], times[inside]

    def summary(self, n_ops: int) -> dict:
        """Per-op calls and self milliseconds for every layer, plus counts and
        the share of op time the named layers account for: all of them, and
        those below the op's entry call."""
        ints, times = self.spans()
        sid, layer, parent = ints[:, 0], ints[:, 1], ints[:, 2]
        duration = times[:, 1] - times[:, 0]
        pos = np.full(int(sid.max()) + 1 if sid.size else 0, -1)
        pos[sid] = np.arange(sid.size)
        child = parent >= 0
        covered = np.bincount(pos[parent[child]], weights=duration[child], minlength=sid.size)
        self_time = duration - covered
        n_layers = len(self.layers)
        calls = np.bincount(layer, minlength=n_layers)
        self_ms = np.bincount(layer, weights=self_time, minlength=n_layers) * 1e3
        out = {}
        for idx, name in enumerate(self.layers[1:], start=1):
            out[f"{name}.calls"] = calls[idx] / n_ops
            out[f"{name}.self_ms"] = self_ms[idx] / n_ops
        out["detection.align.cells"] = self.counts["detection.align.cells"] / n_ops
        out["keys.chacha_blocks"] = self.counts["keys.chacha_blocks"] / n_ops
        op_ms = duration[layer == 0].sum() * 1e3
        entry_ms = sum(self_ms[self.layers.index(name)] for name in ENTRY_LAYERS
                       if name in self.layers)
        out["trace.coverage_pct"] = 100.0 * (1.0 - self_ms[0] / op_ms)
        out["trace.below_entry_pct"] = 100.0 * (1.0 - (self_ms[0] + entry_ms) / op_ms)
        return out

    def ratios(self) -> dict:
        """Count ratios, each only where its denominator is non-zero."""
        c = self.counts
        out = {}
        if c["keys.chacha_blocks"]:
            out["keys.block_utilisation"] = c["keys.uniforms"] / (8 * c["keys.chacha_blocks"])
        if c["generation.tokens"]:
            out["generation.watermarked_fraction"] = (
                c["generation.watermarked"] / c["generation.tokens"])
        return out

    def write(self, path):
        ints, times = self.spans()
        np.savez(path, ints=ints, times=times, layers=np.array(self.layers))
