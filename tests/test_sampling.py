import gc
import itertools
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from entmark import sampling
from entmark.coding import build_codes, build_huffman_codes, codes_for_lm
from entmark.generation import generate, replay_boundary
from entmark.lm import apply_temperature, apply_top_p, peaked_lm
from entmark.sampling import Row, row_source, sample_bs, sample_its, sample_multinomial
from entmark.keys import derive_key_sequence
from oracles import (argsort_sample_its, bs_law_exact, its_law_grid, per_token_generate,
                     scalar_sample_bs)


def its(u, ranks):
    """The sampler's key arguments for uniform ``u`` and rank map ``ranks``."""
    return u, np.argsort(ranks)


def test_sample_its_examples():
    p = Row(np.array([0.2, 0.5, 0.3]))
    # identity permutation, CDF read-off
    assert sample_its(p, *its(0.1, [0, 1, 2])) == 0
    # ranks: token0->1, token1->2, token2->0; rank order t2(.3), t0(.5), t1(1.0)
    assert sample_its(p, *its(0.45, [1, 2, 0])) == 0
    assert sample_its(Row(np.array([0.0, 1.0, 0.0])), *its(0.99, [2, 0, 1])) == 1
    assert sample_its(Row(np.array([0.0, 1.0, 0.0])), *its(0.0, [2, 0, 1])) == 1


def test_sample_its_boundaries():
    p = Row(np.array([0.25, 0.75]))
    # u = 0 selects the first token in rank order
    assert sample_its(p, *its(0.0, [0, 1])) == 0
    # cumulative 'reaches u' is inclusive
    assert sample_its(p, *its(0.25, [0, 1])) == 0
    assert sample_its(p, *its(0.2500001, [0, 1])) == 1
    with pytest.raises(ValueError):
        sample_its(p, *its(0.5, [0, 1, 2]))


def test_sample_its_rank_monotone_in_u():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(n))
        ranks = np.argsort(rng.random(n))
        us = np.sort(rng.random(40))
        picked_ranks = [ranks[sample_its(Row(p), *its(float(u), ranks))] for u in us]
        assert all(a <= b for a, b in zip(picked_ranks, picked_ranks[1:]))


def test_sample_its_matches_per_call_argsort():
    # keys built by hand (tied ranks too) and derived ones answer as the
    # sampler that argsorts the ranks on every call
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 8, 256):
        for _ in range(20):
            p = rng.dirichlet(np.full(n, 0.3))
            p[rng.random(n) < 0.2] = 0.0
            p = p / p.sum() if p.sum() > 0 else np.full(n, 1.0 / n)
            ranks = rng.permutation(n)
            tied = rng.integers(n, size=n)
            for u in (0.0, float(rng.random()), 1.0 - 2**-53):
                for r in (ranks, tied, ranks.tolist()):
                    assert sample_its(Row(p), u, np.argsort(r)) == argsort_sample_its(p, u, r)
    seq = derive_key_sequence(bytes(range(32)), "its", 40, 8, 3)
    p = rng.dirichlet(np.ones(8))
    for i in range(seq.n):
        want = argsort_sample_its(p, seq.u[i], seq.ranks[i])
        assert sample_its(Row(p), seq.u[i], seq.order[i]) == want


class _Draws:
    """A stand-in generator whose ``random()`` returns the given draws."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def test_edge_draws_never_reach_a_zero_mass_token():
    # u = 0 with no mass at the first position, and u past a total mass that
    # rounding left short of 1: both samplers take the nearest position with
    # mass, where a plain left search would land on (or clamp to) token 2
    top = 1.0 - 2**-53
    short = Row(np.array([0.5, 0.5 - 1e-10, 0.0]))
    assert short.cdf()[-1] < top
    assert sample_its(short, top, np.array([0, 1, 2])) == 1
    assert sample_its(short, top, np.array([2, 0, 1])) == 1
    assert sample_its(short, top, np.array([1, 2, 0])) == 0
    assert sample_multinomial(short, _Draws(top)) == 1
    lead = Row(np.array([0.0, 0.0, 0.3, 0.7]))
    assert sample_its(lead, 0.0, np.array([0, 1, 2, 3])) == 2
    assert sample_its(lead, 0.0, np.array([1, 3, 0, 2])) == 3
    assert sample_multinomial(lead, _Draws(0.0)) == 2
    # draws inside (0, total] keep the plain search's answer
    assert sample_its(short, 0.5, np.array([0, 1, 2])) == 0
    assert sample_its(short, float(short.cdf()[-1]), np.array([0, 1, 2])) == 1
    assert sample_multinomial(lead, _Draws(2**-53)) == 2
    assert sample_multinomial(lead, _Draws(0.3)) == 2
    assert sample_multinomial(lead, _Draws(0.30000000000000004)) == 3


def test_sample_bs_examples():
    # bit rule: bit = 1 iff u >= 1 - P(bit=1 | prefix)
    code = build_codes(4)
    p = Row(np.array([0.1, 0.2, 0.3, 0.4]))
    # bit1: q=0.7, 0.5 >= 0.3 -> 1; bit2: q=4/7, 0.6 >= 3/7 -> 1 -> "11"
    assert sample_bs(p, code, np.array([0.5, 0.6])) == 3
    assert sample_bs(Row(np.array([1.0, 0, 0, 0])), code, np.array([0.9, 0.9])) == 0
    two = build_codes(2)
    half = Row(np.array([0.5, 0.5]))
    assert sample_bs(half, two, np.array([0.49])) == 0
    assert sample_bs(half, two, np.array([0.51])) == 1
    with pytest.raises(ValueError, match="too few uniforms"):
        sample_bs(p, code, np.array([0.5]))


def test_sample_bs_never_unused_pattern():
    code = build_codes(3)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = Row(rng.dirichlet(np.ones(3)))
        tok = sample_bs(p, code, rng.random(2))
        assert tok in (0, 1, 2)
    # zero-mass tokens are never produced either
    p = Row(np.array([0.0, 0.6, 0.4]))
    for _ in range(100):
        assert sample_bs(p, code, rng.random(2)) != 0


@pytest.mark.parametrize("code", [build_codes(8), build_huffman_codes(np.arange(1, 9))],
                         ids=["fixed", "huffman"])
def test_bit_walks_never_enter_an_empty_zero_branch(code):
    # over a 0-branch whose tokens all have zero mass, ``node - one`` can be
    # left just above 0 by rounding; the all-zero key takes every 0-branch
    # it is allowed to, so it finds each such residue
    rng = np.random.default_rng(0)
    u = np.zeros(code.max_bits)
    empty = 0
    for _ in range(20_000):
        p = rng.dirichlet(np.ones(8))
        p[rng.integers(8)] = 0.0
        p /= p.sum()
        empty += p[sample_bs(Row(p), code, u)] == 0.0
    assert empty == 0


def test_sample_bs_huffman_mode():
    code = build_huffman_codes([8, 4, 2, 1])
    rng = np.random.default_rng(2)
    p = np.array([0.5, 0.25, 0.2, 0.05])
    row = Row(p)
    toks = [sample_bs(row, code, rng.random(code.max_bits)) for _ in range(4000)]
    counts = np.bincount(toks, minlength=4)
    assert stats.chisquare(counts, p * len(toks)).pvalue > 0.01


def test_preservation_quick():
    # u integrated over a midpoint grid, averaged over every permutation;
    # the real sampler is called for every (permutation, u) pair
    rng = np.random.default_rng(4)

    def sampler(p, ranks, us):
        row, order = Row(p), np.argsort(ranks)
        for u in us:
            yield sample_its(row, float(u), order), 1.0 / us.size

    for n in (2, 3):
        p = rng.dirichlet(np.ones(n))
        law = its_law_grid(p, sampler, n_grid=800)
        assert np.abs(law - p).sum() / 2 < 1e-3

    code = build_codes(4)
    p = rng.dirichlet(np.ones(4))
    law = bs_law_exact(p, code.codes, bit_rule=lambda q: q)  # measure of u >= 1-q is q
    assert np.abs(law - p).sum() / 2 < 1e-12


def test_sample_multinomial():
    rng = np.random.default_rng(5)
    assert sample_multinomial(Row(np.array([0.0, 1.0, 0.0])), rng) == 1
    p = np.array([0.2, 0.3, 0.5])
    row = Row(p)
    draws = np.array([sample_multinomial(row, rng) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=3)
    assert stats.chisquare(counts, p * draws.size).pvalue > 0.01
    with pytest.raises(ValueError):
        sample_multinomial(Row(np.array([0.5, 0.6])), rng)


def _random_row(rng, n):
    p = rng.dirichlet(np.full(n, 0.5))
    p[rng.random(n) < 0.3] = 0.0
    if p.sum() == 0.0:
        p[0] = 1.0
    return p / p.sum()


def test_reused_row_answers_as_fresh_rows():
    # a reused row's lazily filled step table and CDF give the draws of a
    # fresh row built for each draw, and the scalar oracles', however the
    # draws are interleaved, with the bit uniforms as an array or as the
    # list of floats generate passes
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        code = build_huffman_codes(rng.integers(1, 30, size=n)) if trial % 2 else build_codes(n)
        p = _random_row(rng, n)
        row = Row(p)
        u = rng.random((60, code.max_bits))
        for bits in u:
            want = scalar_sample_bs(p, code, bits)
            floats = bits.tolist()
            assert sample_bs(row, code, bits) == sample_bs(row, code, floats) == want
            assert sample_bs(Row(p), code, floats) == sample_bs(Row(p), code, bits) == want
            walk = len(code.codes[want])  # the walk stops at the first uniform past it
            assert sample_bs(row, code, floats[:walk]) == want
            with pytest.raises(ValueError, match="too few uniforms"):
                sample_bs(row, code, floats[:walk - 1])
        u_its, ranks = float(rng.random()), rng.permutation(n)
        want = argsort_sample_its(p, u_its, ranks)
        order = ranks.argsort()
        assert sample_its(row, u_its, order) == sample_its(Row(p), u_its, order) == want
        draws = [sample_multinomial(row, np.random.default_rng(trial)) for _ in range(3)]
        assert draws == [sample_multinomial(Row(p), np.random.default_rng(trial)) for _ in range(3)]
        with pytest.raises(ValueError, match="does not match code"):
            sample_bs(row, build_codes(n + 1), floats)


class _Lockstep:
    """Turns for two threads, one uniform each in turn while both walk, so
    their bit walks interleave bit by bit."""

    def __init__(self):
        self.turn = 0
        self.done = [False, False]
        self.cond = threading.Condition()

    def bits(self, i, bits):
        for x in bits:
            with self.cond:
                assert self.cond.wait_for(lambda: self.turn == i or self.done[1 - i], 60)
                self.turn = 1 - i
                self.cond.notify()
            yield x

    def finish(self, i):
        with self.cond:
            self.done[i] = True
            self.cond.notify()


def test_row_shared_between_threads_answers_as_fresh_rows():
    # a row's tables are filled idempotently, so two threads walking one
    # fresh row, switching often while its steps fill, draw what fresh rows
    # do; so do two threads walking it bit by bit in turn under two codes,
    # each replacing the row's one step table in the middle of the other's
    # walks
    rng = np.random.default_rng(11)
    huffman = build_huffman_codes(rng.integers(1, 30, size=40))
    rounds = [(huffman, huffman, 2000, False)] * 4 + [(huffman, build_codes(40), 300, True)] * 2
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for *codes, walks, in_turn in rounds:
            p = _random_row(rng, 40)
            row = Row(p)
            u = rng.random((2, walks, max(c.max_bits for c in codes))).tolist()
            got = [None, None]
            start = threading.Barrier(2, timeout=60)
            turns = _Lockstep() if in_turn else None

            def walk(i):
                start.wait()
                if turns is None:
                    got[i] = [sample_bs(row, codes[i], bits) for bits in u[i]]
                    return
                try:
                    got[i] = [sample_bs(row, codes[i], turns.bits(i, bits)) for bits in u[i]]
                finally:
                    turns.finish(i)

            threads = [threading.Thread(target=walk, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == [[sample_bs(Row(p), code, bits) for bits in half]
                           for code, half in zip(codes, u)]
    finally:
        sys.setswitchinterval(switch)


def test_row_used_with_two_codes_answers_like_fresh_rows():
    rng = np.random.default_rng(10)
    for n in (3, 8, 13):
        p = _random_row(rng, n)
        codes = (build_codes(n), build_huffman_codes(rng.integers(1, 9, size=n)))
        row = Row(p)
        for bits in rng.random((200, max(c.max_bits for c in codes))):
            for code in codes:
                assert sample_bs(row, code, bits) == sample_bs(Row(p), code, bits)
        with pytest.raises(ValueError, match="does not match code"):
            sample_bs(row, build_codes(n + 1), bits)


def test_row_is_checked_once_where_it_is_built():
    with pytest.raises(ValueError, match="negative entries"):
        Row(np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sums to"):
        Row(np.array([0.5, 0.6]))
    row = Row([0.25, 0.75])
    assert row.p.dtype == np.float64 and row.cdf().tolist() == [0.25, 1.0]


def _count_row_work(monkeypatch):
    """Count the calls the sampling module makes to transform and check a
    row and to fill its step tables."""
    calls = Counter()
    for name in ("apply_temperature", "apply_top_p", "validate_distribution", "prefix_mass"):
        def counted(*args, _name=name, _fn=getattr(sampling, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sampling, name, counted)
    return calls


def test_row_source_builds_one_row_per_model_row(monkeypatch):
    calls = _count_row_work(monkeypatch)
    lm = peaked_lm(8, 0.4)
    rows = row_source(lm, temperature=0.7, top_p=0.9)
    got = [rows(ctx) for ctx in ([], [3], [1, 3], [5], [2, 3], [])]
    assert got[1] is got[2] is got[4] and got[0] is got[5]
    assert len({id(row) for row in got}) == 3  # the start row, after 3, after 5
    assert calls == {"apply_temperature": 3, "apply_top_p": 3, "validate_distribution": 3}
    want = apply_top_p(apply_temperature(lm.context_distribution([3]), 0.7), 0.9)
    assert got[1].p.tobytes() == want.tobytes()
    assert row_source(lm)([3]).p is lm.context_distribution([3])  # no flags, no copy


def test_replay_boundary_checks_each_model_row_once(monkeypatch):
    calls = _count_row_work(monkeypatch)
    lm = peaked_lm(8, 0.4)
    # rows read: the start row, then after 3, 3, 5, 3, 5: three distinct rows
    tokens = [3, 3, 5, 3, 5, 1]
    assert replay_boundary(lm, tokens, float("inf"), top_p=0.9, temperature=0.7) is None
    assert calls == {"apply_temperature": 3, "apply_top_p": 3, "validate_distribution": 3}


def test_generate_keeps_a_models_rows_across_calls(monkeypatch):
    calls = _count_row_work(monkeypatch)
    lm = peaked_lm(8, 0.4)
    code = codes_for_lm(lm)

    def run(sampler="bs", seed=0, **setting):
        return generate(lm, [], 1.0, 80, sampler, bytes([seed]), np.random.default_rng(seed),
                        code=code if sampler == "bs" else None, **setting)

    first = run()
    assert calls["validate_distribution"] > 0 and calls["prefix_mass"] > 0
    calls.clear()
    assert run().tokens == first.tokens
    assert calls == {}  # same model and setting: every row and step table kept
    for setting, transform in (({"temperature": 0.7}, "apply_temperature"),
                               ({"top_p": 0.9}, "apply_top_p"), ({}, None)):
        run(**setting)
        assert calls["validate_distribution"] > 0 and calls["prefix_mass"] > 0
        assert transform is None or calls[transform] > 0
        calls.clear()
    # alternating settings on one model draw what a per-token loop draws
    settings = [{}, {"temperature": 0.7}, {"top_p": 0.9}, {},
                {"temperature": 0.7, "top_p": 0.9}, {"top_p": 0.9}]
    for seed, (setting, sampler) in enumerate(itertools.product(settings, ("its", "bs"))):
        res = run(sampler, seed, **setting)
        want = per_token_generate(lm, [], 1.0, 80, sampler, bytes([seed]),
                                  np.random.default_rng(seed),
                                  code=code if sampler == "bs" else None, **setting)
        assert (res.tokens, res.boundary) == want
    gc.collect()
    kept = len(sampling._ROWS)
    model = weakref.ref(lm)
    del lm, run
    gc.collect()
    assert model() is None and len(sampling._ROWS) == kept - 1


def test_a_replaced_settings_rows_stay_with_their_caller():
    # a second setting replaces the model's kept rows; the first setting's
    # row_of keeps answering from its own rows, which the memo no longer holds
    lm = peaked_lm(8, 0.4)
    plain = row_source(lm)
    warm = row_source(lm, temperature=0.7)
    contexts = [[]] + [[t] for t in range(8)]
    plain_rows = []
    for context in contexts:
        want = lm.context_distribution(context)
        plain_rows.append(plain(context))
        assert plain_rows[-1].p.tobytes() == want.tobytes()
        assert warm(context).p.tobytes() == apply_temperature(want, 0.7).tobytes()
    kept = [row for _, rows in sampling._ROWS.values() for row in rows.values()]
    assert not any(row is kept_row for row in plain_rows for kept_row in kept)
    again = row_source(lm)
    for context, row in zip(contexts, plain_rows):
        assert again(context) is not row
        assert again(context).p.tobytes() == row.p.tobytes()


def test_threads_sharing_a_models_rows_draw_as_a_per_token_loop():
    # four threads generate from one model under two settings at once, so
    # they replace its kept rows under each other while they walk them
    lm = peaked_lm(8, 0.4)
    code = codes_for_lm(lm)
    jobs = [(seed, ({}, {"temperature": 0.7})[seed % 2]) for seed in range(4)]

    want = [per_token_generate(lm, [], 1.0, 120, "bs", bytes([seed]),
                               np.random.default_rng(seed), code=code, **setting)
            for seed, setting in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs), timeout=60)

    def work(i):
        seed, setting = jobs[i]
        start.wait()
        got[i] = []
        for _ in range(20):
            res = generate(lm, [], 1.0, 120, "bs", bytes([seed]), np.random.default_rng(seed),
                           code=code, **setting)
            got[i].append((res.tokens, res.boundary))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert got == [[w] * 20 for w in want]


def test_kept_rows_still_refuse_out_of_range_ids():
    # the start row is kept under None, so a raw -1 or N still reaches the
    # model's range check once every row is kept
    lm = peaked_lm(8, 0.4)
    rows = row_source(lm)
    for context in [[]] + [[t] for t in range(8)]:
        rows(context)
    assert len(sampling._ROWS[lm][1]) == 9
    for context in ([-1], [8], [3, -1]):
        with pytest.raises(ValueError, match="out of range"):
            row_source(lm)(context)
    with pytest.raises(ValueError, match="out of range"):
        replay_boundary(lm, [2, -1, 3], float("inf"))
