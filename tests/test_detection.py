import json
import struct

import numpy as np
import pytest

from entmark import detection
from entmark.coding import build_codes, build_huffman_codes
from entmark.detection import (DetectionConfig, detect_pvalue, detect_seed_scan, h_hard,
                               h_soft, h_values, min_block_cost, phi)
from entmark.generation import generate, key_sequence_for, replay_boundary
from entmark.keys import (BsKeySequence, ItsKeySequence, SeedBlock, derive_key_sequence,
                          derive_prf_key, resample_key_sequence)
from entmark.lm import peaked_lm, skewed_lm, uniform_lm
from entmark.sampling import Row, sample_bs
from oracles import (brute_min_block_cost, cost_bs, cost_its, eta, grid_costs,
                     scalar_min_block_cost, scatter_ranks)


def test_eta():
    assert eta([0], 4)[0] == 0.0
    assert eta([3], 4)[0] == 1.0
    assert eta([2], 4)[0] == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        eta([4], 4)
    with pytest.raises(ValueError):
        eta([0], 1)


def test_h_hard_examples():
    code = build_codes(4)
    assert h_hard([[0.7, 0.3]], code)[0] == pytest.approx(2 / 3)
    assert h_hard([[0.1, 0.4]], code)[0] == 0.0
    assert h_hard([[0.9, 0.8]], code)[0] == 1.0
    # non-power-of-two: pattern 11 clamps to the last valid word
    code3 = build_codes(3)
    assert h_hard([[0.9, 0.9]], code3)[0] == 1.0
    assert h_hard([[0.9, 0.1]], code3)[0] == 1.0  # "10" -> token 2 -> eta 1


def test_h_hard_mean_half_power_of_two():
    rng = np.random.default_rng(0)
    code = build_codes(8)
    h = h_hard(rng.random((100_000, 3)), code)
    assert abs(h.mean() - 0.5) <= 3 * h.std() / np.sqrt(h.size)


def test_h_soft_uniform_and_interval():
    rng = np.random.default_rng(1)
    code = build_codes(8)
    u = rng.random((100_000, 3))
    h = h_soft(u, code)
    assert h.min() >= 0 and h.max() < 1
    assert abs(h.mean() - 0.5) <= 3 * h.std() / np.sqrt(h.size)
    # under a uniform model the soft value lands inside the CDF interval of
    # the very token those uniforms sample
    row = Row(np.full(8, 1 / 8))
    toks = np.array([sample_bs(row, code, bits) for bits in u.tolist()])
    assert np.all((h >= toks / 8) & (h < (toks + 1) / 8))


def test_h_soft_huffman_walk():
    code = build_huffman_codes([4, 2, 1, 1])
    rng = np.random.default_rng(2)
    h = h_soft(rng.random((20_000, code.max_bits)), code)
    assert h.min() >= 0 and h.max() < 1
    assert abs(h.mean() - 0.5) < 0.01
    hh = h_hard(rng.random((1000, code.max_bits)), code)
    assert set(np.round(hh * 3).astype(int)) <= {0, 1, 2, 3}
    with pytest.raises(ValueError):
        h_values(resample_key_sequence(rng, "bs", 3, 4, 2), build_codes(4), "warm")


@pytest.mark.parametrize("bad, message", [
    ({"h_mode": "warm"}, "unknown h mode 'warm'"),
    ({"s_max": -1}, "s_max must be >= 0"),
])
def test_config_rejects_bad_knobs(bad, message):
    rng = np.random.default_rng(6)
    y = rng.integers(4, size=10)
    config = DetectionConfig(cost="its", k=5, T=3, **bad)
    with pytest.raises(ValueError, match=message):
        detect_pvalue(y, resample_key_sequence(rng, "its", 10, 4, 2), config, rng, 4)
    with pytest.raises(ValueError, match=message):
        detect_seed_scan(y, config, b"s", 4, rng)


def test_cost_its_examples():
    # single token, u=0.9, identity ranks, last token: -(0.4)(0.5)
    assert cost_its([3], [0.9], [[0, 1, 2, 3]], 4) == pytest.approx(-0.2)
    assert cost_its([2], [0.5], [[0, 1, 2, 3]], 4) == 0.0
    assert cost_its([], [], np.empty((0, 4)), 4) == 0.0
    with pytest.raises(ValueError):
        cost_its([1, 2], [0.5], [[0, 1, 2, 3]], 4)


def test_cost_bs_examples():
    # eta(y)=1 and h=2/3: -(1/6)(1/2)
    assert cost_bs([3], [2 / 3], 4) == pytest.approx(-1 / 12)
    assert cost_bs([2], [0.5], 4) == 0.0
    assert cost_bs([1], [0.9], 3) == 0.0  # middle token of odd N is centered
    assert cost_bs([], [], 4) == 0.0


@pytest.mark.parametrize("kind, n_vocab, coding, h_mode", [
    ("its", 2, None, "soft"), ("its", 8, None, "soft"), ("its", 256, None, "soft"),
    ("bs", 8, "fixed", "soft"), ("bs", 8, "huffman", "hard"), ("bs", 8, "huffman", "soft"),
])
def test_cost_matrix_matches_direct_grid(kind, n_vocab, coding, h_mode):
    # a key's table read at the text's tokens must give the bytes of the
    # direct gather-divide-product, on texts that repeat some tokens and
    # leave others out
    rng = np.random.default_rng(22)
    code = None
    if coding == "fixed":
        code = build_codes(n_vocab)
    elif coding == "huffman":
        code = build_huffman_codes(rng.integers(1, 20, size=n_vocab))
    for n, length in ((1, 5), (7, 40), (40, 7)):
        used = rng.choice(n_vocab, size=max(1, n_vocab // 2), replace=False)
        y = rng.choice(used, size=length)
        ks = resample_key_sequence(rng, kind, n, n_vocab, code.max_bits if code else 8)
        got = detection._cost_matrix(y, ks, n_vocab, code, h_mode)
        assert got.shape == (n, length)
        assert got.tobytes() == grid_costs(y, ks, n_vocab, code, h_mode).tobytes()


def test_phi_single_block_reduces_to_cost():
    rng = np.random.default_rng(3)
    y = rng.integers(4, size=6)
    ks = resample_key_sequence(rng, "its", 1, 4, 2)
    got = phi(y, ks, k=6, n_vocab=4)
    # n=1 wraps the single element across the block
    manual = cost_its(y, np.repeat(ks.u, 6), np.tile(ks.ranks[0], (6, 1)), 4)
    assert got.value == pytest.approx(manual)
    assert (got.best_i, got.best_j) == (0, 0)


def test_phi_matches_brute_force():
    rng = np.random.default_rng(4)
    code = build_codes(5)
    for _ in range(40):
        n_vocab = 5
        length = int(rng.integers(2, 12))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, length + 1))
        y = rng.integers(n_vocab, size=length)
        kind = "its" if rng.random() < 0.5 else "bs"
        ks = resample_key_sequence(rng, kind, n, n_vocab, code.max_bits)
        if kind == "its":
            et = ks.ranks[:, y] / (n_vocab - 1)
            m = -((ks.u - 0.5)[:, None] * (et - 0.5))
        else:
            h = h_soft(ks.u, code)
            m = -np.outer(h - 0.5, y / (n_vocab - 1) - 0.5)
        want = brute_min_block_cost(m, k)
        got = phi(y, ks, k, n_vocab, code)
        assert got.value == pytest.approx(want[0], abs=1e-9)
        assert (got.best_i, got.best_j) == (want[1], want[2])


def test_phi_zero_costs_tie_break():
    val, i, j = min_block_cost(np.zeros((4, 7)), 3)
    assert (val, i, j) == (0.0, 0, 0)


def test_min_block_cost_ties_keep_the_first_row_and_its_first_offset():
    # with k = 1 the window at (text start i, key offset j) is costs[j, i],
    # so the grid is laid out by hand: the minimum -1 sits twice in row 2,
    # at offsets 1 and 3, and again in row 4; a -0.5 in row 0 is a decoy
    costs = np.zeros((5, 6))
    costs[1, 2] = costs[3, 2] = costs[0, 4] = -1.0
    costs[4, 0] = -0.5
    assert brute_min_block_cost(costs, 1) == (-1.0, 2, 1)
    assert _exact(min_block_cost(costs, 1)) == _exact((-1.0, 2, 1))
    # with k = 2 each cell enters two windows: the -1s at rows 1 and 3 of
    # column 2 give row 1 the minimum at offsets 0 and 2 (cell at l = 1)
    # and row 2 at offsets 1 and 3 (cell at l = 0)
    costs = np.zeros((5, 7))
    costs[1, 2] = costs[3, 2] = -1.0
    assert brute_min_block_cost(costs, 2) == (-1.0, 1, 0)
    assert _exact(min_block_cost(costs, 2)) == _exact((-1.0, 1, 0))


def test_phi_errors():
    rng = np.random.default_rng(5)
    ks = resample_key_sequence(rng, "its", 3, 4, 2)
    with pytest.raises(ValueError, match="shorter than block"):
        phi([1, 2], ks, k=3, n_vocab=4)
    empty = resample_key_sequence(rng, "its", 0, 4, 2)
    with pytest.raises(ValueError):
        phi([1, 2, 3], empty, k=2, n_vocab=4)


def test_phi_superset_of_offsets_never_worse():
    # phi searches every key offset; restricting the offsets by hand can
    # only raise the minimum
    rng = np.random.default_rng(6)
    for _ in range(20)	:
        m = rng.standard_normal((6, 9))
        k = int(rng.integers(1, 9))
        full = min_block_cost(m, k)[0]
        subset = min(
            sum(m[(j + l) % 6, i + l] for l in range(k))
            for i in range(9 - k + 1)
            for j in (0, 2, 5)
        )
        assert full <= subset + 1e-12


def _exact(result):
    value, i, j = result
    return float(value).hex(), int(i), int(j)


def _slabs(tables):
    """A (B, n, U) stack of tables as the kernel's doubled (U, 2n, B) slabs."""
    slabs = tables.transpose(2, 1, 0)
    return np.ascontiguousarray(np.concatenate([slabs, slabs], axis=1))


def test_numpy_kernel_matches_scalar_transcription():
    # the stacked null search must reproduce the scalar reference's minimum
    # on every grid of a stack, and min_block_cost its (value, i, j) on each
    # grid, step by step, so batching never changes a byte
    rng = np.random.default_rng(17)
    for case in range(240):
        length = int(rng.integers(1, 16))
        if case % 6 == 0:
            n = 1
        elif case % 6 == 1:
            n = length + int(rng.integers(1, 6))  # n > L
        elif case % 6 == 2:
            n = max(1, length // 2)  # n < L once L > 1
        else:
            n = int(rng.integers(1, 12))
        if case % 7 == 0:
            k = length
        elif case % 7 == 1:
            k = 1
        else:
            k = int(rng.integers(1, length + 1))
        # text position l reads column cols[l] of a narrower table, as a
        # null key's table against the text's distinct tokens is read
        width = int(rng.integers(1, length + 1))
        cols = rng.integers(width, size=length) if case % 2 else np.arange(length)
        tables = rng.standard_normal((int(rng.integers(1, 6)), n, cols.max() + 1))
        if case % 3 == 0:
            tables = np.round(tables, 1)  # ties between windows
        if case % 4 == 0:
            tables[0] = 0.0
        if case % 5 == 0:
            tables[-1] = -0.0
        values = detection._min_diagonal_costs(_slabs(tables), cols, k)
        assert values.shape == (len(tables),)
        for b, table in enumerate(tables):
            grid = table[:, cols]
            want = _exact(scalar_min_block_cost(grid, k))
            assert float(values[b]).hex() == want[0], (case, b, n, length, k)
            assert _exact(min_block_cost(grid, k)) == want


@pytest.mark.parametrize("kind", ["its", "bs"])
def test_cost_table_written_into_a_slab_view_matches_standalone(kind):
    # a null chunk's draws write their tables straight into views of the
    # slab; each key's table there must hold the bytes of that key's grid
    # built on its own, and nothing around the view may change
    n_vocab, n, count, width = 16, 9, 3, 5
    code = build_codes(n_vocab) if kind == "bs" else None
    tokens = np.sort(np.random.default_rng(25).choice(n_vocab, size=6, replace=False))
    stacked = resample_key_sequence(np.random.default_rng(26), kind, n, n_vocab, 4, count)
    rng = np.random.default_rng(26)
    singles = [resample_key_sequence(rng, kind, n, n_vocab, 4) for _ in range(count)]
    for layout in ("key-major", "strided"):
        slabs = np.full((tokens.size, 2 * n, width), np.nan)
        if layout == "key-major":  # the second half read as (U, B, n)
            staged = slabs.reshape(tokens.size, 2, -1)[:, 1].reshape(tokens.size, -1, n)
            view = staged[:, 1:1 + count]
        else:
            view = slabs[:, :n, 1:1 + count].transpose(0, 2, 1)
        assert detection._cost_table(stacked, n_vocab, code, "soft", tokens, view) is view
        for b, key in enumerate(singles):
            want = detection._cost_matrix(tokens, key, n_vocab, code, "soft")
            assert view[:, b].T.tobytes() == want.tobytes(), (layout, b)
            assert want.tobytes() == grid_costs(tokens, key, n_vocab, code).tobytes()
        assert np.isnan(slabs).sum() == slabs.size - view.size


def _per_resample_detect_pvalue(y, keyseq, config, rng, n_vocab, code):
    """detect_pvalue without batching: one phi call per resample, each
    drawing its key from ``rng`` in turn."""
    n_bits = code.max_bits if code is not None else 1
    k = config.block_for(len(y))
    observed = phi(y, keyseq, k, n_vocab, code, config.h_mode)
    null = np.empty(config.T)
    for t in range(config.T):
        resampled = resample_key_sequence(rng, keyseq.kind, keyseq.n, n_vocab, n_bits)
        null[t] = phi(y, resampled, k, n_vocab, code, config.h_mode).value
    return (1.0 + float(np.sum(null <= observed.value))) / (config.T + 1), null


def _check_null_stream(y, keyseq, config, n_vocab, code, monkeypatch):
    """detect_pvalue's nulls and p-value against the per-resample loop, hex
    for hex; returns the number of keys each draw drew and the number of
    tables each search searched."""
    draws, searches = [], []
    search = detection._min_diagonal_costs

    def resample(rng, kind, n, n_vocab, n_bits, count=1):
        draws.append(count)
        return resample_key_sequence(rng, kind, n, n_vocab, n_bits, count)

    def spy(slabs, cols, k):
        searches.append(slabs.shape[2])
        return search(slabs, cols, k)

    monkeypatch.setattr(detection, "resample_key_sequence", resample)
    monkeypatch.setattr(detection, "_min_diagonal_costs", spy)
    want_p, want_null = _per_resample_detect_pvalue(y, keyseq, config,
                                                    np.random.default_rng(21), n_vocab, code)
    draws.clear()
    searches.clear()
    rep = detect_pvalue(y, keyseq, config, np.random.default_rng(21), n_vocab, code)
    assert [v.hex() for v in rep.phi_null] == [v.hex() for v in want_null]
    assert rep.p_value.hex() == want_p.hex()
    return draws, searches  # phi's own search goes through min_block_cost


@pytest.mark.parametrize("cost", ["its", "bs"])
@pytest.mark.parametrize("size, T", [(400, 7), (60, 1), (60, 5)])
def test_null_stream_matches_per_resample_phi(cost, size, T, monkeypatch):
    rng = np.random.default_rng(20)
    code = build_codes(8)
    y = rng.integers(8, size=size)
    keyseq = resample_key_sequence(rng, cost, size, 8, code.max_bits)
    config = DetectionConfig(cost=cost, T=T)
    if size == 400:
        # a budget of three 400-row slabs over 8 tokens (16 n U bytes a
        # key): T = 7 runs as chunks of 3, 3, 1
        monkeypatch.setattr(detection, "_CHUNK_BYTES", 3 * 16 * size * 8)
    chunks = [3, 3, 1] if size == 400 else [T]
    assert _check_null_stream(y, keyseq, config, 8, code, monkeypatch) == (chunks, chunks)


@pytest.mark.parametrize("cost, size, T, chunks", [
    # a 400 x 256 its key's ranks take 800 KiB, past the draw budget, so the
    # real budgets draw one key at a time, and a search takes as many tables
    # against the text's ~200 distinct tokens as fit in its budget
    ("its", 400, 7, ([1] * 7, [6, 1])),
    # bs over 60 tokens: the tables hold only the text's tokens, so every
    # null fits one draw and one search
    ("bs", 60, 9, ([9], [9])),
])
def test_null_stream_wide_vocabulary(cost, size, T, chunks, monkeypatch):
    rng = np.random.default_rng(23)
    code = build_codes(256) if cost == "bs" else None
    y = rng.integers(256, size=size)
    keyseq = resample_key_sequence(rng, cost, size, 256, code.max_bits if code else 8)
    assert _check_null_stream(y, keyseq, DetectionConfig(cost=cost, T=T), 256, code,
                              monkeypatch) == chunks


def test_detect_pvalue_formula_and_strong_case():
    lm = uniform_lm(8)
    res = generate(lm, [], 1.0, 80, "its", b"salt", np.random.default_rng(8))
    ks = key_sequence_for(res, lm.size)
    config = DetectionConfig(cost="its", T=49)
    rep = detect_pvalue(res.tokens, ks, config, np.random.default_rng(0), lm.size)
    assert rep.p_value == pytest.approx(1 / 50)  # every null loses
    assert rep.p_value == (1 + np.sum(rep.phi_null <= rep.phi0)) / (config.T + 1)
    assert rep.k == 50 and rep.cost == "its" and rep.mode == "key"


@pytest.mark.parametrize("lm", [peaked_lm(8, 0.4), skewed_lm(64)])
def test_derived_key_detects_as_its_hand_built_twin(lm):
    # a derived key builds its rank table when detection first reads it; the
    # report's bytes are those of the key built by hand from the same u and
    # the eagerly scattered ranks
    def report_bytes(key):
        rep = detect_pvalue(res.tokens, key, DetectionConfig(cost="its", T=29),
                            np.random.default_rng(2), lm.size, boundary=res.boundary)
        return (struct.pack("<ddqq", rep.p_value, rep.phi0, rep.best_i, rep.best_j)
                + rep.phi_null.tobytes() + json.dumps(rep.to_record()).encode())

    res = generate(lm, [], 2.0, 150, "its", b"twin", np.random.default_rng(11))
    derived = key_sequence_for(res, lm.size)
    got = report_bytes(derived)
    fresh = key_sequence_for(res, lm.size)
    twin = ItsKeySequence(fresh.u.copy(), ranks=scatter_ranks(fresh.order))
    assert got == report_bytes(twin)


def test_detect_pvalue_bs():
    lm = uniform_lm(4)
    code = build_codes(4)
    res = generate(lm, [], 1.0, 80, "bs", b"salt", np.random.default_rng(9), code=code)
    ks = key_sequence_for(res, lm.size, code=code)
    rep = detect_pvalue(res.tokens, ks, DetectionConfig(cost="bs", T=49),
                        np.random.default_rng(1), lm.size, code=code)
    assert rep.p_value == pytest.approx(1 / 50)


def test_detect_kind_mismatch():
    rng = np.random.default_rng(10)
    ks = resample_key_sequence(rng, "its", 10, 4, 2)
    with pytest.raises(ValueError, match="does not match"):
        detect_pvalue(rng.integers(4, size=10), ks, DetectionConfig(cost="bs"), rng, 4,
                      code=build_codes(4))
    with pytest.raises(ValueError):
        DetectionConfig(cost="its", T=0).validate()
    with pytest.raises(ValueError):
        DetectionConfig(cost="levenshtein").validate()


@pytest.mark.parametrize("cost", ["its", "bs"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_detect_rejects_out_of_range_ids(cost, bad):
    rng = np.random.default_rng(18)
    y = rng.integers(4, size=12)
    y[-1] = bad
    ks = resample_key_sequence(rng, cost, 12, 4, 2)
    config = DetectionConfig(cost=cost, T=3)
    with pytest.raises(ValueError, match=f"token id {bad} out of range"):
        detect_pvalue(y, ks, config, rng, 4, code=build_codes(4))
    with pytest.raises(ValueError, match=f"token id {bad} out of range"):
        detect_seed_scan(y, DetectionConfig(cost=cost, T=3, k=4), b"salt", 4, rng,
                         code=build_codes(4))


@pytest.mark.parametrize("cost", ["its", "bs"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_phi_rejects_out_of_range_ids(cost, bad):
    rng = np.random.default_rng(19)
    y = rng.integers(4, size=8)
    y[-1] = bad
    ks = resample_key_sequence(rng, cost, 8, 4, 2)
    with pytest.raises(ValueError, match=f"token id {bad} out of range"):
        phi(y, ks, 4, 4, build_codes(4))


@pytest.mark.parametrize("code, short", [(build_codes(8), 2),
                                         (build_huffman_codes([16, 8, 4, 2, 1, 1]), 4)])
def test_bs_key_with_too_few_uniforms_is_refused(code, short):
    # a key row shorter than the code's longest word is refused by every
    # entry; a row wider than it reads only its first max_bits uniforms
    rng = np.random.default_rng(20)
    n_vocab = code.n_tokens
    y = rng.integers(n_vocab, size=12)
    wide = resample_key_sequence(rng, "bs", 12, n_vocab, code.max_bits + 3)
    exact = BsKeySequence(wide.u[:, :code.max_bits])
    config = DetectionConfig(cost="bs", T=5)

    def report(key):
        rep = detect_pvalue(y, key, config, np.random.default_rng(21), n_vocab, code)
        return (struct.pack("<ddqq", rep.p_value, rep.phi0, rep.best_i, rep.best_j)
                + rep.phi_null.tobytes())

    entries = (lambda key: h_soft(key.u, code).tobytes(),
               lambda key: h_hard(key.u, code).tobytes(),
               lambda key: phi(y, key, 4, n_vocab, code), report)
    for entry in entries:
        with pytest.raises(ValueError, match="too few uniforms"):
            entry(BsKeySequence(wide.u[:, :short]))
        assert entry(wide) == entry(exact)


def test_seed_scan_single_candidate_reduces_to_detect():
    rng = np.random.default_rng(11)
    y = rng.integers(4, size=60).tolist()
    config = DetectionConfig(cost="its", T=19, s_max=0, k=40)
    scan = detect_seed_scan(y, config, b"tea", 4, np.random.default_rng(42))
    ks = derive_key_sequence(derive_prf_key(SeedBlock((), b"tea")), "its", 60, 4, 2)
    manual = detect_pvalue(y, ks, config, np.random.default_rng(42), 4)
    assert scan.p_value == pytest.approx(manual.p_value)  # C = 1
    assert scan.boundary == 0 and scan.mode == "scan"


def test_seed_scan_finds_generation_boundary():
    lm = skewed_lm(4)
    res = generate(lm, [], 1.0, 120, "its", b"scan-salt", np.random.default_rng(12))
    assert res.boundary is not None and res.boundary <= 5
    config = DetectionConfig(cost="its", T=99, s_max=6, k=50)
    rep = detect_seed_scan(res.tokens, config, b"scan-salt", lm.size,
                           np.random.default_rng(13))
    n_candidates = 7
    assert rep.boundary == res.boundary
    assert rep.p_value <= n_candidates / 100 + 1e-12
    assert [c["s"] for c in rep.scanned] == list(range(7))


def test_seed_scan_null_calibration():
    # text independent of every candidate key: the corrected p-value is
    # family-wise valid, so small values stay rare
    rng = np.random.default_rng(16)
    config = DetectionConfig(cost="its", T=19, s_max=3, k=30)
    pvals = [
        detect_seed_scan(rng.integers(4, size=60), config, rng.bytes(8), 4,
                         np.random.default_rng(100 + i)).p_value
        for i in range(8)
    ]
    assert np.median(pvals) > 0.2
    assert sum(p <= 0.05 for p in pvals) <= 1


def test_seed_scan_too_short():
    config = DetectionConfig(cost="its", T=9, k=50)
    y = ([0, 1, 2, 3] * 13)[:51]  # k + 1 tokens: no room to scan
    with pytest.raises(ValueError, match="too short"):
        detect_seed_scan(y, config, b"x", 4, np.random.default_rng(0))


def test_replay_boundary_matches_generation():
    lm = skewed_lm(4)
    rng = np.random.default_rng(14)
    for lam in (0.0, 0.7, 2.5):
        res = generate(lm, [], lam, 30, "its", rng.bytes(8), rng)
        assert replay_boundary(lm, res.tokens, lam) == res.boundary
    assert replay_boundary(lm, [0, 1], 99.0) is None


@pytest.mark.parametrize("lam", [float("nan"), -0.5, -np.inf])
def test_replay_boundary_checks_lambda_as_generate_does(lam):
    lm = peaked_lm(8, 0.4)
    with pytest.raises(ValueError, match="entropy threshold"):
        generate(lm, [], lam, 5, "its", b"salt", np.random.default_rng(0))
    with pytest.raises(ValueError, match="entropy threshold"):
        replay_boundary(lm, [1, 2, 3], lam)
    assert replay_boundary(lm, [1, 2, 3], 0.0) == 0


@pytest.mark.parametrize("token", [-3, 9])
def test_replay_boundary_rejects_an_out_of_range_crossing_token(token):
    # the gate would close on this token, so no later row lookup checks it
    with pytest.raises(ValueError, match="token id out of range"):
        replay_boundary(peaked_lm(8, 0.4), [token], 0.5)


@pytest.mark.parametrize("lm, flags", [
    (peaked_lm(8, 0.4), {"top_p": 0.6}),
    (skewed_lm(16), {"temperature": 0.5}),
    (skewed_lm(16), {"top_p": 0.6, "temperature": 0.5}),
])
def test_replay_boundary_follows_modified_rows(lm, flags):
    # the gate closes on the entropy of the rows generation sampled from,
    # after temperature and top-p, not on the raw model rows
    rng = np.random.default_rng(24)
    raw_differs = 0
    for _ in range(20):
        res = generate(lm, [], 8.0, 30, "its", rng.bytes(8), rng, **flags)
        assert replay_boundary(lm, res.tokens, 8.0, **flags) == res.boundary
        raw_differs += replay_boundary(lm, res.tokens, 8.0) != res.boundary
    assert raw_differs  # the raw rows would replay a different gate


def test_fallback_oracle_agreement():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((5, 11))
    for k in (1, 4, 11):
        assert min_block_cost(m, k) == pytest.approx(brute_min_block_cost(m, k))
