"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical criteria use frozen seeds; the expected empirical
values were computed once and are asserted bit-for-bit reproducible.
"""

import math
import time
from fractions import Fraction

import pytest

from conftest import build_corpus, make_rng
from vvcode import (
    ExtensionChain,
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    check_conservation,
    check_extension_identities,
    check_truncation_identity,
    cone_mass_bounds,
    decode,
    dict_entropy,
    encode,
    find_prefix_violation,
    head_extension,
    huffman_build,
    is_asc,
    is_complete,
    is_proper,
    parse,
    phrase_histogram,
    simulate,
    truncate,
    tunstall_build,
)

FAIR = SourceModel.fair_bit()
BIASED = SourceModel.finite([0.9, 0.1])
GEOMETRIC = SourceModel.geometric(0.5)
COMPLETE_DICT = FiniteDictionary(2, [(0,), (1, 0), (1, 1)])
H_BIASED = 0.4689955935892812

# Frozen empirical values for seed 42 (criteria 7 and 8).
FROZEN_RATES = {
    4: 0.5318560637121275,
    16: 0.47314178513428107,
    64: 0.4725387803102425,
    256: 0.4709811227545958,
}
FROZEN_SIM_COMPLETE = {
    "total_symbols": 1_500_066,
    "entropy": 1.5000657983996475,
    "stderr": 0.0005000002456441857,
    "top_counts": {(0,): 499_934, (1, 0): 250_214, (1, 1): 249_852},
}
FROZEN_SIM_RL = {
    "total_symbols": 1_999_176,
    "entropy": 1.9991614276541534,
}
FROZEN_HIST_RL_BIASED = {"count0": 899_708, "p_value": 0.056734472576079824}
FROZEN_HIST_COMPLETE = {"p_value": 0.8695703846894041}


def _passline(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_conservation_complete_fixture():
    t0 = time.perf_counter()
    report = check_conservation(COMPLETE_DICT, FAIR, depth=8, tol=1e-12)
    assert report.verdict == "pass"
    assert report.h_d_low == report.h_d_high == pytest.approx(1.5, abs=1e-13)
    assert report.lbar_low == pytest.approx(1.5, abs=1e-13)
    assert report.h_p == pytest.approx(1.0, abs=1e-13)
    assert report.residual < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(1, f"H(D)=1.5=H(P)*lbar, residual {report.residual:.2e}, "
                 f"{elapsed:.3f}s")


def test_criterion_2_conservation_run_length():
    t0 = time.perf_counter()
    rl = RunLengthDictionary()
    rep_fair = check_conservation(rl, FAIR, depth=64, tol=1e-9)
    assert rep_fair.verdict == "pass"
    assert rep_fair.h_d_low == pytest.approx(2.0, abs=1e-9)
    assert rep_fair.lbar_low == pytest.approx(2.0, abs=1e-9)
    rep_biased = check_conservation(rl, BIASED, depth=64, tol=1e-9)
    assert rep_biased.verdict == "pass"
    assert rep_biased.lbar_low == pytest.approx(10.0 / 9.0, abs=1e-9)
    assert rep_biased.residual < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(2, f"fair: both sides 2.0; biased: lbar=10/9, residual "
                 f"{rep_biased.residual:.2e}, {elapsed:.3f}s")


def test_criterion_3_truncation_identity_corpus():
    t0 = time.perf_counter()
    corpus = build_corpus()
    assert len(corpus) >= 100
    assert any(not d.is_complete() for d in corpus)  # non-ASC included
    worst = 0.0
    for d in corpus:
        for source in (FAIR, BIASED):
            rep = check_truncation_identity(d, source, 12, tol=1e-9)
            assert rep.all_ok
            worst = max(worst, max(r.residual for r in rep.rows))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passline(3, f"{len(corpus)} dictionaries x m<=12 x 2 sources, worst "
                 f"residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_extension_identities():
    t0 = time.perf_counter()
    corpus = build_corpus()
    rng = make_rng(4242)
    checked = 0
    worst = 0.0
    while checked < 1000:
        d = corpus[int(rng.next_float() * len(corpus))]
        alpha = d.words[int(rng.next_float() * len(d.words))]
        source = BIASED if rng.next_float() < 0.5 else FAIR
        rep = check_extension_identities(d, alpha, source, tol=1e-9)
        assert rep.ok
        worst = max(worst, rep.lbar_residual, rep.h_residual)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passline(4, f"1000 (dictionary, alpha) pairs, worst residual "
                 f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_structural_identities():
    t0 = time.perf_counter()
    corpus = build_corpus()
    # cache one truncation sweep per dictionary
    sweeps = {
        i: {m: truncate(d, m) for m in range(1, 13)}
        for i, d in enumerate(corpus)
    }

    # part 1: every truncation is proper and complete
    for i, d in enumerate(corpus):
        for m, fs in sweeps[i].items():
            assert find_prefix_violation(fs.d_n_words) is None
            kraft = sum(Fraction(1, 2 ** len(w)) for w in fs.d_n_words)
            assert kraft == 1  # Kraft equality == completeness when proper
    for d in corpus[:25]:
        for m in range(1, 9):
            fs = truncate(d, m)
            assert is_proper(fs.d_n) and is_complete(fs.d_n)

    # part 2: |T_m| chain steps reproduce D_{m+1} exactly
    for d in corpus[:40]:
        for m in range(1, 6):
            chain = ExtensionChain.from_truncation(d, m)
            t_m = chain.extending_words(len(truncate(d, m).t_n))
            result = chain.step(len(t_m))
            assert set(result.words) == set(truncate(d, m + 1).d_n_words)
    for m in range(1, 9):
        chain = ExtensionChain.from_truncation(RunLengthDictionary(), m)
        stepped = chain.step(1)
        assert set(stepped.words) == set(
            truncate(RunLengthDictionary(), m + 1).d_n_words
        )

    # part 3: cone mass equals prefix probability for ASC dictionaries
    cone_checks = 0
    for i, d in enumerate(corpus):
        if not is_asc(d, BIASED, 16, 1e-9).certified:
            continue
        for m in range(1, 7):
            for beta in sweeps[i][m].d_n_perp:
                low, high = cone_mass_bounds(d, beta, BIASED, 16)
                p = BIASED.word_prob(beta)
                assert abs(low - p) <= 1e-9 and abs(high - p) <= 1e-9
                cone_checks += 1
    assert cone_checks > 100
    rl = RunLengthDictionary()
    low, high = cone_mass_bounds(rl, (1, 1), BIASED, depth_budget=40)
    assert low - 1e-12 <= BIASED.word_prob((1, 1)) <= high + 1e-12

    # part 4: cones partition the long members (mapping + brute force)
    for i, d in enumerate(corpus):
        for m in range(1, 13):
            perp = set(sweeps[i][m].d_n_perp)
            for w in d.words:
                if len(w) >= m:
                    assert w[:m] in perp
    for d in corpus[:8]:
        for m in range(1, 13):
            perp = sweeps[corpus.index(d)][m].d_n_perp
            union = [w for beta in perp for w in d.words
                     if w[: len(beta)] == beta]
            expected = [w for w in d.words if len(w) >= m]
            assert sorted(union) == sorted(expected)
            assert len(union) == len(set(union))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passline(5, f"truncation/chain/cone/partition identities over {len(corpus)} dictionaries "
                 f"({cone_checks} cone identities), {elapsed:.2f}s")


def test_criterion_6_countable_alphabet():
    t0 = time.perf_counter()
    he = head_extension(0)
    report = check_conservation(he, GEOMETRIC, depth=64, tol=1e-6, width=64)
    assert report.verdict == "pass"
    assert report.residual < 1e-6
    closed = GEOMETRIC.entropy() * (1.0 + GEOMETRIC.symbol_prob(0))
    h_d = dict_entropy(he, GEOMETRIC, depth=64, width=64)
    assert h_d.mid == pytest.approx(closed, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passline(6, f"head extension over geometric: residual "
                 f"{report.residual:.2e}, H(D)={h_d.mid:.12f}="
                 f"H(P)(1+P(a0)), {elapsed:.2f}s")


def test_criterion_7_codec():
    t0 = time.perf_counter()
    # lossless round-trips over both fixture sources
    rng = make_rng(7)
    d_fair = COMPLETE_DICT
    cb_fair = huffman_build([(w, FAIR.word_prob(w)) for w in d_fair.words])
    d_biased = tunstall_build(BIASED, 16)
    cb_biased = huffman_build([(w, BIASED.word_prob(w)) for w in d_biased.words])
    trips = 0
    for i in range(1000):
        if i < 5:
            length = 10_000
        else:
            length = int(rng.next_float() * 2000)
        seed = int(rng.next_float() * 2**31)
        if i % 2 == 0:
            src, d, cb = FAIR, d_fair, cb_fair
        else:
            src, d, cb = BIASED, d_biased, cb_biased
        stream = src.sample_stream(seed, length)
        assert decode(d, cb, encode(d, cb, stream)) == stream
        trips += 1

    # rate study: monotone approach to H(P) on the biased source
    stream = BIASED.sample_stream(42, 10**6)
    rates = {}
    sigmas = {}
    for size in (4, 16, 64, 256):
        d = tunstall_build(BIASED, size)
        cb = huffman_build([(w, BIASED.word_prob(w)) for w in d.words])
        phrases, rem = parse(d, stream)
        lens = [len(p) for p in phrases]
        cls = [len(cb.codeword_for(p)) for p in phrases]
        bits = sum(cls)
        syms = sum(lens)
        rate = bits / syms
        n = len(phrases)
        lbar = syms / n
        resid = [L - rate * l for L, l in zip(cls, lens)]
        var = sum(r * r for r in resid) / (n - 1)
        sigmas[size] = math.sqrt(var / n) / lbar
        rates[size] = rate
        assert rate == pytest.approx(FROZEN_RATES[size], abs=1e-12)
        assert rate >= H_BIASED - 3 * sigmas[size]
    assert rates[4] > rates[16] > rates[64] > rates[256]  # monotone approach
    assert rates[256] - H_BIASED < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passline(7, f"{trips} lossless round-trips; rates "
                 f"{[round(rates[s], 5) for s in (4, 16, 64, 256)]} -> "
                 f"H(P)={H_BIASED:.4f}, {elapsed:.2f}s")


def test_criterion_8_simulation_consistency():
    t0 = time.perf_counter()
    rep = simulate(COMPLETE_DICT, FAIR, 10**6, seed=42)
    again = simulate(COMPLETE_DICT, FAIR, 10**6, seed=42, threads=4)
    assert rep == again  # bit-identical across runs and thread counts
    assert rep.total_symbols == FROZEN_SIM_COMPLETE["total_symbols"]
    assert rep.empirical_lbar == rep.total_symbols / 10**6
    assert rep.empirical_entropy == pytest.approx(
        FROZEN_SIM_COMPLETE["entropy"], abs=1e-12
    )
    assert rep.stderr_lbar == pytest.approx(FROZEN_SIM_COMPLETE["stderr"], abs=1e-12)
    assert abs(rep.empirical_lbar - 1.5) <= 3 * rep.stderr_lbar
    for w, c, z in rep.top_phrases:
        assert c == FROZEN_SIM_COMPLETE["top_counts"][w]
        assert abs(z) < 4

    rep_rl = simulate(RunLengthDictionary(), FAIR, 10**6, seed=42)
    assert rep_rl.total_symbols == FROZEN_SIM_RL["total_symbols"]
    assert abs(rep_rl.empirical_lbar - 2.0) <= 3 * rep_rl.stderr_lbar
    assert rep_rl.empirical_entropy == pytest.approx(
        FROZEN_SIM_RL["entropy"], abs=1e-12
    )
    assert abs(rep_rl.empirical_entropy - 2.0) < 0.01

    hist = phrase_histogram(RunLengthDictionary(), BIASED, 10**6, seed=42)
    counts = dict(hist.entries)
    assert counts[(0,)] == FROZEN_HIST_RL_BIASED["count0"]
    sigma = math.sqrt(10**6 * 0.9 * 0.1)
    assert abs(counts[(0,)] - 900_000) <= 3 * sigma
    assert hist.p_value == pytest.approx(
        FROZEN_HIST_RL_BIASED["p_value"], abs=1e-6
    )
    assert hist.p_value > 0.001

    hist2 = phrase_histogram(COMPLETE_DICT, FAIR, 10**6, seed=42, threads=2)
    assert [c for _, c in hist2.entries] == [
        FROZEN_SIM_COMPLETE["top_counts"][w] for w in ((0,), (1, 0), (1, 1))
    ]
    assert hist2.p_value == pytest.approx(FROZEN_HIST_COMPLETE["p_value"], abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passline(8, f"frozen-seed fixtures reproduced bit-identically; "
                 f"lbar z={rep.z_lbar:.2f}, chi2 p={hist.p_value:.3f}, "
                 f"{elapsed:.2f}s")
