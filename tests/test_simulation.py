"""Monte Carlo phrase sampling: determinism, accounting, goodness of fit."""

import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import vvcode
from vvcode import (
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    head_extension,
    parse,
    phrase_histogram,
    simulate,
    tunstall_build,
)
from vvcode.errors import SimulationAbortError
from vvcode.rng import stream_seed
from vvcode.simulation import _chi2_sf

TERNARY = SourceModel.finite([0.5, 0.3, 0.2])


def test_alphabet_dictionary_all_length_one(fair):
    d = FiniteDictionary(2, [(0,), (1,)])
    rep = simulate(d, fair, 100, seed=5)
    assert rep.empirical_lbar == 1.0
    assert rep.stderr_lbar == 0.0
    assert rep.z_lbar == 0.0
    assert rep.total_symbols == 100


def test_simulate_deterministic(complete_dict, fair):
    a = simulate(complete_dict, fair, 5000, seed=42)
    b = simulate(complete_dict, fair, 5000, seed=42)
    assert a == b
    c = simulate(complete_dict, fair, 5000, seed=43)
    assert c != a


def test_simulate_thread_count_invariance(complete_dict, fair):
    serial = simulate(complete_dict, fair, 20_000, seed=9, threads=1)
    parallel = simulate(complete_dict, fair, 20_000, seed=9, threads=4)
    assert serial == parallel


def test_simulate_env_threads(complete_dict, fair, monkeypatch):
    monkeypatch.setenv("VVCODE_THREADS", "3")
    assert simulate(complete_dict, fair, 10_000, seed=1) == simulate(
        complete_dict, fair, 10_000, seed=1, threads=1
    )


def test_renewal_accounting_identity(complete_dict, fair):
    rep = simulate(complete_dict, fair, 12_345, seed=3)
    assert rep.empirical_lbar == rep.total_symbols / rep.n_phrases


def test_simulate_within_three_sigma(complete_dict, fair):
    rep = simulate(complete_dict, fair, 50_000, seed=42)
    assert rep.theory_lbar == pytest.approx(1.5, abs=1e-12)
    assert abs(rep.empirical_lbar - 1.5) <= 3.5 * rep.stderr_lbar
    assert abs(rep.z_lbar) < 3.5
    assert rep.empirical_entropy == pytest.approx(rep.theory_hd, abs=0.05)


def test_simulate_run_length(fair, run_length):
    rep = simulate(run_length, fair, 50_000, seed=7)
    assert abs(rep.empirical_lbar - 2.0) <= 4 * rep.stderr_lbar
    assert rep.theory_hd == pytest.approx(2.0, abs=1e-9)


def test_simulate_rejects_bad_count(complete_dict, fair):
    with pytest.raises(ValueError):
        simulate(complete_dict, fair, 0)


@pytest.mark.parametrize("run", [simulate, phrase_histogram])
@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_is_refused_before_sampling(monkeypatch, fair, run, depth):
    # phrase_histogram pooled every phrase (dof 0, p 1.0), and simulate
    # sampled every phrase first; a dead prefix would abort the sampling
    monkeypatch.setattr(vvcode.simulation, "_sample_phrases", None)
    with pytest.raises(ValueError, match=r"^depth must be >= 1$"):
        run(FiniteDictionary(2, [(0,)]), fair, 100, depth=depth)
    with pytest.raises(ValueError, match=r"^n_phrases must be >= 1$"):
        run(FiniteDictionary(2, [(0,)]), fair, 0, depth=depth)


def test_countable_width_below_one_is_refused_before_sampling(
    monkeypatch, complete_dict, fair, geometric_half
):
    # a finite alphabet ignores the width
    assert phrase_histogram(complete_dict, fair, 200, width=0) == phrase_histogram(
        complete_dict, fair, 200
    )
    # with no symbol to bin, every phrase would pool (dof 0, p 1.0); the
    # width is checked before any sampling
    monkeypatch.setattr(vvcode.simulation, "_sample_phrases", None)
    for width in (0, -5):
        with pytest.raises(ValueError, match=r"^width budget must be >= 1$"):
            phrase_histogram(head_extension(0), geometric_half, 200, width=width)


def test_simulate_dead_prefix_aborts(fair):
    d = FiniteDictionary(2, [(0,)])
    with pytest.raises(SimulationAbortError):
        simulate(d, fair, 10, seed=1)


def test_simulate_step_cap(fair, run_length):
    with pytest.raises(SimulationAbortError) as exc:
        simulate(run_length, fair, 2000, seed=1, step_cap=2)
    assert "exceeded" in str(exc.value)


def test_histogram_counts_and_fit(complete_dict, fair):
    rep = phrase_histogram(complete_dict, fair, 30_000, seed=42)
    counts = dict(rep.entries)
    assert sum(counts.values()) == 30_000
    assert counts[(0,)] == pytest.approx(15_000, rel=0.03)
    assert counts[(1, 0)] == pytest.approx(7_500, rel=0.06)
    assert rep.p_value > 0.001
    assert [w for w, _ in rep.entries] == sorted(
        counts, key=lambda w: (len(w), w)
    )


def test_histogram_run_length_biased(biased, run_length):
    n = 30_000
    rep = phrase_histogram(run_length, biased, n, seed=11)
    share = dict(rep.entries)[(0,)] / n
    sigma = (0.9 * 0.1 / n) ** 0.5
    assert abs(share - 0.9) <= 3 * sigma


def test_histogram_deterministic_and_thread_invariant(complete_dict, fair):
    a = phrase_histogram(complete_dict, fair, 9_000, seed=2, threads=1)
    b = phrase_histogram(complete_dict, fair, 9_000, seed=2, threads=4)
    assert a == b


def test_histogram_matches_simulate_sampling(complete_dict, fair):
    # same seed, same chunking: the histogram counts the same phrases
    sim = simulate(complete_dict, fair, 8_000, seed=6)
    hist = phrase_histogram(complete_dict, fair, 8_000, seed=6)
    assert sum(c for _, c in hist.entries) == sim.n_phrases
    total_syms = sum(len(w) * c for w, c in hist.entries)
    assert total_syms == sim.total_symbols


def test_simulate_head_extension_countable(geometric_half):
    from vvcode import head_extension

    rep = simulate(head_extension(0), geometric_half, 5_000, seed=4)
    assert rep.theory_lbar == pytest.approx(1.5, abs=1e-9)
    assert abs(rep.empirical_lbar - 1.5) <= 4 * rep.stderr_lbar


def test_simulate_head_extension_past_the_width(geometric_half):
    # the theory needs no symbol budget: the extension word [70] lies past
    # the old default width of 64
    rep = simulate(head_extension(70), geometric_half, 2_000, seed=4)
    lbar = 1.0 + geometric_half.symbol_prob(70)
    assert rep.theory_lbar == pytest.approx(lbar, rel=1e-12)
    assert rep.theory_hd == pytest.approx(geometric_half.entropy() * lbar, rel=1e-12)


# -- the block sampler against a chunk-by-chunk reference --------------------

CHUNK = 4096  # phrases per RNG sub-stream


def chunk_reference(d, source, n, seed):
    """Chunk c's phrases are the first ones of parse(sample_stream(...))."""
    counts = Counter()
    for c in range(-(-n // CHUNK)):
        size = min(CHUNK, n - c * CHUNK)
        length = 2 * size
        while True:
            phrases, _ = parse(d, source.sample_stream(stream_seed(seed, c), length))
            if len(phrases) >= size:
                break
            length *= 2
        counts.update(phrases[:size])
    return counts


REFERENCE_CASES = {
    "tunstall9-ternary": (lambda: tunstall_build(TERNARY, 9), TERNARY),
    "run-length-fair": (RunLengthDictionary, SourceModel.fair_bit()),
    "head-extension-geometric": (lambda: head_extension(0), SourceModel.geometric(0.1)),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
def test_counts_match_chunk_reference(case, n):
    make, source = REFERENCE_CASES[case]
    d = make()
    want = chunk_reference(d, source, n, 42)
    hist = phrase_histogram(d, source, n, seed=42)
    canonical = sorted(want.items(), key=lambda kv: (len(kv[0]), kv[0]))
    assert list(hist.entries) == canonical
    rep = simulate(d, source, n, seed=42)
    assert rep.total_symbols == sum(len(w) * c for w, c in want.items())
    top = sorted(want.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))[:5]
    assert [(w, c) for w, c, _ in rep.top_phrases] == top


def test_counts_match_chunk_reference_across_the_compile_point(biased):
    # Tunstall-256 compiles its pattern after 256 * 255 walked symbols,
    # about 4000 phrases in: chunk 0 starts on the loop
    d = tunstall_build(biased, 256)
    n = 3 * CHUNK + 1
    want = chunk_reference(tunstall_build(biased, 256), biased, n, 42)
    assert d._pattern is None
    hist = phrase_histogram(d, biased, n, seed=42)
    assert d._pattern
    assert list(hist.entries) == sorted(want.items(), key=lambda kv: (len(kv[0]), kv[0]))


def test_counts_match_chunk_reference_past_the_code_points():
    # geometric(1e-6) draws symbols up to about 3.7e7, most of them above
    # 0x10FFFF, where a block's text stops and the loop walks the rest
    d, source = head_extension(0), SourceModel.geometric(1e-6)
    want = chunk_reference(head_extension(0), source, 5000, 9)
    assert any(max(w) > 0x10FFFF for w in want)
    assert list(phrase_histogram(d, source, 5000, seed=9).entries) == sorted(
        want.items(), key=lambda kv: (len(kv[0]), kv[0])
    )


def test_histogram_bins_a_countable_family_only_in_the_source_alphabet():
    # the width 64 shrinks to the source's 3 symbols: (3,) and beyond would
    # need a price the source does not give
    rep = phrase_histogram(head_extension(0), TERNARY, 500)
    counts = dict(rep.entries)
    binned = [(1,), (2,), (0, 0), (0, 1), (0, 2)]
    assert sum(counts.get(w, 0) for w in binned) == 500
    expect = {w: 500 * TERNARY.word_prob(w) for w in binned}
    stat = sum((counts.get(w, 0) - e) ** 2 / e for w, e in expect.items())
    assert rep.dof == 4
    assert rep.chi_square == pytest.approx(stat, rel=1e-12)


def test_histogram_pools_an_extension_word_past_width():
    # the words through 1000 lie past the default width 64: they pool into
    # the rest bin, as they do (expected count far below 5) at width 1001
    d, source = head_extension(1000), SourceModel.geometric(0.5)
    rep = phrase_histogram(d, source, 1000, seed=42)
    wide = phrase_histogram(d, source, 1000, seed=42, width=1001)
    assert rep == wide
    assert sum(c for _, c in rep.entries) == 1000
    assert rep.dof >= 1 and 0.0 < rep.p_value <= 1.0


def first_phrases(d, source, seed, length):
    """Chunk 0's stream walked by hand: (complete phrases, pending prefix)."""
    stream = source.sample_stream(stream_seed(seed, 0), length)
    phrases, rest = parse(d, stream)
    return phrases, list(rest)


def test_dead_prefix_message(fair):
    d = FiniteDictionary(2, [(0,), (1, 0, 0), (1, 1)])
    phrases, rest = first_phrases(d, fair, 3, 200)
    dead = rest[:3]  # 1, 0, 1 is the first string no word extends
    assert dead == [1, 0, 1]
    with pytest.raises(SimulationAbortError) as exc:
        simulate(d, fair, 10_000, seed=3)
    assert str(exc.value) == (
        f"sampled prefix {dead} can never complete a phrase "
        "(dictionary is not ASC for this source)"
    )


def test_step_cap_message(fair, run_length):
    phrases, _ = first_phrases(run_length, fair, 1, 200)
    stuck = next(p for p in phrases if len(p) > 2)
    with pytest.raises(SimulationAbortError) as exc:
        simulate(run_length, fair, 2000, seed=1, step_cap=2)
    assert str(exc.value) == (
        f"phrase exceeded 2 symbols; stuck prefix starts {list(stuck[:2])}"
    )


def test_step_cap_names_sixteen_symbols():
    mostly_ones = SourceModel.finite([0.05, 0.95])
    with pytest.raises(SimulationAbortError) as exc:
        simulate(RunLengthDictionary(), mostly_ones, 100, seed=5, step_cap=20)
    assert str(exc.value) == (
        f"phrase exceeded 20 symbols; stuck prefix starts {[1] * 16}"
    )


def test_step_cap_fires_before_a_longer_dead_prefix(fair):
    # 1,1,1 is dead, but a phrase-by-phrase draw stops at the cap first
    d = FiniteDictionary(2, [(0,), (1, 0), (1, 1, 0)])
    with pytest.raises(SimulationAbortError) as exc:
        simulate(d, fair, 10_000, seed=1, step_cap=2)
    assert str(exc.value) == "phrase exceeded 2 symbols; stuck prefix starts [1, 1]"
    with pytest.raises(SimulationAbortError) as exc:
        simulate(d, fair, 10_000, seed=1, step_cap=3)
    assert str(exc.value).startswith("sampled prefix [1, 1, 1] can never complete")
    # over mostly ones the first block stops at the dead prefix itself, which
    # is longer than the cap: the cap is reported, and with no cap the prefix
    mostly_ones = SourceModel.finite([0.001, 0.999])
    with pytest.raises(SimulationAbortError) as exc:
        simulate(d, mostly_ones, 5, seed=1, step_cap=2)
    assert str(exc.value) == "phrase exceeded 2 symbols; stuck prefix starts [1, 1]"
    with pytest.raises(SimulationAbortError) as exc:
        simulate(d, mostly_ones, 5, seed=1)
    assert str(exc.value).startswith("sampled prefix [1, 1, 1] can never complete")


def test_step_cap_stops_a_pending_phrase():
    # the run of ones left pending after the first block reaches the cap
    mostly_ones = SourceModel.finite([0.001, 0.999])
    with pytest.raises(SimulationAbortError) as exc:
        simulate(RunLengthDictionary(), mostly_ones, 1, seed=1, step_cap=3)
    assert str(exc.value) == "phrase exceeded 3 symbols; stuck prefix starts [1, 1, 1]"


def test_phrase_of_exactly_step_cap_symbols_is_kept(fair, complete_dict):
    rep = simulate(complete_dict, fair, 5000, seed=2, step_cap=2)
    assert rep.n_phrases == 5000
    with pytest.raises(SimulationAbortError) as exc:
        simulate(complete_dict, fair, 5000, seed=2, step_cap=1)
    assert str(exc.value) == "phrase exceeded 1 symbols; stuck prefix starts [1]"


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(vvcode.__file__))
    code = "import sys, vvcode, vvcode.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


X_GRID = [0.0, 1e-300, 1e-6, 0.01, 0.5, 1.0, 2.0, 3.84, 7.5, 20.0, 100.0, 700.0,
          1400.0, 5000.0]


def test_chi2_sf_one_and_two_dof_closed_forms():
    for x in X_GRID:
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=0, abs=1e-15)
        assert _chi2_sf(x, 1) == pytest.approx(
            math.erfc(math.sqrt(x / 2)), rel=0, abs=1e-15
        )


def test_chi2_sf_recurrence_in_dof():
    # Q(x, nu + 2) = Q(x, nu) + T(nu/2), with T(a) = h^a e^-h / Gamma(a + 1)
    # and h = x/2. It holds to rounding where both sides sum the same series,
    # and to the terms' accuracy where nu/2 <= h < nu/2 + 1 puts the two
    # sides on different series
    for x in [0.3, 4.0, 60.0, 900.0, 4000.0, 8100.0]:
        h = x / 2
        near = range(max(int(x) - 3, 1), int(x) + 2)
        for nu in sorted({*range(1, 4094, 23), 4093, *near}):
            term = math.exp(nu / 2 * math.log(h) - h - math.lgamma(nu / 2 + 1))
            tol = 1e-12 if nu / 2 <= h < nu / 2 + 1 else 2e-16
            assert _chi2_sf(x, nu + 2) == pytest.approx(
                _chi2_sf(x, nu) + term, rel=0, abs=tol
            )


def test_chi2_sf_is_a_tail():
    xs = [0.5 * i for i in range(2000)] + [1e3 * 1.25**i for i in range(20)]
    for dof in (1, 2, 3, 10, 101, 1001, 4095):
        qs = [_chi2_sf(x, dof) for x in xs]
        assert qs[0] == 1.0
        assert all(0.0 <= q <= 1.0 for q in qs)
        assert all(b <= a for a, b in zip(qs, qs[1:]))
        assert _chi2_sf(1e5, dof) == 0.0


def test_chi2_sf_matches_scipy():
    chi2 = pytest.importorskip("scipy.stats").chi2
    rng = random.Random(2023)
    for _ in range(2000):
        dof = rng.randint(1, 4095)
        x = rng.uniform(0.0, 2.0 * dof + 60.0)
        assert _chi2_sf(x, dof) == pytest.approx(
            float(chi2.sf(x, dof)), rel=0, abs=1e-11
        )


def test_histogram_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(vvcode.__file__))
    code = (
        "import sys\n"
        "from vvcode import RunLengthDictionary, SourceModel, phrase_histogram\n"
        "rep = phrase_histogram(RunLengthDictionary(), "
        "SourceModel.finite([0.9, 0.1]), 2000, seed=1)\n"
        "print(rep.dof >= 1, 0.0 <= rep.p_value <= 1.0, 'scipy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["True", "True", "False"]
