"""Interval measures and the conservation / truncation / extension checks."""

import math

import pytest

from conftest import make_rng, random_proper_dictionary
from vvcode import (
    AlphabetDictionary,
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    avg_length,
    check_conservation,
    check_extension_identities,
    check_truncation_identity,
    convergence_scan,
    dict_entropy,
    extend,
    head_extension,
    is_asc,
    is_complete,
    phrase_measures,
)
from vvcode import measures
from vvcode.errors import UnsupportedOperationError
from vvcode.measures import Interval

H_BIASED = 0.4689955935892812  # -0.9 log2 0.9 - 0.1 log2 0.1


def run_length_series_oracle(source, terms=300):
    """Independent oracle: direct series sums for the run-length family."""
    words = [(1,) * k + (0,) for k in range(terms)]
    probs = [source.word_prob(w) for w in words]
    probs = [p for p in probs if p > 0.0]
    lbar = math.fsum(p * (k + 1) for k, p in enumerate(probs))
    h = -math.fsum(p * math.log2(p) for p in probs)
    return lbar, h


def test_dict_entropy_examples(complete_dict, fair, run_length):
    iv = dict_entropy(complete_dict, fair)
    assert iv.low == iv.high == pytest.approx(1.5, abs=1e-15)
    iv = dict_entropy(run_length, fair, depth=64)
    assert iv.width < 1e-9
    assert iv.contains(2.0, tol=1e-12)
    alphabet = FiniteDictionary(2, [(0,), (1,)])
    iv = dict_entropy(alphabet, fair)
    assert iv.low == iv.high == pytest.approx(1.0, abs=1e-15)


def test_avg_length_examples(complete_dict, fair, run_length, biased):
    iv = avg_length(complete_dict, fair)
    assert iv.low == iv.high == pytest.approx(1.5, abs=1e-15)
    iv = avg_length(run_length, biased, depth=64)
    assert iv.width < 1e-9
    assert iv.contains(10.0 / 9.0, tol=1e-12)
    alphabet = FiniteDictionary(2, [(0,), (1,)])
    assert avg_length(alphabet, biased).mid == pytest.approx(1.0, abs=1e-15)


def test_run_length_measures_match_series_oracle(fair, biased, run_length):
    for source in (fair, biased):
        lbar, h = run_length_series_oracle(source)
        assert avg_length(run_length, source, 64).mid == pytest.approx(
            lbar, rel=1e-12
        )
        assert dict_entropy(run_length, source, 64).mid == pytest.approx(
            h, rel=1e-12
        )


def test_unbounded_interval_flagged():
    # run-length's loop on 1 has probability 1.0: no completion sums, and
    # no member walk either, so the intervals run from 0
    pm = phrase_measures(RunLengthDictionary(), SourceModel.finite([1e-300, 1.0]), 16)
    assert (pm.entropy.low, pm.entropy.high) == (0.0, math.inf)
    assert (pm.length.low, pm.length.high) == (0.0, math.inf)
    assert (pm.mass.low, pm.mass.high) == (0.0, 1.0)
    assert "no certified tail bound" in pm.note


@pytest.mark.parametrize(
    "d", [RunLengthDictionary(), extend(RunLengthDictionary(), (0,))], ids=repr
)
def test_self_loop_of_probability_one_is_unbounded(d):
    # the probabilities' fsum is exactly 1.0, so they stay as given and
    # run-length's loop on 1 has probability 1.0: lbar diverges
    source = SourceModel.finite([1e-300, 1.0])
    assert source.probs == (1e-300, 1.0)
    pm = phrase_measures(d, source)
    assert pm.length.high == math.inf and pm.entropy.high == math.inf
    assert not pm.tails_exact
    assert "no certified tail bound" in pm.note
    report = check_conservation(d, source)
    assert report.verdict == "inconclusive"
    assert report.asc_status == "undetermined"
    assert report.lbar_high == math.inf


def test_conservation_complete_dict(complete_dict, fair):
    report = check_conservation(complete_dict, fair, depth=8, tol=1e-12)
    assert report.verdict == "pass"
    assert report.residual <= 1e-12
    assert report.h_d_low == pytest.approx(1.5, abs=1e-15)
    assert report.lbar_low == pytest.approx(1.5, abs=1e-15)
    assert report.h_p == pytest.approx(1.0, abs=1e-15)


def test_conservation_run_length(fair, biased, run_length):
    report = check_conservation(run_length, fair, depth=64, tol=1e-9)
    assert report.verdict == "pass"
    assert report.h_d_low == pytest.approx(2.0, abs=1e-9)
    assert report.lbar_low == pytest.approx(2.0, abs=1e-9)
    report = check_conservation(run_length, biased, depth=64, tol=1e-9)
    assert report.verdict == "pass"
    assert report.lbar_low == pytest.approx(10.0 / 9.0, abs=1e-9)
    assert report.residual < 1e-9
    assert report.h_p == pytest.approx(H_BIASED, abs=1e-12)


def test_conservation_non_asc_is_inconclusive(fair, biased):
    zero = FiniteDictionary(2, [(0,)])
    for source in (fair, biased):
        report = check_conservation(zero, source, depth=20, tol=1e-9)
        assert report.verdict == "inconclusive"
        assert report.asc_status == "undetermined"
        assert "hypothesis" in report.note
    # for the biased source the equation genuinely fails: H(D) = 0.1368...
    # while H(P)*lbar = 0.4221...; the verdict still refuses to evaluate it
    h_d = dict_entropy(zero, biased).mid
    rhs = biased.entropy() * avg_length(zero, biased).mid
    assert abs(h_d - rhs) > 0.2


# P(T_3) is exactly the tolerance: the certificate hangs on one comparison
AT_TOL = FiniteDictionary(2, [(0,), (1, 0), (1, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1)])


def test_conservation_certificate_is_is_asc(corpus, fair, biased):
    skewed = SourceModel.finite([0.999, 0.001])
    cases = [(d, s, depth) for d in corpus for s in (fair, biased)
             for depth in (1, 3, 8, 64)]
    cases.append((AT_TOL, skewed, 3))
    for d, s, depth in cases:
        for tol in (1e-9, 1e-3):
            v = is_asc(d, s, depth, tol)
            report = check_conservation(d, s, depth, tol)
            assert report.asc_status == v.status
            assert repr(report.frontier_mass) == repr(v.residual_mass)
            assert report.depth_used == v.depth_used
    v = is_asc(AT_TOL, skewed, 3, 1e-9)
    assert v.residual_mass == 1e-9 and v.status == "undetermined"


def test_conservation_checks_depth_and_tol_first(complete_dict, fair):
    # is_asc's messages, in is_asc's order, before any walk: over a source
    # without symbol 1 the run-length measures would raise their own error
    run_length, one = RunLengthDictionary(), SourceModel.finite([1.0])
    for d, s in ((complete_dict, fair), (run_length, one)):
        for call in (is_asc, check_conservation):
            with pytest.raises(ValueError, match=r"^depth budget must be >= 1$"):
                call(d, s, 0, 0.0)
            with pytest.raises(ValueError, match=r"^depth budget must be >= 1$"):
                call(d, s, -3, math.nan)
            with pytest.raises(ValueError, match=r"^tolerance must be positive$"):
                call(d, s, 3, 0.0)
            with pytest.raises(ValueError, match=r"^tolerance must be positive$"):
                call(d, s, 3, -math.inf)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_non_finite_tolerance_is_refused(complete_dict, fair, run_length, tol):
    # a NaN tolerance certified nothing, and an infinite one passed anything
    for d in (complete_dict, run_length, FiniteDictionary(2, [(0,)])):
        for call in (is_asc, check_conservation):
            with pytest.raises(ValueError, match=r"^tolerance must be finite$"):
                call(d, fair, 8, tol)


def test_conservation_raises_what_the_measures_raise():
    # run-length's symbol 1 is outside a one-symbol source: the completion
    # sums refuse it before P(T_depth) is read from the walk
    d, one = RunLengthDictionary(), SourceModel.finite([1.0])
    for depth in (1, 3, 64):
        with pytest.raises(ValueError) as measured:
            phrase_measures(d, one, depth)
        with pytest.raises(ValueError) as checked:
            check_conservation(d, one, depth)
        assert str(checked.value) == str(measured.value) == (
            "symbol index 1 out of range for alphabet size 1")


def test_conservation_head_extension(geometric_half):
    he = head_extension(0)
    report = check_conservation(he, geometric_half, depth=64, tol=1e-6, width=64)
    assert report.verdict == "pass"
    assert report.residual < 1e-6
    # closed form from the extension identity: H(D) = H(P) * (1 + P(head))
    closed = geometric_half.entropy() * (1.0 + geometric_half.symbol_prob(0))
    assert report.h_d_low == pytest.approx(closed, rel=1e-12)


def test_truncation_identity_examples(complete_dict, fair, run_length):
    rep = check_truncation_identity(complete_dict, fair, 1)
    assert rep.rows[0].h == pytest.approx(1.0, abs=1e-15)
    assert rep.rows[0].lbar == pytest.approx(1.0, abs=1e-15)
    assert rep.all_ok
    rep = check_truncation_identity(run_length, fair, 12, tol=1e-12)
    assert rep.all_ok and len(rep.rows) == 12
    zero = FiniteDictionary(2, [(0,)])
    rep = check_truncation_identity(zero, fair, 3, tol=1e-12)
    assert rep.all_ok  # holds despite {0} not being ASC
    rep = check_truncation_identity(zero, SourceModel.finite([0.9, 0.1]), 6)
    assert rep.all_ok


@pytest.mark.parametrize("m_max", [0, -1])
def test_m_max_below_one_is_refused(complete_dict, fair, m_max):
    # no vacuous all_ok report, and no depth error from the final measures
    for call in (check_truncation_identity, convergence_scan):
        with pytest.raises(ValueError, match=r"^m_max must be >= 1$"):
            call(complete_dict, fair, m_max)


@pytest.mark.parametrize("tol, message", [
    (math.inf, "tolerance must be finite"),
    (-math.inf, "tolerance must be finite"),
    (math.nan, "tolerance must be finite"),
    (-1e-300, "tolerance must be >= 0"),
    (-1.0, "tolerance must be >= 0"),
])
def test_identity_checks_refuse_a_tolerance(monkeypatch, complete_dict, run_length, fair,
                                            tol, message):
    # inf passed every input and nan failed every one; refused before a walk
    monkeypatch.setattr(measures, "_truncation_series", None)
    monkeypatch.setattr(measures, "exact_word_measures", None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_truncation_identity(complete_dict, fair, 3, tol=tol)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_extension_identities(complete_dict, (0,), fair, tol=tol)
    # before the lazy family's refusal too
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_extension_identities(run_length, (0,), fair, tol=tol)


def test_identity_checks_take_a_zero_tolerance(complete_dict, fair):
    # the residuals of {0, 10, 11} over a fair bit are exactly 0
    assert check_truncation_identity(complete_dict, fair, 3, tol=0.0).all_ok
    assert check_extension_identities(complete_dict, (0,), fair, tol=0.0).ok


def test_truncation_identity_random_corpus(corpus, biased):
    for d in corpus[:20]:
        assert check_truncation_identity(d, biased, 12, tol=1e-9).all_ok


def test_extension_identities_examples(complete_dict, fair, biased):
    rep = check_extension_identities(complete_dict, (0,), fair)
    assert rep.delta_lbar == pytest.approx(0.5, abs=1e-12)
    assert rep.delta_h == pytest.approx(0.5, abs=1e-12)
    assert rep.ok
    alphabet = FiniteDictionary(2, [(0,), (1,)])
    rep = check_extension_identities(alphabet, (1,), fair)
    assert rep.delta_lbar == pytest.approx(0.5, abs=1e-12)
    assert rep.delta_h == pytest.approx(0.5, abs=1e-12)
    rep = check_extension_identities(complete_dict, (1, 1), biased)
    assert rep.delta_lbar == pytest.approx(0.01, abs=1e-12)
    assert rep.delta_h == pytest.approx(0.01 * H_BIASED, abs=1e-12)
    assert rep.ok


def test_extension_identities_lazy_unsupported(run_length, fair):
    with pytest.raises(UnsupportedOperationError):
        check_extension_identities(run_length, (0,), fair)


def test_extension_telescoping(biased):
    rng = make_rng(7)
    d = FiniteDictionary(2, [(0,), (1,)])
    total = 0.0
    lbar0 = avg_length(d, biased).mid
    for _ in range(6):
        alpha = d.words[int(rng.next_float() * len(d.words))]
        total += biased.word_prob(alpha)
        d = extend(d, alpha)
    assert avg_length(d, biased).mid - lbar0 == pytest.approx(total, abs=1e-9)


def test_convergence_scan_run_length(fair, run_length):
    rep = convergence_scan(run_length, fair, 20)
    assert rep.h_nondecreasing and rep.lbar_nondecreasing
    assert all(r.identity_residual < 1e-12 for r in rep.rows)
    assert rep.rows[-1].lbar == pytest.approx(2.0 - 2.0**-19, rel=1e-12)
    assert rep.final_h_gap < 1e-5
    assert rep.final_lbar_gap < 1e-5


def test_convergence_scan_constant_past_max_depth(complete_dict, fair):
    rep = convergence_scan(complete_dict, fair, 6)
    tail_rows = [r for r in rep.rows if r.m >= 2]
    assert all(r.h == tail_rows[0].h for r in tail_rows)
    assert all(r.lbar == tail_rows[0].lbar for r in tail_rows)


def test_convergence_scan_head_extension(geometric_half):
    rep = convergence_scan(head_extension(0), geometric_half, 4, max_symbol=64)
    assert rep.h_nondecreasing and rep.lbar_nondecreasing
    assert rep.rows[0].h == pytest.approx(2.0, abs=1e-9)
    assert rep.rows[-1].h == pytest.approx(3.0, abs=1e-3)
    assert rep.final_h_gap < 1e-3
    assert rep.final_lbar_gap < 1e-3


def test_conservation_residual_shrinks_with_depth(biased, run_length):
    r8 = check_conservation(run_length, biased, depth=8)
    r16 = check_conservation(run_length, biased, depth=16)
    assert r16.residual <= r8.residual + 1e-12


def test_interval_helpers():
    a = Interval(1.0, 2.0)
    assert a.mid == 1.5 and a.width == 1.0
    assert a.contains(1.0) and not a.contains(2.1)
    assert a.contains(2.1, tol=0.2)
    assert a.gap_to(Interval(3.0, 4.0)) == 1.0
    assert a.gap_to(Interval(1.5, 5.0)) == 0.0
    assert a.scaled(2.0) == Interval(2.0, 4.0)


def test_monotone_sandwich_truncations(fair, run_length):
    # partial member sums <= H(D_m) <= upper end of the H(D) interval
    full = phrase_measures(run_length, fair, depth=24)
    rep = convergence_scan(run_length, fair, 12)
    for row in rep.rows:
        members = run_length.member_words(row.m)
        partial = -math.fsum(
            fair.word_prob(w) * math.log2(fair.word_prob(w)) for w in members
        )
        assert partial <= row.h + 1e-12
        assert row.h <= full.entropy.high + 1e-12


def test_underflowing_tail_words_add_no_entropy(fair):
    # {1, 01, 001, ..., 0^1099 1, 0^1100}: the longest words have
    # probability 2^-1100, which underflows to 0.0
    comb = FiniteDictionary(2, [(0,) * j + (1,) for j in range(1100)] + [(0,) * 1100])
    pm = phrase_measures(comb, fair, depth=64)
    assert pm.tails_exact
    assert pm.length.low == pytest.approx(2.0, rel=1e-12)
    assert pm.entropy.low == pytest.approx(2.0, rel=1e-12)


def test_extension_of_underflowing_word_adds_no_surprisal():
    # P(60) = p * (1e-6)^60 underflows to 0.0, so -log2 P(alpha) is taken
    # as weighed by 0 (0 * log 0 = 0) rather than as a domain error
    skewed = SourceModel.geometric(0.999999)
    assert skewed.word_prob((60,)) == 0.0
    report = check_conservation(head_extension(60), skewed)
    assert report.verdict == "pass"
    assert report.residual < 1e-15


# -- lazy families: the start state's completion sums, with no budget ---------


@pytest.mark.parametrize("head", [0, 3, 70, 1000, 10**6])
def test_head_extension_measures_are_the_extension_identity(head, geometric_half):
    # D = (A \ {h}) u hA: lbar = 1 + P(h) and H(D) = H(P) * (1 + P(h))
    lbar = 1.0 + geometric_half.symbol_prob(head)
    pm = phrase_measures(head_extension(head), geometric_half)
    assert pm.tails_exact
    assert pm.length.low == pm.length.high == pytest.approx(lbar, rel=1e-12)
    assert pm.entropy.low == pm.entropy.high == pytest.approx(
        geometric_half.entropy() * lbar, rel=1e-12
    )
    assert pm.mass.low == pm.mass.high == pytest.approx(1.0, rel=1e-12)


LAZY = [
    (RunLengthDictionary(), SourceModel.finite([0.9, 0.1])),
    (extend(RunLengthDictionary(), (1, 0)), SourceModel.fair_bit()),
    (head_extension(0), SourceModel.geometric(0.5)),
    (head_extension(70), SourceModel.geometric(0.3)),
    (extend(head_extension(3), (3, 500)), SourceModel.geometric(0.5)),
    (AlphabetDictionary(None), SourceModel.geometric(0.999999)),
]


@pytest.mark.parametrize("d, source", LAZY, ids=[repr(d) for d, _ in LAZY])
def test_lazy_measures_do_not_depend_on_the_depth(d, source):
    def measures_at(depth):
        pm = phrase_measures(d, source, depth)
        return repr((pm.entropy, pm.length, pm.mass, pm.tails_exact, pm.note))

    assert measures_at(1) == measures_at(64) == measures_at(1000)


@pytest.mark.parametrize("width", [1, 8, 64, 10**6])
def test_lazy_families_need_no_width(width, geometric_half):
    d = extend(head_extension(1000), (1000, 70))
    report = check_conservation(d, geometric_half, width=width)
    assert report.verdict == "pass"
    assert dict_entropy(d, geometric_half, width=width) == Interval(
        report.h_d_low, report.h_d_high
    )


def test_unlisted_symbols_cost_no_enumeration(monkeypatch, geometric_half):
    # a state's unlisted symbols are runs in closed form: a far listed
    # symbol prices as many symbols as a near one
    calls = []
    symbol_prob = SourceModel.symbol_prob

    def counted(self, i):
        calls.append(i)
        return symbol_prob(self, i)

    monkeypatch.setattr(SourceModel, "symbol_prob", counted)
    priced = []
    for head in (10, 10**6):
        calls.clear()
        report = check_conservation(head_extension(head), geometric_half)
        assert report.verdict == "pass"
        priced.append(len(calls))
    assert priced[0] == priced[1] < 10


@pytest.mark.parametrize("depth", [0, -1])
def test_phrase_measures_refuse_a_depth_below_one(complete_dict, fair, depth):
    with pytest.raises(ValueError, match=r"^depth must be >= 1$"):
        phrase_measures(complete_dict, fair, depth=depth)
