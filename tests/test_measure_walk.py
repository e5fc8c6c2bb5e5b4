"""The measure sums walk the automaton; they must keep every bit of a
word-by-word evaluation.

The reference below prices each word with SourceModel.word_prob and sums
with math.fsum over member_words (a finite dictionary's members up to the
depth and past it, in place of the member walk's levels) and over
truncate(...).d_n_words (the truncation series). Patched in, it yields the
reports a per-word implementation gives, and the walk's reports must
equal them exactly: compared with == and by repr, so that even the sign
of a zero counts. The patched member walk counts its calls, so a move of
the sums that bypasses the patch fails instead of comparing the walk with
itself.
"""

import functools
import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_proper_dictionary
from vvcode import (
    AlphabetDictionary,
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    check_conservation,
    check_truncation_identity,
    convergence_scan,
    extend,
    head_extension,
    is_asc,
    phrase_measures,
    simulate,
    truncate,
    tunstall_build,
)
from vvcode import measures
from vvcode import dictionary
from vvcode.algebra import MAX_FRONTIER_WORDS
from vvcode.dictionary import DEAD, INTERNAL, TO_DEAD, TO_WORD, Dictionary, member_walk
from vvcode.errors import ResourceBudgetError

FAIR = SourceModel.fair_bit()
BIASED = SourceModel.finite([0.9, 0.1])
SKEWED = SourceModel.finite([0.999, 0.001])
TERNARY = SourceModel.finite([0.5, 0.3, 0.2])
GEOMETRIC = SourceModel.geometric(0.5)


@functools.lru_cache(maxsize=None)
def word_prob(source, word):
    # cached: the deep Tunstall words hold 8.4M symbols
    return source.word_prob(word)


@pytest.fixture(scope="module", autouse=True)
def _clear_word_prob_cache():
    yield
    word_prob.cache_clear()


def per_word_measures(words, source):
    probs = [word_prob(source, w) for w in words]
    mass = math.fsum(probs)
    lbar = math.fsum(p * len(w) for p, w in zip(probs, words))
    h = -math.fsum(p * math.log2(p) for p in probs if p > 0.0)
    return mass, lbar, h


def per_word_member_walk(d, source, depth):
    """dictionary.member_walk with each level's member probabilities
    priced word by word: the members of that length, each by word_prob,
    eagerly up to depth and lazily past it. The levels of a dictionary
    with infinitely many words stay the walk's: its completion sums read
    no member level."""
    levels, more = member_walk(d, source, depth)
    if d.alphabet_size is None or d.max_word_length() is None:
        return levels, more
    by_length = {}
    for w in d.member_words(d.max_word_length()):
        by_length.setdefault(len(w), []).append(w)

    def priced(level):
        j, _, *rest = level
        return (j, [word_prob(source, w) for w in by_length.get(j, [])], *rest)

    return [priced(lv) for lv in levels], map(priced, more)


def per_word_series(d, source, m_max, max_symbol, max_words=None):
    """measures._truncation_series, word by word: each row over truncate's
    sets, the members up to m_max over member_words, and the levels past
    m_max as per_word_member_walk prices them."""
    kw = {} if max_words is None else {"max_words": max_words}
    rows = [
        per_word_measures(truncate(d, m, max_symbol, **kw).d_n_words, source)
        for m in range(1, m_max + 1)
    ]

    def more():
        yield from per_word_member_walk(d, source, m_max)[1]

    return rows, lambda: per_word_measures(d.member_words(m_max), source), more()


def outcome(call):
    """The call's result as comparable data, or the type and message it raised."""
    try:
        r = call()
    except Exception as exc:  # compared with the reference's outcome
        return ("raised", type(exc), str(exc))
    return r.as_dict() if hasattr(r, "as_dict") else r


def reports(d, source, depth, m_max, max_symbol=None):
    return [
        outcome(lambda: check_conservation(d, source, depth)),
        outcome(lambda: phrase_measures(d, source, depth)),
        outcome(lambda: is_asc(d, source, depth)),
        outcome(lambda: d.boundary_mass(depth, source)),
        outcome(lambda: check_truncation_identity(d, source, m_max, max_symbol=max_symbol)),
        outcome(lambda: convergence_scan(d, source, m_max, max_symbol)),
    ]


def assert_walk_matches_per_word(monkeypatch, d, source, depth, m_max, **kw):
    walk = reports(d, source, depth, m_max, **kw)
    calls = []

    def reference_walk(d, source, depth):
        calls.append(d)
        return per_word_member_walk(d, source, depth)

    with monkeypatch.context() as mp:
        mp.setattr(measures, "member_walk", reference_walk)
        mp.setattr(dictionary, "member_walk", reference_walk)
        mp.setattr(measures, "_truncation_series", per_word_series)
        reference = reports(d, source, depth, m_max, **kw)
    # check_conservation, phrase_measures, is_asc and boundary_mass each
    # read the reference: the comparison is not the walk against itself
    assert len(calls) == 4
    assert walk == reference
    assert repr(walk) == repr(reference)
    return walk


@pytest.fixture(scope="module")
def tunstall():
    return {
        (name, size): tunstall_build(source, size)
        for name, source in (("biased", BIASED), ("skewed", SKEWED))
        for size in (256, 4096)
    }


def test_random_word_sets(monkeypatch):
    rng = make_rng(6)
    complete = 0
    for i in range(40):
        k = 2 if i < 30 else 3
        d = random_proper_dictionary(rng, max_depth=7, k=k)
        complete += d.is_complete()
        sources = (FAIR, BIASED) if k == 2 else (TERNARY, GEOMETRIC)
        for source in sources:
            for depth in (1, 3, 8):
                assert_walk_matches_per_word(monkeypatch, d, source, depth, 8)
            if d.is_complete():
                # the rows past the longest word repeat its row; the
                # reference truncates at every m
                assert_walk_matches_per_word(
                    monkeypatch, d, source, 3, d.max_word_length() + 6
                )
    assert 0 < complete < 40  # both kinds were covered


def test_tunstall_past_the_longest_word(monkeypatch):
    d = tunstall_build(BIASED, 64)
    for depth in (1, 64):
        assert_walk_matches_per_word(
            monkeypatch, d, BIASED, depth, d.max_word_length() + 6
        )


@pytest.mark.parametrize("name", ["biased", "skewed"])
@pytest.mark.parametrize("size", [256, 4096])
@pytest.mark.parametrize("depth", [1, 20, 64, 512])
def test_tunstall(monkeypatch, tunstall, name, size, depth):
    source = BIASED if name == "biased" else SKEWED
    assert_walk_matches_per_word(monkeypatch, tunstall[name, size], source, depth, 10)


def test_ternary_tunstall(monkeypatch):
    d = tunstall_build(TERNARY, 81)
    for depth in (1, 4, 64):
        assert_walk_matches_per_word(monkeypatch, d, TERNARY, depth, 8)


def test_finite_dictionary_over_a_geometric_source(monkeypatch):
    d = FiniteDictionary(3, [(0,), (1,), (2, 0), (2, 1), (2, 2, 0), (2, 2, 2)])
    for depth in (1, 2, 3, 64):
        assert_walk_matches_per_word(monkeypatch, d, GEOMETRIC, depth, 6)


@pytest.mark.parametrize("d, source", [
    (RunLengthDictionary(), FAIR),
    (RunLengthDictionary(), BIASED),
    (head_extension(0), GEOMETRIC),
    (head_extension(3), GEOMETRIC),
    (head_extension(3), SourceModel.geometric(0.999999)),
    (extend(head_extension(3), (3, 5)), GEOMETRIC),
], ids=["run-length-fair", "run-length-biased", "head-0", "head-3",
        "head-3-skewed", "nested"])
def test_lazy_families(monkeypatch, d, source):
    for depth in (1, 2, 3, 64):
        assert_walk_matches_per_word(
            monkeypatch, d, source, depth, 6, max_symbol=8
        )


@pytest.mark.parametrize("width", [1, 8, 64])
def test_countable_alphabet_widths(monkeypatch, width):
    d = AlphabetDictionary(None)
    for depth in (1, 64):
        assert_walk_matches_per_word(
            monkeypatch, d, GEOMETRIC, depth, 4, max_symbol=width
        )


def test_word_prob_is_not_called(monkeypatch):
    def refuse(self, word):
        raise AssertionError("word_prob called")

    d = tunstall_build(BIASED, 64)
    monkeypatch.setattr(SourceModel, "word_prob", refuse)
    d.boundary_mass(5, BIASED)
    phrase_measures(d, BIASED, 5)
    phrase_measures(RunLengthDictionary(), BIASED, 5)
    check_truncation_identity(d, BIASED, 8)
    convergence_scan(d, BIASED, 8)
    check_conservation(d, BIASED, 64)


@pytest.mark.parametrize("d", [tunstall_build(BIASED, 256), RunLengthDictionary()],
                         ids=["tunstall-256", "run-length"])
@pytest.mark.parametrize("depth", [1, 64])
def test_each_call_walks_once(monkeypatch, d, depth):
    # the member sums and P(T_depth) come from one walk, and the ASC
    # certificate from the P(T_depth) of that walk
    walks, word_levels = [], dictionary.word_levels

    def counted(*args, **kwargs):
        walks.append(args[0])
        return word_levels(*args, **kwargs)

    monkeypatch.setattr(dictionary, "word_levels", counted)
    for call in (check_conservation, phrase_measures):
        walks.clear()
        call(d, BIASED, depth)
        assert walks == [d]


@pytest.mark.parametrize("d, m_max", [
    (tunstall_build(BIASED, 256), 24),
    (tunstall_build(BIASED, 256), 64),
    (FiniteDictionary(2, [(0,)]), 12),
    (RunLengthDictionary(), 24),
], ids=["tunstall-256-m24", "tunstall-256-m64", "zero", "run-length"])
def test_scan_walks_each_length_once(monkeypatch, d, m_max):
    # the final gaps come from the truncation series' walk: a dictionary
    # with finitely many words walks on from it through the longer members
    # only, and a lazy family takes its completion sums and walks no more
    walks, word_levels = [], dictionary.word_levels

    def counted(*args, **kwargs):
        lengths = []
        walks.append(lengths)
        for level in word_levels(*args, **kwargs):
            lengths.append(level[0])
            yield level

    monkeypatch.setattr(dictionary, "word_levels", counted)
    monkeypatch.setattr(measures, "word_levels", counted)
    convergence_scan(d, BIASED, m_max)
    lengths = [j for walk in walks for j in walk]
    assert len(lengths) == len(set(lengths))
    longest = d.max_word_length()
    if longest is None:
        assert walks == [list(range(1, m_max + 1))]
    else:
        # every length up to the longest word, so the longer members too
        assert set(lengths) >= set(range(1, longest + 1))


def test_scan_gaps_equal_phrase_measures_at_m_max(corpus):
    # the gaps' definition when the scan took them from a second walk,
    # phrase_measures(d, source, m_max), kept bit for bit
    cases = [(d, s, m) for d in corpus for s in (FAIR, BIASED) for m in (1, 3, 8)]
    for d, source in [(tunstall_build(BIASED, 16), BIASED),
                      (tunstall_build(BIASED, 256), BIASED),
                      (tunstall_build(TERNARY, 81), TERNARY)]:
        n = d.max_word_length()
        cases += [(d, source, m) for m in (1, n - 1, n, n + 5)]
    cases += [(RunLengthDictionary(), s, m) for s in (FAIR, BIASED) for m in (1, 24)]
    for d, source, m_max in cases:
        scan = convergence_scan(d, source, m_max)
        pm = phrase_measures(d, source, m_max)
        assert repr(scan.final_h_gap) == repr(abs(pm.entropy.mid - scan.rows[-1].h))
        assert repr(scan.final_lbar_gap) == repr(abs(pm.length.mid - scan.rows[-1].lbar))


def test_scan_prices_t_1_before_the_longer_members():
    # the source lacks symbol 2: the series prices T_1's dead prefix (2,)
    # at m = 1 and raises before any member longer than m_max is walked
    d = FiniteDictionary(3, [(0,), (1, 0), (1, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^word \[2\] has symbols outside alphabet size 2$"):
        convergence_scan(d, BIASED, 1)
    # the longer members alone would name (1, 2)
    with pytest.raises(ValueError, match=r"^word \[1, 2\] has symbols outside"):
        phrase_measures(d, BIASED, 1)


# -- past the longest word: D_m = D ------------------------------------------


class CountedLevels:
    """A word_levels walk that counts its polls and the levels it yields."""

    def __init__(self, levels):
        self.levels, self.polls, self.yielded = levels, 0, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.polls += 1
        level = next(self.levels)
        self.yielded += 1
        return level


@pytest.fixture
def counted_walks(monkeypatch):
    walks = []

    def counted(*args, **kwargs):
        walks.append(CountedLevels(dictionary.word_levels(*args, **kwargs)))
        return walks[-1]

    monkeypatch.setattr(measures, "word_levels", counted)
    return walks


def row_values(row):
    return repr((row.h, row.lbar, row.mass, row.residual, row.ok))


def test_the_walk_stops_once_d_m_is_d(corpus, counted_walks):
    # T_L is empty, so the walk ends at L and rows L, L+1, ... are row L
    tunstall_codes = [tunstall_build(BIASED, 64), tunstall_build(BIASED, 256),
                      tunstall_build(TERNARY, 81)]
    for d in [d for d in corpus if d.is_complete()] + tunstall_codes:
        source = TERNARY if d.alphabet_size == 3 else BIASED
        n = d.max_word_length()
        for m_max in (n, n + 1, 3 * n, 10**4):
            counted_walks.clear()
            rows = check_truncation_identity(d, source, m_max).rows
            [walk] = counted_walks
            assert walk.yielded == n
            assert walk.polls == n + (m_max > n)
            assert [r.m for r in rows] == list(range(1, m_max + 1))
            assert {row_values(r) for r in rows[n - 1:]} == {row_values(rows[n - 1])}
            if n > 1:
                assert row_values(rows[n - 2]) != row_values(rows[n - 1])
        counted_walks.clear()
        scan = convergence_scan(d, source, 3 * n)
        assert counted_walks[0].yielded == n
        assert {(r.h, r.lbar) for r in scan.rows[n - 1:]} == {
            (scan.rows[n - 1].h, scan.rows[n - 1].lbar)
        }


def test_the_walk_goes_on_while_a_prefix_is_dead(corpus, counted_walks):
    # {0} and the corpus's other non-complete dictionaries: a dead prefix
    # has extensions of every length, so T_m is never empty, and
    # lbar(D_m) - lbar(D_(m-1)) = P(T_(m-1)) > 0
    for d in [d for d in corpus if not d.is_complete()]:
        for source in (FAIR, BIASED):
            for m_max in (1, 5, 12):
                counted_walks.clear()
                rows = check_truncation_identity(d, source, m_max).rows
                assert counted_walks[0].yielded == counted_walks[0].polls == m_max
                assert all(b.lbar > a.lbar for a, b in zip(rows, rows[1:]))
    counted_walks.clear()
    rows = check_truncation_identity(FiniteDictionary(2, [(0,)]), BIASED, 20).rows
    assert counted_walks[0].yielded == 20
    assert len({row_values(r) for r in rows}) == 20


# -- the walk raises what the per-word evaluation raises ---------------------


def test_unused_symbol_is_priced_only_when_a_word_takes_it(monkeypatch):
    d = FiniteDictionary(3, [(0,), (1,)])  # no word uses symbol 2
    assert check_conservation(d, FAIR).verdict == "pass"
    walk = assert_walk_matches_per_word(monkeypatch, d, FAIR, 64, 3)
    # T_1 = {2}: the truncation series has to price it
    assert walk[4] == ("raised", ValueError, "word [2] has symbols outside alphabet size 2")
    with pytest.raises(ValueError, match=r"^word \[2\] has symbols outside"):
        check_truncation_identity(d, FAIR, 3)


def test_member_walk_over_a_wide_alphabet():
    # {0, 1} over 10^12 symbols: a member walk takes the listed edges only,
    # so no table of the alphabet's symbols is built
    d = FiniteDictionary(10**12, [(0,), (1,)])
    r = check_conservation(d, FAIR)
    assert r.verdict == "pass"
    assert (r.h_d_low, r.h_d_high, r.lbar_low, r.lbar_high) == (1.0, 1.0, 1.0, 1.0)
    assert is_asc(d, FAIR, 64).status == "certified_asc"
    assert simulate(d, FAIR, 100).theory_lbar == 1.0


WIDE = FiniteDictionary(3, [(0,), (1, 0), (1, 1), (1, 2, 0), (1, 2, 1), (1, 2, 2)])


def test_p_t_depth_refuses_only_the_members_up_to_depth(monkeypatch):
    # the fair bit lacks symbol 2: the live prefix (1, 2) has mass 0, and
    # the first member through it, (1, 2, 0), has length 3
    v = is_asc(WIDE, FAIR, 1)
    assert (v.status, repr(v.residual_mass)) == ("undetermined", "0.5")
    v = is_asc(WIDE, FAIR, 2)
    assert (v.status, repr(v.residual_mass)) == ("certified_asc", "0.0")
    unpriced = r"^word \[1, 2, 0\] has symbols outside alphabet size 2$"
    with pytest.raises(ValueError, match=unpriced):
        is_asc(WIDE, FAIR, 3)
    # the whole dictionary's sums take every member, at any depth
    for depth in (1, 2, 3):
        with pytest.raises(ValueError, match=unpriced):
            phrase_measures(WIDE, FAIR, depth)
    # D_1 holds the symbol 2
    with pytest.raises(ValueError, match=r"^word \[2\] has symbols outside alphabet size 2$"):
        convergence_scan(WIDE, FAIR, 4)
    for depth in (1, 2, 3):
        assert_walk_matches_per_word(monkeypatch, WIDE, FAIR, depth, 4)


def test_frontier_budget_comes_before_the_unpriced_symbol(monkeypatch):
    # D_1 = {0, 1, 2} over a fair bit: T_1's two dead prefixes pass a
    # budget of 1 while the walk builds D_1, before the series names (2,)
    d = FiniteDictionary(3, [(0,)])
    want = ("raised", ResourceBudgetError, "frontier at depth 1 exceeds max_words=1")
    assert outcome(lambda: truncate(d, 1, max_words=1)) == want
    monkeypatch.setattr(measures, "MAX_FRONTIER_WORDS", 1)
    assert outcome(lambda: check_truncation_identity(d, FAIR, 3)) == want
    monkeypatch.setattr(measures, "MAX_FRONTIER_WORDS", 2)
    with pytest.raises(ValueError, match=r"^word \[2\] has symbols outside alphabet size 2$"):
        check_truncation_identity(d, FAIR, 3)


def test_first_unpriced_word_is_named(monkeypatch):
    # the shortest, then lexicographically least, word through symbol 2
    d = FiniteDictionary(3, [(0, 0), (0, 1), (1,), (2, 1), (0, 2, 1), (2, 0, 2)])
    for depth in (1, 2, 3):
        walk = assert_walk_matches_per_word(monkeypatch, d, FAIR, depth, 3)
        assert walk[0][0] == "raised"


def test_width_that_misses_the_extension_word(monkeypatch):
    # the measures need no width; truncation and scan enumerate within it
    d = head_extension(70)
    want = ("raised", ResourceBudgetError,
            "width budget 64 does not cover extension word [70]")
    walk = assert_walk_matches_per_word(monkeypatch, d, GEOMETRIC, 3, 3, max_symbol=64)
    assert walk[0]["verdict"] == "pass"
    assert walk[1].tails_exact and walk[1].length.high < math.inf
    assert walk[4:] == [want, want]


def test_frontier_budget():
    d = FiniteDictionary(2, [(0,) * 30])
    with pytest.raises(ResourceBudgetError) as exc:
        check_truncation_identity(d, FAIR, 21)
    assert str(exc.value) == "frontier at depth 20 exceeds max_words=1000000"
    # the 16 words of length 4 leave 4 live prefixes of length 2: the walk
    # passes a budget of 3 while it builds that level
    d = FiniteDictionary(2, list(itertools.product((0, 1), repeat=4)))
    with pytest.raises(ResourceBudgetError) as exc:
        list(dictionary.word_levels(d, FAIR, 2, 3))
    assert str(exc.value) == "frontier at depth 2 exceeds max_words=3"


def test_countable_alphabet_needs_a_width(monkeypatch):
    # only truncation and scan enumerate symbols; the measures need no width
    d = AlphabetDictionary(None)
    want = ("raised", ResourceBudgetError,
            "width budget required to enumerate over a countable alphabet")
    walk = assert_walk_matches_per_word(monkeypatch, d, GEOMETRIC, 3, 3, max_symbol=None)
    assert walk[0]["verdict"] == "pass"
    assert walk[1].tails_exact and walk[1].length.high < math.inf
    assert walk[4:] == [want, want]


# -- T_m's dead prefixes, walked as P -> count -------------------------------


def non_complete(rng, k, max_depth, n):
    out = []
    while len(out) < n:
        d = random_proper_dictionary(rng, max_depth=max_depth, k=k)
        if not d.is_complete():
            out.append(d)
    return out


@pytest.mark.parametrize("source", [FAIR, BIASED, SKEWED], ids=["fair", "biased", "skewed"])
def test_one_word_dictionary_is_nearly_all_dead_zone(monkeypatch, source):
    # T_m is the 2^(m-1) strings that start with 1, every one of them dead
    d = FiniteDictionary(2, [(0,)])
    for depth in (1, 16):
        assert_walk_matches_per_word(monkeypatch, d, source, depth, 16)


def test_deep_dead_zones_of_random_dictionaries(monkeypatch):
    rng = make_rng(13)
    for d in non_complete(rng, 2, 4, 8):
        for source in (FAIR, BIASED):
            assert_walk_matches_per_word(monkeypatch, d, source, 3, 12)
    for d in non_complete(rng, 3, 3, 6):
        for source in (TERNARY, GEOMETRIC):
            assert_walk_matches_per_word(monkeypatch, d, source, 3, 7)


class CountableRunLength(Dictionary):
    """{0, 10, 110, ...} over a countable alphabet: every symbol >= 2
    leads out of the dictionary."""

    def __init__(self):
        self.transitions = [{1: 0, 0: TO_WORD}]
        self.defaults = [TO_DEAD]


@pytest.mark.parametrize("width", [3, 5])
def test_dead_zone_over_a_countable_alphabet(monkeypatch, width):
    d = CountableRunLength()
    assert d.classify((2,)) == DEAD
    for depth in (1, 6):
        assert_walk_matches_per_word(
            monkeypatch, d, GEOMETRIC, depth, 6, max_symbol=width
        )


def test_dead_prefix_the_source_cannot_price(monkeypatch):
    # symbol 2 is outside the fair source's alphabet, and here it leads
    # only into dead prefixes: every row raises word_prob's error
    rng = make_rng(14)
    for d in non_complete(rng, 3, 3, 6):
        walk = assert_walk_matches_per_word(monkeypatch, d, FAIR, 2, 5)
        assert walk[4][0] == "raised"
    d = FiniteDictionary(3, [(0,), (1, 0)])  # (2,) and (1, 2) are dead
    walk = assert_walk_matches_per_word(monkeypatch, d, FAIR, 2, 5)
    assert walk[4] == ("raised", ValueError, "word [2] has symbols outside alphabet size 2")


def test_frontier_budget_in_the_dead_zone():
    d = FiniteDictionary(2, [(0,)])
    want = ("raised", ResourceBudgetError,
            "frontier at depth 21 exceeds max_words=1000000")
    assert outcome(lambda: truncate(d, 21)) == want
    assert outcome(lambda: check_truncation_identity(d, FAIR, 21)) == want
    assert outcome(lambda: convergence_scan(d, BIASED, 21)) == want
    assert check_truncation_identity(d, FAIR, 20).all_ok


@pytest.mark.parametrize("budget", [40, 300, 2000])
def test_frontier_budget_at_the_depth_truncate_raises(monkeypatch, budget):
    def budgeted_series(d, source, m_max, max_symbol):
        return per_word_series(d, source, m_max, max_symbol, max_words=budget)

    monkeypatch.setattr(measures, "MAX_FRONTIER_WORDS", budget)
    rng = make_rng(15)
    raised = 0
    for d in non_complete(rng, 2, 5, 10) + [FiniteDictionary(2, [(0,)])]:
        def run():
            return [
                outcome(lambda: check_truncation_identity(d, BIASED, 14)),
                outcome(lambda: convergence_scan(d, BIASED, 14)),
            ]

        walk = run()
        with monkeypatch.context() as mp:
            mp.setattr(measures, "_truncation_series", budgeted_series)
            reference = run()
        assert walk == reference
        assert repr(walk) == repr(reference)
        raised += isinstance(walk[0], tuple)
    assert raised  # the budget was reached


# -- each level against truncate's sets ---------------------------------------


def priced(source, w):
    """P(w) as a walk reaches it: word_prob's, or 0.0 through a symbol that
    a finite source lacks."""
    n = source.alphabet_size
    return 0.0 if n is not None and max(w) >= n else word_prob(source, w)


def oracle_level(d, source, j, max_symbol, budget, frontier):
    """Level j of a walk, word by word: the members of length j, the
    INTERNAL words of truncate's T_j with their automaton states and, in a
    frontier walk, the DEAD ones as P -> count."""
    t_j = truncate(d, j, max_symbol, max_words=budget).t_n
    members = [w for w in d.member_words(j, max_symbol) if len(w) == j]
    live = [w for w in t_j if d.classify(w) == INTERNAL]
    dead = [w for w in t_j if d.classify(w) == DEAD] if frontier else []
    return (
        sorted(priced(source, w) for w in members),
        sorted((priced(source, w), d.entry_after(w)) for w in live),
        Counter(priced(source, w) for w in dead),
    )


def assert_levels_match(walk, d, source, max_symbol, levels, budget, frontier):
    """The walk's first `levels` levels equal the oracle's as multisets, an
    ended walk's as empty ones; the walk raises the budget error at the
    first length where truncate does."""
    for j in range(1, levels + 1):
        try:
            want = oracle_level(d, source, j, max_symbol, budget, frontier)
        except ResourceBudgetError as exc:
            with pytest.raises(ResourceBudgetError, match=f"^{re.escape(str(exc))}$"):
                next(walk)
            return
        got = next(walk, None)
        if got is None:
            assert want == ([], [], Counter())
        else:
            i, probs, live_probs, live_states, dead = got
            assert (i, sorted(probs), sorted(zip(live_probs, live_states)), dead) == (j, *want)


LEVEL_CASES = [
    (tunstall_build(BIASED, 64), BIASED, None, 31),
    (tunstall_build(TERNARY, 81), TERNARY, None, 8),
    (RunLengthDictionary(), BIASED, None, 12),
    (head_extension(0), GEOMETRIC, 4, 4),
    (extend(head_extension(3), (3, 5)), GEOMETRIC, 8, 5),
    (FiniteDictionary(5, [(0,), (4, 1)]), FAIR, None, 6),
]


def assert_walks_match(d, source, max_symbol, levels, budget):
    """The frontier walk at d's width and, over a finite alphabet, the
    member walk, each against the oracle."""
    walk = dictionary.word_levels(d, source, d.member_width(max_symbol), budget)
    assert_levels_match(walk, d, source, max_symbol, levels, budget, True)
    if d.alphabet_size is not None:
        walk = dictionary.word_levels(d, source)
        assert_levels_match(walk, d, source, None, levels, MAX_FRONTIER_WORDS, False)


@pytest.mark.parametrize("budget", [MAX_FRONTIER_WORDS, 40])
@pytest.mark.parametrize("d, source, max_symbol, levels", LEVEL_CASES, ids=[
    "tunstall-64", "ternary-tunstall-81", "run-length", "head-0-width-4",
    "nested", "unpriced-symbols"])
def test_levels_against_truncate(d, source, max_symbol, levels, budget):
    assert_walks_match(d, source, max_symbol, levels, budget)


@pytest.mark.parametrize("budget", [MAX_FRONTIER_WORDS, 40])
def test_corpus_levels_against_truncate(corpus, budget):
    for i, d in enumerate(corpus):
        assert_walks_match(d, (FAIR, BIASED)[i % 2], None, d.max_word_length() + 2, budget)


def copies(x, c):
    return [x * f for f in measures._powers(c)]


def reference_powers(c):
    return [2.0**i for i in range(c.bit_length()) if c >> i & 1]


def test_powers_of_every_count_below_2_14():
    for c in range(2**14):
        assert measures._powers(c) == reference_powers(c)


@settings(max_examples=500, deadline=None)
@given(c=st.integers(0, 2**62 - 1))
@example(c=2**62 - 1)
@example(c=2**61)
def test_powers_of_large_counts(c):
    assert measures._powers(c) == reference_powers(c)


# The sums take the copies among other terms, so each copy must be exact:
# a single rounded x*c would equal fsum([x] * c) alone but not beside y.
@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-1.0, max_value=64.0),
    c=st.integers(1, 5000),
    y=st.floats(min_value=-64.0, max_value=64.0),
)
@example(x=0.0, c=3, y=0.0)
@example(x=5e-324, c=4095, y=0.0)
@example(x=2.2250738585072014e-308, c=77, y=-0.0)  # the least normal float
@example(x=0.1, c=3, y=-0.30000000000000004)
@example(x=0.1, c=1, y=1.0)
def test_copies_sum_like_the_repeated_term(x, c, y):
    assert repr(math.fsum(copies(x, c))) == repr(math.fsum([x] * c))
    assert repr(math.fsum(copies(x, c) + [y])) == repr(math.fsum([x] * c + [y]))
    assert len(copies(x, c)) == bin(c).count("1")


@pytest.mark.parametrize("c", [2**20 - 1, 2**20, 2**20 + 1, 1_000_000])
@pytest.mark.parametrize("x", [0.1, 1 / 3, 5e-324, 0.9**17, -0.4689955935892812])
def test_copies_near_the_frontier_budget(x, c):
    for y in (0.0, -x * c, 1.0):
        assert repr(math.fsum(copies(x, c) + [y])) == repr(math.fsum([x] * c + [y]))
