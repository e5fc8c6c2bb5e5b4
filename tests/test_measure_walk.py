"""The measure sums walk the automaton; they must keep every bit of a
word-by-word evaluation.

The reference below prices each word with SourceModel.word_prob and sums
with math.fsum over member_words (the partial sums and a finite
dictionary's tails) and over truncate(...).d_n_words (the truncation
series). Patched in, it yields the reports a per-word implementation
gives, and the walk's reports must equal them exactly: compared with ==
and by repr, so that even the sign of a zero counts.
"""

import functools
import math

import pytest

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
    phrase_measures,
    truncate,
    tunstall_build,
)
from vvcode import measures
from vvcode.dictionary import Dictionary, TailStats
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


def per_word_member_measures(self, depth, width, source):
    return per_word_measures(self.member_words(depth, width), source)


def per_word_tail_stats(self, depth, width, source):
    rest = [w for w in self.words if len(w) > depth]
    if not rest:
        return TailStats.zero()
    return TailStats.exact(*per_word_measures(rest, source))


def per_word_series(d, source, m_max, max_symbol):
    for m in range(1, m_max + 1):
        fs = truncate(d, m, max_symbol, materialize=False)
        yield m, per_word_measures(fs.d_n_words, source)


def outcome(call):
    """The call's result as comparable data, or the type and message it raised."""
    try:
        r = call()
    except Exception as exc:  # compared with the reference's outcome
        return ("raised", type(exc), str(exc))
    return r.as_dict() if hasattr(r, "as_dict") else r


def reports(d, source, depth, m_max, width=64, max_symbol=None):
    return [
        outcome(lambda: check_conservation(d, source, depth, width=width)),
        outcome(lambda: phrase_measures(d, source, depth, width)),
        outcome(lambda: check_truncation_identity(d, source, m_max, max_symbol=max_symbol)),
        outcome(lambda: convergence_scan(d, source, m_max, max_symbol, width)),
    ]


def assert_walk_matches_per_word(monkeypatch, d, source, depth, m_max, **kw):
    walk = reports(d, source, depth, m_max, **kw)
    with monkeypatch.context() as mp:
        mp.setattr(Dictionary, "member_measures", per_word_member_measures)
        mp.setattr(FiniteDictionary, "tail_stats", per_word_tail_stats)
        mp.setattr(measures, "_truncation_series", per_word_series)
        reference = reports(d, source, depth, m_max, **kw)
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
    assert 0 < complete < 40  # both kinds were covered


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
            monkeypatch, d, source, depth, 6, width=8, max_symbol=8
        )


@pytest.mark.parametrize("width", [1, 8, 64])
def test_countable_alphabet_widths(monkeypatch, width):
    d = AlphabetDictionary(None)
    for depth in (1, 64):
        assert_walk_matches_per_word(
            monkeypatch, d, GEOMETRIC, depth, 4, width=width, max_symbol=width
        )


def test_word_prob_is_not_called(monkeypatch):
    def refuse(self, word):
        raise AssertionError("word_prob called")

    d = tunstall_build(BIASED, 64)
    monkeypatch.setattr(SourceModel, "word_prob", refuse)
    d.covered_mass(5, BIASED)
    d.boundary_mass(5, BIASED)
    d.tail_stats(5, None, BIASED)
    phrase_measures(d, BIASED, 5)
    phrase_measures(RunLengthDictionary(), BIASED, 5)
    check_truncation_identity(d, BIASED, 8)
    convergence_scan(d, BIASED, 8)
    check_conservation(d, BIASED, 64)


# -- the walk raises what the per-word evaluation raises ---------------------


def test_unused_symbol_is_priced_only_when_a_word_takes_it(monkeypatch):
    d = FiniteDictionary(3, [(0,), (1,)])  # no word uses symbol 2
    assert check_conservation(d, FAIR).verdict == "pass"
    walk = assert_walk_matches_per_word(monkeypatch, d, FAIR, 64, 3)
    # T_1 = {2}: the truncation series has to price it
    assert walk[2] == ("raised", ValueError, "word [2] has symbols outside alphabet size 2")
    with pytest.raises(ValueError, match=r"^word \[2\] has symbols outside"):
        check_truncation_identity(d, FAIR, 3)


def test_first_unpriced_word_is_named(monkeypatch):
    # the shortest, then lexicographically least, word through symbol 2
    d = FiniteDictionary(3, [(0, 0), (0, 1), (1,), (2, 1), (0, 2, 1), (2, 0, 2)])
    for depth in (1, 2, 3):
        walk = assert_walk_matches_per_word(monkeypatch, d, FAIR, depth, 3)
        assert walk[0][0] == "raised"


def test_width_that_misses_the_extension_word(monkeypatch):
    d = head_extension(70)
    want = ("raised", ResourceBudgetError,
            "width budget 64 does not cover extension word [70]")
    walk = assert_walk_matches_per_word(
        monkeypatch, d, GEOMETRIC, 3, 3, width=64, max_symbol=64
    )
    assert walk[1:] == [want, want, want]


def test_frontier_budget():
    d = FiniteDictionary(2, [(0,) * 30])
    with pytest.raises(ResourceBudgetError) as exc:
        check_truncation_identity(d, FAIR, 21)
    assert str(exc.value) == "frontier at depth 20 exceeds max_words=1000000"


def test_countable_alphabet_needs_a_width(monkeypatch):
    d = AlphabetDictionary(None)
    want = ("raised", ResourceBudgetError,
            "width budget required to enumerate over a countable alphabet")
    walk = assert_walk_matches_per_word(
        monkeypatch, d, GEOMETRIC, 3, 3, width=None, max_symbol=None
    )
    assert walk == [want, want, want, want]
