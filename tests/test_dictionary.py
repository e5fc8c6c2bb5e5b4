"""Dictionary construction, properness/completeness/ASC, and parsing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_proper_dictionary, make_rng
from vvcode import (
    AlphabetDictionary,
    Dictionary,
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    find_prefix_violation,
    head_extension,
    is_asc,
    is_complete,
    is_proper,
    parse,
    phrase_measures,
    tunstall_build,
)
from vvcode.dictionary import DEAD, INTERNAL, WORD, ExtendedDictionary
from vvcode.errors import ImproperDictionaryError, SymbolTypeError, UnsupportedOperationError


def test_properness_examples(complete_dict, run_length):
    assert is_proper(complete_dict)
    assert is_proper(run_length)
    assert not is_proper([(0,), (0, 1)])


def test_construction_rejects_prefix_pair():
    with pytest.raises(ImproperDictionaryError) as exc:
        FiniteDictionary(2, [(0,), (0, 1)])
    assert "[0]" in str(exc.value) and "[0, 1]" in str(exc.value)
    assert exc.value.prefix_word == (0,)
    assert exc.value.longer_word == (0, 1)


def test_construction_rejects_bad_words():
    with pytest.raises(ValueError):
        FiniteDictionary(2, [])
    with pytest.raises(ValueError):
        FiniteDictionary(2, [()])
    with pytest.raises(ValueError):
        FiniteDictionary(2, [(0,), (2,)])
    with pytest.raises(ValueError):
        FiniteDictionary(2, [(0,), (0,)])


def test_word_that_is_not_a_sequence_is_refused():
    with pytest.raises(SymbolTypeError, match=r"^word 0 is not a sequence of symbols$"):
        FiniteDictionary(2, [0])
    with pytest.raises(SymbolTypeError, match=r"^word 1 is not a sequence of symbols$"):
        FiniteDictionary(2, iter([(0,), 1]))


def test_lazy_constructions_reject_bad_arguments():
    with pytest.raises(ValueError, match=r"^alphabet size must be >= 1$"):
        AlphabetDictionary(0)
    with pytest.raises(ValueError, match=r"^head symbol must be a non-negative index$"):
        head_extension(-1)
    # extend() checks the word first; the class checks it again on its own
    msg = r"^extension word \[1\] is not in the dictionary$"
    with pytest.raises(ValueError, match=msg):
        ExtendedDictionary(RunLengthDictionary(), (1,))


def test_words_in_canonical_order():
    d = FiniteDictionary(2, [(1, 1), (0,), (1, 0)])
    assert d.words == ((0,), (1, 0), (1, 1))


@pytest.mark.parametrize("build", [
    lambda: FiniteDictionary(2, [(1, 1, 0), (0,), (1, 0), (1, 1, 1)]),
    lambda: tunstall_build(SourceModel.finite([0.9, 0.1]), 64),
], ids=["words", "trie"])
def test_a_finite_dictionary_keeps_only_its_trie_and_words(build):
    d = build()
    assert set(vars(d)) == {"alphabet_size", "transitions", "defaults", "words"}
    assert not any(isinstance(v, (set, frozenset)) for v in vars(d).values())
    longest = max(map(len, d.words))
    assert d.max_word_length() == longest == Dictionary.max_word_length(d)


def test_completeness_examples(complete_dict):
    assert is_complete(complete_dict)
    assert not is_complete(FiniteDictionary(2, [(0,), (1, 0)]))
    assert is_complete(FiniteDictionary(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    with pytest.raises(UnsupportedOperationError):
        is_complete(RunLengthDictionary())
    with pytest.raises(ValueError):
        is_complete(complete_dict, alphabet_size=3)


def test_is_asc_run_length(fair, run_length):
    v = is_asc(run_length, fair, depth_budget=64, tol=1e-9)
    assert v.certified
    assert v.residual_mass == pytest.approx(2.0**-64, rel=1e-12)


def test_is_asc_complete_dictionary(fair, complete_dict):
    v = is_asc(complete_dict, fair, depth_budget=4, tol=1e-9)
    assert v.certified
    assert v.residual_mass == 0.0


def test_is_asc_undetermined(fair):
    v = is_asc(FiniteDictionary(2, [(0,)]), fair, depth_budget=20, tol=1e-9)
    assert v.status == "undetermined"
    assert v.residual_mass == pytest.approx(0.5, abs=1e-15)


def test_parse_examples(complete_dict, run_length):
    phrases, rem = parse(complete_dict, [0, 1, 1, 1, 0, 0])
    assert phrases == [(0,), (1, 1), (1, 0), (0,)]
    assert rem == ()
    phrases, rem = parse(complete_dict, [1])
    assert phrases == [] and rem == (1,)
    phrases, rem = parse(run_length, [1, 1, 0, 0, 1, 0])
    assert phrases == [(1, 1, 0), (0,), (1, 0)]
    assert rem == ()


def test_parse_dead_prefix_absorbed():
    d = FiniteDictionary(2, [(0,)])
    phrases, rem = parse(d, [1, 0, 0])
    assert phrases == [] and rem == (1, 0, 0)
    phrases, rem = parse(d, [0, 1, 0])
    assert phrases == [(0,)] and rem == (1, 0)
    assert parse(d, []) == ([], ())


@given(seed=st.integers(0, 2**32), stream_seed_=st.integers(0, 2**32),
       length=st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_parse_round_trip_property(seed, stream_seed_, length):
    d = random_proper_dictionary(make_rng(seed))
    stream = SourceModel.fair_bit().sample_stream(stream_seed_, length)
    phrases, rem = parse(d, stream)
    flat = [s for ph in phrases for s in ph] + list(rem)
    assert flat == list(stream)
    assert set(phrases) <= set(d.words)


def test_run_length_enumeration(run_length):
    assert run_length.member_words(5) == [
        (0,), (1, 0), (1, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1, 0)
    ]
    assert run_length.classify((1, 1)) == INTERNAL
    assert run_length.classify((1, 0)) == WORD
    assert run_length.classify((1, 0, 0)) == DEAD
    assert run_length.classify((2,)) == DEAD
    assert run_length.max_word_length() is None


def test_head_extension_structure():
    he = head_extension(0)
    assert he.member_words(2, max_symbol=4) == [
        (1,), (2,), (3,), (0, 0), (0, 1), (0, 2), (0, 3)
    ]
    assert he.classify((0,)) == INTERNAL
    assert he.classify((5,)) == WORD
    assert he.classify((0, 9)) == WORD
    assert he.classify((0, 1, 2)) == DEAD
    assert he.classify((3, 1)) == DEAD
    assert he.max_word_length() == 2


def test_alphabet_dictionary_finite_and_countable():
    fin = AlphabetDictionary(3)
    assert fin.member_words(1) == [(0,), (1,), (2,)]
    assert fin.classify((2,)) == WORD
    assert fin.classify((3,)) == DEAD
    inf = AlphabetDictionary(None)
    assert inf.member_words(1, max_symbol=3) == [(0,), (1,), (2,)]
    assert inf.classify((1000,)) == WORD


def test_boundary_mass_matches_enumeration(run_length, geometric_half):
    # the members up to depth and T_depth split the length-depth strings;
    # symbol 2 leads out of run-length, so its mass is dead
    tri = SourceModel.finite([0.5, 0.25, 0.25])
    for depth in (1, 3, 7):
        enum = math.fsum(
            tri.word_prob(w) for w in run_length.member_words(depth)
        )
        assert run_length.boundary_mass(depth, tri) == pytest.approx(
            1.0 - enum, rel=1e-12)
    he = head_extension(0)
    # closed form says total mass 1 at depth 2; enumeration approaches it
    assert he.boundary_mass(2, geometric_half) == 0.0
    enum = math.fsum(
        geometric_half.word_prob(w) for w in he.member_words(2, max_symbol=40)
    )
    assert enum == pytest.approx(1.0, abs=1e-11)


def test_boundary_mass_run_length_biased(run_length, biased):
    for m in (1, 2, 10, 64):
        assert run_length.boundary_mass(m, biased) == pytest.approx(
            0.1**m, rel=1e-9, abs=1e-300
        )


def test_boundary_mass_nonincreasing(corpus, fair):
    for d in corpus[:40]:
        masses = [d.boundary_mass(m, fair) for m in range(1, 12)]
        assert all(b <= a + 1e-15 for a, b in zip(masses, masses[1:]))


def assert_whole_sums(d, source, words):
    """d's measures are the sums over words, to a relative 1e-12."""
    pm = phrase_measures(d, source, 6)
    probs = [source.word_prob(w) for w in words]
    want = (
        math.fsum(probs),
        math.fsum(p * len(w) for p, w in zip(probs, words)),
        -math.fsum(p * math.log2(p) for p in probs if p > 0.0),
    )
    for got, w in zip((pm.mass, pm.length, pm.entropy), want):
        assert got.low == got.high == pytest.approx(w, rel=1e-12)


def test_tail_stats_run_length_series_oracle(run_length, biased):
    assert_whole_sums(run_length, biased, [(1,) * k + (0,) for k in range(340)])


def test_tail_stats_head_extension_enumeration_oracle(geometric_half):
    # every word through a symbol past 1100 has P < 2^-1100, below a double
    he = head_extension(0)
    assert_whole_sums(he, geometric_half, he.member_words(2, max_symbol=1100))


def test_kraft_mass_identity_for_certified_asc(corpus, fair):
    # certified dictionaries cover essentially all mass at the certification
    # depth (the empty-prefix case of the cone-mass identity)
    for d in corpus:
        v = is_asc(d, fair, depth_budget=16, tol=1e-9)
        if v.certified:
            covered = math.fsum(fair.word_prob(w) for w in d.member_words(16))
            assert covered >= 1.0 - 1e-9


def test_find_prefix_violation_none_for_proper(complete_dict):
    assert find_prefix_violation(complete_dict.words) is None
    assert find_prefix_violation([(1, 0), (1,)]) == ((1,), (1, 0))


def test_lazy_enumeration_monotone(run_length):
    # members of length <= n are stable as the budget grows
    he = head_extension(0)
    for n in range(1, 7):
        assert run_length.member_words(n) == [
            w for w in run_length.member_words(n + 1) if len(w) <= n
        ]
        assert he.member_words(n, max_symbol=6) == [
            w for w in he.member_words(n + 1, max_symbol=6) if len(w) <= n
        ]
