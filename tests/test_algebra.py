"""Frontier sets, extensions, cones, chains, and the structural
identities between them, checked against brute-force enumeration oracles."""

import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_proper_dictionary
from vvcode import (
    AlphabetDictionary,
    ExtensionChain,
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    chain_step,
    check_truncation_identity,
    cone,
    cone_mass_bounds,
    convergence_scan,
    extend,
    head_extension,
    is_asc,
    is_complete,
    truncate,
    uncovered_frontier,
)
from vvcode.errors import ConeHypothesisError, ResourceBudgetError


def brute_frontier(d, n, max_symbol=None):
    """Oracle: filter all of range(width)^n against the member list, the
    width being the alphabet's size or max_symbol."""
    members = d.member_words(n, max_symbol)
    width = d.alphabet_size or max_symbol
    out = []
    for tup in itertools.product(range(width), repeat=n):
        if not any(tup[: len(w)] == w for w in members):
            out.append(tup)
    return sorted(out, key=lambda w: (len(w), w))


def brute_cone(d, beta):
    return sorted(
        (w for w in d.words if w[: len(beta)] == beta),
        key=lambda w: (len(w), w),
    )


def test_truncate_run_length_example(run_length):
    fs = truncate(run_length, 3)
    assert fs.t_n == ((1, 1, 1),)
    assert fs.d_n_perp == ((1, 1, 0), (1, 1, 1))
    assert fs.d_n_words == ((0,), (1, 0), (1, 1, 0), (1, 1, 1))
    assert fs.exhaustive
    assert is_complete(fs.d_n)


def test_truncate_depth_one_is_alphabet(complete_dict):
    fs = truncate(complete_dict, 1)
    assert fs.t_n == ((1,),)
    assert fs.d_n_perp == ((0,), (1,))
    assert fs.d_n_words == ((0,), (1,))


def test_truncate_beyond_max_depth(complete_dict):
    fs = truncate(complete_dict, 5)
    assert fs.t_n == ()
    assert fs.d_n_words == complete_dict.words


def test_truncate_zero_dictionary(fair):
    d = FiniteDictionary(2, [(0,)])
    assert truncate(d, 2).t_n == ((1, 0), (1, 1))
    fs = truncate(d, 3)
    assert fs.t_n == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))
    assert is_complete(fs.d_n)


def test_truncate_rejects_bad_depth(complete_dict):
    with pytest.raises(ValueError):
        truncate(complete_dict, 0)


def test_truncate_matches_brute_force(corpus):
    for d in corpus[:30]:
        for m in range(1, 7):
            assert list(truncate(d, m).t_n) == brute_frontier(d, m)


# finite alphabets, and countable ones with the symbol budget every member
# of the extension words needs
LAZY_FAMILIES = [
    (RunLengthDictionary(), None),
    (AlphabetDictionary(3), None),
    (AlphabetDictionary(None), 3),
    (head_extension(1), 3),
    (extend(RunLengthDictionary(), (1, 1, 0)), None),
    (extend(extend(RunLengthDictionary(), (1, 0)), (1, 0, 0)), None),
    (extend(extend(head_extension(0), (0, 2)), (0, 2, 1)), 3),
]


@st.composite
def frontier_cases(draw):
    """(dictionary, depth, max_symbol): a random finite dictionary over 2 or
    3 symbols, with dead zones and complete ones, or a lazy family."""
    if draw(st.booleans()):
        rng = make_rng(draw(st.integers(1, 2**32)))
        d, max_symbol = random_proper_dictionary(rng, k=draw(st.integers(2, 3))), None
    else:
        d, max_symbol = draw(st.sampled_from(LAZY_FAMILIES))
    return d, draw(st.integers(1, 6)), max_symbol


@settings(max_examples=150, deadline=None)
@given(case=frontier_cases())
def test_frontier_walk_matches_brute_force(case):
    d, n, max_symbol = case
    t_n = brute_frontier(d, n, max_symbol)
    words, exhaustive = uncovered_frontier(d, n, max_symbol, max_words=len(t_n))
    assert words == t_n
    assert exhaustive == (d.alphabet_size is not None)
    if t_n:  # the budget bounds |T_n| exactly
        budget = len(t_n) - 1
        msg = f"^frontier at depth {n} exceeds max_words={budget}$"
        with pytest.raises(ResourceBudgetError, match=msg):
            uncovered_frontier(d, n, max_symbol, max_words=budget)
        with pytest.raises(ResourceBudgetError, match=msg):
            truncate(d, n, max_symbol, max_words=budget)
    members = d.member_words(n, max_symbol)
    fs = truncate(d, n, max_symbol, max_words=len(t_n))
    assert fs.t_n == tuple(t_n)
    assert fs.d_n_perp == tuple(sorted(
        [w for w in members if len(w) == n] + t_n, key=lambda w: (len(w), w)
    ))
    assert fs.d_n_words == tuple(sorted(members + t_n, key=lambda w: (len(w), w)))
    assert fs.exhaustive == (d.alphabet_size is not None)
    if d.alphabet_size is None:
        assert fs.d_n is None
    else:
        assert fs.d_n.words == fs.d_n_words and is_complete(fs.d_n)


def test_truncation_dictionary_is_built_once_on_first_use(run_length):
    fs = truncate(run_length, 4)
    assert "d_n" not in vars(fs)
    assert fs.d_n is fs.d_n
    assert fs.d_n.words == fs.d_n_words


def test_truncate_needs_the_extension_word_in_the_width():
    # the frontier walk takes symbols below the width alone, but the
    # members need the extension word (5,) in it, as member_words does
    d = head_extension(5)
    assert uncovered_frontier(d, 2, 3) == ([], False)
    with pytest.raises(ResourceBudgetError, match="does not cover extension word"):
        truncate(d, 2, 3)


WIDTH_CALLS = {
    "truncate": lambda d, w: truncate(d, 2, w),
    "uncovered_frontier": lambda d, w: uncovered_frontier(d, 2, w),
    "cone": lambda d, w: cone(d, (), 2, w),
    "member_words": lambda d, w: d.member_words(2, w),
    "check_truncation_identity": lambda d, w: check_truncation_identity(
        d, SourceModel.geometric(0.5), 2, max_symbol=w),
    "convergence_scan": lambda d, w: convergence_scan(
        d, SourceModel.geometric(0.5), 2, w),
}


@pytest.mark.parametrize("call", WIDTH_CALLS.values(), ids=WIDTH_CALLS.keys())
def test_countable_width_below_one_is_refused(call):
    # no symbol to enumerate: the sets were empty and the rows 0.0
    for w in (0, -3):
        with pytest.raises(ValueError, match=r"^width budget must be >= 1$"):
            call(AlphabetDictionary(None), w)
    # a finite alphabet ignores the width
    assert repr(call(AlphabetDictionary(2), 0)) == repr(call(AlphabetDictionary(2), None))


def test_truncate_deeper_than_the_recursion_limit(run_length):
    fs = truncate(run_length, 1500)
    assert fs.t_n == ((1,) * 1500,)
    assert len(fs.d_n_words) == 1501


def test_extend_examples(complete_dict):
    ext = extend(complete_dict, (0,))
    assert ext.words == ((0, 0), (0, 1), (1, 0), (1, 1))
    alphabet = FiniteDictionary(2, [(0,), (1,)])
    assert extend(alphabet, (1,)).words == complete_dict.words
    with pytest.raises(ValueError):
        extend(complete_dict, (0, 0))


def test_extend_countable_enumeration():
    base = AlphabetDictionary(None)
    ext = extend(base, (0,))
    assert ext.member_words(3, max_symbol=3) == [
        (1,), (2,), (0, 0), (0, 1), (0, 2)
    ]


def test_extend_preserves_completeness(corpus, fair):
    hit = 0
    for d in corpus:
        if not is_complete(d):
            continue
        ext = extend(d, d.words[0])
        assert is_complete(ext)
        hit += 1
        if hit >= 15:
            break
    assert hit > 0


def test_cone_examples(complete_dict, run_length):
    res = cone(run_length, (1, 1), depth_budget=40)
    assert res.words == tuple((1,) * k + (0,) for k in range(2, 40))
    assert not res.exhaustive  # truncated: members continue past the budget
    res = cone(complete_dict, (1,))
    assert res.words == ((1, 0), (1, 1)) and res.exhaustive
    res = cone(complete_dict, (1, 0))
    assert res.words == ((1, 0),) and res.exhaustive


def test_cone_empty_prefix_is_whole_dictionary(complete_dict):
    res = cone(complete_dict, ())
    assert res.words == complete_dict.words and res.exhaustive


def test_cone_hypothesis_violation(complete_dict):
    with pytest.raises(ConeHypothesisError):
        cone(complete_dict, (0, 1))


def test_cone_budget_shorter_than_the_prefix_is_refused():
    with pytest.raises(ValueError, match=r"^depth budget shorter than the cone prefix$"):
        cone(RunLengthDictionary(), (1, 1, 1), depth_budget=2)


def test_cone_of_dead_prefix_is_empty():
    d = FiniteDictionary(2, [(0,)])
    res = cone(d, (1, 0))
    assert res.words == () and res.exhaustive


def test_cone_through_a_member_prefix_names_it(run_length):
    msg = (
        "cone prefix [1, 0, 1] has the shorter dictionary prefix [1, 0]; "
        "the cone-mass identity does not apply"
    )
    with pytest.raises(ConeHypothesisError, match=re.escape(msg)):
        cone(run_length, (1, 0, 1))
    with pytest.raises(ConeHypothesisError, match=re.escape(msg)):
        cone_mass_bounds(run_length, (1, 0, 1), SourceModel.fair_bit())
    # over a countable alphabet the member (3,) is a TO_WORD default
    with pytest.raises(ConeHypothesisError, match=r"shorter dictionary prefix \[3\]"):
        cone(head_extension(0), (3, 1), max_symbol=4)
    # beta may end on a member: the cone is that word alone
    res = cone(run_length, (1, 0))
    assert res.words == ((1, 0),) and res.exhaustive


def test_cone_through_a_dead_prefix_is_empty(run_length, fair):
    d = FiniteDictionary(2, [(0,), (1, 0)])
    # (1, 1) is dead, so no later symbol of beta is read as a member
    for beta in [(1, 1), (1, 1, 0), (1, 1, 1, 0, 1)]:
        res = cone(d, beta, depth_budget=8)
        assert res.words == () and res.exhaustive
        assert cone_mass_bounds(d, beta, fair, depth_budget=8) == (0.0, 0.0)
    # a symbol outside the alphabet is DEAD in every state
    res = cone(run_length, (1, 2, 0))
    assert res.words == () and res.exhaustive


def test_cone_through_a_negative_symbol_is_empty(run_length, fair):
    for beta in [(-1,), (1, -1), (1, -1, 0), (-1, 0, 1)]:
        res = cone(run_length, beta, depth_budget=8)
        assert res.words == () and res.exhaustive
        assert cone_mass_bounds(run_length, beta, fair, depth_budget=8) == (0.0, 0.0)
    res = cone(head_extension(0), (0, -1), max_symbol=4)
    assert res.words == () and not res.exhaustive


def test_cone_mass_bounds_run_length(run_length, biased):
    low, high = cone_mass_bounds(run_length, (1, 1), biased, depth_budget=40)
    assert low - 1e-12 <= 0.01 <= high + 1e-12
    assert high - low < 1e-30


def test_countable_cone_mass_bound_covers_the_symbols_past_the_width():
    # the members 00 to 03, through symbols below width 4, weigh 0.46875; the
    # ones through symbols >= 4 lie in no open prefix, so the high end is P(0)
    bounds = cone_mass_bounds(head_extension(0), (0,), SourceModel.geometric(0.5),
                              depth_budget=3, max_symbol=4)
    assert bounds == (0.46875, 0.5)


def test_chain_run_length_step(run_length, complete_dict):
    chain = ExtensionChain.from_truncation(run_length, 1)
    assert chain.base.words == ((0,), (1,))
    assert chain.extending_words(1) == [(1,)]
    d2 = chain_step(chain, 1)
    assert d2.words == complete_dict.words
    assert d2.words == truncate(run_length, 2).d_n.words
    assert chain_step(chain, 0) is chain.base


def test_chain_countable_infinite_frontier(geometric_half):
    # base D_1 = A of the all-pairs dictionary; T_1 = A is infinite
    chain = ExtensionChain(
        AlphabetDictionary(None), lambda: ((i,) for i in itertools.count())
    )
    d = chain_step(chain, 3)
    got = d.member_words(2, max_symbol=5)
    expected = sorted(
        [(3,), (4,)] + [(i, b) for i in range(3) for b in range(5)],
        key=lambda w: (len(w), w),
    )
    assert got == expected


def test_chain_step_overrun_raises(complete_dict):
    # a factory that runs dry overruns like a list that is too short
    for words in ([(0,)], lambda: iter([(0,)])):
        chain = ExtensionChain(complete_dict, words)
        with pytest.raises(ValueError, match="^chain has 1 extending words, 2 requested$"):
            chain.step(2)


def test_chain_refuses_a_negative_count(complete_dict):
    for words in ([(0,), (1,)], lambda: iter([(0,), (1,)])):
        chain = ExtensionChain(complete_dict, words)
        for take in (chain.step, chain.extending_words):
            with pytest.raises(ValueError, match="^chain step count must be >= 0$"):
                take(-1)


def test_chain_from_countable_truncation_raises():
    with pytest.raises(ResourceBudgetError):
        ExtensionChain.from_truncation(AlphabetDictionary(None), 1, max_symbol=4)


def test_truncations_proper_complete(corpus, run_length):
    # part (1): D_n is proper (construction validates) and complete
    for d in corpus[:50]:
        for m in range(1, 7):
            assert is_complete(truncate(d, m).d_n)
    for m in range(1, 13):
        assert is_complete(truncate(run_length, m).d_n)


def test_chain_reproduces_next_truncation(corpus):
    # part (2): extending D_m by every word of T_m yields exactly D_{m+1}
    for d in corpus[:30]:
        for m in range(1, 6):
            fs = truncate(d, m)
            chain = ExtensionChain.from_truncation(d, m)
            result = chain.step(len(fs.t_n))
            assert set(result.words) == set(truncate(d, m + 1).d_n.words)
            assert list(fs.t_n) == brute_frontier(d, m)


def test_cone_mass_identity_asc(corpus, fair):
    # part (3): cone mass equals the prefix probability under ASC
    checked = 0
    for d in corpus:
        if not is_asc(d, fair, 16, 1e-9).certified:
            continue
        for m in range(1, 6):
            for beta in truncate(d, m).d_n_perp:
                low, high = cone_mass_bounds(d, beta, fair, depth_budget=16)
                p = fair.word_prob(beta)
                assert abs(low - p) <= 1e-9 and abs(high - p) <= 1e-9
                checked += 1
    assert checked > 50


def test_cone_mass_inequality_non_asc(corpus, fair):
    # without ASC only <= holds; the zero dictionary shows strictness
    d = FiniteDictionary(2, [(0,)])
    low, high = cone_mass_bounds(d, (1,), fair, depth_budget=16)
    assert low == high == 0.0 < fair.word_prob((1,))
    for d in corpus[:20]:
        for beta in truncate(d, 2).d_n_perp:
            low, _ = cone_mass_bounds(d, beta, fair, depth_budget=16)
            assert low <= fair.word_prob(beta) + 1e-12


def test_cones_partition_long_members(corpus):
    # part (4): every member of length >= m extends exactly one frontier
    # word, and cones contain nothing shorter
    for d in corpus[:40]:
        for m in range(1, 13):
            perp = set(truncate(d, m).d_n_perp)
            for w in d.words:
                if len(w) >= m:
                    assert w[:m] in perp


def test_cones_partition_brute_force(complete_dict, corpus):
    for d in [complete_dict] + corpus[4:10]:
        for m in range(1, 9):
            perp = truncate(d, m).d_n_perp
            union = []
            for beta in perp:
                union.extend(brute_cone(d, beta))
            expected = sorted(
                (w for w in d.words if len(w) >= m), key=lambda w: (len(w), w)
            )
            assert sorted(union, key=lambda w: (len(w), w)) == expected
            assert len(union) == len(set(union))  # pairwise disjoint


def test_frontier_partition_mass(corpus, fair):
    # short-word mass plus frontier cone mass accounts for everything
    for d in corpus[:20]:
        if not is_asc(d, fair, 16, 1e-9).certified:
            continue
        for m in (1, 3, 5):
            fs = truncate(d, m)
            short = math.fsum(
                fair.word_prob(w) for w in d.words if len(w) < m
            )
            cones = math.fsum(
                cone_mass_bounds(d, b, fair, 16)[0] for b in fs.d_n_perp
            )
            assert short + cones == pytest.approx(1.0, abs=1e-9)
