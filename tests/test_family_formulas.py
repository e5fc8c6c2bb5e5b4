"""The base-class measure queries against the per-family closed forms.

Every family used to hand-write its own member enumeration and mass
formulas. Those formulas are copied below as oracles, one function per
query, and the queries that Dictionary computes from the automaton must
agree with them: the member queries exactly, the sums to a relative 1e-12
(the whole dictionary's, which the old forms give at depth 0) or 1e-9
(P(T_depth), down to tiny values), at depths up to 1100, where q**depth
underflows, and widths 1 to 64.

The closed forms hold where the source's symbols are the dictionary's: the
run-length family over binary sources (and plain run-length over ternary
ones), the countable family over geometric ones. Over a binary source the
run-length forms carry 1 - p0/(1 - q), a few ulps of rounding (or the
source's own sum error) where the true value is 0; P(T_depth) allows that
much more.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvcode import (
    AlphabetDictionary,
    RunLengthDictionary,
    SourceModel,
    head_extension,
    phrase_measures,
)
from vvcode.dictionary import ExtendedDictionary
from vvcode.errors import ResourceBudgetError
from vvcode.source import sort_words

TINY = 1e-300  # below this, float products lose relative precision


# -- the closed forms, as the families wrote them ----------------------------


def old_params(source):
    return source.symbol_prob(0), source.symbol_prob(1)


def old_covered_mass(d, depth, source):
    if isinstance(d, AlphabetDictionary):
        return 1.0 if depth >= 1 else 0.0
    if isinstance(d, RunLengthDictionary):
        p0, q = old_params(source)
        return p0 * (1.0 - q**depth) / (1.0 - q)
    la = len(d.alpha)
    mass = old_covered_mass(d.base, depth, source)
    pa = source.word_prob(d.alpha)
    if la <= depth:
        mass -= pa
    if la + 1 <= depth:
        mass += pa
    return mass


def old_boundary_mass(d, depth, source):
    if isinstance(d, RunLengthDictionary):
        # 1 - covered = extra + coef*q^depth, evaluated without cancellation
        p0, q = old_params(source)
        coef = p0 / (1.0 - q)
        extra = 1.0 - coef
        return min(1.0, max(0.0, extra + coef * q**depth))
    if isinstance(d, ExtendedDictionary):
        mass = old_boundary_mass(d.base, depth, source)
        if depth == len(d.alpha):
            mass += source.word_prob(d.alpha)
        return min(1.0, max(0.0, mass))
    return min(1.0, max(0.0, 1.0 - old_covered_mass(d, depth, source)))


def old_tail_stats(d, depth, width, source):
    """(mass, lbar, entropy) of the members outside the budget."""
    if isinstance(d, AlphabetDictionary):
        if depth < 1:
            return 1.0, 1.0, source.entropy()
        if d.alphabet_size is not None:
            return 0.0, 0.0, 0.0
        m = source.mass_between(width)
        return m, m, source.surprisal_between(width)
    if isinstance(d, RunLengthDictionary):
        p0, q = old_params(source)
        s1 = q**depth / (1.0 - q)
        s2 = q**depth * (depth * (1.0 - q) + q) / (1.0 - q) ** 2
        mass = p0 * s1
        lbar = p0 * (s2 + s1)
        h = -math.log2(p0) * p0 * s1 - math.log2(q) * p0 * s2
        return mass, lbar, h
    bm, bl, bh = old_tail_stats(d.base, depth, width, source)
    la = len(d.alpha)
    pa = source.word_prob(d.alpha)
    surprisal_a = -math.log2(pa) if pa > 0.0 else 0.0
    if la > depth:
        bm, bl, bh = bm - pa, bl - pa * la, bh - pa * surprisal_a
    if la + 1 > depth:
        return (bm + pa, bl + pa * (la + 1),
                bh + pa * (source.entropy() + surprisal_a))
    if d.alphabet_size is not None:
        return bm, bl, bh
    m = source.mass_between(width)
    s = source.surprisal_between(width)
    return bm + pa * m, bl + pa * (la + 1) * m, bh + pa * (s + surprisal_a * m)


def old_member_words(d, max_len, max_symbol=None):
    if isinstance(d, AlphabetDictionary):
        if max_len < 1:
            return []
        return [(i,) for i in range(d._width_for(max_symbol))]
    if isinstance(d, RunLengthDictionary):
        return [(1,) * j + (0,) for j in range(max_len)]
    w = d.member_width(max_symbol)
    out = [x for x in old_member_words(d.base, max_len, max_symbol) if x != d.alpha]
    if len(d.alpha) + 1 <= max_len:
        out.extend(d.alpha + (b,) for b in range(w))
    return sort_words(out)


def old_max_word_length(d):
    if isinstance(d, AlphabetDictionary):
        return 1
    if isinstance(d, RunLengthDictionary):
        return None
    base_max = old_max_word_length(d.base)
    if base_max is None:
        return None
    return max(base_max, len(d.alpha) + 1)


def old_fully_enumerated(d, max_len, max_symbol=None):
    if isinstance(d, AlphabetDictionary):
        return d.alphabet_size is not None and max_len >= 1
    if isinstance(d, RunLengthDictionary):
        return False
    if d.alphabet_size is None:
        return False
    return old_fully_enumerated(d.base, max_len, max_symbol) and (
        len(d.alpha) + 1 <= max_len
    )


# -- inputs -------------------------------------------------------------------

binary = st.floats(1e-6, 1.0 - 1e-6).map(lambda p: SourceModel.finite([p, 1.0 - p]))
ternary = st.tuples(*[st.floats(0.01, 1.0)] * 3).map(
    lambda t: SourceModel.finite([x / math.fsum(t) for x in t])
)
geometric = st.floats(1e-4, 1.0 - 1e-6).map(SourceModel.geometric)
depths = st.integers(1, 1100)
widths = st.integers(1, 64)


@st.composite
def run_length_family(draw, max_nest=2):
    """Run-length, extended at up to max_nest of its members in turn."""
    d = RunLengthDictionary()
    for _ in range(draw(st.integers(0, max_nest))):
        d = ExtendedDictionary(d, draw(st.sampled_from(old_member_words(d, 5))))
    return d


@st.composite
def head_extensions(draw):
    """A head extension, extended at up to two of its members in turn."""
    d = head_extension(draw(st.integers(0, 8)))
    for _ in range(draw(st.integers(0, 2))):
        d = ExtendedDictionary(d, draw(st.sampled_from(old_member_words(d, 3, 10))))
    return d


def binary_slack(source):
    """What the run-length forms carry over a binary source: 1 - p0/(1 - q)."""
    if source.alphabet_size != 2:
        return 0.0
    p0, q = old_params(source)
    return abs(1.0 - p0 / (1.0 - q))


def assert_close(got, want, rel, floor=TINY):
    assert abs(got - want) <= max(rel * abs(want), floor), (got, want)


def assert_masses(d, depth, source, slack=0.0):
    assert_close(d.boundary_mass(depth, source), old_boundary_mass(d, depth, source),
                 1e-9, TINY + 2 * slack)


def assert_tails(d, depth, source):
    """The measures at any depth are the whole dictionary's: the old tails
    at depth 0, where no width enters."""
    pm = phrase_measures(d, source, depth)
    got = (pm.mass, pm.length, pm.entropy)
    assert all(g.low == g.high for g in got)
    want = old_tail_stats(d, 0, None, source)
    for g, w in zip(got, want):
        assert_close(g.low, w, 1e-12)


def assert_member_queries(d, max_len, width):
    def outcome(call):
        try:
            return call()
        except ResourceBudgetError as exc:
            return ("raised", str(exc))

    assert outcome(lambda: d.member_words(max_len, width)) == outcome(
        lambda: old_member_words(d, max_len, width))
    assert d.fully_enumerated(max_len, width) == old_fully_enumerated(d, max_len, width)
    assert d.max_word_length() == old_max_word_length(d)


# -- the tests ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(source=st.one_of(binary, ternary), depth=depths)
def test_run_length(source, depth):
    d = RunLengthDictionary()
    assert_masses(d, depth, source, binary_slack(source))
    assert_tails(d, depth, source)


@settings(max_examples=150, deadline=None)
@given(d=run_length_family(), source=binary, depth=depths)
def test_run_length_extensions(d, source, depth):
    assert_masses(d, depth, source, binary_slack(source))
    assert_tails(d, depth, source)


@settings(max_examples=150, deadline=None)
@given(d=head_extensions(), source=geometric, depth=depths)
def test_nested_head_extensions(d, source, depth):
    assert_masses(d, depth, source)
    assert_tails(d, depth, source)


alphabet_cases = st.sampled_from([(2, binary), (3, ternary), (None, geometric)]).flatmap(
    lambda case: st.tuples(st.just(case[0]), case[1])
)


@settings(max_examples=100, deadline=None)
@given(case=alphabet_cases, depth=depths)
def test_alphabet_dictionaries(case, depth):
    k, source = case
    d = AlphabetDictionary(k)
    assert_masses(d, depth, source)
    assert_tails(d, depth, source)


@settings(max_examples=150, deadline=None)
@given(d=st.one_of(run_length_family(3), head_extensions(),
                   st.sampled_from([AlphabetDictionary(2), AlphabetDictionary(3),
                                    AlphabetDictionary(None)])),
       max_len=st.integers(0, 7), width=widths)
def test_member_queries_equal_the_closed_forms(d, max_len, width):
    assert_member_queries(d, max_len, width)
    if d.alphabet_size is not None:
        assert_member_queries(d, max_len, None)


@pytest.mark.parametrize("depth", [1, 2, 10, 64, 500, 1074, 1100])
def test_run_length_boundary_underflows_as_the_closed_form_does(depth):
    # 0.1**depth underflows past 323; both give it to within 1e-9 until then
    biased = SourceModel.finite([0.9, 0.1])
    assert binary_slack(biased) == 0.0
    got = RunLengthDictionary().boundary_mass(depth, biased)
    want = old_boundary_mass(RunLengthDictionary(), depth, biased)
    assert_close(got, want, 1e-9, 0.0 if want > TINY else TINY)


def test_a_far_listed_symbol_costs_no_enumeration():
    # over a countable alphabet only listed symbols lead on, so P(T_depth)
    # and the shape queries walk those and nothing below them
    d = head_extension(10**12)
    source = SourceModel.geometric(0.5)
    assert d.boundary_mass(64, source) == 0.0
    assert d.boundary_mass(1, source) == 0.0  # the far symbol's P underflows
    assert d.max_word_length() == 2
    assert not d.fully_enumerated(64, 64)
    with pytest.raises(ResourceBudgetError):
        d.member_words(2, 64)
