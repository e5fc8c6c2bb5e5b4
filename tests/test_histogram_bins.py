"""phrase_histogram's chi-square bins against the per-member reference:
list every member up to depth, price each with word_prob and keep those
whose expected count is at least 5.

The sampler is replaced by fixed counts, so every example reaches the
bins; the report (chi_square, dof and p_value) must equal the reference's
bit for bit, or both must raise the same exception with the same message.
"""

import math
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_walk_properties import dictionaries
from vvcode import (
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    extend,
    head_extension,
    phrase_histogram,
    simulation,
)
from vvcode.dictionary import TO_WORD
from vvcode.formats import load_dictionary
from vvcode.simulation import HistogramReport, _bins, _chi2_sf

GEOMETRIC_P = [0.1, 0.5, 0.999]
WEIGHTS = [1e-170, 0.001, 0.1, 0.3, 0.5, 0.9, 1.0]
PHRASES = [1, 5, 6144, 10**6]
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def enumerated_members(d, depth, symbols):
    """The members of length <= depth through `symbols`, in canonical
    order, by trying every symbol at every live prefix."""
    words, rest = [], [((), d.start)]
    for _ in range(depth):
        nxt = []
        for w, q in rest:
            for s in symbols:
                e = d.next_entry(q, s)
                if e == TO_WORD:
                    words.append(w + (s,))
                elif e >= 0:
                    nxt.append((w + (s,), e))
        rest = nxt
    return words


def reference_bins(d, source, n, depth, width):
    """(word, expected count) of every member up to depth (through symbols
    below width, and in a finite source's alphabet, over a countable
    alphabet), each priced with word_prob, that expects at least 5."""
    if d.alphabet_size is not None:
        members = enumerated_members(d, depth, range(d.alphabet_size))
    else:
        if source.alphabet_size is not None:
            width = min(width, source.alphabet_size)
        members = enumerated_members(d, depth, range(width))
    binned = []
    for w in members:
        expect = n * source.word_prob(w)
        if expect >= 5.0:
            binned.append((w, expect))
    return binned


def reference_histogram(d, source, counts, n, seed, depth, width):
    """The histogram of `counts` over reference_bins."""
    binned = reference_bins(d, source, n, depth, width)
    stat = 0.0
    binned_obs = 0
    binned_exp = 0.0
    for w, expect in binned:
        obs = counts.get(w, 0)
        stat += (obs - expect) ** 2 / expect
        binned_obs += obs
        binned_exp += expect
    pooled_exp = n - binned_exp
    dof = len(binned) - 1
    if pooled_exp > 1e-9:
        stat += (n - binned_obs - pooled_exp) ** 2 / pooled_exp
        dof += 1
    p_value = 1.0 if dof < 1 else _chi2_sf(stat, dof)
    entries = tuple(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return HistogramReport(entries=entries, chi_square=stat, dof=max(dof, 0),
                           p_value=p_value, n_phrases=n, seed=seed)


def fixed_counts(d, n):
    """Counts summing to at most n over the first members of d through
    symbols 0-3, each its own share."""
    k = d.alphabet_size
    words = enumerated_members(d, 6, range(4 if k is None else min(k, 4)))[:40]
    return Counter({w: n * (3 + i % 5) // (8 * len(words)) for i, w in enumerate(words)})


def outcome(run):
    try:
        return run()
    except Exception as e:  # noqa: BLE001 - compared as type and message
        return type(e), str(e)


def assert_bins_match(d, source, n, depth, width, seed=42):
    counts = fixed_counts(d, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_sample_phrases", lambda *args: Counter(counts))
        got = outcome(lambda: phrase_histogram(d, source, n, seed, depth=depth, width=width))
    want = outcome(lambda: reference_histogram(d, source, counts, n, seed, depth, width))
    if isinstance(want, HistogramReport) and isinstance(got, HistogramReport):
        assert (repr(got.chi_square), got.dof, repr(got.p_value)) == (
            repr(want.chi_square), want.dof, repr(want.p_value))
        # the bins themselves, in the order the sums take them
        assert _bins(d, source, n, depth, width) == reference_bins(d, source, n, depth, width)
    assert got == want


@st.composite
def finite_sources(draw, k):
    """A finite source with 1 to k + 1 symbols, so fewer than the
    dictionary's alphabet too."""
    n = draw(st.integers(1, k + 1))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n))
    total = math.fsum(weights)
    return SourceModel.finite([w / total for w in weights])


def any_sources(k):
    geometric = st.sampled_from(GEOMETRIC_P).map(SourceModel.geometric)
    return st.one_of(finite_sources(k), geometric)


@st.composite
def lazy_dictionaries(draw):
    """Run-length, head_extension(0..3), and one or two extensions of
    either at one of its words."""
    if draw(st.booleans()):
        d = RunLengthDictionary()
        words = [(1,) * j + (0,) for j in range(4)]
    else:
        h = draw(st.integers(0, 3))
        d = head_extension(h)
        words = [(s,) for s in range(5) if s != h] + [(h, s) for s in range(5)]
    for _ in range(draw(st.integers(0, 2))):
        alpha = draw(st.sampled_from(words))
        d = extend(d, alpha)
        tails = range(min(d.alphabet_size or 3, 3))
        words = [w for w in words if w != alpha] + [alpha + (s,) for s in tails]
    return d


@settings(max_examples=200, deadline=None)
@given(case=dictionaries(), data=st.data(), n=st.sampled_from(PHRASES),
       depth=st.integers(1, 64))
def test_finite_dictionary_bins_equal_the_reference(case, data, n, depth):
    _, d = case
    source = data.draw(any_sources(d.alphabet_size))
    assert_bins_match(d, source, n, depth, 64)


@settings(max_examples=200, deadline=None)
@given(d=lazy_dictionaries(), data=st.data(), n=st.sampled_from(PHRASES),
       depth=st.integers(1, 64), width=st.integers(1, 64))
def test_lazy_family_bins_equal_the_reference(d, data, n, depth, width):
    source = data.draw(any_sources(4))
    assert_bins_match(d, source, n, depth, width)


def test_ternary_dict_bins_up_to_its_priced_members():
    # {0, 10, 11, 120, 121, 122} over a fair bit: the live prefix 12 has
    # mass 0 and is cut, yet the member 120 of length 3 is still refused
    d = load_dictionary(os.path.join(FIXTURES, "ternary_dict.json"))
    fair = SourceModel.fair_bit()
    rep = phrase_histogram(d, fair, 100, depth=2)
    assert (rep.dof, sum(c for _, c in rep.entries)) == (2, 100)
    for depth in (2, 3):
        assert_bins_match(d, fair, 6144, depth, 64)
    unpriced = r"^word \[1, 2, 0\] has symbols outside alphabet size 2$"
    with pytest.raises(ValueError, match=unpriced):
        phrase_histogram(d, fair, 100, depth=3)


def test_bins_take_a_sparse_state_symbols_in_ascending_order():
    # the trie lists the start state's 2 before its 0 (the word 20 is the
    # shortest), so only a sorted walk bins 000 before 210, canonically
    d = FiniteDictionary(3, [(2, 0), (0, 0, 0), (2, 1, 0)])
    assert list(d.transitions[d.start]) == [2, 0]
    source = SourceModel.finite([0.5, 0.25, 0.25])
    assert [w for w, _ in _bins(d, source, 1000, 3, 64)] == [(2, 0), (0, 0, 0), (2, 1, 0)]
    assert_bins_match(d, source, 1000, 3, 64)
