"""The measure walk's level lists against per-word references, over random
proper finite dictionaries, and the constructor's symbol check that the
walk's symbol-indexed prices rely on.

Every report of the walk must equal the per-word reference of
test_measure_walk by repr. P(T_depth) is checked against a per-prefix sum
that scans every state, so the shortcut that scans none (a complete
dictionary over a source of its alphabet size) and the scan it replaces
must agree bit for bit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_measure_walk import (
    assert_walk_matches_per_word,
    per_word_measures,
    word_prob,
)
from vvcode import (
    FiniteDictionary,
    PhraseCodebook,
    SourceModel,
    check_conservation,
    check_extension_identities,
    decode,
    encode,
    exact_word_measures,
    extend,
    fixed_codebook,
    huffman_build,
    phrase_measures,
)
from vvcode import codec, dictionary
from vvcode.formats import load_codebook, load_dictionary, save_dictionary
from vvcode.errors import SymbolTypeError, VVCodeError

# the longest truncation series per alphabet size: T_m has up to k^m words
M_MAX = {2: 8, 3: 6, 4: 5}
WEIGHTS = [1e-170, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0]  # 1e-170**2 underflows to 0.0


@pytest.fixture(scope="module", autouse=True)
def _clear_word_prob_cache():
    yield
    word_prob.cache_clear()


def grown_words(k, picks):
    """The leaves of a complete trie grown from the root: each pick expands
    the leaf at that index (mod the leaf count) into its k children."""
    leaves = [()]
    for i in picks:
        j = i % len(leaves)
        w = leaves.pop(j)
        leaves[j:j] = [w + (s,) for s in range(k)]
    return leaves


@st.composite
def dictionaries(draw):
    """(shape, dictionary): complete, one word short of complete (a single
    state misses a single symbol), or any nonempty subset of the words."""
    k = draw(st.sampled_from([2, 2, 3, 4]))
    picks = draw(st.lists(st.integers(0, 99), min_size=1, max_size=20))
    words = grown_words(k, picks)
    shape = draw(st.sampled_from(["complete", "one missing", "incomplete"]))
    if shape == "one missing":
        del words[draw(st.integers(0, len(words) - 1))]
    elif shape == "incomplete":
        keep = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
        words = [w for w, b in zip(words, keep) if b] or words[:1]
    return shape, FiniteDictionary(k, words)


@st.composite
def sources(draw, k):
    """A finite source with fewer, as many or more symbols than k, or
    geometric(0.5)."""
    kind = draw(st.sampled_from(["fewer", "same", "more", "geometric"]))
    if kind == "geometric":
        return SourceModel.geometric(0.5)
    n = {"fewer": k - 1, "same": k, "more": k + 1}[kind]
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n))
    total = math.fsum(weights)
    return SourceModel.finite([w / total for w in weights])


def reference_boundary(d, source, depth):
    """P(T_depth) per prefix: the live prefixes of length depth, and each
    shorter prefix times the mass its state sends to TO_DEAD, every state
    included (one that lists every symbol of a same-size source adds 0.0).
    A prefix the source cannot price has no mass."""
    prefixes = {w[:i] for w in d.words for i in range(len(w))}
    terms = [word_prob(source, p) for p in prefixes if len(p) == depth]
    for p in prefixes:
        if len(p) < depth:
            t = d.transitions[d.entry_after(p)]
            dead = dictionary._run_sum(source.mass_between, dictionary._unlisted_runs(t))
            terms.append(word_prob(source, p) * dead)
    return min(1.0, math.fsum(terms))


def priced(d, source):
    """True iff the source has every symbol the dictionary's words use."""
    n = source.alphabet_size
    return n is None or all(max(w) < n for w in d.words)


@st.composite
def cases(draw):
    shape, d = draw(dictionaries())
    k = d.alphabet_size
    return shape, d, draw(sources(k)), draw(st.integers(1, M_MAX[k]))


@settings(max_examples=300, deadline=None)
@given(case=cases(), depth=st.integers(1, 14))
def test_reports_equal_the_per_word_reference(case, depth):
    shape, d, source, m_max = case
    if shape != "incomplete":  # a subset may keep every word
        assert d.is_complete() == (shape == "complete")
    assert_walk_matches_per_word(pytest.MonkeyPatch(), d, source, depth, m_max)
    if priced(d, source):
        got = phrase_measures(d, source, depth).frontier_mass
        assert repr(got) == repr(reference_boundary(d, source, depth))


@settings(max_examples=100, deadline=None)
@given(case=cases(), pick=st.integers(0, 10**6))
def test_extension_identities_keep_their_bits(case, pick):
    # exact_word_measures shares the walk's sums, and its terms are still
    # the three per-word fsums
    _, d, source, _ = case
    alpha = d.words[pick % len(d.words)]
    ext = extend(d, alpha)
    assume(priced(ext, source))
    before = per_word_measures(d.words, source)
    after = per_word_measures(ext.words, source)
    assert repr(exact_word_measures(d.words, source)) == repr(before)
    assert repr(exact_word_measures(ext.words, source)) == repr(after)
    rep = check_extension_identities(d, alpha, source)
    want = (after[1] - before[1], after[2] - before[2])
    assert repr((rep.delta_lbar, rep.delta_h)) == repr(want)


def count_dead_scans(monkeypatch):
    calls = []
    unlisted = dictionary._unlisted_runs
    monkeypatch.setattr(dictionary, "_unlisted_runs",
                        lambda t: calls.append(t) or unlisted(t))
    return calls


@pytest.mark.parametrize("depth", [1, 3, 64])
def test_complete_dictionary_scans_no_state(monkeypatch, depth):
    source = SourceModel.finite([0.5, 0.3, 0.2])
    d = FiniteDictionary(3, grown_words(3, [0, 1, 4, 4, 9, 2, 30]))
    assert d.is_complete()
    calls = count_dead_scans(monkeypatch)
    got = phrase_measures(d, source, depth).frontier_mass
    assert calls == []
    monkeypatch.undo()
    assert repr(got) == repr(reference_boundary(d, source, depth))


@pytest.mark.parametrize("depth", [1, 3, 64])
def test_state_missing_a_symbol_is_scanned(monkeypatch, depth):
    source = SourceModel.finite([0.5, 0.3, 0.2])
    words = grown_words(3, [0, 1, 4, 4, 9, 2, 30])
    d = FiniteDictionary(3, words[:5] + words[6:])
    calls = count_dead_scans(monkeypatch)
    got = phrase_measures(d, source, depth).frontier_mass
    assert len(calls) == 1 and len(calls[0]) == 2
    monkeypatch.undo()
    assert got > 0.0
    assert repr(got) == repr(reference_boundary(d, source, depth))
    assert_walk_matches_per_word(monkeypatch, d, source, depth, 5)


# -- symbols must be integer indices ------------------------------------------


@pytest.mark.parametrize("bad", [1.0, 0.5, math.nan, "1", None, [1], (1,)],
                         ids=repr)
def test_non_integer_symbol_is_refused(bad):
    with pytest.raises(SymbolTypeError) as exc:
        FiniteDictionary(2, [(0,), (bad,)])
    assert isinstance(exc.value, VVCodeError)
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == f"symbol {bad!r} in word {[bad]!r} is not an integer"


def test_symbol_type_is_checked_before_range():
    with pytest.raises(SymbolTypeError):
        FiniteDictionary(2, [(0,), (7.0,)])
    with pytest.raises(ValueError, match="^symbol 7 out of range"):
        FiniteDictionary(2, [(0,), (7,)])


@pytest.mark.parametrize("one", [True, np.int64(1), np.uint8(1), np.intp(1)],
                         ids=lambda s: type(s).__name__)
def test_integer_like_symbols_are_accepted(one):
    source = SourceModel.finite([0.9, 0.1])
    d = FiniteDictionary(2, [(0,), (one, 0), (one, one)])
    plain = FiniteDictionary(2, [(0,), (1, 0), (1, 1)])
    assert d == plain
    for depth in (1, 64):
        got = check_conservation(d, source, depth).as_dict()
        assert repr(got) == repr(check_conservation(plain, source, depth).as_dict())


def plain_ints(words):
    return all(type(s) is int for w in words for s in w)


@pytest.mark.parametrize("one", [True, np.int64(1), np.uint8(1), np.intp(1)],
                         ids=lambda s: type(s).__name__)
def test_integer_like_symbols_survive_the_file_round_trips(one):
    d = FiniteDictionary(2, [(0,), (one, 0), (one, one)])
    assert plain_ints(d.words)
    assert all(type(s) is int for t in d.transitions for s in t)
    text = json.dumps(save_dictionary(d))
    assert json.loads(text)["words"] == [[0], [1, 0], [1, 1]]
    assert load_dictionary(json.loads(text)) == d

    cb = fixed_codebook([(0,), (one, 0), (1, 1)])
    assert plain_ints(cb.phrases)
    back = load_codebook(json.loads(json.dumps(cb.as_dict())))
    assert back == cb
    plain = FiniteDictionary(2, [(0,), (1, 0), (1, 1)])
    # a short stream decodes on the per-phrase loop, a long one compiled
    for stream in ([1, 0, 1, 1, 0], [1, 0, 1, 1, 0] * 400):
        out = decode(plain, cb, encode(plain, cb, stream))
        assert out == stream and set(map(type, out)) == {int}


def test_codebook_refuses_a_non_integer_symbol():
    with pytest.raises(SymbolTypeError, match=r"^symbol 1\.0 in word \[1\.0\] is not"):
        fixed_codebook([(0,), (1.0,)])
    with pytest.raises(SymbolTypeError, match="^symbol '1' in word"):
        PhraseCodebook.from_pairs([((0, 0), "0"), (("1",), "1")])
    with pytest.raises(SymbolTypeError, match=r"^symbol \[1\] in word"):
        PhraseCodebook((((0,)), ([1], 0)), ("0", "1"))


CODEBOOK_BUILDERS = {
    "from_pairs": lambda ws: PhraseCodebook.from_pairs(zip(ws, ["0", "1"])),
    "fixed_codebook": fixed_codebook,
    "huffman_build": lambda ws: huffman_build([(w, 0.5) for w in ws]),
}


@pytest.mark.parametrize("build", CODEBOOK_BUILDERS.values(),
                         ids=CODEBOOK_BUILDERS.keys())
@pytest.mark.parametrize("bad", ["1", None, [1]], ids=repr)
def test_codebooks_refuse_a_symbol_that_does_not_compare(build, bad):
    # a phrase as long as an int phrase is compared with it by the
    # canonical sort, before the codebook checks its symbols
    for ws in ([(0,), (bad,)], [(bad,), (0,)]):
        with pytest.raises(SymbolTypeError) as exc:
            build(ws)
        assert str(exc.value) == f"symbol {bad!r} in word {[bad]!r} is not an integer"


@pytest.mark.parametrize("build", CODEBOOK_BUILDERS.values(),
                         ids=CODEBOOK_BUILDERS.keys())
def test_plain_int_codebooks_convert_no_phrase(build, monkeypatch):
    def refuse(w):
        raise AssertionError(f"index_word called on {w!r}")

    monkeypatch.setattr(codec, "index_word", refuse)
    cb = build([(1,), (0,)])
    assert cb.phrases == ((0,), (1,))
