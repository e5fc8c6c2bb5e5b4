"""walk's bisect path against the automaton loop it hands over to, kept
here as the reference: random prefix-free finite dictionaries, nested
past MAX_PATTERN_DEPTH, over streams of their own words with symbols the
walk must stop or fall back on."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vvcode import FiniteDictionary, parse
from vvcode.dictionary import (
    BISECT_BLOCK,
    BISECT_MIN_MEAN,
    MAX_CODE_POINT,
    MAX_PATTERN_DEPTH,
    TO_DEAD,
    _bisect_phrases,
    _word_keys,
    phrase_key,
    symbol_text,
    walk,
)


def loop_walk(d, seq):
    """(phrases, begin, dead): the automaton loop alone, from the start of
    seq, one symbol per step."""
    seq = seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
    phrases, begin, state = [], 0, d.start
    for i, sym in enumerate(seq):
        state = d.transitions[state].get(sym, d.defaults[state])
        if state < 0:
            if state == TO_DEAD or sym < 0:
                return phrases, begin, i
            phrases.append(phrase_key(seq[begin : i + 1]))
            begin = i + 1
            state = d.start
    return phrases, begin, -1


def grown_words(k, spine, chain, splits):
    """A prefix-free word set over range(k): a chain of `chain` states along
    symbol `spine`, whose every other symbol ends a word, then leaves split
    into their children. A split (leaf, keep) replaces leaf number `leaf`
    by the children whose bit is set in `keep`, or by all of them if none
    is; an unkept child leaves a dead zone."""
    words = [(spine,) * j + (s,) for j in range(chain) for s in range(k) if s != spine]
    words.append((spine,) * chain)
    for leaf, keep in splits:
        w = words.pop(leaf % len(words))
        kids = [w + (s,) for s in range(k) if keep >> s & 1] or [w + (s,) for s in range(k)]
        words.extend(kids)
    return words


@st.composite
def dictionaries(draw):
    k = draw(st.integers(2, 4))
    chain = draw(st.sampled_from([1, 3, 8, 60, MAX_PATTERN_DEPTH + 1, 250]))
    splits = draw(st.lists(st.tuples(st.integers(0), st.integers(0, 15)), max_size=40))
    return k, grown_words(k, draw(st.integers(0, k - 1)), chain, splits)


ODD = st.sampled_from([-1, 1.0, 2**40, "k"])  # "k": the first symbol outside range(k)


@st.composite
def streams(draw, k, words):
    """Words of the dictionary back to back, with now and then a symbol
    that is out of the alphabet, negative, a float or not a code point."""
    seq = []
    for pick in draw(st.lists(st.integers(0), max_size=300)):
        seq.extend(words[pick % len(words)])
        if pick % 97 == 0:
            odd = draw(ODD)
            seq.append(k if odd == "k" else odd)
    seq.extend(draw(st.lists(st.integers(0, k - 1), max_size=8)))  # a pending tail
    kind = draw(st.sampled_from(["list", "tuple", "array"]))
    if kind == "tuple":
        return tuple(seq)
    if kind == "array":
        ints = all(type(s) is int for s in seq)
        return np.array(seq, dtype=np.int64 if ints else object)
    return seq


def bisect(d, seq):
    """(phrases, position) of the bisect path alone on a fresh seq."""
    got = []
    pos = _bisect_phrases(_word_keys(d), d.max_word_length(), symbol_text(seq), got)
    return got, pos


def bisect_reach(phrases, text):
    """(phrases, position) that the bisect path reads of the loop's phrases:
    each one that lies in text, up to the end of the block in which their
    mean falls below BISECT_MIN_MEAN."""
    n = pos = 0
    for p in phrases:
        if type(p) is not str or not text.startswith(p, pos):
            break
        n, pos = n + 1, pos + len(p)
        if n % BISECT_BLOCK == 0 and pos < BISECT_MIN_MEAN * n:
            break
    return phrases[:n], pos


def check(words, k, seq):
    d = FiniteDictionary(k, words)
    want = loop_walk(d, seq)
    # the loop would mend a bisect path that stops early, so check its reach
    assert bisect(d, seq) == bisect_reach(want[0], symbol_text(seq))
    assert walk(d, seq) == want  # fresh: keys built, pattern counted
    assert walk(d, seq) == want  # keys cached
    pinned = FiniteDictionary(k, words)
    pinned._pattern = False  # never compiles: the bisect path and the loop
    assert walk(pinned, seq) == want


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_bisect_path_matches_the_automaton_loop(data):
    k, words = data.draw(dictionaries())
    check(words, k, data.draw(streams(k, words)))


@given(seq=st.lists(st.integers(0, 2) | st.sampled_from([-1, 2**40]), max_size=60))
@example(seq=[])
@example(seq=[1] * 250 + [0])
@settings(max_examples=100, deadline=None)
def test_any_stream_matches_the_loop_on_a_deep_chain(seq):
    # the longest word (1^250) is past the pattern bound: this dictionary
    # never compiles and every walk starts on the bisect path
    check(grown_words(2, 1, 250, []), 2, seq)


def test_a_dictionary_without_texts_keeps_the_loop():
    # symbols past the code points have no text, so there is nothing to bisect
    big = 0x110000
    d = FiniteDictionary(big + 2, [(big,), (big + 1, 0), (0,)])
    assert _word_keys(d) == ["\x00"]
    for seq in ([0, 0, big, big + 1, 0, 0], [big + 1, 1]):
        assert walk(d, seq) == loop_walk(d, seq)


def test_parse_past_the_code_points_keeps_the_words_without_texts():
    # (1, big) and (big,) have no text: they are left out of the bisect keys,
    # and the loop reads them
    big = MAX_CODE_POINT + 1
    d = FiniteDictionary(big + 1, [(0,), (1, 0), (1, big), (big,)])
    got = parse(d, [0, 1, 0, big, 1, big, 0])
    assert got == ([(0,), (1, 0), (big,), (1, big), (0,)], ())
    assert _word_keys(d) == ["\x00", "\x01\x00"]


def handoff(words, k, phrases):
    """Where the bisect path hands over on the stream of `phrases` (lists
    of words) followed by a dead symbol: (phrases read, position)."""
    d = FiniteDictionary(k, words)
    seq = [s for w in phrases for s in w] + [k]
    check(words, k, seq)
    got, pos = bisect(d, seq)
    return len(got), pos


def test_short_phrases_hand_over_at_each_block():
    words = grown_words(2, 1, 250, [])  # 1^j 0 for j < 250, and 1^250
    short = (0,)
    long_ = (1,) * (2 * BISECT_MIN_MEAN - 3) + (0,)  # with short, a mean below
    # the first block's mean is 1 symbol
    assert handoff(words, 2, [short] * 200) == (BISECT_BLOCK, BISECT_BLOCK)
    # the first block's mean holds, the mean of both falls below the bound
    n = BISECT_BLOCK
    first = [long_] * n
    assert handoff(words, 2, first + [short] * 3 * n) == (2 * n, n * len(long_) + n)
    # a mean of exactly BISECT_MIN_MEAN keeps bisecting to the dead symbol
    exact = (1,) * (BISECT_MIN_MEAN - 1) + (0,)
    assert handoff(words, 2, [exact] * 3 * n) == (3 * n, 3 * n * BISECT_MIN_MEAN)


class CountingState(dict):
    """An automaton state that counts the loop's steps through it."""

    steps = 0

    def get(self, *args):
        CountingState.steps += 1
        return super().get(*args)


def test_the_loop_walks_only_what_the_bisect_path_leaves():
    d = FiniteDictionary(2, grown_words(2, 1, 250, []))
    d.transitions = [CountingState(t) for t in d.transitions]
    word = (1,) * 249 + (0,)
    seq = list(word) * 100 + [1, 1, 1]
    CountingState.steps = 0
    assert walk(d, seq) == (["\x01" * 249 + "\x00"] * 100, 25000, -1)
    assert CountingState.steps == 3  # the pending 1 1 1
