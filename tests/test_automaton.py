"""Every dictionary family's automaton against brute-force oracles built
from member_words alone: classify and the uncovered frontier; and walk, on
either side of each choice between its compiled pattern and its loop,
against a greedy walk written from classify."""

import itertools
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvcode import (
    AlphabetDictionary,
    FiniteDictionary,
    RunLengthDictionary,
    SourceModel,
    extend,
    head_extension,
    parse,
    tunstall_build,
    uncovered_frontier,
)
from vvcode import dictionary
from vvcode.dictionary import (
    COMPILE_SYMBOLS_PER_STATE,
    DEAD,
    INTERNAL,
    MAX_PATTERN_DEPTH,
    WORD,
    pattern_source,
    phrase_key,
    phrase_word,
    walk,
)

WIDTH = 4  # symbol budget on countable alphabets
MAX_LEN = 4  # longest classified string over SYMBOLS
SYMBOLS = (-2, -1, 0, 1, 2, 3, 4, 7)  # negative and out-of-range included

FAMILIES = {
    "run_length": lambda: RunLengthDictionary(),
    "alphabet_3": lambda: AlphabetDictionary(3),
    "alphabet_countable": lambda: AlphabetDictionary(None),
    "head_extension_0": lambda: head_extension(0),
    "head_extension_3": lambda: head_extension(3),
    "run_length_ext_110": lambda: extend(RunLengthDictionary(), (1, 1, 0)),
    "nested_head_extension": lambda: extend(extend(head_extension(0), (0, 2)), (0, 2, 1)),
    "nested_run_length": lambda: extend(extend(RunLengthDictionary(), (1, 0)), (1, 0, 0)),
}


def _members(d, max_len):
    # the width budget covers every symbol in SYMBOLS
    width = None if d.alphabet_size is not None else max(SYMBOLS) + 1
    return set(d.member_words(max_len, width))


def oracle(members):
    """classify from a member set: WORD if a member, INTERNAL if a proper
    prefix of one, else DEAD.

    Every internal prefix of the lazy families has a member at most three
    symbols longer, so members up to MAX_LEN + 3 decide every string.
    """
    proper_prefixes = {w[:j] for w in members for j in range(len(w))}

    def classify(word):
        if word in members:
            return WORD
        return INTERNAL if word in proper_prefixes else DEAD

    return classify


def oracle_frontier(members, n, width):
    return [
        x
        for x in itertools.product(range(width), repeat=n)
        if not any(x[:j] in members for j in range(1, n + 1))
    ]


def _strings(symbols, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(symbols, repeat=n)


def _check_classify(d, members, strings):
    expected = oracle(members)
    for word in strings:
        assert d.classify(word) == expected(word), word


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lazy_family_automaton_matches_oracle(name):
    d = FAMILIES[name]()
    members = _members(d, MAX_LEN + 3)
    _check_classify(d, members, _strings(SYMBOLS, MAX_LEN))
    width = d.alphabet_size or WIDTH
    for n in range(1, MAX_LEN + 1):
        words, exhaustive = uncovered_frontier(d, n, WIDTH)
        assert words == oracle_frontier(members, n, width)
        assert exhaustive == (d.alphabet_size is not None)


def test_finite_automaton_matches_oracle(corpus):
    for d in corpus:
        members = set(d.words)
        strings = itertools.chain(
            _strings((-1, 0, 1, 2), 3), _strings((0, 1), d.max_word_length() + 1)
        )
        _check_classify(d, members, strings)
        for n in range(1, 8):
            words, exhaustive = uncovered_frontier(d, n)
            assert words == oracle_frontier(members, n, 2)
            assert exhaustive


# -- walk: the compiled pattern and the loop against classify ----------------


def reference_walk(d, seq):
    """(phrases, begin, dead) of a greedy walk that asks classify about each
    growing prefix: a WORD ends a phrase, DEAD stops the walk."""
    phrases, begin = [], 0
    for i in range(len(seq)):
        c = d.classify(tuple(seq[begin : i + 1]))
        if c == DEAD:
            return phrases, begin, i
        if c == WORD:
            phrases.append(tuple(seq[begin : i + 1]))
            begin = i + 1
    return phrases, begin, -1


def check_walk(d, seq):
    phrases, begin, dead = walk(d, seq)
    words = [phrase_word(p) for p in phrases]
    assert phrases == [phrase_key(w) for w in words]  # one key per word
    want = reference_walk(d, seq)
    assert (words, begin, dead) == want
    assert parse(d, seq) == (want[0], tuple(seq[begin:]))


def compiled(d):
    """d after walking enough symbols to compile its pattern."""
    walk(d, [0] * (COMPILE_SYMBOLS_PER_STATE * len(d.transitions)))
    assert d._pattern is not None
    return d


def chain_trie(depth):
    """Words 1^j 0 for j < depth and 1^depth: a trie of `depth` states in a
    chain, whose pattern_source nests `depth` groups."""
    return FiniteDictionary(2, [(1,) * j + (0,) for j in range(depth)] + [(1,) * depth])


WALK_FAMILIES = {
    **FAMILIES,
    "tunstall_64": lambda: tunstall_build(SourceModel.finite([0.9, 0.1]), 64),
    "ternary_dead_zone": lambda: FiniteDictionary(3, [(0,), (1, 0), (1, 2, 2), (2,)]),
    "incomplete": lambda: FiniteDictionary(2, [(0,), (1, 0)]),
    "symbols_to_6": lambda: FiniteDictionary(7, [(6,), (0, 5), (5, 0, 1), (3,)]),
}

SMALL = st.integers(0, 6)
ODD = st.sampled_from([-(2**70), -1, 7, 255, 256, 0xD800, 0xDBFF, 0xDFFF,
                       0xFFFF, 0x10FFFF, 0x110000, 2**32, 2**70])
STREAMS = st.lists(st.one_of(SMALL, SMALL, SMALL, SMALL, ODD), max_size=40)


@pytest.mark.parametrize("name", sorted(WALK_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(seq=STREAMS, as_tuple=st.booleans())
def test_walk_matches_classify(name, seq, as_tuple):
    seq = tuple(seq) if as_tuple else seq
    check_walk(WALK_FAMILIES[name](), seq)  # below the compile threshold
    check_walk(compiled(WALK_FAMILIES[name]()), seq)


def test_walk_matches_classify_on_the_corpus(corpus):
    streams = [list(s) for n in range(7) for s in itertools.product((0, 1), repeat=n)]
    streams += [[0, 1, 2, 1], [1, -1, 0], [1, 0x110000, 0], [0] * 9 + [1] * 9]
    for d in corpus:
        for fresh in (d, compiled(FiniteDictionary(2, d.words))):
            for seq in streams:
                check_walk(fresh, seq)


@pytest.mark.parametrize("name", sorted(WALK_FAMILIES))
def test_pattern_matches_exactly_the_words(name):
    # the loop would mend a pattern that misses words, so check the
    # pattern's language on its own, against classify (held to the
    # member oracle above)
    d = WALK_FAMILIES[name]()
    source = pattern_source(d)
    code_points = (0, 1, 2, 3, 4, 6, 7, 0xD800, 0x10FFFF)
    for word in _strings(code_points, MAX_LEN):
        text = "".join(map(chr, word))
        assert bool(re.fullmatch(source, text)) == (d.classify(word) == WORD), word


def test_walk_compiles_at_the_threshold():
    d = RunLengthDictionary()
    seq = [1, 1, 0, 0, 1, 0, 1]
    want = ([(1, 1, 0), (0,), (1, 0)], 6, -1)
    threshold = COMPILE_SYMBOLS_PER_STATE * len(d.transitions)
    for _ in range((threshold - 1) // len(seq)):
        phrases, begin, dead = walk(d, seq)
        assert ([phrase_word(p) for p in phrases], begin, dead) == want
    assert d._pattern is None
    for _ in range(2):  # the first call's symbols reach the threshold
        phrases, begin, dead = walk(d, seq)
        assert d._pattern is not None
        assert ([phrase_word(p) for p in phrases], begin, dead) == want


def test_walk_numpy_blocks_match_lists():
    import numpy as np

    d = compiled(head_extension(0))
    seq = [0, 3, 0, 0, 300, 0xD800, 0, 0x110000, 0, 5, 2**40, 1]
    small = [s for s in seq if s < 128]
    arrays = [np.array(seq, dtype=np.int64), np.array(seq, dtype=object),
              np.array(small, dtype=np.uint8), np.array(small + [-1, 0], dtype=np.int8)]
    for arr in arrays:
        assert walk(d, arr) == walk(d, arr.tolist())
        check_walk(d, arr.tolist())


def test_countable_family_symbol_without_a_code_point():
    for d in (AlphabetDictionary(None), compiled(AlphabetDictionary(None)),
              head_extension(0), compiled(head_extension(0))):
        seq = [5, 0x110000, 0, 0, 2**64, 7, 0x10FFFF, -3, 1]
        check_walk(d, seq)
        phrases, begin, dead = walk(d, seq)
        assert (0x110000,) in phrases and "\U0010ffff" in phrases
        assert dead == 7 and begin == 7


def test_pattern_depth_bound():
    # re's parser recurses once per group: a pattern at the bound must
    # compile on every supported Python, and one group more keeps the loop
    seq = [1] * (MAX_PATTERN_DEPTH - 1) + [0] + [1] * (MAX_PATTERN_DEPTH + 1) + [0, 1]
    at_bound = chain_trie(MAX_PATTERN_DEPTH)
    assert pattern_source(at_bound) is not None
    check_walk(compiled(at_bound), seq)
    assert pattern_source(chain_trie(MAX_PATTERN_DEPTH + 1)) is None
    too_deep = compiled(chain_trie(MAX_PATTERN_DEPTH + 1))
    assert too_deep._pattern is False
    check_walk(too_deep, seq)


def test_pattern_that_overflows_the_stack_keeps_the_loop():
    # a caller deep in the stack can run re's parser out of stack below
    # the depth bound; the walk then keeps the loop for good
    d = chain_trie(MAX_PATTERN_DEPTH)
    seq = [1] * MAX_PATTERN_DEPTH + [0] * COMPILE_SYMBOLS_PER_STATE * len(d.transitions)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    re.purge()  # a cached pattern would skip the parser
    sys.setrecursionlimit(depth + 50)
    try:
        got = walk(d, seq)
    finally:
        sys.setrecursionlimit(limit)
    assert d._pattern is False
    assert ([phrase_word(p) for p in got[0]], *got[1:]) == reference_walk(d, seq)
    check_walk(d, seq[:500])


def test_pattern_builder_out_of_stack_is_tried_once(monkeypatch):
    built = []

    def out_of_stack(d):
        built.append(d)
        raise RecursionError

    monkeypatch.setattr(dictionary, "pattern_source", out_of_stack)
    d = RunLengthDictionary()
    seq = [1, 1, 0, 0, 1, 0, 1] * COMPILE_SYMBOLS_PER_STATE * len(d.transitions)
    for _ in range(2):
        got = walk(d, seq)
        assert ([phrase_word(p) for p in got[0]], *got[1:]) == reference_walk(d, seq)
        assert d._pattern is False and len(built) == 1


def test_pattern_of_a_deep_tunstall_dictionary_is_never_built():
    d = tunstall_build(SourceModel.finite([0.999, 0.001]), 512)
    assert d.max_word_length() > MAX_PATTERN_DEPTH
    assert compiled(d)._pattern is False
    check_walk(d, [0] * 600 + [1, 0, 0, 1, 2])
