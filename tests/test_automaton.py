"""Every dictionary family's automaton against brute-force oracles built
from member_words alone: classify, cursors and the uncovered frontier."""

import itertools

import pytest

from vvcode import (
    AlphabetDictionary,
    RunLengthDictionary,
    extend,
    head_extension,
    uncovered_frontier,
)
from vvcode.dictionary import DEAD, INTERNAL, WORD

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


def _check_classify_and_cursor(d, members, strings):
    expected = oracle(members)
    for word in strings:
        assert d.classify(word) == expected(word), word
        cur = d.cursor()
        for i, s in enumerate(word):
            c = cur.step(s)
            assert c == expected(word[: i + 1]), word[: i + 1]
            if c != INTERNAL:
                assert all(cur.step(t) == DEAD for t in word[i + 1 :])
                break


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lazy_family_automaton_matches_oracle(name):
    d = FAMILIES[name]()
    members = _members(d, MAX_LEN + 3)
    _check_classify_and_cursor(d, members, _strings(SYMBOLS, MAX_LEN))
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
        _check_classify_and_cursor(d, members, strings)
        for n in range(1, 8):
            words, exhaustive = uncovered_frontier(d, n)
            assert words == oracle_frontier(members, n, 2)
            assert exhaustive
