"""Tunstall and Huffman constructions and the checking constructors against
reference copies of their word-tuple forms.

tunstall_build keys its heap by integer word codes and grows its trie
while it expands words, and huffman_build keeps index nodes; the
references below are the plain constructions (a heap of word tuples that
numbers one trie state per pop, its words handed to a constructor that
checks every symbol and builds the trie one symbol at a time, and a
Huffman tree of dict nodes). Every dictionary, automaton and codebook must
come out equal, and FiniteDictionary and PhraseCodebook must raise exactly
the reference constructors' errors.
"""

import hashlib
import heapq
import itertools
import json
import math
import operator
import re
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvcode import (
    FiniteDictionary,
    PhraseCodebook,
    SourceModel,
    huffman_build,
    tunstall_build,
)
from vvcode.dictionary import (
    TO_DEAD,
    TO_WORD,
    WORD,
    find_prefix_violation,
    pattern_source,
)
from vvcode.errors import ImproperDictionaryError, SymbolTypeError
from vvcode.formats import save_dictionary
from vvcode.source import canon_key, sort_words


# --- reference copies --------------------------------------------------------


def ref_finite_dictionary(alphabet_size, words):
    """The checking constructor, one word and one symbol at a time:
    (words in canonical order, trie transitions)."""
    if alphabet_size < 1:
        raise ValueError("alphabet size must be >= 1")
    ws = [tuple(w) for w in words]
    if not ws:
        raise ValueError("dictionary needs at least one word")
    seen = set()
    for w in ws:
        if not w:
            raise ValueError("empty word is not a valid dictionary member")
        for s in w:
            try:
                operator.index(s)
            except TypeError:
                raise SymbolTypeError(
                    f"symbol {s!r} in word {list(w)!r} is not an integer"
                ) from None
            if not (0 <= s < alphabet_size):
                raise ValueError(
                    f"symbol {s} out of range for alphabet size {alphabet_size}"
                )
        if w in seen:
            raise ValueError(f"duplicate word {list(w)}")
        seen.add(w)
    violation = find_prefix_violation(ws)
    if violation is not None:
        raise ImproperDictionaryError(*violation)
    words = tuple(sort_words(ws))
    trans = [{}]
    for w in words:
        q = 0
        for s in w[:-1]:
            nxt = trans[q].get(s)
            if nxt is None:
                nxt = trans[q][s] = len(trans)
                trans.append({})
            q = nxt
        trans[q][w[-1]] = TO_WORD
    return words, trans


def ref_tunstall(source, target_size):
    """Tunstall from a heap of word tuples, one trie state per pop: (the
    words in heap order, the trie transitions)."""
    k = source.alphabet_size
    trans = [dict.fromkeys(range(k), TO_WORD)]
    heap = [(-source.probs[i], 1, (i,), 0) for i in range(k)]
    heapq.heapify(heap)
    count = k
    while count + (k - 1) <= target_size:
        neg_p, _, w, q = heapq.heappop(heap)
        state = len(trans)
        trans[q][w[-1]] = state
        trans.append(dict.fromkeys(range(k), TO_WORD))
        for b in range(k):
            child = w + (b,)
            heapq.heappush(heap, (neg_p * source.probs[b], len(child), child, state))
        count += k - 1
    return [w for _, _, w, _ in heap], trans


def ref_codebook_check(phrases, codewords):
    """PhraseCodebook's checks, one codeword and one character at a time,
    with the Kraft sum in Fractions."""
    if not phrases:
        raise ValueError("codebook needs at least one phrase")
    if len(phrases) != len(codewords):
        raise ValueError("phrase/codeword count mismatch")
    if len(set(phrases)) != len(phrases):
        raise ValueError("duplicate phrases in codebook")
    try:  # an unhashable codeword is named by the loop below
        duplicate = len(set(codewords)) != len(codewords)
    except TypeError:
        duplicate = False
    if duplicate:
        raise ValueError("duplicate codewords in codebook")
    for c in codewords:
        if not isinstance(c, str) or not c or any(b not in "01" for b in c):
            raise ValueError(f"codeword {c!r} is not a nonempty binary string")
    cs = sorted(codewords)
    for a, b in zip(cs, cs[1:]):
        if b.startswith(a):
            raise ValueError(f"codewords not prefix-free: {a!r} prefixes {b!r}")
    if sum(Fraction(1, 2 ** len(c)) for c in codewords) > 1:
        raise ValueError("codewords violate the Kraft inequality")
    return tuple(phrases), tuple(codewords)


def ref_from_pairs(pairs):
    pairs = sorted(((tuple(w), c) for w, c in pairs), key=lambda t: canon_key(t[0]))
    return ref_codebook_check(
        tuple(w for w, _ in pairs), tuple(c for _, c in pairs)
    )


def ref_huffman(phrase_probs):
    """Two-queue Huffman over dict nodes: (phrases, codewords) in
    canonical order."""
    items = [(tuple(w), float(p)) for w, p in phrase_probs]
    if len(items) == 1:
        return ref_from_pairs([(items[0][0], "0")])
    leaves = deque(
        {"w": p, "phrase": w, "kids": None}
        for w, p in sorted(items, key=lambda t: (t[1], canon_key(t[0])))
    )
    merged = deque()

    def pop_min():
        if leaves and merged:
            return leaves.popleft() if leaves[0]["w"] <= merged[0]["w"] else merged.popleft()
        return leaves.popleft() if leaves else merged.popleft()

    while len(leaves) + len(merged) > 1:
        a = pop_min()
        b = pop_min()
        merged.append({"w": a["w"] + b["w"], "phrase": None, "kids": (a, b)})
    pairs = []
    stack = [(merged.popleft(), "")]
    while stack:
        node, code = stack.pop()
        if node["kids"] is None:
            pairs.append((node["phrase"], code))
        else:
            a, b = node["kids"]
            stack.append((a, code + "0"))
            stack.append((b, code + "1"))
    return ref_from_pairs(pairs)


def outcome(build, *args):
    """What build(*args) returns, or the type and message it raises."""
    try:
        return "ok", build(*args)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)


# --- Tunstall and Huffman ----------------------------------------------------


def phrase_probs(source, words):
    """(word, P(word)) from symbol counts: one power per symbol, not one
    multiply per symbol, so the deep chain stays cheap. Both constructions get
    the same list, so it need not match word_prob to the last bit."""
    return [
        (w, math.prod(p ** w.count(s) for s, p in enumerate(source.probs)))
        for w in words
    ]


def check_pattern(d):
    """The compiled pattern matches exactly the strings classify calls
    words: the words, their longest proper prefixes, their one-symbol
    extensions and every short string."""
    source = pattern_source(d)
    if source is None:
        return
    pattern = re.compile(source)
    k = d.alphabet_size
    strings = set(d.words)
    strings.update(w[:-1] for w in d.words if len(w) > 1)
    strings.update(w + (s,) for w in d.words[:64] for s in range(k))
    for n in range(1, 5):
        strings.update(itertools.product(range(k), repeat=n))
    for w in strings:
        text = "".join(map(chr, w))
        assert bool(pattern.fullmatch(text)) == (d.classify(w) == WORD), w


def check_constructions(source, size, pattern=True):
    k = source.alphabet_size
    heap_words, heap_trans = ref_tunstall(source, size)
    ref_words, ref_trans = ref_finite_dictionary(k, heap_words)
    d = tunstall_build(source, size)
    assert d.words == ref_words
    # states numbered in pop order, each state's edges in insertion order
    assert [list(t.items()) for t in d.transitions] == [
        list(t.items()) for t in heap_trans
    ]
    assert len(frozenset(d.words)) == len(ref_words)  # no word repeats
    assert d.max_word_length() == max(map(len, ref_words))
    assert d.is_complete()
    assert all(len(t) == k for t in ref_trans)
    assert len(d.transitions) == len(ref_trans)
    assert d.defaults == [TO_DEAD] * len(ref_trans)
    if pattern:
        check_pattern(d)
    pp = phrase_probs(source, d.words)
    cb = huffman_build(pp)
    assert (cb.phrases, cb.codewords) == ref_huffman(pp)


SOURCES = {
    "biased": [0.9, 0.1],
    "deep": [0.999, 0.001],
    "fair": [0.5, 0.5],
    "uniform4": [0.25] * 4,
    "ternary": [0.5, 0.3, 0.2],
    # P(1) = P(00): ties between lengths
    "dyadic": [0.5, 0.25, 0.25],
}


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("extra", [0, 1, 2, 100, 256, 1024, 4096])
def test_constructions_match_the_references(name, extra):
    # extra counts past k: k, k + 1 (out of reach for k > 2), k + 2, ...
    probs = SOURCES[name]
    size = len(probs) + extra if extra < 100 else extra
    # the chain over [0.999, 0.001] nests past the pattern's depth bound
    check_constructions(SourceModel.finite(probs), size, pattern=name != "deep")


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.integers(1, 1000), min_size=2, max_size=5),
    size=st.integers(0, 400),
)
def test_constructions_match_the_references_on_random_sources(weights, size):
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    check_constructions(SourceModel.finite(probs), len(probs) + size)


def test_tunstall_build_runs_no_checking_constructor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("FiniteDictionary.__init__ ran")

    monkeypatch.setattr(FiniteDictionary, "__init__", refuse)
    d = tunstall_build(SourceModel.finite([0.9, 0.1]), 64)
    assert len(d.words) == 64


def test_tunstall_4096_matches_pinned_digests():
    d = tunstall_build(SourceModel.finite([0.9, 0.1]), 4096)
    report = json.dumps(save_dictionary(d), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "ca638d363730e145afbde5d06d484a2359225e0bdf5d56e1ce669c0becf27e5d"
    )
    assert hashlib.sha256(repr(d.transitions).encode()).hexdigest() == (
        "9ab8d33b5b5311494d9b04cd1e0461a6c1f5c95b0d75eb8e9e19c64af2b25cf8"
    )


def test_huffman_single_phrase_matches_the_reference():
    cb = huffman_build([((1, 0), 1.0)])
    assert (cb.phrases, cb.codewords) == ref_huffman([((1, 0), 1.0)])


# --- error parity ------------------------------------------------------------

words_st = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple)


def proper_subset(words):
    """The words that have no shorter (or equal) kept word as a prefix."""
    kept = []
    for w in sort_words(set(words)):
        if not any(w[: len(v)] == v for v in kept):
            kept.append(w)
    return kept


def rarely(draw):
    return draw(st.sampled_from([False] * 19 + [True]))


@st.composite
def defective_word_lists(draw):
    k = 0 if rarely(draw) else draw(st.integers(1, 4))
    word = st.lists(st.integers(0, max(k, 1) - 1), min_size=1, max_size=5).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=10))
    if draw(st.booleans()):
        words = proper_subset(words)
    words = draw(st.permutations(words))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(
            ["empty", "high", "negative", "duplicate"] + ["prefix", "extension"] * 2
        ))
        base = draw(st.sampled_from(words))
        i = draw(st.integers(0, len(base)))
        if kind == "empty":
            bad = ()
        elif kind == "high":
            bad = base[:i] + (k + draw(st.integers(0, 2)),) + base[i:]
        elif kind == "negative":
            bad = base[:i] + (-draw(st.integers(1, 2)),) + base[i:]
        elif kind == "duplicate":
            bad = base
        elif kind == "prefix":
            bad = base[: max(i, 1)]
        else:
            bad = base + draw(word)
        words.insert(draw(st.integers(0, len(words))), bad)
    if rarely(draw):
        words = []
    return k, words


def built(k, words):
    d = FiniteDictionary(k, words)
    return d.words, d.transitions


@settings(max_examples=200, deadline=None)
@given(case=defective_word_lists())
def test_finite_dictionary_errors_match_the_reference(case):
    k, words = case
    got = outcome(built, k, words)
    want = outcome(ref_finite_dictionary, k, words)
    assert got == want
    if got[0] == "ok":
        # the trie's states are numbered as the reference numbers them
        got_trans, want_trans = got[1][1], want[1][1]
        assert [list(t.items()) for t in got_trans] == [
            list(t.items()) for t in want_trans
        ]


def test_finite_dictionary_odd_symbols_match_the_reference():
    cases = [
        (2, [(0,), (1.0, 0)]),
        (2, [(0,), (0.5,)]),
        (2, [(0,), (True,)]),
        (2, [(0,), (1, math.nan)]),
        (2, [(0,), ("1",)]),
        (2, [(0,), ([1],)]),
        (2, [(0,), (1, None)]),
    ]
    for k, words in cases:
        assert outcome(built, k, words) == outcome(ref_finite_dictionary, k, words)


@st.composite
def defective_codebooks(draw):
    n = draw(st.integers(1, 12))
    phrases = draw(st.lists(words_st, min_size=n, max_size=n, unique=True))
    width = max(1, (n - 1).bit_length())
    codewords = [format(i, f"0{width}b") for i in range(n)]
    if draw(st.booleans()):  # a variable-length code: unary-ish
        codewords = ["1" * i + "0" for i in range(n - 1)] + ["1" * (n - 1) or "0"]
    codewords = draw(st.permutations(codewords))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["empty", "char", "int", "duplicate", "prefix", "phrase"]
        ))
        i = draw(st.integers(0, n - 1))
        c = codewords[i]
        if kind == "empty":
            codewords[i] = ""
        elif kind == "char":
            c = str(c)
            j = draw(st.integers(0, len(c)))
            codewords[i] = c[:j] + draw(st.sampled_from("2a ")) + c[j:]
        elif kind == "int":
            codewords[i] = draw(st.sampled_from([0, 1]))
        elif kind == "duplicate":
            codewords[i] = codewords[draw(st.integers(0, n - 1))]
        elif kind == "prefix":
            c = str(c)
            codewords[i] = c[: draw(st.integers(1, max(1, len(c))))]
        else:
            phrases[i] = phrases[draw(st.integers(0, n - 1))]
    return list(zip(phrases, codewords))


def codebook_of(pairs):
    cb = PhraseCodebook.from_pairs(pairs)
    return cb.phrases, cb.codewords


def codebook(phrases, codewords):
    cb = PhraseCodebook(phrases, codewords)
    return cb.phrases, cb.codewords


@settings(max_examples=200, deadline=None)
@given(pairs=defective_codebooks())
def test_codebook_errors_match_the_reference(pairs):
    assert outcome(codebook_of, pairs) == outcome(ref_from_pairs, pairs)


def test_codebook_count_mismatch_and_odd_codewords_match_the_reference():
    cases = [
        ((), ()),
        (((0,), (1,)), ("0",)),
        (((0,), (1,)), (("0",), ("1",))),
        (((0,), (1,)), ("0", ["1"])),
        (((0,), (1,)), ("0", "01")),
    ]
    for phrases, codewords in cases:
        got = outcome(codebook, phrases, codewords)
        assert got == outcome(ref_codebook_check, phrases, codewords)
