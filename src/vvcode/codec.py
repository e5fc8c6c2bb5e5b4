"""The VV codec: parsing dictionary construction, phrase codebooks, and
lossless encode/decode with self-delimiting framing.

Bitstream layout (bit-exact):

    [magic byte 0x56]
    [varint phrase_count]                  (LEB128, byte-aligned)
    [phrase codewords, MSB-first packed]
    [varint remainder_length]              (LEB128 bytes, bit-packed unaligned)
    [remainder symbols, ceil(log2 k) bits each]
    [zero padding to the next byte boundary]

The remainder carries the trailing suffix the parser could not complete,
so every finite stream round-trips exactly.

Bits move as '0'/'1' strings, never one call per bit. encode joins the
fields and the phrases' codewords into one string and packs it with a
single int conversion. decode unpacks the input into one string and reads
varints and remainder symbols as slices.

Decoding the phrases is parsing the bits with a dictionary: a prefix-free
code's codewords are a FiniteDictionary over {0, 1}, the code trie, and
dictionary.walk's rule decides when it reads them in C. Until the bits a
codebook has decoded reach COMPILE_SYMBOLS_PER_STATE per trie state, each
phrase is found by looking up the slices at the codebook's distinct
codeword lengths, shortest first (a prefix-free code matches at most one),
so a one-off decode builds no trie. (A bisect of the sorted codewords,
which dictionary.walk does for long words, was slower here: 1.14 times on
Tunstall-256's Huffman code and 2.2 times on a fixed 8-bit code, where one
probe finds each codeword.) After that, the trie's pattern is
compiled once and cached on the codebook, and one re.findall over the bits
as text (bit b is the character chr(b)) returns the codewords; the first
phrase-count of them map to their phrases' text, which is joined and read
back as symbols in C. Where those are not all codewords, the loop reads
the same bits again and raises what it always raised, so both paths give
the same symbols and the same errors. Decode work is bounded by the input
length: a phrase count above the bits left, a remainder wider than the
bits left, or (over a unary alphabet, at 0 bits per symbol) a remainder as
long as the one dictionary word raises CorruptBitstreamError before any
symbol is produced.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dictionary import (
    COMPILE_SYMBOLS_PER_STATE,
    TO_WORD,
    FiniteDictionary,
    _word_pattern,
    index_word,
    phrase_key,
    reiterable,
    walk,
    word_tuple,
)
from .errors import (
    CodebookMismatchError,
    CorruptBitstreamError,
    StreamSymbolError,
    UnsupportedOperationError,
)
from .source import PROB_SUM_TOL, SourceModel, Word, canon_key

MAGIC = 0x56
_MAGIC_BITS = format(MAGIC, "08b")
_BIT_TEXT = bytes.maketrans(b"01", b"\x00\x01")  # '0'/'1' to chr(0)/chr(1)


def kraft_sum(codewords) -> Fraction:
    """Exact sum of 2^-len over the codewords."""
    return sum(Fraction(1, 2 ** len(c)) for c in codewords)


def _canon_sorted(pairs: list) -> list:
    """(phrase, value) pairs in canonical phrase order. Only when two phrases
    do not compare are all converted with index_word, which raises
    SymbolTypeError for a symbol that is not an integer."""
    try:
        return sorted(pairs, key=lambda t: canon_key(t[0]))
    except TypeError:
        pairs = [(index_word(w), v) for w, v in pairs]
        return sorted(pairs, key=lambda t: canon_key(t[0]))


@dataclass(frozen=True)
class PhraseCodebook:
    """Bijection between dictionary phrases and binary codewords.

    Phrases keep their given order (canonical from from_pairs, huffman_build
    and fixed_codebook), each symbol as a plain int; codewords are '0'/'1'
    strings, verified prefix-free, which bounds their Kraft sum by 1.
    """

    phrases: tuple
    codewords: tuple

    def __post_init__(self):
        if not self.phrases:
            raise ValueError("codebook needs at least one phrase")
        if len(self.phrases) != len(self.codewords):
            raise ValueError("phrase/codeword count mismatch")
        try:  # phrases are stored as tuples of plain ints; checked in C first
            plain = {tuple} == set(map(type, self.phrases)) and all(
                type(s) is int for s in set().union(*self.phrases))
        except TypeError:
            plain = False
        if not plain:
            object.__setattr__(self, "phrases", tuple(map(index_word, self.phrases)))
        if len(set(self.phrases)) != len(self.phrases):
            raise ValueError("duplicate phrases in codebook")
        cs = self.codewords
        # checked in C; a failure, an unhashable codeword included, walks them to name one
        try:
            if len(set(cs)) != len(cs):
                raise ValueError("duplicate codewords in codebook")
            binary = all(cs) and set("".join(cs)) <= {"0", "1"}
        except TypeError:
            binary = False
        if not binary:
            for c in cs:
                if not isinstance(c, str) or not c or any(b not in "01" for b in c):
                    raise ValueError(f"codeword {c!r} is not a nonempty binary string")
        cs = sorted(cs)
        if not binary or any(map(str.startswith, cs[1:], cs)):
            for a, b in zip(cs, cs[1:]):
                if b.startswith(a):
                    raise ValueError(f"codewords not prefix-free: {a!r} prefixes {b!r}")

    @classmethod
    def from_pairs(cls, pairs) -> "PhraseCodebook":
        pairs = reiterable(pairs)  # walked again to name a phrase that is no word
        try:
            pairs = _canon_sorted([(tuple(w), c) for w, c in pairs])
        except TypeError:
            pairs = _canon_sorted([(index_word(w), c) for w, c in pairs])
        return cls(
            phrases=tuple(w for w, _ in pairs),
            codewords=tuple(c for _, c in pairs),
        )

    def _check_matches(self, d: FiniteDictionary) -> None:
        """Raise CodebookMismatchError unless the phrases are d's words. Both
        are immutable: the codebook remembers the dictionary it last matched,
        so the sets are built once per pair. A lazy family has no word
        tuple: its infinite words never match."""
        if getattr(self, "_matched", None) is not d:
            if set(self.phrases) != set(getattr(d, "words", ())):
                raise CodebookMismatchError("codebook phrases do not match the dictionary words")
            object.__setattr__(self, "_matched", d)

    def codeword_for(self, phrase: Word) -> str:
        return self._map[phrase]

    @cached_property
    def _map(self):
        """Codeword by phrase tuple and by phrase key.

        dictionary.walk lists a phrase by its key: its text, or a tuple
        once the stream holds a symbol with no text (such as 1.0, which
        the automaton reads as 1).
        """
        m = dict(zip(self.phrases, self.codewords))
        m.update(zip(map(phrase_key, self.phrases), self.codewords))
        return m

    @cached_property
    def _table(self):
        """(phrase by codeword, the codeword lengths ascending)."""
        return (
            dict(zip(self.codewords, self.phrases)),
            tuple(sorted({len(c) for c in self.codewords})),
        )

    def _compiled_code(self, n_bits: int):
        """decode's (pattern, phrase text by codeword text, longest codeword
        length), or None while the loop reads alone.

        The code trie, a FiniteDictionary over {0, 1} whose words are the
        codewords, goes through walk's rule: n_bits joins the bits this
        codebook has decoded, and _word_pattern compiles the trie's pattern
        once they reach COMPILE_SYMBOLS_PER_STATE per trie state (never for
        a trie deeper than MAX_PATTERN_DEPTH). A prefix-free binary code of
        n words has at least n - 1 trie states, so the trie itself waits
        until the bits reach COMPILE_SYMBOLS_PER_STATE per n - 1 states,
        and is then built once. A phrase with a symbol that is not a code
        point has no text, and its codebook keeps the loop.
        """
        code = getattr(self, "_code", None)
        if code is None:
            seen = getattr(self, "_decoded", 0) + n_bits
            if seen < COMPILE_SYMBOLS_PER_STATE * max(1, len(self.codewords) - 1):
                object.__setattr__(self, "_decoded", seen)
                return None
            bit_words = [tuple(map(int, c)) for c in self.codewords]
            texts = list(map(phrase_key, self.phrases))
            text_of = None
            if all(isinstance(t, str) for t in texts):
                text_of = dict(zip(map(phrase_key, bit_words), texts))
            code = (FiniteDictionary(2, bit_words), text_of)
            object.__setattr__(self, "_code", code)
            n_bits = seen
        trie, text_of = code
        pattern = _word_pattern(trie, n_bits) if text_of else None
        return pattern and (pattern, text_of, trie.max_word_length())

    def expected_length(self, source: SourceModel) -> float:
        """Mean codeword length under the source's phrase probabilities."""
        return math.fsum(
            source.word_prob(w) * len(c)
            for w, c in zip(self.phrases, self.codewords)
        )

    def as_dict(self):
        return {
            "phrases": [list(w) for w in self.phrases],
            "codewords": list(self.codewords),
        }


def tunstall_build(source: SourceModel, target_size: int) -> FiniteDictionary:
    """Greedy variable-to-fixed dictionary: start from D = A and repeatedly
    extend the most probable word until another extension would exceed
    target_size. Ties break in canonical word order, so builds are
    deterministic.

    The build grows the dictionary's trie as it goes: the words wait in a
    heap keyed (-P, length, code) beside the state they end at, where code
    is the word read as a base-k integer. Among words of one length,
    numeric order of the codes is lexicographic order of the words, so the
    heap pops in canonical order without building a word tuple. Extending
    a word turns its edge into a fresh state whose k edges all end words.
    The result is proper and complete by construction, so _from_trie takes
    the trie unchecked and reads its words off with subtree_walk, level by
    level with symbols ascending, which is canonical order."""
    k = source.alphabet_size
    if k is None:
        raise UnsupportedOperationError(
            "Tunstall construction needs a finite alphabet (each extension "
            "of a countable alphabet adds infinitely many words)"
        )
    if k < 2:
        raise ValueError("Tunstall construction needs alphabet size >= 2")
    if target_size < k:
        raise ValueError(f"target size {target_size} below alphabet size {k}")
    probs = source.probs
    symbols = range(k)
    trans = [dict.fromkeys(symbols, TO_WORD)]
    # codes are distinct within a length, so the heap never compares states
    heap = [(-probs[i], 1, i, 0) for i in symbols]
    heapq.heapify(heap)
    count = k
    while count + (k - 1) <= target_size:
        neg_p, n, code, q = heapq.heappop(heap)
        state = len(trans)
        trans[q][code % k] = state
        trans.append(dict.fromkeys(symbols, TO_WORD))
        code *= k
        for b in symbols:
            heapq.heappush(heap, (neg_p * probs[b], n + 1, code + b, state))
        count += k - 1
    return FiniteDictionary._from_trie(k, trans)


def huffman_build(phrase_probs) -> PhraseCodebook:
    """Optimal binary prefix code over (phrase, probability) pairs.

    Two-queue construction: leaves enter sorted ascending by (probability,
    canonical phrase order); merged nodes queue in creation order; each
    merge pops the two cheapest fronts, preferring the leaf queue on equal
    weight, and the first pop takes branch bit 0. A single phrase gets the
    degenerate codeword "0".

    A node is a (weight, index) pair: leaf i is the i-th phrase in
    canonical order, and merged node n + i lists its two children in
    kids[i]. A stable sort by probability alone then gives the leaf queue
    its (probability, canonical) order, and codewords run from the root,
    the last node, down.
    """
    items = [(word_tuple(w), float(p)) for w, p in phrase_probs]
    if not items:
        raise ValueError("cannot build a codebook over zero phrases")
    if any(not p > 0.0 for _, p in items):  # NaN too
        raise ValueError("phrase probabilities must be positive")
    total = math.fsum(p for _, p in items)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"phrase probabilities sum to {total}, not 1")
    if len(items) == 1:
        return PhraseCodebook.from_pairs([(items[0][0], "0")])

    items = _canon_sorted(items)
    probs = [p for _, p in items]
    n = len(items)
    leaves = deque((probs[i], i) for i in sorted(range(n), key=probs.__getitem__))
    merged = deque()
    kids = []

    def pop_min():
        if leaves and (not merged or leaves[0][0] <= merged[0][0]):
            return leaves.popleft()
        return merged.popleft()

    while len(leaves) + len(merged) > 1:
        wa, a = pop_min()
        wb, b = pop_min()
        merged.append((wa + wb, n + len(kids)))
        kids.append((a, b))

    codes = [""] * (n + len(kids))
    for i in range(len(kids) - 1, -1, -1):
        a, b = kids[i]
        code = codes[n + i]
        codes[a] = code + "0"
        codes[b] = code + "1"
    return PhraseCodebook(tuple(w for w, _ in items), tuple(codes[:n]))


def fixed_codebook(phrases) -> PhraseCodebook:
    """Fixed-width indexing of phrases in canonical order: ceil(log2 n) bits.

    Mirrors a literal variable-to-fixed string encoder.
    """
    ws = _canon_sorted([(word_tuple(w), None) for w in phrases])
    if not ws:
        raise ValueError("cannot build a codebook over zero phrases")
    width = max(1, (len(ws) - 1).bit_length())
    return PhraseCodebook(
        tuple(w for w, _ in ws), tuple(format(i, f"0{width}b") for i in range(len(ws)))
    )


def symbol_bit_width(alphabet_size: int) -> int:
    """Bits per remainder symbol: ceil(log2 k), 0 for the unary alphabet."""
    return (alphabet_size - 1).bit_length()


def bytes_to_bits(data: bytes) -> str:
    """The bytes as a '0'/'1' string, MSB first, 8 characters per byte."""
    if not data:
        return ""
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")


def bits_to_bytes(bits: str) -> bytes:
    """Pack a '0'/'1' string MSB first, zero-padded to whole bytes."""
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def _varint_bits(value: int) -> str:
    out = []
    while value >= 0x80:
        out.append(format((value & 0x7F) | 0x80, "08b"))
        value >>= 7
    out.append(format(value, "08b"))
    return "".join(out)


def _read_varint(bits: str, pos: int) -> tuple:
    """LEB128 value starting at bit pos; returns (value, next pos)."""
    value = 0
    shift = 0
    while True:
        if pos + 8 > len(bits):
            raise CorruptBitstreamError("unexpected end of stream", pos)
        byte = int(bits[pos : pos + 8], 2)
        pos += 8
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CorruptBitstreamError("varint too long", pos)


def encode(d: FiniteDictionary, cb: PhraseCodebook, stream) -> bytes:
    """Parse the stream with d and emit the framed bitstream.

    Requires the codebook to cover exactly the dictionary words
    (CodebookMismatchError otherwise); a symbol that is not an index into
    the alphabet raises StreamSymbolError naming the first one.
    dictionary.walk reads the phrases, in C once d has walked enough
    symbols, and each phrase key looks its codeword up. Every symbol the walk consumes has a transition
    and so lies in the alphabet; only the remainder needs the check.
    """
    cb._check_matches(d)
    seq = reiterable(stream)
    phrases, begin, _ = walk(d, seq)
    k = d.alphabet_size
    remainder = _remainder_symbols(seq[begin:], k)
    width = symbol_bit_width(k)
    bits = "".join((
        _MAGIC_BITS,
        _varint_bits(len(phrases)),
        "".join(map(cb._map.__getitem__, phrases)),
        _varint_bits(len(remainder)),
        "".join(format(s, f"0{width}b") for s in remainder) if width else "",
    ))
    return bits_to_bytes(bits)


def _remainder_symbols(tail, k: int) -> list:
    """tail's symbols as ints, read with operator.index (True is 1), or
    StreamSymbolError naming the first that is not an index in range(k)."""
    try:
        syms = list(map(operator.index, tail))
        if not syms or (0 <= min(syms) and max(syms) < k):
            return syms
    except TypeError:
        pass
    for s in tail:  # some symbol fails, and this names the first
        try:
            i = operator.index(s)
        except TypeError:
            raise StreamSymbolError(f"stream symbol {s!r} is not an integer") from None
        if not 0 <= i < k:
            raise StreamSymbolError(f"stream symbol {s} outside alphabet of size {k}")


def decode(d: FiniteDictionary, cb: PhraseCodebook, data: bytes) -> list:
    """Exact inverse of encode for the same (dictionary, codebook)."""
    cb._check_matches(d)
    bits = bytes_to_bits(data)
    total = len(bits)
    if total < 8:
        raise CorruptBitstreamError("unexpected end of stream", 0)
    if bits[:8] != _MAGIC_BITS:
        raise CorruptBitstreamError("bad magic byte", 0)
    n_phrases, pos = _read_varint(bits, 8)
    if n_phrases > total - pos:
        # every codeword is at least one bit long
        raise CorruptBitstreamError(
            f"phrase count {n_phrases} exceeds the {total - pos} bits left", pos
        )

    k = d.alphabet_size
    code = cb._compiled_code(total - pos) if n_phrases else None
    read = code and _read_codewords(code, bits, pos, n_phrases, k)
    if read:
        out, pos = read
    else:
        out, pos = _read_phrases(cb, bits, pos, n_phrases)

    rem_len, pos = _read_varint(bits, pos)
    width = symbol_bit_width(k)
    end = pos + rem_len * width
    if end > total:
        raise CorruptBitstreamError("unexpected end of stream", pos)
    if width:
        syms = [int(bits[i : i + width], 2) for i in range(pos, end, width)]
        if syms and max(syms) >= k:
            i = next(i for i, s in enumerate(syms) if s >= k)
            raise CorruptBitstreamError(
                f"remainder symbol {syms[i]} out of range", pos + (i + 1) * width
            )
        out.extend(syms)
    elif rem_len >= d.max_word_length():
        # over a unary alphabet the dictionary is one word and the
        # remainder a proper prefix of it
        raise CorruptBitstreamError(
            f"remainder length {rem_len} reaches the dictionary word length", pos
        )
    else:
        out.extend([0] * rem_len)
    pos = end
    if total - pos >= 8:
        raise CorruptBitstreamError("dangling bytes after padding", pos)
    if "1" in bits[pos:]:
        raise CorruptBitstreamError("nonzero padding bits", pos)
    return out


def _read_phrases(cb: PhraseCodebook, bits: str, pos: int, n_phrases: int) -> tuple:
    """The loop path: (symbols of n_phrases phrases from bit pos, next pos).
    Prefix-freeness leaves at most one codeword that starts at pos."""
    phrase_of, lengths = cb._table
    total = len(bits)
    out = []
    for _ in range(n_phrases):
        for n in lengths:
            ph = phrase_of.get(bits[pos : pos + n])
            if ph is not None:
                break
        else:
            if total - pos < lengths[-1]:
                raise CorruptBitstreamError("unexpected end of stream", pos)
            raise CorruptBitstreamError("bits match no codeword", pos)
        out.extend(ph)
        pos += n
    return out, pos


def _read_codewords(code, bits: str, pos: int, n_phrases: int, k: int):
    """The compiled path: (symbols of n_phrases phrases from bit pos, next
    pos), or None where the bits from pos do not start with n_phrases
    codewords.

    findall reads no further than n_phrases of the longest codeword. Where
    no codeword matches, the pattern's last branch takes the rest of the
    text, which is no codeword, so the first n_phrases matches are
    codewords exactly when the last of them is one.
    """
    pattern, text_of, longest = code
    bit_text = bits[pos : pos + n_phrases * longest].encode("ascii").translate(_BIT_TEXT)
    found = pattern.findall(bit_text.decode("latin-1"))
    del found[n_phrases:]
    if len(found) < n_phrases or found[-1] not in text_of:
        return None
    text = "".join(map(text_of.__getitem__, found))
    symbols = list(text.encode("latin-1")) if k <= 256 else list(map(ord, text))
    return symbols, pos + sum(map(len, found))
