"""Tunstall construction, Huffman codebooks, and bitstream round-trips."""

import bisect
import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from vvcode import (
    FiniteDictionary,
    PhraseCodebook,
    RunLengthDictionary,
    SourceModel,
    decode,
    dict_entropy,
    encode,
    fixed_codebook,
    head_extension,
    huffman_build,
    is_complete,
    kraft_sum,
    parse,
    tunstall_build,
)
from vvcode import codec
from vvcode.dictionary import COMPILE_SYMBOLS_PER_STATE, MAX_PATTERN_DEPTH, pattern_source
from vvcode.errors import (
    CodebookMismatchError,
    CorruptBitstreamError,
    StreamSymbolError,
    SymbolTypeError,
    UnsupportedOperationError,
    VVCodeError,
)
from vvcode.formats import load_codebook


def spec_encode(d, cb, stream) -> bytes:
    """The bitstream layout, written out from the codec module docstring.

    Greedy parse by prefix lookup, then every field appended to one big
    integer: magic byte, LEB128 phrase count, codewords, LEB128 remainder
    length, remainder symbols at ceil(log2 k) bits each, zero padding.
    """
    code_of = dict(zip(cb.phrases, cb.codewords))
    # phrases[lo:hi] are the phrases that extend the pending prefix; sorted,
    # they are ordered by the symbol after it, so each symbol bisects
    phrases = sorted(code_of)
    codes, start, lo, hi = [], 0, 0, len(phrases)
    for i, s in enumerate(stream):
        at = operator.itemgetter(i - start)
        lo = bisect.bisect_left(phrases, s, lo, hi, key=at)
        hi = bisect.bisect_right(phrases, s, lo, hi, key=at)
        if lo == hi:  # no phrase starts with the pending prefix
            break
        if len(phrases[lo]) == i - start + 1:  # the prefix is a phrase
            codes.append(code_of[phrases[lo]])
            start, lo, hi = i + 1, 0, len(phrases)
    remainder = stream[start:]

    acc, nbits = 0, 0

    def put(value, width):
        nonlocal acc, nbits
        acc = (acc << width) | value
        nbits += width

    def put_varint(value):
        while True:
            low, value = value & 0x7F, value >> 7
            put(low | (0x80 if value else 0), 8)
            if not value:
                return

    put(0x56, 8)
    put_varint(len(codes))
    for c in codes:
        put(int(c, 2), len(c))
    put_varint(len(remainder))
    width = (d.alphabet_size - 1).bit_length()
    for s in remainder:
        put(s, width)
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big")


def _huffman_case(source, size):
    d = tunstall_build(source, size)
    return d, huffman_build([(w, source.word_prob(w)) for w in d.words]), source


def _fixed_case(source, size):
    d = tunstall_build(source, size)
    return d, fixed_codebook(d.words), source


def _incomplete_case():
    d = FiniteDictionary(2, [(0,), (1, 0)])  # 11 is dead
    return d, fixed_codebook(d.words), SourceModel.fair_bit()


UNARY = FiniteDictionary(1, [(0, 0, 0)])


def _unary_case():
    return UNARY, fixed_codebook(UNARY.words), SourceModel.finite([1.0])


LAYOUT_CASES = {
    "huffman_biased_16": lambda: _huffman_case(SourceModel.finite([0.9, 0.1]), 16),
    "huffman_biased_256": lambda: _huffman_case(SourceModel.finite([0.9, 0.1]), 256),
    "fixed_biased_64": lambda: _fixed_case(SourceModel.finite([0.9, 0.1]), 64),
    "huffman_ternary": lambda: _huffman_case(SourceModel.finite([0.5, 0.3, 0.2]), 9),
    "fixed_ternary": lambda: _fixed_case(SourceModel.finite([0.5, 0.3, 0.2]), 27),
    "incomplete": _incomplete_case,
    "unary": _unary_case,
}


def dyadic_codebook():
    return PhraseCodebook.from_pairs(
        [((0,), "0"), ((1, 0), "10"), ((1, 1), "11")]
    )


def test_tunstall_examples(fair, biased):
    assert tunstall_build(fair, 4).words == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert tunstall_build(biased, 4).words == ((1,), (0, 1), (0, 0, 0), (0, 0, 1))
    assert tunstall_build(fair, 2).words == ((0,), (1,))


def test_tunstall_rejects_bad_inputs(geometric_half, fair):
    with pytest.raises(UnsupportedOperationError):
        tunstall_build(geometric_half, 8)
    with pytest.raises(ValueError):
        tunstall_build(fair, 1)
    with pytest.raises(ValueError):
        tunstall_build(SourceModel.finite([1.0]), 4)


@pytest.mark.parametrize("size", [2, 3, 4, 7, 16, 64])
def test_tunstall_complete_and_bounded(size, biased):
    d = tunstall_build(biased, size)
    assert len(d.words) <= size
    assert is_complete(d)


def test_tunstall_ternary():
    s = SourceModel.finite([0.6, 0.3, 0.1])
    d = tunstall_build(s, 7)
    assert is_complete(d)
    assert len(d.words) == 7  # 3 + 2 extensions * 2


def test_huffman_dyadic_reaches_entropy(complete_dict, fair):
    cb = huffman_build([(w, fair.word_prob(w)) for w in complete_dict.words])
    lengths = {w: len(c) for w, c in zip(cb.phrases, cb.codewords)}
    assert lengths == {(0,): 1, (1, 0): 2, (1, 1): 2}
    L = cb.expected_length(fair)
    assert L == pytest.approx(1.5, abs=1e-15)
    assert L == pytest.approx(dict_entropy(complete_dict, fair).mid, abs=1e-12)


def test_huffman_single_phrase_degenerate():
    cb = huffman_build([((0,), 1.0)])
    assert cb.codewords == ("0",)


def test_huffman_within_one_bit_of_entropy(biased):
    d = tunstall_build(biased, 4)
    cb = huffman_build([(w, biased.word_prob(w)) for w in d.words])
    h_d = dict_entropy(d, biased).mid
    L = cb.expected_length(biased)
    assert h_d - 1e-12 <= L < h_d + 1.0


def test_huffman_rejects_bad_inputs():
    with pytest.raises(ValueError):
        huffman_build([])
    with pytest.raises(ValueError):
        huffman_build([((0,), 0.4), ((1,), 0.4)])
    with pytest.raises(ValueError):
        huffman_build([((0,), 1.2), ((1,), -0.2)])


def test_huffman_deterministic(biased):
    d = tunstall_build(biased, 16)
    pairs = [(w, biased.word_prob(w)) for w in d.words]
    assert huffman_build(pairs).codewords == huffman_build(pairs).codewords


@given(seed=st.integers(0, 2**32), size=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_huffman_kraft_equality_property(seed, size):
    rng = make_rng(seed)
    raw = [rng.next_float() + 1e-3 for _ in range(size)]
    total = math.fsum(raw)
    pairs = [((i,), p / total) for i, p in enumerate(raw)]
    cb = huffman_build(pairs)
    expected = Fraction(1) if size > 1 else Fraction(1, 2)
    assert kraft_sum(cb.codewords) == expected
    L = cb.expected_length(SourceModel.finite([p / total for p in raw]))
    h = -math.fsum((p / total) * math.log2(p / total) for p in raw)
    assert h - 1e-9 <= L < h + 1.0


def test_fixed_codebook_widths(complete_dict):
    cb = fixed_codebook(complete_dict.words)
    assert cb.codewords == ("00", "01", "10")
    assert kraft_sum(cb.codewords) <= 1
    assert fixed_codebook([(0,)]).codewords == ("0",)
    with pytest.raises(ValueError, match=r"^cannot build a codebook over zero phrases$"):
        fixed_codebook([])


def test_codebook_validation():
    with pytest.raises(ValueError):
        PhraseCodebook.from_pairs([((0,), "0"), ((1,), "01")])  # prefix clash
    with pytest.raises(ValueError):
        PhraseCodebook.from_pairs([((0,), "0"), ((1,), "0")])
    with pytest.raises(ValueError):
        PhraseCodebook.from_pairs([((0,), "0"), ((0,), "1")])
    with pytest.raises(ValueError):
        PhraseCodebook.from_pairs([((0,), "2")])


@pytest.mark.parametrize("codewords, bad", [
    ((5,), "5"), ((b"0",), "b'0'"), (("0", 7), "7"), ((None,), "None"), (("02",), "'02'"),
], ids=["int", "bytes", "mixed", "none", "digit-2"])
def test_codeword_that_is_not_a_binary_string_is_refused(codewords, bad):
    phrases = tuple((i,) for i in range(len(codewords)))
    msg = f"^codeword {re.escape(bad)} is not a nonempty binary string$"
    with pytest.raises(ValueError, match=msg):
        PhraseCodebook(phrases=phrases, codewords=codewords)


def test_unhashable_codeword_is_refused_as_not_binary():
    msg = r"^codeword \['0'\] is not a nonempty binary string$"
    with pytest.raises(ValueError, match=msg):
        PhraseCodebook(phrases=((0,),), codewords=(["0"],))


def test_phrase_that_is_not_a_sequence_is_refused():
    with pytest.raises(SymbolTypeError, match=r"^word 0 is not a sequence of symbols$"):
        PhraseCodebook(phrases=(0,), codewords=("0",))


def test_pair_whose_phrase_is_not_a_sequence_is_refused():
    with pytest.raises(SymbolTypeError, match=r"^word 0 is not a sequence of symbols$"):
        PhraseCodebook.from_pairs([(0, "0")])
    # a one-shot iterator is listed first, so its failing phrase is named too
    with pytest.raises(SymbolTypeError, match=r"^word 1 is not a sequence of symbols$"):
        PhraseCodebook.from_pairs(zip([(0,), 1], ["0", "1"]))


def test_fixed_codebook_phrase_that_is_not_a_sequence_is_refused():
    with pytest.raises(SymbolTypeError, match=r"^word 0 is not a sequence of symbols$"):
        fixed_codebook([0])


def test_huffman_phrase_that_is_not_a_sequence_is_refused():
    with pytest.raises(SymbolTypeError, match=r"^word 0 is not a sequence of symbols$"):
        huffman_build([(0, 1.0)])


def test_list_phrases_are_stored_as_tuples():
    # the constructor takes the phrases from_pairs takes, and stores them alike
    cb = PhraseCodebook(phrases=([0], [1]), codewords=("0", "1"))
    assert cb == PhraseCodebook.from_pairs([([0], "0"), ([1], "1")])
    assert cb.phrases == ((0,), (1,))
    assert cb.codeword_for((1,)) == "1"


def test_list_containers_are_stored_as_tuples():
    # the fields are tuples whatever sequences are given, so the codebook
    # equals and hashes like the from_pairs one of the same pairs
    cb = PhraseCodebook(phrases=[(0,), (1,)], codewords=["0", "1"])
    pairs = PhraseCodebook.from_pairs([((0,), "0"), ((1,), "1")])
    assert (cb.phrases, cb.codewords) == (((0,), (1,)), ("0", "1"))
    assert cb == pairs
    assert hash(cb) == hash(pairs)
    assert len({cb, pairs}) == 1


def test_constructor_keeps_the_given_phrase_order():
    cb = PhraseCodebook(phrases=((1,), (0,)), codewords=("0", "1"))
    assert cb.phrases == ((1,), (0,))
    assert cb.codeword_for((0,)) == "1"
    assert PhraseCodebook.from_pairs(zip(cb.phrases, cb.codewords)).phrases == ((0,), (1,))


def test_encode_example_bit_layout(complete_dict):
    data = encode(complete_dict, dyadic_codebook(), [0, 1, 1])
    # magic + varint(2) + bits 011 + varint(0) + padding = 4 bytes
    assert len(data) == 4
    assert data[0] == 0x56
    assert data[1] == 0x02
    assert decode(complete_dict, dyadic_codebook(), data) == [0, 1, 1]


def test_encode_empty_stream(complete_dict):
    data = encode(complete_dict, dyadic_codebook(), [])
    assert decode(complete_dict, dyadic_codebook(), data) == []


def test_encode_remainder_only(complete_dict):
    data = encode(complete_dict, dyadic_codebook(), [1])
    assert decode(complete_dict, dyadic_codebook(), data) == [1]


def test_encode_rejects_foreign_symbols(complete_dict):
    with pytest.raises(ValueError):
        encode(complete_dict, dyadic_codebook(), [0, 2])


def test_encode_rejects_mismatched_codebook(complete_dict):
    cb = fixed_codebook([(0,), (1,)])
    with pytest.raises(ValueError):
        encode(complete_dict, cb, [0])


def test_decode_corrupt_inputs(complete_dict):
    cb = dyadic_codebook()
    good = encode(complete_dict, cb, [0, 1, 1, 0, 1, 0])
    with pytest.raises(CorruptBitstreamError) as exc:
        decode(complete_dict, cb, b"\x00" + good[1:])
    assert exc.value.bit_offset == 0
    with pytest.raises(CorruptBitstreamError):
        decode(complete_dict, cb, good[:2])
    with pytest.raises(CorruptBitstreamError):
        decode(complete_dict, cb, good + b"\xff")
    tampered = bytearray(good)
    tampered[-1] |= 0x01  # nonzero padding
    with pytest.raises(CorruptBitstreamError):
        decode(complete_dict, cb, bytes(tampered))


def test_decode_refuses_a_varint_past_64_bits():
    d = FiniteDictionary(2, [(0,), (1,)])
    cb = fixed_codebook(d.words)
    # ten continuation bytes shift the phrase count past 63 bits
    with pytest.raises(CorruptBitstreamError) as exc:
        decode(d, cb, bytes([0x56] + [0x80] * 10 + [0x00]))
    assert str(exc.value) == "varint too long (bit offset 88)"
    # nine end the count, and the stream ends inside the next varint
    with pytest.raises(CorruptBitstreamError) as exc:
        decode(d, cb, bytes([0x56] + [0x80] * 9 + [0x00]))
    assert str(exc.value) == "unexpected end of stream (bit offset 88)"


def test_round_trip_incomplete_dictionary_fixed_codebook():
    d = FiniteDictionary(2, [(0,), (1, 0)])  # not complete
    cb = fixed_codebook(d.words)
    stream = [0, 1, 0, 1, 1, 1, 0, 1]  # ends in a dead suffix
    data = encode(d, cb, stream)
    assert decode(d, cb, data) == stream


@given(seed=st.integers(0, 2**32), size=st.sampled_from([2, 4, 8, 16]),
       length=st.integers(0, 400))
@settings(max_examples=120, deadline=None)
def test_round_trip_property(seed, size, length, biased):
    d = tunstall_build(biased, size)
    cb = huffman_build([(w, biased.word_prob(w)) for w in d.words])
    stream = biased.sample_stream(seed, length)
    assert decode(d, cb, encode(d, cb, stream)) == stream


def test_round_trip_ternary_remainder():
    s = SourceModel.finite([0.5, 0.3, 0.2])
    d = tunstall_build(s, 9)
    cb = huffman_build([(w, s.word_prob(w)) for w in d.words])
    stream = s.sample_stream(3, 1000)
    assert decode(d, cb, encode(d, cb, stream)) == stream


def test_measured_rate_near_entropy(biased):
    d = tunstall_build(biased, 64)
    cb = huffman_build([(w, biased.word_prob(w)) for w in d.words])
    stream = biased.sample_stream(11, 50_000)
    phrases, rem = parse(d, stream)
    bits = sum(len(cb.codeword_for(p)) for p in phrases)
    symbols = len(stream) - len(rem)
    rate = bits / symbols
    h_p = biased.entropy()
    assert h_p - 0.02 < rate < h_p + 0.2


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_encode_matches_spec_encoder(case):
    d, cb, source = LAYOUT_CASES[case]()
    rng = make_rng(7)
    for length in [0, 1, 2, 3, 5, 8, 13, 64, 1000, 5000]:
        stream = source.sample_stream(rng.next_u64(), length)
        data = encode(d, cb, stream)
        assert data == spec_encode(d, cb, stream), (case, length)
        assert decode(d, cb, data) == stream


@pytest.mark.parametrize("case", ["huffman_biased_256", "fixed_ternary", "incomplete"])
def test_encode_matches_spec_encoder_across_the_compile_point(case):
    d, cb, source = LAYOUT_CASES[case]()
    threshold = COMPILE_SYMBOLS_PER_STATE * len(d.transitions)
    stream = source.sample_stream(5, threshold // 2 + 1)
    for _ in range(3):  # the loop, then the call that compiles, then the pattern
        data = encode(d, cb, stream)
        assert data == spec_encode(d, cb, stream), case
        assert decode(d, cb, data) == stream
    assert d._pattern


def test_round_trip_deep_tunstall_against_the_spec_encoder():
    # Tunstall-4096 over [0.999, 0.001] is the chain 0^j 1 (j < 4095) plus
    # 0^4095: deeper than the pattern bound, so the loop walks every stream
    s = SourceModel.finite([0.999, 0.001])
    d, cb, _ = _huffman_case(s, 4096)
    assert pattern_source(d) is None
    fair = SourceModel.fair_bit()
    streams = [
        fair.sample_stream(seed, length) + tail
        for seed, length in [(1, 0), (2, 1), (3, 4095), (4, 30_000)]
        for tail in ([], [0] * 90 + [1], [0] * 90 + [1] + [0] * 99)
    ]
    # phrases up to 4095 symbols long
    streams += [s.sample_stream(seed, 30_000) + [0] * 5000 for seed in (5, 6)]
    for stream in streams:
        data = encode(d, cb, stream)
        assert data == spec_encode(d, cb, stream), len(stream)
        assert decode(d, cb, data) == stream


def test_encode_reads_symbols_equal_to_ints():
    # the automaton reads 1.0 as 1; the text stops before it
    d = FiniteDictionary(2, [(0,), (1, 0), (1, 1)])
    cb = fixed_codebook(d.words)
    stream = [0, 1, 1, 1.0, 0.0, 0, True, False]
    assert encode(d, cb, stream) == encode(d, cb, [0, 1, 1, 1, 0, 0, 1, 0])


def test_mismatched_codebook_is_a_typed_error():
    # load_codebook accepts this codebook; it fits no dictionary
    cb = load_codebook({"phrases": [[], [-1]], "codewords": ["0", "1"]})
    # a lazy family has no word list, and its infinite words match no codebook
    for d in (FiniteDictionary(2, [(0,), (1,)]), RunLengthDictionary(), head_extension(0)):
        for call in (lambda: encode(d, cb, [0, 1]), lambda: decode(d, cb, b"\x56\x00\x00")):
            with pytest.raises(CodebookMismatchError) as exc:
                call()
            assert isinstance(exc.value, VVCodeError) and isinstance(exc.value, ValueError)
            assert str(exc.value) == "codebook phrases do not match the dictionary words"


@pytest.mark.parametrize("compiled", [False, True])
def test_foreign_symbol_is_a_typed_error_naming_the_first_one(compiled):
    d = FiniteDictionary(2, [(0,), (1, 0)])  # 1, 1 is dead
    cb = fixed_codebook(d.words)
    if compiled:
        encode(d, cb, [0] * (COMPILE_SYMBOLS_PER_STATE * len(d.transitions)))
        assert d._pattern
    # in a phrase-free tail, after a dead zone, and right away
    for stream, bad in [([0, 1, 0, 0, 2, 0], 2), ([0, 1, 1, 0, 5, -7], 5),
                        ([-1, 0, 9], -1), ([0, 0x110000, 3], 0x110000)]:
        with pytest.raises(StreamSymbolError) as exc:
            encode(d, cb, stream)
        assert isinstance(exc.value, VVCodeError) and isinstance(exc.value, ValueError)
        assert str(exc.value) == f"stream symbol {bad} outside alphabet of size 2"
    # a remainder symbol that is not an integer, before or after one out of range
    for stream, bad in [([0, "1"], "1"), ([0, None], None), ([0, 1.5], 1.5),
                        ([0, 1, 1, 1.0], 1.0), ([0, 1, 1, 2.5, 7], 2.5)]:
        with pytest.raises(StreamSymbolError) as exc:
            encode(d, cb, stream)
        assert str(exc.value) == f"stream symbol {bad!r} is not an integer"
    with pytest.raises(StreamSymbolError, match="^stream symbol 7 outside alphabet of size 2$"):
        encode(d, cb, [0, 1, 1, 7, 2.5])


def test_spec_encoder_pins_worked_example(complete_dict):
    # 0|11 parses to codewords 0, 11: magic, varint 2, bits 011, varint 0
    assert spec_encode(complete_dict, dyadic_codebook(), [0, 1, 1]) == bytes(
        [0x56, 0x02, 0b01100000, 0b00000000]
    )


def test_decode_unary_remainder_is_bounded():
    # varint remainder length 300000 at 0 bits per symbol: the only word
    # is 000, so a real remainder is shorter than 3 symbols
    cb = fixed_codebook(UNARY.words)
    with pytest.raises(CorruptBitstreamError):
        decode(UNARY, cb, bytes.fromhex("5600e0a712"))


def test_decode_huge_unary_remainder_fails_fast():
    # varint 2^40: a decoder that trusts it would never finish
    cb = fixed_codebook(UNARY.words)
    with pytest.raises(CorruptBitstreamError):
        decode(UNARY, cb, bytes.fromhex("56008080808080" "20"))
    assert decode(UNARY, cb, bytes.fromhex("560002")) == [0, 0]


def test_decode_counts_are_checked_against_the_input_length(complete_dict):
    cb = dyadic_codebook()
    # phrase count 2^40 with 8 bits left: rejected right after the varint
    with pytest.raises(CorruptBitstreamError) as exc:
        decode(complete_dict, cb, bytes.fromhex("56" "8080808080" "20" "00"))
    assert exc.value.bit_offset == 56
    # remainder length 2^40 at 1 bit per symbol: rejected after its varint
    with pytest.raises(CorruptBitstreamError) as exc:
        decode(complete_dict, cb, bytes.fromhex("5600" "8080808080" "20"))
    assert exc.value.bit_offset == 64


FUZZ_CASES = ["huffman_biased_16", "fixed_ternary", "incomplete", "unary"]


def _decodes_or_reports_corruption(d, cb, data):
    try:
        out = decode(d, cb, data)
    except CorruptBitstreamError:
        return
    assert isinstance(out, list)


@pytest.mark.parametrize("case", FUZZ_CASES)
@given(data=st.binary(max_size=64))
@settings(max_examples=150, deadline=None)
def test_decode_fuzz_arbitrary_bytes(case, data):
    d, cb, _ = LAYOUT_CASES[case]()
    _decodes_or_reports_corruption(d, cb, data)
    _decodes_or_reports_corruption(d, cb, b"\x56" + data)


@pytest.mark.parametrize("case", FUZZ_CASES)
@given(seed=st.integers(0, 2**32), length=st.integers(0, 300),
       flip=st.integers(0, 2**16), cut=st.integers(0, 2**16),
       tail=st.binary(min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_decode_fuzz_damaged_streams(case, seed, length, flip, cut, tail):
    d, cb, source = LAYOUT_CASES[case]()
    good = encode(d, cb, source.sample_stream(seed, length))
    flipped = bytearray(good)
    flipped[(flip >> 3) % len(good)] ^= 1 << (flip & 7)
    for data in (bytes(flipped), good[: cut % len(good)], good + tail):
        _decodes_or_reports_corruption(d, cb, data)


@pytest.mark.parametrize("bad", [math.nan, -math.nan])
def test_huffman_rejects_nan_probabilities(bad):
    # NaN fails p <= 0.0 and the sum test alike; it must not pass them
    with pytest.raises(ValueError, match="^phrase probabilities must be positive$"):
        huffman_build([((0,), bad), ((1,), 0.5)])
    with pytest.raises(ValueError, match="^phrase probabilities must be positive$"):
        huffman_build([((0,), 0.5), ((1,), 0.25), ((2,), bad)])


def test_decode_builds_its_lookup_once_per_codebook(biased):
    d = tunstall_build(biased, 64)
    cb = huffman_build([(w, biased.word_prob(w)) for w in d.words])
    stream = [0, 0, 1, 0, 0, 0, 0, 0, 1]
    data = encode(d, cb, stream)
    assert "_table" not in vars(cb)
    assert decode(d, cb, data) == stream
    table = vars(cb)["_table"]
    assert decode(d, cb, data) == stream
    assert vars(cb)["_table"] is table  # the second call built nothing


def test_encode_builds_its_map_once_per_codebook(biased):
    d = tunstall_build(biased, 64)
    cb = huffman_build([(w, biased.word_prob(w)) for w in d.words])
    stream = [0, 0, 1, 0, 0, 0, 0, 0, 1]
    assert "_map" not in vars(cb)
    data = encode(d, cb, stream)
    code_map = vars(cb)["_map"]
    assert encode(d, cb, stream) == data
    assert vars(cb)["_map"] is code_map  # the second call built nothing


def test_a_matched_codebook_still_rejects_another_dictionary():
    d = FiniteDictionary(2, [(0,), (1, 0), (1, 1)])
    cb = huffman_build([(w, SourceModel.fair_bit().word_prob(w)) for w in d.words])
    data = encode(d, cb, [0, 1, 0, 1])
    assert decode(d, cb, data) == [0, 1, 0, 1]
    # the codebook has matched d; another dictionary is still checked in full
    for other in (FiniteDictionary(2, [(0,), (1,)]),
                  FiniteDictionary(2, [(0, 0), (0, 1), (1,)])):
        for call in (lambda: encode(other, cb, [0]), lambda: decode(other, cb, data)):
            with pytest.raises(CodebookMismatchError):
                call()
    # an equal dictionary that is another object passes, and so does d again
    twin = FiniteDictionary(2, list(reversed(d.words)))
    assert decode(twin, cb, data) == [0, 1, 0, 1]
    assert encode(d, cb, [0, 1, 0, 1]) == data
    with pytest.raises(CodebookMismatchError):
        encode(FiniteDictionary(2, [(0,), (1,)]), cb, [0])


def biased_codebook(d):
    return huffman_build([(w, SourceModel.finite([0.9, 0.1]).word_prob(w)) for w in d.words])


def test_a_codebook_matches_equal_words_from_either_constructor():
    trie = tunstall_build(SourceModel.finite([0.9, 0.1]), 64)
    listed = FiniteDictionary(2, list(reversed(trie.words)))
    stream = SourceModel.finite([0.9, 0.1]).sample_stream(5, 2000)
    for cb in (biased_codebook(trie), biased_codebook(listed)):
        data = encode(trie, cb, stream)
        assert encode(listed, cb, stream) == data
        assert decode(trie, cb, data) == decode(listed, cb, data) == list(stream)


@pytest.mark.parametrize("edit", ["missing", "extra", "swapped"])
@pytest.mark.parametrize("trie", [False, True], ids=["words", "trie"])
def test_a_codebook_one_word_off_is_refused(edit, trie):
    d = tunstall_build(SourceModel.finite([0.9, 0.1]), 64)
    if not trie:
        d = FiniteDictionary(2, d.words)
    phrases = list(d.words)
    stranger = (1,) * 40  # longer than any word
    if edit == "missing":
        del phrases[3]
    elif edit == "extra":
        phrases.append(stranger)
    else:
        phrases[3] = stranger
    cb = fixed_codebook(phrases)
    for call in (lambda: encode(d, cb, [0] * 50), lambda: decode(d, cb, b"\x56\x00\x00")):
        with pytest.raises(CodebookMismatchError):
            call()


def reference_decode(d, cb, data) -> list:
    """The per-phrase decoder: each phrase looked up by the slices at the
    codebook's distinct codeword lengths, shortest first."""
    cb._check_matches(d)
    bits = codec.bytes_to_bits(data)
    total = len(bits)
    if total < 8:
        raise CorruptBitstreamError("unexpected end of stream", 0)
    if bits[:8] != format(codec.MAGIC, "08b"):
        raise CorruptBitstreamError("bad magic byte", 0)
    n_phrases, pos = codec._read_varint(bits, 8)
    if n_phrases > total - pos:
        raise CorruptBitstreamError(
            f"phrase count {n_phrases} exceeds the {total - pos} bits left", pos
        )
    phrase_of = dict(zip(cb.codewords, cb.phrases))
    lengths = sorted({len(c) for c in cb.codewords})
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
    rem_len, pos = codec._read_varint(bits, pos)
    k = d.alphabet_size
    width = codec.symbol_bit_width(k)
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


def _outcome(call):
    """The symbols a decode returns, or its error's message and bit offset."""
    try:
        return "symbols", call()
    except CorruptBitstreamError as exc:
        return "error", str(exc), exc.bit_offset


def _phrase_stream(d, seed, n_phrases):
    """n_phrases of d's words drawn at random, one after another."""
    rng = make_rng(seed)
    return [s for _ in range(n_phrases) for s in d.words[rng.next_u64() % len(d.words)]]


def _compiled_case(case):
    """A fresh case whose codebook has compiled its code trie's pattern."""
    d, cb, source = LAYOUT_CASES[case]()
    data = encode(d, cb, _phrase_stream(d, 1, 4000))
    for _ in range(100):
        decode(d, cb, data)
        if cb._compiled_code(0):
            return d, cb, source
    raise AssertionError(f"{case}: the code trie's pattern did not compile")


PARITY_CASES = ["huffman_biased_16", "huffman_biased_256", "fixed_biased_64",
                "huffman_ternary", "fixed_ternary", "incomplete", "unary"]
COMPILED = {}  # one compiled case per name, shared by the examples


@pytest.mark.parametrize("compiled", [False, True], ids=["loop", "compiled"])
@pytest.mark.parametrize("case", PARITY_CASES)
@given(seed=st.integers(0, 2**32), length=st.integers(0, 600),
       flip=st.integers(0, 2**16), cut=st.integers(0, 2**16),
       tail=st.binary(min_size=1, max_size=8), junk=st.binary(max_size=24))
@settings(max_examples=40, deadline=None)
def test_decode_paths_match_the_per_phrase_decoder(case, compiled, seed, length,
                                                    flip, cut, tail, junk):
    if compiled:
        if case not in COMPILED:
            COMPILED[case] = _compiled_case(case)
        d, cb, source = COMPILED[case]
    else:
        # short enough that one decode of a fresh codebook stays on the loop
        length %= 150
        d, cb, source = LAYOUT_CASES[case]()
    stream = (_phrase_stream(d, seed, length // 4) if seed % 2
              else source.sample_stream(seed, length))
    good = encode(d, cb, stream)
    flipped = bytearray(good)
    flipped[(flip >> 3) % len(good)] ^= 1 << (flip & 7)
    for data in (good, bytes(flipped), good[: cut % len(good)], good + tail,
                 good[:2] + junk, b"\x56" + junk):
        want = _outcome(lambda: reference_decode(d, cb, data))
        if not compiled:
            d, cb, _ = LAYOUT_CASES[case]()
        assert _outcome(lambda: decode(d, cb, data)) == want
        assert bool(cb._compiled_code(0)) == compiled
    assert decode(d, cb, good) == stream


def test_a_first_short_decode_builds_no_code_trie(biased):
    # the CLI decodes once per process: it keeps the per-phrase loop
    d = tunstall_build(biased, 256)
    cb = huffman_build([(w, biased.word_prob(w)) for w in d.words])
    stream = biased.sample_stream(3, 40_000)
    data = encode(d, cb, stream)
    assert decode(d, cb, data) == stream
    assert "_code" not in vars(cb)
    assert "_table" in vars(cb)


def test_the_code_trie_pattern_compiles_once_at_the_threshold(biased):
    d = tunstall_build(biased, 16)
    cb = huffman_build([(w, biased.word_prob(w)) for w in d.words])
    # the code trie's states are the codewords' distinct proper prefixes
    states = len({c[:i] for c in cb.codewords for i in range(len(c))})
    threshold = COMPILE_SYMBOLS_PER_STATE * states
    stream = _phrase_stream(d, 5, 100)
    data = encode(d, cb, stream)
    n_bits = 8 * len(data) - 16  # after the magic byte and a one-byte count
    calls = -(-threshold // n_bits)
    for _ in range(calls - 1):
        assert decode(d, cb, data) == stream
        code = vars(cb).get("_code")
        assert code is None or code[0]._pattern is None
    assert decode(d, cb, data) == stream  # this call reaches the threshold
    trie, _ = vars(cb)["_code"]
    assert len(trie.transitions) == states
    pattern = trie._pattern
    assert pattern
    for _ in range(3):
        assert decode(d, cb, data) == stream
        assert vars(cb)["_code"][0] is trie
        assert trie._pattern is pattern  # built once, then reused


def test_a_code_trie_deeper_than_the_pattern_bound_keeps_the_loop():
    # the chain code 1^i 0 nests 299 groups deep, past MAX_PATTERN_DEPTH:
    # the trie is built, its pattern never
    d = tunstall_build(SourceModel.finite([0.999, 0.001]), 300)
    codes = ["1" * i + "0" for i in range(len(d.words) - 1)] + ["1" * (len(d.words) - 1)]
    cb = PhraseCodebook.from_pairs(zip(d.words, codes))
    assert len(d.words) - 1 > MAX_PATTERN_DEPTH
    stream = _phrase_stream(d, 2, 300)
    data = encode(d, cb, stream)
    for _ in range(1 + COMPILE_SYMBOLS_PER_STATE * len(d.words) // (8 * len(data))):
        assert decode(d, cb, data) == stream
    trie, _ = vars(cb)["_code"]
    assert trie._pattern is False
    assert cb._compiled_code(0) is None
