"""Symbol-stream files: the table-driven readers and writers against the
per-token and per-bit code they replaced, kept here as the reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vvcode.codec import bits_to_bytes, bytes_to_bits
from vvcode.errors import InputFormatError
from vvcode.formats import (
    read_bit_stream,
    read_stream_text,
    write_bit_stream,
    write_stream_text,
)


def ref_read_stream_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        toks = fh.read().split()
    try:
        return [int(t) for t in toks]
    except ValueError as exc:
        raise InputFormatError(f"{path}: stream must be whitespace-separated "
                               f"symbol indices ({exc})") from exc


def ref_stream_text(symbols) -> bytes:
    return (" ".join(str(s) for s in symbols) + "\n").encode("utf-8")


def ref_read_bit_stream(path):
    with open(path, "rb") as fh:
        return list(map(int, bytes_to_bits(fh.read())))


def ref_bit_file(symbols) -> bytes:
    return bits_to_bytes("".join(map("01".__getitem__, symbols)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("streams")


def outcome(read, path):
    """The symbols read, or the message of the InputFormatError raised."""
    try:
        return read(path)
    except InputFormatError as exc:
        return str(exc)


SYMBOLS = st.lists(st.integers(-300, 300) | st.integers(min_value=0))


@given(symbols=SYMBOLS)
@settings(max_examples=200, deadline=None)
def test_stream_text_round_trips_and_matches_the_per_symbol_writer(
    workdir, symbols
):
    path = workdir / "s.txt"
    write_stream_text(path, symbols)
    assert path.read_bytes() == ref_stream_text(symbols)
    assert read_stream_text(path) == symbols
    write_stream_text(path, iter(symbols))
    assert path.read_bytes() == ref_stream_text(symbols)


@pytest.mark.parametrize("symbols", [
    [True, 1], [True, 300], [1.0, 0], [1.0, -1], [False, 0.0, 2],
    [np.int64(3), 2], [np.float64(1.0), 300], [np.bool_(True), 1],
    [0, [1, 2]], ["7", 7],
])
def test_non_int_symbols_are_written_as_str_prints_them(tmp_path, symbols):
    # True == 1 and 1.0 == 1 would find the token of 1 in a table keyed by
    # int, so what the writer prints must not depend on the rest of the stream
    path = tmp_path / "s.txt"
    write_stream_text(path, symbols)
    assert path.read_bytes() == ref_stream_text(symbols)


@given(symbols=st.lists(st.integers(-300, 300) | st.booleans()
                        | st.floats(-300, 300)))
@settings(max_examples=200, deadline=None)
def test_any_symbols_are_written_as_the_per_symbol_writer_wrote_them(
    workdir, symbols
):
    path = workdir / "mixed.txt"
    write_stream_text(path, symbols)
    assert path.read_bytes() == ref_stream_text(symbols)


TOKENS = st.lists(
    st.sampled_from(["+1", "007", "1_0", "1.0", "x", "-0", "-3", "255", "256",
                     "0x1", "٣", "_1", "1__0", "", "²"])
    | st.integers(-300, 300).map(str)
    | st.text(alphabet="0123456789+-_.x٣", min_size=1, max_size=4)
)


@given(tokens=TOKENS, sep=st.sampled_from([" ", "\n", "\t ", "  \r\n"]))
@example(tokens=["0", "+1", "007", "1_0", "-1", "٣", "255", "256"], sep=" ")
@example(tokens=["0", "1.0"], sep=" ")
@example(tokens=["1", "x"], sep=" ")
@example(tokens=["0x1"], sep=" ")
@settings(max_examples=300, deadline=None)
def test_stream_tokens_read_as_int_reads_them(workdir, tokens, sep):
    path = workdir / "tokens.txt"
    path.write_text(sep.join(tokens), encoding="utf-8")
    assert outcome(read_stream_text, path) == outcome(ref_read_stream_text, path)


@pytest.mark.parametrize("text, symbols", [
    ("0\t1\r\n2", [0, 1, 2]),  # one digit, one whitespace character
    ("0 1 2\n", [0, 1, 2]),
    ("9\f8\v7\x1c6\u20035", [9, 8, 7, 6, 5]),  # whitespace that split() takes
    ("0  1\t\t2\n", [0, 1, 2]),  # longer gaps take the tokens
    (" 0 1", [0, 1]),
    ("5", [5]),
    ("", []),
    ("\n", []),
    ("٣", [3]),  # a digit that is not ASCII reads as int() reads it
    ("1 ٣ 0", [1, 3, 0]),
    ("00", [0]),
    ("+1", [1]),
    ("0 00 1", [0, 0, 1]),
    ("1 +1 2", [1, 1, 2]),
    ("9 10 9", [9, 10, 9]),
    ("1 ²", None),
    ("²", None),
    ("0 x", None),
])
def test_digit_streams_read_as_int_reads_them(tmp_path, text, symbols):
    path = tmp_path / "digits.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(read_stream_text, path) == outcome(ref_read_stream_text, path)
    if symbols is None:
        with pytest.raises(InputFormatError, match="stream must be whitespace-separated"):
            read_stream_text(path)
    else:
        assert read_stream_text(path) == symbols


@pytest.mark.parametrize("symbols, text", [
    ([], b"\n"),
    ([7], b"7\n"),
    (list(range(10)), b"0 1 2 3 4 5 6 7 8 9\n"),
    ([9, 10, 9], b"9 10 9\n"),
    ([10, 9], b"10 9\n"),
    ([0] * 5 + [255], b"0 0 0 0 0 255\n"),
    ([1, False], b"1 False\n"),  # [True, 1] and np.int64 are cases above
    ([np.int64(300), 9], b"300 9\n"),
    ([1, 2.0], b"1 2.0\n"),
    ([-1, 0], b"-1 0\n"),
])
def test_digit_streams_are_written_as_str_prints_them(tmp_path, symbols, text):
    path = tmp_path / "digits.txt"
    write_stream_text(path, symbols)
    assert path.read_bytes() == text == ref_stream_text(symbols)


@given(bits=st.lists(st.integers(0, 1)))
@settings(max_examples=200, deadline=None)
def test_bit_files_round_trip_and_match_the_per_bit_writer(workdir, bits):
    path = workdir / "bits.bin"
    write_bit_stream(path, bits)
    assert path.read_bytes() == ref_bit_file(bits)
    assert read_bit_stream(path) == bits + [0] * (-len(bits) % 8)


@given(data=st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_bit_reader_matches_the_per_bit_reader(workdir, data):
    path = workdir / "raw.bin"
    path.write_bytes(data)
    assert read_bit_stream(path) == ref_read_bit_stream(path)


def test_bit_writer_takes_any_iterable_of_bits(tmp_path):
    bits = [1, 0, 1, 1, 0, 0, 0, 0, 1]
    path = tmp_path / "bits.bin"
    for symbols in (np.array(bits, dtype=np.int64), iter(bits), tuple(bits),
                    [bool(b) for b in bits]):
        write_bit_stream(path, symbols)
        assert path.read_bytes() == ref_bit_file(bits)


@pytest.mark.parametrize("symbols, bad", [
    ([0, 1.0], "1.0"),
    ([0, 1, 2, 3], "2"),
    ([1, -1], "-1"),
    ([0, 256], "256"),
    ([0, "1"], "1"),
    ([1, None, 2], "None"),
    (np.array([0, 1, 2]), "2"),
])
def test_bad_bit_symbol_is_named_and_leaves_the_file(tmp_path, symbols, bad):
    path = tmp_path / "bits.bin"
    path.write_bytes(b"old contents")
    with pytest.raises(InputFormatError) as exc:
        write_bit_stream(path, symbols)
    assert str(exc.value) == f"raw bit output needs binary symbols; saw {bad}"
    assert path.read_bytes() == b"old contents"


@given(bits=st.lists(st.integers(0, 1)), bad=st.integers().filter(
    lambda s: s not in (0, 1)) | st.floats() | st.none(), at=st.integers(0))
@settings(max_examples=100, deadline=None)
def test_any_non_bit_is_rejected_before_the_file_opens(workdir, bits, bad, at):
    symbols = list(bits)
    symbols.insert(at % (len(bits) + 1), bad)
    path = workdir / "kept.bin"
    path.write_bytes(b"\x5a")
    with pytest.raises(InputFormatError, match="binary symbols"):
        write_bit_stream(path, symbols)
    assert path.read_bytes() == b"\x5a"
