"""File interfaces: JSON specs for sources, dictionaries and codebooks,
symbol-stream files, and CSV report rows.

Source spec:      {"kind": "finite", "probs": [...]} (numbers or decimal
                  strings) or {"kind": "geometric", "p": 0.5}. Probabilities
                  are renormalized only when |sum - 1| <= 1e-9, else rejected
                  (SourceModel.finite does both).
Dictionary spec:  {"kind": "finite", "alphabet_size": k, "words": [[...], ...]}
                  with words in canonical order, or
                  {"kind": "lazy", "family": "run_length"} /
                  {"kind": "lazy", "family": "head_extension", "head": i}.
Codebook spec:    {"phrases": [[...], ...], "codewords": ["0101", ...]}.
Stream text:      whitespace-separated symbol indices; raw bit files unpack
                  each byte MSB-first (binary alphabets only).

A vvcode report whose "result" is one of these specs (the output of
`tunstall`, `extend` or `codebook`) loads as that spec. A spec that fails
validation raises InputFormatError, or ImproperDictionaryError for a word
set that is not prefix-free.

A CSV report is its JSON result's keys in order (scan: each row's keys,
one line per row), less note and any list-valued key; measure also
leaves out exhaustive and tails_exact, and a histogram is word, count
rows. possibly_divergent is always False; the column stays for
format_version 1.
"""

from __future__ import annotations

import json
import operator
import os
from itertools import chain

from .codec import _BIT_TEXT, PhraseCodebook, bits_to_bytes, bytes_to_bits
from .dictionary import (
    AlphabetDictionary,
    Dictionary,
    ExtendedDictionary,
    FiniteDictionary,
    RunLengthDictionary,
    head_extension,
    reiterable,
)
from .errors import (
    ImproperDictionaryError,
    InputFormatError,
    UnsupportedOperationError,
)
from .source import SourceModel, Word


def load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from exc


def _as_obj(spec):
    """The spec object of a path or an object, out of its report envelope."""
    obj = load_json_file(spec) if isinstance(spec, (str, os.PathLike)) else spec
    if (
        isinstance(obj, dict)
        and obj.get("tool") == "vvcode"
        and isinstance(obj.get("result"), dict)
    ):
        return obj["result"]
    return obj


def _is_int(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _as_float(x, what):
    """A JSON number or decimal string as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise InputFormatError(f"bad {what} {x!r}: not a number")
    try:
        return float(x)
    except (ValueError, OverflowError) as exc:
        raise InputFormatError(f"bad {what} {x!r}: {exc}") from exc


def _as_words(words, what):
    """The words of a list as tuples; each must be a list of integers."""

    def symbols_ok(ws):  # type() sets run at C speed; bools are not ints
        return set(map(type, chain.from_iterable(ws))) <= {int}

    if set(map(type, words)) <= {list, tuple} and symbols_ok(words):
        return [tuple(w) for w in words]
    bad = next(
        w for w in words if type(w) not in (list, tuple) or not symbols_ok([w])
    )
    raise InputFormatError(f"{what} {bad!r} is not a list of integer symbols")


def load_source(spec) -> SourceModel:
    """Build a SourceModel from a JSON object or a path to one."""
    obj = _as_obj(spec)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputFormatError("source spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "finite":
        raw = obj.get("probs")
        if not isinstance(raw, list) or not raw:
            raise InputFormatError("finite source needs a nonempty 'probs' list")
        probs = [_as_float(x, "probability value") for x in raw]
        try:
            return SourceModel.finite(probs)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
    if kind == "geometric":
        p = _as_float(obj.get("p"), "geometric parameter")
        try:
            return SourceModel.geometric(p)
        except ValueError as exc:
            raise InputFormatError(f"bad geometric parameter: {exc}") from exc
    raise InputFormatError(f"unknown source kind {kind!r}")


def load_dictionary(spec) -> Dictionary:
    """Build a dictionary from a JSON object or a path to one.

    Non-proper finite word sets are rejected with the offending prefix
    pair named (ImproperDictionaryError).
    """
    obj = _as_obj(spec)
    if not isinstance(obj, dict):
        raise InputFormatError("dictionary spec must be a JSON object")
    family = obj.get("family")
    kind = obj.get("kind", "lazy" if family else None)
    if kind == "finite":
        k = obj.get("alphabet_size")
        words = obj.get("words")
        if not _is_int(k) or not isinstance(words, list):
            raise InputFormatError(
                "finite dictionary needs integer 'alphabet_size' and a 'words' list"
            )
        words = _as_words(words, "word")
        try:
            return FiniteDictionary(k, words)
        except ImproperDictionaryError:
            raise
        except ValueError as exc:
            raise InputFormatError(f"bad dictionary: {exc}") from exc
    if kind == "lazy":
        if family == "run_length":
            return RunLengthDictionary()
        if family == "head_extension":
            head = obj.get("head", 0)
            if not _is_int(head) or head < 0:
                raise InputFormatError("head_extension needs a non-negative 'head'")
            return head_extension(head)
        raise InputFormatError(f"unknown lazy family {family!r}")
    raise InputFormatError(f"unknown dictionary kind {kind!r}")


def save_dictionary(d: Dictionary) -> dict:
    if isinstance(d, FiniteDictionary):
        return {
            "kind": "finite",
            "alphabet_size": d.alphabet_size,
            "words": [list(w) for w in d.words],
        }
    if isinstance(d, RunLengthDictionary):
        return {"kind": "lazy", "family": "run_length"}
    if (
        isinstance(d, ExtendedDictionary)
        and isinstance(d.base, AlphabetDictionary)
        and d.base.alphabet_size is None
        and len(d.alpha) == 1
    ):
        return {"kind": "lazy", "family": "head_extension", "head": d.alpha[0]}
    raise UnsupportedOperationError(f"no file representation for {d!r}")


def load_codebook(spec) -> PhraseCodebook:
    obj = _as_obj(spec)
    if (
        not isinstance(obj, dict)
        or not isinstance(obj.get("phrases"), list)
        or not isinstance(obj.get("codewords"), list)
    ):
        raise InputFormatError("codebook needs 'phrases' and 'codewords' lists")
    if len(obj["phrases"]) != len(obj["codewords"]):
        raise InputFormatError("codebook phrase/codeword counts differ")
    phrases = _as_words(obj["phrases"], "phrase")
    if not set(map(type, obj["codewords"])) <= {str}:
        raise InputFormatError("codewords must be strings of 0s and 1s")
    try:
        return PhraseCodebook.from_pairs(zip(phrases, obj["codewords"]))
    except ValueError as exc:
        raise InputFormatError(f"bad codebook: {exc}") from exc


def parse_word_text(text: str) -> Word:
    """Word from CLI text: '110' (single-digit symbols) or '1,10,2'."""
    text = text.strip()
    try:
        if "," in text:
            return tuple(int(t) for t in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise InputFormatError(f"bad word {text!r}: {exc}") from exc


def word_to_text(word: Word) -> str:
    if all(0 <= s <= 9 for s in word):
        return "".join(str(s) for s in word)
    return ",".join(str(s) for s in word)


# Streams of small symbols are read and written with no Python call per
# symbol. A text of one digit 0-9 after another, each followed by one
# whitespace character, is read by one translate of its even characters;
# plain-int symbols 0-9 are translated to digits set into the even slots
# of a line of spaces. Other tokens and plain ints below 256 (the cutoff
# of dictionary.symbol_text's bytearray) map through these dicts, 2 to 2.5
# times faster than map(int) or map(str). A stream with any other token
# ("+1", "007", "256", "x"), or with a symbol that is not an int below
# 256, takes int() or str() one at a time.
_DIGITS = bytes(range(10))
_SYMBOL_OF_DIGIT = bytes.maketrans(b"0123456789", _DIGITS)
_DIGIT_OF_SYMBOL = bytes.maketrans(_DIGITS, b"0123456789")
_SYMBOL_OF_TOKEN = {str(s): s for s in range(256)}
_TOKEN_OF_SYMBOL = {s: t for t, s in _SYMBOL_OF_TOKEN.items()}
_DIGIT_OF_BIT = bytes.maketrans(b"\x00\x01", b"01")


def read_stream_text(path) -> list:
    """Whitespace-separated symbol indices; each token as int() reads it."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # one digit 0-9 (the only ASCII digits) then one whitespace, throughout
    digits = text[::2]
    if digits.isascii() and digits.isdigit() and text[1::2].isspace():
        return list(digits.encode("ascii").translate(_SYMBOL_OF_DIGIT))
    toks = text.split()
    try:
        return list(map(_SYMBOL_OF_TOKEN.__getitem__, toks))
    except KeyError:
        pass
    try:
        return [int(t) for t in toks]
    except ValueError as exc:
        raise InputFormatError(f"{path}: stream must be whitespace-separated "
                               f"symbol indices ({exc})") from exc


def _stream_text(symbols) -> str:
    try:
        raw = bytearray(symbols)  # ints in range(256), checked in C
    except (TypeError, ValueError):
        pass
    else:
        # bytearray takes True and numpy integers, which str() may print otherwise
        if list(map(type, symbols)).count(int) == len(symbols):
            if not raw.translate(None, _DIGITS):  # every symbol is 0-9
                text = bytearray(b" ") * (2 * len(raw) - 1)
                text[::2] = raw.translate(_DIGIT_OF_SYMBOL)
                return text.decode("ascii")
            return " ".join(map(_TOKEN_OF_SYMBOL.__getitem__, raw))
    return " ".join(str(s) for s in symbols)


def write_stream_text(path, symbols):
    """The symbols as str() prints them, space-separated, one line."""
    text = _stream_text(reiterable(symbols))  # bytearray reads a numpy array's buffer
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_bit_stream(path) -> list:
    """Raw bit file: every byte unpacks to 8 symbols, MSB first."""
    with open(path, "rb") as fh:
        digits = bytes_to_bits(fh.read()).encode("ascii")
    return list(digits.translate(_BIT_TEXT))


def _is_bit(s) -> bool:
    try:
        return operator.index(s) in (0, 1)
    except TypeError:
        return False


def write_bit_stream(path, symbols):
    """Pack 0/1 symbols MSB first, zero-padded to whole bytes.

    The symbols are checked before the file is opened, so a bad symbol
    leaves an existing file as it was.
    """
    symbols = reiterable(symbols)
    try:
        raw = bytearray(symbols)  # ints in range(256), checked in C
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.translate(None, b"\x00\x01"):
        bad = next(s for s in symbols if not _is_bit(s))
        raise InputFormatError(
            f"raw bit output needs binary symbols; saw {bad}"
        )
    data = bits_to_bytes(raw.translate(_DIGIT_OF_BIT).decode("ascii"))
    with open(path, "wb") as fh:
        fh.write(data)


def report_csv(rows) -> str:
    """Header line plus one line per row (a mapping); floats print as repr.

    The columns are the first row's keys in order, less note and any
    list-valued key.
    """
    columns = [c for c, v in rows[0].items() if c != "note" and not isinstance(v, list)]
    lines = [",".join(columns)]
    lines.extend(
        ",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in columns)
        for r in rows
    )
    return "\n".join(lines) + "\n"


def histogram_csv(report) -> str:
    """The histogram's entries as word, count rows."""
    return report_csv(
        [{"word": word_to_text(w), "count": c} for w, c in report.entries]
    )
