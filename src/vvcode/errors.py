"""Exception types shared across the toolkit."""


class VVCodeError(Exception):
    """Base class for all vvcode errors."""


class ImproperDictionaryError(VVCodeError, ValueError):
    """A word set is not prefix-free; carries the offending pair."""

    def __init__(self, prefix_word, longer_word):
        self.prefix_word = tuple(prefix_word)
        self.longer_word = tuple(longer_word)
        super().__init__(
            f"not prefix-free: word {list(self.prefix_word)} is a prefix of "
            f"word {list(self.longer_word)}"
        )


class UnsupportedOperationError(VVCodeError):
    """Operation is not finitely decidable / representable for this input."""


class ResourceBudgetError(VVCodeError):
    """A depth/width/size budget was exhausted; the message names the budget."""


class ConeHypothesisError(VVCodeError, ValueError):
    """The cone prefix has a strictly shorter dictionary prefix."""


class CorruptBitstreamError(VVCodeError, ValueError):
    """Malformed encoded stream; carries the bit offset of the fault."""

    def __init__(self, message, bit_offset):
        self.bit_offset = bit_offset
        super().__init__(f"{message} (bit offset {bit_offset})")


class CodebookMismatchError(VVCodeError, ValueError):
    """A codebook's phrases are not the words of the dictionary it codes."""


class SymbolTypeError(VVCodeError, ValueError):
    """A dictionary word is not a sequence of integer symbol indices."""


class StreamSymbolError(VVCodeError, ValueError):
    """A stream to encode holds a symbol outside the dictionary's alphabet."""


class SimulationAbortError(VVCodeError, RuntimeError):
    """Phrase sampling could not complete; names the stuck prefix."""


class InputFormatError(VVCodeError, ValueError):
    """A JSON/text input file failed validation."""
