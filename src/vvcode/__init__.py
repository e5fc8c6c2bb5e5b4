"""vvcode: variable-to-variable length source coding toolkit.

Dictionary algebra over prefix-free word sets, numeric certification of
the phrase-entropy conservation law H(D) = H(P) * lbar(D) for proper ASC
dictionaries over finite and countable alphabets, and a working VV codec
with Monte Carlo cross-validation.
"""

__version__ = "0.1.0"

from .algebra import (
    ConeResult,
    ExtensionChain,
    FrontierSets,
    chain_step,
    cone,
    cone_mass_bounds,
    extend,
    truncate,
    uncovered_frontier,
)
from .codec import (
    PhraseCodebook,
    decode,
    encode,
    fixed_codebook,
    huffman_build,
    kraft_sum,
    tunstall_build,
)
from .dictionary import (
    AlphabetDictionary,
    AscVerdict,
    Dictionary,
    ExtendedDictionary,
    FiniteDictionary,
    RunLengthDictionary,
    find_prefix_violation,
    head_extension,
    is_asc,
    is_complete,
    is_proper,
    parse,
)
from .measures import (
    Interval,
    MeasureReport,
    avg_length,
    check_conservation,
    check_extension_identities,
    check_truncation_identity,
    convergence_scan,
    dict_entropy,
    exact_word_measures,
    phrase_measures,
)
from .simulation import HistogramReport, SimReport, phrase_histogram, simulate
from .source import SourceModel, Word
