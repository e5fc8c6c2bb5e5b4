"""Monte Carlo validation: sample phrases and compare the empirical phrase
distribution, average length and entropy with theory.

Sampling is chunked: phrases [c*4096, (c+1)*4096) always come from RNG
sub-stream c of the base seed, and chunk counts merge in chunk order, so
a run is bit-identical for a given seed. A chunk's phrases are the first
ones of parse(d, sample_stream(stream_seed(seed, c), ...)): symbols are
drawn in numpy blocks (``rng.float_block``, ``SourceModel.symbols_for``)
and segmented by the walk that ``parse`` runs (``dictionary.walk``),
which turns a block into text and, once the dictionary has walked enough
symbols, finds its phrases with one compiled regular expression. A
Counter counts the phrase keys (texts) the walk returns; they become word
tuples once per run. Sampling runs on one thread: the interpreter lock
serialises the walk, so threads cannot speed it up.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .dictionary import (
    DEFAULT_WIDTH,
    TO_WORD,
    Dictionary,
    check_members,
    member_symbols,
    phrase_word,
    symbol_prices,
    walk,
)
from .errors import SimulationAbortError
from .measures import phrase_measures
from .rng import XorShift64Star, float_block, stream_seed
from .source import SourceModel, canon_key

CHUNK_PHRASES = 4096
DEFAULT_STEP_CAP = 10**6
MIN_EXPECTED = 5.0  # the least expected count a chi-square bin keeps (Cochran, 1954)


def _step_cap_error(step_cap, prefix):
    """The abort of a phrase-by-phrase draw, which stops a phrase before
    drawing symbol step_cap + 1 and names up to 16 of the step_cap drawn."""
    shown = prefix[: min(16, max(step_cap, 0))]
    return SimulationAbortError(
        f"phrase exceeded {step_cap} symbols; stuck prefix starts {shown}"
    )


def _sample_chunk(d, source, n_phrases, seed, chunk_id, step_cap, counts, per):
    """Add one chunk's worth of phrase keys to counts; return the symbols
    per phrase seen, which sizes the next chunk's first block.

    The phrases are the first n_phrases of walk(d, sample_stream(chunk
    seed, ...)): blocks of symbols are drawn and walked, and the pending
    phrase's symbols are walked again at the front of the next block. The
    aborts are those of a phrase-by-phrase draw: a phrase that needs more
    than step_cap symbols, or a DEAD prefix, whichever the stream reaches
    first.
    """
    import numpy as np

    state = XorShift64Star(stream_seed(seed, chunk_id)).state
    need = n_phrases
    pending = ()
    while True:
        if per is None:
            size = need  # a phrase has at least one symbol
        else:
            # the phrases still needed, plus a margin of four standard
            # deviations of a Poisson count, so one block usually suffices
            size = int(need * per + 4 * math.sqrt(need * per)) + 1
        # no block shorter than the pending phrase, so walking it again
        # costs no more than the blocks do
        u, state = float_block(state, max(size, len(pending)))
        seq = source.symbols_for(u)
        if len(pending):
            seq = np.concatenate((pending, seq))
        phrases, begin, dead = walk(d, seq)
        if phrases:
            per = begin / len(phrases)
        del phrases[need:]
        if len(seq) > step_cap:
            for phrase in phrases:
                if len(phrase) > step_cap:
                    raise _step_cap_error(step_cap, list(phrase_word(phrase)))
        counts.update(phrases)
        need -= len(phrases)
        if not need:
            return per
        pending = seq[begin:]
        if dead >= 0:
            prefix = seq[begin : dead + 1].tolist()
            if len(prefix) > step_cap:
                raise _step_cap_error(step_cap, prefix)
            raise SimulationAbortError(
                f"sampled prefix {prefix[:16]} can never complete a "
                "phrase (dictionary is not ASC for this source)"
            )
        if len(pending) >= step_cap:
            raise _step_cap_error(step_cap, pending.tolist())


def _sample_phrases(d, source, n_phrases, seed, step_cap):
    """Counter of the sampled words (tuples)."""
    counts = Counter()
    per = None
    for cid, begin in enumerate(range(0, n_phrases, CHUNK_PHRASES)):
        size = min(CHUNK_PHRASES, n_phrases - begin)
        per = _sample_chunk(d, source, size, seed, cid, step_cap, counts, per)
    # phrase_key gives each word one key, so no two keys meet here
    return Counter({phrase_word(key): c for key, c in counts.items()})


@dataclass(frozen=True)
class SimReport:
    """Empirical vs analytic phrase statistics for one seeded run.

    total_symbols / n_phrases equals empirical_lbar exactly (renewal
    accounting); z-scores standardize by the sampling stderr, with z = 0
    for deterministic exact matches (e.g. D = A, all lengths 1).
    """

    n_phrases: int
    total_symbols: int
    empirical_lbar: float
    stderr_lbar: float
    empirical_entropy: float
    theory_lbar: float
    theory_hd: float
    z_lbar: float
    top_phrases: tuple
    seed: int

    def as_dict(self):
        rows = [{"word": list(w), "count": c, "z": z} for w, c, z in self.top_phrases]
        return {**vars(self), "top_phrases": rows}


def _z_for(diff: float, stderr: float) -> float:
    if stderr > 0.0:
        return diff / stderr
    return 0.0 if abs(diff) < 1e-12 else math.copysign(1e18, diff)


def simulate(
    d: Dictionary,
    source: SourceModel,
    n_phrases: int,
    seed: int = 42,
    step_cap: int = DEFAULT_STEP_CAP,
    depth: int = 64,
    threads: int | None = None,
) -> SimReport:
    """Draw n_phrases complete phrases and report empirical vs theory.

    Deterministic given (dictionary, source, n_phrases, seed); `threads`
    is accepted for compatibility and changes nothing. The step cap guards
    the measure-zero non-terminating path; hitting it (or a dead prefix)
    raises with the stuck prefix named.
    """
    if n_phrases < 1:
        raise ValueError("n_phrases must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    counts = _sample_phrases(d, source, n_phrases, seed, step_cap)
    return report_from_counts(d, source, counts, seed, depth)


def report_from_counts(
    d: Dictionary,
    source: SourceModel,
    counts,
    seed: int,
    depth: int = 64,
) -> SimReport:
    """The SimReport of sampled phrase counts (a word -> count mapping).

    The counts fix the symbol total and the squared-length sum exactly, so
    a histogram's entries give the same report as the run that drew them.
    """
    n = sum(counts.values())
    total = sum(len(w) * c for w, c in counts.items())
    total_sq = sum(len(w) ** 2 * c for w, c in counts.items())
    lbar = total / n
    var = (total_sq - n * lbar * lbar) / (n - 1) if n > 1 else 0.0
    stderr = math.sqrt(max(var, 0.0) / n)
    # fsum rounds the exact sum, so the order of the counts does not matter
    entropy = -math.fsum((c / n) * math.log2(c / n) for c in counts.values())
    pm = phrase_measures(d, source, depth=depth)
    theory_lbar = pm.length.mid
    theory_hd = pm.entropy.mid
    top = sorted(counts.items(), key=lambda kv: (-kv[1], canon_key(kv[0])))[:5]
    top_rows = []
    for w, c in top:
        p = source.word_prob(w)
        expect = n * p
        sd = math.sqrt(n * p * (1.0 - p))
        top_rows.append((w, c, _z_for(c - expect, sd)))
    return SimReport(
        n_phrases=n,
        total_symbols=total,
        empirical_lbar=lbar,
        stderr_lbar=stderr,
        empirical_entropy=entropy,
        theory_lbar=theory_lbar,
        theory_hd=theory_hd,
        z_lbar=_z_for(lbar - theory_lbar, stderr),
        top_phrases=tuple(top_rows),
        seed=seed,
    )


@dataclass(frozen=True)
class HistogramReport:
    entries: tuple  # (word, count) in canonical order
    chi_square: float
    dof: int
    p_value: float
    n_phrases: int
    seed: int

    def as_dict(self):
        rows = [{"word": list(w), "count": c} for w, c in self.entries]
        return {**vars(self), "entries": rows}


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an integer dof >= 1.

    With h = x/2 and T(a) = h^a e^-h / Gamma(a + 1), the tail is the finite
    sum of T(a) over a = c, c + 1, ..., dof/2 - 1, where c = (dof % 2)/2,
    plus erfc(sqrt(h)) for odd dof (Abramowitz & Stegun 26.4.4 and 26.4.5).
    Its complement is the sum of T(a) over a = dof/2, dof/2 + 1, ... (DLMF
    8.7.1). Below h = dof/2 the tail is over about 1/2, and it is one minus
    that series, whose terms fall by h/(a + 1) < 1: so a tail near 1 keeps
    its last bits and does not rise with x. Each term is formed in logs, so
    none overflows, and fsum adds them.
    """
    h = x / 2.0
    if h <= 0.0:
        return 1.0
    log_h = math.log(h)

    def term(a):
        return math.exp(a * log_h - h - math.lgamma(a + 1.0))

    a = dof / 2.0
    if h < a:
        terms = [term(a)]
        while terms[-1] > 1e-18 * terms[0]:
            a += 1.0
            terms.append(term(a))
        return 1.0 - math.fsum(terms)
    c = (dof % 2) / 2.0
    terms = [term(c + j) for j in range(dof // 2)]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return math.fsum(terms)


def _bins(d: Dictionary, source: SourceModel, n: int, depth: int, width: int) -> list:
    """(word, n*P(word)) for each member of length <= depth with
    n*P(word) >= MIN_EXPECTED, in canonical order; over a countable
    alphabet only those through symbols below width and in a finite
    source's alphabet. One walk, level by level, takes each state's
    member_symbols, prices them from symbol_prices and drops each prefix u
    with n*P(u) < MIN_EXPECTED. A finite alphabet's states all default to
    TO_DEAD, so its walk prices listed symbols only.
    """
    if d.alphabet_size is None:
        if source.alphabet_size is not None:
            width = min(width, source.alphabet_size)
        # a word through a symbol past width (an extension word, say) is pooled
        symbols, prices = range(width), symbol_prices(d, source, width)
    else:
        symbols, prices = range(d.alphabet_size), symbol_prices(d, source)
    trans, defaults = d.transitions, d.defaults
    bins = []
    rest = [((), 1.0, d.start)]
    for _ in range(depth):
        nxt = []
        for w, p, q in rest:
            t, default = trans[q], defaults[q]
            for s in member_symbols(t, default, symbols):
                x = p * prices[s]
                if n * x >= MIN_EXPECTED:
                    e = t.get(s, default)
                    if e == TO_WORD:
                        bins.append((w + (s,), n * x))
                    elif e >= 0:
                        nxt.append((w + (s,), x, e))
        if not nxt:
            break
        rest = nxt
    return bins


def phrase_histogram(
    d: Dictionary,
    source: SourceModel,
    n_phrases: int,
    seed: int = 42,
    step_cap: int = DEFAULT_STEP_CAP,
    depth: int = 64,
    width: int = DEFAULT_WIDTH,
    threads: int | None = None,
) -> HistogramReport:
    """Phrase counts plus a chi-square goodness-of-fit against P(alpha).

    Bins are dictionary words up to depth, over a countable alphabet those
    through symbols below width (and in a finite source's alphabet), with
    expected count n*P(w) >= MIN_EXPECTED; everything else pools into one
    bin. The p-value is the closed-form chi-square tail for the integer
    dof (_chi2_sf). The phrases are those simulate draws for the same
    arguments; `threads` changes nothing. A countable alphabet's width
    below 1 is refused, as n_phrases and depth below 1 are, before any
    sampling; a member past a finite source's alphabet is refused after
    it, with word_prob's error (check_members).

    The bins come from _bins' walk, cut where a prefix's expected count
    falls below the floor, so its cost follows the bins kept rather than
    the dictionary. They are the bins of pricing every member with
    word_prob, bit for bit: P only falls along a path (each p_s <= 1, and
    rounding is monotone), so no dropped prefix has a member to bin; the
    walk's product is word_prob's (see the dictionary module docstring);
    and ascending symbols taken level by level give canonical order, so
    the sums below add their terms as a per-member loop would.
    """
    if n_phrases < 1:
        raise ValueError("n_phrases must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if d.alphabet_size is None and width < 1:
        raise ValueError("width budget must be >= 1")
    counts = _sample_phrases(d, source, n_phrases, seed, step_cap)
    n = n_phrases
    check_members(d, source, depth)
    binned = _bins(d, source, n, depth, width)
    stat = 0.0
    binned_obs = 0
    binned_exp = 0.0
    for w, expect in binned:
        obs = counts.get(w, 0)
        stat += (obs - expect) ** 2 / expect
        binned_obs += obs
        binned_exp += expect
    pooled_exp = n - binned_exp
    dof = len(binned) - 1
    if pooled_exp > 1e-9:
        pooled_obs = n - binned_obs
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        dof += 1
    p_value = 1.0 if dof < 1 else _chi2_sf(stat, dof)
    entries = tuple(sorted(counts.items(), key=lambda kv: canon_key(kv[0])))
    return HistogramReport(
        entries=entries,
        chi_square=stat,
        dof=max(dof, 0),
        p_value=p_value,
        n_phrases=n,
        seed=seed,
    )
