"""Certified phrase-entropy and average-length measures.

H(D) = -sum P(a) log2 P(a) and lbar(D) = sum P(a)|a| over the dictionary,
evaluated as intervals. A dictionary with finitely many words sums them
all, those up to the depth and then the longer ones; any other (a
countable alphabet, or a reachable self-loop) takes the start state's
completion sums, in closed form and with no budget (see the dictionary
module docstring). Both give a single point. Where the completion has no
bound (a reachable self-loop of probability 1), lbar(D) diverges: the
intervals run from 0 to infinity and the note says so. The depth sets
P(T_depth), the mass that no member of length <= depth covers.

The conservation check compares H(D) against H(P)*lbar(D) and only issues
pass/fail when the dictionary is ASC-certified at the working depth; the
truncation identity H(D_n) = H(P)*lbar(D_n) is exact at every finite stage
and needs properness only.

Every finite sum here is formed from the automaton by
dictionary.word_levels, whose levels are lists of bare probabilities: a
finite dictionary's sums walk it to the depth and on to its last word and
add them up with dictionary.measure_sums, and the truncation series walks
it once to m_max (within the width budget on countable alphabets) and
reads each level's member and live-prefix probabilities directly. T_m's
dead prefixes come from that walk as a map from probability to count, each
distinct probability expanded once per length, and a count of c copies of
a term enters its sum as at most c.bit_length() terms of the same exact
sum (_powers). The walk ends at the first length L with no live or dead
prefix, where D_L = D (a finite complete dictionary's longest word): the
rows past L are row L repeated, not walked or summed again.
phrase_measures builds one dictionary.member_walk to the depth and reads
both the member sums and P(T_depth) (dictionary.boundary) from it;
check_conservation takes P(T_depth) from phrase_measures and certifies ASC
on it as is_asc would, so it walks once too. convergence_scan's final gaps
need H(D) and lbar(D) but not P(T_m_max), and come from the series' walk:
a dictionary with finitely many words sums the member terms the series met
once each and walks on from its live length-m_max prefixes through the
longer members alone, and any other takes its completion sums, with no
walk. _dictionary_sums makes that choice for both phrase_measures and the
scan, so each length is walked at most once per call.
Each word probability is the walk's product P(prefix)*p_s, bit-identical
to SourceModel.word_prob, and each sum is a math.fsum, which rounds the
exact sum and so does not depend on the order of its terms. So the reports
keep every bit of a word-by-word evaluation over member_words and truncate.
A symbol that a finite source lacks has probability 0 under P. A sum
that would take a word through one refuses it first, with word_prob's
error for the least such word: a member (dictionary.check_members), or
(n,) for a truncation series wider than the source's n symbols.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass

from .algebra import MAX_FRONTIER_WORDS
from .dictionary import (
    DEFAULT_WIDTH,
    Dictionary,
    FiniteDictionary,
    asc_verdict,
    boundary,
    check_asc_budget,
    check_members,
    exact_word_measures,
    measure_sums,
    member_walk,
    word_levels,
)
from .errors import UnsupportedOperationError
from .source import SourceModel

INF = float("inf")

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Interval:
    low: float
    high: float

    @property
    def width(self) -> float:
        return self.high - self.low

    @property
    def mid(self) -> float:
        return (self.low + self.high) / 2.0

    def scaled(self, factor: float) -> "Interval":
        return Interval(self.low * factor, self.high * factor)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.low - tol <= x <= self.high + tol

    def gap_to(self, other: "Interval") -> float:
        """Separation between intervals; 0 when they overlap."""
        return max(other.low - self.high, self.low - other.high, 0.0)


@dataclass(frozen=True)
class PhraseMeasures:
    """Interval measures of one dictionary under one source, and P(T_depth)."""

    entropy: Interval
    length: Interval
    mass: Interval
    frontier_mass: float
    depth: int
    exhaustive: bool
    tails_exact: bool
    note: str = ""

    def report(self, h_p: float) -> dict:
        """The measure report (vvcode measure), with H(P) = h_p."""
        return {
            "h_d_low": self.entropy.low,
            "h_d_high": self.entropy.high,
            "lbar_low": self.length.low,
            "lbar_high": self.length.high,
            "h_p": h_p,
            "frontier_mass": self.frontier_mass,
            "exhaustive": self.exhaustive,
            "tails_exact": self.tails_exact,
            "possibly_divergent": False,  # kept for format_version 1
            "note": self.note,
        }


def _level_sums(levels):
    """measure_sums of the members in word_levels' levels."""
    probs = list(itertools.chain.from_iterable(lv[1] for lv in levels))
    lengths = itertools.chain.from_iterable(
        itertools.repeat(j, len(ps)) for j, ps, *_ in levels
    )
    return measure_sums(probs, lengths)


def _dictionary_sums(d: Dictionary, source: SourceModel, members, more):
    """(mass, lbar, entropy) of the whole dictionary. One with finitely
    many words (a finite alphabet and no reachable self-loop) adds
    members(), the sums over the members a walk met, to those over the
    longer ones that the levels `more` walk on through (all 0.0 if none).
    Any other takes its completion sums, None where lbar(D) diverges."""
    longest = None if d.alphabet_size is None else d.max_word_length()
    if longest is None:
        return d.completion_sums(source)
    check_members(d, source, longest)
    levels = list(more)
    longer = _level_sums(levels) if any(lv[1] for lv in levels) else (0.0, 0.0, 0.0)
    return tuple(a + b for a, b in zip(members(), longer))


def phrase_measures(
    d: Dictionary,
    source: SourceModel,
    depth: int = 64,
) -> PhraseMeasures:
    """Bracket H(D), lbar(D) and the member mass, with P(T_depth).

    One walk to depth gives P(T_depth) and, for a dictionary with finitely
    many words, its member sums, up to depth and past it (see
    _dictionary_sums). Where the sums are None the intervals run from 0 to
    infinity and the note says so.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    levels, more = member_walk(d, source, depth)
    sums = _dictionary_sums(d, source, lambda: _level_sums(levels), more)
    frontier_mass = boundary(d, source, levels, depth)

    note = ""
    if sums is None:
        unbounded = Interval(0.0, INF)
        mass, length, entropy = Interval(0.0, 1.0), unbounded, unbounded
        note = "no certified tail bound for this family; upper ends unbounded"
    else:
        mass, length, entropy = (Interval(x, x) for x in sums)
    return PhraseMeasures(
        entropy=entropy,
        length=length,
        mass=mass,
        frontier_mass=frontier_mass,
        depth=depth,
        exhaustive=d.fully_enumerated(depth),
        tails_exact=sums is not None,
        note=note,
    )


def dict_entropy(
    d: Dictionary,
    source: SourceModel,
    depth: int = 64,
    width: int = DEFAULT_WIDTH,
) -> Interval:
    """Interval for H(D) = -sum P(alpha) log2 P(alpha) in bits. width is
    accepted for compatibility and changes nothing."""
    return phrase_measures(d, source, depth).entropy


def avg_length(d: Dictionary, source: SourceModel, depth: int = 64) -> Interval:
    """Interval for lbar(D) = sum P(alpha)|alpha| in symbols."""
    return phrase_measures(d, source, depth).length


@dataclass(frozen=True)
class MeasureReport:
    """Conservation-check report: intervals, residual and verdict, in the
    order of the verify CSV's columns."""

    verdict: str
    residual: float
    h_d_low: float
    h_d_high: float
    lbar_low: float
    lbar_high: float
    h_p: float
    frontier_mass: float
    depth_used: int
    tol: float
    asc_status: str
    note: str = ""

    def as_dict(self):
        # possibly_divergent is kept for format_version 1
        return {**asdict(self), "possibly_divergent": False}


def check_conservation(
    d: Dictionary,
    source: SourceModel,
    depth: int = 64,
    tol: float = 1e-9,
    width: int = DEFAULT_WIDTH,
) -> MeasureReport:
    """Verify H(D) = H(P)*lbar(D) numerically, certifying ASC at depth.

    Pass requires the ASC certificate (the conservation law's hypothesis):
    is_asc's, taken on the P(T_depth) that phrase_measures returns, after
    is_asc's checks of depth and tol. Other inputs yield an inconclusive
    verdict with a note rather than evaluating the equation as if it
    applied. width is accepted for compatibility and changes nothing.
    """
    verdict_note = ""
    check_asc_budget(depth, tol)
    pm = phrase_measures(d, source, depth)
    asc = asc_verdict(pm.frontier_mass, depth, tol)
    h_p = source.entropy()
    rhs = pm.length.scaled(h_p)
    residual = abs(pm.entropy.mid - h_p * pm.length.mid)
    slack = (pm.entropy.width + rhs.width) / 2.0
    if not asc.certified:
        verdict = INCONCLUSIVE
        verdict_note = (
            "conservation hypothesis unmet: dictionary is not ASC-certified at "
            f"this depth (residual mass {asc.residual_mass:.3g})"
        )
    elif math.isfinite(slack) and residual <= tol + slack:
        verdict = PASS
    elif pm.entropy.gap_to(rhs) > tol:
        verdict = FAIL
        verdict_note = "interval for H(D) is separated from H(P)*lbar(D)"
    else:
        verdict = INCONCLUSIVE
        verdict_note = pm.note or "intervals too wide to decide at this budget"
    return MeasureReport(
        h_d_low=pm.entropy.low,
        h_d_high=pm.entropy.high,
        lbar_low=pm.length.low,
        lbar_high=pm.length.high,
        h_p=h_p,
        residual=residual,
        depth_used=depth,
        frontier_mass=pm.frontier_mass,
        verdict=verdict,
        asc_status=asc.status,
        tol=tol,
        note=verdict_note,
    )


@dataclass(frozen=True)
class TruncationRow:
    m: int
    h: float
    lbar: float
    mass: float
    residual: float
    ok: bool


@dataclass(frozen=True)
class TruncationIdentityReport:
    h_p: float
    rows: tuple
    all_ok: bool

    def as_dict(self):
        return asdict(self)


def _powers(c: int) -> list:
    """2^i for each set bit i of c, in ascending order. The terms x*2^i have
    the exact sum of c copies of x, since scaling by a power of two is
    exact, and math.fsum rounds the exact sum of its terms: it returns the
    same for them as for [x]*c."""
    out = []
    while c:
        low = c & -c
        out.append(float(low))
        c ^= low
    return out


def _truncation_series(d, source, m_max, max_symbol):
    """(rows, members, more): rows[m - 1] is (mass, lbar, entropy) of D_m
    for m = 1..m_max, members() the sums over the members the walk met, and
    more the member levels past them, for _dictionary_sums.

    D_m is the members of length <= m and T_m. One walk to depth m_max
    yields each length's member probabilities and T_m (truncate's sets),
    and row m sums the members so far with T_m, the terms
    exact_word_measures would take. T_m's dead prefixes come as P -> count,
    and a term's count of copies enters its sum as the term times each of
    the count's _powers.

    The walk ends after the level L where no prefix is live and none is
    dead: T_L is empty and D_L = D (L is the longest word of a finite
    complete dictionary). Every row past L sums the same terms, so it is
    row L repeated, with no further walk or sum.

    The member terms up to m_max are the ones phrase_measures sums at
    depth m_max, so members() takes one fsum of each, and more is a member
    walk on from the live length-m_max prefixes, started only when read. A
    dead prefix leads to no member, and that walk expands none, so it has
    no frontier budget to exceed.
    """
    width = d.member_width(max_symbol)
    n = source.alphabet_size
    unpriced = n is not None and width > n
    levels = word_levels(d, source, width, MAX_FRONTIER_WORDS)
    mass, lbar, h = [], [], []  # the terms of the members so far
    rows = []
    for m, probs, t_m, live_states, dead in itertools.islice(levels, m_max):
        if unpriced:  # (n,) is in D_1; refused after D_1's frontier budget
            source.check_word((n,))
        live = m, t_m, live_states
        ms = itertools.repeat(m)
        mass += probs
        lbar += map(operator.mul, probs, ms)
        h += [p * math.log2(p) for p in probs if p > 0.0]
        t_lbar = list(map(operator.mul, t_m, ms))
        t_h = [p * math.log2(p) for p in t_m if p > 0.0]
        if dead:
            dead = [(p, _powers(c)) for p, c in dead.items()]
            t_m = t_m + [p * f for p, fs in dead for f in fs]
            t_lbar += [p * m * f for p, fs in dead for f in fs]
            t_h += [p * math.log2(p) * f for p, fs in dead if p > 0.0 for f in fs]
        rows.append((
            math.fsum(itertools.chain(mass, t_m)),
            math.fsum(itertools.chain(lbar, t_lbar)),
            -math.fsum(itertools.chain(h, t_h)),
        ))
    # a walk that ended before m_max left D_m = D: the later rows are row m
    rows += rows[-1:] * (m_max - m)

    def more():
        yield from word_levels(d, source, start=live)

    return rows, lambda: (math.fsum(mass), math.fsum(lbar), -math.fsum(h)), more()


def _check_tol(tol: float) -> None:
    """Raise ValueError unless tol is finite and >= 0. A residual can be
    exactly 0, so tol = 0 is an exact check."""
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    if tol < 0:
        raise ValueError("tolerance must be >= 0")


def check_truncation_identity(
    d: Dictionary,
    source: SourceModel,
    m_max: int,
    tol: float = 1e-9,
    max_symbol: int | None = None,
) -> TruncationIdentityReport:
    """Check H(D_m) = H(P)*lbar(D_m) exactly for m = 1..m_max.

    Finite sums at every stage; requires properness only, not ASC.
    Countable alphabets are evaluated within the symbol budget. m_max and
    tol are checked before the walk.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    _check_tol(tol)
    h_p = source.entropy()
    rows = []
    series = _truncation_series(d, source, m_max, max_symbol)[0]
    for m, (mass, lbar, h) in enumerate(series, 1):
        residual = abs(h - h_p * lbar)
        rows.append(TruncationRow(m, h, lbar, mass, residual, residual <= tol))
    return TruncationIdentityReport(
        h_p=h_p, rows=tuple(rows), all_ok=all(r.ok for r in rows)
    )


@dataclass(frozen=True)
class ExtensionIdentityReport:
    p_alpha: float
    delta_lbar: float
    delta_h: float
    lbar_residual: float
    h_residual: float
    lbar_ok: bool
    h_ok: bool

    @property
    def ok(self) -> bool:
        return self.lbar_ok and self.h_ok


def check_extension_identities(
    d: Dictionary,
    alpha,
    source: SourceModel,
    tol: float = 1e-9,
) -> ExtensionIdentityReport:
    """Verify lbar(D[alpha]) - lbar(D) = P(alpha) and
    H(D[alpha]) - H(D) = P(alpha)*H(P) by exact finite sums. tol is
    checked before the sums."""
    from .algebra import extend

    _check_tol(tol)
    if not isinstance(d, FiniteDictionary):
        raise UnsupportedOperationError(
            "extension identities need a finite materialization; use the "
            "interval measures for lazy families"
        )
    alpha = tuple(alpha)
    ext = extend(d, alpha)
    _, lbar0, h0 = exact_word_measures(d.words, source)
    _, lbar1, h1 = exact_word_measures(ext.words, source)
    p_alpha = source.word_prob(alpha)
    delta_lbar = lbar1 - lbar0
    delta_h = h1 - h0
    lbar_residual = abs(delta_lbar - p_alpha)
    h_residual = abs(delta_h - p_alpha * source.entropy())
    return ExtensionIdentityReport(
        p_alpha=p_alpha,
        delta_lbar=delta_lbar,
        delta_h=delta_h,
        lbar_residual=lbar_residual,
        h_residual=h_residual,
        lbar_ok=lbar_residual <= tol,
        h_ok=h_residual <= tol,
    )


@dataclass(frozen=True)
class ScanRow:
    m: int
    h: float
    lbar: float
    identity_residual: float


@dataclass(frozen=True)
class ScanReport:
    rows: tuple
    h_nondecreasing: bool
    lbar_nondecreasing: bool
    final_h_gap: float
    final_lbar_gap: float

    def as_dict(self):
        return asdict(self)


def convergence_scan(
    d: Dictionary,
    source: SourceModel,
    m_max: int,
    max_symbol: int | None = None,
) -> ScanReport:
    """Emit (m, H(D_m), lbar(D_m)) for m = 1..m_max with monotonicity flags.

    Truncation measures are nondecreasing in m for any proper dictionary
    (every extension adds P(alpha) >= 0). The final gaps compare the last
    row against H(D) and lbar(D), the values phrase_measures gives, from
    the truncation series' own walk: a dictionary with finitely many words
    sums the members that walk met and walks on through the longer ones
    only; any other takes its completion sums and walks no further. Where
    lbar(D) diverges, both gaps are infinite.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    h_p = source.entropy()
    series, members, more = _truncation_series(d, source, m_max, max_symbol)
    rows = [
        ScanRow(m=m, h=h, lbar=lbar, identity_residual=abs(h - h_p * lbar))
        for m, (_, lbar, h) in enumerate(series, 1)
    ]
    eps = 1e-12
    h_mono = all(b.h >= a.h - eps for a, b in zip(rows, rows[1:]))
    l_mono = all(b.lbar >= a.lbar - eps for a, b in zip(rows, rows[1:]))
    sums = _dictionary_sums(d, source, members, more)
    h_d, lbar_d = (INF, INF) if sums is None else (sums[2], sums[1])
    final_h_gap = abs(h_d - rows[-1].h)
    final_lbar_gap = abs(lbar_d - rows[-1].lbar)
    return ScanReport(
        rows=tuple(rows),
        h_nondecreasing=h_mono,
        lbar_nondecreasing=l_mono,
        final_h_gap=final_h_gap,
        final_lbar_gap=final_lbar_gap,
    )
