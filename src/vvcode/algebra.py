"""Dictionary algebra: frontiers, truncations, cones, extension chains.

For a proper dictionary D and depth n:

* T_n       -- length-n strings with no member prefix (the uncovered frontier).
* D_n_perp  -- length-n members together with T_n.
* D_n       -- members shorter than n together with D_n_perp; proper, and
               complete over a finite alphabet.
* (D, beta) -- the cone: members having beta as a prefix.
* D[alpha]  -- the extension replacing member alpha by all one-symbol
               continuations alpha*A.

Truncations over countable alphabets take an explicit symbol budget and
report whether enumeration was exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from math import fsum

from .dictionary import (
    TO_DEAD,
    TO_WORD,
    WORD,
    Dictionary,
    ExtendedDictionary,
    FiniteDictionary,
    frontier_budget_error,
    subtree_walk,
)
from .errors import ConeHypothesisError, ResourceBudgetError
from .source import SourceModel, sort_words

# The largest |T_n| enumerated or summed. It bounds the size of T_n, not the
# work: the truncation series walks T_n's dead prefixes once per distinct
# probability, so a frontier near the bound can cost far fewer steps.
MAX_FRONTIER_WORDS = 1_000_000


def _frontier_walk(d: Dictionary, depth: int, max_symbol: int | None, max_words: int):
    """(members of length <= depth, T_depth) in canonical order, from one
    frontier subtree_walk over the symbols below the width budget. A T_depth
    of more than max_words words raises before any of it is built; then
    each dead prefix the walk kept expands to all its completions."""
    if depth < 1:
        raise ValueError("frontier depth must be >= 1")
    symbols = range(d._width_for(max_symbol))
    words, rest = subtree_walk(d, (), d.start, depth, symbols, frontier=True)
    if rest and sum(len(symbols) ** (depth - len(w)) for w, _ in rest) > max_words:
        raise frontier_budget_error(depth, max_words)
    return words, [
        w + tail for w, _ in rest for tail in product(symbols, repeat=depth - len(w))
    ]


def uncovered_frontier(
    d: Dictionary,
    depth: int,
    max_symbol: int | None = None,
    max_words: int = MAX_FRONTIER_WORDS,
):
    """Enumerate T_depth in canonical order; returns (words, exhaustive).
    DEAD is absorbing: a dead prefix's whole subtree belongs to the
    frontier. Countable alphabets are scanned for symbols < max_symbol and
    flagged non-exhaustive."""
    return _frontier_walk(d, depth, max_symbol, max_words)[1], d.alphabet_size is not None


@dataclass(frozen=True)
class FrontierSets:
    """T_n, D_n_perp and D_n at one depth. d_n, the dictionary of d_n_words,
    is built on first use over a finite alphabet, and is None over a
    countable one."""

    n: int
    t_n: tuple
    d_n_perp: tuple
    d_n_words: tuple
    alphabet_size: int | None
    exhaustive: bool

    @cached_property
    def d_n(self) -> FiniteDictionary | None:
        k = self.alphabet_size
        return None if k is None else FiniteDictionary(k, self.d_n_words)

    def as_dict(self):
        return {
            "n": self.n,
            "t_n": [list(w) for w in self.t_n],
            "d_n_perp": [list(w) for w in self.d_n_perp],
            "d_n": [list(w) for w in self.d_n_words],
            "exhaustive": self.exhaustive,
        }


def truncate(
    d: Dictionary,
    depth: int,
    max_symbol: int | None = None,
    max_words: int = MAX_FRONTIER_WORDS,
) -> FrontierSets:
    """Compute T_n, D_n_perp, D_n at n = depth, from one frontier walk.

    n = 1 reduces to the special case T_1 = {a in A : a not in D} and
    D_1 = A.
    """
    members, t_n = _frontier_walk(d, depth, max_symbol, max_words)
    d.member_width(max_symbol)  # raises where member_words would
    shorter = [w for w in members if len(w) < depth]
    d_n_perp = tuple(sort_words(members[len(shorter):] + t_n))
    return FrontierSets(
        n=depth,
        t_n=tuple(t_n),
        d_n_perp=d_n_perp,
        d_n_words=tuple(shorter) + d_n_perp,
        alphabet_size=d.alphabet_size,
        exhaustive=d.alphabet_size is not None,
    )


def extend(d: Dictionary, alpha) -> Dictionary:
    """D[alpha] = (D \\ {alpha}) u alpha*A.

    Finite dictionaries are materialized; lazy families and countable
    alphabets return a lazy extension, an automaton built from the base's.
    """
    alpha = tuple(alpha)
    if d.classify(alpha) != WORD:
        raise ValueError(f"extension word {list(alpha)} is not in the dictionary")
    if isinstance(d, FiniteDictionary):
        k = d.alphabet_size
        words = [w for w in d.words if w != alpha]
        words.extend(alpha + (b,) for b in range(k))
        return FiniteDictionary(k, words)
    return ExtendedDictionary(d, alpha)


@dataclass(frozen=True)
class ConeResult:
    beta: tuple
    words: tuple
    exhaustive: bool

    def as_dict(self):
        return {
            "beta": list(self.beta),
            "words": [list(w) for w in self.words],
            "exhaustive": self.exhaustive,
        }


def _cone_walk(d: Dictionary, beta, depth_budget: int, max_symbol: int | None):
    """(cone(...), open prefixes): one walk of beta's subtree, over the
    symbols below member_width(max_symbol), finds the cone's members and
    its open prefixes, the length-depth_budget extensions of beta classified
    INTERNAL (members lie beyond them). Reading beta checks the cone-mass
    hypothesis: a member that is a proper prefix of beta raises."""
    beta = tuple(beta)
    if depth_budget < len(beta):
        raise ValueError("depth budget shorter than the cone prefix")
    entry = d.start
    for ell, s in enumerate(beta):
        if entry == TO_WORD:
            raise ConeHypothesisError(
                f"cone prefix {list(beta)} has the shorter dictionary prefix "
                f"{list(beta[:ell])}; the cone-mass identity does not apply"
            )
        entry = TO_DEAD if entry == TO_DEAD else d.next_entry(entry, s)
    symbols = range(d.member_width(max_symbol))
    words, rest = subtree_walk(d, beta, entry, depth_budget, symbols)
    if not all(s in symbols for s in beta):
        words = []  # as in member_words, no word through a symbol past width
    open_prefixes = [w for w, _ in rest]
    exhaustive = d.alphabet_size is not None and (
        d.fully_enumerated(depth_budget, max_symbol) or not open_prefixes
    )
    return ConeResult(beta=beta, words=tuple(words), exhaustive=exhaustive), open_prefixes


def cone(
    d: Dictionary,
    beta,
    depth_budget: int = 64,
    max_symbol: int | None = None,
) -> ConeResult:
    """(D, beta): all members with prefix beta, up to length depth_budget.

    The cone-mass hypothesis (beta has no strictly shorter member prefix) is
    checked and a violation raises rather than returning a set the
    cone-mass identity would be false for.
    """
    return _cone_walk(d, beta, depth_budget, max_symbol)[0]


def cone_mass_bounds(
    d: Dictionary,
    beta,
    source: SourceModel,
    depth_budget: int = 64,
    max_symbol: int | None = None,
):
    """Bracket sum(P(alpha)) over the cone (D, beta).

    Low is the enumerated mass; members beyond the budget each extend an
    INTERNAL length-budget prefix, so their total mass is at most the mass
    of those open prefixes.
    """
    res, open_prefixes = _cone_walk(d, beta, depth_budget, max_symbol)
    low = fsum(source.word_prob(w) for w in res.words)
    if res.exhaustive:
        return low, low
    open_mass = fsum(source.word_prob(p) for p in open_prefixes)
    if d.alphabet_size is None:
        # symbols >= width unaccounted; fall back to the prefix mass bound
        open_mass = max(open_mass, source.word_prob(res.beta) - low)
    return low, low + open_mass


class ExtensionChain:
    """The chain D_{m+1,k}: k single-word extensions of a base dictionary.

    extending_words may be a sequence or a callable returning a fresh
    iterator (countable T_m). Enumeration order is canonical where the
    chain is built from a truncation.
    """

    def __init__(self, base: Dictionary, extending_words):
        self.base = base
        if not callable(extending_words):
            extending_words = [tuple(w) for w in extending_words]
        self._words = extending_words

    @classmethod
    def from_truncation(
        cls, d: Dictionary, m: int, max_symbol: int | None = None
    ) -> "ExtensionChain":
        fs = truncate(d, m, max_symbol)
        if fs.d_n is None:
            raise ResourceBudgetError(
                "extension chains from truncations need a finite alphabet; "
                "construct the chain explicitly for countable alphabets"
            )
        return cls(fs.d_n, fs.t_n)

    def extending_words(self, k: int):
        if k < 0:
            raise ValueError("chain step count must be >= 0")
        words = self._words() if callable(self._words) else self._words
        words = [tuple(w) for w in islice(words, k)]
        if len(words) < k:
            raise ValueError(f"chain has {len(words)} extending words, {k} requested")
        return words

    def step(self, k: int) -> Dictionary:
        d = self.base
        for w in self.extending_words(k):
            d = extend(d, w)
        return d


def chain_step(chain: ExtensionChain, k: int) -> Dictionary:
    """D_{m+1,k}: the base after the first k single-word extensions."""
    return chain.step(k)
