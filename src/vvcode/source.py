"""Discrete memoryless sources over finite or countably infinite alphabets.

A source is a probability distribution P over symbol indices 0,1,2,...
Words are plain tuples of symbol indices; the empty tuple is the empty
word and has probability 1. All logs are base 2.
"""

from __future__ import annotations

import math
import itertools
import operator
from dataclasses import dataclass
from typing import Tuple

from .rng import XorShift64Star, float_block

Word = Tuple[int, ...]

PROB_SUM_TOL = 1e-9  # tolerance on |sum(probs) - 1|, for sources and codebooks

FINITE = "finite"
GEOMETRIC = "geometric"


def canon_key(word: Word):
    """Canonical (length, then lexicographic) sort key for words."""
    return (len(word), word)


def sort_words(words) -> list:
    return sorted(words, key=canon_key)


@dataclass(frozen=True)
class SourceModel:
    """Memoryless source (P, A): finite probability table or geometric family.

    Geometric kind: symbol i in {0,1,2,...} has probability p*(1-p)^i.
    Immutable after construction; safe to share across threads.
    """

    kind: str
    probs: tuple = ()
    p: float = 0.0

    def __post_init__(self):
        if self.kind == FINITE:
            _checked_total(self.probs)
            # word_prob's lookup; an attribute, not a field, so it stays
            # out of ==, hash, repr and (through __reduce__) copies and pickles
            object.__setattr__(self, "_prob_of", dict(enumerate(self.probs)))
        elif self.kind == GEOMETRIC:
            if not (0.0 < self.p < 1.0):
                raise ValueError(f"geometric parameter {self.p} not in (0, 1)")
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")

    def __reduce__(self):
        return SourceModel, (self.kind, self.probs, self.p)

    @classmethod
    def finite(cls, probs) -> "SourceModel":
        """The source over symbols 0..k-1 with these probabilities, each in
        (0, 1] and summing to 1 within PROB_SUM_TOL, divided by their
        math.fsum total: a total of exactly 1.0 keeps them as given. The
        constructor only checks, so a copy or a pickle of the result is
        equal to it."""
        probs = tuple(float(q) for q in probs)
        total = _checked_total(probs)
        return cls(kind=FINITE, probs=tuple(q / total for q in probs))

    @classmethod
    def fair_bit(cls) -> "SourceModel":
        return cls.finite([0.5, 0.5])

    @classmethod
    def geometric(cls, p: float) -> "SourceModel":
        return cls(kind=GEOMETRIC, p=float(p))

    @property
    def alphabet_size(self) -> int | None:
        """Number of symbols, or None for a countably infinite alphabet."""
        return len(self.probs) if self.kind == FINITE else None

    def symbol_prob(self, i: int) -> float:
        if i < 0:
            raise ValueError(f"symbol index {i} is negative")
        if self.kind == FINITE:
            if i >= len(self.probs):
                raise ValueError(
                    f"symbol index {i} out of range for alphabet size {len(self.probs)}"
                )
            return self.probs[i]
        return self.p * (1.0 - self.p) ** i

    def entropy(self) -> float:
        """H(P) in bits per symbol.

        Geometric kind uses the closed form
        (-(1-p)*log2(1-p) - p*log2(p)) / p.
        """
        if self.kind == FINITE:
            return self.surprisal_between(0)
        p, q = self.p, 1.0 - self.p
        return (-q * math.log2(q) - p * math.log2(p)) / p

    def check_word(self, word: Word) -> None:
        """Raise ValueError if word has a symbol outside a finite alphabet."""
        if self.kind == FINITE and word and (
            min(word) < 0 or max(word) >= len(self.probs)
        ):
            raise ValueError(
                f"word {list(word)} has symbols outside alphabet size "
                f"{len(self.probs)}"
            )

    def word_prob(self, word: Word) -> float:
        """Product-measure probability P(word); empty word -> 1.

        The symbol probabilities are multiplied left to right from 1.0,
        the order dictionary.word_levels also uses. A finite source looks
        each symbol up in a symbol -> probability dict in one pass, after
        operator.index, the coercion a tuple index applies. A symbol that
        this pass rejects (negative, out of range, not an integer) sends
        the word through check_word and the probability tuple, which
        raise what they always raised.
        """
        if self.kind == FINITE:
            try:
                return math.prod(
                    map(self._prob_of.__getitem__, map(operator.index, word)),
                    start=1.0,
                )
            except (KeyError, TypeError):
                self.check_word(word)
                return math.prod(map(self.probs.__getitem__, word), start=1.0)
        prob = 1.0
        for sym in word:
            prob *= self.symbol_prob(sym)
        return prob

    # The two run sums, mass and surprisal mass, over start <= i < stop or the
    # open run i >= start (stop None), each in closed form for the geometric kind.

    def mass_between(self, start: int, stop: int | None = None) -> float:
        """Sum of P(i) over start <= i < stop, or over i >= start."""
        if self.kind == FINITE:
            return math.fsum(self.probs[start:stop])
        q_start = (1.0 - self.p) ** start
        if stop is None:
            return q_start
        # q^start - q^stop, without the cancellation of the difference
        return -q_start * math.expm1((stop - start) * math.log1p(-self.p))

    def surprisal_between(self, start: int, stop: int | None = None) -> float:
        """Sum of -P(i)*log2 P(i) over start <= i < stop, or over i >= start.

        For the geometric kind, -log2 P(i) = -log2 p - i*log2 q, so the sum
        is M*(-log2 p) - log2(q)*(start*M + T), where M = mass_between(start,
        stop) and T = sum of (i - start)*P(i), in closed form
        (q*M - (stop - start)*p*q^stop)/p. T rounds worst where
        (stop - start)*p is small, and there its share of the sum is about
        that small too.
        """
        if self.kind == FINITE:
            return -math.fsum(q * math.log2(q) for q in self.probs[start:stop])
        p, q = self.p, 1.0 - self.p
        if stop is None:
            # sum_{i>=W} q^i = q^W/p ; sum_{i>=W} i q^i = q^W (W p + q)/p^2
            s1 = q**start / p
            s2 = q**start * (start * p + q) / (p * p)
            return p * (-math.log2(p) * s1 - math.log2(q) * s2)
        mass = self.mass_between(start, stop)
        if mass == 0.0:  # no symbols, or underflow: 0 * log 0 = 0
            return 0.0
        t = (q * mass - (stop - start) * p * q**stop) / p
        return mass * -math.log2(p) - math.log2(q) * (start * mass + t)

    def sample_stream(self, seed: int, n: int) -> list:
        """n i.i.d. symbol draws, deterministic given (seed, n).

        Draw i uses the i-th uniform double of an XorShift64Star stream
        seeded with ``seed`` (see rng module for the exact generator).
        Finite kind maps the uniform through the inverse CDF (smallest
        symbol s with u < P(0)+...+P(s)); geometric kind uses
        int(math.log1p(-u) / math.log1p(-p)).
        """
        if n < 0:
            raise ValueError("sample count must be >= 0")
        return self.sample_block(XorShift64Star(seed).state, n)[0]

    def sample_block(self, state: int, n: int):
        """(symbols, state): the next n draws of sample_stream's rule from an
        XorShift64Star at ``state`` as a list, and the generator state after
        them."""
        u, state = float_block(state, n)
        return self.symbols_for(u).tolist(), state

    def symbols_for(self, u):
        """sample_stream's symbols for the numpy array of uniforms u.

        They come as a numpy integer array that dictionary.walk turns into
        text without a Python list: uint8 for two symbols, the searchsorted
        index type for more, int64 for the geometric kind (an object array
        of ints should a draw reach 2^63).
        """
        import numpy as np

        if self.kind == GEOMETRIC:
            return _geometric_symbols(u, self.p)
        if len(self.probs) == 2:
            return (u >= self.probs[0]).view(np.uint8)
        cum = list(itertools.accumulate(self.probs))
        cum[-1] = 1.0
        # side="right" is bisect_right; u < 1 = cum[-1], so no index passes
        # the last symbol and needs no clip
        return np.searchsorted(cum, u, side="right")


def _checked_total(probs) -> float:
    """The math.fsum total of a finite source's probabilities, after
    checking that each is in (0, 1] and the total within PROB_SUM_TOL of 1."""
    if not probs:
        raise ValueError("finite source needs at least one symbol")
    for q in probs:
        if not (0.0 < q <= 1.0):
            raise ValueError(f"symbol probability {q} not in (0, 1]")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return total


def _geometric_symbols(u, p: float):
    """int(math.log1p(-x) / math.log1p(-p)) for each x in u, bit for bit.

    np.log1p may differ from math.log1p in the last bit, which moves the
    quotient by a few ulps at most. Only a quotient that close to an
    integer can truncate differently, so the ones within 2^-30*max(1, x) of
    an integer (and any that is not finite) are recomputed with math.log1p.
    """
    import numpy as np

    log_q = math.log1p(-p)
    x = np.log1p(-u) / log_q
    near = np.flatnonzero(~(np.abs(x - np.rint(x)) > 2.0**-30 * np.maximum(1.0, x)))
    if near.size:
        x[near] = [math.log1p(-v) / log_q for v in u[near].tolist()]
    if x.size and not x.max() < 2.0**63:
        return np.array([int(v) for v in x.tolist()], dtype=object)
    return x.astype(np.int64)
