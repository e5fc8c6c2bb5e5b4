"""Prefix-free dictionaries: explicit word sets and lazy infinite families.

A dictionary is a prefix-free set of nonempty words over the source
alphabet. A finite dictionary keeps its trie and its words in canonical
order, and nothing derived from them: the constructor checks the words
while it inserts them, and codec.tunstall_build grows the trie itself and
hands it over unchecked, its words read off the trie by subtree_walk in
canonical order without a sort. Infinite families (run-length,
single-word extensions over countable alphabets) are constructors of an
automaton and nothing more: every query, the measures included, is the
base class reading it.

Classification of an arbitrary prefix against a dictionary:

* WORD     -- the prefix is a member.
* INTERNAL -- the prefix is a proper prefix of at least one member.
* DEAD     -- neither; no extension of the prefix is a member.

Every dictionary compiles one automaton at construction, and all walks
(classify, parse, encode, decode, sampling, members, frontiers, cones,
completeness) read it. State q has a dict ``transitions[q]`` from symbol
to entry and an entry ``defaults[q]`` for every other symbol. A listed
entry is the next internal state (an index >= 0) or TO_WORD; a default is
TO_WORD or TO_DEAD, and a negative symbol is DEAD in every state. The
only cycles are self-loops (a state listed as its own entry). The
per-state default is what lets countable alphabets share the
representation: "every symbol ends a word" needs no table of symbols.
``subtree_walk`` is the one walk that turns the automaton into word
tuples: members, cones, the frontier T_n and a Tunstall trie's words.

``walk`` segments a stream in C once a dictionary has walked enough
symbols: the automaton becomes one regular expression over the stream's
text (symbol s is the character chr(s); Kleene's theorem), and
``re.findall`` returns the greedy phrases. The pattern is compiled once
the symbols walked with the dictionary reach COMPILE_SYMBOLS_PER_STATE per
automaton state, and cached on the instance. Until then, and for an
automaton that nests deeper than MAX_PATTERN_DEPTH (re's parser recurses
once per group) or whose pattern runs out of stack anyway,
as it can for a caller that is deep in the stack or has lowered the
recursion limit, a FiniteDictionary reads one phrase per bisect of its
words' sorted texts (cached on the instance on first use), and hands over
to the automaton loop where no word matches or once the mean phrase read
is shorter than BISECT_MIN_MEAN symbols, for the loop walks short phrases
faster. The loop walks the pending tail after the last phrase either path
reads, finds the DEAD index, walks every symbol from the first one that
is not a code point on, and walks everything for a lazy family that has
not compiled. The walk's result does not depend on which path ran, so a
dictionary stays safe to share: two callers racing on the symbol count or
the caches at worst compile late or twice. codec.decode compiles under
the same rule: a codebook's codewords are a dictionary over {0, 1}, whose
pattern _word_pattern compiles once the codebook has decoded enough bits.

The measure sums read the automaton too. ``word_levels`` walks it one
length at a time, starting from 1.0 at the start state, and yields each
level as parallel lists: the probabilities of the members of that length
as bare floats, and the probability and state of each live prefix. A
member walk takes each state's listed edges, so its cost does not grow
with the alphabet. An edge costs one multiply, P(prefix)*p_s, and one
append; a finite source that has every symbol of the dictionary's
alphabet prices s as probs[s], and any other pair from one table of the
symbols the walk takes, built per walk, where a symbol that a finite
source lacks has its probability under P, 0.0.
SourceModel.word_prob multiplies a word's symbol probabilities in the same
order from the same 1.0, so every P(w) the walk reaches is bit-identical
to word_prob(w). ``measure_sums``, which exact_word_measures calls too,
then adds the same terms (P, P*|w| and P*log2 P) with math.fsum over C
maps. fsum rounds the exact sum correctly and so does not depend on the
order of its terms: the sums keep every bit of a word-by-word evaluation,
at one multiply per edge instead of |w| per word. A sum that would take
an unpriced word refuses it first (``check_members``).

``member_walk`` walks d to a depth, and ``boundary`` reads P(T_depth)
from its levels: the live prefixes at depth plus the mass that shorter
ones send to TO_DEAD (none, and no state is scanned for it, where the
source's alphabet is the dictionary's and every state lists every
symbol). measures.phrase_measures reads from one walk both P(T_depth)
and, for an automaton with finitely many words, the sums over its
members, up to the depth and on through the longer ones;
check_conservation certifies ASC on that P(T_depth): the float is_asc
certifies. Nothing keeps a walk between calls.
Any other automaton (a countable alphabet, or a reachable self-loop) has
its measures in closed form: the start state's completion sums, computed
children first, the fundamental matrix of an absorbing chain (Kemeny &
Snell, 1960) for a DAG plus self-loops. A state's unlisted symbols enter
them as runs between its listed ones and a last run with no end, each
summed in closed form by the source: a far symbol costs no enumeration.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from bisect import bisect_right
from dataclasses import dataclass

from .errors import (
    ImproperDictionaryError,
    ResourceBudgetError,
    SymbolTypeError,
    UnsupportedOperationError,
)
from .source import SourceModel, Word, sort_words

INTERNAL = 0
WORD = 1
DEAD = 2

# Automaton entries other than internal states; -entry is the class.
TO_WORD = -WORD
TO_DEAD = -DEAD

CERTIFIED_ASC = "certified_asc"
CERTIFIED_NOT_COMPLETE = "certified_not_complete"
UNDETERMINED = "undetermined"

DEFAULT_WIDTH = 64  # symbol budget for countable-alphabet enumerations

COMPILE_SYMBOLS_PER_STATE = 256  # symbols walked per state before compiling
MAX_PATTERN_DEPTH = 200  # deepest group nesting that walk compiles
BISECT_BLOCK = 64  # phrases walk bisects between checks of their mean length
BISECT_MIN_MEAN = 4  # shortest mean phrase walk keeps bisecting
MAX_CODE_POINT = 0x10FFFF


def find_prefix_violation(words):
    """Return a (prefix, longer) pair violating prefix-freeness, or None.

    After lexicographic sorting, any prefix relation appears between
    adjacent entries.
    """
    ws = sorted(tuple(w) for w in words)
    for a, b in zip(ws, ws[1:]):
        if len(a) < len(b) and b[: len(a)] == a:
            return a, b
    return None


def _symbol_index(s, w) -> int:
    """operator.index(s): a plain int for an int, a bool or a numpy integer.
    SymbolTypeError names a symbol it refuses (a float or a string)."""
    try:
        return operator.index(s)
    except TypeError:
        raise SymbolTypeError(f"symbol {s!r} in word {list(w)!r} is not an integer") from None


def reiterable(xs):
    """xs as a list or tuple, so that it can be walked twice."""
    return xs if isinstance(xs, (list, tuple)) else list(xs)


def word_tuple(w) -> tuple:
    """tuple(w), or SymbolTypeError naming a w that is not a sequence."""
    try:
        return tuple(w)
    except TypeError:
        raise SymbolTypeError(f"word {w!r} is not a sequence of symbols") from None


def index_word(w) -> Word:
    """w with each symbol as _symbol_index gives it."""
    w = word_tuple(w)
    return tuple([_symbol_index(s, w) for s in w])


def _check_words(alphabet_size: int, words) -> list:
    """Raise SymbolTypeError if a word is no sequence; else ValueError for
    the first empty, out-of-range or duplicate word, or SymbolTypeError for
    a symbol that is not an integer index. Return index_word's words."""
    ws = list(map(word_tuple, words))
    seen = set()
    for w in ws:
        if not w:
            raise ValueError("empty word is not a valid dictionary member")
        for s in w:
            if not (0 <= _symbol_index(s, w) < alphabet_size):
                raise ValueError(
                    f"symbol {s} out of range for alphabet size {alphabet_size}"
                )
        if w in seen:
            raise ValueError(f"duplicate word {list(w)}")
        seen.add(w)
    return list(map(index_word, ws))


def frontier_budget_error(depth: int, max_words: int) -> ResourceBudgetError:
    return ResourceBudgetError(
        f"frontier at depth {depth} exceeds max_words={max_words}"
    )


def measure_sums(probs, lengths):
    """(mass, lbar, entropy) of words with probabilities probs (a list of
    floats, each >= 0.0) and lengths `lengths` (an iterable in the same
    order): the math.fsum of the P, of the P*|w| and of the -P*log2 P. A P
    of 0.0 (an underflow) adds 0*log2(0) = 0 to the entropy; a list with
    no 0.0 is taken as it is."""
    mass = math.fsum(probs)
    lbar = math.fsum(map(operator.mul, probs, lengths))
    pos = probs if all(probs) else [p for p in probs if p > 0.0]
    return mass, lbar, -math.fsum(map(operator.mul, pos, map(math.log2, pos)))


def exact_word_measures(words, source: SourceModel):
    """(mass, lbar, entropy) as exact finite sums over an explicit word set.

    A word probability that underflows to 0.0 adds 0*log2(0) = 0 to the
    entropy; every other term is summed as is.
    """
    probs = [source.word_prob(w) for w in words]
    return measure_sums(probs, map(len, words))


def word_levels(
    d: "Dictionary",
    source: SourceModel,
    width: int = 0,
    frontier: int | None = None,
    start: tuple | None = None,
):
    """Walk d's automaton one length at a time: yield
    (j, probs, live_probs, live_states, dead) for j = 1, 2, ... until no
    prefix of length j leads on. start = (i, live_probs, live_states), the
    live length-i prefixes as an earlier level left them, walks on from
    them instead of the start state: the levels run j = i + 1, ...

    Each level is parallel lists of bare floats and states. probs holds
    P(w) for the members w of length j; live_probs and live_states hold
    P(prefix) and the automaton state of each live length-j prefix, in the
    same order. A child's P is its parent's P times the symbol's
    probability (see the module docstring), so an edge costs one multiply
    and one append to the list it lands in. Every walk takes each state's
    listed entries, and a frontier walk also the symbols below width that
    the state does not list, to its default. A finite source that has every
    symbol of d's finite alphabet prices them from its probability tuple,
    indexed by symbol; any other pair from one dict of the listed symbols
    and those below width, built per walk, where a symbol that a finite
    source lacks has its probability under P, 0.0. The callers give a
    frontier walk the alphabet's width or a countable one's budget, and a
    member walk none; at other widths a finite frontier walk also takes
    listed symbols past the width, and a member walk skips those below it
    that a TO_WORD default covers.

    dead is empty unless a frontier budget is given. It then maps P to the
    number of DEAD length-j prefixes of that probability, so that the live
    prefixes and dead together are T_j. A dead prefix's subtree depends on
    its P alone, so each distinct P is expanded once per length: P*p_s for
    each symbol s, with the count carried over, and each DEAD edge out of a
    live prefix adds 1. Each P is the product a walk of that one prefix
    would reach, bit for bit: equal floats are the same number (a P is
    never -0.0).
    A sum over T_j takes c copies of a term as its exact sum c*x, which
    measures._powers splits into terms scaled by powers of two. The budget
    bounds |T_j|, the live prefixes plus the sum of the counts, not the
    entries walked, and a T_j larger than it raises ResourceBudgetError as
    soon as the prefixes counted so far exceed it, so at most one state's
    edges past it.
    """
    trans, defaults = d.transitions, d.defaults
    symbols = range(width)
    n = source.alphabet_size
    if d.alphabet_size is not None and n is not None and d.alphabet_size <= n:
        sp = source.probs
    else:
        sp = {s: 0.0 if n is not None and s >= n else source.symbol_prob(s)
              for s in itertools.chain(symbols, *trans)}
    j, rest_p, rest_q = start or (0, [1.0], [d.start])
    dead = {}
    while rest_p or dead:
        j += 1
        probs, nxt_p, nxt_q, nxt_dead = [], [], [], {}
        add_word, add_p, add_q = probs.append, nxt_p.append, nxt_q.append
        if frontier is not None:
            # |T_j| so far: the dead prefixes counted, then the live ones
            size = width * sum(dead.values())
            if size > frontier:
                raise frontier_budget_error(j, frontier)
        for p, q in zip(rest_p, rest_q):
            t = trans[q]
            for s, e in t.items():
                x = p * sp[s]
                if e < 0:  # a listed entry is a state or TO_WORD
                    add_word(x)
                else:
                    add_p(x)
                    add_q(e)
            if frontier is not None:
                for s in symbols:
                    if s not in t:  # to q's default
                        x = p * sp[s]
                        if defaults[q] == TO_WORD:
                            add_word(x)
                        else:
                            nxt_dead[x] = nxt_dead.get(x, 0) + 1
                            size += 1
                if size + len(nxt_p) > frontier:
                    raise frontier_budget_error(j, frontier)
        for p, c in dead.items():
            for s in symbols:
                x = p * sp[s]
                nxt_dead[x] = nxt_dead.get(x, 0) + c
        yield j, probs, nxt_p, nxt_q, nxt_dead
        rest_p, rest_q, dead = nxt_p, nxt_q, nxt_dead


def subtree_walk(d: "Dictionary", prefix: Word, entry: int, max_len: int, symbols,
                 frontier: bool = False):
    """(words, rest): the members of length <= max_len that extend prefix,
    whose automaton entry is `entry`, in canonical length-lex order, and
    the (word, state) of each length-max_len extension of prefix that leads
    on. The walk goes level by level and takes the symbols in `symbols`.
    A frontier walk keeps each DEAD extension in rest too, as its shortest
    dead prefix with state TO_DEAD, so rest lists T_max_len's subtrees in
    lexicographic order."""
    words = [prefix] if entry == TO_WORD else []
    rest = [(prefix, entry)] if entry >= 0 or frontier and entry == TO_DEAD else []
    for _ in range(max_len - len(prefix)):
        if not rest:
            break
        nxt = []
        for w, q in rest:
            if q == TO_DEAD:
                nxt.append((w, q))
                continue
            t, default = d.transitions[q], d.defaults[q]
            for s in symbols:
                e = t.get(s, default)
                if e == TO_WORD:
                    words.append(w + (s,))
                elif e >= 0 or frontier:
                    nxt.append((w + (s,), e))
        rest = nxt
    return words, rest


def _unlisted_runs(t: dict) -> list:
    """The (start, stop) runs, some empty, of the symbols a state with
    transitions t does not list; the last, (start, None), has no end."""
    bounds = [-1, *sorted(t), None]
    return [(a + 1, b) for a, b in zip(bounds, bounds[1:])]


def _run_sum(f, runs) -> float:
    """The fsum of f(start, stop) over the runs: a source's run sum."""
    return math.fsum([f(*run) for run in runs])


def _children_first(d: "Dictionary") -> list:
    """The states reachable from the start, each listed after every state
    it leads to. A self-loop is skipped; the families build no other
    cycle."""
    order, seen, stack = [], set(), [(d.start, False)]
    while stack:
        q, expanded = stack.pop()
        if expanded:
            order.append(q)
        elif q not in seen:
            seen.add(q)
            stack.append((q, True))
            stack.extend((e, False) for e in d.transitions[q].values() if e >= 0)
    return order


def _completion(d: "Dictionary", q: int, source: SourceModel, sums: dict):
    """(M, L, S) of state q: the sums of P(w), P(w)*|w| and -P(w)*log2 P(w)
    over the words w that complete a prefix at q, from those of the states
    it leads to and of the unlisted symbols' runs, the last with no end.
    Behind a self-loop of probability r, q's other words recur after any
    number of loop symbols: they scale by 1/(1 - r), and the loop symbols
    add m*r/(1 - r)^2 to the length and u*m/(1 - r)^2 to the surprisal, u
    being their -sum p*log2 p. At r >= 1 the factor has no bound: None.
    """
    t = d.transitions[q]
    m = l = s = r = u = 0.0
    for sym, e in t.items():
        p = source.symbol_prob(sym)
        if p == 0.0:  # underflow: 0 * log 0 = 0
            continue
        hp = -p * math.log2(p)
        if e == q:
            r += p
            u += hp
        else:
            cm, cl, cs = sums[e]  # sums[TO_WORD] is the empty word's
            m += p * cm
            l += p * (cm + cl)
            s += p * cs + hp * cm
    if r >= 1.0:
        return None
    if d.defaults[q] == TO_WORD:  # each symbol not listed ends a word
        runs = _unlisted_runs(t)
        dm, ds = _run_sum(source.mass_between, runs), _run_sum(source.surprisal_between, runs)
        m, l, s = m + dm, l + dm, s + ds
    g = 1.0 / (1.0 - r)
    return m * g, l * g + m * r * g * g, s * g + u * m * g * g


def check_members(d: "Dictionary", source: SourceModel, max_len: int) -> None:
    """Raise word_prob's error for the least member of length <= max_len
    with a symbol past a finite source's alphabet: d's must be wider."""
    k, n = d.alphabet_size, source.alphabet_size
    if k is not None and n is not None and k > n:
        for w in d.member_words(max_len):
            source.check_word(w)


def member_walk(d: "Dictionary", source: SourceModel, depth: int):
    """(levels, more): the first `depth` levels of a word_levels walk of d,
    and the walk on past them."""
    more = word_levels(d, source)
    return list(itertools.islice(more, depth)), more


def boundary(d: "Dictionary", source: SourceModel, levels, depth: int) -> float:
    """P(T_depth) from a member walk's first `depth` levels: the live
    prefixes at depth, and the mass that shorter prefixes send to TO_DEAD."""
    check_members(d, source, depth)
    k, n = d.alphabet_size, source.alphabet_size
    # the (probabilities, states) of the prefixes that lead on, by length
    inner = [([1.0], [d.start])] + [(ps, qs) for _, _, ps, qs, _ in levels]
    terms = inner[depth][0] if depth < len(inner) else []
    # a state that lists every symbol of a same-size source sends nothing to
    # TO_DEAD, so where every state does, none is scanned
    if not (k == n and min(map(len, d.transitions)) == k):
        dead = {
            q: _run_sum(source.mass_between, _unlisted_runs(t))
            for q, (t, default) in enumerate(zip(d.transitions, d.defaults))
            if default == TO_DEAD and not (k == n and len(t) == k)
        }
        if dead:
            terms = terms + [p * dead[q] for ps, qs in inner[:depth]
                             for p, q in zip(ps, qs) if q in dead]
    return min(1.0, math.fsum(terms))


class Dictionary:
    """Shared interface; the automaton is immutable after construction,
    and the dictionary is safe to share.

    Subclasses set the automaton (start, transitions, defaults) in their
    constructor; see the module docstring for its encoding. Every query
    below reads it. The only state that changes later is walk's count of
    symbols walked and its cached pattern and word texts, which never
    change a result.
    """

    alphabet_size: int | None = None
    start = 0
    transitions: list
    defaults: list
    # walk's pattern cache: None until compiled, False if too deep
    _pattern = None
    _walked = 0
    # walk's sorted phrase keys of a finite dictionary, built on first use
    _keys = None

    def next_entry(self, state: int, sym: int) -> int:
        """Automaton entry reached from internal `state` on `sym`."""
        if sym < 0:
            return TO_DEAD
        return self.transitions[state].get(sym, self.defaults[state])

    def entry_after(self, word: Word) -> int:
        """Automaton entry after reading `word` from the start state."""
        entry = self.start
        for s in word:
            if entry < 0:
                return TO_DEAD
            entry = self.next_entry(entry, s)
        return entry

    def classify(self, word: Word) -> int:
        entry = self.entry_after(word)
        return INTERNAL if entry >= 0 else -entry

    def member_words(self, max_len: int, max_symbol: int | None = None) -> list:
        """All members of length <= max_len (symbols < max_symbol when the
        alphabet is countable), in canonical length-lex order."""
        symbols = range(self.member_width(max_symbol))
        return subtree_walk(self, (), self.start, max_len, symbols)[0]

    def fully_enumerated(self, max_len: int, max_symbol: int | None = None) -> bool:
        """True iff member_words(max_len, max_symbol) is the whole dictionary."""
        longest = None if self.alphabet_size is None else self.max_word_length()
        return longest is not None and max_len >= longest

    def max_word_length(self) -> int | None:
        """The length of the longest member, or None if a reachable
        self-loop makes members of every length."""
        longest = {}
        for q in _children_first(self):
            entries = self.transitions[q].values()
            if q in entries:
                return None
            longest[q] = 1 + max((longest[e] for e in entries if e >= 0), default=0)
        return longest[self.start]

    def boundary_mass(self, depth: int, source: SourceModel) -> float:
        """P(T_depth): mass of length-`depth` strings with no member prefix."""
        depth = max(depth, 0)
        return boundary(self, source, member_walk(self, source, depth)[0], depth)

    def completion_sums(self, source: SourceModel):
        """(mass, lbar, entropy) of the whole dictionary: the start state's
        completion sums. None where a reachable self-loop has probability
        1, so lbar(D) diverges."""
        sums = {TO_WORD: (1.0, 0.0, 0.0)}
        for q in _children_first(self):
            sums[q] = _completion(self, q, source, sums)
            if sums[q] is None:
                return None
        return sums[self.start]

    def member_width(self, max_symbol: int | None) -> int:
        """The symbols member_words(..., max_symbol) runs over: range of the
        result. Raises ResourceBudgetError where member_words would."""
        return self._width_for(max_symbol)

    def _width_for(self, max_symbol: int | None) -> int:
        if self.alphabet_size is not None:
            return self.alphabet_size
        if max_symbol is None:
            raise ResourceBudgetError(
                "width budget required to enumerate over a countable alphabet"
            )
        if max_symbol < 1:
            raise ValueError("width budget must be >= 1")
        return max_symbol


class FiniteDictionary(Dictionary):
    """Explicit prefix-free word set over a finite alphabet of size k."""

    def __init__(self, alphabet_size: int, words):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        ws = words = reiterable(words)
        if not words:
            raise ValueError("dictionary needs at least one word")
        # A word that is no sequence, or an empty, out-of-range or duplicate
        # one, fails a check below; only then are the words walked again.
        try:
            ws = [tuple(w) for w in words]
            symbols = set().union(*ws)
            valid = (
                all(ws)
                and len(set(ws)) == len(ws)
                and all(type(s) is int for s in symbols)
                and 0 <= min(symbols)
                and max(symbols) < alphabet_size
            )
        except TypeError:
            valid = False
        if not valid:
            ws = _check_words(alphabet_size, ws)
        words = sort_words(ws)
        # Trie states in canonical order: a shorter word comes first, so a
        # path that meets TO_WORD is the only way to break prefix-freeness.
        trans = [{}]
        for w in words:
            q = 0
            for s in w[:-1]:
                nxt = trans[q].get(s)
                if nxt is None:
                    nxt = trans[q][s] = len(trans)
                    trans.append({})
                elif nxt == TO_WORD:
                    raise ImproperDictionaryError(*find_prefix_violation(ws))
                q = nxt
            trans[q][w[-1]] = TO_WORD
        self._finish(alphabet_size, trans, tuple(words))

    @classmethod
    def _from_trie(cls, alphabet_size: int, trans: list):
        """The dictionary of a trie proper by construction, unchecked."""
        d = cls.__new__(cls)
        d._finish(alphabet_size, trans)
        return d

    def _finish(self, alphabet_size, trans, words=None):
        """Keep the trie and its words, read off it when not given."""
        self.alphabet_size = alphabet_size
        self.transitions = trans
        self.defaults = [TO_DEAD] * len(trans)
        if words is None:
            # a trie is no deeper than its number of states
            symbols = range(alphabet_size)
            words = tuple(subtree_walk(self, (), self.start, len(trans), symbols)[0])
        self.words = words

    def __repr__(self):
        return f"FiniteDictionary(k={self.alphabet_size}, words={len(self.words)})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteDictionary)
            and self.alphabet_size == other.alphabet_size
            and self.words == other.words
        )

    def __hash__(self):
        return hash((self.alphabet_size, self.words))

    def member_words(self, max_len, max_symbol=None):
        return [w for w in self.words if len(w) <= max_len]

    def max_word_length(self):
        return len(self.words[-1])  # canonical order puts a longest word last

    def is_complete(self) -> bool:
        """Complete iff every internal state has a transition on each of
        the k symbols (every trie state is reachable)."""
        k = self.alphabet_size
        return all(len(t) == k for t in self.transitions)


def _any_symbol_state(alphabet_size: int | None):
    """(transitions, default) of a state where every symbol ends a word."""
    if alphabet_size is None:
        return {}, TO_WORD
    return dict.fromkeys(range(alphabet_size), TO_WORD), TO_DEAD


class AlphabetDictionary(Dictionary):
    """D = A: every single symbol is a word. Countable when k is None."""

    def __init__(self, alphabet_size: int | None = None):
        if alphabet_size is not None and alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        self.alphabet_size = alphabet_size
        trans, default = _any_symbol_state(alphabet_size)
        self.transitions = [trans]
        self.defaults = [default]

    def __repr__(self):
        return f"AlphabetDictionary(k={self.alphabet_size})"


class RunLengthDictionary(Dictionary):
    """Binary family {0, 10, 110, 1110, ...}: a run of ones ended by a zero.

    Proper; ASC over any binary source but never complete (the all-one
    sequence has no member prefix).
    """

    alphabet_size = 2

    def __init__(self):
        # one state: a one loops back, a zero ends the word
        self.transitions = [{1: 0, 0: TO_WORD}]
        self.defaults = [TO_DEAD]

    def __repr__(self):
        return "RunLengthDictionary()"


class ExtendedDictionary(Dictionary):
    """D[alpha] = (D \\ {alpha}) u alpha*A, materialized lazily.

    Used when the base or the alphabet cannot be materialized (infinite
    families, countable alphabets). Its automaton is the base's plus
    copies of the states along alpha, so every query of the base class
    applies to it unchanged.
    """

    def __init__(self, base: Dictionary, alpha):
        alpha = tuple(alpha)
        if base.classify(alpha) != WORD:
            raise ValueError(f"extension word {list(alpha)} is not in the dictionary")
        self.base = base
        self.alpha = alpha
        self.alphabet_size = base.alphabet_size
        # The base's states, then fresh copies of the states along alpha
        # that step on alpha's next symbol to the next copy, then a state
        # where any symbol ends a word. Leaving alpha's path rejoins the
        # base, so self-loops and nested extensions need no special case.
        trans = list(base.transitions)
        defaults = list(base.defaults)
        q = base.start
        for s in alpha:
            t = dict(base.transitions[q])
            t[s] = len(trans) + 1
            trans.append(t)
            defaults.append(base.defaults[q])
            q = base.next_entry(q, s)
        t, default = _any_symbol_state(self.alphabet_size)
        trans.append(t)
        defaults.append(default)
        self.start = len(base.transitions)
        self.transitions = trans
        self.defaults = defaults

    def __repr__(self):
        return f"ExtendedDictionary({self.base!r}, alpha={list(self.alpha)})"

    def member_width(self, max_symbol):
        w = self._width_for(max_symbol)
        if self.alphabet_size is None and max(self.alpha) >= w:
            raise ResourceBudgetError(
                f"width budget {w} does not cover extension word "
                f"{list(self.alpha)}"
            )
        self.base.member_width(max_symbol)  # a nested extension's word
        return w


def head_extension(head: int = 0) -> ExtendedDictionary:
    """(A \\ {head}) u head*A over the countable alphabet.

    Equals extending the alphabet dictionary at the single-symbol word
    (head,); proper and complete over any source.
    """
    if head < 0:
        raise ValueError("head symbol must be a non-negative index")
    return ExtendedDictionary(AlphabetDictionary(None), (head,))


def parse(d: Dictionary, stream):
    """Greedy unique segmentation of a finite symbol stream.

    Returns (phrases, remainder): properness makes each match unique; the
    remainder is the trailing suffix that matches no word, and absorbs
    everything from the first position where no member can ever match.
    Phrases and remainder are tuples of the stream's own symbols.
    """
    seq = reiterable(stream)
    phrases, begin, _ = walk(d, seq)
    ends = list(itertools.accumulate(map(len, phrases), initial=0))
    return [tuple(seq[i:j]) for i, j in zip(ends, ends[1:])], tuple(seq[begin:])


def walk(d: Dictionary, seq):
    """The automaton walk behind parse, encode and the sampler:
    (phrases, begin, dead). decode reads codewords with the same compiled
    pattern rule (_word_pattern) over its code trie.

    phrases are the words read greedily from seq (a list or tuple of ints,
    or a 1-D numpy integer array), each as its phrase_key; begin is where
    the pending phrase starts, and dead is the index of the symbol that
    made it DEAD (the walk stops there), or -1 if the walk read all of
    seq. Once d has a compiled pattern, re.findall reads the phrases of
    seq's text; before that, a FiniteDictionary bisects its sorted word
    texts for each phrase while they stay long (_bisect_phrases). The loop
    below walks only what follows either (see the module docstring).
    """
    text = symbol_text(seq)
    pattern = _word_pattern(d, len(seq))
    if pattern:
        phrases = pattern.findall(text)
        # the last match is a word or the text from which no word matches;
        # the loop walks it again either way
        first = begin = len(text) - len(phrases.pop()) if phrases else 0
    else:
        phrases = []
        keys = _word_keys(d)
        first = begin = _bisect_phrases(keys, d.max_word_length(), text, phrases) if keys else 0
    rest = seq[first:]
    if not isinstance(rest, (list, tuple)):
        rest = rest.tolist()
    trans, defaults, start = d.transitions, d.defaults, d.start
    n_text = len(text)
    state = start
    for i, sym in enumerate(rest, first):
        # inlined next_entry: a default only ever leads to WORD or DEAD,
        # so the sign test can wait until the walk leaves the states
        state = trans[state].get(sym, defaults[state])
        if state < 0:
            if state == TO_DEAD or sym < 0:
                return phrases, begin, i
            end = i + 1
            if end <= n_text:
                phrases.append(text[begin:end])
            else:
                phrases.append(phrase_key(rest[begin - first : end - first]))
            begin = end
            state = start
    return phrases, begin, -1


def _word_keys(d: Dictionary):
    """The sorted phrase keys of a FiniteDictionary's words that are texts,
    cached on d; None for a lazy family."""
    keys = d._keys
    if keys is None and isinstance(d, FiniteDictionary):
        keys = list(map(symbol_text, d.words))
        if d.alphabet_size > MAX_CODE_POINT + 1:
            # a word with a symbol past the code points is not a text
            keys = [k for k, w in zip(keys, d.words) if len(k) == len(w)]
        keys.sort()
        d._keys = keys
    return keys


def _bisect_phrases(keys, longest: int, text: str, phrases: list) -> int:
    """Append the greedy phrases of text, from its start, to phrases, one
    bisect per phrase; return where the automaton loop takes over.

    keys are the sorted texts of a prefix-free word set, none longer than
    longest. The one word that prefixes s = text[pos:pos + longest] is the
    last key <= s, when s starts with it: a key between that word and s
    would have it as a prefix. Index -1 wraps to the last key, which s
    then does not start with. The walk stops where no word matches, and
    once the mean phrase read falls below BISECT_MIN_MEAN symbols, checked
    every BISECT_BLOCK phrases, since the loop walks short phrases faster.
    """
    append = phrases.append
    pos = 0
    while True:
        for _ in range(BISECT_BLOCK):
            s = text[pos : pos + longest]
            w = keys[bisect_right(keys, s) - 1]
            if not s.startswith(w):
                return pos
            append(w)
            pos += len(w)
        if pos < BISECT_MIN_MEAN * len(phrases):
            return pos


def phrase_key(word):
    """How walk lists a word: its text (chr of each symbol), or the word as
    a tuple when a symbol is not a code point. Each word has one key."""
    try:
        return "".join(map(chr, word))
    except (TypeError, ValueError, OverflowError):
        return tuple(word)


def phrase_word(key) -> Word:
    """The word, as a tuple of ints, that phrase_key maps to key."""
    return tuple(map(ord, key)) if isinstance(key, str) else key


def symbol_text(seq) -> str:
    """The text of seq's longest prefix of code points: chr(s) per symbol.

    seq is a list or tuple, or a 1-D numpy array. The text stops before
    the first symbol that is negative, above MAX_CODE_POINT or not an int.
    Symbols below 256 go through a bytearray (a uint8 array for numpy),
    larger ones through chr one at a time, and surrogate code points are
    kept.
    """
    if hasattr(seq, "dtype"):
        small = seq.dtype == "u1" or (
            seq.dtype.kind in "iu" and (not len(seq) or (seq.min() >= 0 and seq.max() <= 255))
        )
        if not small:
            return symbol_text(seq.tolist())
        return seq.astype("u1", copy=False).tobytes().decode("latin-1")
    try:
        return bytearray(seq).decode("latin-1")  # faster than bytes on a list
    except (TypeError, ValueError):
        pass
    n = 0
    for sym in seq:
        try:
            chr(sym)
        except (TypeError, ValueError, OverflowError):
            break
        n += 1
    return "".join(map(chr, seq[:n]))


def _word_pattern(d: Dictionary, n: int):
    """walk's compiled pattern for d, or None while the loop walks alone.

    n is the length of the stream being walked; it counts towards the
    COMPILE_SYMBOLS_PER_STATE threshold before anything is compiled.
    """
    pattern = d._pattern
    if pattern is None:
        d._walked += n
        if d._walked < COMPILE_SYMBOLS_PER_STATE * len(d.transitions):
            return None
        # where no word matches, the second branch takes the rest of the
        # text, so findall skips nothing
        try:
            source = pattern_source(d)
            pattern = source is not None and re.compile(source + r"|[\s\S]+")
        except RecursionError:  # the builder or re's parser ran out of stack below the bound
            pattern = False
        d._pattern = pattern
    return pattern or None


def pattern_source(d: Dictionary) -> str | None:
    """A regular expression that matches exactly d's words, or None if its
    groups would nest deeper than MAX_PATTERN_DEPTH.

    State q becomes a group that alternates over its transitions: chr(s)
    alone for one that ends a word, chr(s) followed by the next state's
    group for one that leads on, and a class of every symbol q does not
    list when q's default ends a word. Symbols that loop back to q become a
    [S]* prefix of the group. Self-loops are the only cycles the families
    build; any other cycle would expand past the depth bound. Symbols that
    are not code points never occur in a text and are left out. The
    builder recurses once per group, no deeper than re's parser does.
    """

    def group(q, depth):
        if depth > MAX_PATTERN_DEPTH:
            return None
        trans = d.transitions[q]
        chars = {s: re.escape(chr(s)) for s in trans if s <= MAX_CODE_POINT}
        loop = "".join(c for s, c in chars.items() if trans[s] == q)
        alts = []
        for s, c in chars.items():
            entry = trans[s]
            if entry == TO_WORD:
                alts.append(c)
            elif entry >= 0 and entry != q:
                inner = group(entry, depth + 1)  # no comprehension: one frame per group
                if inner is None:
                    return None
                alts.append(c + inner)
        if d.defaults[q] == TO_WORD:
            named = "".join(chars.values())
            alts.append(f"[^{named}]" if named else r"[\s\S]")
        star = f"[{loop}]*" if loop else ""
        return f"{star}(?:{'|'.join(alts) or '(?!)'})"

    return group(d.start, 1)


def is_proper(d) -> bool:
    """True iff no member word is a strict prefix of another.

    Every Dictionary is proper: a walk stops at the first prefix that ends
    a word, so no member continues another. A raw iterable of words is
    checked in full.
    """
    return isinstance(d, Dictionary) or find_prefix_violation(d) is None


def is_complete(d, alphabet_size: int | None = None) -> bool:
    """Exact completeness decision for finite dictionaries over finite k.

    Equivalent to full branching of every internal trie node. Not finitely
    decidable for lazy families or countable alphabets; use is_asc there.
    """
    if not isinstance(d, FiniteDictionary):
        raise UnsupportedOperationError(
            "completeness is only decidable for finite dictionaries over a "
            "finite alphabet; use is_asc for lazy families"
        )
    if alphabet_size is not None and alphabet_size != d.alphabet_size:
        raise ValueError(
            f"alphabet size {alphabet_size} does not match dictionary "
            f"({d.alphabet_size})"
        )
    return d.is_complete()


@dataclass(frozen=True)
class AscVerdict:
    """Numeric certification of almost-sure completeness.

    certified_asc requires residual_mass < the tolerance passed in;
    undetermined carries the residual so callers can deepen the budget.
    """

    status: str
    depth_used: int
    residual_mass: float

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED_ASC


def check_asc_budget(depth_budget: int, tol: float) -> None:
    """Raise ValueError unless depth_budget >= 1 and tol is a positive,
    finite float: the arguments an ASC certificate takes."""
    if depth_budget < 1:
        raise ValueError("depth budget must be >= 1")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")


def asc_verdict(residual_mass: float, depth_budget: int, tol: float) -> AscVerdict:
    """The certificate for P(T_depth_budget) = residual_mass: certified_asc
    if it is below tol, else undetermined."""
    status = CERTIFIED_ASC if residual_mass < tol else UNDETERMINED
    return AscVerdict(status=status, depth_used=depth_budget,
                      residual_mass=residual_mass)


def is_asc(
    d: Dictionary,
    source: SourceModel,
    depth_budget: int = 64,
    tol: float = 1e-9,
) -> AscVerdict:
    """Certify P(T_n) < tol at n = depth_budget, or report the residual.

    P(T_n) is d.boundary_mass: the mass of the live length-n prefixes and
    of the shorter ones that no member can complete, summed from the
    automaton walk. check_asc_budget's ValueError comes before the walk.
    """
    check_asc_budget(depth_budget, tol)
    return asc_verdict(d.boundary_mass(depth_budget, source), depth_budget, tol)
