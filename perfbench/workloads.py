"""Inputs, set-up, measured cases and correctness oracles of the benchmark.

Every input comes from the run's seed. One measured case feeds one
end-to-end metric; ``Case.group`` names its group of cases (``codec``,
``montecarlo``, ``certify``), which selects the traced runs it belongs to
(see README.md for why each group and workload exists). A case's ``run``
is the timed part; ``check`` runs untimed afterwards and returns one
``(operation, error or None)`` pair per operation it checked.

Sizes are the ROADMAP baseline cases scaled down so that a round of every
case takes well under a second and each case is timed many times across
a run; ``scale`` shrinks them further for the smoke test. Seed 42
additionally replays the frozen full-size fixtures of
``tests/test_acceptance.py`` once (``pinned_checks``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import vvcode
from vvcode import cli
from vvcode.rng import stream_seed

CODEC_SYMBOLS = 40_000
MC_PHRASES = 6_144  # chunk 0 and half of chunk 1
CORPUS_COST = 30_000  # truncation_cost summed over the corpus
DICT_FIXED_COST = 130
TRUNC_M_MAX = 13
TUNSTALL_SIZE = 4096  # verified dictionary: words run past depth 64
BUILD_SIZE = 1024  # tunstall_codebook_s
SCAN_M_MAX = 24  # on Tunstall-256
CHUNK_PHRASES = 4096  # phrases per RNG sub-stream, fixed by simulation's spec
TOL = 1e-9

PINNED_SEED = 42
PINNED_SYMBOLS = 10**6
PINNED_PHRASES = 10**6
# Frozen values from tests/test_acceptance.py (seed 42).
FROZEN_RATE_256 = 0.4709811227545958
FROZEN_SIM_COMPLETE = {
    "total_symbols": 1_500_066,
    "entropy": 1.5000657983996475,
    "stderr": 0.0005000002456441857,
    "top_counts": {(0,): 499_934, (1, 0): 250_214, (1, 1): 249_852},
}
FROZEN_SIM_RL = {"total_symbols": 1_999_176, "entropy": 1.9991614276541534}
FROZEN_HIST_RL_BIASED = {"count0": 899_708, "p_value": 0.056734472576079824}
# Pinned from the program as it stood when the benchmark was written.
PINNED_ENCODE_SHA256 = (
    "ba672b58cef36a8b12d2f2c0ccd4595bde7607882bbb9a5b4148e6d18f4f7144"
)
PINNED_BRACKETS = {  # Tunstall-4096 over [0.9, 0.1]: H(D) and lbar brackets
    64: (11.595436165576878, 11.595436165576878,
         24.72397677947371, 24.72397677947371),
    512: (11.595436165576876, 11.595436165576876,
          24.723976779473713, 24.723976779473713),
}

# Inputs that are known to fail today (ROADMAP item 5). They run every
# round and their outcomes are tallied, outside the pass/fail count.
DEFECT_GEOMETRIC_P = 0.999999


@dataclass
class Case:
    metric: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], list]
    million_units: float | None = None  # rate metrics: value = units / seconds


def _canon(word):
    return (len(word), word)


def _words_json(words):
    return [list(w) for w in words]


# -- seeded inputs ----------------------------------------------------------


def random_words(rng: random.Random, max_depth: int = 8) -> list:
    """Random proper binary word set grown as a trie.

    Each edge becomes a word, an internal node or stays absent; absent
    edges are dead zones, so about half of the sets are not complete.
    """
    words = []

    def grow(prefix):
        for s in (0, 1):
            r = rng.random()
            if len(prefix) + 1 >= max_depth:
                if r < 0.85:
                    words.append(prefix + (s,))
            elif r < 0.45:
                words.append(prefix + (s,))
            elif r < 0.85:
                grow(prefix + (s,))

    while not words:
        grow(())
    return words


def truncation_cost(words, m_max: int = TRUNC_M_MAX) -> int:
    """Work of checking the truncation identity for m <= m_max, in units.

    The frontier DFS for D_m visits every uncovered string of length <= m,
    so truncation m costs about sum_{j <= m} |T_j| and the whole check
    sum_j (m_max + 1 - j) |T_j|, plus a fixed share per dictionary. For a
    prefix-free binary set |T_j| = 2^j - sum 2^(j - |w|) over members with
    |w| <= j. The fixed share was fitted on this benchmark's cases.
    """
    cost = DICT_FIXED_COST
    for j in range(1, m_max + 1):
        t_j = 2**j - sum(2 ** (j - len(w)) for w in words if len(w) <= j)
        cost += (m_max + 1 - j) * t_j
    return cost


def is_complete_words(words) -> bool:
    top = max(len(w) for w in words)
    return sum(2 ** (top - len(w)) for w in words) == 2**top


def tunstall_ordered(words, p0) -> bool:
    """The Tunstall property of a binary dictionary: no word is more
    probable than any proper prefix (an expanded node) of any word."""
    def prob(w):
        return p0 ** w.count(0) * (1.0 - p0) ** w.count(1)

    inner = {w[:i] for w in words for i in range(len(w))}
    return max(map(prob, words)) <= min(map(prob, inner)) * (1.0 + TOL)


def make_corpus(seed: int, budget: int) -> list:
    """Random dictionaries whose total truncation cost fills the budget.

    Sizing by cost instead of by count keeps the work of a corpus steady
    across seeds: a set is taken only if it fits in what is left of the
    budget, give or take one percent, so the total lands within one
    percent of it (within one fixed share on a budget too small for
    that). A set costing more than a quarter of the budget is skipped, so
    no single dead zone dominates. Complete and non-complete sets are both
    required; once the budget is full only a missing kind is taken.
    """
    rng = random.Random(seed)
    # at least one fixed share, so that the cheapest set, {0, 1}, fits
    slack = max(budget // 100, DICT_FIXED_COST)
    cap = max(budget // 4, 4 * DICT_FIXED_COST)
    corpus, total = [], 0
    kinds = set()
    while budget - total > slack or len(kinds) < 2:
        words = random_words(rng)
        cost = truncation_cost(words)
        complete = is_complete_words(words)
        if cost > cap:
            continue
        if budget - total > slack:
            if cost > budget - total + slack:
                continue
        elif complete in kinds:
            continue
        corpus.append(words)
        total += cost
        kinds.add(complete)
    return corpus


# -- independent oracles ----------------------------------------------------


def reference_encode(words_codes: dict, alphabet_size: int, stream) -> bytes:
    """The codec's bitstream layout, written out from its specification.

    Greedy parse by prefix lookup, then magic byte, LEB128 phrase count,
    MSB-first codewords, LEB128 remainder length, remainder symbols at
    ceil(log2 k) bits each, zero padding.
    """
    prefixes = {w[:i] for w in words_codes for i in range(1, len(w))}
    codes, cur, start = [], (), 0
    for i, s in enumerate(stream):
        cur += (s,)
        if cur in words_codes:
            codes.append(words_codes[cur])
            cur, start = (), i + 1
        elif cur not in prefixes:
            break
    remainder = stream[start:]

    def varint(v):
        out = []
        while v >= 0x80:
            out.append(format((v & 0x7F) | 0x80, "08b"))
            v >>= 7
        out.append(format(v, "08b"))
        return "".join(out)

    width = (alphabet_size - 1).bit_length()
    bits = ["01010110", varint(len(codes)), "".join(codes), varint(len(remainder))]
    if width:
        bits.extend(format(s, f"0{width}b") for s in remainder)
    text = "".join(bits)
    text += "0" * (-len(text) % 8)
    return int(text, 2).to_bytes(len(text) // 8, "big") if text else b""


def chunk_reference(d, source, n_phrases, seed, lbar_hint):
    """Phrase counts of a simulation, rebuilt chunk by chunk.

    Chunk c holds phrases [c*4096, (c+1)*4096) and draws from sub-stream
    stream_seed(seed, c), so its phrases are the first ones of
    parse(d, sample_stream(stream_seed(seed, c), L)).
    """
    counts = Counter()
    for c in range(-(-n_phrases // CHUNK_PHRASES)):
        size = min(CHUNK_PHRASES, n_phrases - c * CHUNK_PHRASES)
        length = int(size * lbar_hint * 1.25) + 64
        while True:
            stream = source.sample_stream(stream_seed(seed, c), length)
            phrases, _ = vvcode.parse(d, stream)
            if len(phrases) >= size:
                break
            length *= 2
        counts.update(phrases[:size])
    return counts


def _entropy_of_counts(counts, n):
    return -math.fsum(
        (c / n) * math.log2(c / n)
        for _, c in sorted(counts.items(), key=lambda kv: _canon(kv[0]))
    )


def exact_measures(words, p0):
    """(H(D), lbar(D)) of a finite binary dictionary, summed independently."""
    probs = [p0 ** w.count(0) * (1.0 - p0) ** w.count(1) for w in words]
    h = -math.fsum(p * math.log2(p) for p in probs)
    lbar = math.fsum(p * len(w) for p, w in zip(probs, words))
    return h, lbar


# -- checks -----------------------------------------------------------------


def _expect(errors, label, ok, message):
    errors.append((label, None if ok else message))


def check_sim_report(rep, counts, n, label):
    total = sum(len(w) * c for w, c in counts.items())
    top = sorted(counts.items(), key=lambda kv: (-kv[1], _canon(kv[0])))[:5]
    problems = []
    if rep.n_phrases != n:
        problems.append(f"n_phrases {rep.n_phrases} != {n}")
    if rep.total_symbols != total:
        problems.append(f"total_symbols {rep.total_symbols} != {total}")
    if rep.empirical_lbar != rep.total_symbols / n:
        problems.append("empirical_lbar != total_symbols / n")
    if [(w, c) for w, c, _ in rep.top_phrases] != top:
        problems.append("top phrases differ from the chunk reference")
    if abs(rep.empirical_entropy - _entropy_of_counts(counts, n)) > 1e-12:
        problems.append("empirical entropy differs from the chunk reference")
    return [(label, "; ".join(problems) or None)]


def check_histogram_entries(entries, counts, n, label):
    want = sorted(counts.items(), key=lambda kv: _canon(kv[0]))
    ok = list(entries) == want and sum(c for _, c in entries) == n
    return [(label, None if ok else "histogram differs from the chunk reference")]


def check_brackets(rep, ref_h, ref_lbar, label, verdicts):
    problems = []
    if rep.verdict not in verdicts:
        problems.append(f"verdict {rep.verdict} not in {verdicts}")
    if not rep.h_d_low - TOL <= ref_h <= rep.h_d_high + TOL:
        problems.append(f"H(D) {ref_h} outside [{rep.h_d_low}, {rep.h_d_high}]")
    if not rep.lbar_low - TOL <= ref_lbar <= rep.lbar_high + TOL:
        problems.append(f"lbar {ref_lbar} outside [{rep.lbar_low}, {rep.lbar_high}]")
    return [(label, "; ".join(problems) or None)]


# -- the benchmark ----------------------------------------------------------


class Bench:
    """Seeded inputs, set-up and cases for one run."""

    def __init__(self, seed: int, scale: float, workdir):
        self.seed = seed
        self.n_codec = max(256, round(CODEC_SYMBOLS * scale))
        self.n_mc = max(64, round(MC_PHRASES * scale))
        self.tunstall_size = max(64, round(TUNSTALL_SIZE * scale))
        self.build_size = max(64, round(BUILD_SIZE * scale))
        self.corpus_words = make_corpus(seed, max(1000, round(CORPUS_COST * scale)))
        self.workdir = workdir
        self.stream = vvcode.SourceModel.finite([0.9, 0.1]).sample_stream(
            seed, self.n_codec
        )
        self.defects = {}

    def setup(self):
        """Program calls that build every source, dictionary and codebook."""
        v = vvcode
        fair = v.SourceModel.fair_bit()
        biased = v.SourceModel.finite([0.9, 0.1])
        d256 = v.tunstall_build(biased, 256)
        return SimpleNamespace(
            fair=fair,
            biased=biased,
            geometric=v.SourceModel.geometric(0.5),
            d256=d256,
            cb256=v.huffman_build([(w, biased.word_prob(w)) for w in d256.words]),
            c3=v.FiniteDictionary(2, [(0,), (1, 0), (1, 1)]),
            rl=v.RunLengthDictionary(),
            he=v.head_extension(0),
            corpus=[v.FiniteDictionary(2, ws) for ws in self.corpus_words],
            small_tunstall=v.tunstall_build(biased, self.build_size),
            tunstall=v.tunstall_build(biased, self.tunstall_size),
        )

    def prepare(self, o):
        """Untimed: reference outputs and the CLI's input files."""
        self.o = o
        self.ref_bytes = reference_encode(
            dict(zip(o.cb256.phrases, o.cb256.codewords)), 2, self.stream
        )
        n, s = self.n_mc, self.seed
        self.ref_c3 = chunk_reference(o.c3, o.fair, n, s, 1.5)
        self.ref_rl = chunk_reference(o.rl, o.fair, n, s, 2.0)
        self.ref_he = chunk_reference(o.he, o.geometric, n, s, 1.5)
        self.ref_rl_biased = chunk_reference(o.rl, o.biased, n, s, 10 / 9)
        self.ref_tunstall = exact_measures(o.tunstall.words, 0.9)
        self.ref_small_tunstall = exact_measures(o.small_tunstall.words, 0.9)

        w = self.workdir
        self.paths = {name: str(w / name) for name in (
            "d256.json", "cb256.json", "stream.txt", "enc.bin", "dec.txt",
            "c3.json", "fair.json", "sim.json")}
        files = {
            "d256.json": {"kind": "finite", "alphabet_size": 2,
                          "words": _words_json(o.d256.words)},
            "cb256.json": {"phrases": _words_json(o.cb256.phrases),
                           "codewords": list(o.cb256.codewords)},
            "c3.json": {"kind": "finite", "alphabet_size": 2,
                        "words": _words_json(o.c3.words)},
            "fair.json": {"kind": "finite", "probs": [0.5, 0.5]},
        }
        for name, obj in files.items():
            with open(self.paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        with open(self.paths["stream.txt"], "w", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, self.stream)) + "\n")

    def tally_defect(self, label, outcome):
        self.defects.setdefault(label, Counter())[outcome] += 1

    # -- cases ----------------------------------------------------------

    def cases(self):
        o, v, p = self.o, vvcode, self.paths
        n, seed = self.n_mc, self.seed
        codec_args = ["--dict", p["d256.json"], "--codebook", p["cb256.json"]]

        def cli_roundtrip():
            rc1 = cli.main(["encode", *codec_args, "--in", p["stream.txt"],
                            "--out", p["enc.bin"]])
            rc2 = cli.main(["decode", *codec_args, "--in", p["enc.bin"],
                            "--out", p["dec.txt"]])
            return rc1, rc2

        def check_cli_roundtrip(rcs):
            with open(p["enc.bin"], "rb") as fh:
                enc = fh.read()
            with open(p["dec.txt"], encoding="utf-8") as fh:
                dec = [int(t) for t in fh.read().split()]
            return [
                ("cli encode", None if rcs[0] == 0 and enc == self.ref_bytes
                 else f"exit {rcs[0]} or bytes differ from the reference encoding"),
                ("cli decode", None if rcs[1] == 0 and dec == self.stream
                 else f"exit {rcs[1]} or output differs from the input stream"),
            ]

        def cli_simulate():
            return cli.main(["simulate", "--dict", p["c3.json"], "--source",
                             p["fair.json"], "-n", str(n), "--seed", str(seed),
                             "--histogram", "--out", p["sim.json"]])

        def check_cli_simulate(rc):
            if rc != 0:
                return [("cli simulate --histogram", f"exit {rc}")]
            with open(p["sim.json"], encoding="utf-8") as fh:
                result = json.load(fh)["result"]
            sim, hist = result["sim"], result["histogram"]
            want_total = sum(len(w) * c for w, c in self.ref_c3.items())
            entries = [(tuple(e["word"]), e["count"]) for e in hist["entries"]]
            out = check_histogram_entries(entries, self.ref_c3, n,
                                          "cli simulate --histogram: histogram")
            ok = sim["n_phrases"] == n and sim["total_symbols"] == want_total
            out.append(("cli simulate --histogram: sim",
                        None if ok else "sim report differs from the chunk reference"))
            return out

        def truncation_corpus():
            return [v.check_truncation_identity(d, s, TRUNC_M_MAX)
                    for d in o.corpus for s in (o.fair, o.biased)]

        def check_truncation(reports):
            out = []
            for i, rep in enumerate(reports):
                ok = (len(rep.rows) == TRUNC_M_MAX and rep.all_ok
                      and all(r.ok and abs(r.mass - 1.0) <= TOL for r in rep.rows))
                out.append((f"truncation identity #{i}",
                            None if ok else "a row is not ok or D_m mass != 1"))
            return out

        def tunstall_codebook():
            d = v.tunstall_build(o.biased, self.build_size)
            return d, v.huffman_build([(w, o.biased.word_prob(w)) for w in d.words])

        def check_tunstall(built):
            d, cb = built
            h, _ = self.ref_small_tunstall
            top = max(len(c) for c in cb.codewords)
            expected_len = cb.expected_length(o.biased)
            ok = (d.words == o.small_tunstall.words
                  and len(d.words) == self.build_size
                  and is_complete_words(d.words)
                  and tunstall_ordered(d.words, 0.9)
                  and set(cb.phrases) == set(d.words)
                  and sum(2 ** (top - len(c)) for c in cb.codewords) == 2**top
                  and h - TOL <= expected_len < h + 1.0)
            return [("tunstall + huffman", None if ok else
                     "dictionary or codebook is not the complete optimal one")]

        def verify():
            return (v.check_conservation(o.tunstall, o.biased, 64),
                    v.check_conservation(o.tunstall, o.biased, 512))

        def check_verify(reports):
            r64, r512 = reports
            h, lbar = self.ref_tunstall
            self.tally_defect(f"verify tunstall-{self.tunstall_size} depth 64",
                              r64.verdict)
            self._defect_probe()
            return (check_brackets(r64, h, lbar, "verify depth 64",
                                   ("inconclusive", "pass"))
                    + check_brackets(r512, h, lbar, "verify depth 512", ("pass",)))

        def scan():
            return v.convergence_scan(o.d256, o.biased, SCAN_M_MAX)

        def check_scan(rep):
            ok = ([r.m for r in rep.rows] == list(range(1, SCAN_M_MAX + 1))
                  and rep.h_nondecreasing and rep.lbar_nondecreasing
                  and all(r.identity_residual <= TOL for r in rep.rows))
            return [("convergence scan", None if ok else
                     "rows missing, not monotone, or identity residual above tol")]

        mc = n / 1e6
        return [
            Case("encode_msym_s", "codec",
                 lambda: v.encode(o.d256, o.cb256, self.stream),
                 lambda data: [("encode", None if data == self.ref_bytes
                                else "bytes differ from the reference encoding")],
                 self.n_codec / 1e6),
            Case("decode_msym_s", "codec",
                 lambda: v.decode(o.d256, o.cb256, self.ref_bytes),
                 lambda out: [("decode", None if out == self.stream
                               else "round trip does not give back the input")],
                 self.n_codec / 1e6),
            Case("cli_roundtrip_s", "codec", cli_roundtrip, check_cli_roundtrip),
            Case("simulate_trie_mphr_s", "montecarlo",
                 lambda: v.simulate(o.c3, o.fair, n, seed),
                 lambda r: check_sim_report(r, self.ref_c3, n, "simulate {0,10,11}"),
                 mc),
            Case("simulate_lazy_mphr_s", "montecarlo",
                 lambda: v.simulate(o.rl, o.fair, n, seed),
                 lambda r: check_sim_report(r, self.ref_rl, n, "simulate run_length"),
                 mc),
            Case("simulate_countable_mphr_s", "montecarlo",
                 lambda: v.simulate(o.he, o.geometric, n, seed),
                 lambda r: check_sim_report(r, self.ref_he, n,
                                            "simulate head_extension(0)"),
                 mc),
            Case("histogram_mphr_s", "montecarlo",
                 lambda: v.phrase_histogram(o.rl, o.biased, n, seed),
                 lambda r: check_histogram_entries(r.entries, self.ref_rl_biased, n,
                                                   "phrase_histogram run_length"),
                 mc),
            Case("cli_simulate_hist_s", "montecarlo", cli_simulate,
                 check_cli_simulate),
            Case("truncation_corpus_s", "certify", truncation_corpus,
                 check_truncation),
            Case("tunstall_codebook_s", "certify", tunstall_codebook,
                 check_tunstall),
            Case("verify_s", "certify", verify, check_verify),
            Case("scan_s", "certify", scan, check_scan),
        ]

    def _defect_probe(self):
        """check_conservation(head_extension(0), geometric(0.999999)).

        Word probabilities underflow to 0 before log2 and it raises
        ValueError today (ROADMAP item 5); the outcome is tallied.
        """
        label = f"verify head_extension(0) geometric({DEFECT_GEOMETRIC_P})"
        try:
            rep = vvcode.check_conservation(
                self.o.he, vvcode.SourceModel.geometric(DEFECT_GEOMETRIC_P))
        except Exception as exc:  # the tally records whatever it raises
            self.tally_defect(label, type(exc).__name__)
        else:
            self.tally_defect(label, rep.verdict)

    # -- seed 42: frozen full-size fixtures ------------------------------

    def pinned_checks(self):
        """Full-size replays pinned at seed 42; one (operation, error) each."""
        v, o = vvcode, self.o
        out = []
        stream = o.biased.sample_stream(PINNED_SEED, PINNED_SYMBOLS)
        phrases, _ = v.parse(o.d256, stream)
        code_len = {w: len(c) for w, c in zip(o.cb256.phrases, o.cb256.codewords)}
        rate = sum(code_len[ph] for ph in phrases) / sum(len(ph) for ph in phrases)
        _expect(out, "pinned: Tunstall-256 rate", abs(rate - FROZEN_RATE_256) <= 1e-12,
                f"rate {rate!r} != {FROZEN_RATE_256!r}")
        data = v.encode(o.d256, o.cb256, stream)
        digest = hashlib.sha256(data).hexdigest()
        _expect(out, "pinned: encoded bytes", digest == PINNED_ENCODE_SHA256,
                f"sha256 {digest}")
        _expect(out, "pinned: decode round trip",
                v.decode(o.d256, o.cb256, data) == stream, "round trip failed")

        rep = v.simulate(o.c3, o.fair, PINNED_PHRASES, PINNED_SEED)
        f = FROZEN_SIM_COMPLETE
        ok = (rep.total_symbols == f["total_symbols"]
              and abs(rep.empirical_entropy - f["entropy"]) <= 1e-12
              and abs(rep.stderr_lbar - f["stderr"]) <= 1e-12
              and rep.empirical_lbar == rep.total_symbols / PINNED_PHRASES
              and all(c == f["top_counts"][w] for w, c, _ in rep.top_phrases))
        _expect(out, "pinned: simulate {0,10,11}", ok, "frozen fixture differs")
        rep = v.simulate(o.rl, o.fair, PINNED_PHRASES, PINNED_SEED)
        ok = (rep.total_symbols == FROZEN_SIM_RL["total_symbols"]
              and abs(rep.empirical_entropy - FROZEN_SIM_RL["entropy"]) <= 1e-12)
        _expect(out, "pinned: simulate run_length", ok, "frozen fixture differs")
        hist = v.phrase_histogram(o.rl, o.biased, PINNED_PHRASES, PINNED_SEED)
        ok = (dict(hist.entries)[(0,)] == FROZEN_HIST_RL_BIASED["count0"]
              and abs(hist.p_value - FROZEN_HIST_RL_BIASED["p_value"]) <= 1e-6)
        _expect(out, "pinned: histogram run_length biased", ok,
                "frozen fixture differs")

        tunstall = v.tunstall_build(o.biased, TUNSTALL_SIZE)
        for depth, want in PINNED_BRACKETS.items():
            r = v.check_conservation(tunstall, o.biased, depth)
            got = (r.h_d_low, r.h_d_high, r.lbar_low, r.lbar_high)
            _expect(out, f"pinned: brackets depth {depth}", got == want,
                    f"brackets {got!r} != {want!r}")
        return out
