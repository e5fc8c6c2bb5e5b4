"""Source model: entropy, word probabilities, sampling, tails."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvcode import SourceModel
from vvcode import rng
from vvcode.dictionary import TO_WORD, _unlisted_runs
from vvcode.rng import XorShift64Star, mix64, stream_seed


def geometric_entropy_series(p, terms=200):
    """Independent oracle: direct partial sum of -sum p_i log2 p_i."""
    return -math.fsum(
        p * (1 - p) ** i * math.log2(p * (1 - p) ** i) for i in range(terms)
    )


def test_entropy_fair_bit(fair):
    assert fair.entropy() == pytest.approx(1.0, abs=1e-15)


def test_entropy_deterministic_source():
    assert SourceModel.finite([1.0]).entropy() == 0.0


def test_entropy_geometric_half(geometric_half):
    assert geometric_half.entropy() == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.3, 0.5, 0.8, 0.95])
def test_entropy_geometric_matches_series(p):
    closed = SourceModel.geometric(p).entropy()
    assert closed == pytest.approx(geometric_entropy_series(p), abs=1e-10)


@pytest.mark.parametrize("k", range(2, 17))
def test_entropy_uniform_is_log2k(k):
    s = SourceModel.finite([1.0 / k] * k)
    assert s.entropy() == pytest.approx(math.log2(k), abs=1e-12)


def test_word_prob_examples(fair, biased):
    assert fair.word_prob((1, 0)) == 0.25
    assert biased.word_prob((1, 1, 0)) == pytest.approx(0.009, rel=1e-12)
    assert fair.word_prob(()) == 1.0
    assert SourceModel.geometric(0.5).word_prob(()) == 1.0


def test_word_prob_rejects_bad_symbol(fair):
    with pytest.raises(ValueError):
        fair.word_prob((0, 2))
    with pytest.raises(ValueError):
        fair.word_prob((-1,))


def test_single_symbol_mass_is_one():
    s = SourceModel.finite([0.2, 0.3, 0.5])
    total = math.fsum(s.word_prob((i,)) for i in range(3))
    assert abs(total - 1.0) <= 1e-12


@given(
    probs=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_word_prob_multiplicative(probs, data):
    total = math.fsum(probs)
    s = SourceModel.finite([p / total for p in probs])
    k = len(probs)
    u = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=6)))
    v = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=6)))
    assert s.word_prob(u + v) == pytest.approx(
        s.word_prob(u) * s.word_prob(v), rel=1e-12
    )


def ref_word_prob(source, word):
    """A finite source's word probability as a range check and a product
    over the probability tuple."""
    k = len(source.probs)
    if word and (min(word) < 0 or max(word) >= k):
        raise ValueError(f"word {list(word)} has symbols outside alphabet size {k}")
    return math.prod(map(source.probs.__getitem__, word), start=1.0)


def outcome(f, *args):
    """What f(*args) returns, or the type and message it raises."""
    try:
        return "ok", f(*args)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)


@st.composite
def finite_words(draw):
    """(source, word): a finite source and a word over its symbols, at times
    with one odd symbol in it."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=6))
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    k = len(probs)
    word = draw(st.lists(st.integers(0, k - 1), max_size=40))
    odd = draw(st.sampled_from([None, -1, k, True, np.int64(min(1, k - 1)),
                                1.0, "1"]))
    if odd is not None:
        word.insert(draw(st.integers(0, len(word))), odd)
    return SourceModel.finite(probs), tuple(word)


@given(case=finite_words())
@settings(max_examples=300, deadline=None)
def test_word_prob_matches_the_reference(case):
    source, word = case
    assert outcome(source.word_prob, word) == outcome(ref_word_prob, source, word)


def test_word_prob_lookup_is_not_part_of_the_value():
    s = SourceModel.finite([0.5, 0.3, 0.2])
    assert [f.name for f in dataclasses.fields(s)] == ["kind", "probs", "p"]
    assert repr(s) == "SourceModel(kind='finite', probs=(0.5, 0.3, 0.2), p=0.0)"
    assert s == SourceModel.finite([0.5, 0.3, 0.2])
    assert hash(s) == hash(SourceModel.finite([0.5, 0.3, 0.2]))
    assert b"_prob_of" not in pickle.dumps(s)
    for source in (s, SourceModel.geometric(0.3)):
        for twin in (copy.copy(source), copy.deepcopy(source),
                     pickle.loads(pickle.dumps(source))):
            assert twin == source and hash(twin) == hash(source)
            assert repr(twin) == repr(source)
            assert twin.word_prob((2, 1, 0)) == source.word_prob((2, 1, 0))
            assert outcome(twin.word_prob, (3,)) == outcome(source.word_prob, (3,))


def test_constructor_rejects_bad_probs():
    with pytest.raises(ValueError):
        SourceModel.finite([0.5, 0.5, 0.1])
    with pytest.raises(ValueError):
        SourceModel.finite([1.0, 0.0])
    with pytest.raises(ValueError):
        SourceModel.finite([])
    with pytest.raises(ValueError):
        SourceModel.geometric(0.0)
    with pytest.raises(ValueError):
        SourceModel.geometric(1.0)
    with pytest.raises(ValueError):
        SourceModel(kind="weird")


@pytest.mark.parametrize("source", [SourceModel.finite([0.5, 0.3, 0.2]),
                                    SourceModel.geometric(0.5)],
                         ids=["finite", "geometric"])
def test_negative_symbol_and_sample_count_are_refused(source):
    # probs[-1] would price the last symbol; p*(1-p)**-1 a symbol that is none
    with pytest.raises(ValueError, match=r"^symbol index -1 is negative$"):
        source.symbol_prob(-1)
    with pytest.raises(ValueError, match=r"^sample count must be >= 0$"):
        source.sample_stream(1, -1)


def test_finite_normalises_by_the_fsum_total():
    # within PROB_SUM_TOL of 1 the probabilities are divided by their total
    s = SourceModel.finite([0.5, 0.5 + 5e-10])
    total = math.fsum([0.5, 0.5 + 5e-10])
    assert s.probs == (0.5 / total, (0.5 + 5e-10) / total)
    with pytest.raises(ValueError):
        SourceModel.finite([0.5, 0.5 + 5e-9])
    # a total of exactly 1.0 keeps them as given
    assert SourceModel.finite([0.7, 0.2, 0.1]).probs == (0.7, 0.2, 0.1)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and twin.probs == s.probs


def vectors():
    rng = np.random.default_rng(7)
    yield [1e-13, 1.0]
    for k in (2, 3, 5, 17):
        for _ in range(25):
            x = rng.random(k) + 1e-3
            yield list(x / x.sum())


def test_finite_and_the_loader_agree_bit_for_bit():
    from vvcode.formats import load_source

    for probs in vectors():
        a = SourceModel.finite(probs)
        b = load_source({"kind": "finite", "probs": probs})
        assert a == b
        assert [q.hex() for q in a.probs] == [q.hex() for q in b.probs]


def test_one_source_one_run_length_answer():
    # [1e-13, 1.0] sums to 1 + 1e-13: both paths divide by it, so the loop
    # on 1 has probability below 1 and lbar is finite on both
    from vvcode import RunLengthDictionary, phrase_measures
    from vvcode.formats import load_source

    reports = [
        phrase_measures(RunLengthDictionary(), source)
        for source in (SourceModel.finite([1e-13, 1.0]),
                       load_source({"kind": "finite", "probs": [1e-13, 1.0]}))
    ]
    assert reports[0] == reports[1]
    assert reports[0].tails_exact and math.isfinite(reports[0].length.high)


SURPRISAL_SOURCES = [
    SourceModel.finite([0.5, 0.3, 0.2]),
    SourceModel.finite([1.0 / 7] * 7),
    SourceModel.geometric(0.5),
    SourceModel.geometric(0.3),
    SourceModel.geometric(1e-3),
    SourceModel.geometric(1e-6),
    SourceModel.geometric(0.999999),
]


@pytest.mark.parametrize("source", SURPRISAL_SOURCES, ids=repr)
def test_surprisal_between_is_the_direct_sum(source):
    k = source.alphabet_size
    for start in (0, 1, 5, 70, 1000, 10**4, 10**6):
        assert source.surprisal_between(start, start) == 0.0
        for n in (1, 2, 3, 10, 100, 1000):
            stop = start + n if k is None else min(start + n, k)
            ps = [source.symbol_prob(i) for i in range(start, stop)]
            direct = -math.fsum(p * math.log2(p) for p in ps if p > 0.0)
            got = source.surprisal_between(start, start + n)
            assert got == pytest.approx(direct, rel=1e-12, abs=0.0), (start, n)


def test_sample_stream_empty_and_deterministic(fair):
    assert fair.sample_stream(1, 0) == []
    a = fair.sample_stream(123, 1000)
    b = fair.sample_stream(123, 1000)
    assert a == b
    assert fair.sample_stream(124, 1000) != a


def test_sample_stream_fair_frequency(fair):
    xs = fair.sample_stream(1, 10**6)
    freq0 = xs.count(0) / 10**6
    assert abs(freq0 - 0.5) < 0.002  # 3-sigma binomial band


def test_sample_stream_geometric_mean(geometric_half):
    ys = geometric_half.sample_stream(7, 10**6)
    mean = sum(ys) / 10**6
    assert abs(mean - 1.0) < 0.005  # mean (1-p)/p = 1, 3-sigma band


def test_geometric_tail_closed_forms():
    s = SourceModel.geometric(0.3)
    assert s.mass_between(0) == pytest.approx(1.0, abs=1e-15)
    assert s.surprisal_between(0) == pytest.approx(s.entropy(), rel=1e-12)
    # series oracle for the start-5 tails
    mass = math.fsum(s.symbol_prob(i) for i in range(5, 400))
    surp = -math.fsum(
        s.symbol_prob(i) * math.log2(s.symbol_prob(i)) for i in range(5, 400)
    )
    assert s.mass_between(5) == pytest.approx(mass, rel=1e-12)
    assert s.surprisal_between(5) == pytest.approx(surp, rel=1e-12)


def test_finite_tail_sums(biased):
    assert biased.mass_between(1) == pytest.approx(0.1)
    assert biased.mass_between(2) == 0.0
    assert biased.surprisal_between(2) == 0.0


def reference_tail_mass(s, start):
    """Reference: the sum of P(i) over i >= start, in the closed form kept."""
    if s.kind == "finite":
        return math.fsum(s.probs[start:]) if start < len(s.probs) else 0.0
    return (1.0 - s.p) ** start


def reference_tail_surprisal(s, start):
    """Reference: the sum of -P(i)*log2 P(i) over i >= start, likewise."""
    if s.kind == "finite":
        return -math.fsum(q * math.log2(q) for q in s.probs[start:])
    p, q = s.p, 1.0 - s.p
    s1 = q**start / p
    s2 = q**start * (start * p + q) / (p * p)
    return p * (-math.log2(p) * s1 - math.log2(q) * s2)


OPEN_RUNS = [
    (SourceModel.finite(probs), start)
    for probs in ([0.9, 0.1], [0.5, 0.3, 0.2], [1.0])
    for start in (0, 1, 2, 3, 5)
] + [
    (SourceModel.geometric(p), start)
    for p in (0.5, 0.1, 0.999, 1e-3)
    for start in (0, 1, 5, 64, 1000)
]


@pytest.mark.parametrize("source, start", OPEN_RUNS, ids=repr)
def test_open_run_sums_keep_the_tail_formulas(source, start):
    # bit for bit, the sign of a zero included
    assert repr(source.mass_between(start)) == repr(reference_tail_mass(source, start))
    assert repr(source.surprisal_between(start)) == repr(
        reference_tail_surprisal(source, start)
    )


def test_unlisted_runs_end_with_the_open_run():
    t = {0: TO_WORD, 2: 1, 5: TO_WORD}
    assert _unlisted_runs(t) == [(0, 0), (1, 2), (3, 5), (6, None)]


def test_rng_reference_stream():
    # frozen outputs pin the documented xorshift64*/splitmix64 pipeline
    r = XorShift64Star(42)
    assert [r.next_u64() for _ in range(3)] == [
        3580622183945639842,
        10378725325292465923,
        8967075514996744559,
    ]
    r = XorShift64Star(42)
    assert r.next_float() == pytest.approx(0.1941059175341826, abs=0.0)
    assert mix64(0) == 16294208416658607535
    assert stream_seed(42, 0) == 16294208416658607493
    assert stream_seed(42, 7) == 7191089600892374525


def test_stream_split_independence(fair):
    # different sub-streams of one seed diverge immediately
    a = XorShift64Star(stream_seed(9, 0)).next_u64()
    b = XorShift64Star(stream_seed(9, 1)).next_u64()
    assert a != b


# -- block generator and block sampling -------------------------------------

# mix64(ZERO_SEED) == 0, so the constructor remaps its state to the gamma
ZERO_SEED = (1 << 64) - 0x9E3779B97F4A7C15
ROUND = rng.LANES * rng.STRIDE  # draws in one round of float_block
BLOCK_SIZES = [0, 1, rng.STRIDE - 1, rng.STRIDE + 1, rng.LANES - 1, rng.LANES + 1,
               ROUND - 1, ROUND + 1, 3 * ROUND + 5, 10**5]


def scalar_floats(gen, n):
    return [gen.next_float() for _ in range(n)]


def test_zero_seed_is_remapped():
    assert mix64(ZERO_SEED) == 0
    assert XorShift64Star(ZERO_SEED).state == 0x9E3779B97F4A7C15


@given(seed=st.integers(0, 2**64 - 1) | st.just(ZERO_SEED),
       n=st.sampled_from(BLOCK_SIZES))
@settings(max_examples=40, deadline=None)
def test_float_block_equals_scalar_draws(seed, n):
    gen = XorShift64Star(seed)
    u, state = rng.float_block(gen.state, n)
    assert u.tolist() == scalar_floats(gen, n)
    assert state == gen.state


@given(state=st.integers(1, 2**64 - 1), n=st.integers(0, 3 * ROUND))
@settings(max_examples=25, deadline=None)
def test_float_block_from_any_state(state, n):
    gen = XorShift64Star(0)
    gen.state = state
    u, after = rng.float_block(state, n)
    assert u.tolist() == scalar_floats(gen, n)
    assert after == gen.state


def test_float_blocks_chain():
    # consecutive blocks continue one stream
    gen = XorShift64Star(5)
    state = gen.state
    drawn = []
    for n in (3, 0, rng.STRIDE, 1000, ROUND + 7):
        u, state = rng.float_block(state, n)
        drawn.extend(u.tolist())
    assert drawn == scalar_floats(gen, len(drawn))
    assert state == gen.state


def scalar_stream(source, seed, n):
    """sample_stream's rule written out from its docstring, one draw at a time."""
    gen = XorShift64Star(seed)
    out = []
    for _ in range(n):
        u = gen.next_float()
        if source.kind == "geometric":
            out.append(int(math.log1p(-u) / math.log1p(-source.p)))
        else:
            acc = 0.0
            for s, q in enumerate(source.probs):
                acc += q
                if u < acc or s == len(source.probs) - 1:
                    out.append(s)
                    break
    return out


@pytest.mark.parametrize("source", [
    SourceModel.fair_bit(),
    SourceModel.finite([0.9, 0.1]),
    SourceModel.finite([0.2, 0.3, 0.5]),
    SourceModel.finite([1.0]),
    SourceModel.geometric(0.5),
    SourceModel.geometric(0.1),
], ids=["fair", "biased", "ternary", "unary", "geometric-0.5", "geometric-0.1"])
@pytest.mark.parametrize("seed", [0, 42, ZERO_SEED])
def test_sample_stream_matches_scalar_reference(source, seed):
    n = ROUND + 100
    assert source.sample_stream(seed, n) == scalar_stream(source, seed, n)


def test_sample_block_continues_the_stream(biased):
    gen = XorShift64Star(8)
    first, state = biased.sample_block(gen.state, 700)
    second, state = biased.sample_block(state, 300)
    assert first + second == biased.sample_stream(8, 1000)
    scalar_floats(gen, 1000)
    assert state == gen.state


# -- the vectorised geometric map against the scalar one ---------------------

GEOMETRIC_PS = [0.5, 0.3, 0.1, 1e-6, 0.999999]


def scalar_geometric(u, p):
    log_q = math.log1p(-p)
    return [int(math.log1p(-x) / log_q) for x in u]


def boundary_uniforms(p):
    """Uniforms within six ulps of each u_k = 1 - (1-p)^k, where the
    quotient log1p(-u)/log1p(-p) crosses the integer k."""
    log_q = math.log1p(-p)
    top = 37.0 / -log_q  # 1 - u >= 2^-53 keeps the quotient below this
    ks = list(range(60)) + [int(60 * (top / 60) ** (i / 199)) for i in range(200)]
    us = []
    for k in ks:
        x = -math.expm1(k * log_q)
        for _ in range(6):
            x = math.nextafter(x, 0.0)
        for _ in range(13):
            if 0.0 <= x < 1.0:
                us.append(x)
            x = math.nextafter(x, 1.0)
    return us


@pytest.mark.parametrize("p", GEOMETRIC_PS)
def test_geometric_symbols_match_the_scalar_map(p):
    import numpy as np

    source = SourceModel.geometric(p)
    # np.log1p and math.log1p truncate differently at some of these
    us = boundary_uniforms(p) + [0.0, 1.0 - 2.0**-53]
    assert source.symbols_for(np.array(us)).tolist() == scalar_geometric(us, p)
    u, _ = rng.float_block(XorShift64Star(int(1 / p)).state, 200_000)
    got = source.symbols_for(u)
    assert got.dtype == np.int64
    assert got.tolist() == scalar_geometric(u.tolist(), p)


@pytest.mark.parametrize("p", [1e-20, 1e-300])
def test_geometric_symbols_past_int64_stay_exact(p):
    source = SourceModel.geometric(p)
    u, _ = rng.float_block(XorShift64Star(3).state, 3000)
    got = source.symbols_for(u)
    assert got.dtype == object
    assert got.tolist() == scalar_geometric(u.tolist(), p)
    assert source.sample_stream(3, 3000) == got.tolist()
