"""Per-layer metrics of the traced run.

``install`` wraps each layer's entry points; ``round_metrics`` turns the
calls and counters of one traced round into the per_layer metrics of
BENCHMARK.json. Times are seconds per round, counts are per round.
``rng.draws_per_s`` and ``source.sample_s`` come from fixed blocks the
run times directly (see run.py), because no measured case calls the RNG
or ``sample_stream`` through a name the tracer can replace.
"""

from __future__ import annotations

from vvcode import (
    algebra,
    cli,
    codec,
    dictionary,
    formats,
    measures,
    simulation,
    source,
)

LAYERS = ("source", "dictionary", "algebra", "measures", "codec", "simulation",
          "formats", "cli")
CLI_COMMANDS = ("encode", "decode", "simulate")

ENVELOPE_NOTE = "tails bounded via frontier envelope"


def install(tracer):
    c = tracer.counters

    def on_parse(args, kwargs, result, token, dur):
        c["dictionary.phrases"] += len(result[0])

    def on_truncate(args, kwargs, result, token, dur):
        c["algebra.frontier_words"] += len(result.t_n)

    def on_exact_word_measures(args, kwargs, result, token, dur):
        c["measures.words_measured"] += len(args[0])

    def on_phrase_measures(args, kwargs, result, token, dur):
        if result.entropy.high == float("inf"):
            c["measures.tail_path.unbounded"] += 1
        elif result.note == ENVELOPE_NOTE:
            c["measures.tail_path.envelope"] += 1
        else:
            c["measures.tail_path.exact"] += 1

    def on_encode(args, kwargs, result, token, dur):
        c["codec.bits_out"] += 8 * len(result)

    def sampled(n_phrases, symbols):
        # one uniform draw per sampled symbol (rng and source specs)
        c["simulation.phrases_sampled"] += n_phrases
        c["simulation.symbols"] += symbols
        c["rng.draws"] += symbols

    def on_simulate(args, kwargs, result, token, dur):
        sampled(result.n_phrases, result.total_symbols)

    def on_histogram(args, kwargs, result, token, dur):
        sampled(result.n_phrases, sum(len(w) * n for w, n in result.entries))

    def before_cli():
        return c["simulation.phrases_sampled"]

    def on_cli(args, kwargs, result, token, dur):
        argv = args[0] if args else kwargs["argv"]
        command = argv[0]
        c[f"cli.main_s.{command}"] += dur
        if command == "simulate":
            reported = int(argv[argv.index("-n") + 1])
            c["cli.phrases_reported"] += reported
            c["cli.phrases_sampled"] += c["simulation.phrases_sampled"] - token

    tracer.wrap_method("source", source.SourceModel, "word_prob", hot=True)
    tracer.wrap_method("dictionary", dictionary.FiniteDictionary, "__init__")
    tracer.wrap_function("dictionary", dictionary, "parse", on_result=on_parse)
    tracer.wrap_function("algebra", algebra, "truncate", on_result=on_truncate)
    tracer.wrap_function("algebra", algebra, "uncovered_frontier")
    tracer.wrap_function("measures", measures, "exact_word_measures", hot=True,
                         on_result=on_exact_word_measures)
    tracer.wrap_function("measures", measures, "phrase_measures",
                         on_result=on_phrase_measures)
    for name in ("check_conservation", "check_truncation_identity",
                 "convergence_scan"):
        tracer.wrap_function("measures", measures, name)
    tracer.wrap_function("codec", codec, "encode", on_result=on_encode)
    for name in ("decode", "tunstall_build", "huffman_build"):
        tracer.wrap_function("codec", codec, name)
    tracer.wrap_function("simulation", simulation, "simulate",
                         on_result=on_simulate)
    tracer.wrap_function("simulation", simulation, "phrase_histogram",
                         on_result=on_histogram)
    for name in ("read_stream_text", "write_stream_text", "load_dictionary",
                 "load_codebook", "load_source"):
        tracer.wrap_function("formats", formats, name)
    tracer.wrap_function("cli", cli, "main", before=before_cli, on_result=on_cli)


def round_metrics(calls, counters):
    """Per-layer metrics (name -> value) of one traced round, except the
    directly timed blocks and the tracing overhead."""

    def total(layer, name):
        return calls.get((layer, name), [0, 0.0, 0.0])[1]

    def count(layer, name):
        return calls.get((layer, name), [0, 0.0, 0.0])[0]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for (layer, _), agg in calls.items():
        self_s[layer] += agg[2]
    reported = counters["cli.phrases_reported"]
    sampled = counters["cli.phrases_sampled"]

    m = {
        "rng.draws": counters["rng.draws"],
        "source.word_prob.calls": count("source", "SourceModel.word_prob"),
        "source.word_prob_s": total("source", "SourceModel.word_prob"),
        "dictionary.parse_s": total("dictionary", "parse"),
        "dictionary.phrases": counters["dictionary.phrases"],
        "dictionary.build_s": total("dictionary", "FiniteDictionary.__init__"),
        "algebra.truncate.calls": count("algebra", "truncate"),
        "algebra.truncate_s": total("algebra", "truncate"),
        "algebra.uncovered_frontier_s": total("algebra", "uncovered_frontier"),
        "algebra.frontier_words": counters["algebra.frontier_words"],
        "measures.exact_word_measures_s": total("measures", "exact_word_measures"),
        "measures.words_measured": counters["measures.words_measured"],
        "measures.phrase_measures_s": total("measures", "phrase_measures"),
        "measures.tail_path.exact": counters["measures.tail_path.exact"],
        "measures.tail_path.envelope": counters["measures.tail_path.envelope"],
        "measures.tail_path.unbounded": counters["measures.tail_path.unbounded"],
        "codec.encode_s": total("codec", "encode"),
        "codec.encode_self_s": calls.get(("codec", "encode"), [0, 0.0, 0.0])[2],
        "codec.decode_s": total("codec", "decode"),
        "codec.bits_out": counters["codec.bits_out"],
        "codec.tunstall_build_s": total("codec", "tunstall_build"),
        "codec.huffman_build_s": total("codec", "huffman_build"),
        "simulation.simulate_s": total("simulation", "simulate"),
        "simulation.phrase_histogram_s": total("simulation", "phrase_histogram"),
        "simulation.phrases_sampled": counters["simulation.phrases_sampled"],
        "simulation.symbols": counters["simulation.symbols"],
        "simulation.sample_efficiency": reported / sampled if sampled else 0.0,
        "formats.read_stream_text_s": total("formats", "read_stream_text"),
        "formats.write_stream_text_s": total("formats", "write_stream_text"),
        "formats.load_dictionary_s": total("formats", "load_dictionary"),
        "formats.load_codebook_s": total("formats", "load_codebook"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.main_s.{command}"] = counters[f"cli.main_s.{command}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
