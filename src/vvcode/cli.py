"""Command-line front end.

Exit codes: 0 pass/success, 1 property-check fail, 2 usage/input error,
3 inconclusive. Every report embeds the resolved run configuration and a
format-version field, so re-running a stored configuration reproduces the
report bit for bit. Each subcommand takes --out and only the options its
handler reads; the defaults (depth 64, tol 1e-9, seed 42, width 64 from
dictionary.DEFAULT_WIDTH, format json) fill in the rest, and every report
still echoes them all.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from dataclasses import asdict, dataclass
from gettext import gettext

from . import __version__
from .algebra import cone, extend, truncate
from .codec import decode, encode, fixed_codebook, huffman_build, tunstall_build
from .dictionary import (
    CERTIFIED_NOT_COMPLETE,
    DEFAULT_WIDTH,
    FiniteDictionary,
    UNDETERMINED,
    is_asc,
    is_complete,
    is_proper,
)
from .errors import (
    SimulationAbortError,
    VVCodeError,
)
from .formats import (
    histogram_csv,
    load_codebook,
    load_dictionary,
    load_source,
    parse_word_text,
    read_bit_stream,
    read_stream_text,
    report_csv,
    save_dictionary,
    write_bit_stream,
    write_stream_text,
)
from .measures import check_conservation, convergence_scan, phrase_measures
from .simulation import phrase_histogram, report_from_counts, simulate

FORMAT_VERSION = 1
DEFAULT_DEPTH = 64
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42
DEFAULT_M_MAX = 12
DEFAULT_PHRASES = 10000

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class RunConfig:
    """Resolved invocation: exactly one command plus its parameters."""

    command: str
    dict_path: str | None = None
    source_path: str | None = None
    codebook_path: str | None = None
    in_path: str | None = None
    out_path: str | None = None
    word: str | None = None
    depth: int = DEFAULT_DEPTH
    width: int = DEFAULT_WIDTH
    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    size: int | None = None
    m_max: int | None = None
    mode: str | None = None
    n_phrases: int | None = None
    bits: bool = False
    histogram: bool = False
    format: str = "json"

    def validate(self):
        if self.depth < 1:
            raise ValueError("--depth must be >= 1")
        if self.width < 1:
            raise ValueError("--width must be >= 1")
        if self.tol <= 0:
            raise ValueError("--tol must be positive")
        if not math.isfinite(self.tol):
            raise ValueError("--tol must be finite")
        if self.command not in _SUBCOMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        takes = _SUBCOMMANDS[self.command][2].split()
        if self.format == "csv" and "--format" not in takes:
            raise ValueError(f"{self.command} writes no CSV; it takes no --format")


def _report_envelope(config: RunConfig, result) -> dict:
    cfg = {k: v for k, v in asdict(config).items() if v is not None}
    return {
        "format_version": FORMAT_VERSION,
        "tool": "vvcode",
        "version": __version__,
        "config": cfg,
        "result": result,
    }


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(config: RunConfig, result, build_csv=None) -> None:
    """The JSON envelope, or under --format csv what build_csv() returns."""
    if config.format == "csv":
        _emit(build_csv(), config.out_path)
        return
    text = json.dumps(_report_envelope(config, result), indent=2, sort_keys=True)
    _emit(text + "\n", config.out_path)


def _cmd_check(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    result = {"proper": is_proper(d)}
    complete = None
    if isinstance(d, FiniteDictionary):
        complete = is_complete(d)
        result["complete"] = complete
    exit_code = EXIT_OK
    if config.source_path:
        s = load_source(config.source_path)
        verdict = is_asc(d, s, config.depth, config.tol)
        status = verdict.status
        if (
            status == UNDETERMINED
            and complete is False
            and config.depth >= d.max_word_length()
        ):
            # residual mass is exactly constant past the deepest word, so
            # the certificate can never improve: provably not ASC
            status = CERTIFIED_NOT_COMPLETE
            exit_code = EXIT_FAIL
        elif status == UNDETERMINED:
            exit_code = EXIT_INCONCLUSIVE
        result["asc_status"] = status
        result["residual_mass"] = verdict.residual_mass
        result["depth_used"] = verdict.depth_used
    _emit_report(config, result)
    return exit_code


def _cmd_truncate(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    fs = truncate(d, config.depth, config.width)
    _emit_report(config, fs.as_dict())
    return EXIT_OK


def _cmd_extend(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    ext = extend(d, parse_word_text(config.word))
    _emit_report(config, save_dictionary(ext))
    return EXIT_OK


def _cmd_cone(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    res = cone(d, parse_word_text(config.word), config.depth, config.width)
    _emit_report(config, res.as_dict())
    return EXIT_OK


def _cmd_measure(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    s = load_source(config.source_path)
    result = phrase_measures(d, s, config.depth).report(s.entropy())
    # exhaustive and tails_exact are JSON-only flags
    row = {k: v for k, v in result.items() if k not in ("exhaustive", "tails_exact")}
    _emit_report(config, result, lambda: report_csv([row]))
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    s = load_source(config.source_path)
    report = check_conservation(d, s, config.depth, config.tol)
    result = report.as_dict()
    _emit_report(config, result, lambda: report_csv([result]))
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _cmd_scan(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    s = load_source(config.source_path)
    m_max = DEFAULT_M_MAX if config.m_max is None else config.m_max
    report = convergence_scan(d, s, m_max, config.width)
    result = report.as_dict()
    _emit_report(config, result, lambda: report_csv(result["rows"]))
    if report.h_nondecreasing and report.lbar_nondecreasing:
        return EXIT_OK
    return EXIT_FAIL


def _cmd_tunstall(config: RunConfig) -> int:
    s = load_source(config.source_path)
    d = tunstall_build(s, config.size)
    _emit_report(config, save_dictionary(d))
    return EXIT_OK


def _cmd_codebook(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    if not isinstance(d, FiniteDictionary):
        raise ValueError("codebooks need a finite dictionary")
    mode = config.mode or "huffman"
    if mode == "fixed":
        cb = fixed_codebook(d.words)
    else:
        s = load_source(config.source_path)
        cb = huffman_build([(w, s.word_prob(w)) for w in d.words])
    _emit_report(config, cb.as_dict())
    return EXIT_OK


def _read_symbols(config: RunConfig):
    if config.bits:
        return read_bit_stream(config.in_path)
    return read_stream_text(config.in_path)


def _cmd_encode(config: RunConfig) -> int:
    if not config.out_path:
        raise ValueError("encode needs --out for the binary stream")
    d = load_dictionary(config.dict_path)
    if not isinstance(d, FiniteDictionary):
        raise ValueError("encoding needs a finite dictionary")
    cb = load_codebook(config.codebook_path)
    data = encode(d, cb, _read_symbols(config))
    with open(config.out_path, "wb") as fh:
        fh.write(data)
    return EXIT_OK


def _cmd_decode(config: RunConfig) -> int:
    if not config.out_path:
        raise ValueError("decode needs --out for the recovered stream")
    d = load_dictionary(config.dict_path)
    if not isinstance(d, FiniteDictionary):
        raise ValueError("decoding needs a finite dictionary")
    cb = load_codebook(config.codebook_path)
    with open(config.in_path, "rb") as fh:
        data = fh.read()
    symbols = decode(d, cb, data)
    if config.bits:
        write_bit_stream(config.out_path, symbols)
    else:
        write_stream_text(config.out_path, symbols)
    return EXIT_OK


def _cmd_simulate(config: RunConfig) -> int:
    d = load_dictionary(config.dict_path)
    s = load_source(config.source_path)
    n = DEFAULT_PHRASES if config.n_phrases is None else config.n_phrases
    if config.histogram:
        hist = phrase_histogram(
            d, s, n, config.seed, depth=config.depth, width=config.width
        )
        report = report_from_counts(d, s, dict(hist.entries), config.seed, config.depth)
        result = {"sim": report.as_dict(), "histogram": hist.as_dict()}
        _emit_report(config, result, lambda: histogram_csv(hist))
    else:
        report = simulate(d, s, n, config.seed, depth=config.depth)
        result = report.as_dict()
        _emit_report(config, result, lambda: report_csv([result]))
    return EXIT_OK


# the options subcommands take, in help order
_OPTIONS = {
    "--dict": {"dest": "dict_path", "required": True},
    "--source": {"dest": "source_path", "required": True},
    "--word": {"required": True, "help": "symbol word, e.g. 110 or 1,1,0"},
    "--codebook": {"dest": "codebook_path", "required": True},
    "--in": {"dest": "in_path", "required": True},
    "--bits": {"action": "store_true",
               "help": "treat stream files as raw bit files"},
    "--depth": {"type": int, "default": DEFAULT_DEPTH},
    "--width": {"type": int, "default": DEFAULT_WIDTH},
    "--tol": {"type": float, "default": DEFAULT_TOL},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--out": {"dest": "out_path"},
    "--format": {"choices": ["json", "csv"], "default": "json"},
    "--m-max": {"dest": "m_max", "type": int, "default": DEFAULT_M_MAX},
    "--size": {"type": int, "required": True},
    "--mode": {"choices": ["huffman", "fixed"], "default": "huffman"},
    "-n --phrases": {"dest": "n_phrases", "type": int, "default": DEFAULT_PHRASES},
    "--histogram": {"action": "store_true"},
}

# each subcommand: its handler, its help and the options its handler reads
# besides --out, "[--source]" as not required
_SUBCOMMANDS = {
    "check": (_cmd_check, "properness / completeness / ASC certification",
              "--dict [--source] --depth --tol"),
    "truncate": (_cmd_truncate, "frontier sets T_n, D_n_perp, D_n",
                 "--dict --depth --width"),
    "extend": (_cmd_extend, "single-word extension D[alpha]", "--dict --word"),
    "cone": (_cmd_cone, "dictionary words with a given prefix",
             "--dict --word --depth --width"),
    "measure": (_cmd_measure, "interval measures H(D), lbar(D)",
                "--dict --source --depth --format"),
    "verify": (_cmd_verify, "conservation check H(D) = H(P) lbar(D)",
               "--dict --source --depth --tol --format"),
    "scan": (_cmd_scan, "truncation series H(D_m), lbar(D_m)",
             "--dict --source --width --format --m-max"),
    "tunstall": (_cmd_tunstall, "greedy parsing dictionary for a finite source",
                 "--source --size"),
    "codebook": (_cmd_codebook, "phrase codebook for a dictionary",
                 "--dict [--source] --mode"),
    "encode": (_cmd_encode, "encode a symbol stream",
               "--dict --codebook --in --bits"),
    "decode": (_cmd_decode, "decode an encoded stream",
               "--dict --codebook --in --bits"),
    "simulate": (_cmd_simulate, "Monte Carlo phrase sampling",
                 "--dict --source --depth --width --seed --format --phrases "
                 "--histogram"),
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit code."""
    config.validate()
    return _SUBCOMMANDS[config.command][0](config)


def _parsers(command=None):
    """The root parser and its subparsers by name: every subcommand's, or
    only ``command``'s."""
    # argparse makes a help formatter to check every argument it adds, and
    # each formatter asks the terminal for its width; ask it once here
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    p = argparse.ArgumentParser(
        prog="vvcode",
        description="Variable-to-variable length source coding toolkit",
        formatter_class=formatter,
    )
    p.add_argument("--version", action="version", version=f"vvcode {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, flags) in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        sp = sub.add_parser(name, help=help_text, formatter_class=formatter)
        names = {"--out", *flags.split()}
        for flag, kwargs in _OPTIONS.items():
            *alias, long_flag = flag.split()
            if f"[{long_flag}]" in names:
                sp.add_argument(*alias, long_flag, **{**kwargs, "required": False})
            elif long_flag in names:
                sp.add_argument(*alias, long_flag, **kwargs)
    return p, sub.choices


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``vvcode`` parser, with every subcommand or only ``command``."""
    return _parsers(command)[0]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its subcommand first parses with that subparser
    # alone; -h, --version and a missing or unknown command see them all
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser, subparsers = _parsers(command)
    args, extras = parser.parse_known_args(argv)
    if extras:
        # the subcommand's usage line shows the flags it does take
        report = subparsers[command] if command else parser
        report.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    config = RunConfig(**kwargs)
    try:
        return run(config)
    except SimulationAbortError as exc:
        print(f"vvcode: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (VVCodeError, ValueError, OSError) as exc:
        print(f"vvcode: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
