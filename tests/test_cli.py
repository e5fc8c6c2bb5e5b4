"""CLI surface: exit codes, report envelopes, file formats, round-trips."""

import argparse
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvcode import cli
from vvcode.formats import (
    load_codebook,
    load_dictionary,
    load_source,
    parse_word_text,
    read_bit_stream,
    read_stream_text,
    save_dictionary,
    word_to_text,
    write_bit_stream,
    write_stream_text,
)
from vvcode.errors import ImproperDictionaryError, InputFormatError, VVCodeError


@pytest.fixture
def files(tmp_path):
    def w(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return {
        "fair": w("fair.json", {"kind": "finite", "probs": [0.5, 0.5]}),
        "biased": w("biased.json", {"kind": "finite", "probs": ["0.9", "0.1"]}),
        "geom": w("geom.json", {"kind": "geometric", "p": 0.5}),
        "complete": w(
            "complete.json",
            {"kind": "finite", "alphabet_size": 2, "words": [[0], [1, 0], [1, 1]]},
        ),
        "zero": w("zero.json", {"kind": "finite", "alphabet_size": 2, "words": [[0]]}),
        "rl": w("rl.json", {"kind": "lazy", "family": "run_length"}),
        "he": w("he.json", {"kind": "lazy", "family": "head_extension", "head": 0}),
        "bad": w(
            "bad.json",
            {"kind": "finite", "alphabet_size": 2, "words": [[0], [0, 1]]},
        ),
        "tmp": tmp_path,
    }


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_verify_run_length(files, capsys):
    code, rep = run_json(
        capsys,
        ["verify", "--dict", files["rl"], "--source", files["fair"],
         "--depth", "64", "--tol", "1e-9"],
    )
    assert code == 0
    assert rep["result"]["verdict"] == "pass"
    assert rep["result"]["residual"] < 1e-9
    assert rep["config"]["depth"] == 64
    assert rep["config"]["seed"] == 42
    assert rep["format_version"] == 1


def test_verify_exit_codes(files, capsys):
    code, rep = run_json(
        capsys, ["verify", "--dict", files["zero"], "--source", files["biased"]]
    )
    assert code == 3
    assert rep["result"]["verdict"] == "inconclusive"


def test_verify_reports_are_reproducible(files, capsys):
    argv = ["verify", "--dict", files["rl"], "--source", files["biased"]]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_check_bad_dictionary_names_pair(files, capsys):
    code = cli.main(["check", "--dict", files["bad"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "[0]" in err and "[0, 1]" in err


def test_check_complete_and_asc(files, capsys):
    code, rep = run_json(
        capsys, ["check", "--dict", files["complete"], "--source", files["fair"]]
    )
    assert code == 0
    assert rep["result"] == {
        "proper": True,
        "complete": True,
        "asc_status": "certified_asc",
        "residual_mass": 0.0,
        "depth_used": 64,
    }


def test_check_not_complete_verdict(files, capsys):
    code, rep = run_json(
        capsys, ["check", "--dict", files["zero"], "--source", files["fair"]]
    )
    assert code == 1
    assert rep["result"]["asc_status"] == "certified_not_complete"
    assert rep["result"]["complete"] is False


def test_check_lazy_run_length(files, capsys):
    code, rep = run_json(
        capsys, ["check", "--dict", files["rl"], "--source", files["fair"]]
    )
    assert code == 0
    assert rep["result"]["asc_status"] == "certified_asc"
    assert "complete" not in rep["result"]


def test_check_undetermined_exits_3(files, capsys):
    # P(T_5) = 2^-5 of run-length over fair is still above the tolerance
    code, rep = run_json(
        capsys,
        ["check", "--dict", files["rl"], "--source", files["fair"], "--depth", "5"],
    )
    assert code == 3
    assert rep["result"]["asc_status"] == "undetermined"
    assert rep["result"]["residual_mass"] == 0.03125


def test_truncate_command(files, capsys):
    code, rep = run_json(capsys, ["truncate", "--dict", files["rl"], "--depth", "3"])
    assert code == 0
    assert rep["result"]["t_n"] == [[1, 1, 1]]
    assert rep["result"]["d_n"] == [[0], [1, 0], [1, 1, 0], [1, 1, 1]]


def test_extend_command(files, capsys):
    code, rep = run_json(
        capsys, ["extend", "--dict", files["complete"], "--word", "0"]
    )
    assert code == 0
    assert rep["result"]["words"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_extend_lazy_has_no_file_format(files, capsys):
    assert cli.main(["extend", "--dict", files["rl"], "--word", "0"]) == 2
    assert "representation" in capsys.readouterr().err


def test_cone_command(files, capsys):
    code, rep = run_json(
        capsys,
        ["cone", "--dict", files["rl"], "--word", "11", "--depth", "10"],
    )
    assert code == 0
    assert rep["result"]["exhaustive"] is False
    assert rep["result"]["words"][0] == [1, 1, 0]


def test_cone_hypothesis_violation_is_input_error(files, capsys):
    assert cli.main(["cone", "--dict", files["complete"], "--word", "01"]) == 2


def test_measure_json_and_csv(files, capsys):
    code, rep = run_json(
        capsys, ["measure", "--dict", files["he"], "--source", files["geom"]]
    )
    assert code == 0
    assert rep["result"]["h_d_low"] == pytest.approx(3.0, rel=1e-12)
    code = cli.main(
        ["measure", "--dict", files["complete"], "--source", files["fair"],
         "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("h_d_low,h_d_high,lbar_low,lbar_high")
    assert row.startswith("1.5,1.5,1.5,1.5,")


@pytest.mark.parametrize("width", ["1", "64"])
def test_lazy_measures_need_no_width(files, capsys, width):
    he = str(files["tmp"] / "he1000.json")
    with open(he, "w") as fh:
        json.dump({"kind": "lazy", "family": "head_extension", "head": 1000}, fh)
    source = ["--source", files["geom"]]
    code, rep = run_json(capsys, ["verify", "--dict", he] + source)
    assert code == 0
    assert rep["result"]["verdict"] == "pass"
    assert (rep["result"]["h_d_low"], rep["result"]["lbar_low"]) == (2.0, 1.0)
    code, rep = run_json(capsys, ["measure", "--dict", he] + source)
    assert code == 0
    assert rep["result"]["tails_exact"] is True
    assert rep["result"]["possibly_divergent"] is False
    assert (rep["result"]["h_d_high"], rep["result"]["lbar_high"]) == (2.0, 1.0)
    # truncation and scan still enumerate symbols below the width
    assert cli.main(["scan", "--dict", he, *source, "--width", width]) == 2
    assert cli.main(["truncate", "--dict", he, "--width", width]) == 2


def test_scan_command(files, capsys):
    code, rep = run_json(
        capsys,
        ["scan", "--dict", files["rl"], "--source", files["fair"],
         "--m-max", "8"],
    )
    assert code == 0
    assert rep["result"]["h_nondecreasing"] is True
    assert len(rep["result"]["rows"]) == 8


def test_tunstall_and_codebook_commands(files, capsys):
    code, rep = run_json(
        capsys, ["tunstall", "--source", files["fair"], "--size", "4"]
    )
    assert code == 0
    assert rep["result"]["words"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    code, rep = run_json(
        capsys,
        ["codebook", "--dict", files["complete"], "--source", files["fair"]],
    )
    assert code == 0
    assert sorted(len(c) for c in rep["result"]["codewords"]) == [1, 2, 2]
    code, rep = run_json(
        capsys, ["codebook", "--dict", files["complete"], "--mode", "fixed"]
    )
    assert code == 0
    assert rep["result"]["codewords"] == ["00", "01", "10"]


def test_encode_decode_round_trip(files, tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("0 1 1 1 0 0")
    cb_path = tmp_path / "cb.json"
    cli.main(
        ["codebook", "--dict", files["complete"], "--source", files["fair"],
         "--out", str(cb_path)]
    )
    cb_obj = json.loads(cb_path.read_text())["result"]
    cb_path.write_text(json.dumps(cb_obj))
    encoded = tmp_path / "s.vv"
    decoded = tmp_path / "back.txt"
    assert cli.main(
        ["encode", "--dict", files["complete"], "--codebook", str(cb_path),
         "--in", str(stream), "--out", str(encoded)]
    ) == 0
    assert encoded.read_bytes()[0] == 0x56
    assert cli.main(
        ["decode", "--dict", files["complete"], "--codebook", str(cb_path),
         "--in", str(encoded), "--out", str(decoded)]
    ) == 0
    assert read_stream_text(decoded) == [0, 1, 1, 1, 0, 0]


def test_encode_with_a_foreign_codebook_or_symbol_exits_2(files, tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("0 1 1 1 0 0")
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"phrases": [[], [-1]], "codewords": ["0", "1"]}))
    out = str(tmp_path / "s.vv")
    args = ["--dict", files["complete"], "--codebook", str(foreign), "--out", out]
    assert cli.main(["encode", *args, "--in", str(stream)]) == 2
    assert "codebook phrases do not match" in capsys.readouterr().err
    stream.write_text("0 1 0 2 0")
    cb = tmp_path / "cb.json"
    cb.write_text(json.dumps({"phrases": [[0], [1, 0], [1, 1]],
                              "codewords": ["0", "10", "11"]}))
    assert cli.main(["encode", "--dict", files["complete"], "--codebook", str(cb),
                     "--in", str(stream), "--out", out]) == 2
    assert "stream symbol 2 outside alphabet of size 2" in capsys.readouterr().err


def test_encode_decode_bits_round_trip(files, tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes([0b01110010, 0b10000001]))
    cb_path = tmp_path / "cb.json"
    cli.main(
        ["codebook", "--dict", files["complete"], "--source", files["fair"],
         "--out", str(cb_path)]
    )
    cb_obj = json.loads(cb_path.read_text())["result"]
    cb_path.write_text(json.dumps(cb_obj))
    encoded = tmp_path / "s.vv"
    decoded = tmp_path / "back.bin"
    assert cli.main(
        ["encode", "--dict", files["complete"], "--codebook", str(cb_path),
         "--in", str(raw), "--bits", "--out", str(encoded)]
    ) == 0
    assert cli.main(
        ["decode", "--dict", files["complete"], "--codebook", str(cb_path),
         "--in", str(encoded), "--bits", "--out", str(decoded)]
    ) == 0
    assert decoded.read_bytes() == raw.read_bytes()


def test_simulate_command(files, capsys):
    code, rep = run_json(
        capsys,
        ["simulate", "--dict", files["complete"], "--source", files["fair"],
         "-n", "2000", "--seed", "7"],
    )
    assert code == 0
    assert rep["result"]["n_phrases"] == 2000
    assert abs(rep["result"]["z_lbar"]) < 4
    code = cli.main(
        ["simulate", "--dict", files["complete"], "--source", files["fair"],
         "-n", "500", "--histogram", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "word,count"


def test_simulate_histogram_sim_block_equals_simulate(files, capsys):
    base = ["simulate", "--dict", files["rl"], "--source", files["biased"],
            "-n", "6000", "--seed", "11"]
    code, plain = run_json(capsys, base)
    assert code == 0
    code, both = run_json(capsys, base + ["--histogram"])
    assert code == 0
    assert both["result"]["sim"] == plain["result"]
    counts = {tuple(e["word"]): e["count"] for e in both["result"]["histogram"]["entries"]}
    assert sum(counts.values()) == 6000
    assert sum(len(w) * c for w, c in counts.items()) == plain["result"]["total_symbols"]


def test_simulate_histogram_with_an_extension_word_past_width(files, capsys):
    # head 1000 lies past the default --width 64; the histogram pools it
    head = files["tmp"] / "head_1000.json"
    head.write_text(json.dumps({"kind": "lazy", "family": "head_extension", "head": 1000}))
    base = ["simulate", "--dict", str(head), "--source", files["geom"], "-n", "1000"]
    code, plain = run_json(capsys, base)
    assert code == 0
    code, both = run_json(capsys, base + ["--histogram"])
    assert code == 0
    assert both["result"]["sim"] == plain["result"]
    assert both["result"]["histogram"]["n_phrases"] == 1000


def test_verify_underflowing_word_probabilities(files, capsys):
    # P(b) = p * (1e-6)^b underflows to 0.0 from b = 54, inside the default
    # width 64; 0 * log2(0) counts as 0, not as a domain error
    skewed = files["tmp"] / "skewed.json"
    skewed.write_text(json.dumps({"kind": "geometric", "p": 0.999999}))
    code, rep = run_json(
        capsys, ["verify", "--dict", files["he"], "--source", str(skewed)]
    )
    assert code == 0
    assert rep["result"]["verdict"] == "pass"
    assert rep["result"]["residual"] < 1e-15


def test_verify_extension_of_underflowing_word(files, capsys):
    # head_extension(60): P(60) underflows to 0.0 under p = 0.999999
    skewed = files["tmp"] / "skewed.json"
    skewed.write_text(json.dumps({"kind": "geometric", "p": 0.999999}))
    he60 = files["tmp"] / "he60.json"
    he60.write_text(
        json.dumps({"kind": "lazy", "family": "head_extension", "head": 60})
    )
    code, rep = run_json(
        capsys, ["verify", "--dict", str(he60), "--source", str(skewed)]
    )
    assert code == 0
    assert rep["result"]["verdict"] == "pass"


def test_simulate_dead_dictionary_fails(files, capsys):
    code = cli.main(
        ["simulate", "--dict", files["zero"], "--source", files["fair"], "-n", "10"]
    )
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["simulate", "-n", "0"], "n_phrases must be >= 1"),
    (["simulate", "-n", "0", "--histogram"], "n_phrases must be >= 1"),
    (["scan", "--m-max", "0"], "m_max must be >= 1"),
    (["verify", "--depth", "0"], "--depth must be >= 1"),
    (["scan", "--width", "0"], "--width must be >= 1"),
])
def test_an_explicit_zero_is_refused_not_replaced_by_the_default(
    files, capsys, argv, message
):
    source = ["--dict", files["complete"], "--source", files["fair"]]
    assert cli.main([*argv, *source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"vvcode: {message}\n"


def test_a_config_without_a_count_runs_with_the_default(files, capsys):
    # RunConfig leaves n_phrases and m_max unset; the handlers fill them in
    for command, key, default in (("simulate", "n_phrases", cli.DEFAULT_PHRASES),
                                  ("scan", "rows", cli.DEFAULT_M_MAX)):
        config = cli.RunConfig(command=command, dict_path=files["complete"],
                               source_path=files["fair"])
        assert cli.run(config) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        got = result[key]
        assert (len(got) if key == "rows" else got) == default


@pytest.mark.parametrize("argv, message", [
    (["codebook", "--mode", "fixed"], "codebooks need a finite dictionary"),
    (["encode", "--codebook", "cb.json", "--in", "s.txt"],
     "encoding needs a finite dictionary"),
    (["decode", "--codebook", "cb.json", "--in", "s.vv"],
     "decoding needs a finite dictionary"),
])
def test_codec_commands_refuse_a_lazy_dictionary(files, capsys, argv, message):
    out = str(files["tmp"] / "out")
    assert cli.main([*argv, "--dict", files["rl"], "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"vvcode: {message}\n"
    assert not os.path.exists(out)


def test_missing_file_is_usage_error(files, capsys):
    assert cli.main(["verify", "--dict", "/nope.json",
                     "--source", files["fair"]]) == 2


def test_bad_tolerance_is_usage_error(files, capsys):
    assert cli.main(["verify", "--dict", files["complete"],
                     "--source", files["fair"], "--tol", "-1"]) == 2


@pytest.mark.parametrize("tol, message", [
    ("nan", "--tol must be finite"),
    ("inf", "--tol must be finite"),
    ("-inf", "--tol must be positive"),
])
def test_non_finite_tolerance_is_usage_error(files, tmp_path, capsys, tol, message):
    # NaN would be written as the report's "tol": NaN, which is not JSON
    out = tmp_path / "report.json"
    for command in ("verify", "check"):
        assert cli.main([command, "--dict", files["complete"], "--source",
                         files["fair"], f"--tol={tol}", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", f"vvcode: {message}\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "vvcode 0.1.0"


def test_out_file_writing(files, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(
        ["verify", "--dict", files["complete"], "--source", files["fair"],
         "--out", str(out)]
    ) == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["verdict"] == "pass"


# -- formats unit coverage ---------------------------------------------------


def test_source_loader_normalization(tmp_path):
    s = load_source({"kind": "finite", "probs": [0.5, 0.5 + 5e-10]})
    assert abs(sum(s.probs) - 1.0) <= 1e-15
    with pytest.raises(InputFormatError):
        load_source({"kind": "finite", "probs": [0.5, 0.5 + 5e-9]})
    with pytest.raises(InputFormatError):
        load_source({"kind": "finite", "probs": []})
    with pytest.raises(InputFormatError):
        load_source({"kind": "parametric"})
    with pytest.raises(InputFormatError):
        load_source({"kind": "geometric", "p": "x"})


def test_dictionary_loader_round_trip(complete_dict):
    again = load_dictionary(save_dictionary(complete_dict))
    assert again.words == complete_dict.words
    with pytest.raises(ImproperDictionaryError):
        load_dictionary(
            {"kind": "finite", "alphabet_size": 2, "words": [[0], [0, 1]]}
        )
    with pytest.raises(InputFormatError):
        load_dictionary({"kind": "lazy", "family": "mystery"})
    he = load_dictionary({"family": "head_extension", "head": 2})
    assert save_dictionary(he)["head"] == 2
    spec = {"kind": "lazy", "family": "run_length"}
    assert save_dictionary(load_dictionary(spec)) == spec


def test_codebook_loader_round_trip():
    obj = {"phrases": [[0], [1, 0], [1, 1]], "codewords": ["0", "10", "11"]}
    cb = load_codebook(obj)
    assert cb.codeword_for((1, 0)) == "10"
    with pytest.raises(InputFormatError):
        load_codebook({"phrases": [[0]], "codewords": ["0", "1"]})


def test_word_text_helpers():
    assert parse_word_text("110") == (1, 1, 0)
    assert parse_word_text("1,10,2") == (1, 10, 2)
    assert parse_word_text("  ") == ()
    assert word_to_text((1, 1, 0)) == "110"
    assert word_to_text((1, 10)) == "1,10"
    with pytest.raises(InputFormatError):
        parse_word_text("1x0")


def test_bit_stream_helpers(tmp_path):
    p = tmp_path / "bits.bin"
    write_bit_stream(p, [0, 1, 1, 1, 0, 0, 1, 0, 1])
    assert read_bit_stream(p) == [0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(InputFormatError):
        write_bit_stream(p, [0, 2])


def test_stream_text_helpers(tmp_path):
    p = tmp_path / "s.txt"
    write_stream_text(p, [3, 1, 2])
    assert read_stream_text(p) == [3, 1, 2]
    p.write_text("1 2 x")
    with pytest.raises(InputFormatError):
        read_stream_text(p)


def test_shipped_fixtures_load_and_verify(capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for name in ("fair", "biased", "geometric"):
        load_source(str(root / f"{name}.json"))
    for name in ("complete_dict", "zero_dict", "run_length", "head_extension"):
        load_dictionary(str(root / f"{name}.json"))
    code = cli.main(
        ["verify", "--dict", str(root / "run_length.json"),
         "--source", str(root / "fair.json"), "--depth", "64", "--tol", "1e-9"]
    )
    capsys.readouterr()
    assert code == 0


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def pinned_csv_cases():
    """(argv, the CSV report in fixtures/reports that it writes)."""
    for d, s in (("complete_dict", "fair"), ("run_length", "biased")):
        for cmd, extra in (("verify", []), ("measure", []), ("scan", ["--m-max", "20"])):
            argv = [cmd, "--dict", f"{FIXTURES}/{d}.json", "--source", f"{FIXTURES}/{s}.json"]
            yield pytest.param(argv + extra, f"{cmd}_{d}_{s}.csv", id=f"{cmd}_{d}_{s}")
    argv = ["scan", "--dict", f"{FIXTURES}/reports/tunstall_64_biased.json",
            "--source", f"{FIXTURES}/biased.json", "--m-max", "8"]
    yield pytest.param(argv, "scan_tunstall_64_biased.csv", id="scan_tunstall_64_biased")


@pytest.mark.parametrize("argv, pinned", pinned_csv_cases())
def test_csv_is_built_only_under_format_csv(monkeypatch, capsys, argv, pinned):
    calls = count_calls(monkeypatch, "report_csv")
    hist_calls = count_calls(monkeypatch, "histogram_csv")
    code, rep = run_json(capsys, argv)
    assert rep["config"]["format"] == "json"
    assert calls == [] and hist_calls == []
    assert cli.main(argv + ["--format", "csv"]) == code
    with open(f"{FIXTURES}/reports/{pinned}", encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
    assert len(calls) == 1 and hist_calls == []


@pytest.mark.parametrize("histogram", [False, True])
def test_simulate_builds_csv_only_under_format_csv(monkeypatch, capsys, histogram):
    calls = count_calls(monkeypatch, "report_csv")
    hist_calls = count_calls(monkeypatch, "histogram_csv")
    argv = ["simulate", "--dict", f"{FIXTURES}/complete_dict.json",
            "--source", f"{FIXTURES}/fair.json", "-n", "1000"]
    argv += ["--histogram"] * histogram
    code, _ = run_json(capsys, argv)
    assert code == 0 and calls == [] and hist_calls == []
    assert cli.main(argv + ["--format", "csv"]) == 0
    pinned = f"simulate_{'histogram_' * histogram}complete_dict_fair.csv"
    with open(f"{FIXTURES}/reports/{pinned}", encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
    assert (len(calls), len(hist_calls)) == ((0, 1) if histogram else (1, 0))


# -- typed loader errors and report envelopes --------------------------------


@pytest.mark.parametrize("spec", [
    {"kind": "finite", "alphabet_size": 2, "words": [[0, 5]]},
    {"kind": "finite", "alphabet_size": 2, "words": [[0], [0]]},
    {"kind": "finite", "alphabet_size": 2, "words": [[]]},
    {"kind": "finite", "alphabet_size": 2, "words": []},
    {"kind": "finite", "alphabet_size": -1, "words": [[0]]},
    {"kind": "finite", "alphabet_size": True, "words": [[0]]},
    {"kind": "finite", "alphabet_size": 2, "words": [[0.5]]},
    {"kind": "finite", "alphabet_size": 2, "words": [[True], [False]]},
    {"kind": "finite", "alphabet_size": 2, "words": ["01"]},
    {"kind": "lazy", "family": "head_extension", "head": True},
], ids=["out-of-range", "duplicate", "empty-word", "no-words", "negative-k",
        "bool-k", "float-symbol", "bool-symbols", "string-word", "bool-head"])
def test_dictionary_loader_rejects_with_input_format_error(spec):
    with pytest.raises(InputFormatError):
        load_dictionary(spec)


@pytest.mark.parametrize("spec", [
    {"kind": "finite", "probs": [1e308, 1e308]},
    {"kind": "finite", "probs": ["inf", "-inf"]},
    {"kind": "finite", "probs": ["nan", "nan"]},
    {"kind": "finite", "probs": [10**400]},
    {"kind": "finite", "probs": [True]},
    {"kind": "finite", "probs": [[0.5], [0.5]]},
    {"kind": "geometric", "p": 10**400},
    {"kind": "geometric", "p": None},
    {"kind": "geometric", "p": True},
    {"kind": "geometric", "p": 1.5},
], ids=["overflow-sum", "inf-minus-inf", "nan", "huge-int", "bool", "nested",
        "huge-p", "missing-p", "bool-p", "p-above-one"])
def test_source_loader_rejects_with_input_format_error(spec):
    with pytest.raises(InputFormatError):
        load_source(spec)


@pytest.mark.parametrize("spec", [
    {"phrases": [[0.5]], "codewords": ["0"]},
    {"phrases": [[0], [1]], "codewords": [0, 1]},
    {"phrases": [{"a": 1}], "codewords": ["0"]},
    {"phrases": [[0], [1]], "codewords": ["0", "0"]},
])
def test_codebook_loader_rejects_with_input_format_error(spec):
    with pytest.raises(InputFormatError):
        load_codebook(spec)


def test_measure_of_overflowing_source_is_usage_error(files, capsys):
    path = files["tmp"] / "huge.json"
    path.write_text('{"kind": "finite", "probs": [1e308, 1e308]}')
    code = cli.main(["measure", "--dict", files["complete"], "--source", str(path)])
    assert code == 2
    assert "vvcode:" in capsys.readouterr().err


def test_invalid_utf8_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(InputFormatError):
        load_source(str(path))


def test_loaders_unwrap_report_envelopes(complete_dict):
    def envelope(result):
        return {"format_version": 1, "tool": "vvcode", "config": {}, "result": result}

    d = load_dictionary(envelope(save_dictionary(complete_dict)))
    assert d.words == complete_dict.words
    cb = load_codebook(envelope({"phrases": [[0], [1]], "codewords": ["0", "1"]}))
    assert cb.codeword_for((1,)) == "1"
    s = load_source(envelope({"kind": "geometric", "p": 0.25}))
    assert s.p == 0.25
    with pytest.raises(InputFormatError):
        load_dictionary(envelope([1, 2]))


def test_report_files_chain_through_the_codec(files, tmp_path, capsys):
    paths = {name: str(tmp_path / name) for name in
             ("d.json", "cb.json", "s.vv", "back.txt")}
    stream = tmp_path / "stream.txt"
    write_stream_text(stream, [0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1])
    steps = [
        ["tunstall", "--source", files["biased"], "--size", "8",
         "--out", paths["d.json"]],
        ["codebook", "--dict", paths["d.json"], "--source", files["biased"],
         "--out", paths["cb.json"]],
        ["encode", "--dict", paths["d.json"], "--codebook", paths["cb.json"],
         "--in", str(stream), "--out", paths["s.vv"]],
        ["decode", "--dict", paths["d.json"], "--codebook", paths["cb.json"],
         "--in", paths["s.vv"], "--out", paths["back.txt"]],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    with open(paths["d.json"]) as f:
        assert json.load(f)["tool"] == "vvcode"
    assert read_stream_text(paths["back.txt"]) == read_stream_text(stream)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
SYMBOLS = st.integers(-2, 5) | st.booleans() | st.floats(-1, 5)
WORD_LISTS = st.lists(st.lists(SYMBOLS, max_size=4) | JSON_VALUES, max_size=5)
# spec-shaped objects, so that the fuzz reaches past the first key checks
SPECS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["finite", "geometric", "lazy"]) | JSON_VALUES,
    "probs": st.lists(st.floats() | st.integers() | st.text(max_size=6)
                      | st.booleans(), max_size=4) | JSON_VALUES,
    "p": st.floats() | st.integers() | JSON_VALUES,
    "alphabet_size": st.integers(-2, 4) | JSON_VALUES,
    "words": WORD_LISTS,
    "phrases": WORD_LISTS,
    "codewords": st.lists(st.text(alphabet="01x", max_size=4) | JSON_VALUES,
                          max_size=5) | JSON_VALUES,
    "family": st.sampled_from(["run_length", "head_extension"]) | JSON_VALUES,
    "head": st.integers(-2, 10**20) | JSON_VALUES,
    "tool": st.just("vvcode"),
    "result": JSON_VALUES,
})


@given(spec=SPECS | JSON_VALUES.filter(lambda v: not isinstance(v, str)))
@settings(max_examples=200, deadline=None)
def test_loaders_fuzz_raise_only_typed_errors(spec):
    # a string spec names a file, so strings are fuzzed through the
    # JSON file test below
    for load in (load_source, load_dictionary, load_codebook):
        try:
            load(spec)
        except VVCodeError:
            pass


@given(value=JSON_VALUES | SPECS)
@settings(max_examples=60, deadline=None)
def test_loaders_fuzz_json_files(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        for load in (load_source, load_dictionary, load_codebook):
            try:
                load(path)
            except VVCodeError:
                pass


# -- fail-fast checks and repeated calls -------------------------------------


@pytest.mark.parametrize("command, message", [
    ("encode", "encode needs --out for the binary stream"),
    ("decode", "decode needs --out for the recovered stream"),
])
def test_codec_without_out_fails_before_reading(files, tmp_path, capsys,
                                                 command, message):
    # the input does not exist, so only a check made before reading it
    # can report the missing --out
    cb = tmp_path / "cb.json"
    cb.write_text(json.dumps({"phrases": [[0], [1, 0], [1, 1]],
                              "codewords": ["0", "10", "11"]}))
    missing = str(tmp_path / "no_such_input")
    assert cli.main([command, "--dict", files["complete"], "--codebook",
                     str(cb), "--in", missing]) == 2
    assert capsys.readouterr().err == f"vvcode: {message}\n"


def test_main_keeps_no_state_between_calls(files, capsys):
    # perfbench and these tests call main many times in one process
    verify = ["verify", "--dict", files["complete"], "--source", files["fair"]]
    assert cli.main([*verify, "--format", "csv", "--depth", "5"]) == 0
    assert capsys.readouterr().out.startswith("verdict,")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--dict", files["complete"], "--depth", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, rep = run_json(capsys, verify)
    assert code == 0
    assert rep["config"]["format"] == "json"
    assert rep["config"]["depth"] == cli.DEFAULT_DEPTH


def subparsers(root):
    (commands,) = [a for a in root._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_is_what_the_default_formatter_prints(monkeypatch, columns):
    # build_parser reads the terminal width once for all its formatters
    monkeypatch.setenv("COLUMNS", columns)
    root = cli.build_parser()
    for parser in (root, *subparsers(root).values()):
        text = parser.format_help()
        parser.formatter_class = argparse.HelpFormatter
        assert text == parser.format_help()


# -- each subcommand takes only the options its handler reads ----------------

SUBCOMMAND_OPTIONS = {
    "check": "--dict --source --depth --tol --out",
    "truncate": "--dict --depth --width --out",
    "extend": "--dict --word --out",
    "cone": "--dict --word --depth --width --out",
    "measure": "--dict --source --depth --out --format",
    "verify": "--dict --source --depth --tol --out --format",
    "scan": "--dict --source --width --out --format --m-max",
    "tunstall": "--source --out --size",
    "codebook": "--dict --source --out --mode",
    "encode": "--dict --codebook --in --bits --out",
    "decode": "--dict --codebook --in --bits --out",
    "simulate": "--dict --source --depth --width --seed --out --format "
                "-n --phrases --histogram",
}
# the fewest arguments each subcommand parses with
REQUIRED_ARGS = {
    "check": "--dict d.json",
    "truncate": "--dict d.json",
    "extend": "--dict d.json --word 0",
    "cone": "--dict d.json --word 0",
    "measure": "--dict d.json --source s.json",
    "verify": "--dict d.json --source s.json",
    "scan": "--dict d.json --source s.json",
    "tunstall": "--source s.json --size 4",
    "codebook": "--dict d.json",
    "encode": "--dict d.json --codebook c.json --in x.txt",
    "decode": "--dict d.json --codebook c.json --in x.vv",
    "simulate": "--dict d.json --source s.json",
}
REPORT_OPTIONS = {"--depth": "3", "--width": "3", "--tol": "0.5", "--seed": "7",
                  "--format": "csv"}
UNTAKEN = [(name, flag) for name, opts in SUBCOMMAND_OPTIONS.items()
           for flag in REPORT_OPTIONS if flag not in opts.split()]


@pytest.mark.parametrize("name", SUBCOMMAND_OPTIONS)
def test_subcommand_option_set(name):
    parser = subparsers(cli.build_parser())[name]
    got = [s for a in parser._actions for s in a.option_strings
           if a.dest != "help"]
    assert got == SUBCOMMAND_OPTIONS[name].split()


def test_the_parser_has_60_options():
    commands = subparsers(cli.build_parser())
    assert list(commands) == list(SUBCOMMAND_OPTIONS)
    assert sum(a.dest != "help" for p in commands.values() for a in p._actions) == 60
    assert len(UNTAKEN) == 43


@pytest.mark.parametrize("name, flag", UNTAKEN)
def test_an_option_the_handler_does_not_read_is_refused(capsys, name, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, *REQUIRED_ARGS[name].split(), flag, REPORT_OPTIONS[flag]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {REPORT_OPTIONS[flag]}" in err
    # the subcommand's usage line, which lists the flags it does take
    assert err.startswith(f"usage: vvcode {name} [-h] ")
    assert f"\nvvcode {name}: error: unrecognized arguments: " in err


def test_reports_echo_the_defaults_of_options_not_taken(files, capsys):
    defaults = {"depth": 64, "width": 64, "tol": 1e-9, "seed": 42, "format": "json"}
    for argv in (["tunstall", "--source", files["fair"], "--size", "4"],
                 ["extend", "--dict", files["complete"], "--word", "0"]):
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert {k: rep["config"][k] for k in defaults} == defaults


@pytest.mark.parametrize("name", [n for n, opts in SUBCOMMAND_OPTIONS.items()
                                  if "--format" not in opts.split()])
def test_csv_on_a_subcommand_without_format_is_refused(name):
    # argparse refuses --format there; a RunConfig built in code is refused
    # by validate, before any file is read
    with pytest.raises(ValueError, match=f"^{name} writes no CSV"):
        cli.run(cli.RunConfig(command=name, source_path="no_such.json",
                              dict_path="no_such.json", size=4, format="csv"))


def test_csv_on_a_subcommand_with_format_is_accepted():
    for name in ("measure", "verify", "scan", "simulate"):
        cli.RunConfig(command=name, format="csv").validate()
    with pytest.raises(ValueError, match="unknown command 'nope'"):
        cli.run(cli.RunConfig(command="nope", format="csv"))


# -- one call builds one subparser -------------------------------------------

FLAG_VALUES = {"--dict": "d.json", "--source": "s.json", "--word": "1,0",
               "--codebook": "c.json", "--in": "x.txt", "--bits": None,
               "--depth": "3", "--width": "5", "--tol": "0.5", "--seed": "7",
               "--out": "o.json", "--format": "csv", "--m-max": "9",
               "--size": "8", "--mode": "fixed", "-n": "11", "--phrases": "13",
               "--histogram": None}


def every_flag(name):
    argv = [name]
    for flag in SUBCOMMAND_OPTIONS[name].split():
        argv += [flag] if FLAG_VALUES[flag] is None else [flag, FLAG_VALUES[flag]]
    return argv


@pytest.mark.parametrize("name", SUBCOMMAND_OPTIONS)
def test_one_subparser_parses_like_the_full_parser(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one, full = cli.build_parser(name), cli.build_parser()
    assert list(subparsers(one)) == [name]
    for argv in ([name, *REQUIRED_ARGS[name].split()], every_flag(name)):
        assert one.parse_args(argv) == full.parse_args(argv)
    assert (subparsers(one)[name].format_help()
            == subparsers(full)[name].format_help())


SUBCOMMAND_HELP = {
    "check": "properness / completeness / ASC certification",
    "truncate": "frontier sets T_n, D_n_perp, D_n",
    "extend": "single-word extension D[alpha]",
    "cone": "dictionary words with a given prefix",
    "measure": "interval measures H(D), lbar(D)",
    "verify": "conservation check H(D) = H(P) lbar(D)",
    "scan": "truncation series H(D_m), lbar(D_m)",
    "tunstall": "greedy parsing dictionary for a finite source",
    "codebook": "phrase codebook for a dictionary",
    "encode": "encode a symbol stream",
    "decode": "decode an encoded stream",
    "simulate": "Monte Carlo phrase sampling",
}


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0),
    (["--help", "verify"], 0),
    (["--version"], 0),
    ([], 2),
    (["bogus", "--depth", "5"], 2),
    (["--bogus", "verify", "--dict", "d.json", "--source", "s.json"], 2),
])
def test_root_output_is_the_full_parsers(monkeypatch, capsys, argv, code):
    # a call that does not start with a subcommand builds the full parser and
    # prints what argparse's parse_args prints for it; argparse's wording and
    # layout differ between Python releases, so they are not pinned here
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == code
    assert printed == capsys.readouterr()
    assert printed.out or printed.err.startswith("usage: vvcode [-h] [--version]")


def test_root_help_lists_every_subcommand(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    out = capsys.readouterr().out
    assert out.startswith("usage: vvcode [-h] [--version]")
    assert "{" + ",".join(SUBCOMMAND_HELP) + "}" in out
    assert "\nVariable-to-variable length source coding toolkit\n" in out
    for name, help_text in SUBCOMMAND_HELP.items():
        assert re.search(rf"^ +{name} +{re.escape(help_text)}$", out, re.M)
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    assert capsys.readouterr().out == f"vvcode {cli.__version__}\n"


def test_a_subcommand_call_builds_one_subparser(files, monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert cli.main(["simulate", "--dict", files["complete"], "--source",
                     files["fair"], "-n", "100", "--histogram"]) == 0
    assert built == ["simulate"]
    capsys.readouterr()
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    assert built == list(SUBCOMMAND_OPTIONS)
