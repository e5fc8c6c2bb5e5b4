"""CLI surface: exit codes, report envelopes, file formats, round-trips."""

import json

import pytest

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
from vvcode.errors import ImproperDictionaryError, InputFormatError


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


def test_missing_file_is_usage_error(files, capsys):
    assert cli.main(["verify", "--dict", "/nope.json",
                     "--source", files["fair"]]) == 2


def test_bad_tolerance_is_usage_error(files, capsys):
    assert cli.main(["verify", "--dict", files["complete"],
                     "--source", files["fair"], "--tol", "-1"]) == 2


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


def test_codebook_loader_round_trip():
    obj = {"phrases": [[0], [1, 0], [1, 1]], "codewords": ["0", "10", "11"]}
    cb = load_codebook(obj)
    assert cb.codeword_for((1, 0)) == "10"
    with pytest.raises(InputFormatError):
        load_codebook({"phrases": [[0]], "codewords": ["0", "1"]})


def test_word_text_helpers():
    assert parse_word_text("110") == (1, 1, 0)
    assert parse_word_text("1,10,2") == (1, 10, 2)
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
