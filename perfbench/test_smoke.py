"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

It lives outside the repository's ``tests/`` tree, so the regular suite
does not collect it. Each run takes a few seconds; the seed-42 run replays
the full-size frozen fixtures and takes about fifteen.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "0.01"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_names_match_benchmark_json(workload, trace):
    result = result_of(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_traced_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        metrics = result_of(run_bench(ROOT, "stream", 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["rng.draws"] > 0


def test_seed_42_replays_frozen_fixtures():
    out = run_bench(ROOT, "certify", 0, seed=42)
    result = result_of(out)
    assert result["correct"] and result["failed"] == 0
    detail = json.loads(out.stdout.splitlines()[-2])["detail"]
    defects = detail["known_defects"]
    assert defects["verify head_extension(0) geometric(0.999999)"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "stream", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
