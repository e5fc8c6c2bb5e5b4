"""vvcode benchmark.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 58 --trace 0

Builds nothing: it imports vvcode from ``src/`` next to this directory and
exits with code 2, printing no result, when that source tree is missing.

``--trace 0`` runs every measured case in turn (each workload must report
every end-to-end metric) and prints the end-to-end metrics; a case's time
comes from its times in all the run's rounds (``run_time``). ``--trace 1``
runs only the cases of the workload's groups, alternating traced and
untraced rounds, and prints the per-layer metrics; the tracing overhead is
the traced case times over the untraced ones, minus 1. The last line of
stdout is the result; the line before it is a JSON record of the host,
the versions, the commit, the sample counts and the host-speed probe.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# workload -> the case groups its traced run covers
WORKLOADS = {"stream": ("codec", "montecarlo"), "certify": ("certify",)}

MIN_ROUNDS = 3
RNG_BLOCK_DRAWS = 100_000
SAMPLER_BLOCK_DRAWS = 50_000


def host_probe() -> float:
    """Fixed pure-Python loop; its time tracks the host's speed phases.

    Recorded next to the metrics as a diagnostic, never used to scale them.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, results):
        for label, error in results:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{label}: {error}")


def execute(case, tally, tracer=None):
    """Time one run of a case, then check it; None if it raised.

    A full collection before the run leaves the collector in the same
    state each time, so the collections that fall inside the timed run
    are the case's own, the same ones in every round.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        with tracer.span(case.metric) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            out = case.run()
            dt = time.perf_counter() - t0
    except Exception as exc:  # a failed operation, not a crash
        tally.record([(case.metric, f"raised {type(exc).__name__}: {exc}")])
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        tally.record(case.check(out))
    except Exception as exc:
        tally.record([(case.metric, f"check raised {type(exc).__name__}: {exc}")])
        return None
    return dt


def settle():
    """Freeze what lives for the whole run (inputs, references, the
    program's lazy tables), so the collection before each run scans only
    what the cases allocate."""
    gc.collect()
    gc.freeze()


def run_time(times):
    """A case's time in a run: the geometric mean of its fastest and its
    mean time over the run's rounds.

    A shared host runs the same code up to twice as slow at times, in
    phases of a few seconds, in a fine-grained jitter or with a floor that
    sinks for minutes. The fastest time tracks the code on a quiet core
    but moves when a whole run finds none; the mean tracks the run's
    throughput but moves with the share of slow time. They fail in
    different regimes, and their geometric mean moved least from run to
    run (README.md, Noise). Both scale with the code's speed, so it does
    too.
    """
    return math.sqrt(min(times) * statistics.fmean(times))


def sample_stats(values):
    """Sample count, median and the highest percentile with ten samples
    beyond it (omitted below eleven samples)."""
    out = {"n": len(values), "values": [float(f"{v:.6g}") for v in values]}
    if values:
        out["median"] = statistics.median(values)
    if len(values) >= 11:
        ordered = sorted(values)
        out[f"p{100 * (len(values) - 10) // len(values)}"] = ordered[-11]
    return out


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vvcode").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def measure(bench, args, tally, probes):
    cases = bench.cases()
    for case in cases:  # warm-up: imports, lazy tables
        execute(case, tally)
        settle()
    samples = {c.metric: [] for c in cases}
    samples["setup_s"] = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        probes.append([])
        gc.collect()
        t0 = time.perf_counter()
        bench.setup()
        samples["setup_s"].append(time.perf_counter() - t0)
        for case in cases:
            probes[-1].append(host_probe())
            dt = execute(case, tally)
            if dt is not None:
                samples[case.metric].append(dt)
        rounds += 1
    metrics = {}
    for case in cases:
        t = run_time(samples[case.metric]) if samples[case.metric] else 0.0
        if case.million_units is None:
            metrics[case.metric] = t
        else:
            metrics[case.metric] = case.million_units / t if t else 0.0
    metrics["setup_s"] = run_time(samples["setup_s"])
    return metrics, samples, rounds


def measure_traced(bench, workload, args, tally, probes):
    import vvcode
    from vvcode.rng import XorShift64Star

    import layers
    from tracing import Tracer

    modules = [vvcode] + [m for name, m in sorted(sys.modules.items())
                          if name.startswith("vvcode.")]
    tracer = Tracer(modules)
    layers.install(tracer)
    cases = [c for c in bench.cases() if c.group in WORKLOADS[workload]]
    for case in cases:
        execute(case, tally)
        settle()
    o = bench.o

    def rng_block():
        next_float = XorShift64Star(bench.seed).next_float
        t0 = time.perf_counter()
        for _ in range(RNG_BLOCK_DRAWS):
            next_float()
        return RNG_BLOCK_DRAWS / (time.perf_counter() - t0)

    def sampler_block():
        t0 = time.perf_counter()
        o.biased.sample_stream(bench.seed, SAMPLER_BLOCK_DRAWS)
        o.geometric.sample_stream(bench.seed, SAMPLER_BLOCK_DRAWS)
        return time.perf_counter() - t0

    traced = {c.metric: [] for c in cases}
    plain = {c.metric: [] for c in cases}
    per_round = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < 2 * MIN_ROUNDS or time.perf_counter() < deadline:
        on = rounds % 2 == 0
        before = tracer.snapshot()
        probes.append([])
        for case in cases:
            probes[-1].append(host_probe())
            dt = execute(case, tally, tracer if on else None)
            if dt is not None:
                (traced if on else plain)[case.metric].append(dt)
        if on:
            m = layers.round_metrics(*Tracer.delta(before, tracer.snapshot()))
            m["rng.draws_per_s"] = rng_block()
            m["source.sample_s"] = sampler_block()
            per_round.append(m)
        rounds += 1
    # median_low: a count stays the integer it is in every round
    metrics = {name: statistics.median_low(r[name] for r in per_round)
               for name in per_round[0]}
    overhead = {}
    for case in cases:
        if traced[case.metric] and plain[case.metric]:
            t = run_time(traced[case.metric])
            u = run_time(plain[case.metric])
            overhead[case.metric] = {"traced_s": t, "untraced_s": u,
                                     "frac": t / u - 1.0}
    metrics["trace.overhead_frac"] = (
        statistics.median(v["frac"] for v in overhead.values()) if overhead else 0.0
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{bench.seed}.json"
    tracer.write_spans(spans_path)
    extra = {"overhead": overhead, "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    samples = {f"{k} (traced)": v for k, v in traced.items()}
    samples.update({f"{k} (untraced)": v for k, v in plain.items()})
    return metrics, samples, rounds, extra


def run(args, workdir: Path):
    import workloads

    tally = Tally()
    probes = []
    bench = workloads.Bench(args.seed, args.scale, workdir)
    bench.prepare(bench.setup())
    settle()  # again after the warm-up, which imports and builds tables

    extra = {}
    if args.trace:
        metrics, samples, rounds, extra = measure_traced(
            bench, args.workload, args, tally, probes)
    else:
        metrics, samples, rounds = measure(bench, args, tally, probes)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        metrics["peak_rss_mib"] = rss_kib / 1024
    if args.seed == workloads.PINNED_SEED:
        tally.record(bench.pinned_checks())

    flat = [p for r in probes for p in r]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in declared[group]}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": args.scale,
        "rounds": rounds,
        "host": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
        },
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "sizes": {"codec_symbols": bench.n_codec, "mc_phrases": bench.n_mc,
                  "corpus_dictionaries": len(bench.corpus_words),
                  "tunstall_size": bench.tunstall_size},
        "samples_s": {k: sample_stats(v) for k, v in samples.items()},
        "host_probe_ms": {
            "n": len(flat),
            "median": statistics.median(flat) * 1e3,
            "min": min(flat) * 1e3,
            "max": max(flat) * 1e3,
            "round_medians": [round(statistics.median(r) * 1e3, 3) for r in probes],
        },
        "ops_failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        "known_defects": {k: dict(v) for k, v in bench.defects.items()},
        "failures": tally.failures,
        **extra,
    }
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor; the smoke test runs at 0.01")
    args = p.parse_args(argv)

    if not (SRC / "vvcode" / "__init__.py").is_file():
        print(f"perfbench: no vvcode sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("VVCODE_THREADS", None)  # single-threaded simulation
    sys.path.insert(0, str(SRC))
    import vvcode

    if Path(vvcode.__file__).resolve().parent != SRC / "vvcode":
        print(f"perfbench: imported vvcode from {vvcode.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        detail, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
