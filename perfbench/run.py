#!/usr/bin/env python3
"""qcdesign benchmark: end-to-end and per-layer timing of the CLI.

Run from the root of a qcdesign checkout:

    python3 perfbench/run.py --workload design --seed 12345 --seconds 30 --trace 0

One load-generating process calls ``qcdesign.cli.main`` in a closed loop
with one client. A pass is one workload's list of command calls; passes
repeat until ``--seconds`` would be exceeded (at least five). The last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``. See perfbench/README.md for the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import END, INFO, LAYERS, NAME, PROBES, REPORT_SPANS, START, Tracer, p50, quantile
from workloads import DEFAULT_SEED, WORKLOADS, program_seed

COMPARE_ONLY = [p for p in PROBES if p[0] == "stats.compare_procedures"]
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 11
MIN_PASSES = 5
NORMAL_DRAWS = 50_000  # per timed chunk of the next_normal microbenchmark
NORMAL_CHUNKS = 5

# Set-up as a user pays it: a fresh interpreter importing the CLI, loading
# the workload config and computing the assay's critical errors.
SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import qcdesign.cli
t1 = time.perf_counter()
from qcdesign.config import load_config
from qcdesign.error_model import critical_errors
cfg = load_config(sys.argv[1])
t2 = time.perf_counter()
critical_errors(cfg.assay)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "critical_s": t3 - t2}))
"""


@dataclass
class Pass:
    """One pass of a workload: its wall time and each call's outcome."""

    wall: float
    codes: list
    digests: list


def measure_setup(config_path: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_SNIPPET, str(config_path)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def call_cli(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed call, not a failed benchmark
        traceback.print_exc()
        return 1


def run_pass(workload, work: Path, config_path: Path, seed: int, threads: int) -> Pass:
    from qcdesign.cli import main

    outs = [work / f"report_{i}" for i in range(len(workload.commands))]
    for out in outs:
        out.unlink(missing_ok=True)
    argvs = [
        workload.argv(str(config_path), seed, threads, str(out), i)
        for i, out in enumerate(outs)
    ]
    start = time.perf_counter()
    codes = [call_cli(main, argv) for argv in argvs]
    wall = time.perf_counter() - start
    digests = [
        hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        for out in outs
    ]
    return Pass(wall, codes, digests)


def count_failures(passes, reference) -> tuple:
    """(attempted, failed): a call fails on a non-zero exit or on report
    bytes that differ from the reference digest of its position."""
    attempted = failed = 0
    for p in passes:
        for i, (code, digest) in enumerate(zip(p.codes, p.digests)):
            attempted += 1
            ref = reference[i] if i < len(reference) else None
            if code != 0 or digest is None or digest != ref:
                failed += 1
    return attempted, failed


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def reference_digests(workload_name: str, seed: int, first: Pass):
    """Frozen digests at the default seed; otherwise the first pass's bytes."""
    entry = load_golden()[workload_name]
    return entry["digests"] if seed == entry["seed"] else first.digests


def check_golden(workload, work: Path, check_path: Path) -> tuple:
    """(attempted, failed) of the untimed golden check: the workload's
    commands on a shrunken config at the default seed, whose digests are
    frozen, so the output is checked whatever seed the run uses."""
    check = run_pass(workload, work, check_path, DEFAULT_SEED, workload.threads)
    return count_failures([check], load_golden()[workload.name]["check"])


def peak_rss_mb(workers: int) -> float:
    # ru_maxrss is in KiB on Linux. The children's figure is the largest
    # single child, so a pool of `workers` processes is charged that many
    # times: an upper bound on the tree's concurrent peak.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def normal_ns(seed: int) -> float:
    from qcdesign.rng import new_stream

    draw = new_stream(seed, 0).next_normal
    chunks = []
    for _ in range(NORMAL_CHUNKS):
        start = time.perf_counter_ns()
        for _ in range(NORMAL_DRAWS):
            draw()
        chunks.append((time.perf_counter_ns() - start) / NORMAL_DRAWS)
    return statistics.median(chunks)


def slow_pass(walls) -> float:
    """The 90th percentile of pass times.

    On a shared host the CPU alternates, over seconds to minutes, between a
    contended state and one up to 1.5x faster. A median of the passes lands
    in either state from run to run; the 90th percentile stays in the
    contended one whenever a run spends a tenth of its time there.
    """
    return statistics.quantiles(walls, n=10, method="inclusive")[8]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, work, config_path, seed, setup):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, work, config_path, seed, workload.threads))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    reference = reference_digests(workload.name, seed, passes[0])
    attempted, failed = count_failures(passes, reference)
    walls = [p.wall for p in passes]
    wall = slow_pass(walls)
    print(f"# {workload.name}: {len(passes)} passes of {len(workload.commands)} "
          f"call(s); setup samples {len(setup)}; pass walls "
          + " ".join(f"{w:.4f}" for w in walls))
    metrics = {
        "setup_s": metric(statistics.median(sum(s.values()) for s in setup), "s"),
        "wall_s": metric(wall, "s"),
        "scored_per_s": metric(workload.scorings / wall, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(workload.workers), "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "frac"),
    }
    return attempted, failed, metrics, []


def compare_pass(workload, work, config_path, seed, threads) -> tuple:
    """A pass with only compare_procedures spanned: (pass, seconds in it,
    CPU seconds of the pass with its workers)."""
    timer = Tracer(COMPARE_ONLY, count_draws=False).install()
    cpu = os.times()
    try:
        result = run_pass(workload, work, config_path, seed, threads)
    finally:
        after = os.times()
        timer.uninstall()
    # user and system time of this process and of its reaped children
    cpu_s = sum(after[:4]) - sum(cpu[:4])
    return result, sum(timer.durations("stats.compare_procedures")), cpu_s


def traced(args, workload, work, config_path, seed, setup):
    stats = {"1p": 0.0, "2p": 0.0, "cpu2p": 0.0}
    if workload.workers:
        # Spans recorded inside pool workers would be lost, so the traced
        # pass runs with one process; two side passes time only the
        # compare_procedures call, at one and at two processes.
        threads = 1
        untraced, stats["1p"], _ = compare_pass(workload, work, config_path, seed, 1)
        two, stats["2p"], stats["cpu2p"] = compare_pass(workload, work, config_path, seed, 2)
        side = [untraced, two]
    else:
        threads = workload.threads
        untraced = run_pass(workload, work, config_path, seed, threads)
        side = [untraced]
    tracer = Tracer().install()
    try:
        traced_pass = run_pass(workload, work, config_path, seed, threads)
    finally:
        tracer.uninstall()
    passes = side + [traced_pass]
    reference = reference_digests(workload.name, seed, passes[0])
    attempted, failed = count_failures(passes, reference)

    m = {"rng.normal_ns": metric(normal_ns(seed), "ns")}
    m.update(layer_metrics(tracer, traced_pass.wall, untraced.wall, stats, setup))
    problems = []
    if m["rng.draws_max_frac"]["value"] >= 1.0:
        problems.append("a stream drew STREAM_JUMP or more uniforms")
    if not 0.95 <= m["trace.self_sum_frac"]["value"] <= 1.0 + 1e-9:
        problems.append("layer self times do not sum to the traced wall time")
    if tracer.missing:
        print("# probes not installed: " + " ".join(tracer.missing))
    write_spans(workload.name, seed, tracer.spans)
    print(f"# {workload.name} traced: wall_s {traced_pass.wall:.4f} "
          f"(untraced {untraced.wall:.4f}); {len(tracer.spans)} spans; "
          f"simulator.share {m['simulator.share']['value']:.4f}")
    return attempted, failed, m, problems


def layer_metrics(tracer, wall, untraced_wall, stats, setup) -> dict:
    from qcdesign.rng import STREAM_JUMP

    def duration(span):
        return span[END] - span[START]

    def us(name):
        return p50(tracer.durations(name)) * 1e6

    estimates = [s for s in tracer.spans if s[NAME] == "simulator.estimate_performance"]
    est_durations = [duration(s) for s in estimates]
    ga_sims = [s for s in estimates if tracer.has_ancestor(s, "ga.evaluate")]
    in_generations = sum(
        duration(s) for s in estimates if tracer.has_ancestor(s, "ga.crowding_generation")
    )
    evaluate_calls = len(tracer.durations("ga.evaluate"))
    by_condition = {c: [0.0, 0, 0] for c in ("in_control", "random", "systematic")}
    for s in tracer.spans:
        if s[NAME] == "simulator.simulate_condition":
            key, runs, rejected = s[INFO]
            acc = by_condition[key]
            acc[0] += duration(s)
            acc[1] += runs
            acc[2] += rejected
    self_times = tracer.self_times()

    m = {
        "rng.draws": metric(tracer.draws, "count"),
        "rng.restore_draws": metric(tracer.restore_draws, "count"),
        "rng.draws_max_frac": metric(
            max(tracer.max_draws.values(), default=0) / STREAM_JUMP, "frac"
        ),
        "simulator.draw_pools_s": metric(
            sum(tracer.durations("simulator.draw_condition_pools")), "s"
        ),
    }
    for key, (busy, runs, _) in by_condition.items():
        m[f"simulator.runs_per_s.{key}"] = metric(runs / busy if busy else 0.0, "1/s")
    m["simulator.estimate_s.p50"] = metric(p50(est_durations), "s")
    m["simulator.estimate_s.p90"] = metric(quantile(est_durations, 0.9), "s")
    m["simulator.estimate_calls"] = metric(len(estimates), "count")
    for key, (_, runs, rejected) in by_condition.items():
        m[f"simulator.reject_frac.{key}"] = metric(rejected / runs if runs else 0.0, "frac")
    m["simulator.share"] = metric(sum(est_durations) / wall, "frac")
    m["rules.compile_us"] = metric(us("rules.compile"), "us")
    m["library.parse_us"] = metric(us("library.parse_procedure"), "us")
    m["genome.decode_us"] = metric(us("genome.decode"), "us")
    m["ga.generation_s.p50"] = metric(p50(tracer.durations("ga.crowding_generation")), "s")
    m["ga.self_s"] = metric(
        sum(tracer.durations("ga.crowding_generation")) - in_generations, "s"
    )
    m["ga.evaluate_calls"] = metric(evaluate_calls, "count")
    m["ga.simulations"] = metric(len(ga_sims), "count")
    m["ga.cache_hit_frac"] = metric(
        1.0 - len(ga_sims) / evaluate_calls if evaluate_calls else 0.0, "frac"
    )
    m["ga.sim_useful_frac"] = metric(
        len({s[INFO] for s in ga_sims}) / len(ga_sims) if ga_sims else 0.0, "frac"
    )
    m["ga.replacements"] = metric(tracer.replacements, "count")
    m["stats.compare_s.1p"] = metric(stats["1p"], "s")
    m["stats.compare_s.2p"] = metric(stats["2p"], "s")
    m["stats.parallel_eff"] = metric(
        stats["1p"] / (2 * stats["2p"]) if stats["2p"] else 0.0, "frac"
    )
    m["stats.cpu_s.2p"] = metric(stats["cpu2p"], "s")
    m["cli.import_s"] = metric(statistics.median(s["import_s"] for s in setup), "s")
    m["config.load_s"] = metric(statistics.median(s["load_s"] for s in setup), "s")
    m["error_model.critical_us"] = metric(
        statistics.median(s["critical_s"] for s in setup) * 1e6, "us"
    )
    m["cli.report_s"] = metric(sum(sum(tracer.durations(n)) for n in REPORT_SPANS), "s")
    for layer in LAYERS:
        m[f"self_s.{layer}"] = metric(self_times[layer], "s")
    m["trace.self_sum_frac"] = metric(sum(self_times.values()) / wall, "frac")
    m["trace.overhead_frac"] = metric(wall / untraced_wall - 1.0, "frac")
    m["trace.spans"] = metric(len(tracer.spans), "count")
    return m


def write_spans(workload_name: str, seed: int, spans) -> None:
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}-{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, _ in spans:
            record = {"name": name, "start": start, "end": end, "parent": parent}
            fh.write(json.dumps(record) + "\n")


def freeze(workload, work, config_path, check_path) -> None:
    """Record the report digests at the default seed in golden.json."""
    entry = {"seed": DEFAULT_SEED}
    for key, path in (("digests", config_path), ("check", check_path)):
        first = run_pass(workload, work, path, DEFAULT_SEED, workload.threads)
        second = run_pass(workload, work, path, DEFAULT_SEED, workload.threads)
        if any(first.codes) or first.digests != second.digests:
            raise SystemExit(f"{workload.name}: calls failed or repeats differ; not frozen")
        entry[key] = first.digests
    golden = load_golden()
    golden[workload.name] = entry
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"# froze the report digests of {workload.name}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="record report digests at the default seed and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcdesign" / "cli.py").is_file():
        print(f"error: no qcdesign sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The program sees only the generated argv and config.
    for var in ("QCDESIGN_SEED", "QCDESIGN_THREADS"):
        os.environ.pop(var, None)

    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        check_path = work / "check.json"
        check_path.write_text(json.dumps(workload.check_config), encoding="utf-8")
        if args.freeze:
            freeze(workload, work, config_path, check_path)
            return 0
        setup = measure_setup(config_path)
        check_attempted, check_failed = check_golden(workload, work, check_path)
        run = traced if args.trace else end_to_end
        attempted, failed, metrics, problems = run(
            args, workload, work, config_path, seed, setup
        )
        attempted += check_attempted
        failed += check_failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"# check failed: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
