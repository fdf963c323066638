#!/usr/bin/env python3
"""Record a baseline: every workload, untraced and traced, at two seeds.

Run from the root of a qcdesign git checkout:

    python3 perfbench/baseline.py

Writes perfbench/baseline.json with each run's result line, plus the
core count, the Python version and the git revision of ``src/``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = (DEFAULT_SEED, 7)


def git(*args) -> str:
    proc = subprocess.run(["git", *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    runs = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, timeout=600,
                )
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.setdefault(name, {}).setdefault(str(seed), {})[f"trace{trace}"] = result
                print(f"{name} seed {seed} trace {trace}: correct={result['correct']}",
                      flush=True)
    baseline = {
        "git_revision": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "runs": runs,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
